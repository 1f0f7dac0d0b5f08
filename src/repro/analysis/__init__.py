"""Static pipeline verification and runtime sanitizing (``repro lint``).

The package runs over a compiled :class:`~repro.core.program.Program`
*before* simulation: channel-graph extraction and queue/deadlock
analysis (:mod:`repro.analysis.graph`, :mod:`repro.analysis.deadlock`),
per-stage DFG dataflow passes (:mod:`repro.analysis.dfg_passes`), and
an armable runtime sanitizer (:mod:`repro.analysis.sanitize`) that
dynamically enforces the same invariants the static passes certify.
See ``docs/analysis.md`` for the pass catalog.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.analysis.report": ("AnalysisError", "AnalysisReport", "Finding"),
    "repro.analysis.depgraph": ("Access", "DepEdge", "DependenceGraph",
                                "build_dependence_graph", "classify_index",
                                "clone_kernel", "strip_annotations"),
    "repro.analysis.autosplit": ("AutosplitError", "CutCandidate",
                                 "PatternMatch", "SplitAdvice",
                                 "SplitCostModel", "advise_kernel",
                                 "apply_and_verify", "apply_split",
                                 "detect_patterns", "infer_split"),
    "repro.analysis.graph": ("CONTROL_CORE", "Channel", "ChannelGraph",
                             "Endpoint", "build_channel_graph",
                             "classify_edge", "find_cycle_within",
                             "strongly_connected_components"),
    "repro.analysis.deadlock": ("analyze_deadlock",),
    "repro.analysis.dfg_passes": ("analyze_stage",),
    "repro.analysis.sanitize": ("SanitizerError", "SimulationSanitizer"),
    "repro.analysis.verify": ("analyze_program",),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [name for names in _EXPORTS.values() for name in names]
