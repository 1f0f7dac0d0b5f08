"""Statistics: counters, CPI stacks, telemetry bus, tracing, manifests."""

from repro._lazy import lazy_exports
# Bound eagerly: the name is also its submodule's, which importing the
# submodule would otherwise bind here in its place (see repro._lazy).
from repro.stats.cpi_stack import cpi_stack

_EXPORTS = {
    "repro.stats.counters": ("Counters",),
    "repro.stats.cpi_stack": ("CPI_BUCKETS", "merge_stacks"),
    "repro.stats.trace": ("ActivationEvent", "ActivationTracer"),
    "repro.stats.telemetry": ("EventBus", "EventSink", "JsonlSink",
                              "PeriodicSampler", "Probe", "RecordingSink",
                              "TelemetryEvent", "chrome_trace",
                              "write_chrome_trace"),
    "repro.stats.manifest": ("MANIFEST_SCHEMA_VERSION", "build_manifest",
                             "load_manifest", "load_manifests",
                             "summarize_manifests", "write_manifest"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "Counters", "CPI_BUCKETS", "cpi_stack", "merge_stacks",
    "ActivationEvent", "ActivationTracer",
    "EventBus", "EventSink", "JsonlSink", "PeriodicSampler", "Probe",
    "RecordingSink", "TelemetryEvent", "chrome_trace", "write_chrome_trace",
    "MANIFEST_SCHEMA_VERSION", "build_manifest", "load_manifest",
    "load_manifests", "summarize_manifests", "write_manifest",
]
