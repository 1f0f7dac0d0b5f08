"""Decoupling compiler front-end (paper Sec. 4, Fig. 5).

Write a workload as ONE annotated kernel — a straight-line loop body
with its long-latency accesses marked — and the front-end splits it
into a feed-forward pipeline of FIFO-connected stages:

* :mod:`repro.frontend.kernel` — the kernel-description layer
  (:class:`GraphKernel`, builder-style expressions, ``load`` markers);
* :mod:`repro.frontend.split` — dependence analysis over the
  whole-kernel DFG: cut at every marked load, infer the values live
  across each cut, derive channel widths;
* :mod:`repro.frontend.lint` — proves the result feed-forward and
  rejects illegal kernels (back-edges, values not live across a cut)
  with errors naming the offending node;
* :mod:`repro.frontend.lower` — instantiates the stages as a runnable
  program on :mod:`repro.core`, replicated per shard with owner-routed
  cross-shard hops;
* :mod:`repro.frontend.kernels` — the shipped kernels (``bfs``, ``cc``,
  ``sssp``), the only definitions of those pipelines, and the
  :func:`get_frontend` registry.
"""

from repro.frontend.kernel import FrontendError, GraphKernel
from repro.frontend.lint import PipelineLintError
from repro.frontend.split import StagePlan, analyze
from repro.frontend.lower import (CompiledPipeline, FrontendWorkload,
                                  compile_kernel)
from repro.frontend.kernels import (FRONTEND_KERNELS, get_frontend,
                                    sssp_edge_weights, SSSP_INF)

__all__ = ["FrontendError", "GraphKernel", "PipelineLintError", "StagePlan",
           "analyze", "CompiledPipeline", "FrontendWorkload",
           "compile_kernel", "FRONTEND_KERNELS", "get_frontend",
           "sssp_edge_weights", "SSSP_INF"]
