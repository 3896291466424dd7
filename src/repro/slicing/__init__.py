"""Dynamic slicing for multi-threaded programs (paper Sections 3 and 5).

The pipeline, mirroring the paper's three steps plus the two precision
improvements:

1. **Per-thread local traces** — :class:`~repro.slicing.tracer.TraceCollector`
   attaches to a pinball replay and records, per retired instruction, the
   registers and memory addresses defined/used, indirect-jump target
   observations (CFG refinement, Section 5.1) with each branch's region
   end, and dynamically verified save/restore pairs (Section 5.2).  When
   the replay ends, the Xin-Zhang walk of
   :mod:`~repro.slicing.control_dep` (over refined-CFG post-dominators)
   fills in every instruction's dynamic control-dependence parent.
2. **Combined global trace** — :func:`~repro.slicing.global_trace.merge_traces`
   topologically merges the per-thread traces honoring the shared-memory
   access-order edges stored in the pinball, clustering per-thread runs
   for LP locality exactly as the paper describes.

The ``"reexec"`` index (:mod:`repro.slicing.reexec`) skips the traced
replay: it runs the same walk, merge and save/restore verification over
the pc streams of a selective replay, and re-replays checkpoint windows
for memory addresses on demand.
3. **Backward traversal** — :class:`~repro.slicing.slicer.BackwardSlicer`
   recovers the dynamic data and control dependences reachable from the
   criterion, skipping irrelevant trace blocks with the Limited
   Preprocessing (LP) summaries of Zhang et al., optionally bypassing
   save/restore pairs.

By default step 3 is served by the build-once CSR dependence index of
:mod:`repro.slicing.ddg` (``SliceOptions(index="ddg")``): one pass
compiles every dependence edge, then interactive queries are memoized
graph traversals — the backward scans remain available as the
``"columnar"`` and ``"rows"`` baselines.

High-level entry point: :class:`~repro.slicing.api.SlicingSession`.
"""

from repro.slicing.options import SliceOptions
from repro.slicing.trace import TraceRecord, TraceStore
from repro.slicing.slice import DynamicSlice
from repro.slicing.global_trace import GlobalTrace, merge_traces
from repro.slicing.ddg import DependenceIndex
from repro.slicing.slicer import BackwardSlicer
from repro.slicing.tracer import TraceCollector
from repro.slicing.api import SlicingSession
from repro.slicing.dual import DualSliceResult, dual_slice

__all__ = [
    "BackwardSlicer",
    "DependenceIndex",
    "DualSliceResult",
    "DynamicSlice",
    "GlobalTrace",
    "SliceOptions",
    "SlicingSession",
    "TraceCollector",
    "TraceRecord",
    "TraceStore",
    "dual_slice",
    "merge_traces",
]
