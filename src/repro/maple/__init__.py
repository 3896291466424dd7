"""Maple analog: coverage-driven exposure of concurrency bugs + recording.

The paper integrates DrDebug with Maple (Yu et al., OOPSLA'12) for the
"programmer hit a bug once but cannot reproduce it" scenario.  Maple's two
phases map to:

* :class:`~repro.maple.profiler.InterleavingProfiler` — runs the program a
  few times under different seeded schedules and records *iRoots*: ordered
  pairs of static instructions from different threads that conflict on a
  shared address.  Orderings seen in no run so far are the *predicted*
  (untested) interleavings.
* :class:`~repro.maple.active_scheduler.ActiveScheduler` — a strict-control
  scheduler that steers execution to realize one predicted iRoot: a thread
  about to perform the iRoot's *second* access is held back until some
  other thread performs the *first* access (with a give-up budget to avoid
  starvation, like Maple's timeouts).

:func:`~repro.maple.expose.expose_and_record` runs the whole loop and —
the DrDebug integration — executes the successful active-scheduled run
under the PinPlay logger, returning a pinball that replays the exposed
bug deterministically.
"""

from repro.maple.idioms import IRoot, MemAccess
from repro.maple.profiler import InterleavingProfiler, ProfilerTool
from repro.maple.active_scheduler import ActiveScheduler
from repro.maple.expose import MapleResult, expose_and_record

__all__ = [
    "ActiveScheduler",
    "IRoot",
    "InterleavingProfiler",
    "MapleResult",
    "MemAccess",
    "ProfilerTool",
    "expose_and_record",
]
