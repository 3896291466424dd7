"""Multi-threaded interpreter VM with Pin-style instrumentation hooks.

This is the dynamic-instrumentation substrate of the reproduction (the
paper's Pin).  The :class:`~repro.vm.machine.Machine` interprets a linked
:class:`~repro.isa.program.Program` with any number of threads, interleaved
at single-instruction granularity by a pluggable
:mod:`~repro.vm.scheduler`.  *Tools* (:class:`~repro.vm.hooks.Tool`) attach
analysis callbacks exactly like pintools do: per-instruction events with
full register/memory def-use information, syscall events, and thread
lifecycle events.  The PinPlay analog (:mod:`repro.pinplay`) and the dynamic
slicer (:mod:`repro.slicing`) are both implemented as tools.

Nondeterminism — the thing deterministic replay must capture — comes from
exactly two places: the scheduler's interleaving choices and syscall results
(``input``, ``rand``, ``time``).  Everything else is a pure function of
those, which is what makes pinball-based replay exact.
"""

from repro.vm.errors import (
    AssertionFailure,
    DeadlockError,
    HeapError,
    ReplayDivergence,
    VMError,
)
from repro.vm.hooks import InstrEvent, SyscallEvent, Tool
from repro.vm.machine import Machine, MachineSnapshot, RunResult
from repro.vm.memory import HEAP_POISON, Memory
from repro.vm.scheduler import (
    RandomScheduler,
    RecordedScheduler,
    RoundRobinScheduler,
    Scheduler,
)
from repro.vm.thread import ThreadContext, ThreadStatus

__all__ = [
    "AssertionFailure",
    "DeadlockError",
    "HEAP_POISON",
    "HeapError",
    "InstrEvent",
    "Machine",
    "MachineSnapshot",
    "Memory",
    "RandomScheduler",
    "RecordedScheduler",
    "ReplayDivergence",
    "RoundRobinScheduler",
    "RunResult",
    "Scheduler",
    "SyscallEvent",
    "ThreadContext",
    "ThreadStatus",
    "Tool",
    "VMError",
]
