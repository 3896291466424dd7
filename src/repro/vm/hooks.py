"""Instrumentation interface: tools attach to the VM like pintools to Pin.

A :class:`Tool` subscribes to machine events.  Per-instruction events carry
the full dynamic def/use information (register reads/writes with values,
memory reads/writes with addresses and values) that the dynamic slicer
needs; syscall and thread-lifecycle events are what the PinPlay-style
logger records.

Tools that do not need per-instruction events leave
:attr:`Tool.wants_instr_events` False, and the machine then skips event
construction entirely — the analog of the paper's observation that
fast-forwarding (before the region of interest) proceeds at near Pin-only
speed because the logger instruments minimally outside the region.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

Word = Union[int, float]


class InstrEvent:
    """One retired instruction with its dynamic def/use information."""

    __slots__ = (
        "seq", "tid", "tindex", "addr", "instr",
        "reg_reads", "reg_writes", "mem_reads", "mem_writes",
        "frame_id",
    )

    def __init__(self, seq: int, tid: int, tindex: int, addr: int, instr,
                 reg_reads: Sequence[Tuple[str, Word]],
                 reg_writes: Sequence[Tuple[str, Word]],
                 mem_reads: Sequence[Tuple[int, Word]],
                 mem_writes: Sequence[Tuple[int, Word]],
                 frame_id: int) -> None:
        self.seq = seq              # global step number (region-relative)
        self.tid = tid
        self.tindex = tindex        # index in this thread's retired stream
        self.addr = addr            # code address (pc)
        self.instr = instr          # the Instr object
        self.reg_reads = reg_reads
        self.reg_writes = reg_writes
        self.mem_reads = mem_reads
        self.mem_writes = mem_writes
        self.frame_id = frame_id    # current frame id (for control deps)

    def __repr__(self) -> str:
        return ("<InstrEvent seq=%d tid=%d tindex=%d pc=%d %s>"
                % (self.seq, self.tid, self.tindex, self.addr, self.instr))


class SyscallEvent:
    """One executed syscall, with its arguments and result."""

    __slots__ = ("seq", "tid", "tindex", "addr", "name", "args", "result",
                 "injected")

    def __init__(self, seq: int, tid: int, tindex: int, addr: int, name: str,
                 args: Tuple[Word, ...], result: Optional[Word],
                 injected: bool = False) -> None:
        self.seq = seq
        self.tid = tid
        self.tindex = tindex
        self.addr = addr
        self.name = name
        self.args = args
        self.result = result
        self.injected = injected

    def __repr__(self) -> str:
        return ("<SyscallEvent tid=%d %s%r -> %r>"
                % (self.tid, self.name, self.args, self.result))


class Tool:
    """Base class for analysis tools; override the callbacks you need."""

    #: Set True to receive :meth:`on_instr` with full def/use events.
    wants_instr_events = False

    #: Set False to promise that :meth:`on_instr` never keeps a reference
    #: to the event (or its def/use sequences) past its own return.  When
    #: every subscribed tool promises this, the predecoded engine recycles
    #: one scratch event per step instead of allocating — the def/use
    #: sequences are then lists, identical in contents and order to the
    #: tuples a retaining tool would see.  Leave True (the safe default)
    #: if the tool stores events anywhere.
    retains_instr_events = True

    def on_start(self, machine) -> None:
        """Called once before the first step."""

    def on_instr(self, event: InstrEvent) -> None:
        """Called after every retired instruction (if subscribed)."""

    def on_syscall(self, event: SyscallEvent) -> None:
        """Called after every completed (non-blocking) syscall."""

    def on_thread_start(self, tid: int, parent: Optional[int],
                        start_pc: int, arg: Word) -> None:
        """Called when a thread is created (including the main thread)."""

    def on_thread_exit(self, tid: int, exit_value: Word) -> None:
        """Called when a thread finishes."""

    def on_step(self, tid: int) -> None:
        """Called for every scheduler step, including blocked lock attempts.

        This is the hook the schedule recorder uses: the recorded schedule
        must include steps that did not retire an instruction (a lock
        attempt that blocked), because replay re-executes those too.
        """

    def on_finish(self, machine) -> None:
        """Called once when the run stops (program end, failure, or limit)."""


class ListeningRecorder:
    """The inert half of the recorder protocol (:meth:`Machine.set_recorder
    <repro.vm.machine.Machine.set_recorder>`) for recorders that only
    listen to memory accesses (the online race detector, Maple's
    profiler): no checkpoint is taken.  Subclasses define ``on_mem``
    and may declare ``watch_window``.  The feed is the same on either
    engine and beside instruction-event tools, and it may run over a
    slice pinball's exclusion skips.
    """

    checkpoint_interval = 0
    next_checkpoint = 0
    steps_done = 0

    def capture(self, machine, steps_done: int) -> None:
        pass
