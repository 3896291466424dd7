"""Happens-before race detection as a replay tool.

Per-thread vector clocks advance one tick per retired instruction, so
every access carries a scalar *epoch* ``(tid, clock)`` — the FastTrack
representation.  Happens-before edges come from the guest's
synchronization operations:

* ``spawn``: the child starts with (a copy of) the parent's clock;
* ``join``: the parent joins the child's exit clock;
* ``unlock m`` → later ``lock m``: the acquirer joins the clock stored at
  the last release of ``m``.

For every address in the watched range (the globals segment by default —
where program-level shared state lives), the detector keeps the last
write epoch and the last read epoch per thread; an access that is
concurrent with a conflicting previous access is a race.  Because the
analysis runs over a *pinball replay*, every report is reproducible and
its endpoints are (tid, tindex) instances usable directly as slicing
criteria.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.detect.vector_clock import VectorClock
from repro.isa.program import Program
from repro.obs.registry import OBS
from repro.pinplay.pinball import Pinball
from repro.pinplay.replayer import replay
from repro.vm.hooks import InstrEvent, SyscallEvent, Tool

Instance = Tuple[int, int]


@dataclass(frozen=True)
class RaceReport:
    """One detected race: two concurrent conflicting accesses."""

    addr: int
    kind: str                  # "write-write" | "read-write" | "write-read"
    first_pc: int
    second_pc: int
    first_instance: Instance
    second_instance: Instance

    def site_pair(self) -> Tuple[int, int, int]:
        """Static identity for deduplication: (addr, pc, pc) unordered."""
        low, high = sorted((self.first_pc, self.second_pc))
        return (self.addr, low, high)

    def describe(self, program: Optional[Program] = None) -> str:
        def site(pc: int, instance: Instance) -> str:
            if program is None:
                return "pc %d (tid %d)" % (pc, instance[0])
            function = program.function_at(pc)
            return "%s:%s (tid %d, pc %d)" % (
                function.name if function else "?",
                program.line_of(pc), instance[0], pc)

        location = "mem[%d]" % self.addr
        if program is not None:
            for var in program.globals.values():
                if var.addr <= self.addr < var.addr + max(1, var.size):
                    offset = self.addr - var.addr
                    location = var.name if not var.is_array else (
                        "%s[%d]" % (var.name, offset))
                    break
        return "%s race on %s: %s || %s" % (
            self.kind, location,
            site(self.first_pc, self.first_instance),
            site(self.second_pc, self.second_instance))


class RaceDetectorTool(Tool):
    """Vector-clock happens-before detector attached to a replay."""

    wants_instr_events = True

    def __init__(self, watch_low: int = 0,
                 watch_high: Optional[int] = None) -> None:
        self.watch_low = watch_low
        self.watch_high = watch_high
        self.races: List[RaceReport] = []
        self._seen_pairs: Set[Tuple[int, int, int]] = set()
        self._clocks: Dict[int, VectorClock] = {}
        self._exit_clocks: Dict[int, VectorClock] = {}
        self._release_clocks: Dict[int, VectorClock] = {}
        self._barrier_round_clocks: Dict[int, VectorClock] = {}
        self._barrier_pending: Dict[int, set] = {}
        self._machine = None
        # addr -> (tid, clock, pc, tindex) of the last write.
        self._writes: Dict[int, Tuple[int, int, int, int]] = {}
        # addr -> tid -> (clock, pc, tindex) of that thread's last read.
        self._reads: Dict[int, Dict[int, Tuple[int, int, int]]] = {}

    # -- clock helpers -------------------------------------------------------

    def _clock(self, tid: int) -> VectorClock:
        clock = self._clocks.get(tid)
        if clock is None:
            clock = VectorClock()
            self._clocks[tid] = clock
        return clock

    def _epoch_before(self, tid: int, clock_value: int,
                      observer: VectorClock) -> bool:
        """Did epoch (tid, clock_value) happen-before the observer clock?"""
        return clock_value <= observer.get(tid)

    # -- lifecycle / synchronization ----------------------------------------------

    def on_start(self, machine) -> None:
        self._machine = machine

    def on_thread_start(self, tid, parent, start_pc, arg) -> None:
        clock = self._clock(tid)
        if parent is not None:
            clock.join(self._clock(parent))
        clock.tick(tid)

    def on_thread_exit(self, tid, exit_value) -> None:
        self._exit_clocks[tid] = self._clock(tid).copy()

    def on_syscall(self, event: SyscallEvent) -> None:
        clock = self._clock(event.tid)
        if event.name == "spawn":
            # The child's start clock was joined in on_thread_start (which
            # fires during this syscall); advance the parent past it.
            clock.tick(event.tid)
        elif event.name == "join":
            child = int(event.args[0])
            exit_clock = self._exit_clocks.get(child)
            if exit_clock is not None:
                clock.join(exit_clock)
        elif event.name == "lock":
            release = self._release_clocks.get(int(event.args[0]))
            if release is not None:
                clock.join(release)
        elif event.name == "unlock":
            self._release_clocks[int(event.args[0])] = clock.copy()
            clock.tick(event.tid)
        elif event.name == "barrier":
            self._on_barrier(event, clock)

    def _on_barrier(self, event: SyscallEvent, clock: VectorClock) -> None:
        """Barriers are full synchronization points: every participant's
        pre-barrier history happens-before every participant's
        post-barrier code.

        The releasing (n-th) arrival completes its syscall first; at that
        moment the other participants sit blocked with their clocks frozen
        at arrival time, listed in the machine's ``released`` set — so the
        round clock can be assembled right there.  Each released
        participant joins the round clock when its retried syscall
        completes (tracked in a pending set, since the machine removes the
        thread from ``released`` before this event fires)."""
        addr = int(event.args[0])
        pending = self._barrier_pending.get(addr)
        if pending is not None and event.tid in pending:
            # Retry completion of a previously released participant.
            clock.join(self._barrier_round_clocks[addr])
            pending.discard(event.tid)
        else:
            # The releasing arrival (or a trivial 1-thread barrier).
            peers = set()
            if self._machine is not None:
                state = self._machine.barriers.get(addr)
                if state is not None:
                    peers = set(state["released"])
            round_clock = clock.copy()
            for peer in peers:
                round_clock.join(self._clock(peer))
            clock.join(round_clock)
            self._barrier_round_clocks[addr] = round_clock
            self._barrier_pending[addr] = peers
        clock.tick(event.tid)

    # -- accesses ------------------------------------------------------------------

    def _watched(self, addr: int) -> bool:
        if addr < self.watch_low:
            return False
        return self.watch_high is None or addr < self.watch_high

    def on_instr(self, event: InstrEvent) -> None:
        tid = event.tid
        clock = self._clock(tid)
        now = clock.tick(tid)

        for addr, _value in event.mem_reads:
            if not self._watched(addr):
                continue
            write = self._writes.get(addr)
            if write is not None:
                w_tid, w_clock, w_pc, w_tindex = write
                if w_tid != tid and not self._epoch_before(
                        w_tid, w_clock, clock):
                    self._report(addr, "write-read",
                                 (w_pc, (w_tid, w_tindex)),
                                 (event.addr, (tid, event.tindex)))
            self._reads.setdefault(addr, {})[tid] = (
                now, event.addr, event.tindex)

        for addr, _value in event.mem_writes:
            if not self._watched(addr):
                continue
            write = self._writes.get(addr)
            if write is not None:
                w_tid, w_clock, w_pc, w_tindex = write
                if w_tid != tid and not self._epoch_before(
                        w_tid, w_clock, clock):
                    self._report(addr, "write-write",
                                 (w_pc, (w_tid, w_tindex)),
                                 (event.addr, (tid, event.tindex)))
            for r_tid, (r_clock, r_pc, r_tindex) in self._reads.get(
                    addr, {}).items():
                if r_tid != tid and not self._epoch_before(
                        r_tid, r_clock, clock):
                    self._report(addr, "read-write",
                                 (r_pc, (r_tid, r_tindex)),
                                 (event.addr, (tid, event.tindex)))
            self._writes[addr] = (tid, now, event.addr, event.tindex)

    def _report(self, addr: int, kind: str, first, second) -> None:
        # The key is RaceReport.site_pair(), built before the report so
        # that the many repeats of a known pair allocate nothing.
        first_pc = first[0]
        second_pc = second[0]
        key = ((addr, first_pc, second_pc) if first_pc <= second_pc
               else (addr, second_pc, first_pc))
        if key in self._seen_pairs:
            return
        self._seen_pairs.add(key)
        self.races.append(RaceReport(
            addr=addr, kind=kind, first_pc=first_pc, second_pc=second_pc,
            first_instance=first[1], second_instance=second[1]))


def detect_races(pinball: Pinball, program: Program,
                 globals_only: bool = True,
                 online: bool = True) -> List[RaceReport]:
    """Replay ``pinball`` under the race detector; returns unique races.

    ``globals_only`` restricts the watch to the globals segment (program-
    level shared state); pass False to watch the full address space
    (heap and stacks too — slower, and cross-thread stack accesses are
    rare by construction).

    ``online`` (the default) runs the recorder-protocol detector over
    a replay that builds no events (see :mod:`repro.detect.online`),
    on every engine and pinball.  ``online=False`` selects the classic
    traced tool, the differential oracle the online detector is checked
    against.  Both report the same races.
    """
    if online:
        from repro.detect.online import detect_races_online
        return detect_races_online(pinball, program,
                                   globals_only=globals_only)
    from repro.isa.program import GLOBAL_BASE
    tool = RaceDetectorTool(
        watch_low=GLOBAL_BASE,
        watch_high=program.data_size if globals_only else None)
    replay(pinball, program, tools=[tool], verify=False)
    if OBS.enabled:
        OBS.add("detect.traced_runs", 1)
    return tool.races
