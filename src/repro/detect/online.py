"""Online race detection on the recorder protocol.

The classic :class:`~repro.detect.race_detector.RaceDetectorTool`
subscribes to per-instruction events, which forces the traced
interpreter path: every retired instruction materializes an
:class:`InstrEvent` whether it touched memory or not.  The detector
here implements the machine's *recorder protocol* instead
(:meth:`repro.vm.machine.Machine.set_recorder`): the run loop calls
:meth:`on_mem` only for instructions that actually touched memory,
handing over bare address lists plus the accessing pc — exactly the
facts happens-before race detection needs.  On the predecoded engine
the pass runs through the untraced micro-op closures; no trace is ever
materialized.  The feed is the same on the legacy engine, beside
instruction-event tools, and over a slice pinball's exclusion skips
(which retire nothing, so neither detector sees them).

Clock granularity differs from the traced detector — one tick per
*memory access* rather than per instruction — but happens-before
relations are decided solely by the joins at synchronization points,
which both detectors observe identically through the syscall hooks
(those fire in untraced mode too).  The two modes therefore report the
same race site pairs, with the same kinds and the same (tid, tindex)
instances; ``tests/analysis/test_hunt_differential.py`` asserts it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.detect.race_detector import RaceDetectorTool, RaceReport
from repro.isa.program import GLOBAL_BASE, Program
from repro.obs.registry import OBS
from repro.pinplay.pinball import Pinball
from repro.pinplay.replayer import replay_machine
from repro.vm.hooks import ListeningRecorder
from repro.vm.machine import Machine

__all__ = ["OnlineRaceDetector", "detect_races_online"]


class OnlineRaceDetector(ListeningRecorder, RaceDetectorTool):
    """Vector-clock detector fed through the recorder protocol.

    Registered both as a machine tool (sync and lifecycle events arrive
    through the ordinary hooks) and as the machine's recorder (memory
    accesses arrive through :meth:`on_mem`).  The schedule-recording
    half of the recorder protocol is inert
    (:class:`~repro.vm.hooks.ListeningRecorder`) — this recorder
    listens, it does not log.
    """

    wants_instr_events = False     # the accesses come through on_mem

    def __init__(self, watch_low: int = 0,
                 watch_high: Optional[int] = None) -> None:
        super().__init__(watch_low=watch_low, watch_high=watch_high)
        self._mem_ops_cell = [0]
        #: on_mem ignores every address outside [low, high), so the
        #: machine skips the call for a one-address step outside it.
        self.watch_window = (watch_low, watch_high if watch_high is not None
                             else float("inf"))
        # on_mem fires once per memory-touching instruction on the hot
        # loop — build it as a closure so every collaborator is a cell
        # variable instead of a per-call attribute lookup.
        self.on_mem = self._build_on_mem()

    @property
    def mem_ops(self) -> int:
        return self._mem_ops_cell[0]

    def attach(self, machine: Machine) -> None:
        machine.add_tool(self)
        machine.set_recorder(self)

    # -- accesses ----------------------------------------------------------

    def _build_on_mem(self):
        """The per-access hot path, compiled to a closure.

        Three deliberate deviations from the traced tool's ``on_instr``,
        none of which can change a verdict:

        * unwatched addresses are rejected with two integer compares
          (``watch_high=None`` becomes an infinite upper bound);
        * the thread clock ticks *lazily*, only when an instruction
          actually touches a watched address — ticks merely relabel one
          thread's epochs monotonically, and happens-before is decided
          by the joins at sync points, so any tick granularity yields
          the same races (the differential suite pins this);
        * the epoch-before test is inlined on the sparse clock's dict:
          ``(w_tid, w_clock)`` happened-before me iff
          ``w_clock <= my_times.get(w_tid, 0)``.
        """
        low, high = self.watch_window
        clocks = self._clocks
        writes = self._writes
        reads = self._reads
        report = self._report
        make_clock = self._clock
        cell = self._mem_ops_cell

        def on_mem(tid, tindex, read_addrs, write_addrs, pc=-1):
            times = None
            now = 0
            for addr in read_addrs:
                if addr < low or addr >= high:
                    continue
                if times is None:
                    clock = clocks.get(tid) or make_clock(tid)
                    times = clock._times
                    now = times.get(tid, 0) + 1
                    times[tid] = now
                    cell[0] += 1
                write = writes.get(addr)
                if write is not None:
                    w_tid, w_clock, w_pc, w_tindex = write
                    if w_tid != tid and w_clock > times.get(w_tid, 0):
                        report(addr, "write-read",
                               (w_pc, (w_tid, w_tindex)),
                               (pc, (tid, tindex)))
                by_tid = reads.get(addr)
                if by_tid is None:
                    by_tid = reads[addr] = {}
                by_tid[tid] = (now, pc, tindex)

            for addr in write_addrs:
                if addr < low or addr >= high:
                    continue
                if times is None:
                    clock = clocks.get(tid) or make_clock(tid)
                    times = clock._times
                    now = times.get(tid, 0) + 1
                    times[tid] = now
                    cell[0] += 1
                write = writes.get(addr)
                if write is not None:
                    w_tid, w_clock, w_pc, w_tindex = write
                    if w_tid != tid and w_clock > times.get(w_tid, 0):
                        report(addr, "write-write",
                               (w_pc, (w_tid, w_tindex)),
                               (pc, (tid, tindex)))
                by_tid = reads.get(addr)
                if by_tid:
                    for r_tid, (r_clock, r_pc, r_tindex) in \
                            by_tid.items():
                        if r_tid != tid and r_clock > times.get(r_tid, 0):
                            report(addr, "read-write",
                                   (r_pc, (r_tid, r_tindex)),
                                   (pc, (tid, tindex)))
                writes[addr] = (tid, now, pc, tindex)

        return on_mem


def detect_races_online(pinball: Pinball, program: Program,
                        globals_only: bool = True) -> List[RaceReport]:
    """One replay pass of any pinball, slice pinballs included, with
    the online detector as the machine's recorder."""
    detector = OnlineRaceDetector(
        watch_low=GLOBAL_BASE,
        watch_high=program.data_size if globals_only else None)
    machine = replay_machine(pinball, program)
    detector.attach(machine)
    with OBS.span("detect.online_pass"):
        machine.run(max_steps=pinball.total_steps)
    machine.set_recorder(None)
    if OBS.enabled:
        OBS.add("detect.online_runs", 1)
        OBS.add("detect.online_mem_ops", detector.mem_ops)
        OBS.add("detect.online_races", len(detector.races))
    return detector.races
