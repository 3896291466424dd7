"""The PinPlay-style relogger: turn a region pinball into a slice pinball.

Given the set of instruction instances a dynamic slice wants to keep, the
relogger replays the region pinball once, and along the way:

* partitions each thread's instruction stream into *kept* runs and
  *excluded* runs;
* for every excluded run, detects its side effects — the final values of
  every register and memory cell the run wrote, plus the call-frame state —
  using the same observe-during-replay approach PinPlay uses for system
  call side effects;
* rebuilds the schedule with excluded steps dropped (each excluded run
  collapses to the single "skip" step the replaying machine consumes when
  it teleports past the run);
* emits a slice pinball: same snapshot and syscall log, new schedule, plus
  the exclusion records with their injections.

Policy: syscall instructions are never excluded (they carry
synchronization and nondeterminism-injection order), and each thread's
final instruction is kept so every thread terminates cleanly in slice
replay.  This mirrors PinPlay keeping system effects in the pinball.

Two implementations produce byte-identical slice pinballs.  On the
predecoded engine the replay runs through the machine's selective branch
(:meth:`~repro.vm.machine.Machine.set_selective`) with a handler table
built here from the program's decoded closures: a step pays one
comparison against its thread's next kept index, and an excluded run's
registers, memory and frames are read off the thread when the run
closes.  The legacy interpreter has no selective tables, so there
:class:`RelogTool` observes a traced replay instead; it is also the
oracle of the cross-engine relog differential.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.isa.instructions import ALL_REGISTERS, Opcode
from repro.isa.program import Program
from repro.obs.registry import OBS
from repro.pinplay.pinball import Pinball
from repro.pinplay.replayer import replay_machine
from repro.vm.errors import ReplayDivergence
from repro.vm.hooks import InstrEvent, Tool
from repro.vm.microops import decode_program, program_effects
from repro.vm.scheduler import ScheduleRecorder


class RelogError(ValueError):
    """The pinball cannot be relogged into a slice pinball.

    Raised for pinballs that already carry exclusion records: their
    replay teleports over excluded runs, so a relog would lose the
    skipped code's effects and write a slice pinball that no longer
    replays.  A :class:`ValueError`, so the CLI exits 65 and the debug
    service answers ``INVALID_PARAMS``.
    """


def _exclusion(tid: int, start_pc: int, start_arrival: int, end_pc: int,
               regs, mem, frames: List[dict], count: int) -> dict:
    """One exclusion record, in the key order slice pinballs serialize."""
    return {
        "tid": tid,
        "start_pc": start_pc,
        "start_arrival": start_arrival,
        "end_pc": end_pc,
        "regs": sorted(regs),
        "mem": sorted(mem),
        "frames": frames,
        "excluded_count": count,
    }


def _frames_snapshot(thread) -> List[dict]:
    return [
        {"func": f.func, "call_addr": f.call_addr,
         "return_addr": f.return_addr, "frame_id": f.frame_id,
         "fp_at_entry": f.fp_at_entry}
        for f in thread.frames
    ]


class _PendingExclusion:
    """Accumulates one excluded run's side effects during the relog replay."""

    __slots__ = ("tid", "start_pc", "start_arrival", "regs", "mem", "frames",
                 "count")

    def __init__(self, tid: int, start_pc: int, start_arrival: int,
                 frames: List[dict]) -> None:
        self.tid = tid
        self.start_pc = start_pc
        self.start_arrival = start_arrival
        self.regs: Dict[str, object] = {}
        self.mem: Dict[int, object] = {}
        self.frames = frames
        self.count = 0

    def finalize(self, end_pc: int) -> dict:
        return _exclusion(self.tid, self.start_pc, self.start_arrival,
                          end_pc, self.regs.items(), self.mem.items(),
                          self.frames, self.count)


class RelogTool(Tool):
    """Observes a full traced region replay and derives the slice pinball
    parts: the legacy engine's relogger and the differential oracle."""

    wants_instr_events = True
    retains_instr_events = False   # values are copied into pending records

    def __init__(self, machine, program: Program,
                 keep: Dict[int, Set[int]],
                 last_tindex: Dict[int, int]) -> None:
        self.machine = machine
        self.program = program
        self.keep = {int(tid): set(idxs) for tid, idxs in keep.items()}
        self.last_tindex = dict(last_tindex)
        self.new_schedule = ScheduleRecorder()
        self.exclusions: List[dict] = []
        self.kept_counts: Dict[int, int] = {}
        self.total_counts: Dict[int, int] = {}
        self._active: Dict[int, Optional[_PendingExclusion]] = {}
        self._slice_arrivals: Dict[Tuple[int, int], int] = {}

    # -- keep policy ---------------------------------------------------------

    def _is_kept(self, tid: int, tindex: int, pc: int) -> bool:
        if self.program.instructions[pc].op == Opcode.SYS:
            return True
        if tindex == self.last_tindex.get(tid):
            return True
        return tindex in self.keep.get(tid, ())

    # -- event handlers ----------------------------------------------------------

    def on_step(self, tid: int) -> None:
        thread = self.machine.threads[tid]
        kept = self._is_kept(tid, thread.instr_count, thread.pc)
        # Keep the step if the instruction is kept, or if it *starts* an
        # excluded run (that step becomes the skip step in slice replay).
        if kept or self._active.get(tid) is None:
            self.new_schedule.record(tid)

    def on_instr(self, event: InstrEvent) -> None:
        tid = event.tid
        pc = event.addr
        self.total_counts[tid] = self.total_counts.get(tid, 0) + 1
        pending = self._active.get(tid)
        if self._is_kept(tid, event.tindex, pc):
            if pending is not None:
                self.exclusions.append(pending.finalize(end_pc=pc))
                self._active[tid] = None
            key = (tid, pc)
            self._slice_arrivals[key] = self._slice_arrivals.get(key, 0) + 1
            self.kept_counts[tid] = self.kept_counts.get(tid, 0) + 1
            return
        if pending is None:
            key = (tid, pc)
            arrival = self._slice_arrivals.get(key, 0) + 1
            self._slice_arrivals[key] = arrival
            pending = _PendingExclusion(
                tid, pc, arrival,
                frames=_frames_snapshot(self.machine.threads[tid]))
            self._active[tid] = pending
        for name, value in event.reg_writes:
            pending.regs[name] = value
        for addr, value in event.mem_writes:
            pending.mem[addr] = value
        pending.count += 1
        if event.instr.op in (Opcode.CALL, Opcode.ICALL, Opcode.RET):
            pending.frames = _frames_snapshot(self.machine.threads[tid])

    # -- result ------------------------------------------------------------------

    def dangling(self) -> List[int]:
        return [tid for tid, pending in self._active.items()
                if pending is not None]

    def schedule(self) -> List[Tuple[int, int]]:
        return self.new_schedule.runs

    def thread_kept(self) -> Dict[int, int]:
        """Kept instructions per thread, in first-retirement order."""
        return {tid: self.kept_counts.get(tid, 0)
                for tid in self.total_counts}


# -- the selective relogger ------------------------------------------------------

#: ``next`` of a thread whose keep list is used up: no step reaches it.
_NEVER = 1 << 62

#: One bit per architectural register, for an excluded run's def set.
_REG_BITS = {name: 1 << index for index, name in enumerate(ALL_REGISTERS)}


def _written_regs(thread, mask: int) -> List[Tuple[str, object]]:
    """The thread's current values of the registers in ``mask``."""
    regs = thread.regs
    return [(name, regs[name]) for name, bit in _REG_BITS.items()
            if mask & bit]


class _ThreadRelog:
    """Per-thread relog state: the keep cursor and the open excluded run.

    ``next`` is the index of the thread's next instruction that must take
    the slow path: a kept one, or the first of an excluded run.  Every
    other step is an excluded step of the open run."""

    __slots__ = ("next", "kept", "cursor", "open", "start_pc",
                 "start_arrival", "start_tindex", "mask", "mem",
                 "kept_count", "arrivals")

    def __init__(self, kept: List[int], code_len: int) -> None:
        self.next = 0
        self.kept = kept
        self.cursor = 0
        self.open = False
        self.start_pc = self.start_arrival = self.start_tindex = 0
        self.mask = 0
        self.mem: Dict[int, object] = {}
        self.kept_count = 0
        #: Slice-replay arrivals per pc: kept executions plus run starts.
        self.arrivals = [0] * code_len


class _SelectiveRelog:
    """Derives the slice pinball parts from one selective replay."""

    def __init__(self, machine, program: Program,
                 keep: Dict[int, Set[int]],
                 last_tindex: Dict[int, int]) -> None:
        self.keep = {int(tid): idxs for tid, idxs in keep.items()}
        self.last_tindex = last_tindex
        self.code_len = len(program.instructions)
        self.threads: List[_ThreadRelog] = []
        self._grow(machine.next_tid)
        self.new_schedule = ScheduleRecorder()
        self.exclusions: List[dict] = []
        #: Tids in first-retirement order (the meta's thread order).
        self.first_retired: List[int] = []
        self.table = self._build_table(program, machine.memory.read)

    def _grow(self, size: int) -> None:
        """Add states for tids up to ``size`` (spawned threads)."""
        for tid in range(len(self.threads), size):
            kept = set(self.keep.get(tid, ()))
            if tid in self.last_tindex:
                kept.add(self.last_tindex[tid])
            self.threads.append(_ThreadRelog(sorted(kept), self.code_len))

    def schedule(self) -> List[Tuple[int, int]]:
        return self.new_schedule.runs

    # -- run boundaries ----------------------------------------------------------

    def _close(self, tid: int, state: _ThreadRelog, end_pc: int,
               tindex: int, regs, frames: List[dict]) -> None:
        self.exclusions.append(_exclusion(
            tid, state.start_pc, state.start_arrival, end_pc, regs,
            state.mem.items(), frames, tindex - state.start_tindex))
        state.open = False

    def boundary(self, thread, state: _ThreadRelog, pc: int) -> bool:
        """Slow path of a non-syscall step; True if the step is kept.

        Runs before the instruction executes, so a closing run's
        registers and frames are still the run's own."""
        tindex = thread.instr_count
        tid = thread.tid
        kept = state.kept
        cursor = state.cursor
        end = len(kept)
        while cursor < end and kept[cursor] < tindex:
            cursor += 1
        self.new_schedule.record(tid)
        if tindex == 0:
            self.first_retired.append(tid)
        if cursor < end and kept[cursor] == tindex:
            state.cursor = cursor + 1
            if state.open:
                self._close(tid, state, pc, tindex,
                            _written_regs(thread, state.mask),
                            _frames_snapshot(thread))
            state.arrivals[pc] += 1
            state.kept_count += 1
            state.next = tindex + 1
            return True
        state.cursor = cursor
        arrival = state.arrivals[pc] + 1
        state.arrivals[pc] = arrival
        state.open = True
        state.start_pc = pc
        state.start_arrival = arrival
        state.start_tindex = tindex
        state.mask = 0
        state.mem = {}
        state.next = kept[cursor] if cursor < end else _NEVER
        return False

    def syscall(self, machine, thread, fast, pc: int) -> bool:
        """A syscall step: always kept, blocked attempts included; an open
        run closes only when the syscall retires."""
        tid = thread.tid
        state = self.threads[tid]
        self.new_schedule.record(tid)
        if state.open:
            regs = _written_regs(thread, state.mask)
            frames = _frames_snapshot(thread)
        if not fast(machine, thread):
            return False
        tindex = thread.instr_count
        if tindex == 0:
            self.first_retired.append(tid)
        if state.open:
            self._close(tid, state, pc, tindex, regs, frames)
        state.arrivals[pc] += 1
        state.kept_count += 1
        state.next = tindex + 1
        if machine.next_tid > len(self.threads):
            self._grow(machine.next_tid)
        return True

    # -- the handler table -------------------------------------------------------

    def _build_table(self, program: Program, read) -> list:
        fast_table, _traced, rec_table, _kinds = decode_program(program)
        effects = program_effects(program)
        threads = self.threads
        boundary = self.boundary
        syscall = self.syscall
        # Scratch address lists shared by the memory-writing handlers.
        reads: List[int] = []
        writes: List[int] = []
        table = []
        for pc, instr in enumerate(program.instructions):
            fast = fast_table[pc]
            if instr.op == Opcode.SYS:
                table.append(_sel_syscall(syscall, fast, pc))
                continue
            effect = effects[pc]
            if effect is None:
                # Undecodable shape: its execution raises anyway.
                defs, writes_mem = (), False
            else:
                defs, writes_mem = effect.writes, effect.writes_mem
            bits = 0
            for name in defs:
                bits |= _REG_BITS.get(name, 0)
            if writes_mem:
                table.append(_sel_write(threads, boundary, fast,
                                        rec_table[pc], bits, pc, read,
                                        reads, writes))
            else:
                table.append(_sel_plain(threads, boundary, fast, bits, pc))
        return table

    # -- result ------------------------------------------------------------------

    def dangling(self) -> List[int]:
        return [tid for tid, state in enumerate(self.threads) if state.open]

    def thread_kept(self) -> Dict[int, int]:
        """Kept instructions per thread, in first-retirement order."""
        return {tid: self.threads[tid].kept_count
                for tid in self.first_retired}


def _sel_plain(threads, boundary, fast, bits: int, pc: int):
    """Handler for an instruction that writes no memory."""
    def sel(machine, thread) -> bool:
        state = threads[thread.tid]
        if (thread.instr_count >= state.next
                and boundary(thread, state, pc)):
            return fast(machine, thread)
        state.mask |= bits
        return fast(machine, thread)
    return sel


def _sel_write(threads, boundary, fast, rec, bits: int, pc: int, read,
               reads: List[int], writes: List[int]):
    """Handler for an instruction that writes memory: an excluded instance
    runs the record closure and reads each written word back into the
    run."""
    def sel(machine, thread) -> bool:
        state = threads[thread.tid]
        if (thread.instr_count >= state.next
                and boundary(thread, state, pc)):
            return fast(machine, thread)
        state.mask |= bits
        retired = rec(machine, thread, reads, writes)
        mem = state.mem
        for addr in writes:
            mem[addr] = read(addr)
        writes.clear()
        if reads:
            reads.clear()
        return retired
    return sel


def _sel_syscall(syscall, fast, pc: int):
    def sel(machine, thread) -> bool:
        return syscall(machine, thread, fast, pc)
    return sel


def relog(region_pinball: Pinball, program: Program,
          keep: Dict[int, Set[int]],
          engine: Optional[str] = None) -> Pinball:
    """Produce a slice pinball from ``region_pinball``.

    ``keep`` maps tid -> set of region-relative instruction indices that
    belong to the slice (the relogger adds syscalls and each thread's final
    instruction on top).  Raises :class:`RelogError` for a pinball that
    already carries exclusions.
    """
    if region_pinball.exclusions:
        raise RelogError(
            "cannot relog a %s pinball with %d exclusion records: its "
            "replay skips the excluded code; relog the region pinball it "
            "was made from" % (region_pinball.kind,
                               len(region_pinball.exclusions)))
    counts = region_pinball.meta.get("thread_instr_counts", {})
    last_tindex = {int(tid): int(count) - 1
                   for tid, count in counts.items() if int(count) > 0}
    machine = replay_machine(region_pinball, program, engine=engine)
    if machine.engine == "predecoded":
        relogger = _SelectiveRelog(machine, program, keep, last_tindex)
        machine.set_selective(relogger.table)
    else:
        relogger = RelogTool(machine, program, keep, last_tindex)
        machine.add_tool(relogger)
    with OBS.span("pinplay.relog"):
        result = machine.run(max_steps=region_pinball.total_steps)
    dangling = relogger.dangling()
    if dangling:
        raise ReplayDivergence(
            "threads %s ended inside an exclusion run; the keep set "
            "must retain each thread's final instruction" % dangling)
    schedule = relogger.schedule()
    thread_kept = relogger.thread_kept()
    kept_total = sum(thread_kept.values())
    if OBS.enabled:
        OBS.add("pinplay.relogs", 1)
        OBS.add("pinplay.excluded_runs", len(relogger.exclusions))
        OBS.add("pinplay.kept_instructions", kept_total)
        OBS.add("pinplay.excluded_instructions",
                result.retired - kept_total)
    steps = sum(count for _tid, count in schedule)
    failure = region_pinball.meta.get("failure")
    if failure:
        # Numbered as the slice pinball's own replay reports it: that
        # replay retires only the kept instructions, and the failing one
        # is kept (it is its thread's last) and ends the schedule.
        failure = dict(failure, seq=steps - 1,
                       tindex=thread_kept[int(failure["tid"])] - 1)
    meta = {
        "kind": "slice",
        "parent_kind": region_pinball.kind,
        "skip": region_pinball.meta.get("skip"),
        "length": region_pinball.meta.get("length"),
        "failure": failure,
        "thread_instr_counts": {str(tid): count
                                for tid, count in thread_kept.items()},
        "region_instructions": region_pinball.total_instructions,
        "kept_instructions": kept_total,
        "excluded_runs": len(relogger.exclusions),
        "schedule_steps": steps,
    }
    return Pinball(
        program_name=region_pinball.program_name,
        snapshot=region_pinball.snapshot,
        schedule=schedule,
        syscalls=region_pinball.syscalls,
        mem_order=(),
        exclusions=relogger.exclusions,
        meta=meta,
        # Schedule comes from our recorder and syscalls from an existing
        # pinball: both already canonical, no re-cast pass needed.
        trusted=True,
    )
