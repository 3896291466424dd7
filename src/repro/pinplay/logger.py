"""The PinPlay-style logger: capture a region of execution into a pinball.

Two phases, exactly as in the paper:

1. **Fast-forward** — run with *no* tools attached (the VM skips event
   construction entirely, the analog of Pin-only speed) until the main
   thread has retired ``skip`` instructions.
2. **Record** — snapshot the full architectural state, reset region-relative
   counters, attach the :class:`FastRecorder`, and run until the main thread
   retires ``length`` instructions, a failure symptom fires, or the program
   ends.  The recorder logs the schedule, nondeterministic syscall results,
   shared-memory access-order edges, and per-thread instruction counts.

The two phases are :func:`enter_region` and :func:`record_from`, which
runs :func:`run_region` under the recorder.  Hunt's bare re-executions
(:mod:`repro.analysis.hunt`) restore the region snapshot instead of
entering, and run :func:`run_region` with no recorder attached.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import config
from repro.isa.program import Program
from repro.obs.registry import OBS
from repro.pinplay.format_v2 import (EDGE_CHUNK, SCHEDULE_CHUNK,
                                     EmbeddedCheckpoint, PinballWriter,
                                     capture_state)
from repro.pinplay.pinball import Pinball, state_hash
from repro.pinplay.regions import RegionSpec
from repro.vm.errors import VMError
from repro.vm.hooks import SyscallEvent, Tool
from repro.vm.machine import Machine
from repro.vm.scheduler import Scheduler
from repro.vm.syscalls import NONDET_SYSCALLS
from repro.vm.thread import ThreadStatus

MAIN_TID = 0


class FastRecorder(Tool):
    """The pinball recorder: no per-instruction events at all.

    Registered as a machine tool (syscall results and thread creations
    fire through the syscall/lifecycle hooks), as the machine's
    *recorder* (:meth:`Machine.set_recorder`) and as its schedule log
    (:meth:`Machine.set_schedule_log`): the run loop records the RLE
    schedule inline and calls :meth:`on_mem` only for instructions that
    touched memory, on either engine and whether or not instruction
    tools ride along.

    With a :class:`~repro.pinplay.format_v2.PinballWriter` attached,
    full schedule/edge chunks are flushed to disk as they fill and a
    machine-state checkpoint frame is emitted every
    ``checkpoint_interval`` steps — peak memory stays flat in region
    length.  Without a writer the same chunks simply accumulate in
    memory (and checkpoints, if requested, are kept as
    :class:`EmbeddedCheckpoint` objects on the resulting pinball).
    """

    def __init__(self, writer: Optional[PinballWriter] = None,
                 checkpoint_interval: int = 0) -> None:
        self.writer = writer
        self.checkpoint_interval = int(checkpoint_interval or 0)
        self.next_checkpoint = self.checkpoint_interval
        self.steps_done = 0
        self.schedule_runs: List[Tuple[int, int]] = []
        self.syscalls: Dict[int, List[Tuple[str, object]]] = {}
        self.mem_order: List[Tuple[int, int, int, int, int, str]] = []
        self.thread_creates: List[Tuple[int, Optional[int], int]] = []
        self.checkpoints: List[EmbeddedCheckpoint] = []
        # Flushed-so-far totals (the live lists are cleared on flush).
        self.run_count = 0
        self.edge_count = 0
        # Pending RLE run, owned by the machine loop between run() calls.
        self._run_tid: Optional[int] = None
        self._run_count = 0
        # Per-address bookkeeping, one record per address so the hot
        # path does a single hash lookup:
        #   addr -> [owner (sole tid, or -2 = shared),
        #            readers-since-last-write {tid: tindex} or None,
        #            last-writer tid or None, last-writer tindex]
        self._mem_state: Dict[int, list] = {}
        self._output_start = 0

    def attach(self, machine: Machine, output_start: int) -> None:
        """Arm this recorder on ``machine``, whose output so far ends at
        ``output_start``.  A slice-pinball replay is refused: its
        exclusion skips take steps that neither execute nor log."""
        if machine._excl_watch:
            raise VMError("cannot record over installed exclusions")
        machine.add_tool(self)
        machine.set_recorder(self)
        machine.set_schedule_log(self)
        self._output_start = output_start

    # -- feed from the machine loop -------------------------------------------

    def append_run(self, tid: int, count: int) -> None:
        runs = self.schedule_runs
        runs.append((tid, count))
        self.run_count += 1
        if self.writer is not None and len(runs) >= SCHEDULE_CHUNK:
            self.writer.write_schedule(runs)
            del runs[:]

    def on_syscall(self, event: SyscallEvent) -> None:
        if event.name in NONDET_SYSCALLS:
            self.syscalls.setdefault(event.tid, []).append(
                (event.name, event.result))

    def on_thread_start(self, tid, parent, start_pc, arg) -> None:
        self.thread_creates.append((tid, parent, start_pc))

    def on_mem(self, tid: int, tindex: int, read_addrs, write_addrs,
               pc: int = -1) -> None:
        """Record access-order edges for one instruction's memory touches.

        Takes bare address lists (edge detection never needs values).
        Once a second thread touches an address (this access counts),
        a read of it gets a RAW edge from the last write if another
        thread made it, once per reading thread per write; a write gets
        a WAW edge from the last write if another thread made it, then a
        WAR edge from each other thread's last read since that write
        (program order orders a thread's earlier reads, so these edges
        suffice).  ``pc`` identifies the accessing instruction; edge detection
        ignores it (only site-reporting recorders like the online race
        detector need it).
        """
        edges = self.mem_order
        state = self._mem_state
        for addr in read_addrs:
            st = state.get(addr)
            if st is None:
                state[addr] = [tid, {tid: tindex}, None, 0]
                continue
            readers = st[1]
            if st[0] != tid:
                if st[0] != -2:
                    st[0] = -2
                if readers is None:
                    st[1] = {tid: tindex}
                    wtid = st[2]
                    if wtid is not None and wtid != tid:
                        edges.append((wtid, st[3], tid, tindex, addr, "raw"))
                    continue
                if tid not in readers:
                    wtid = st[2]
                    if wtid is not None and wtid != tid:
                        edges.append((wtid, st[3], tid, tindex, addr, "raw"))
            elif readers is None:
                st[1] = {tid: tindex}
                continue
            readers[tid] = tindex
        for addr in write_addrs:
            st = state.get(addr)
            if st is None:
                state[addr] = [tid, None, tid, tindex]
                continue
            if st[0] != tid:
                if st[0] != -2:
                    st[0] = -2
                wtid = st[2]
                if wtid is not None and wtid != tid:
                    edges.append((wtid, st[3], tid, tindex, addr, "waw"))
                readers = st[1]
                if readers:
                    for reader_tid, reader_tindex in readers.items():
                        if reader_tid != tid:
                            edges.append((reader_tid, reader_tindex, tid,
                                          tindex, addr, "war"))
            st[2] = tid
            st[3] = tindex
            readers = st[1]
            if readers:
                readers.clear()
        if self.writer is not None and len(edges) >= EDGE_CHUNK:
            self.edge_count += len(edges)
            self.writer.write_mem_order(edges)
            del edges[:]

    # -- checkpoints ----------------------------------------------------------

    def capture(self, machine: Machine, steps_done: int) -> None:
        """Emit one embedded checkpoint for the state after
        ``steps_done`` region steps (called from the machine loop
        *before* the next step executes)."""
        consumed = {tid: len(log) for tid, log in self.syscalls.items()}
        body = capture_state(machine, consumed,
                             machine.output[self._output_start:])
        if self.writer is not None:
            self.writer.write_checkpoint(steps_done, machine.global_seq,
                                         body)
        else:
            self.checkpoints.append(
                EmbeddedCheckpoint(steps_done, machine.global_seq,
                                   body=body))
        self.next_checkpoint = steps_done + self.checkpoint_interval

    def finish(self) -> None:
        """Flush the pending RLE run (the machine loop syncs it back
        between run() calls)."""
        if self._run_count:
            self.append_run(self._run_tid, self._run_count)
            self._run_tid = None
            self._run_count = 0

    def total_edges(self) -> int:
        return self.edge_count + len(self.mem_order)


def enter_region(machine: Machine, region: RegionSpec) -> None:
    """Bring a fresh ``machine`` to the start of ``region``: fast-forward
    (``machine.fast_forwarding`` set) until the main thread has retired
    ``region.skip`` instructions, then zero the region counters."""
    if region.skip:
        main = machine.threads[MAIN_TID]
        machine.fast_forwarding = True
        try:
            with OBS.span("pinplay.fast_forward"):
                while (not machine.finished
                       and main.instr_count < region.skip
                       and main.status != ThreadStatus.FINISHED):
                    machine.run(max_steps=region.skip - main.instr_count)
        finally:
            machine.fast_forwarding = False
    machine.reset_counters()


def run_region(machine: Machine, region: RegionSpec,
               max_steps: Optional[int] = None) -> str:
    """Run ``machine``, already inside ``region``, to the region's end:
    ``region.length`` main-thread instructions, the main thread's
    finish, a failure or program end; returns which (``end_reason``).
    With ``max_steps``, a run that has not ended after that many steps
    stops there and returns ``"step_cap"``."""
    main = machine.threads[MAIN_TID]
    steps = 0
    while True:
        if machine.finished:
            return ("failure" if machine.failure is not None
                    else "program_end")
        budget = None
        if region.length is not None:
            budget = region.length - main.instr_count
            if budget <= 0:
                return "length_reached"
            if main.status == ThreadStatus.FINISHED:
                return "main_finished"
        if max_steps is not None:
            if steps >= max_steps:
                return "step_cap"
            if budget is None or budget > max_steps - steps:
                budget = max_steps - steps
        steps += machine.run(max_steps=budget).steps


def record_region(program: Program,
                  scheduler: Scheduler,
                  region: Optional[RegionSpec] = None,
                  inputs=(), rand_seed: int = 0,
                  extra_tools=(),
                  engine: Optional[str] = None,
                  stream_path: Optional[str] = None,
                  pinball_format: Optional[str] = None,
                  checkpoint_interval: Optional[int] = None,
                  heap_poison: bool = False) -> Pinball:
    """Log a region of a fresh run of ``program`` into a pinball.

    ``scheduler`` drives the interleaving of the *recording* run (e.g. a
    seeded :class:`~repro.vm.scheduler.RandomScheduler` to shake out a
    race).  ``engine`` selects the interpreter (see
    :data:`repro.vm.machine.ENGINES`); the fast-forward phase runs with
    no tools attached, so the predecoded engine's untraced path gives it
    Pin-only speed.  The record phase is :func:`record_from`.

    ``heap_poison`` enables the allocator's poison-on-free mode for the
    recorded run (see :class:`repro.vm.memory.Memory`); the flag rides
    in the region snapshot, so replays reproduce the poisoned reads
    exactly.
    """
    region = region or RegionSpec()
    machine = Machine(program, scheduler=scheduler, inputs=inputs,
                      rand_seed=rand_seed, engine=engine,
                      heap_poison=heap_poison)
    enter_region(machine, region)
    return record_from(machine, region, rand_seed=rand_seed,
                       extra_tools=extra_tools, stream_path=stream_path,
                       pinball_format=pinball_format,
                       checkpoint_interval=checkpoint_interval)


def record_from(machine: Machine, region: RegionSpec,
                rand_seed: int = 0,
                extra_tools=(),
                stream_path: Optional[str] = None,
                pinball_format: Optional[str] = None,
                checkpoint_interval: Optional[int] = None) -> Pinball:
    """Log ``region`` of ``machine``, which stands at the region's entry
    (fresh after :func:`enter_region`, or restored from a region
    snapshot), into a pinball.  ``rand_seed`` is provenance only: the
    seed the run started from, kept in the pinball's meta.

    ``extra_tools`` attach beside the recorder, an event-free
    :class:`FastRecorder` on every engine and loop path: an
    instruction-event tool moves the run to the per-step path and
    changes no recorded byte.

    ``pinball_format``/``checkpoint_interval`` default to the config
    knobs.  Under format v2 the recorder embeds a machine checkpoint
    every ``checkpoint_interval`` steps, and ``stream_path`` streams
    frames to that file during recording — the returned pinball is the
    lazily-opened file, and peak memory stays flat in region length.
    """
    fmt = config.pinball_format(explicit=pinball_format)
    if fmt == "v2" or checkpoint_interval is not None:
        interval = config.checkpoint_interval(explicit=checkpoint_interval)
    else:
        interval = 0
    if stream_path is not None and fmt != "v2":
        raise ValueError("stream_path requires pinball format v2")
    snapshot = machine.snapshot().to_dict()
    output_start = len(machine.output)

    writer = stream_fh = None
    if stream_path is not None:
        stream_fh = open(stream_path, "wb")
        writer = PinballWriter(stream_fh, machine.program.name,
                               checkpoint_interval=interval)
        writer.write_snapshot(snapshot)
    recorder = FastRecorder(writer=writer, checkpoint_interval=interval)
    try:
        recorder.attach(machine, output_start)
        for extra in extra_tools:
            machine.add_tool(extra)
        with OBS.span("pinplay.record"):
            end_reason = run_region(machine, region)
    except BaseException:
        if stream_fh is not None:
            stream_fh.close()
        raise

    machine.set_recorder(None)
    machine.set_schedule_log(None)
    recorder.finish()
    schedule_runs = recorder.schedule_runs
    syscalls = recorder.syscalls
    mem_order = recorder.mem_order
    schedule_steps = recorder.steps_done

    if OBS.enabled:
        OBS.add("pinplay.regions_recorded", 1)
        OBS.add("pinplay.schedule_steps", schedule_steps)
        OBS.add("pinplay.schedule_runs", recorder.run_count)
        OBS.add("pinplay.mem_order_edges", recorder.total_edges())
        OBS.add("pinplay.syscall_results_logged",
                sum(len(log) for log in syscalls.values()))
        OBS.add("pinplay.thread_creates", len(recorder.thread_creates))

    counts = {str(tid): thread.instr_count
              for tid, thread in machine.threads.items()}
    meta = {
        "kind": "whole" if region.is_whole_program else "region",
        "skip": region.skip,
        "length": region.length,
        "end_reason": end_reason,
        "failure": machine.failure,
        "thread_instr_counts": counts,
        "schedule_steps": schedule_steps,
        "output": list(machine.output[output_start:]),
        "final_state_hash": state_hash(machine),
        "exit_code": machine.exit_code,
        # Re-execution provenance: fresh runs of the same program (Maple's
        # profiling runs in a hunt) need the original nondeterminism
        # sources, not just the recorded log.
        "inputs": list(machine.inputs),
        "rand_seed": rand_seed,
    }
    if writer is not None:
        # Flush the final partial chunks and the epilogue, then hand the
        # caller the lazily-opened file: the frames were never all in
        # memory at once.
        writer.write_schedule(schedule_runs)
        writer.write_mem_order(mem_order)
        writer.write_syscalls(syscalls)
        writer.write_meta(meta)
        stream_fh.close()
        if OBS.enabled:
            OBS.add("pinplay.pinballs_saved", 1)
            OBS.add("pinplay.pinball_bytes_written", writer.bytes_written)
        return Pinball.load(stream_path)
    pinball = Pinball(
        program_name=machine.program.name,
        snapshot=snapshot,
        schedule=schedule_runs,
        syscalls=syscalls,
        mem_order=mem_order,
        meta=meta,
        # The recorder structures are already canonical (int tids/counts,
        # str names): skip the constructor's per-element re-cast pass.
        trusted=True,
    )
    pinball.checkpoints = recorder.checkpoints
    if fmt == "v2":
        pinball._native_format = "v2"
    return pinball
