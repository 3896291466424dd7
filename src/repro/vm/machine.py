"""The interpreter core: a multi-threaded machine with analysis hooks.

One :class:`Machine` executes one linked :class:`~repro.isa.program.Program`.
Every scheduler step runs a single instruction of a single thread, so any
interleaving a real multiprocessor could produce at instruction granularity
is reachable — which is what lets seeded random schedules expose the data
races in the bug workloads, and what lets a recorded schedule reproduce
them exactly.

Design notes relevant to replay determinism:

* All guest-visible nondeterminism funnels through three syscalls
  (``input``, ``rand``, ``time``) and the scheduler.  The machine exposes a
  ``syscall_injector`` so the replayer can substitute recorded results.
* Blocked lock/join attempts consume a scheduler step without retiring an
  instruction; they are part of the recorded schedule so record and replay
  agree step-for-step.
* :meth:`Machine.snapshot` captures the complete architectural state and is
  the "initial state" section of a region pinball.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.isa.instructions import (ALL_REGISTERS, Imm, Instr, Mem,
                                    Opcode, Reg)
from repro.isa.program import Program
from repro.obs.registry import OBS
from repro.vm.errors import AssertionFailure, DeadlockError, VMError
from repro.vm.hooks import InstrEvent, SyscallEvent, Tool
from repro.vm.memory import ADDRESS_SPACE_TOP, STACK_SIZE, Memory
from repro.vm.microops import KIND_SLOT, KIND_STOP, decode_program
from repro.vm.scheduler import RoundRobinScheduler, Scheduler
from repro.vm.syscalls import BLOCK, NONDET_SYSCALLS, SYSCALLS
from repro.vm.thread import (EXIT_SENTINEL, Frame, ThreadContext,
                             ThreadStatus)

Word = Union[int, float]

#: Execution engines: "predecoded" dispatches through per-pc micro-op
#: closures (see :mod:`repro.vm.microops`); "legacy" is the seed
#: if/elif interpreter, kept as the differential-testing baseline.
ENGINES = ("predecoded", "legacy")


def default_engine() -> str:
    """The engine used when a Machine is built without an explicit choice.

    Overridable via ``REPRO_ENGINE`` (resolved through
    :func:`repro.config.engine`) so benchmarks and CI can pin either
    engine without threading a parameter through every entry point."""
    from repro import config
    return config.engine()

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


class Lcg:
    """A 64-bit LCG: the machine's deterministic, serializable RNG."""

    def __init__(self, seed: int = 0) -> None:
        self.state = (seed ^ 0x9E3779B97F4A7C15) & _LCG_MASK

    def next(self, bound: int) -> int:
        self.state = (self.state * _LCG_MULT + _LCG_INC) & _LCG_MASK
        return (self.state >> 33) % bound


@dataclass
class RunResult:
    """Outcome of a :meth:`Machine.run` call."""

    reason: str               # "done" | "exit" | "limit" | "stop"
    steps: int                # scheduler steps taken in this call
    retired: int              # instructions actually retired in this call
    failure: Optional[dict]   # assertion-failure record, if any


class MachineSnapshot:
    """Complete architectural state; the pinball's initial-state section."""

    def __init__(self, payload: dict) -> None:
        self.payload = payload

    def to_dict(self) -> dict:
        return self.payload

    @classmethod
    def from_dict(cls, payload: dict) -> "MachineSnapshot":
        return cls(payload)


class Machine:
    """Interpreter for one program run (or one replayed region)."""

    def __init__(self, program: Program,
                 scheduler: Optional[Scheduler] = None,
                 tools: Sequence[Tool] = (),
                 inputs: Sequence[Word] = (),
                 rand_seed: int = 0,
                 syscall_injector: Optional[Callable[[str, int], Optional[Word]]] = None,
                 start_main: bool = True,
                 engine: Optional[str] = None,
                 heap_poison: bool = False) -> None:
        self.program = program
        self.instructions = program.instructions
        self.engine = engine if engine is not None else default_engine()
        if self.engine not in ENGINES:
            raise VMError("unknown engine %r (expected one of %s)"
                          % (self.engine, ", ".join(ENGINES)))
        if self.engine == "predecoded":
            (self._uops_fast, self._uops_traced, self._uops_rec,
             self._uops_kind) = decode_program(program)
        else:
            self._uops_fast = self._uops_traced = self._uops_rec = None
            self._uops_kind = None
        self._code_len = len(self.instructions)
        #: Cached sorted runnable-tid list (predecoded engine only); None
        #: means stale.  Every thread-status mutation site invalidates it.
        self._runnable_cache: Optional[List[int]] = None
        #: Tids currently blocked in a sleep; lets the hot loop skip the
        #: all-threads sleeper scan when nobody is sleeping.
        self._sleeping: set = set()
        self.memory = Memory(heap_base=program.data_size,
                             poison_freed=heap_poison)
        self.memory.load_image(program.initial_data_image())
        self.scheduler = scheduler or RoundRobinScheduler()
        self.scheduler.attach(self)
        self.tools: List[Tool] = list(tools)
        self.threads: Dict[int, ThreadContext] = {}
        self.locks: Dict[int, Optional[int]] = {}
        #: addr -> {"gen": int, "waiting": set[tid], "released": set[tid]}
        self.barriers: Dict[int, dict] = {}
        self.next_tid = 0
        self.global_seq = 0
        self.output: List[Word] = []
        self.failure: Optional[dict] = None
        self.exit_code: Optional[int] = None
        self.stop_request = False
        #: True while a region's fast-forward runs (see
        #: repro.pinplay.logger.enter_region); region observers skip it.
        self.fast_forwarding = False
        self.breakpoints: set = set()
        self._bp_skip = False
        #: Exclusion-skip support for slice pinballs: (tid, pc) ->
        #: {arrival_index: converted record}; see install_exclusions().
        self._excl_watch: Dict[Tuple[int, int], Dict[int, tuple]] = {}
        self._excl_arrivals: Dict[Tuple[int, int], int] = {}
        self.skipped_exclusions = 0
        #: tid -> (next instruction index, frame ids) per exclusion skip
        #: that installed frames: the slicing tracer's control-dependence
        #: walk simulates frame ids and reads these where a skip jumped.
        self.exclusion_frames: Dict[int, List[tuple]] = {}
        self.rng = Lcg(rand_seed)
        self.inputs: List[Word] = list(inputs)
        self.input_pos = 0
        self.syscall_injector = syscall_injector
        self._time_base = 1_000_000
        self._last_clock = 0
        self._exit_requested = False
        self._last_tid: Optional[int] = None
        self._started = False
        self._cur_mem_writes: Optional[List[Tuple[int, Word]]] = None
        #: The run loop's RLE schedule log (see set_schedule_log).
        self._schedule_log = None
        #: The recorder (see set_recorder) and the address window its
        #: on_mem watches.
        self._recorder = None
        self._rec_window: Optional[Tuple[int, int]] = None
        self._rec_reads: List[int] = []
        self._rec_writes: List[int] = []
        #: Selective-trace path (see set_selective): a consumer-bound
        #: per-pc handler table, or None.
        self._uops_sel = None
        self._event_reuse_ok = False
        self._scratch_event: Optional[InstrEvent] = None
        self._instr_tools: List[Tool] = []
        self._syscall_tools: List[Tool] = []
        self._step_tools: List[Tool] = []
        self._lifecycle_tools: List[Tool] = []
        if start_main:
            entry = program.resolve_symbol(program.entry_function)
            if entry is None:
                raise VMError("no entry function %r" % program.entry_function)
            self.create_thread(entry, 0, parent=None, notify=False)

    # -- tool management -----------------------------------------------------

    def add_tool(self, tool: Tool) -> Tool:
        self.tools.append(tool)
        if self._started:
            self._index_tools()
            tool.on_start(self)
        return tool

    def _index_tools(self) -> None:
        self._instr_tools = [t for t in self.tools if t.wants_instr_events]
        # When every subscribed tool consumes events synchronously
        # (``retains_instr_events`` False), the predecoded traced path may
        # recycle one scratch InstrEvent and hand over the raw def/use
        # lists without tuple conversion.  Any tool that might retain the
        # event (the default) forces fresh, immutable events.
        self._event_reuse_ok = bool(self._instr_tools) and all(
            not getattr(t, "retains_instr_events", True)
            for t in self._instr_tools)
        self._syscall_tools = [
            t for t in self.tools
            if type(t).on_syscall is not Tool.on_syscall]
        self._step_tools = [
            t for t in self.tools if type(t).on_step is not Tool.on_step]
        self._lifecycle_tools = [
            t for t in self.tools
            if type(t).on_thread_start is not Tool.on_thread_start
            or type(t).on_thread_exit is not Tool.on_thread_exit]

    def set_schedule_log(self, log) -> None:
        """Arm (or with ``None`` disarm) the run loop's RLE schedule log.

        The loop hands ``log.append_run(tid, count)`` every finished run
        of consecutive steps of one thread, blocked attempts included:
        the schedule a :class:`~repro.vm.scheduler.ScheduleRecorder` fed
        from ``on_step`` would hold.  The pending run lives in the loop
        and is written back to ``log._run_tid``/``log._run_count`` when
        :meth:`run` returns, so a log spans any number of runs.  Works
        on both engines and beside a recorder; a log alone keeps the
        untraced (or selective) table and costs one compare per batch.
        """
        if log is not None and self._excl_watch:
            raise VMError("cannot log a schedule over installed exclusions")
        self._schedule_log = log

    def set_recorder(self, recorder) -> None:
        """Arm (or with ``None`` disarm) the recorder.

        The run loop calls ``recorder.on_mem(tid, tindex, read_addrs,
        write_addrs, pc)`` for each retired step that touched memory
        and ``recorder.capture(machine, steps_done)`` at each checkpoint
        step, on both engines and on the batched and per-step paths
        alike; no :class:`InstrEvent` is built for it.  The address
        lists are scratch: ``on_mem`` must not keep them.  The schedule
        is the log's half (:meth:`set_schedule_log`): the pinball
        recorder arms both.  A recorder that wants syscall or lifecycle
        events registers as a tool too.

        A recorder may declare ``watch_window = (low, high)``, promising
        that ``on_mem`` ignores every address outside ``[low, high)``.
        The batched loop then skips the call for an instruction whose
        one address (LD, ST, PUSH, POP, CALL, ICALL, RET) lies outside.
        """
        if recorder is None:
            self._recorder = None
            return
        window = getattr(recorder, "watch_window", None)
        if window is not None:
            # Every address a step can touch lies in (0,
            # ADDRESS_SPACE_TOP): clamping keeps the test on plain ints.
            window = (max(window[0], 0), min(window[1], ADDRESS_SPACE_TOP))
        self._rec_window = window
        # Scratch address lists reused across steps (cleared after each
        # on_mem delivery) — the batched loop allocates nothing per step.
        self._rec_reads: List[int] = []
        self._rec_writes: List[int] = []
        self._recorder = recorder

    def set_selective(self, table) -> None:
        """Arm (or with ``None`` disarm) the selective-trace path.

        ``table`` holds one consumer-bound handler per pc that executes
        at untraced speed and reports only what its consumer watches.
        The re-execution slicer builds it with
        :func:`repro.vm.microops.decode_selective` to replay a pinball
        (or a checkpoint-bounded window of one) while recording a pc
        stream or bare memory addresses instead of full instruction
        events; the relogger builds one that tracks kept and excluded
        runs to write a slice pinball.  Requires the predecoded engine;
        mutually exclusive with exclusion skips (neither consumer
        replays a slice pinball) and ignored while a recorder or
        per-instruction tools are attached.
        """
        if table is None:
            self._uops_sel = None
            return
        if self.engine != "predecoded":
            raise VMError("selective tracing requires the predecoded engine")
        if self._excl_watch:
            raise VMError(
                "cannot trace selectively over installed exclusions")
        if len(table) != self._code_len:
            raise VMError("selective table does not match the program")
        self._uops_sel = table

    # -- thread management -----------------------------------------------------

    def create_thread(self, func_addr: int, arg: Word,
                      parent: Optional[int], notify: bool = True) -> ThreadContext:
        tid = self.next_tid
        self.next_tid += 1
        stack_base = ADDRESS_SPACE_TOP - 64 - tid * STACK_SIZE
        thread = ThreadContext(tid, func_addr, stack_base)
        function = self.program.function_at(func_addr)
        func_name = function.name if function else "<anon>"
        # Caller-style setup: arg then return-address sentinel on the stack.
        sp = thread.regs["sp"]
        sp -= 1
        self.memory.write(sp, arg)
        arg_addr = sp
        sp -= 1
        self.memory.write(sp, EXIT_SENTINEL)
        thread.regs["sp"] = sp
        thread.push_frame(func_name, -1, EXIT_SENTINEL)
        self.threads[tid] = thread
        self._runnable_cache = None
        self.scheduler.on_thread_created(tid)
        # Attribute the argument write to the spawning instruction so the
        # slicer sees the parent->child dependence through the arg slot.
        if self._cur_mem_writes is not None:
            self._cur_mem_writes.append((arg_addr, arg))
        if notify and self._lifecycle_tools:
            for tool in self._lifecycle_tools:
                tool.on_thread_start(tid, parent, func_addr, arg)
        return thread

    def _finish_thread(self, thread: ThreadContext) -> None:
        thread.status = ThreadStatus.FINISHED
        self._runnable_cache = None
        thread.exit_value = thread.regs["r0"]
        self.scheduler.on_thread_finished(thread.tid)
        self.wake_blocked(("join", thread.tid))
        for tool in self._lifecycle_tools:
            tool.on_thread_exit(thread.tid, thread.exit_value)

    def barrier_arrive(self, addr: int, needed: int, thread):
        """One thread arrives at barrier ``addr`` expecting ``needed``.

        Returns None (proceed) or the BLOCK sentinel.  The n-th arrival
        marks the other waiters *released* and wakes them; a released
        thread's retry passes straight through (generation semantics, so
        the barrier is immediately reusable)."""
        from repro.vm.syscalls import BLOCK
        state = self.barriers.setdefault(
            addr, {"gen": 0, "waiting": set(), "released": set()})
        if thread.tid in state["released"]:
            state["released"].discard(thread.tid)
            return None
        state["waiting"].add(thread.tid)
        if len(state["waiting"]) >= needed:
            state["released"] = set(state["waiting"]) - {thread.tid}
            state["waiting"] = set()
            state["gen"] += 1
            self.wake_blocked(("barrier", addr))
            return None
        thread.block_reason = ("barrier", addr)
        return BLOCK

    def wake_blocked(self, reason: tuple) -> None:
        for thread in self.threads.values():
            if (thread.status == ThreadStatus.BLOCKED
                    and thread.block_reason == reason):
                thread.status = ThreadStatus.RUNNABLE
                thread.block_reason = None
                self._runnable_cache = None
                self._sleeping.discard(thread.tid)

    def note_sleeper(self, tid: int) -> None:
        """A thread just entered a sleep-block (called by ``sys_sleep``)."""
        self._sleeping.add(tid)
        self._runnable_cache = None

    def _wake_sleepers(self) -> None:
        if not self._sleeping:
            return
        woken = []
        for tid in self._sleeping:
            thread = self.threads.get(tid)
            if (thread is not None
                    and thread.status == ThreadStatus.BLOCKED
                    and thread.block_reason
                    and thread.block_reason[0] == "sleep"):
                if thread.block_reason[1] <= self.global_seq:
                    thread.status = ThreadStatus.RUNNABLE
                    thread.block_reason = None
                    woken.append(tid)
            else:
                woken.append(tid)   # stale entry (woken elsewhere)
        if woken:
            self._sleeping.difference_update(woken)
            self._runnable_cache = None

    def runnable_tids(self) -> List[int]:
        self._wake_sleepers()
        return [tid for tid, thread in sorted(self.threads.items())
                if thread.status == ThreadStatus.RUNNABLE]

    def _runnable_cached(self) -> List[int]:
        """Hot-loop variant of :meth:`runnable_tids`.

        Content-identical to a fresh :meth:`runnable_tids` call at every
        step — the :class:`~repro.vm.scheduler.RandomScheduler` indexes
        into this list, so a stale cache would silently change recorded
        interleavings.  Every status mutation site resets the cache."""
        if self._sleeping:
            self._wake_sleepers()
        cache = self._runnable_cache
        if cache is None:
            cache = [tid for tid, thread in sorted(self.threads.items())
                     if thread.status == ThreadStatus.RUNNABLE]
            self._runnable_cache = cache
        return cache

    def live_threads(self) -> List[int]:
        return [tid for tid, thread in sorted(self.threads.items())
                if thread.status != ThreadStatus.FINISHED]

    # -- nondeterminism sources --------------------------------------------------

    def next_input(self) -> Word:
        if self.input_pos < len(self.inputs):
            value = self.inputs[self.input_pos]
            self.input_pos += 1
            return value
        return 0

    def clock(self) -> int:
        candidate = self._time_base + self.global_seq + self.rng.next(7)
        self._last_clock = max(candidate, self._last_clock + 1)
        return self._last_clock

    def record_failure(self, code: int, thread: ThreadContext) -> None:
        self.failure = {
            "tid": thread.tid,
            "pc": thread.pc - 1,   # pc already advanced past the sys instr
            "code": code,
            "seq": self.global_seq,
            "tindex": thread.instr_count,
        }
        self._exit_requested = True
        self.exit_code = 1

    def request_exit(self, code: int) -> None:
        self._exit_requested = True
        self.exit_code = code

    # -- main loop -----------------------------------------------------------------

    @property
    def finished(self) -> bool:
        if self._exit_requested:
            return True
        return all(t.status == ThreadStatus.FINISHED
                   for t in self.threads.values())

    def run(self, max_steps: Optional[int] = None) -> RunResult:
        """Run until program end, exit/failure, ``max_steps``, or stop request.

        Each scheduler step runs one instruction of the thread that
        :meth:`Scheduler.pick <repro.vm.scheduler.Scheduler.pick>`
        chose.  Steps the scheduler has already decided run as one
        *batch*: after the picked step is committed,
        :meth:`~repro.vm.scheduler.Scheduler.lease` says how many more
        steps of the same thread follow, and an inner loop runs up to
        that many through the step kind's handler table (untraced,
        selective, or record plus ``recorder.on_mem``) with no pick,
        commit or sleeper scan in between;
        :meth:`~repro.vm.scheduler.Scheduler.commit_many` settles them
        afterwards.  A one-step lease is a one-step batch.  A batch ends

        * before a pc whose decoded kind carries ``KIND_STOP``: SYS,
          HALT, an undecoded fallback shape, or an instruction that can
          leave the code (see :mod:`repro.vm.microops`).  Such a pc only
          ever runs as the picked first step of a batch;
        * after a step that leaves the thread non-runnable (a RET to
          the exit sentinel);
        * at ``max_steps``, and at the recorder's next checkpoint step.

        Every step is picked while per-instruction tools (the traced
        :class:`~repro.vm.hooks.InstrEvent` path), step tools,
        breakpoints or exclusion watches are attached, on the legacy
        engine, and while any thread sleeps.  Batching changes nothing
        observable: machine state, ``global_seq`` and instruction
        counts, recorded schedules, access-order edges and checkpoints,
        the :class:`RunResult`, the ``vm.*`` counters (plus
        ``vm.steps_batched``, the steps run without a pick) and the state
        an exception raised mid-batch leaves behind all equal the
        per-step loop's.  The per-step path feeds an armed recorder
        from the access lists it builds for each step, and takes its
        checkpoints at the same step counts.
        """
        if not self._started:
            self._started = True
            self._index_tools()
            for tool in self.tools:
                tool.on_start(self)
            for tid, thread in sorted(self.threads.items()):
                for tool in self._lifecycle_tools:
                    tool.on_thread_start(tid, None, thread.pc, 0)
        steps = 0
        idle = 0        # steps that retired nothing (blocked, skipped)
        batched = 0     # steps run under a lease, without a pick
        reason = "done"
        predecoded = self.engine == "predecoded"
        per_step = not predecoded or bool(self._instr_tools)
        step_thread = self._step_thread_uop if predecoded else self._step_thread
        # Leases are asked for only where no tool watches single steps
        # and the scheduler grants any; breakpoints, exclusion watches
        # and sleepers are checked per pick below (they can come and go
        # within a run).
        lease_ok = (not per_step and not self._step_tools
                    and type(self.scheduler).lease is not Scheduler.lease)
        # The RLE schedule log (set_schedule_log) is inlined into this
        # loop on every path: one compare per batch (per step on the
        # per-step path), no per-step call.  The pending run holds
        # ``run_carry`` steps from earlier calls plus this call's steps
        # since ``run_mark``.
        log = self._schedule_log
        run_tid = run_carry = run_mark = 0
        run_append = None
        if log is not None:
            run_tid = log._run_tid
            run_carry = log._run_count
            run_append = log.append_run
        # The recorder: the batched loop runs the record micro-op only
        # where the opcode can touch memory, the per-step path hands
        # over its own access lists, and the periodic checkpoint
        # triggers on *step count* on both (global_seq can jump past
        # sleep fast-forwards and must not drive the interval).
        recorder = self._recorder
        rec_on = recorder is not None
        rec_interval = rec_ckpt = rec_base = 0
        rec_on_mem = None
        uops_rec = rec_mr = rec_mw = None
        rec_lo = rec_hi = 0
        slot = -1
        code_len = self._code_len
        uops_fast = self._uops_fast
        kinds = self._uops_kind
        if rec_on:
            rec_on_mem = recorder.on_mem
            rec_interval = recorder.checkpoint_interval
            rec_base = recorder.steps_done
            # The value of ``steps`` at which the next checkpoint is due.
            rec_ckpt = recorder.next_checkpoint - rec_base
            if self._rec_window is not None:
                # Only a windowed recorder's one-address steps are
                # filtered; otherwise ``slot`` matches no kind.
                rec_lo, rec_hi = self._rec_window
                slot = KIND_SLOT
            uops_rec = self._uops_rec
            rec_mr = self._rec_reads
            rec_mw = self._rec_writes
        # Selective-trace path (set_selective): a dedicated per-pc handler
        # table standing in for the untraced one; mutually exclusive with
        # recording and with per-instruction tools.
        uops_sel = self._uops_sel
        sel_on = uops_sel is not None and not per_step and not rec_on
        table = uops_sel if sel_on else uops_fast
        # Observability: one hoisted local; while disabled the per-step
        # cost is a single local-bool test (context-switch counting), and
        # everything else is aggregated from per-run deltas after the
        # loop — no dict lookups or attribute loads in the hot path.
        obs_on = OBS.enabled
        obs_switches = 0
        obs_skips_before = self.skipped_exclusions
        # External code may have mutated thread state between run() calls
        # (debugger stepping, tests poking statuses): start from a clean
        # cache rather than trusting one across the API boundary.
        self._runnable_cache = None
        # Hot-loop hoists.  All of these are only ever *reassigned* between
        # run() calls (the debugger swaps self.breakpoints; from_snapshot
        # rebuilds self._sleeping); within a run they are mutated in place,
        # so per-run locals see every change while skipping an attribute
        # load per step.
        scheduler = self.scheduler
        threads = self.threads
        breakpoints = self.breakpoints
        sleeping = self._sleeping
        excl_watch = self._excl_watch
        scheduler_pick = scheduler.pick
        scheduler_commit = scheduler.commit
        scheduler_lease = scheduler.lease
        scheduler_commit_many = scheduler.commit_many
        RUNNABLE = ThreadStatus.RUNNABLE
        STOP = KIND_STOP
        while True:
            if self._exit_requested:
                reason = "exit"
                break
            if max_steps is not None and steps >= max_steps:
                reason = "limit"
                break
            if self.stop_request:
                self.stop_request = False
                reason = "stop"
                break
            if sleeping:
                # Only replay schedules can demand a sleeping thread run
                # now (sleep deadlines measured in global steps shift when
                # a slice pinball drops excluded steps): the recorded step
                # implies the thread was awake in the original run, so the
                # schedule is authoritative and we wake it.
                intended = scheduler.intended()
                if intended is not None:
                    thread = threads.get(intended)
                    if (thread is not None
                            and thread.status == ThreadStatus.BLOCKED
                            and thread.block_reason
                            and thread.block_reason[0] == "sleep"):
                        thread.status = ThreadStatus.RUNNABLE
                        thread.block_reason = None
                        sleeping.discard(intended)
                        self._runnable_cache = None
                self._wake_sleepers()
            if predecoded:
                # Inlined _runnable_cached (sleeper wake handled above).
                runnable = self._runnable_cache
                if runnable is None:
                    runnable = [tid for tid, thread in sorted(threads.items())
                                if thread.status == RUNNABLE]
                    self._runnable_cache = runnable
            else:
                runnable = [tid for tid, thread in sorted(threads.items())
                            if thread.status == RUNNABLE]
            if not runnable:
                if self.finished:
                    reason = "done"
                    break
                # If nothing is runnable but some thread is sleeping,
                # fast-forward the step clock to the earliest wake-up
                # (deterministic: replay reaches the same state and takes
                # the same jump).  Only sleeper-free blockage is deadlock.
                wakes = [t.block_reason[1] for t in self.threads.values()
                         if t.status == ThreadStatus.BLOCKED
                         and t.block_reason and t.block_reason[0] == "sleep"]
                if wakes:
                    self.global_seq = max(self.global_seq, min(wakes))
                    self._wake_sleepers()
                    continue
                raise DeadlockError(
                    "deadlock: %d threads blocked" % len(self.live_threads()))
            tid = scheduler_pick(runnable, self._last_tid)
            thread = threads[tid]
            if breakpoints and thread.pc in breakpoints and not self._bp_skip:
                self.stop_request = False
                reason = "breakpoint"
                break
            self._bp_skip = False
            if obs_on and tid != self._last_tid and self._last_tid is not None:
                obs_switches += 1
            if excl_watch and self._try_exclusion_skip(thread):
                scheduler_commit(tid)
                self._last_tid = tid
                for tool in self._step_tools:
                    tool.on_step(tid)
                steps += 1
                idle += 1
                self.global_seq += 1
                continue
            scheduler_commit(tid)
            self._last_tid = tid
            for tool in self._step_tools:
                tool.on_step(tid)
            if log is not None and tid != run_tid:
                # A new RLE run starts (and the last one is handed over)
                # before anything of this batch reaches the recorder.
                if run_carry or steps > run_mark:
                    run_append(run_tid, run_carry + steps - run_mark)
                    run_carry = 0
                run_mark = steps
                run_tid = tid
            pc = thread.pc
            if not 0 <= pc < code_len:
                raise VMError("pc out of range", tid=tid, pc=pc)
            # Machine state here is "after rec_base + steps steps": the
            # pending step has been scheduled but not executed.
            if rec_interval and steps >= rec_ckpt:
                recorder.capture(self, rec_base + steps)
                rec_ckpt = recorder.next_checkpoint - rec_base
            if per_step:
                if not step_thread(thread, rec_on_mem):
                    idle += 1
                steps += 1
                self.global_seq += 1
                continue
            # The batch: this step, plus the leased ones after it, short
            # of max_steps and of the recorder's next checkpoint.
            kind = kinds[pc]
            if kind >= STOP:
                kind -= STOP
                budget = 1
            elif (lease_ok and not sleeping and not breakpoints
                    and not excl_watch):
                budget = 1 + scheduler_lease(tid)
                if max_steps is not None and budget > max_steps - steps:
                    budget = max_steps - steps
                if rec_interval and budget > rec_ckpt - steps:
                    budget = rec_ckpt - steps
            else:
                budget = 1
            n = 1
            if rec_on:
                # Untraced closures except where the opcode can touch
                # memory: those run their record micro-op and hand the
                # touched addresses to the recorder.
                try:
                    while True:
                        if kind:
                            if uops_rec[pc](self, thread, rec_mr, rec_mw):
                                if kind == slot:
                                    # One address, in exactly one list.
                                    addrs = rec_mr or rec_mw
                                    if rec_lo <= addrs[0] < rec_hi:
                                        rec_on_mem(tid, thread.instr_count,
                                                   rec_mr, rec_mw, pc)
                                    del addrs[:]
                                elif rec_mr or rec_mw:
                                    rec_on_mem(tid, thread.instr_count,
                                               rec_mr, rec_mw, pc)
                                    if rec_mr:
                                        del rec_mr[:]
                                    if rec_mw:
                                        del rec_mw[:]
                                thread.instr_count += 1
                            else:
                                idle += 1
                        elif uops_fast[pc](self, thread):
                            thread.instr_count += 1
                        else:
                            idle += 1
                        self.global_seq += 1
                        if n == budget or thread.status != RUNNABLE:
                            break
                        pc = thread.pc
                        kind = kinds[pc]
                        if kind >= STOP:
                            break
                        n += 1
                except BaseException:
                    if n > 1:
                        scheduler_commit_many(tid, n - 1)
                    raise
            else:
                try:
                    while True:
                        if table[pc](self, thread):
                            thread.instr_count += 1
                        else:
                            idle += 1
                        self.global_seq += 1
                        if n == budget or thread.status != RUNNABLE:
                            break
                        pc = thread.pc
                        if kinds[pc] >= STOP:
                            break
                        n += 1
                except BaseException:
                    if n > 1:
                        scheduler_commit_many(tid, n - 1)
                    raise
            if n > 1:
                scheduler_commit_many(tid, n - 1)
                batched += n - 1
            steps += n
        if log is not None:
            log._run_tid = run_tid
            log._run_count = run_carry + steps - run_mark
        if rec_on:
            recorder.steps_done = rec_base + steps
        if obs_on:
            OBS.add("vm.runs", 1)
            OBS.add("vm.steps", steps)
            OBS.add("vm.instructions_retired", steps - idle)
            if self._instr_tools:
                OBS.add("vm.steps_traced", steps)
            elif rec_on:
                OBS.add("vm.steps_recorded", steps)
            elif sel_on:
                OBS.add("vm.steps_selective", steps)
            else:
                OBS.add("vm.steps_untraced", steps)
            OBS.add("vm.steps_batched", batched)
            OBS.add("vm.context_switches", obs_switches)
            skips = self.skipped_exclusions - obs_skips_before
            if skips:
                OBS.add("vm.exclusion_skips", skips)
            if reason == "breakpoint":
                OBS.add("vm.breakpoint_stops", 1)
        for tool in self.tools:
            tool.on_finish(self)
        return RunResult(reason=reason, steps=steps, retired=steps - idle,
                         failure=self.failure)

    def step_over_breakpoint(self) -> None:
        """Allow the next step to execute even if it sits on a breakpoint."""
        self._bp_skip = True

    # -- exclusion regions (slice pinball replay) ---------------------------------

    def install_exclusions(self, exclusions: Sequence[dict]) -> None:
        """Arm code-exclusion skips for slice-pinball replay.

        Each record (produced by the relogger) describes one dynamic run of
        excluded instructions::

            {"tid": int, "start_pc": int, "start_arrival": int,
             "end_pc": int, "regs": [[name, value], ...],
             "mem": [[addr, value], ...], "frames": [frame snapshots]}

        When thread ``tid`` *arrives* at ``start_pc`` for the
        ``start_arrival``-th time (arrivals count both normal executions of
        that pc and skips), the machine teleports the thread to ``end_pc``
        and injects the recorded register/memory side effects — the
        excluded code is never executed, which is what makes slice-pinball
        replay fast (paper Section 4, Figure 6).

        Each record is converted here, once, into the form the skip
        applies; a malformed one raises :class:`ValueError` naming its
        index.
        """
        for index, record in enumerate(exclusions):
            try:
                key = (int(record["tid"]), int(record["start_pc"]))
                arrival = int(record["start_arrival"])
                skip = _exclusion_skip(record)
            except (KeyError, TypeError, ValueError, AttributeError,
                    IndexError) as exc:
                raise ValueError("malformed exclusion record %d (%s: %s)"
                                 % (index, type(exc).__name__, exc)) from exc
            self._excl_watch.setdefault(key, {})[arrival] = skip

    def _try_exclusion_skip(self, thread) -> bool:
        key = (thread.tid, thread.pc)
        by_arrival = self._excl_watch.get(key)
        if by_arrival is None:
            return False
        arrival = self._excl_arrivals.get(key, 0) + 1
        self._excl_arrivals[key] = arrival
        skip = by_arrival.get(arrival)
        if skip is None:
            return False
        regs, mem, frames, frame_ids, end_pc = skip
        thread_regs = thread.regs
        for name, value in regs:
            thread_regs[name] = value
        write = self.memory.write
        for addr, value in mem:
            write(addr, value)
        if frames is not None:
            thread.frames = [Frame(*fields) for fields in frames]
            # A later call must not reuse an id the recorded run handed
            # out: one installed frame could then share it.
            if frame_ids:
                thread._next_frame_id = max(thread._next_frame_id,
                                            max(frame_ids) + 1)
            self.exclusion_frames.setdefault(thread.tid, []).append(
                (thread.instr_count, frame_ids))
        thread.pc = end_pc
        self.skipped_exclusions += 1
        return True

    # -- single instruction ----------------------------------------------------------

    def _step_thread(self, thread: ThreadContext, on_mem=None) -> bool:
        """Execute one instruction of ``thread``, whose pc :meth:`run`
        has checked; False if it blocked.  ``on_mem`` is the armed
        recorder's, or None."""
        pc = thread.pc
        instr = self.instructions[pc]
        tracing = bool(self._instr_tools)
        accesses = tracing or on_mem is not None
        reg_reads: Optional[List[Tuple[str, Word]]] = [] if tracing else None
        reg_writes: Optional[List[Tuple[str, Word]]] = [] if tracing else None
        mem_reads: Optional[List[Tuple[int, Word]]] = [] if accesses else None
        mem_writes: Optional[List[Tuple[int, Word]]] = (
            [] if accesses else None)
        self._cur_mem_writes = mem_writes
        # Frame id *before* execution: a call instruction belongs to the
        # caller's frame (the control-dependence tracker relies on this).
        frame_id = thread.frames[-1].frame_id if thread.frames else -1

        retired = self._execute(thread, instr, pc, reg_reads, reg_writes,
                                mem_reads, mem_writes)
        self._cur_mem_writes = None
        if not retired:
            return False
        if on_mem is not None and (mem_reads or mem_writes):
            _feed_recorder(on_mem, thread, pc, mem_reads, mem_writes)
        if tracing:
            event = InstrEvent(
                seq=self.global_seq,
                tid=thread.tid,
                tindex=thread.instr_count,
                addr=pc,
                instr=instr,
                reg_reads=tuple(reg_reads),
                reg_writes=tuple(reg_writes),
                mem_reads=tuple(mem_reads),
                mem_writes=tuple(mem_writes),
                frame_id=frame_id,
            )
            for tool in self._instr_tools:
                tool.on_instr(event)
        thread.instr_count += 1
        return True

    def _step_thread_uop(self, thread: ThreadContext, on_mem=None) -> bool:
        """Predecoded-engine traced step: one micro-op closure call.

        The handler appends def/use pairs in exactly the order the
        legacy interpreter would, and the resulting
        :class:`~repro.vm.hooks.InstrEvent` is indistinguishable from the
        seed engine's (the differential tests assert this); an armed
        recorder's ``on_mem`` gets the same step's addresses.  Untraced,
        selective and record-only steps run in :meth:`run`'s batch loop.
        """
        pc = thread.pc
        reg_reads: List[Tuple[str, Word]] = []
        reg_writes: List[Tuple[str, Word]] = []
        mem_reads: List[Tuple[int, Word]] = []
        mem_writes: List[Tuple[int, Word]] = []
        self._cur_mem_writes = mem_writes
        frame_id = thread.frames[-1].frame_id if thread.frames else -1
        retired = self._uops_traced[pc](self, thread, reg_reads, reg_writes,
                                        mem_reads, mem_writes)
        self._cur_mem_writes = None
        if not retired:
            return False
        if on_mem is not None and (mem_reads or mem_writes):
            _feed_recorder(on_mem, thread, pc, mem_reads, mem_writes)
        if self._event_reuse_ok:
            # All subscribed tools consume the event synchronously: reuse
            # one scratch event and pass the raw lists (same contents and
            # order as the tuples; tools only read them during on_instr).
            event = self._scratch_event
            if event is None:
                event = self._scratch_event = InstrEvent(
                    0, 0, 0, 0, None, (), (), (), (), -1)
            event.seq = self.global_seq
            event.tid = thread.tid
            event.tindex = thread.instr_count
            event.addr = pc
            event.instr = self.instructions[pc]
            event.reg_reads = reg_reads
            event.reg_writes = reg_writes
            event.mem_reads = mem_reads
            event.mem_writes = mem_writes
            event.frame_id = frame_id
        else:
            event = InstrEvent(
                seq=self.global_seq,
                tid=thread.tid,
                tindex=thread.instr_count,
                addr=pc,
                instr=self.instructions[pc],
                reg_reads=tuple(reg_reads),
                reg_writes=tuple(reg_writes),
                mem_reads=tuple(mem_reads),
                mem_writes=tuple(mem_writes),
                frame_id=frame_id,
            )
        for tool in self._instr_tools:
            tool.on_instr(event)
        thread.instr_count += 1
        return True

    # Operand evaluation helpers -----------------------------------------------------

    def _reg_read(self, thread, name, reg_reads) -> Word:
        value = thread.regs[name]
        if reg_reads is not None:
            reg_reads.append((name, value))
        return value

    def _reg_write(self, thread, name, value, reg_writes) -> None:
        thread.regs[name] = value
        if reg_writes is not None:
            reg_writes.append((name, value))

    def _src(self, thread, operand, reg_reads) -> Word:
        if isinstance(operand, Reg):
            return self._reg_read(thread, operand.name, reg_reads)
        if isinstance(operand, Imm):
            return operand.value
        raise VMError("bad source operand %r" % (operand,), tid=thread.tid)

    def _mem_addr(self, thread, operand: Mem, reg_reads) -> int:
        base = self._reg_read(thread, operand.base.name, reg_reads)
        return int(base) + operand.offset

    def _load(self, addr: int, mem_reads) -> Word:
        value = self.memory.read(addr)
        if mem_reads is not None:
            mem_reads.append((addr, value))
        return value

    def _store(self, addr: int, value: Word, mem_writes) -> None:
        self.memory.write(addr, value)
        if mem_writes is not None:
            mem_writes.append((addr, value))

    # The interpreter proper ------------------------------------------------------------

    def _execute(self, thread, instr, pc, reg_reads, reg_writes,
                 mem_reads, mem_writes) -> bool:
        op = instr.op
        ops = instr.operands

        if op == Opcode.MOV:
            value = self._src(thread, ops[1], reg_reads)
            self._reg_write(thread, ops[0].name, value, reg_writes)
            thread.pc = pc + 1
        elif op == Opcode.LD:
            addr = self._mem_addr(thread, ops[1], reg_reads)
            value = self._load(addr, mem_reads)
            self._reg_write(thread, ops[0].name, value, reg_writes)
            thread.pc = pc + 1
        elif op == Opcode.ST:
            addr = self._mem_addr(thread, ops[0], reg_reads)
            value = self._src(thread, ops[1], reg_reads)
            self._store(addr, value, mem_writes)
            thread.pc = pc + 1
        elif op == Opcode.LEA:
            target = ops[1]
            value = target.value if isinstance(target, Imm) else self._src(
                thread, target, reg_reads)
            self._reg_write(thread, ops[0].name, value, reg_writes)
            thread.pc = pc + 1
        elif op == Opcode.BINOP:
            a = self._src(thread, ops[1], reg_reads)
            b = self._src(thread, ops[2], reg_reads)
            value = _apply_binop(instr.subop, a, b, thread, pc)
            self._reg_write(thread, ops[0].name, value, reg_writes)
            thread.pc = pc + 1
        elif op == Opcode.UNOP:
            a = self._src(thread, ops[1], reg_reads)
            value = _apply_unop(instr.subop, a)
            self._reg_write(thread, ops[0].name, value, reg_writes)
            thread.pc = pc + 1
        elif op == Opcode.JMP:
            thread.pc = int(ops[0].value)
        elif op == Opcode.BR:
            cond = self._reg_read(thread, ops[0].name, reg_reads)
            thread.pc = int(ops[1].value) if cond != 0 else pc + 1
        elif op == Opcode.BRZ:
            cond = self._reg_read(thread, ops[0].name, reg_reads)
            thread.pc = int(ops[1].value) if cond == 0 else pc + 1
        elif op == Opcode.IJMP:
            target = int(self._reg_read(thread, ops[0].name, reg_reads))
            self._check_code_addr(target, thread)
            thread.pc = target
        elif op in (Opcode.CALL, Opcode.ICALL):
            if op == Opcode.CALL:
                target = int(ops[0].value)
            else:
                target = int(self._reg_read(thread, ops[0].name, reg_reads))
            self._check_code_addr(target, thread)
            sp = int(self._reg_read(thread, "sp", reg_reads)) - 1
            if sp <= thread.stack_limit:
                raise VMError("stack overflow", tid=thread.tid, pc=pc)
            self._store(sp, pc + 1, mem_writes)
            self._reg_write(thread, "sp", sp, reg_writes)
            function = self.program.function_at(target)
            thread.push_frame(function.name if function else "<anon>",
                              pc, pc + 1)
            thread.pc = target
        elif op == Opcode.RET:
            sp = int(self._reg_read(thread, "sp", reg_reads))
            ret_addr = int(self._load(sp, mem_reads))
            self._reg_write(thread, "sp", sp + 1, reg_writes)
            thread.pop_frame()
            if ret_addr == EXIT_SENTINEL:
                thread.pc = pc + 1
                self._finish_thread(thread)
            else:
                self._check_code_addr(ret_addr, thread)
                thread.pc = ret_addr
        elif op == Opcode.PUSH:
            value = self._src(thread, ops[0], reg_reads)
            sp = int(self._reg_read(thread, "sp", reg_reads)) - 1
            if sp <= thread.stack_limit:
                raise VMError("stack overflow", tid=thread.tid, pc=pc)
            self._store(sp, value, mem_writes)
            self._reg_write(thread, "sp", sp, reg_writes)
            thread.pc = pc + 1
        elif op == Opcode.POP:
            sp = int(self._reg_read(thread, "sp", reg_reads))
            value = self._load(sp, mem_reads)
            self._reg_write(thread, ops[0].name, value, reg_writes)
            self._reg_write(thread, "sp", sp + 1, reg_writes)
            thread.pc = pc + 1
        elif op == Opcode.SYS:
            return self._do_syscall(thread, instr, pc, reg_reads, reg_writes)
        elif op == Opcode.HALT:
            thread.pc = pc + 1
            self.request_exit(0)
        elif op == Opcode.NOP:
            thread.pc = pc + 1
        else:
            raise VMError("unimplemented opcode %r" % op,
                          tid=thread.tid, pc=pc)
        return True

    def _check_code_addr(self, target: int, thread) -> None:
        if not 0 <= target < len(self.instructions):
            raise VMError("control transfer to bad address %d" % target,
                          tid=thread.tid, pc=thread.pc)

    def _do_syscall(self, thread, instr, pc, reg_reads, reg_writes) -> bool:
        name = instr.subop
        handler = SYSCALLS.get(name)
        if handler is None:
            raise VMError("unknown syscall %r" % name,
                          tid=thread.tid, pc=pc)
        args = tuple(thread.regs["r%d" % i] for i in range(4))
        if reg_reads is not None:
            for index in range(4):
                reg_reads.append(("r%d" % index, args[index]))
        thread.pc = pc + 1

        injected = False
        if name in NONDET_SYSCALLS and self.syscall_injector is not None:
            result = self.syscall_injector(name, thread.tid)
            if result is not None:
                injected = True
            else:
                result = handler(self, thread)
        else:
            result = handler(self, thread)

        if result is BLOCK:
            thread.pc = pc           # retry when woken
            thread.status = ThreadStatus.BLOCKED
            self._runnable_cache = None
            return False
        if result is not None:
            self._reg_write(thread, "r0", result, reg_writes)
        if self._syscall_tools:
            event = SyscallEvent(
                seq=self.global_seq, tid=thread.tid,
                tindex=thread.instr_count, addr=pc, name=name,
                args=args, result=result, injected=injected)
            for tool in self._syscall_tools:
                tool.on_syscall(event)
        return True

    # -- snapshot / restore -----------------------------------------------------------

    def snapshot(self) -> MachineSnapshot:
        """Full architectural state, JSON-serializable."""
        return MachineSnapshot({
            "program": self.program.name,
            "memory": self.memory.snapshot(),
            "threads": [t.snapshot() for _, t in sorted(self.threads.items())],
            "locks": [[addr, owner] for addr, owner in sorted(self.locks.items())],
            "barriers": [
                [addr, state["gen"], sorted(state["waiting"]),
                 sorted(state["released"])]
                for addr, state in sorted(self.barriers.items())],
            "next_tid": self.next_tid,
            "rng_state": self.rng.state,
            "inputs": list(self.inputs),
            "input_pos": self.input_pos,
            "time_base": self._time_base,
            "last_clock": self._last_clock,
            "last_tid": self._last_tid,
        })

    @classmethod
    def from_snapshot(cls, program: Program, snap: MachineSnapshot,
                      scheduler: Optional[Scheduler] = None,
                      tools: Sequence[Tool] = (),
                      syscall_injector=None,
                      engine: Optional[str] = None) -> "Machine":
        payload = snap.to_dict()
        machine = cls(program, scheduler=scheduler, tools=tools,
                      syscall_injector=syscall_injector, start_main=False,
                      engine=engine)
        machine.memory = Memory.from_snapshot(payload["memory"])
        machine.threads = {}
        for tsnap in payload["threads"]:
            thread = ThreadContext.from_snapshot(tsnap)
            machine.threads[thread.tid] = thread
        machine._sleeping = {
            tid for tid, thread in machine.threads.items()
            if thread.status == ThreadStatus.BLOCKED and thread.block_reason
            and thread.block_reason[0] == "sleep"}
        machine._runnable_cache = None
        machine.locks = {
            int(addr): (int(owner) if owner is not None else None)
            for addr, owner in payload["locks"]}
        machine.barriers = {
            int(addr): {"gen": int(gen),
                        "waiting": {int(t) for t in waiting},
                        "released": {int(t) for t in released}}
            for addr, gen, waiting, released in payload.get("barriers", [])}
        machine.next_tid = payload["next_tid"]
        machine.rng.state = payload["rng_state"]
        machine.inputs = list(payload["inputs"])
        machine.input_pos = payload["input_pos"]
        machine._time_base = payload["time_base"]
        machine._last_clock = payload.get("last_clock", 0)
        machine._last_tid = payload.get("last_tid")
        return machine

    def reset_counters(self) -> None:
        """Zero region-relative counters (at the start of a logged region).

        Deliberately does NOT touch ``_last_tid``: the scheduler must
        continue seamlessly across the region boundary, or the recorded
        region would diverge from the same seed's uninterrupted run.
        Pending sleep deadlines are rebased to the new clock for the same
        reason.  Call this *before* snapshotting so the snapshot is
        consistent with a region-relative step clock.
        """
        elapsed = self.global_seq
        self.global_seq = 0
        for thread in self.threads.values():
            thread.instr_count = 0
            if (thread.status == ThreadStatus.BLOCKED and thread.block_reason
                    and thread.block_reason[0] == "sleep"):
                wake = max(0, thread.block_reason[1] - elapsed)
                thread.block_reason = ("sleep", wake)

    # -- debugger conveniences ----------------------------------------------------------

    def read_global(self, name: str) -> Word:
        var = self.program.globals.get(name)
        if var is None:
            raise VMError("unknown global %r" % name)
        return self.memory.read(var.addr)

    def read_local(self, tid: int, name: str) -> Word:
        thread = self.threads[tid]
        frame = thread.current_frame()
        if frame is None:
            raise VMError("thread %d has no frames" % tid)
        function = self.program.functions.get(frame.func)
        if function is None:
            raise VMError("unknown function %r" % (frame.func,))
        if name in function.reg_locals:
            return thread.regs[function.reg_locals[name]]
        if name in function.local_offsets:
            offset = function.local_offsets[name]
            return self.memory.read(int(thread.regs["fp"]) + offset)
        raise VMError("unknown local %r in %s" % (name, frame.func))


def _feed_recorder(on_mem, thread, pc, mem_reads, mem_writes) -> None:
    """Hand a recorder one per-step retire's (addr, value) access lists
    as bare addresses."""
    on_mem(thread.tid, thread.instr_count,
           [addr for addr, _value in mem_reads],
           [addr for addr, _value in mem_writes], pc)


def _exclusion_skip(record: dict) -> tuple:
    """Checked (regs, mem, frames, frame_ids, end_pc) of one record."""
    regs = []
    for name, value in record["regs"]:
        if name not in ALL_REGISTERS:
            raise ValueError("unknown register %r" % (name,))
        regs.append((name, value))
    mem = [(int(addr), value) for addr, value in record["mem"]]
    frames = frame_ids = record.get("frames")
    if frames is not None:
        frames = [(f["func"], f["call_addr"], f["return_addr"],
                   f["frame_id"], f["fp_at_entry"]) for f in frames]
        frame_ids = tuple(fields[3] for fields in frames)
    return regs, mem, frames, frame_ids, int(record["end_pc"])


def _apply_binop(subop: str, a: Word, b: Word, thread, pc) -> Word:
    if subop == "add":
        return a + b
    if subop == "sub":
        return a - b
    if subop == "mul":
        return a * b
    if subop == "div":
        if b == 0:
            raise VMError("division by zero", tid=thread.tid, pc=pc)
        if isinstance(a, int) and isinstance(b, int):
            quotient = abs(a) // abs(b)
            return quotient if (a >= 0) == (b >= 0) else -quotient
        return a / b
    if subop == "mod":
        if b == 0:
            raise VMError("modulo by zero", tid=thread.tid, pc=pc)
        return int(a) - int(b) * (abs(int(a)) // abs(int(b))) * (
            1 if (a >= 0) == (b >= 0) else -1)
    if subop == "and":
        return int(a) & int(b)
    if subop == "or":
        return int(a) | int(b)
    if subop == "xor":
        return int(a) ^ int(b)
    if subop == "shl":
        return int(a) << int(b)
    if subop == "shr":
        return int(a) >> int(b)
    if subop == "eq":
        return int(a == b)
    if subop == "ne":
        return int(a != b)
    if subop == "lt":
        return int(a < b)
    if subop == "le":
        return int(a <= b)
    if subop == "gt":
        return int(a > b)
    if subop == "ge":
        return int(a >= b)
    raise VMError("unknown binop %r" % subop, tid=thread.tid, pc=pc)


def _apply_unop(subop: str, a: Word) -> Word:
    if subop == "neg":
        return -a
    if subop == "not":
        return int(not a)
    if subop == "int":
        return int(a)
    if subop == "float":
        return float(a)
    raise VMError("unknown unop %r" % subop)
