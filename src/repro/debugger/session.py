"""The DrDebug debugger session: replay-based cyclic debugging.

A session wraps one pinball.  ``run``/``continue_``/``stepi``/``step``
drive the deterministic replay; state inspection reads the live machine;
``restart`` begins a fresh, identical replay (the "cyclic" in cyclic
debugging — every iteration sees the same heap addresses, the same
schedule, the same syscall results).

Slicing commands lazily build a :class:`~repro.slicing.api.SlicingSession`
(a separate traced replay of the same pinball), compute slices, and can
produce a slice pinball whose replay this class can also drive with
``slice_step`` — stepping from one slice statement to the next while all
non-slice code is skipped.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.debugger.breakpoints import BreakpointTable
from repro.debugger.checkpoints import CheckpointManager
from repro.isa.program import Program
from repro.obs.registry import OBS
from repro.pinplay.pinball import Pinball
from repro.pinplay.replayer import SyscallInjector, resume_machine
from repro.slicing.api import SlicingSession
from repro.slicing.options import SliceOptions
from repro.slicing.slice import DynamicSlice
from repro.vm.errors import VMError
from repro.vm.machine import Machine
from repro.vm.thread import ThreadStatus

Word = Union[int, float]


class DebuggerError(Exception):
    """User-level command errors (unknown variable, not running, ...)."""


def _require_count(count: int) -> None:
    if count < 0:
        raise DebuggerError("step count must be >= 0, got %d" % count)


class DrDebugSession:
    """Replay-based debugging of one pinball (paper Figure 2 workflow)."""

    def __init__(self, pinball: Pinball, program: Program,
                 source: Optional[str] = None,
                 slice_options: Optional[SliceOptions] = None) -> None:
        self.pinball = pinball
        self.program = program
        self.source = source
        self.slice_options = slice_options or SliceOptions()
        self.breakpoints = BreakpointTable(program)
        self.machine: Optional[Machine] = None
        self.steps_done = 0
        self.last_stop_reason: Optional[str] = None
        self.focus_tid = 0
        self._slicing: Optional[SlicingSession] = None
        self.current_slice: Optional[DynamicSlice] = None
        self.slice_pinball: Optional[Pinball] = None
        self._injector: Optional[SyscallInjector] = None
        self._checkpoints: Optional[CheckpointManager] = None
        self._last_slice_stop: Optional[tuple] = None

    # -- execution control ---------------------------------------------------

    def enable_reverse_debugging(self,
                                 interval: Optional[int] = None) -> int:
        """Arm checkpoint-based reverse execution (paper Section 8).

        Replay will snapshot the machine every ``interval`` scheduler
        steps (default: the ``checkpoint_interval`` config knob); reverse
        commands rewind to the nearest checkpoint and replay forward the
        remainder.  Call before (or between) runs.  Format-v2 pinballs
        arrive with embedded checkpoints, so even the first rewind of a
        fresh session is O(interval) rather than O(region).  Returns the
        resolved interval.
        """
        from repro import config
        interval = config.checkpoint_interval(explicit=interval)
        self._checkpoints = CheckpointManager(self.pinball, self.program,
                                              interval)
        return interval

    @property
    def reverse_enabled(self) -> bool:
        return self._checkpoints is not None

    def _build_machine(self) -> None:
        self.machine, self._injector = resume_machine(self.pinball,
                                                      self.program)

    def restart(self) -> None:
        """Begin a fresh replay of the same pinball (new debug iteration)."""
        OBS.add("debugger.restarts", 1)
        self._build_machine()
        self.machine.breakpoints = self.breakpoints.active_addrs()
        self.steps_done = 0
        self.last_stop_reason = None
        if self._checkpoints is not None:
            self._checkpoints.clear()

    def _advance(self, max_steps: int):
        """Run forward up to ``max_steps``, taking due checkpoints.

        Returns the last machine RunResult-like stop (reason, failure)
        with the aggregated step count.
        """
        machine = self._require_machine()
        taken = 0
        result = None
        while taken < max_steps:
            if (self._checkpoints is not None
                    and self._checkpoints.due(self.steps_done)):
                self._checkpoints.capture(
                    machine, self._injector, self.steps_done)
            chunk = max_steps - taken
            if self._checkpoints is not None:
                until_due = (self._checkpoints.interval
                             - (self.steps_done
                                - self._checkpoints.latest_at_or_before(
                                    self.steps_done).steps_done))
                chunk = min(chunk, max(1, until_due))
            result = machine.run(max_steps=chunk)
            taken += result.steps
            self.steps_done += result.steps
            if result.reason != "limit":
                break
        if result is None:
            from repro.vm.machine import RunResult
            result = RunResult(reason="limit", steps=0, retired=0,
                               failure=machine.failure)
        return result, taken

    def _require_machine(self) -> Machine:
        if self.machine is None:
            raise DebuggerError("no replay running; use run()")
        return self.machine

    @property
    def running(self) -> bool:
        return (self.machine is not None
                and self.steps_done < self.pinball.total_steps
                and not self.machine.finished)

    def run(self) -> str:
        """Start (or restart) replay and run to the first stop."""
        self.restart()
        return self.continue_()

    def continue_(self) -> str:
        OBS.add("debugger.commands", 1)
        machine = self._require_machine()
        machine.breakpoints = self.breakpoints.active_addrs()
        remaining = self.pinball.total_steps - self.steps_done
        if remaining <= 0 or machine.finished:
            self.last_stop_reason = "end"
            return "replay finished"
        machine.step_over_breakpoint()
        result, _taken = self._advance(remaining)
        self.last_stop_reason = result.reason
        if result.reason == "breakpoint":
            return self._describe_breakpoint_stop()
        if result.failure is not None:
            return ("assertion failure code %s in thread %d (pc %d)"
                    % (result.failure["code"], result.failure["tid"],
                       result.failure["pc"]))
        return "replay finished (%s)" % result.reason

    def stepi(self, count: int = 1) -> str:
        """Execute ``count`` scheduler steps (single instructions)."""
        OBS.add("debugger.commands", 1)
        _require_count(count)
        machine = self._require_machine()
        taken = 0
        for _ in range(count):
            remaining = self.pinball.total_steps - self.steps_done
            if remaining <= 0 or machine.finished:
                break
            machine.step_over_breakpoint()
            _result, stepped = self._advance(1)
            taken += stepped
            if stepped == 0:
                break
        self.last_stop_reason = "stepi"
        return "stepped %d instruction(s); %s" % (taken, self.where())

    def step(self) -> str:
        """Step the focused thread to its next source line."""
        OBS.add("debugger.commands", 1)
        machine = self._require_machine()
        thread = machine.threads.get(self.focus_tid)
        if thread is None:
            raise DebuggerError("no thread %d" % self.focus_tid)
        start_line = self.current_line(self.focus_tid)
        guard = 0
        while True:
            remaining = self.pinball.total_steps - self.steps_done
            if remaining <= 0 or machine.finished:
                break
            machine.step_over_breakpoint()
            _result, stepped = self._advance(1)
            if stepped == 0:
                break
            guard += 1
            if guard > 2_000_000:
                raise DebuggerError("step did not terminate")
            if machine._last_tid != self.focus_tid:
                continue
            line = self.current_line(self.focus_tid)
            if line is not None and line != start_line:
                break
            if thread.status == ThreadStatus.FINISHED:
                break
        self.last_stop_reason = "step"
        return self.where()

    # -- reverse execution (paper Section 8 extension) -------------------------

    def _require_reverse(self, need_machine: bool = True
                         ) -> CheckpointManager:
        if self._checkpoints is None:
            raise DebuggerError(
                "reverse debugging not enabled; call "
                "enable_reverse_debugging() before run()")
        if need_machine and self.machine is None:
            raise DebuggerError("no replay running; use run()")
        return self._checkpoints

    def _rewind_to(self, target_steps: int) -> None:
        """Restore replay state exactly at ``target_steps``.

        Works on a machine-less session too: the restore path always
        builds its own machine (from the nearest checkpoint, or from the
        region snapshot when none precedes the target), so a fresh
        session's first seek never pays for a full-schedule machine it
        would immediately throw away.
        """
        manager = self._require_reverse(need_machine=False)
        target_steps = max(0, target_steps)
        checkpoint = manager.latest_at_or_before(target_steps)
        if OBS.enabled:
            OBS.add("debugger.rewinds", 1)
            resume_from = (checkpoint.steps_done
                           if checkpoint is not None else 0)
            # Forward re-execution distance: the real cost of this rewind.
            OBS.observe("debugger.resume_distance",
                        max(0, target_steps - resume_from))
            if checkpoint is not None:
                OBS.add("debugger.checkpoint_reuses", 1)
        if checkpoint is None:
            # No checkpoint yet (rewind before the first capture): start
            # a fresh replay and roll forward.
            self._build_machine()
            self.steps_done = 0
        else:
            self.machine, self._injector = manager.restore(checkpoint)
            self.steps_done = checkpoint.steps_done
        manager.drop_after(self.steps_done)
        # Roll forward to the exact target with breakpoints disarmed.
        self.machine.breakpoints = set()
        while self.steps_done < target_steps:
            _result, stepped = self._advance(
                target_steps - self.steps_done)
            if stepped == 0:
                break
        self.machine.breakpoints = self.breakpoints.active_addrs()

    def seek(self, target_steps: int) -> str:
        """Jump the replay to an absolute step count (forwards or back).

        Uses the checkpoint machinery in both directions: the session
        restores the nearest checkpoint at or before the target (an
        embedded one for v2 pinballs) and replays only the suffix, so the
        cost is bounded by the checkpoint interval, not by the region
        length or the seek distance.
        """
        OBS.add("debugger.commands", 1)
        if self._checkpoints is None:
            raise DebuggerError(
                "reverse debugging not enabled; call "
                "enable_reverse_debugging() before seek()")
        target_steps = max(0, min(target_steps, self.pinball.total_steps))
        self._rewind_to(target_steps)
        self.last_stop_reason = "seek"
        return "at step %d; %s" % (self.steps_done, self.where())

    def reverse_stepi(self, count: int = 1) -> str:
        """Step ``count`` scheduler steps backwards."""
        OBS.add("debugger.reverse_commands", 1)
        _require_count(count)
        before = self.steps_done
        self._rewind_to(self.steps_done - count)
        self.last_stop_reason = "reverse-stepi"
        return ("stepped %d instruction(s) backwards; %s"
                % (before - self.steps_done, self.where()))

    def reverse_step(self) -> str:
        """Step the focused thread backwards to its previous source line."""
        self._require_reverse()
        start_line = self.current_line(self.focus_tid)
        guard = 0
        while self.steps_done > 0:
            self.reverse_stepi(1)
            guard += 1
            if guard > 2_000_000:
                raise DebuggerError("reverse step did not terminate")
            line = self.current_line(self.focus_tid)
            if line is not None and line != start_line:
                break
        self.last_stop_reason = "reverse-step"
        return self.where()

    def reverse_continue(self) -> str:
        """Run backwards to the most recent breakpoint hit."""
        OBS.add("debugger.reverse_commands", 1)
        manager = self._require_reverse()
        target_addrs = self.breakpoints.active_addrs()
        if not target_addrs:
            raise DebuggerError("no breakpoints to reverse-continue to")
        origin = self.steps_done

        # Scan checkpoint intervals backwards; within each, replay forward
        # recording every breakpoint stop before `origin`, and keep the
        # last one found.
        scan_end = origin
        while scan_end > 0:
            checkpoint = manager.latest_at_or_before(scan_end - 1)
            scan_start = checkpoint.steps_done if checkpoint else 0
            last_hit = self._scan_for_breakpoints(
                scan_start, scan_end, target_addrs)
            if last_hit is not None:
                self._rewind_to(last_hit)
                self.last_stop_reason = "reverse-breakpoint"
                return self._describe_breakpoint_stop()
            if scan_start == 0:
                break
            scan_end = scan_start
        self._rewind_to(0)
        self.last_stop_reason = "reverse-end"
        return "reached the beginning of the replay"

    def _scan_for_breakpoints(self, scan_start: int, scan_end: int,
                              target_addrs) -> Optional[int]:
        """Last step count in [scan_start, scan_end) stopped at a
        breakpoint, by forward replay of that window."""
        self._rewind_to(scan_start)
        machine = self.machine
        machine.breakpoints = set(target_addrs)
        last_hit = None
        while self.steps_done < scan_end:
            machine.step_over_breakpoint()
            result, stepped = self._advance(scan_end - self.steps_done)
            if result.reason == "breakpoint" and self.steps_done < scan_end:
                last_hit = self.steps_done
            elif stepped == 0 and result.reason != "breakpoint":
                break
        machine.breakpoints = self.breakpoints.active_addrs()
        return last_hit

    def _describe_breakpoint_stop(self) -> str:
        machine = self._require_machine()
        # The thread whose pc sits on a breakpoint address.
        for tid, thread in sorted(machine.threads.items()):
            bp = self.breakpoints.breakpoint_at(thread.pc)
            if bp is not None and thread.status == ThreadStatus.RUNNABLE:
                bp.hit_count += 1
                self.focus_tid = tid
                line = self.program.line_of(thread.pc)
                func = self.program.function_at(thread.pc)
                return ("hit breakpoint %d in thread %d at %s:%s (pc %d)"
                        % (bp.number, tid,
                           func.name if func else "?", line, thread.pc))
        return "stopped"

    # -- inspection ---------------------------------------------------------------

    def current_line(self, tid: Optional[int] = None) -> Optional[int]:
        machine = self._require_machine()
        thread = machine.threads[self.focus_tid if tid is None else tid]
        if 0 <= thread.pc < len(self.program.instructions):
            return self.program.line_of(thread.pc)
        return None

    def where(self, tid: Optional[int] = None) -> str:
        machine = self._require_machine()
        tid = self.focus_tid if tid is None else tid
        thread = machine.threads[tid]
        func = self.program.function_at(thread.pc)
        return "thread %d at %s:%s (pc %d, %s)" % (
            tid, func.name if func else "?",
            self.program.line_of(thread.pc), thread.pc, thread.status)

    def info_threads(self) -> List[str]:
        machine = self._require_machine()
        lines = []
        for tid, thread in sorted(machine.threads.items()):
            marker = "*" if tid == self.focus_tid else " "
            func = self.program.function_at(thread.pc)
            lines.append("%s thread %d  %s:%s  pc=%d  %s" % (
                marker, tid, func.name if func else "?",
                self.program.line_of(thread.pc), thread.pc, thread.status))
        return lines

    def backtrace(self, tid: Optional[int] = None) -> List[str]:
        machine = self._require_machine()
        thread = machine.threads[self.focus_tid if tid is None else tid]
        frames = []
        for depth, frame in enumerate(reversed(thread.frames)):
            frames.append("#%d %s (called from pc %d)" % (
                depth, frame.func, frame.call_addr))
        return frames or ["<no frames>"]

    def print_var(self, name: str, tid: Optional[int] = None) -> Word:
        """Read a variable: local of the focused frame, else a global.

        Supports ``name`` and ``name[<int>]`` for arrays.
        """
        machine = self._require_machine()
        tid = self.focus_tid if tid is None else tid
        index: Optional[int] = None
        if "[" in name and name.endswith("]"):
            base, _, rest = name.partition("[")
            try:
                index = int(rest[:-1])
            except ValueError:
                raise DebuggerError("array index must be a constant int")
            name = base
        thread = machine.threads.get(tid)
        if thread is not None and thread.frames:
            function = self.program.functions.get(thread.frames[-1].func)
            if function is not None and (
                    name in function.reg_locals
                    or name in function.local_offsets):
                if index is not None:
                    if name not in function.local_offsets:
                        raise DebuggerError("%r is not an array" % name)
                    base_addr = int(thread.regs["fp"]) + \
                        function.local_offsets[name]
                    return machine.memory.read(base_addr + index)
                try:
                    return machine.read_local(tid, name)
                except VMError as exc:
                    raise DebuggerError(str(exc))
        var = self.program.globals.get(name)
        if var is not None:
            return machine.memory.read(var.addr + (index or 0))
        raise DebuggerError("unknown variable %r" % name)

    # -- slicing commands -------------------------------------------------------------

    @property
    def slicing(self) -> SlicingSession:
        """The traced replay, built on first slice request and reused."""
        if self._slicing is None:
            self._slicing = SlicingSession(
                self.pinball, self.program, self.slice_options)
        return self._slicing

    def slicing_stats(self) -> dict:
        """Trace + slice-index amortization stats of the slicing session
        (builds the traced replay if no slice command ran yet)."""
        return self.slicing.stats()

    def slice_at_failure(self) -> DynamicSlice:
        self.current_slice = self.slicing.slice_for(
            self.slicing.failure_criterion())
        return self.current_slice

    def slice_for_variable(self, global_name: str,
                           line: Optional[int] = None,
                           tid: Optional[int] = None,
                           instance: Optional[tuple] = None) -> DynamicSlice:
        """Slice for the value of global ``global_name``.

        The criterion instance is, in order of precedence, the explicit
        ``instance`` pair, the last execution of source ``line``
        (optionally per-``tid``), or the last write to the global.  Same
        keyword vocabulary as
        :meth:`~repro.slicing.api.SlicingSession.slice_for_global` and
        the serve ``slice`` verb.
        """
        session = self.slicing
        if instance is not None:
            self.current_slice = session.slice_for(
                (int(instance[0]), int(instance[1])),
                [session.global_location(global_name)])
        elif line is not None:
            criterion = session.last_instance_at_line(line, tid)
            self.current_slice = session.slice_for(
                criterion, [session.global_location(global_name)])
        else:
            self.current_slice = session.slice_for_global(global_name,
                                                          tid=tid)
        return self.current_slice

    def make_slice_pinball(self) -> Pinball:
        if self.current_slice is None:
            raise DebuggerError("no slice computed yet")
        self.slice_pinball = self.slicing.make_slice_pinball(
            self.current_slice)
        return self.slice_pinball

    def replay_slice(self) -> "DrDebugSession":
        """Open a debugger session on the slice pinball (Figure 4c)."""
        if self.slice_pinball is None:
            self.make_slice_pinball()
        child = DrDebugSession(self.slice_pinball, self.program,
                               source=self.source,
                               slice_options=self.slice_options)
        child.current_slice = self.current_slice
        return child

    def slice_step(self, by_statement: bool = True) -> str:
        """Run to the next executed statement belonging to the slice.

        Meant to be called on a session opened over a *slice pinball*
        (via :meth:`replay_slice`): breakpoints are placed on every slice
        instruction and execution continues to the next one, with excluded
        code skipped by the replayer.  With ``by_statement`` (the default,
        matching the paper's "step from one statement in the slice to the
        next"), consecutive stops on the same (thread, source line) are
        coalesced; pass False to stop at every slice instruction.
        """
        if self.current_slice is None:
            raise DebuggerError("no slice loaded")
        if self.machine is None:
            self.restart()
        machine = self._require_machine()
        slice_addrs = self.current_slice.pcs()
        machine.breakpoints = slice_addrs
        while True:
            remaining = self.pinball.total_steps - self.steps_done
            if remaining <= 0 or machine.finished:
                self.last_stop_reason = "end"
                return "slice replay finished"
            machine.step_over_breakpoint()
            result, _taken = self._advance(remaining)
            self.last_stop_reason = result.reason
            if result.reason != "breakpoint":
                return "slice replay finished (%s)" % result.reason
            stop = None
            for tid, thread in sorted(machine.threads.items()):
                if (thread.pc in slice_addrs
                        and thread.status == ThreadStatus.RUNNABLE):
                    stop = (tid, self.program.line_of(thread.pc))
                    break
            if stop is None:
                continue
            if by_statement and stop == self._last_slice_stop:
                continue
            self._last_slice_stop = stop
            self.focus_tid = stop[0]
            return "slice step: %s" % self.where(stop[0])
