"""The PinPlay-style replayer: deterministic re-execution of a pinball.

Replay restores the pinball's architectural snapshot, follows its recorded
schedule step-for-step (:class:`~repro.vm.scheduler.RecordedScheduler`),
and injects recorded results for nondeterministic syscalls.  For slice
pinballs, the machine additionally skips excluded code regions and injects
their side effects.

``verify=True`` checks the final state hash against the one recorded at
logging time — the replay-determinism guarantee the whole DrDebug workflow
rests on ("the programmer observes the exact same program state during
multiple debug sessions").
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Sequence, Tuple

from repro.isa.program import Program
from repro.obs.registry import OBS
from repro.pinplay.format_v2 import (EmbeddedCheckpoint, capture_state,
                                     schedule_suffix)
from repro.pinplay.pinball import Pinball, state_hash
from repro.vm.errors import ReplayDivergence
from repro.vm.hooks import Tool
from repro.vm.machine import Machine, MachineSnapshot, RunResult
from repro.vm.scheduler import RecordedScheduler


class SyscallInjector:
    """Feeds recorded nondeterministic syscall results back during replay."""

    def __init__(self, syscalls: Dict[int, Sequence[Tuple[str, object]]]) -> None:
        self._full = {int(tid): list(log) for tid, log in syscalls.items()}
        self._queues = {tid: deque(log) for tid, log in self._full.items()}

    def inject(self, name: str, tid: int) -> Optional[object]:
        if OBS.enabled:   # syscalls are sparse; one check per injection
            OBS.inc("pinplay.syscalls_injected")
        queue = self._queues.get(tid)
        if not queue:
            raise ReplayDivergence(
                "tid %d executed nondeterministic syscall %r beyond the "
                "recorded log" % (tid, name))
        recorded_name, value = queue.popleft()
        if recorded_name != name:
            raise ReplayDivergence(
                "tid %d syscall order diverged: recorded %r, executing %r"
                % (tid, recorded_name, name))
        return value

    @property
    def drained(self) -> bool:
        return all(not queue for queue in self._queues.values())

    # -- checkpoint support (reverse debugging) ---------------------------

    def consumed(self) -> Dict[int, int]:
        """How many results each thread has consumed so far."""
        return {tid: len(self._full[tid]) - len(queue)
                for tid, queue in self._queues.items()}

    def rewind_to(self, consumed: Dict[int, int]) -> None:
        """Reset the queues to a previously captured consumption state."""
        for tid, log in self._full.items():
            start = int(consumed.get(tid, 0))
            self._queues[tid] = deque(log[start:])


def replay_machine(pinball: Pinball, program: Program,
                   tools: Sequence[Tool] = (),
                   engine: Optional[str] = None) -> Machine:
    """Build a machine primed to replay ``pinball`` (without running it).

    The debugger uses this to drive replay interactively (breakpoints,
    stepping); batch analyses use :func:`replay` instead.  Replay is pure
    re-execution: with no per-instruction tools attached the predecoded
    engine's untraced fast path executes the whole schedule without
    building a single event.
    """
    if program.name != pinball.program_name:
        raise ReplayDivergence(
            "pinball was recorded for %r, not %r"
            % (pinball.program_name, program.name))
    scheduler = RecordedScheduler(pinball.schedule)
    injector = SyscallInjector(pinball.syscalls)
    machine = Machine.from_snapshot(
        program, MachineSnapshot.from_dict(pinball.snapshot),
        scheduler=scheduler, tools=tools,
        syscall_injector=injector.inject, engine=engine)
    if pinball.exclusions:
        machine.install_exclusions(pinball.exclusions)
    return machine


def resume_machine(pinball: Pinball, program: Program,
                   checkpoint: EmbeddedCheckpoint,
                   engine: Optional[str] = None
                   ) -> Tuple[Machine, SyscallInjector]:
    """A machine resumed *mid-region* from an embedded checkpoint.

    This is the O(chunk) seek primitive: restoring the checkpoint's
    snapshot and replaying only the schedule suffix reaches any step in
    at most ``checkpoint_interval`` replayed steps, regardless of how
    long the region is.  The injector is returned so callers (the
    debugger, the reexec slicer) can capture further resume points of
    their own.
    """
    if program.name != pinball.program_name:
        raise ReplayDivergence(
            "pinball was recorded for %r, not %r"
            % (pinball.program_name, program.name))
    body = checkpoint.body()
    scheduler = RecordedScheduler(
        schedule_suffix(pinball.schedule, checkpoint.steps_done))
    injector = SyscallInjector(pinball.syscalls)
    injector.rewind_to(body["consumed"])
    machine = Machine.from_snapshot(
        program, MachineSnapshot.from_dict(body["snapshot"]),
        scheduler=scheduler, syscall_injector=injector.inject,
        engine=engine)
    machine.global_seq = checkpoint.global_seq
    machine.output = list(body["output"])
    for tid, count in body["instr_counts"].items():
        thread = machine.threads.get(tid)
        if thread is not None:
            thread.instr_count = count
    if OBS.enabled:
        OBS.add("pinplay.checkpoint_resumes", 1)
    return machine, injector


def generate_checkpoints(pinball: Pinball, program: Program,
                         interval: int,
                         engine: Optional[str] = None) -> list:
    """Embedded checkpoints for a pinball recorded without them.

    One replay pass, stopping every ``interval`` steps to capture a
    resumable state — how ``repro convert`` upgrades a v1 pinball to a
    fully seekable v2 one.  Slice pinballs (exclusions) are skipped:
    their replay teleports, so interior machine states are not
    checkpointable this way.
    """
    if interval < 1:
        raise ValueError("checkpoint interval must be >= 1")
    if pinball.exclusions:
        return []
    scheduler = RecordedScheduler(pinball.schedule)
    injector = SyscallInjector(pinball.syscalls)
    machine = Machine.from_snapshot(
        program, MachineSnapshot.from_dict(pinball.snapshot),
        scheduler=scheduler, syscall_injector=injector.inject,
        engine=engine)
    total = pinball.total_steps
    checkpoints = []
    done = 0
    while done < total:
        result = machine.run(max_steps=min(interval, total - done))
        if result.steps == 0:
            break
        done += result.steps
        if done < total:
            checkpoints.append(EmbeddedCheckpoint(
                done, machine.global_seq,
                body=capture_state(machine, injector.consumed(),
                                   machine.output)))
    return checkpoints


def replay(pinball: Pinball, program: Program,
           tools: Sequence[Tool] = (),
           verify: bool = True,
           engine: Optional[str] = None) -> Tuple[Machine, RunResult]:
    """Replay ``pinball`` to the end of its recorded schedule.

    Returns the finished machine and the run result.  With ``verify``,
    raises :class:`ReplayDivergence` if the final state hash does not match
    the hash recorded at logging time (skipped for slice pinballs, whose
    excluded code legitimately leaves different dead state behind).
    """
    machine = replay_machine(pinball, program, tools=tools, engine=engine)
    with OBS.span("pinplay.replay"):
        result = machine.run(max_steps=pinball.total_steps)
    if OBS.enabled:
        OBS.add("pinplay.replays", 1)
        OBS.add("pinplay.replayed_steps", result.steps)
    if verify and not pinball.exclusions:
        expected = pinball.meta.get("final_state_hash")
        if expected is not None and state_hash(machine) != expected:
            raise ReplayDivergence(
                "replay of %r diverged: final state hash mismatch"
                % pinball.program_name)
        expected_output = pinball.meta.get("output")
        if expected_output is not None and list(machine.output) != list(
                expected_output):
            raise ReplayDivergence("replay output diverged")
        OBS.add("pinplay.replay_verifications", 1)
    return machine, result
