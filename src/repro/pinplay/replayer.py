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
from repro.pinplay.pinball import Pinball, PinballFormatError, state_hash
from repro.vm.errors import ReplayDivergence
from repro.vm.hooks import Tool
from repro.vm.machine import (Machine, MachineSnapshot, RunResult,
                              default_engine)
from repro.vm.scheduler import RecordedScheduler


class SyscallInjector:
    """Feeds recorded nondeterministic syscall results back during replay."""

    def __init__(self, syscalls: Dict[int, Sequence[Tuple[str, object]]],
                 consumed: Optional[Dict[int, int]] = None) -> None:
        """``consumed`` (a checkpoint's cursor, results per thread
        already delivered) starts each queue past those results."""
        consumed = consumed or {}
        self._full = {int(tid): list(log) for tid, log in syscalls.items()}
        self._queues = {tid: deque(log[int(consumed.get(tid, 0)):])
                        for tid, log in self._full.items()}

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


def resume_machine(pinball: Pinball, program: Program,
                   checkpoint: Optional[EmbeddedCheckpoint] = None,
                   tools: Sequence[Tool] = (),
                   engine: Optional[str] = None
                   ) -> Tuple[Machine, SyscallInjector]:
    """The one builder of replay machines: ``pinball`` primed to replay
    from region entry, or from ``checkpoint`` (without running it).

    Every consumer goes through here: plain replay, relog and online
    race detection (via :func:`replay_machine`), the debugger's
    restarts and rewinds, reexec's scaffold and window passes, and
    :func:`generate_checkpoints`.  A checkpoint is any
    :class:`~repro.pinplay.format_v2.EmbeddedCheckpoint` — one embedded
    in a v2 pinball, or one captured live by the debugger or the reexec
    scaffold — whose body :func:`~repro.pinplay.format_v2.capture_state`
    wrote.  Restoring its snapshot and replaying only the schedule
    suffix reaches any step in at most one checkpoint interval of
    replayed steps, however long the region.

    The injector is returned so callers (the debugger, the reexec
    slicer) can capture further resume points of their own.  A
    malformed part raises
    :class:`~repro.pinplay.pinball.PinballFormatError` naming the
    pinball's source and the part: the schedule, the syscall log, the
    region snapshot, the checkpoint (by step) or the exclusion record
    (by index).
    """
    if program.name != pinball.program_name:
        raise ReplayDivergence(
            "pinball was recorded for %r, not %r"
            % (pinball.program_name, program.name))
    if engine is None:
        engine = default_engine()   # a bad knob is not a pinball error
    body = None
    where = ("region snapshot" if checkpoint is None
             else "checkpoint at step %d" % checkpoint.steps_done)
    section = where
    try:
        if checkpoint is None:
            snapshot, consumed = pinball.snapshot, None
        else:
            body = checkpoint.body()
            snapshot, consumed = body["snapshot"], body["consumed"]
        section = "schedule"
        scheduler = RecordedScheduler(
            pinball.schedule if checkpoint is None
            else schedule_suffix(pinball, checkpoint.steps_done))
        section = "syscall log"
        injector = SyscallInjector(pinball.syscalls, consumed)
        section = where
        machine = Machine.from_snapshot(
            program, MachineSnapshot.from_dict(snapshot),
            scheduler=scheduler, tools=tools,
            syscall_injector=injector.inject, engine=engine)
        if body is not None:
            machine.global_seq = checkpoint.global_seq
            machine.output = list(body["output"])
            # Snapshots do not carry per-thread retired-instruction
            # counters; restore them so region-relative tindexes stay
            # correct after a resume.
            for tid, count in body["instr_counts"].items():
                thread = machine.threads.get(tid)
                if thread is not None:
                    thread.instr_count = count
            machine._excl_arrivals = {
                (tid, pc): count
                for tid, pc, count in body.get("excl_arrivals", ())}
        section = None
        machine.install_exclusions(pinball.exclusions)
    except PinballFormatError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError,
            IndexError) as exc:
        if section is None:   # the message names the exclusion record
            raise PinballFormatError(
                "%s: %s" % (pinball._source, exc)) from exc
        raise PinballFormatError(
            "%s: malformed %s (%s: %s)"
            % (pinball._source, section, type(exc).__name__, exc)) from exc
    if body is not None and OBS.enabled:
        OBS.add("pinplay.checkpoint_resumes", 1)
    return machine, injector


def replay_machine(pinball: Pinball, program: Program,
                   tools: Sequence[Tool] = (),
                   engine: Optional[str] = None) -> Machine:
    """A machine primed to replay ``pinball`` from region entry.

    The debugger drives replay interactively (breakpoints, stepping);
    batch analyses use :func:`replay` instead.  Replay is pure
    re-execution: with no per-instruction tools attached the predecoded
    engine's untraced fast path executes the whole schedule without
    building a single event.
    """
    return resume_machine(pinball, program, tools=tools, engine=engine)[0]


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
    machine, injector = resume_machine(pinball, program, engine=engine)
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
