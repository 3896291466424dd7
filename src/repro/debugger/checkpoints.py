"""Checkpoint-based reverse debugging over deterministic replay.

The paper's Section 8 sketches how DrDebug could support reverse
debugging: "by recording multiple pinballs and then replaying forward
using the right pinball.  Doing this using PinPlay's user-level
check-pointing feature can be much more efficient than using operating
system features."  This module implements exactly that scheme:

* while the debugger replays a pinball forward, a
  :class:`CheckpointManager` captures a live checkpoint every
  ``interval`` scheduler steps — an
  :class:`~repro.pinplay.format_v2.EmbeddedCheckpoint` whose body is
  :func:`~repro.pinplay.format_v2.capture_state`'s, the same shape a v2
  recording embeds (a slice pinball's replay adds its
  exclusion-arrival counters);
* a reverse command rewinds to the latest checkpoint, live or embedded,
  at or before the target step, and
  :func:`~repro.pinplay.replayer.resume_machine` — the one builder of
  replay machines — restores it and replays forward the remaining
  distance.  Determinism guarantees the machine arrives in the
  *identical* state it had when it first passed that step.

The manager holds only the debugger's own policy: when a live capture
is due, and which checkpoint is nearest.

Cost model: one reverse command costs at most ``interval`` forward steps
of re-execution, against ``interval``-granularity snapshot memory — the
same trade every checkpointing reverse debugger makes.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Tuple

from repro.isa.program import Program
from repro.obs.registry import OBS
from repro.pinplay.format_v2 import EmbeddedCheckpoint, capture_state
from repro.pinplay.pinball import Pinball
from repro.pinplay.replayer import SyscallInjector, resume_machine
from repro.vm.machine import Machine


class CheckpointManager:
    """Owns the live checkpoints of one replayed pinball."""

    def __init__(self, pinball: Pinball, program: Program,
                 interval: int) -> None:
        if interval < 1:
            raise ValueError("checkpoint interval must be >= 1")
        self.pinball = pinball
        self.program = program
        self.interval = interval
        #: Live checkpoints in ascending step order (a rewind drops the
        #: ones past its target before replay captures new ones), with
        #: their steps alongside for bisecting.
        self._checkpoints: List[EmbeddedCheckpoint] = []
        self._steps: List[int] = []
        # Index the embedded checkpoints (O(frames)) while arming, not in
        # the first rewind or step, which should cost one interval of
        # replay whatever the region length.
        pinball.nearest_checkpoint(0)

    def __len__(self) -> int:
        return len(self._checkpoints)

    def clear(self) -> None:
        self._checkpoints = []
        self._steps = []

    # -- capture -------------------------------------------------------------

    def capture(self, machine: Machine, injector: SyscallInjector,
                steps_done: int) -> EmbeddedCheckpoint:
        """Snapshot the replay at ``steps_done`` (idempotent per step)."""
        if self._steps and self._steps[-1] == steps_done:
            return self._checkpoints[-1]
        checkpoint = EmbeddedCheckpoint(
            steps_done, machine.global_seq,
            body=capture_state(machine, injector.consumed(),
                               machine.output))
        self._checkpoints.append(checkpoint)
        self._steps.append(steps_done)
        OBS.add("debugger.checkpoints_captured", 1)
        return checkpoint

    def due(self, steps_done: int) -> bool:
        """Is a checkpoint due at this step count?

        Embedded checkpoints count: when the pinball already carries one
        within ``interval`` steps behind, a live capture would be
        redundant snapshot memory.
        """
        nearest = self.latest_at_or_before(steps_done)
        return (nearest is None
                or steps_done - nearest.steps_done >= self.interval)

    # -- restore -------------------------------------------------------------

    def latest_at_or_before(self, target_steps: int
                            ) -> Optional[EmbeddedCheckpoint]:
        """The nearest checkpoint, live or embedded, at or before
        ``target_steps`` (None when neither list has one that early)."""
        index = bisect_right(self._steps, target_steps)
        best = self._checkpoints[index - 1] if index else None
        embedded = self.pinball.nearest_checkpoint(target_steps)
        if embedded is not None and (
                best is None or embedded.steps_done > best.steps_done):
            best = embedded
        return best

    def drop_after(self, steps: int) -> None:
        """Forget live checkpoints past ``steps`` (after rewinding)."""
        index = bisect_right(self._steps, steps)
        del self._checkpoints[index:]
        del self._steps[index:]

    def restore(self, checkpoint: EmbeddedCheckpoint
                ) -> Tuple[Machine, SyscallInjector]:
        """A machine resumed exactly at the checkpoint."""
        OBS.add("debugger.checkpoints_restored", 1)
        return resume_machine(self.pinball, self.program, checkpoint)
