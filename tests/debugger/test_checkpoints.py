"""Unit tests for the checkpoint manager itself."""

import pytest

import random

from repro.debugger import DrDebugSession
from repro.debugger.checkpoints import CheckpointManager
from repro.lang import compile_source
from repro.pinplay import Pinball, RegionSpec, record_region
from repro.pinplay.format_v2 import schedule_suffix
from repro.pinplay.pinball import state_hash
from repro.pinplay.replayer import SyscallInjector
from repro.vm import RoundRobinScheduler
from repro.vm.machine import Machine, MachineSnapshot
from repro.vm.scheduler import RecordedScheduler

SOURCE = """
int g;
int main() {
    int i;
    for (i = 0; i < 40; i = i + 1) {
        g = g + rand(3);
    }
    print(g);
    return 0;
}
"""


@pytest.fixture
def recorded():
    program = compile_source(SOURCE, name="cp")
    pinball = record_region(program, RoundRobinScheduler(), RegionSpec(),
                            rand_seed=9)
    return program, pinball


def fresh_replay(pinball, program):
    scheduler = RecordedScheduler(pinball.schedule)
    injector = SyscallInjector(pinball.syscalls)
    machine = Machine.from_snapshot(
        program, MachineSnapshot.from_dict(pinball.snapshot),
        scheduler=scheduler, syscall_injector=injector.inject)
    return machine, injector


class TestCapture:
    def test_interval_validation(self, recorded):
        program, pinball = recorded
        with pytest.raises(ValueError):
            CheckpointManager(pinball, program, interval=0)

    def test_capture_is_idempotent_per_step(self, recorded):
        program, pinball = recorded
        manager = CheckpointManager(pinball, program, interval=10)
        machine, injector = fresh_replay(pinball, program)
        manager.capture(machine, injector, 0)
        manager.capture(machine, injector, 0)
        assert len(manager) == 1

    def test_due_follows_interval(self, recorded):
        program, pinball = recorded
        manager = CheckpointManager(pinball, program, interval=10)
        machine, injector = fresh_replay(pinball, program)
        assert manager.due(0)
        manager.capture(machine, injector, 0)
        assert not manager.due(5)
        assert manager.due(10)


class TestRestore:
    def test_restored_machine_continues_identically(self, recorded):
        program, pinball = recorded
        manager = CheckpointManager(pinball, program, interval=10)
        machine, injector = fresh_replay(pinball, program)
        machine.run(max_steps=60)
        manager.capture(machine, injector, 60)
        machine.run(max_steps=pinball.total_steps - 60)
        final_hash = state_hash(machine)
        final_output = list(machine.output)

        checkpoint = manager.latest_at_or_before(60)
        restored, _injector = manager.restore(checkpoint)
        restored.run(max_steps=pinball.total_steps - 60)
        assert state_hash(restored) == final_hash
        assert restored.output == final_output

    def test_latest_at_or_before_selection(self, recorded):
        program, pinball = recorded
        # This test exercises *live* checkpoint selection; drop any
        # embedded (format-v2) checkpoints so the recording mode the
        # suite runs under cannot shift the expected picks.
        pinball.checkpoints = []
        manager = CheckpointManager(pinball, program, interval=10)
        machine, injector = fresh_replay(pinball, program)
        for steps in (0, 25, 50):
            manager.capture(machine, injector, steps)
        assert manager.latest_at_or_before(24).steps_done == 0
        assert manager.latest_at_or_before(25).steps_done == 25
        assert manager.latest_at_or_before(999).steps_done == 50
        manager.drop_after(25)
        assert manager.latest_at_or_before(999).steps_done == 25

    def test_latest_before_any_is_none(self, recorded):
        program, pinball = recorded
        manager = CheckpointManager(pinball, program, interval=10)
        assert manager.latest_at_or_before(5) is None


@pytest.fixture
def v2_recorded():
    program = compile_source(SOURCE, name="cp")
    pinball = record_region(program, RoundRobinScheduler(), RegionSpec(),
                            rand_seed=9, pinball_format="v2",
                            checkpoint_interval=40)
    return program, pinball


class TestEmbeddedCheckpoints:
    """Format-v2 pinballs arrive with checkpoints already embedded: free
    rewind targets that exist before the session replays anything."""

    def test_recording_embeds_interior_checkpoints(self, v2_recorded):
        _program, pinball = v2_recorded
        steps = [c.steps_done for c in pinball.checkpoints]
        assert steps == sorted(steps)
        assert steps, "expected interior checkpoints at interval 40"
        assert all(s % 40 == 0 for s in steps)
        assert all(0 < s <= pinball.total_steps for s in steps)

    def test_due_counts_embedded(self, v2_recorded):
        program, pinball = v2_recorded
        manager = CheckpointManager(pinball, program, interval=40)
        # Before the first embedded checkpoint nothing covers the replay:
        # the session's step-0 live capture is still wanted.
        first = pinball.checkpoints[0].steps_done
        assert manager.due(0)
        # From there on, embedded checkpoints cover the whole region at
        # interval 40, so a live capture is never due inside it — zero
        # redundant snapshot memory for a fully checkpointed pinball.
        assert not any(manager.due(step)
                       for step in range(first, pinball.total_steps + 1))
        # Past the coverage horizon, live capture resumes.
        last = pinball.checkpoints[-1].steps_done
        assert manager.due(last + 40)

    def test_latest_at_or_before_prefers_later_embedded(self, v2_recorded):
        program, pinball = v2_recorded
        manager = CheckpointManager(pinball, program, interval=40)
        machine, injector = fresh_replay(pinball, program)
        manager.capture(machine, injector, 0)       # live, at step 0
        first = pinball.checkpoints[0].steps_done
        chosen = manager.latest_at_or_before(first + 5)
        assert chosen.steps_done == first           # embedded wins
        assert manager.latest_at_or_before(first - 1).steps_done == 0

    def test_materialize_decodes_once(self, v2_recorded):
        program, recorded = v2_recorded
        pinball = Pinball.from_bytes(recorded.to_bytes(format="v2"))
        first = pinball.checkpoints[0]
        loads = []
        loader = first._loader
        first._loader = lambda: loads.append(1) or loader()
        session = DrDebugSession(pinball, program)
        session.enable_reverse_debugging(40)
        for _ in range(2):                          # two rewinds, one decode
            session.seek(first.steps_done + 3)
            assert session.steps_done == first.steps_done + 3
        assert len(loads) == 1

    def test_restore_from_embedded_continues_identically(self,
                                                         v2_recorded):
        program, pinball = v2_recorded
        reference, _ = fresh_replay(pinball, program)
        reference.run(max_steps=pinball.total_steps)

        manager = CheckpointManager(pinball, program, interval=40)
        checkpoint = manager.latest_at_or_before(pinball.total_steps)
        assert checkpoint.steps_done > 0            # an embedded one
        machine, _injector = manager.restore(checkpoint)
        machine.run(max_steps=pinball.total_steps - checkpoint.steps_done)
        assert state_hash(machine) == state_hash(reference)
        assert machine.output == reference.output


def _reference_suffix(schedule, steps_done):
    """The plain RLE walk: drop ``steps_done`` steps run by run."""
    remaining = []
    to_skip = steps_done
    for tid, count in schedule:
        if to_skip >= count:
            to_skip -= count
            continue
        remaining.append((tid, count - to_skip))
        to_skip = 0
    return remaining


class TestRemainingSchedule:
    """The prefix-sum + binary-search resume (``schedule_suffix``) must
    equal the reference RLE walk at every possible step offset."""

    def test_prefix_sum_matches_reference_walk(self, recorded):
        _program, pinball = recorded
        total = sum(count for _tid, count in pinball.schedule)
        for steps_done in range(total + 2):
            assert (schedule_suffix(pinball, steps_done)
                    == _reference_suffix(pinball.schedule, steps_done)), (
                "divergence at steps_done=%d" % steps_done)

    def test_random_schedules_match_reference_walk(self):
        rng = random.Random(16)
        for _ in range(2000):
            schedule = [(rng.randrange(4), rng.randint(1, 6))
                        for _ in range(rng.randrange(8))]
            pinball = Pinball("cp", {}, schedule, {})
            total = pinball.total_steps
            for steps_done in (0, rng.randint(0, total + 2), total):
                assert (schedule_suffix(pinball, steps_done)
                        == _reference_suffix(schedule, steps_done))

    def test_synthetic_run_boundaries(self, recorded):
        _program, pinball = recorded
        schedule = [(0, 3), (1, 1), (0, 4), (2, 2)]
        pinball.schedule = schedule
        assert schedule_suffix(pinball, 0) == schedule
        assert schedule_suffix(pinball, 3) == schedule[1:]
        assert schedule_suffix(pinball, 4) == schedule[2:]
        assert schedule_suffix(pinball, 5) == [(0, 3), (2, 2)]
        assert schedule_suffix(pinball, 8) == [(2, 2)]
        assert schedule_suffix(pinball, 10) == []
        assert schedule_suffix(pinball, 99) == []
        assert pinball.total_steps == 10
