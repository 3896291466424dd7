"""Unit tests for the schedulers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.hunt import PerturbedScheduler
from repro.vm.errors import ReplayDivergence
from repro.vm.scheduler import (
    RandomScheduler,
    RecordedScheduler,
    RoundRobinScheduler,
    ScheduleRecorder,
)


def drive(scheduler, runnable_fn, steps):
    """Run pick/commit cycles; returns the tid sequence."""
    picked = []
    last = None
    for step in range(steps):
        runnable = runnable_fn(step)
        tid = scheduler.pick(runnable, last)
        scheduler.commit(tid)
        picked.append(tid)
        last = tid
    return picked


class TestRoundRobin:
    def test_quantum_rotation(self):
        sched = RoundRobinScheduler(quantum=3)
        picked = drive(sched, lambda s: [0, 1], 9)
        assert picked == [0, 0, 0, 1, 1, 1, 0, 0, 0]

    def test_skips_non_runnable(self):
        sched = RoundRobinScheduler(quantum=2)
        picked = drive(sched, lambda s: [1] if s < 4 else [0, 1], 6)
        assert picked[:4] == [1, 1, 1, 1]

    def test_wraps_around(self):
        sched = RoundRobinScheduler(quantum=1)
        picked = drive(sched, lambda s: [0, 1, 2], 6)
        assert picked == [0, 1, 2, 0, 1, 2]

    def test_quantum_validation(self):
        with pytest.raises(ValueError):
            RoundRobinScheduler(quantum=0)

    def test_discarded_pick_not_consumed(self):
        sched = RoundRobinScheduler(quantum=2)
        first = sched.pick([0, 1], None)
        # pick again without commit: same answer (pure until commit).
        assert sched.pick([0, 1], None) == first


class TestRandom:
    def test_deterministic_per_seed(self):
        a = drive(RandomScheduler(seed=3, switch_prob=0.5),
                  lambda s: [0, 1, 2], 50)
        b = drive(RandomScheduler(seed=3, switch_prob=0.5),
                  lambda s: [0, 1, 2], 50)
        assert a == b

    def test_different_seeds_differ(self):
        a = drive(RandomScheduler(seed=1, switch_prob=0.5),
                  lambda s: [0, 1, 2], 50)
        b = drive(RandomScheduler(seed=2, switch_prob=0.5),
                  lambda s: [0, 1, 2], 50)
        assert a != b

    def test_only_picks_runnable(self):
        picked = drive(RandomScheduler(seed=7, switch_prob=1.0),
                       lambda s: [2, 5], 30)
        assert set(picked) <= {2, 5}

    def test_zero_switch_prob_sticks(self):
        picked = drive(RandomScheduler(seed=7, switch_prob=0.0),
                       lambda s: [0, 1], 10)
        assert len(set(picked)) == 1


class TestRecorded:
    def test_follows_schedule(self):
        sched = RecordedScheduler([(0, 2), (1, 3), (0, 1)])
        picked = drive(sched, lambda s: [0, 1], 6)
        assert picked == [0, 0, 1, 1, 1, 0]
        assert sched.exhausted

    def test_divergence_on_not_runnable(self):
        sched = RecordedScheduler([(5, 1)])
        with pytest.raises(ReplayDivergence):
            sched.pick([0, 1], None)

    def test_divergence_when_exhausted(self):
        sched = RecordedScheduler([(0, 1)])
        sched.commit(sched.pick([0], None))
        with pytest.raises(ReplayDivergence):
            sched.pick([0], 0)

    def test_pick_without_commit_repeats(self):
        sched = RecordedScheduler([(0, 1), (1, 1)])
        assert sched.pick([0, 1], None) == 0
        assert sched.pick([0, 1], None) == 0    # not yet committed
        sched.commit(0)
        assert sched.pick([0, 1], 0) == 1

    def test_commit_mismatch_raises(self):
        sched = RecordedScheduler([(0, 1)])
        with pytest.raises(ReplayDivergence):
            sched.commit(1)


class TestScheduleRecorder:
    def test_rle_compression(self):
        rec = ScheduleRecorder()
        for tid in [0, 0, 0, 1, 1, 0]:
            rec.record(tid)
        assert rec.runs == [(0, 3), (1, 2), (0, 1)]
        assert rec.total() == 6

    def test_empty(self):
        assert ScheduleRecorder().total() == 0

    def test_roundtrip_through_recorded_scheduler(self):
        rec = ScheduleRecorder()
        original = [0, 1, 1, 2, 0, 0, 2]
        for tid in original:
            rec.record(tid)
        sched = RecordedScheduler(rec.runs)
        replayed = drive(sched, lambda s: [0, 1, 2], len(original))
        assert replayed == original


def _step(scheduler, runnable, last):
    """One pick/commit pair; a divergence is an outcome, not an error."""
    try:
        tid = scheduler.pick(runnable, last)
    except ReplayDivergence as exc:
        return "diverged: %s" % exc
    scheduler.commit(tid)
    return tid


_TIDS = st.integers(0, 3)
_RUNNABLE = st.sets(_TIDS, min_size=1).map(sorted)
_LEASING = {
    "recorded": lambda runs, quantum: RecordedScheduler(runs),
    "round_robin": lambda runs, quantum: RoundRobinScheduler(quantum),
    "perturbed": lambda runs, quantum: PerturbedScheduler(runs, quantum),
}


class TestLease:
    """``lease(tid)`` steps are already decided: one ``commit_many`` of
    them leaves a scheduler where that many pick/commit pairs would."""

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(sorted(_LEASING)),
           runs=st.lists(st.tuples(_TIDS, st.integers(1, 6)),
                         min_size=1, max_size=12),
           quantum=st.integers(1, 6),
           prefix=st.lists(_RUNNABLE, max_size=20),
           after=st.lists(_RUNNABLE, min_size=50, max_size=50))
    def test_commit_many_equals_single_commits(self, kind, runs, quantum,
                                               prefix, after):
        leased = _LEASING[kind](runs, quantum)
        stepped = _LEASING[kind](runs, quantum)
        last = None
        for runnable in prefix:
            outcome = _step(leased, runnable, last)
            assert _step(stepped, runnable, last) == outcome
            if not isinstance(outcome, int):
                return
            last = outcome
        if last is None:
            return
        count = leased.lease(last)
        assert count >= 0 and stepped.lease(last) == count
        leased.commit_many(last, count)
        for runnable in after[:count]:
            # Valid while ``last`` stays runnable: every pick returns it.
            assert _step(stepped, sorted(set(runnable) | {last}),
                         last) == last
        for runnable in after:
            outcome = _step(leased, runnable, last)
            assert _step(stepped, runnable, last) == outcome
            if not isinstance(outcome, int):
                break
            last = outcome

    @given(seed=st.integers(0, 50), runnable=_RUNNABLE)
    def test_random_leases_nothing(self, seed, runnable):
        scheduler = RandomScheduler(seed=seed, switch_prob=0.1)
        tid = scheduler.pick(runnable, None)
        scheduler.commit(tid)
        assert scheduler.lease(tid) == 0
