"""Differential suite for the bug firehose.

Three equivalences hold by construction and are checked here:

* **online == traced race detection** — the fast-path recorder-protocol
  detector and the classic per-instruction tool report the same races
  (same site pairs, kinds and instances) on every recording, because
  happens-before is decided solely at synchronization joins, which both
  observe identically;
* **hunt is deterministic** — the same recording hunted twice yields the
  same classification, findings and minimized schedules;
* **served == in-process** — a hunt sharded over the serve worker pool
  merges to the same findings and *byte-identical* minimized pinballs
  as a single-process hunt, and a worker killed mid-hunt is respawned
  with the request requeued, losing no findings.
"""

import os
import signal
import time

import pytest

from repro.analysis.hunt import PerturbedScheduler, hunt
from repro.analysis.report import validate_report
from repro.detect import detect_races, detect_races_online
from repro.pinplay import replay
from repro.serve import PinballStore, WorkerPool
from repro.workloads.pointers import POINTER_BUGS

from tests.support.progen import build_program, record_pinball

DIFF_SEEDS = range(10)


def _race_key(races):
    return sorted((race.site_pair(), race.kind, race.first_instance,
                   race.second_instance) for race in races)


class TestOnlineTracedEquivalence:
    @pytest.mark.parametrize("seed", DIFF_SEEDS)
    def test_same_races_both_paths(self, seed):
        program = build_program(seed)
        pinball = record_pinball(program, seed)
        traced = detect_races(pinball, program, online=False)
        online = detect_races_online(pinball, program)
        assert _race_key(traced) == _race_key(online)

    def test_online_dispatch_is_default(self):
        program = build_program(3)
        pinball = record_pinball(program, 3)
        # detect_races() defaults to the online path and must agree
        # with the forced traced path.
        assert _race_key(detect_races(pinball, program)) == _race_key(
            detect_races(pinball, program, online=False))


class TestHuntDeterminism:
    @pytest.mark.parametrize("seed", DIFF_SEEDS)
    def test_classification_is_deterministic(self, seed):
        program = build_program(seed)
        pinball = record_pinball(program, seed)
        first = hunt(pinball, program, budget=4, profile_seeds=2,
                     minimize_budget=6, slice_reports=False)
        second = hunt(pinball, program, budget=4, profile_seeds=2,
                      minimize_budget=6, slice_reports=False)
        validate_report(first.payload())
        assert first.payload() == second.payload()
        assert sorted(first.minimized) == sorted(second.minimized)
        for cid, minimized in first.minimized.items():
            assert minimized.to_bytes(compress=False) == \
                second.minimized[cid].to_bytes(compress=False)


@pytest.fixture(scope="module")
def exposed_uaf():
    """The use-after-free analog exposed into a failing recording."""
    bug = POINTER_BUGS["uaf_chase"]
    program = bug.build()
    pinball, seed = bug.expose(program)
    assert pinball is not None
    return bug, program, pinball


class TestMinimizedPinball:
    def test_minimized_pinball_still_reproduces(self, exposed_uaf):
        bug, program, pinball = exposed_uaf
        result = hunt(pinball, program, budget=4, profile_seeds=2,
                      minimize_budget=12)
        crashes = [f for f in result.findings if f.outcome == "crash"]
        assert crashes and crashes[0].failure_code == bug.failure_code
        minimized = result.minimized[crashes[0].candidate]
        _machine, rp = replay(minimized, program)
        assert rp.failure and rp.failure["code"] == bug.failure_code
        # The slice report reaches the freeing/racing source lines.
        report = crashes[0].slice_report
        assert report is not None and report.instance_count > 0
        failing_line = program.line_of(crashes[0].failure["pc"])
        assert failing_line in report.lines

    def test_perturbed_scheduler_tolerates_mutations(self, exposed_uaf):
        _bug, program, pinball = exposed_uaf
        # Chop the recorded schedule in half and scramble the tail: the
        # lenient follower must still drive a complete run.
        runs = [list(run) for run in pinball.schedule]
        mutant = runs[:max(1, len(runs) // 2)] + [[99, 5]]
        from repro.analysis.hunt import hunt_context, _run
        ctx = hunt_context(pinball, program)
        scheduler = PerturbedScheduler(mutant)
        _run(program, scheduler, ctx)
        assert scheduler.steps > 0


class TestServedHunt:
    @pytest.fixture(scope="class")
    def stocked(self, tmp_path_factory, exposed_uaf):
        bug, program, pinball = exposed_uaf
        root = str(tmp_path_factory.mktemp("hunt-store"))
        store = PinballStore(root)
        source_sha = store.put_source(bug.source(), program.name,
                                      tags=("hunt",))
        key = store.put_pinball(pinball, tags=("hunt",),
                                meta={"source_sha": source_sha})
        return store, key, source_sha, program.name

    def _hunt_params(self, stocked):
        _store, key, source_sha, name = stocked
        return {"pinball": key, "source": source_sha,
                "program_name": name, "budget": 4, "profile_seeds": 2,
                "minimize_budget": 12}

    def test_worker_hunt_matches_in_process(self, stocked, exposed_uaf):
        _bug, program, pinball = exposed_uaf
        store, _key, _sha, _name = stocked
        local = hunt(pinball, program, budget=4, profile_seeds=2,
                     minimize_budget=12)
        with WorkerPool(store.root, workers=2, default_timeout=120) as pool:
            served = pool.call("hunt", self._hunt_params(stocked),
                               timeout=120)
        minimized_raw = served.pop("minimized_raw")
        validate_report(served)
        local_payload = local.payload()
        assert served["finding_count"] == local_payload["finding_count"]
        assert served["findings"] == local_payload["findings"]
        for cid, raw in minimized_raw.items():
            assert raw == local.minimized[cid].to_bytes(compress=False)

    def test_worker_killed_mid_hunt_loses_no_findings(self, stocked,
                                                      exposed_uaf):
        """Chaos rider: SIGKILL the lone worker while it hunts; the pool
        respawns it and requeues the request — the answer is complete
        and identical to an undisturbed hunt."""
        _bug, program, pinball = exposed_uaf
        store, _key, _sha, _name = stocked
        started = time.perf_counter()
        baseline = hunt(pinball, program, budget=4, profile_seeds=2,
                        minimize_budget=12)
        elapsed = time.perf_counter() - started
        with WorkerPool(store.root, workers=1, default_timeout=180) as pool:
            victim_pid = pool.call("ping", {}, timeout=30)["pid"]
            future = pool.submit("hunt", self._hunt_params(stocked),
                                 timeout=180)
            # Half an in-process hunt in, on any machine: mid-hunt.
            time.sleep(elapsed / 2)
            os.kill(victim_pid, signal.SIGKILL)
            served = future.result(timeout=180)
            assert pool.stats()["crashes"] >= 1
        minimized_raw = served.pop("minimized_raw")
        validate_report(served)
        assert served["findings"] == baseline.payload()["findings"]
        for cid, raw in minimized_raw.items():
            assert raw == baseline.minimized[cid].to_bytes(compress=False)
