"""Hunting a region behind a ``skip``.

A region pinball is the machine state at region entry plus the region's
log.  Every hunt run starts from that snapshot, so the ``recorded``
candidate replays the region's own schedule from the state it was
recorded in: two regions with different schedules give different rows,
a minimization forks behind the skip as it does at region entry, no
hunt run fast-forwards, and the served hunt equals the in-process one.
"""

import pytest

from repro.analysis import validate_report
from repro.analysis.hunt import evaluate, hunt, scan
from repro.obs.registry import OBS
from repro.pinplay import RegionSpec
from repro.serve import DebugClient, PinballStore
from repro.workloads import get_bug, get_pointer_bug

from tests.serve.conftest import running_server

#: Exposing seeds of two pbzip2 regions at the racy phase (skip 7336).
PBZIP2_SEEDS = (3, 11)
#: perfbench's dangle_reuse analog, exposed at its region skip (928).
DANGLE_PARAMS = {"warmup": 60, "rounds": 12, "recycle_work": 25}


def _region(bug, program, seed):
    """``bug`` exposed by ``seed`` in the region from its racy phase."""
    region = RegionSpec(skip=bug.buggy_region_skip(program, seed))
    pinball, found = bug.expose(program, seeds=[seed], region=region)
    assert found == seed and pinball.meta["skip"] > 0
    return pinball


@pytest.fixture(scope="module")
def pbzip2_regions():
    bug = get_bug("pbzip2")
    program = bug.build()
    return program, {seed: _region(bug, program, seed)
                     for seed in PBZIP2_SEEDS}


@pytest.fixture(scope="module")
def pbzip2_rows(pbzip2_regions):
    program, regions = pbzip2_regions
    rows = {}
    for seed, pinball in regions.items():
        _races, candidates, ctx = scan(pinball, program, budget=6,
                                       profile_seeds=2)
        rows[seed] = evaluate(program, candidates, ctx)
    return rows


@pytest.fixture
def obs():
    saved = OBS.enabled
    OBS.reset()
    OBS.enable()
    yield OBS
    OBS.reset()
    OBS.enabled = saved


@pytest.mark.parametrize("seed", PBZIP2_SEEDS)
def test_recorded_row_is_the_region_schedule(pbzip2_regions, pbzip2_rows,
                                             seed):
    _program, regions = pbzip2_regions
    pinball = regions[seed]
    recorded = pbzip2_rows[seed][0]
    assert recorded["cid"] == "c000-recorded"
    assert recorded["outcome"] == "crash"
    assert recorded["schedule_runs"] == [list(run)
                                         for run in pinball.schedule]
    assert recorded["failure"]["code"] == pinball.meta["failure"]["code"]


def test_regions_with_different_schedules_give_different_rows(
        pbzip2_regions, pbzip2_rows):
    _program, regions = pbzip2_regions
    first, second = PBZIP2_SEEDS
    assert regions[first].schedule != regions[second].schedule
    assert pbzip2_rows[first] != pbzip2_rows[second]


def test_minimization_forks_behind_the_skip(pbzip2_regions, obs):
    program, regions = pbzip2_regions
    result = hunt(regions[PBZIP2_SEEDS[0]], program, budget=6,
                  profile_seeds=2, minimize_budget=16, slice_reports=False)
    counters = obs.counters()
    assert result.findings
    assert counters["hunt.prefix_steps"] > 0
    assert counters["pinplay.regions_recorded"] == len(result.findings)
    assert not [path for path in obs.span_stats()
                if "pinplay.fast_forward" in path]


@pytest.fixture(scope="module")
def dangle_region():
    bug = get_pointer_bug("dangle_reuse")
    program = bug.build(**DANGLE_PARAMS)
    _whole, seed = bug.expose(program)
    return bug, program, _region(bug, program, seed)


def test_dangle_reuse_behind_skip_hunts_in_process_and_served(
        dangle_region, tmp_path):
    bug, program, pinball = dangle_region
    options = {"budget": 6, "profile_seeds": 2, "minimize_budget": 16}
    local = hunt(pinball, program, **options)
    payload = validate_report(local.payload())
    assert local.findings and local.minimized
    assert any(finding.failure_code == bug.failure_code
               for finding in local.findings)

    store = PinballStore(str(tmp_path / "store"))
    source_sha = store.put_source(bug.source(**DANGLE_PARAMS), program.name)
    key = store.put_pinball(pinball, meta={"source_sha": source_sha})
    with running_server(store.root, workers=2) as server:
        with DebugClient(port=server.port, timeout=120) as client:
            served = client.hunt(key, **options)
    minimized_keys = validate_report(served).pop("minimized_keys")
    assert served["findings"] == [
        dict(row, minimized_key=minimized_keys[row["candidate"]])
        for row in payload["findings"]]
    assert sorted(minimized_keys) == sorted(local.minimized)
    for cid, sha in minimized_keys.items():
        assert store.get_pinball(sha).to_bytes(compress=False) == \
            local.minimized[cid].to_bytes(compress=False)
