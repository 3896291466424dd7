"""Every hunt re-execution is bounded.

``toggle.mc``'s setter writes ``flag = 1; flag = 0;`` while main spins
on ``while (flag == 0)``: under most schedules main misses the one step
where the flag is set and spins forever.  A recording where it did not
miss must still hunt to completion, in process and on the serve pool,
with the spinning schedules reported as ``overrun`` rows (never
minimized or recorded), and the pool's worker free again afterwards.
"""

import os

import pytest

from repro.analysis import validate_report
from repro.analysis.hunt import (STEP_CAP_MIN, dedupe_rows, evaluate, hunt,
                                 hunt_context, scan)
from repro.lang import compile_source
from repro.obs import OBS
from repro.pinplay import RegionSpec, record_region
from repro.serve import DebugClient, PinballStore
from repro.vm import Machine, RandomScheduler

from tests.serve.conftest import running_server

TOGGLE = os.path.join(os.path.dirname(__file__), "toggle.mc")


@pytest.fixture(scope="module")
def toggle():
    with open(TOGGLE) as handle:
        source = handle.read()
    program = compile_source(source, name="toggle")
    for seed in range(200):
        machine = Machine(program, scheduler=RandomScheduler(
            seed=seed, switch_prob=0.3))
        machine.run(max_steps=2_000)
        if machine.finished and machine.failure is None:
            break
    else:
        raise AssertionError("no terminating schedule in 200 seeds")
    pinball = record_region(program, RandomScheduler(seed=seed,
                                                     switch_prob=0.3),
                            RegionSpec())
    return source, program, pinball


def test_spinning_candidates_end_as_overrun_rows(toggle):
    _source, program, pinball = toggle
    _races, candidates, ctx = scan(pinball, program, budget=6,
                                   profile_seeds=0)
    assert ctx["step_cap"] == max(STEP_CAP_MIN, 8 * pinball.total_steps)
    rows = evaluate(program, candidates, ctx)
    outcomes = [row["outcome"] for row in rows]
    assert "overrun" in outcomes and "crash" not in outcomes
    for row in rows:
        if row["outcome"] == "overrun":
            assert row["failure"] is None and "schedule_runs" not in row
    assert dedupe_rows(candidates, rows) == []


def test_profiling_runs_stop_at_the_step_cap(toggle):
    _source, program, pinball = toggle
    saved = OBS.enabled
    OBS.reset()
    OBS.enable()
    try:
        _races, _candidates, ctx = scan(pinball, program, budget=6,
                                        profile_seeds=2)
        steps = OBS.counters()["maple.profile_steps"]
    finally:
        OBS.reset()
        OBS.enabled = saved
    assert 0 < steps <= 2 * (ctx["skip"] + ctx["step_cap"])


def test_capped_reference_run_leaves_no_reference_output(toggle):
    _source, program, pinball = toggle
    ctx = hunt_context(pinball, program)
    # Round-robin lets the setter finish before main reads the flag.
    assert ctx["reference_output"] is None


def test_hunt_returns_in_process(toggle):
    _source, program, pinball = toggle
    result = hunt(pinball, program, budget=6, profile_seeds=0)
    payload = validate_report(result.payload())
    assert payload["overrun"] == result.overrun > 0
    assert payload["candidates_tried"] == (result.benign + result.overrun)
    assert result.findings == [] and result.minimized == {}


def test_hunt_returns_served_and_frees_its_worker(toggle, tmp_path):
    source, program, pinball = toggle
    local = hunt(pinball, program, budget=6, profile_seeds=0).payload()
    store = PinballStore(str(tmp_path / "store"))
    source_sha = store.put_source(source, program.name)
    key = store.put_pinball(pinball, meta={"source_sha": source_sha})
    with running_server(store.root, workers=1) as server:
        with DebugClient(port=server.port, timeout=120) as client:
            served = client.hunt(key, budget=6, profile_seeds=0)
        assert validate_report(served).pop("minimized_keys") == {}
        assert served == local
        assert server.pool.call("ping", {}, worker=0, timeout=30)["pong"]
