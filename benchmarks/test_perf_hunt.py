"""Bug-firehose performance: online detection tax and fleet rate.

Two numbers gate the hunt pipeline (ISSUE 10 acceptance):

* **online detection** must cost at most ``ONLINE_BAR`` (1.5x) of a bare
  untraced replay of the same pinball (the median of per-pair ratios
  over alternating pairs) — the whole point of the
  recorder-protocol detector is that scanning for races is cheap enough
  to leave on;
* **the hunt fleet** must evaluate at least ``RATE_BAR`` (5) candidate
  schedules per second per worker — re-executions within the recorded
  envelope are supposed to be cheap in-situ probes, not fresh
  recordings.

Results (plus the raw timings) land in ``BENCH_hunt.json`` at the repo
root and in ``benchmarks/results/experiments.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_hunt.py -q -s
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time

from repro.config import perf_smoke
from repro.detect import detect_races_online
from repro.lang import compile_source
from repro.pinplay import RegionSpec, record_region
from repro.pinplay.replayer import replay_machine
from repro.vm import RandomScheduler
from repro.workloads import get_parsec

from benchmarks.conftest import record_table

SMOKE = perf_smoke()

BENCH_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_hunt.json")

#: Allowed slowdown of one online-detection pass over a bare untraced
#: replay of the same pinball.
ONLINE_BAR = 1.5

#: Minimum candidate-schedule re-executions per second per worker.
RATE_BAR = 5.0

#: Alternating (untraced, online) pairs behind the median ratio, in
#: smoke mode too: the median of 3 short pairs flaps across the bar.
ONLINE_PAIRS = 15

if SMOKE:
    UNITS, REPEATS = 60, 3
else:
    UNITS, REPEATS = 120, 5

#: The fleet workload: a lost-update race — candidates come from real
#: detected races, like a production hunt.
RACY_SOURCE = """
int x;
int bump(int unused) {
    x = x + 1;
    return 0;
}
int main() {
    int a; int b;
    a = spawn(bump, 0);
    b = spawn(bump, 0);
    join(a);
    join(b);
    return x;
}
"""


def _best(fn, repeats):
    best = float("inf")
    gc.collect()
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _bench_online_detection():
    program = get_parsec("blackscholes").build(units=UNITS, nthreads=4)
    pinball = record_region(program,
                            RandomScheduler(seed=3, switch_prob=0.1),
                            RegionSpec(), rand_seed=3)

    def untraced():
        machine = replay_machine(pinball, program)
        machine.run(max_steps=pinball.total_steps)

    def online():
        detect_races_online(pinball, program)

    untraced()   # warm both paths before timing
    online()
    # Alternating pairs, read by the median of per-pair ratios: each
    # side is a ~20 ms replay, shorter than a busy box's slow stretches,
    # so a best-of per side compares two different moments.
    samples = {untraced: [], online: []}
    for index in range(ONLINE_PAIRS):
        for run in ((untraced, online) if index % 2 == 0
                    else (online, untraced)):
            samples[run].append(_best(run, 1))
    ratios = [o / u for u, o in zip(samples[untraced], samples[online])]
    baseline, candidate = min(samples[untraced]), min(samples[online])
    return {
        "phase": "online_detection",
        "workload": "blackscholes",
        "steps": pinball.total_steps,
        "pairs": ONLINE_PAIRS,
        "untraced_sec": baseline,
        "online_sec": candidate,
        "pair_ratios": ratios,
        "ratio": statistics.median(ratios),
        "best_over_best": candidate / baseline,
        "bar": ONLINE_BAR,
    }


def _bench_fleet_rate():
    from repro.analysis.hunt import evaluate, scan

    program = compile_source(RACY_SOURCE, name="bench_hunt")
    pinball = record_region(program,
                            RandomScheduler(seed=1, switch_prob=0.3),
                            RegionSpec(), rand_seed=1)
    _races, candidates, ctx = scan(pinball, program, budget=8,
                                   profile_seeds=2)
    evaluate(program, candidates, ctx)   # warm

    def fleet():
        evaluate(program, candidates, ctx)

    elapsed = _best(fleet, REPEATS)
    return {
        "phase": "fleet_rate",
        "workload": "bench_hunt",
        "candidates": len(candidates),
        "wall_time_sec": elapsed,
        "candidates_per_sec_per_worker": len(candidates) / elapsed,
        "bar": RATE_BAR,
    }


def test_perf_hunt():
    online = _bench_online_detection()
    fleet = _bench_fleet_rate()

    report = {
        "schema_version": 1,
        "smoke": SMOKE,
        "units": UNITS,
        "phases": [online, fleet],
        "bars": {"online_ratio_max": ONLINE_BAR,
                 "candidates_per_sec_per_worker_min": RATE_BAR},
    }
    path = os.path.abspath(BENCH_PATH)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    record_table(
        "hunt",
        "Bug firehose: online detection tax + fleet rate",
        ["phase", "workload", "untraced_sec", "online_sec", "ratio",
         "candidates", "candidates_per_sec_per_worker", "bar"],
        [online, fleet],
        notes="online pass over %d steps; fleet evaluates %d candidate "
              "schedules in-process (one worker)"
              % (online["steps"], fleet["candidates"]))

    print("\nonline detection %.4fs vs untraced %.4fs — %.3fx median of "
          "%d pair ratios (bar %.1fx; best-over-best %.3fx)"
          % (online["online_sec"], online["untraced_sec"],
             online["ratio"], online["pairs"], ONLINE_BAR,
             online["best_over_best"]))
    print("hunt fleet %.1f candidate schedules/sec/worker (bar %.1f)"
          % (fleet["candidates_per_sec_per_worker"], RATE_BAR))
    print("wrote %s" % path)

    assert online["ratio"] <= ONLINE_BAR, (
        "online race detection is %.3fx untraced replay (bar %.2fx)"
        % (online["ratio"], ONLINE_BAR))
    assert fleet["candidates_per_sec_per_worker"] >= RATE_BAR, (
        "hunt fleet evaluates %.1f candidate schedules/sec/worker "
        "(bar %.1f)"
        % (fleet["candidates_per_sec_per_worker"], RATE_BAR))
