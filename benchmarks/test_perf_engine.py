"""Engine benchmark — predecoded micro-op engine vs the seed interpreter.

Measures steps/sec for the four phases of the DrDebug workflow on
PARSEC-like, SPECOMP-like and pointer-chasing (struct/heap) workloads,
running *both* engines in the same
process so the comparison is apples-to-apples on the same machine state:

* **record** — ``record_region``: the pinball recorder, fed with no
  per-instruction events on either engine (batched on the predecoded
  engine, per step on the legacy one);
* **replay** — untraced pinball replay (no tools: the predecoded engine's
  fast path, the analog of Pin-only speed);
* **trace**  — replay with the slicing tracer attached (traced micro-op
  path feeding the columnar trace store);
* **slice**  — interactive slice queries over the collected trace
  (engine-independent; reported for pipeline totals).

It also times ``Pinball`` deserialization with the trusted constructor
path against the untrusted normalization path (the ``Pinball.load`` win).

The phase wall-times reported by :class:`SlicingSession`
(``trace_time``/``preprocess_time``) are the obs layer's span
measurements, and each workload row carries an ``obs`` block of
per-phase counters (instructions retired, access-order edges, syscalls
injected, memo hits, ...) harvested from the observability registry in a
separate *untimed* instrumented pass — so the timed sections stay
obs-disabled and the report still explains what each phase did.

Results are written to ``BENCH_engine.json`` at the repo root.  In full
mode the run *asserts* the acceptance bars:

* untraced replay ≥ 2.5× steps/sec over the legacy engine;
* end-to-end slicing pipeline (trace + preprocess + slice) ≥ 1.5×.

Set ``REPRO_PERF_SMOKE=1`` (CI) for a reduced-size run that checks the
machinery and writes the JSON but skips the ratio assertions — shared
runners are too noisy for hard perf bars.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_engine.py -q -s
"""

from __future__ import annotations

import gc
import json
import os
import time
from contextlib import contextmanager
from typing import Dict, List

from repro.obs import OBS
from repro.pinplay import (Pinball, RegionSpec, record_region, replay,
                           replay_machine)
from repro.slicing import SliceOptions, SlicingSession
from repro.vm import RandomScheduler
from repro.workloads import get_parsec, get_pointer, get_specomp

from repro.config import perf_smoke

SMOKE = perf_smoke()

#: (suite, kernel, build kwargs) — kept modest so the full benchmark stays
#: under a couple of minutes while still retiring ~10^5 instructions per
#: workload per engine.
if SMOKE:
    WORKLOADS = [
        ("parsec", "blackscholes", {"units": 40, "nthreads": 4}),
        ("pointers", "list_chase", {"units": 25, "nthreads": 4}),
    ]
    REPLAY_REPEATS = 1
    PIPELINE_REPEATS = 1
    LOAD_REPEATS = 5
else:
    WORKLOADS = [
        ("parsec", "blackscholes", {"units": 200, "nthreads": 4}),
        ("parsec", "fluidanimate", {"units": 120, "nthreads": 4}),
        ("specomp", "ammp", {"units": 120}),
        ("specomp", "mgrid", {"units": 80}),
        ("pointers", "list_chase", {"units": 120, "nthreads": 4}),
        ("pointers", "hashchain", {"units": 90, "nthreads": 4}),
    ]
    REPLAY_REPEATS = 3
    PIPELINE_REPEATS = 3
    LOAD_REPEATS = 25

ENGINES = ("legacy", "predecoded")
BENCH_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_engine.json")


@contextmanager
def _quiesced():
    """Collect garbage, then keep the collector out of the timed section."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _build(suite: str, kernel: str, params: dict):
    if suite == "parsec":
        return get_parsec(kernel).build(**params)
    if suite == "pointers":
        return get_pointer(kernel).build(**params)
    return get_specomp(kernel).build(**params)


def _layer_counters() -> Dict[str, int]:
    """The instrumented layers' counters, dropped to the interesting set."""
    return {name: value for name, value in OBS.counters().items()
            if name.split(".", 1)[0] in ("vm", "pinplay", "slicing")}


def _harvest_obs(program, pinball, engine: str, options) -> Dict[str, dict]:
    """Per-phase obs counters from one *untimed* instrumented pass.

    Runs record / untraced replay / the slicing pipeline once each with
    the registry enabled, resetting between phases, so every BENCH row
    can report what its timed twin actually did.  (The registry is
    process-wide: this clears and repopulates it, which is fine for a
    benchmark process.)
    """
    phases: Dict[str, dict] = {}
    with OBS.scope(enabled=True):
        OBS.reset()
        record_region(program, RandomScheduler(seed=7), RegionSpec(),
                      engine=engine)
        phases["record"] = _layer_counters()
        OBS.reset()
        replay(pinball, program, engine=engine, verify=False)
        phases["replay"] = _layer_counters()
        OBS.reset()
        session = SlicingSession(pinball, program, engine=engine,
                                 options=options)
        for criterion in session.last_reads(10):
            session.slice_for(criterion)
        phases["pipeline"] = _layer_counters()
        OBS.reset()
    return phases


def _bench_workload(suite: str, kernel: str, params: dict) -> List[dict]:
    """Benchmark all four phases for one workload, both engines."""
    program = _build(suite, kernel, params)
    rows = []
    for engine in ENGINES:
        # -- record (the recorder, no events) ----------------------------
        with _quiesced():
            started = time.perf_counter()
            pinball = record_region(program, RandomScheduler(seed=7),
                                    RegionSpec(), engine=engine)
            record_time = time.perf_counter() - started
        steps = pinball.total_steps

        # -- untraced replay (fast path) ---------------------------------
        # A first full replay verifies the final-state hash (correctness);
        # the timed runs rebuild the machine *outside* the timer and time
        # only the re-execution loop, so the steps/sec number measures the
        # interpreter, not snapshot deserialization (which is identical
        # for both engines).
        replay(pinball, program, engine=engine, verify=True)
        replay_time = float("inf")
        with _quiesced():
            for _ in range(REPLAY_REPEATS):
                machine = replay_machine(pinball, program, engine=engine)
                started = time.perf_counter()
                machine.run(max_steps=pinball.total_steps)
                replay_time = min(replay_time,
                                  time.perf_counter() - started)

        # -- traced replay + preprocess + slice (the slicing pipeline) ---
        # The legacy row runs the full seed configuration — seed
        # interpreter *and* seed record-per-row trace store — so the
        # pipeline ratio is "new hot path vs. seed baseline" measured in
        # the same process.  Each repeat builds a *fresh* session (cold
        # trace, cold caches); the fastest repeat is reported, which is
        # standard best-of-N noise suppression.
        options = SliceOptions(columnar=(engine == "predecoded"))
        best = None
        for _ in range(PIPELINE_REPEATS):
            with _quiesced():
                session = SlicingSession(pinball, program, engine=engine,
                                         options=options)
                started = time.perf_counter()
                for criterion in session.last_reads(10):
                    session.slice_for(criterion)
                slice_time = time.perf_counter() - started
            pipeline_time = (session.trace_time + session.preprocess_time
                             + slice_time)
            if best is None or pipeline_time < best[0]:
                best = (pipeline_time, session.trace_time,
                        session.preprocess_time, slice_time,
                        session.collector.store.total_records())
        (pipeline_time, trace_time, preprocess_time, slice_time,
         trace_records) = best

        obs_phases = _harvest_obs(program, pinball, engine, options)

        rows.append({
            "suite": suite,
            "kernel": kernel,
            "engine": engine,
            "steps": steps,
            "record_time_sec": record_time,
            "record_steps_per_sec": steps / record_time,
            "replay_time_sec": replay_time,
            "replay_steps_per_sec": steps / replay_time,
            "trace_time_sec": trace_time,
            "trace_steps_per_sec": steps / trace_time,
            "preprocess_time_sec": preprocess_time,
            "slice_time_sec": slice_time,
            "pipeline_time_sec": pipeline_time,
            "trace_records": trace_records,
            "obs": obs_phases,
        })
    return rows


def _bench_pinball_load() -> dict:
    """Time Pinball deserialization: trusted from_dict vs untrusted casts."""
    program = _build("parsec", "blackscholes",
                     {"units": 40 if SMOKE else 150, "nthreads": 4})
    pinball = record_region(program, RandomScheduler(seed=7), RegionSpec())
    blob = pinball.to_bytes()
    payload = json.loads(__import__("zlib").decompress(blob).decode("utf-8"))

    def _untrusted_once() -> Pinball:
        # What load() cost before the trusted path: from_dict's casts AND
        # the constructor's normalization pass over every element again.
        return Pinball(
            program_name=payload["program_name"],
            snapshot=payload["snapshot"],
            schedule=[(int(t), int(c)) for t, c in payload["schedule"]],
            syscalls={int(t): [(e[0], e[1]) for e in log]
                      for t, log in payload["syscalls"].items()},
            mem_order=[tuple(edge) for edge in payload["mem_order"]],
            exclusions=payload.get("exclusions", []),
            meta=payload.get("meta", {}),
            trusted=False,
        )

    blob_v2 = pinball.to_bytes(format="v2")

    trusted = untrusted = lazy_v2 = float("inf")
    for _ in range(LOAD_REPEATS):
        started = time.perf_counter()
        Pinball.from_bytes(blob)
        trusted = min(trusted, time.perf_counter() - started)
        started = time.perf_counter()
        decompressed = json.loads(
            __import__("zlib").decompress(blob).decode("utf-8"))
        del decompressed
        _untrusted_once()
        untrusted = min(untrusted, time.perf_counter() - started)
        # v2 open is a header-only frame scan: no decompression, no JSON
        # parse, no payload CRC work until a section is first touched.
        started = time.perf_counter()
        Pinball.from_bytes(blob_v2)
        lazy_v2 = min(lazy_v2, time.perf_counter() - started)
    sched = len(pinball.schedule)
    return {
        "schedule_entries": sched,
        "mem_order_edges": len(pinball.mem_order),
        "load_trusted_sec": trusted,
        "load_untrusted_sec": untrusted,
        "load_speedup": untrusted / trusted if trusted else 0.0,
        "load_v2_sec": lazy_v2,
        "load_v2_speedup": untrusted / lazy_v2 if lazy_v2 else 0.0,
    }


def _totals(rows: List[dict]) -> Dict[str, dict]:
    out: Dict[str, dict] = {}
    for engine in ENGINES:
        mine = [r for r in rows if r["engine"] == engine]
        steps = sum(r["steps"] for r in mine)
        out[engine] = {
            "steps": steps,
            "record_steps_per_sec":
                steps / sum(r["record_time_sec"] for r in mine),
            "replay_steps_per_sec":
                steps / sum(r["replay_time_sec"] for r in mine),
            "trace_steps_per_sec":
                steps / sum(r["trace_time_sec"] for r in mine),
            "pipeline_time_sec": sum(r["pipeline_time_sec"] for r in mine),
        }
    return out


def test_perf_engine():
    rows: List[dict] = []
    for suite, kernel, params in WORKLOADS:
        rows.extend(_bench_workload(suite, kernel, params))
    totals = _totals(rows)
    load_stats = _bench_pinball_load()

    replay_speedup = (totals["predecoded"]["replay_steps_per_sec"]
                      / totals["legacy"]["replay_steps_per_sec"])
    record_speedup = (totals["predecoded"]["record_steps_per_sec"]
                      / totals["legacy"]["record_steps_per_sec"])
    trace_speedup = (totals["predecoded"]["trace_steps_per_sec"]
                     / totals["legacy"]["trace_steps_per_sec"])
    pipeline_speedup = (totals["legacy"]["pipeline_time_sec"]
                        / totals["predecoded"]["pipeline_time_sec"])

    report = {
        "schema_version": 2,      # 2: rows carry per-phase "obs" counters
        "smoke": SMOKE,
        "workloads": rows,
        "totals": totals,
        "speedups": {
            "replay_untraced": replay_speedup,
            "record": record_speedup,
            "trace": trace_speedup,
            "slicing_pipeline": pipeline_speedup,
        },
        "pinball_load": load_stats,
    }
    path = os.path.abspath(BENCH_PATH)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    print("\nengine speedups (predecoded vs legacy): "
          "replay %.2fx  record %.2fx  trace %.2fx  pipeline %.2fx  "
          "pinball-load %.2fx (v2 lazy open %.2fx)"
          % (replay_speedup, record_speedup, trace_speedup,
             pipeline_speedup, load_stats["load_speedup"],
             load_stats["load_v2_speedup"]))
    print("wrote %s" % path)

    # Both engines must agree on work done — a wildly different step count
    # would mean the comparison measured different executions.
    for suite, kernel, _params in WORKLOADS:
        mine = [r for r in rows if r["kernel"] == kernel]
        assert len({r["steps"] for r in mine}) == 1, (
            "engines disagree on steps for %s" % kernel)

    if not SMOKE:
        assert replay_speedup >= 2.5, (
            "untraced replay speedup %.2fx below the 2.5x bar"
            % replay_speedup)
        assert pipeline_speedup >= 1.5, (
            "slicing pipeline speedup %.2fx below the 1.5x bar"
            % pipeline_speedup)
