"""Debug-service throughput — parallel workers and the resident-session LRU.

DrDebug's economics are record once, query many: a team attaches clients
to one resident service and issues slice queries against a shared
repository of recordings.  This benchmark measures the two levers the
service adds over the single-process CLI:

* **Pool parallelism** — a closed loop of client threads drives one
  slice query per stored recording (cold pool: every query pays a full
  traced replay + DDG build) against a 1-worker and a 4-worker pool.
  Session builds are CPU-bound and independent, so the 4-worker pool
  should finish the same request mix materially faster.
* **Session residency** — the same repeated query against a 1-worker
  pool with the index LRU enabled (hot: answered from the resident
  session's memoized DDG) vs disabled (cold: rebuild per query).
* **Large-slice render** — on a cycle-size recording (blackscholes, 150
  units, 4 threads; about 5*10^4 steps), the p90 slice over the final
  instance of each (thread, line): the hot ``WorkerPool.call`` median,
  and in process the served path (``slice_payload_bytes``, its pickle
  round trip and the node's splice) against the reference path
  (``slice_payload``, its pickle round trip and ``encode_message``),
  timed in alternating pairs.

Every timed phase starts from the same empty index cache (the store's
``indexes/`` blobs), so the 4-worker phase builds what the 1-worker
phase built, instead of warm-starting from it.  Each phase carries an
``obs`` block, with its index-cache hits and misses, harvested from an
*untimed* instrumented re-run from that same empty cache (workers
started with the observability registry enabled), so the timed
sections stay obs-free.  Results go to
``BENCH_serve.json`` at the repo root.  In full mode the run asserts
the acceptance bars:

* 4-worker closed-loop throughput ≥ 2× the 1-worker pool;
* hot (LRU) per-query cost ≥ 5× cheaper than cold rebuilds;
* the served render path costs at most a third of the reference path.

Set ``REPRO_PERF_SMOKE=1`` (CI) for a reduced-size run that checks the
machinery and writes the JSON but skips the ratio assertions — shared
runners are too noisy for hard perf bars.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_serve.py -q -s
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import shutil
import statistics
import time
from contextlib import contextmanager
from typing import Dict, List

from repro.pinplay import RegionSpec, record_region
from repro.serve import PinballStore, WorkerPool, rpc
from repro.serve.sessions import slice_payload, slice_payload_bytes
from repro.slicing import SlicingSession
from repro.vm import RandomScheduler
from repro.workloads import get_parsec, get_specomp

from repro.config import perf_smoke

from benchmarks.harness import (available_cpus, check_parallel_bar,
                                closed_loop)

SMOKE = perf_smoke()
CPUS = available_cpus()

#: Kernel rotation for the recording corpus; ``units`` is bumped per
#: instance so every stored recording is a distinct program (distinct
#: content keys, distinct sessions — a genuinely cold build each).
if SMOKE:
    RECORDINGS = 6
    CLIENTS = 4
    HOT_QUERIES = 6
    KERNELS = [("parsec", "blackscholes", {"units": 20, "nthreads": 2})]
    LARGE = {"units": 20, "nthreads": 2}
    RENDER_REPEATS = 3
else:
    RECORDINGS = 20
    CLIENTS = 8
    HOT_QUERIES = 20
    KERNELS = [
        ("parsec", "blackscholes", {"units": 120, "nthreads": 4}),
        ("parsec", "fluidanimate", {"units": 80, "nthreads": 4}),
        ("specomp", "ammp", {"units": 80}),
        ("specomp", "mgrid", {"units": 60}),
    ]
    LARGE = {"units": 150, "nthreads": 4}
    RENDER_REPEATS = 9

WORKER_COUNTS = (1, 4)
BENCH_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_serve.json")


@contextmanager
def _quiesced():
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _kernel_source(index: int):
    """The ``index``-th corpus entry: (name, MiniC source text)."""
    suite, kernel, params = KERNELS[index % len(KERNELS)]
    workload = (get_parsec(kernel) if suite == "parsec"
                else get_specomp(kernel))
    # Distinct size per instance -> distinct program -> distinct key.
    sized = dict(params, units=params["units"] + 2 * (index // len(KERNELS)))
    name = "%s-%d" % (kernel, index)
    return name, workload.source(**sized)


def _build_corpus(root: str):
    """Populate the store with RECORDINGS sized kernel workloads.

    Returns one request descriptor per recording: the content keys plus
    an explicit slice criterion (the recording's last memory read — the
    kernels run to completion, so there is no failure to default to).
    """
    from repro.lang import compile_source

    store = PinballStore(root)
    requests = []
    for index in range(RECORDINGS):
        name, source = _kernel_source(index)
        program = compile_source(source, name=name)
        pinball = record_region(program, RandomScheduler(seed=index),
                                RegionSpec())
        source_sha = store.put_source(source, name, tags=("bench",))
        pinball_sha = store.put_pinball(
            pinball, tags=("bench",),
            meta={"source_sha": source_sha, "program_name": name})
        session = SlicingSession(pinball, program)
        criterion = session.last_reads(1)[0]
        requests.append({
            "pinball": pinball_sha,
            "source": source_sha,
            "program_name": name,
            "criterion": list(criterion),
        })
    return requests


def _warm_processes(pool: WorkerPool) -> None:
    """One ping per worker: pays interpreter start + module imports.

    The benchmark compares *session build* parallelism, not Python
    import latency, so process warm-up stays outside the timed window.
    (``_execute`` performs its imports on every op, so a ping is enough.)
    """
    for worker in range(pool.workers):
        pool.call("ping", {}, worker=worker, timeout=600)


def _closed_loop(pool: WorkerPool, requests: List[dict],
                 clients: int) -> float:
    """Drive every request once through ``clients`` closed-loop threads
    (:func:`~benchmarks.harness.closed_loop`); returns the wall time."""

    def call(request: dict) -> None:
        # No affinity key: every request is a distinct cold recording,
        # so least-loaded routing measures build parallelism without
        # hash-bucket imbalance noise.
        pool.call("slice", dict(request), timeout=600)

    with _quiesced():
        elapsed, _latencies, errors = closed_loop([call] * clients,
                                                  requests)
    if errors:
        raise errors[0][1]
    return elapsed


def _worker_obs(pool: WorkerPool) -> Dict[str, int]:
    """Summed serve.* counters across the pool's workers."""
    totals: Dict[str, int] = {}
    for worker in pool.worker_stats():
        for name, value in worker.get("counters", {}).items():
            totals[name] = totals.get(name, 0) + value
    return totals


def _empty_index_cache(root: str) -> None:
    """Drop the store's derived index blobs: every phase (and its obs
    re-run) starts from the same empty cache, so no phase warm-starts
    from indexes an earlier one built."""
    shutil.rmtree(PinballStore(root).index_root, ignore_errors=True)


def _index_cache_counts(obs: Dict[str, int]) -> Dict[str, int]:
    return {"hits": obs.get("index_cache.hits", 0),
            "misses": obs.get("index_cache.misses", 0)}


def _bench_throughput(root: str, requests: List[dict]) -> List[dict]:
    """Phase 1: cold-pool closed-loop throughput, 1 vs 4 workers."""
    rows = []
    for workers in WORKER_COUNTS:
        _empty_index_cache(root)
        with WorkerPool(root, workers=workers, queue_limit=256,
                        default_timeout=600,
                        lru_entries=RECORDINGS) as pool:
            _warm_processes(pool)
            elapsed = _closed_loop(pool, requests, CLIENTS)
            counts = pool.stats()
        # Untimed instrumented re-run for the obs block.
        _empty_index_cache(root)
        with WorkerPool(root, workers=workers, queue_limit=256,
                        default_timeout=600, lru_entries=RECORDINGS,
                        obs=True) as pool:
            _closed_loop(pool, requests, CLIENTS)
            obs = _worker_obs(pool)
        rows.append({
            "phase": "throughput",
            "workers": workers,
            "clients": CLIENTS,
            "requests": len(requests),
            "wall_time_sec": elapsed,
            "requests_per_sec": len(requests) / elapsed,
            "pool_counts": counts,
            "index_cache": _index_cache_counts(obs),
            "obs": obs,
        })
    return rows


def _bench_session_cache(root: str, requests: List[dict]) -> List[dict]:
    """Phase 2: repeated query, resident session (hot) vs rebuild (cold)."""
    request = requests[0]
    rows = []
    for mode, lru_entries in (("hot", 4), ("cold", 0)):
        _empty_index_cache(root)
        with WorkerPool(root, workers=1, queue_limit=64,
                        default_timeout=600,
                        lru_entries=lru_entries) as pool:
            # One untimed warm-up: in hot mode this builds the resident
            # session; in cold mode it only warms the process itself.
            _warm_processes(pool)
            pool.call("slice", dict(request), key=request["pinball"],
                      timeout=600)
            with _quiesced():
                started = time.perf_counter()
                for _ in range(HOT_QUERIES):
                    pool.call("slice", dict(request),
                              key=request["pinball"], timeout=600)
                elapsed = time.perf_counter() - started
        _empty_index_cache(root)
        with WorkerPool(root, workers=1, queue_limit=64,
                        default_timeout=600, lru_entries=lru_entries,
                        obs=True) as pool:
            for _ in range(3):
                pool.call("slice", dict(request), key=request["pinball"],
                          timeout=600)
            obs = _worker_obs(pool)
        rows.append({
            "phase": "session_cache",
            "mode": mode,
            "lru_entries": lru_entries,
            "queries": HOT_QUERIES,
            "wall_time_sec": elapsed,
            "sec_per_query": elapsed / HOT_QUERIES,
            "index_cache": _index_cache_counts(obs),
            "obs": obs,
        })
    return rows


def _median_ms(fn, repeats: int) -> float:
    samples = []
    with _quiesced():
        for _ in range(repeats):
            started = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1000.0


def _paired_ms(first, second, repeats: int):
    """Median ms of each of two calls timed in alternating pairs, and the
    median of the per-pair ratios first/second (robust to the machine's
    speed drifting between the two sides)."""
    times = ([], [])
    ratios = []
    with _quiesced():
        for index in range(repeats):
            order = (0, 1) if index % 2 else (1, 0)
            for side in order:
                started = time.perf_counter()
                (first, second)[side]()
                times[side].append(time.perf_counter() - started)
            ratios.append(times[0][-1] / times[1][-1])
    return (statistics.median(times[0]) * 1000.0,
            statistics.median(times[1]) * 1000.0,
            statistics.median(ratios))


def _bench_large_slice(root: str) -> dict:
    """Phase 3: one large slice through the pool, and its render paths
    side by side in process."""
    from repro.lang import compile_source

    source = get_parsec("blackscholes").source(**LARGE)
    program = compile_source(source, name="blackscholes-large")
    pinball = record_region(program,
                            RandomScheduler(seed=1, switch_prob=0.05),
                            RegionSpec())
    session = SlicingSession(pinball, program)
    lines = sorted({instr.line for instr in program.instructions
                    if instr.line is not None})
    criteria = set()
    for line in lines:
        for tid in range(LARGE["nthreads"] + 1):
            try:
                criteria.add(session.last_instance_at_line(line, tid=tid))
            except (LookupError, ValueError):
                continue
    sized = sorted((len(session.slice_for(c)), c) for c in criteria)
    nodes, criterion = sized[int(0.9 * (len(sized) - 1))]
    dslice = session.slice_for(criterion)

    def served():
        rendered = pickle.loads(pickle.dumps(slice_payload_bytes(dslice)))
        return rpc.encode_message(rpc.make_response(1, rendered))

    def reference():
        payload = pickle.loads(pickle.dumps(slice_payload(session, dslice)))
        return rpc.encode_message(rpc.make_response(1, payload))

    line = served()
    assert line == reference()
    served_ms, reference_ms, ratio = _paired_ms(served, reference,
                                                RENDER_REPEATS)

    store = PinballStore(root)
    source_sha = store.put_source(source, program.name, tags=("bench",))
    key = store.put_pinball(pinball, tags=("bench",),
                            meta={"source_sha": source_sha,
                                  "program_name": program.name})
    request = {"pinball": key, "source": source_sha,
               "program_name": program.name, "instance": list(criterion)}
    with WorkerPool(root, workers=1, default_timeout=600) as pool:
        pool.call("slice", dict(request), key=key, timeout=600)
        pool_ms = _median_ms(
            lambda: pool.call("slice", dict(request), key=key, timeout=600),
            RENDER_REPEATS)
    return {
        "phase": "large_slice",
        "kernel": dict(LARGE, name="blackscholes"),
        "steps": pinball.total_steps,
        "nodes": nodes,
        "edges": dslice.stats["edges"],
        "line_bytes": len(line),
        "repeats": RENDER_REPEATS,
        "pool_call_ms": pool_ms,
        "served_render_ms": served_ms,
        "reference_render_ms": reference_ms,
        "render_ratio": ratio,
    }


def test_perf_serve(tmp_path):
    root = str(tmp_path / "store")
    requests = _build_corpus(root)

    throughput = _bench_throughput(root, requests)
    cache = _bench_session_cache(root, requests)
    large = _bench_large_slice(root)

    by_workers = {row["workers"]: row for row in throughput}
    by_mode = {row["mode"]: row for row in cache}
    speedups = {
        "throughput_4_vs_1_workers": (
            by_workers[4]["requests_per_sec"]
            / by_workers[1]["requests_per_sec"]),
        "hot_vs_cold_session": (by_mode["cold"]["sec_per_query"]
                                / by_mode["hot"]["sec_per_query"]),
    }
    report = {
        "schema_version": 2,      # 2: rows carry "obs" counter blocks
        "smoke": SMOKE,
        "cpus": CPUS,
        "recordings": RECORDINGS,
        "clients": CLIENTS,
        "phases": throughput + cache + [large],
        "speedups": speedups,
    }
    path = os.path.abspath(BENCH_PATH)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    print("\nserve speedups: 4-vs-1 workers %.2fx throughput, hot-vs-cold "
          "resident session %.2fx per query"
          % (speedups["throughput_4_vs_1_workers"],
             speedups["hot_vs_cold_session"]))
    print("large slice (%d nodes, %d-byte line): pool call %.1f ms, "
          "render path %.1f ms vs reference %.1f ms (%.2fx)"
          % (large["nodes"], large["line_bytes"], large["pool_call_ms"],
             large["served_render_ms"], large["reference_render_ms"],
             large["render_ratio"]))
    print("wrote %s" % path)

    # Session builds are CPU-bound processes: the parallelism bar only
    # means something when there are cores to parallelize on — the
    # shared gate prints-not-asserts in smoke mode and on small boxes.
    check_parallel_bar("serve 4-vs-1 worker throughput",
                       speedups["throughput_4_vs_1_workers"], 2.0,
                       smoke=SMOKE, cpus=CPUS)
    if not SMOKE:
        assert speedups["hot_vs_cold_session"] >= 5.0, (
            "resident session only %.2fx over rebuild-per-query "
            "(bar: 5x)" % speedups["hot_vs_cold_session"])
        assert large["render_ratio"] <= 1 / 3, (
            "served render path %.1f ms is %.2fx the reference path's "
            "%.1f ms (median of per-pair ratios; bar: 1/3)"
            % (large["served_render_ms"], large["render_ratio"],
               large["reference_render_ms"]))
