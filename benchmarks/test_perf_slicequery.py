"""Slice-query throughput — build-once dependence index vs per-query scans.

The paper's cyclic-debugging workflow (Figure 4) replays a region pinball
once and then answers **many** interactive slice queries against the same
trace.  This benchmark measures that regime directly: for each workload
the trace is collected once, then a 50-query session (criteria cycled
from the last 10 memory reads, the paper's slicing-overhead experiment —
queries repeat, exactly as they do when a developer re-examines the same
failure neighborhood) runs under each index engine over the *same*
merged global trace:

* ``"ddg"``       — one O(|trace| + |edges|) pass compiles the CSR
  dependence graph, then queries are memoized int-array traversals;
* ``"columnar"``  — per-query backward scan with LP block skipping;
* ``"rows"``      — per-query backward scan over materialized records.

Per engine the benchmark reports build cost (DDG compilation / LP block
summaries) and query throughput separately, plus the DDG memo hit rates
that explain the amortization.  Each row also carries an ``obs`` block —
the slicing-layer counters (BFS visits, memo hits/misses, scanned
records, skipped blocks) harvested from the observability registry in an
*untimed* instrumented re-run of the same query mix, so the timed
sections stay obs-disabled.  Results go to ``BENCH_slicequery.json``
at the repo root.  In full mode the run *asserts* the acceptance bar:

* DDG aggregate session cost (build + 50 queries) ≥ 5× cheaper than the
  per-query columnar backward scan.

Set ``REPRO_PERF_SMOKE=1`` (CI) for a reduced-size run that checks the
machinery and writes the JSON but skips the ratio assertion — shared
runners are too noisy for hard perf bars.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_slicequery.py -q -s
"""

from __future__ import annotations

import gc
import json
import os
import time
from contextlib import contextmanager
from typing import Dict, List

from repro.obs import OBS
from repro.pinplay import RegionSpec, record_region
from repro.slicing import BackwardSlicer, SliceOptions, SlicingSession
from repro.vm import RandomScheduler
from repro.workloads import get_parsec, get_pointer, get_specomp

from repro.config import perf_smoke

from benchmarks.harness import measure_peak_alloc

SMOKE = perf_smoke()

if SMOKE:
    WORKLOADS = [
        ("parsec", "blackscholes", {"units": 40, "nthreads": 4}),
        ("pointers", "list_chase", {"units": 25, "nthreads": 4}),
    ]
    REPEATS = 1
else:
    WORKLOADS = [
        ("parsec", "blackscholes", {"units": 200, "nthreads": 4}),
        ("parsec", "fluidanimate", {"units": 120, "nthreads": 4}),
        ("specomp", "ammp", {"units": 120}),
        ("specomp", "mgrid", {"units": 80}),
        ("pointers", "list_chase", {"units": 120, "nthreads": 4}),
        ("pointers", "tree_sum", {"units": 60, "nthreads": 4}),
    ]
    REPEATS = 5

INDEXES = ("ddg", "columnar", "rows")
#: The cyclic-debugging query mix: 50 queries cycled over the last 10
#: memory reads — the paper's slicing-overhead experiment slices "the
#: last 10 read instructions", and a cyclic session re-examines that same
#: failure neighborhood over and over.  The scans pay the full backward
#: walk on every repeat; the index answers repeats from its memos, which
#: is exactly the amortization this benchmark measures.
CRITERIA = 10
QUERIES = 50
BENCH_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_slicequery.json")


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


def _bench_workload(suite: str, kernel: str, params: dict) -> List[dict]:
    """Trace once; run the 50-query session under every index engine."""
    program = _build(suite, kernel, params)
    pinball = record_region(program, RandomScheduler(seed=7), RegionSpec())
    # One traced replay serves every engine: the index engines differ only
    # in how they answer queries over the same merged global trace.
    session = SlicingSession(pinball, program,
                             options=SliceOptions(index="columnar"))
    restores = session.collector.save_restore.verified
    criteria = session.last_reads(CRITERIA)
    queries = [criteria[i % len(criteria)] for i in range(QUERIES)]

    # Correctness gate: all engines agree before anything is timed.
    reference = {}
    for index in INDEXES:
        slicer = BackwardSlicer(session.gtrace, verified_restores=restores,
                                options=SliceOptions(index=index))
        for criterion in criteria[:3]:
            nodes = frozenset(slicer.slice(criterion).nodes)
            if (criterion in reference
                    and reference[criterion] != nodes):
                raise AssertionError(
                    "index %r disagrees on %s criterion %r"
                    % (index, kernel, criterion))
            reference[criterion] = nodes

    # Repeats are interleaved across engines (engine A repeat 1, engine B
    # repeat 1, ..., engine A repeat 2, ...) so slowly-varying machine
    # noise hits every engine alike; best-of-N per engine then compares
    # each engine's quiet window.  Every repeat builds a *fresh* slicer —
    # cold index, cold memos.
    best: Dict[str, tuple] = {}
    for _ in range(REPEATS):
        for index in INDEXES:
            with _quiesced():
                started = time.perf_counter()
                slicer = BackwardSlicer(
                    session.gtrace, verified_restores=restores,
                    options=SliceOptions(index=index))
                if index == "ddg":
                    slicer.ddg            # force the one-shot compilation
                build_time = time.perf_counter() - started
                started = time.perf_counter()
                for criterion in queries:
                    slicer.slice(criterion)
                query_time = time.perf_counter() - started
            total = build_time + query_time
            if index not in best or total < best[index][0]:
                best[index] = (total, build_time, query_time,
                               slicer.index_stats())
    # Untimed peak-memory measurement of the same session per engine:
    # what the index itself costs — CSR arrays and memo tables for the
    # DDG, block summaries for the scans — as peak Python-heap
    # allocation (deterministic, tracemalloc).
    peak_alloc: Dict[str, int] = {}
    for index in INDEXES:
        def _session(index=index):
            slicer = BackwardSlicer(session.gtrace,
                                    verified_restores=restores,
                                    options=SliceOptions(index=index))
            for criterion in queries:
                slicer.slice(criterion)
        _, peak_alloc[index] = measure_peak_alloc(_session)

    # Untimed instrumented re-run of the same query mix per engine: the
    # slicing-layer counters that explain the timings above.
    obs_stats: Dict[str, Dict[str, int]] = {}
    with OBS.scope(enabled=True):
        for index in INDEXES:
            OBS.reset()
            slicer = BackwardSlicer(session.gtrace,
                                    verified_restores=restores,
                                    options=SliceOptions(index=index))
            for criterion in queries:
                slicer.slice(criterion)
            obs_stats[index] = {
                name: value for name, value in OBS.counters().items()
                if name.startswith("slicing.")}
        OBS.reset()

    rows = []
    for index in INDEXES:
        total, build_time, query_time, stats = best[index]
        rows.append({
            "suite": suite,
            "kernel": kernel,
            "index": index,
            "trace_records": session.collector.store.total_records(),
            "queries": QUERIES,
            "build_time_sec": build_time,
            "query_time_sec": query_time,
            "total_time_sec": total,
            "queries_per_sec": QUERIES / query_time if query_time else 0.0,
            "edge_count": stats["edge_count"],
            "slice_cache_hits": stats["slice_cache_hits"],
            "closure_memo_hits": stats["closure_memo_hits"],
            "peak_alloc_bytes": peak_alloc[index],
            "obs": obs_stats[index],
        })
    return rows


def _totals(rows: List[dict]) -> Dict[str, dict]:
    out: Dict[str, dict] = {}
    for index in INDEXES:
        mine = [r for r in rows if r["index"] == index]
        query_time = sum(r["query_time_sec"] for r in mine)
        out[index] = {
            "build_time_sec": sum(r["build_time_sec"] for r in mine),
            "query_time_sec": query_time,
            "total_time_sec": sum(r["total_time_sec"] for r in mine),
            "queries_per_sec": (sum(r["queries"] for r in mine) / query_time
                                if query_time else 0.0),
        }
    return out


def test_perf_slicequery():
    rows: List[dict] = []
    for suite, kernel, params in WORKLOADS:
        rows.extend(_bench_workload(suite, kernel, params))
    totals = _totals(rows)

    speedups = {
        "session_vs_columnar": (totals["columnar"]["total_time_sec"]
                                / totals["ddg"]["total_time_sec"]),
        "session_vs_rows": (totals["rows"]["total_time_sec"]
                            / totals["ddg"]["total_time_sec"]),
        "query_vs_columnar": (totals["columnar"]["query_time_sec"]
                              / totals["ddg"]["query_time_sec"]),
    }
    report = {
        "schema_version": 4,      # 4: rows drop peak_rss_bytes
        "smoke": SMOKE,
        "queries_per_workload": QUERIES,
        "distinct_criteria": CRITERIA,
        "workloads": rows,
        "totals": totals,
        "speedups": speedups,
    }
    path = os.path.abspath(BENCH_PATH)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    print("\nslice-query session speedups (ddg vs scans, build + %d "
          "queries): columnar %.2fx  rows %.2fx  (query-only vs columnar "
          "%.2fx)" % (QUERIES, speedups["session_vs_columnar"],
                      speedups["session_vs_rows"],
                      speedups["query_vs_columnar"]))
    print("wrote %s" % path)

    if not SMOKE:
        assert speedups["session_vs_columnar"] >= 5.0, (
            "ddg session speedup %.2fx below the 5x bar over the "
            "per-query columnar scan" % speedups["session_vs_columnar"])
