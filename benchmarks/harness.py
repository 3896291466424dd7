"""Measurement routines shared by the per-table/figure benchmarks.

Each function reproduces one experiment's methodology from the paper's
Section 7, scaled for the interpreted substrate (regions of thousands to
tens of thousands of instructions instead of millions to a billion; the
scaling factor is uniform, so shapes — growth with region length, ratios
between configurations, who wins — are preserved).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.lang import compile_source
from repro.pinplay import Pinball, RegionSpec, record_region, relog, replay
from repro.slicing import SliceOptions, SlicingSession
from repro.vm import Machine, RandomScheduler, RoundRobinScheduler
from repro.workloads import get_bug, get_parsec, get_specomp


def timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def measure_peak_alloc(fn, *args, **kwargs):
    """Run ``fn`` and return ``(result, peak_alloc_bytes)``.

    Peak *Python-heap* allocation during the call, via ``tracemalloc`` —
    a deterministic stand-in for peak-RSS deltas, which on a shared
    runner are polluted by allocator reuse and page-cache noise.  Used by
    the streamed-record flatness assertion (BENCH_pinball), the
    peak-alloc column of BENCH_slicequery rows and the reexec memory bar
    (BENCH_reexec).  Process RSS is perfbench's ``peak_rss_mb``.
    """
    import gc
    import tracemalloc
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


# ---------------------------------------------------------------------------
# Parallel-speedup bar gating (used by the parallel serve benchmarks)
# ---------------------------------------------------------------------------

def available_cpus() -> int:
    """CPUs actually usable by this process (affinity-aware).

    ``os.cpu_count()`` reports the host's cores; a containerized CI
    runner pinned to one core must not be held to multi-core speedup
    bars, so parallel benchmarks gate on the affinity mask instead.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def check_parallel_bar(label: str, speedup: float, bar: float, *,
                       cpus_required: int = 4, smoke: bool = False,
                       cpus: Optional[int] = None) -> None:
    """Assert a parallelism speedup bar, degrading gracefully.

    The bar is only meaningful when there are cores to parallelize on:
    in smoke mode (``REPRO_PERF_SMOKE=1``, noisy shared runners) or on
    machines with fewer than ``cpus_required`` usable CPUs the measured
    ratio is printed but not asserted — correctness of the parallel
    build is asserted separately, in every mode, by the caller.
    """
    cpus = available_cpus() if cpus is None else cpus
    if smoke:
        print("(%s: %.2fx measured; smoke mode, %.1fx bar not asserted)"
              % (label, speedup, bar))
        return
    if cpus < cpus_required:
        print("(%s: %.2fx measured on %d CPU(s); %.1fx bar needs >= %d "
              "CPUs)" % (label, speedup, cpus, bar, cpus_required))
        return
    assert speedup >= bar, (
        "%s only %.2fx (bar: %.1fx on %d CPUs)"
        % (label, speedup, bar, cpus))


# ---------------------------------------------------------------------------
# Closed-loop load (the serve benchmarks)
# ---------------------------------------------------------------------------

def closed_loop(callers: Sequence[Callable], requests: Sequence
                ) -> Tuple[float, List[Optional[float]],
                           List[Tuple[int, Exception]]]:
    """Send every request once, through one thread per caller.

    Each thread takes the next request of the shared list, passes it to
    its own caller and takes another only once that call returned or
    raised, so offered load tracks service capacity.  Returns the wall
    time, each request's latency in seconds (``None`` where its call
    raised) and the ``(request index, exception)`` of each call that
    raised.
    """
    latencies: List[Optional[float]] = [None] * len(requests)
    errors: List[Tuple[int, Exception]] = []
    cursor = iter(range(len(requests)))
    cursor_lock = threading.Lock()

    def run(call: Callable) -> None:
        while True:
            with cursor_lock:
                index = next(cursor, None)
            if index is None:
                return
            started = time.perf_counter()
            try:
                call(requests[index])
            except Exception as exc:   # noqa: BLE001 — the caller counts
                errors.append((index, exc))
                continue
            latencies[index] = time.perf_counter() - started

    threads = [threading.Thread(target=run, args=(call,), daemon=True)
               for call in callers]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started, latencies, errors


# ---------------------------------------------------------------------------
# Tables 2 and 3: the three data-race bugs
# ---------------------------------------------------------------------------

def measure_bug(name: str, whole_program: bool,
                warmup: int) -> Tuple[dict, Pinball, "object"]:
    """One row of Table 2 (buggy region) or Table 3 (whole program).

    Columns mirror the paper: executed instructions, instructions in the
    slice pinball (absolute and %), logging time and space, replay time,
    slicing time.
    """
    workload = get_bug(name)
    program = workload.build(warmup=warmup)

    # Expose the failure (not part of the timed pipeline).
    _probe, seed = workload.expose(program, seeds=range(64))
    if _probe is None:
        raise RuntimeError("bug %s did not manifest" % name)

    region = RegionSpec()
    if not whole_program:
        skip = workload.buggy_region_skip(program, seed)
        region = RegionSpec(skip=skip)

    scheduler = RandomScheduler(seed=seed, switch_prob=workload.switch_prob)
    pinball, logging_time = timed(
        record_region, program, scheduler, region)
    assert pinball.meta["failure"] is not None, "region lost the failure"
    space_bytes = pinball.size_bytes()

    _replayed, replay_time = timed(replay, pinball, program)

    session = SlicingSession(pinball, program)
    dslice, slicing_time = timed(
        session.slice_for, session.failure_criterion())
    slice_pb = session.make_slice_pinball(dslice)
    kept = slice_pb.meta["kept_instructions"]
    total = pinball.total_instructions

    row = {
        "program": name,
        "executed_instructions": total,
        "slice_pinball_instructions": kept,
        "slice_pinball_pct": round(100.0 * kept / total, 2),
        "logging_time_sec": logging_time,
        "space_bytes": space_bytes,
        "replay_time_sec": replay_time,
        "slicing_time_sec": slicing_time + session.trace_time,
    }
    return row, pinball, program


# ---------------------------------------------------------------------------
# Figures 11, 12: PARSEC logging and replay times vs region length
# ---------------------------------------------------------------------------

def units_for_length(kernel_name: str, target_length: int,
                     nthreads: int = 4) -> int:
    """Calibrate the kernel's ``units`` for a main-thread region length."""
    kernel = get_parsec(kernel_name)
    probe_units = 20
    program = kernel.build(units=probe_units, nthreads=nthreads)
    machine = Machine(program, scheduler=RoundRobinScheduler(25))
    machine.run(max_steps=2_000_000)
    per_unit = machine.threads[0].instr_count / probe_units
    return max(1, int(target_length / per_unit))


def measure_parsec_region(kernel_name: str, length: int,
                          nthreads: int = 4,
                          seed: int = 7) -> dict:
    """Log then replay one region: a point on Figures 11 and 12."""
    kernel = get_parsec(kernel_name)
    units = units_for_length(kernel_name, int(length * 1.5), nthreads)
    program = kernel.build(units=units, nthreads=nthreads)
    scheduler = RandomScheduler(seed=seed, switch_prob=0.05)
    region = RegionSpec(skip=50, length=length)

    pinball, logging_time = timed(record_region, program, scheduler, region)
    _machine, replay_time = timed(replay, pinball, program)

    return {
        "kernel": kernel_name,
        "kind": kernel.kind,
        "length_main": length,
        "total_instructions": pinball.total_instructions,
        "logging_time_sec": logging_time,
        "replay_time_sec": replay_time,
        "pinball_bytes": pinball.size_bytes(),
        "_pinball": pinball,
        "_program": program,
    }


# ---------------------------------------------------------------------------
# Figure 13: save/restore pruning on SPECOMP kernels
# ---------------------------------------------------------------------------

def measure_pruning(kernel_name: str, length: int, slices: int = 10,
                    max_save: int = 10) -> dict:
    """Average slice-size reduction from save/restore pruning."""
    kernel = get_specomp(kernel_name)
    units = max(1, int(length / 95))     # ~95 main instrs per unit
    program = kernel.build(units=units)
    pinball = record_region(
        program, RandomScheduler(seed=3, switch_prob=0.05),
        RegionSpec(skip=20, length=length))

    pruned_session = SlicingSession(
        pinball, program, SliceOptions(prune_save_restore=True,
                                       max_save=max_save))
    unpruned_session = SlicingSession(
        pinball, program, SliceOptions(prune_save_restore=False))

    criteria = pruned_session.last_reads(slices)
    reductions = []
    pruned_sizes = []
    unpruned_sizes = []
    for criterion in criteria:
        pruned = pruned_session.slice_for(criterion)
        unpruned = unpruned_session.slice_for(criterion)
        pruned_sizes.append(len(pruned))
        unpruned_sizes.append(len(unpruned))
        if len(unpruned):
            reductions.append(100.0 * (len(unpruned) - len(pruned))
                              / len(unpruned))
    return {
        "kernel": kernel_name,
        "length_main": length,
        "slices": len(criteria),
        "avg_unpruned_size": round(
            sum(unpruned_sizes) / len(unpruned_sizes), 1),
        "avg_pruned_size": round(sum(pruned_sizes) / len(pruned_sizes), 1),
        "avg_reduction_pct": round(sum(reductions) / len(reductions), 2)
        if reductions else 0.0,
        "verified_pairs": pruned_session.collector.save_restore.pair_count,
    }


# ---------------------------------------------------------------------------
# Figure 14: execution-slice replay vs full-region replay
# ---------------------------------------------------------------------------

def measure_exec_slice(kernel_name: str, length: int, slices: int = 5,
                       nthreads: int = 4) -> dict:
    """Replay time of slice pinballs vs the full region pinball."""
    kernel = get_parsec(kernel_name)
    units = units_for_length(kernel_name, int(length * 1.5), nthreads)
    program = kernel.build(units=units, nthreads=nthreads)
    pinball = record_region(
        program, RandomScheduler(seed=11, switch_prob=0.05),
        RegionSpec(skip=50, length=length))

    _machine, full_replay_time = timed(replay, pinball, program)

    session = SlicingSession(pinball, program)
    criteria = session.last_reads(slices)
    slice_times = []
    slice_fracs = []
    for criterion in criteria:
        dslice = session.slice_for(criterion)
        slice_pb = session.make_slice_pinball(dslice)
        kept = slice_pb.meta["kept_instructions"]
        slice_fracs.append(100.0 * kept / pinball.total_instructions)
        _m, slice_replay_time = timed(
            replay, slice_pb, program, verify=False)
        slice_times.append(slice_replay_time)

    avg_slice_time = sum(slice_times) / len(slice_times)
    return {
        "kernel": kernel_name,
        "length_main": length,
        "region_instructions": pinball.total_instructions,
        "full_replay_sec": full_replay_time,
        "avg_slice_replay_sec": avg_slice_time,
        "avg_slice_instr_pct": round(sum(slice_fracs) / len(slice_fracs), 1),
        "speedup_pct": round(
            100.0 * (full_replay_time - avg_slice_time) / full_replay_time,
            1),
    }


# ---------------------------------------------------------------------------
# Section 7 "Slicing overhead and precision"
# ---------------------------------------------------------------------------

def measure_slicing_overhead(kernel_name: str, length: int,
                             slices: int = 10, nthreads: int = 4) -> dict:
    """Trace-collection time, slice sizes and slicing times (last N reads)."""
    kernel = get_parsec(kernel_name)
    units = units_for_length(kernel_name, int(length * 1.5), nthreads)
    program = kernel.build(units=units, nthreads=nthreads)
    pinball = record_region(
        program, RandomScheduler(seed=5, switch_prob=0.05),
        RegionSpec(skip=50, length=length))

    session = SlicingSession(pinball, program)
    criteria = session.last_reads(slices)
    sizes = []
    times = []
    for criterion in criteria:
        dslice, elapsed = timed(session.slice_for, criterion)
        sizes.append(len(dslice))
        times.append(elapsed)
    return {
        "kernel": kernel_name,
        "length_main": length,
        "region_instructions": pinball.total_instructions,
        "trace_time_sec": session.trace_time,
        "preprocess_time_sec": session.preprocess_time,
        "avg_slice_size": round(sum(sizes) / len(sizes), 1),
        "avg_slice_time_sec": sum(times) / len(times),
        "slices": len(criteria),
    }
