"""Pinball format v2 benchmark — streamed recording and O(chunk) rewind.

Three claims of the streaming container, each measured and (in full
mode) asserted:

* **record overhead** — the always-on fast record path, streaming v2
  frames to disk while executing, costs ≤ 1.5× an untraced run of the
  same schedule.  This is the "record everything, always" bar: tracing
  cheap enough to leave on.
* **flat record memory** — peak Python-heap allocation of a streamed
  record is flat in region length (a 4× longer region allocates < 2×
  the peak), because schedule runs and mem-order edges leave the
  process every 4096 entries instead of accumulating until a final JSON
  dump.
* **O(chunk) rewind** — a fresh debugger session's first rewind seeks
  the nearest embedded checkpoint and replays only the suffix, so
  ``seek(total - 10)`` costs the same at region length L and 4L (within
  20%).  This is the ``debugger.resume_distance`` histogram collapsing:
  rewind cost is bounded by the checkpoint interval, not the region.

Results go to ``BENCH_pinball.json`` at the repo root.  Set
``REPRO_PERF_SMOKE=1`` (CI) for a reduced-size run that checks the
machinery and writes the JSON but skips the ratio assertions — shared
runners are too noisy for hard perf bars.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_pinball.py -q -s
"""

from __future__ import annotations

import gc
import json
import os
import tempfile
import time
from contextlib import contextmanager
from typing import Dict

from repro.config import perf_smoke
from repro.debugger import DrDebugSession
from repro.pinplay import Pinball, RegionSpec, record_region
from repro.vm import Machine, RandomScheduler
from repro.workloads import get_parsec

from benchmarks.harness import measure_peak_alloc, units_for_length

SMOKE = perf_smoke()

#: Short and long region lengths (main-thread instructions), 4x apart —
#: the two points every flatness/independence claim is checked between.
LENGTH = 2_000 if SMOKE else 8_000
LENGTH_LONG = 4 * LENGTH
#: Interval for the record-overhead run: a few interior checkpoints per
#: region (the sparse end of the knob's tradeoff — see EXPERIMENTS.md;
#: denser checkpointing buys cheaper rewind at record-time cost).
RECORD_INTERVAL = LENGTH
#: Interval for the rewind/memory runs: dense checkpoints, so the seek
#: suffix stays short and the streamed-out frame count is large enough
#: to make the flat-memory claim meaningful.
REWIND_INTERVAL = 250
REPEATS = 1 if SMOKE else 5
#: Pairs for the record-overhead bar: its untraced side is a ~25 ms run,
#: so it takes the best of 11 and alternates which side of each pair
#: runs first, so that a slow stretch of the box lands on both sides.
OVERHEAD_REPEATS = 1 if SMOKE else 11
KERNEL = "fluidanimate"
SEED = 7
BENCH_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_pinball.json")


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


def _program():
    units = units_for_length(KERNEL, int(LENGTH_LONG * 1.5), nthreads=4)
    return get_parsec(KERNEL).build(units=units, nthreads=4)


def _scheduler():
    return RandomScheduler(seed=SEED, switch_prob=0.05)


def _stream_record(program, length: int, path: str, interval: int) -> Pinball:
    return record_region(program, _scheduler(), RegionSpec(length=length),
                         stream_path=path, pinball_format="v2",
                         checkpoint_interval=interval)


# -- record overhead ----------------------------------------------------------

def _bench_record_overhead(program, workdir: str) -> dict:
    """Streamed v2 record vs an untraced run of the identical schedule."""
    path = os.path.join(workdir, "overhead.pinball")
    _stream_record(program, LENGTH, path, RECORD_INTERVAL)   # warm / predecode
    steps = Pinball.load(path).total_steps

    def run_untraced() -> float:
        machine = Machine(program, scheduler=_scheduler())
        started = time.perf_counter()
        machine.run(max_steps=steps)
        return time.perf_counter() - started

    def run_recorded() -> float:
        started = time.perf_counter()
        _stream_record(program, LENGTH, path, RECORD_INTERVAL)
        return time.perf_counter() - started

    best = {run_untraced: float("inf"), run_recorded: float("inf")}
    for index in range(OVERHEAD_REPEATS):
        pair = ((run_untraced, run_recorded) if index % 2 == 0
                else (run_recorded, run_untraced))
        for run in pair:
            with _quiesced():
                best[run] = min(best[run], run())
    untraced, recorded = best[run_untraced], best[run_recorded]

    return {
        "steps": steps,
        "checkpoint_interval": RECORD_INTERVAL,
        "repeats": OVERHEAD_REPEATS,
        "untraced_sec": untraced,
        "streamed_record_sec": recorded,
        "overhead_x": recorded / untraced,
        "pinball_bytes": os.path.getsize(path),
    }


# -- flat record memory -------------------------------------------------------

def _bench_record_memory(program, workdir: str) -> dict:
    """Peak heap allocation of a streamed record at L and 4L."""
    peaks: Dict[int, int] = {}
    for length in (LENGTH, LENGTH_LONG):
        path = os.path.join(workdir, "rss-%d.pinball" % length)
        _pinball, peak = measure_peak_alloc(
            _stream_record, program, length, path, REWIND_INTERVAL)
        peaks[length] = peak
    return {
        "length_short": LENGTH,
        "length_long": LENGTH_LONG,
        "checkpoint_interval": REWIND_INTERVAL,
        "peak_alloc_short_bytes": peaks[LENGTH],
        "peak_alloc_long_bytes": peaks[LENGTH_LONG],
        "growth_x": peaks[LENGTH_LONG] / peaks[LENGTH],
    }


# -- O(chunk) rewind ----------------------------------------------------------

def _bench_rewind(program, workdir: str) -> dict:
    """Fresh-session late-region seek cost at L and 4L.

    The target sits a fixed distance past the last interior checkpoint
    at *both* lengths, so the replayed suffix is identical work and the
    measured difference is purely what scales with the region: open,
    checkpoint lookup, schedule positioning.
    """
    blobs: Dict[int, bytes] = {}
    for length in (LENGTH, LENGTH_LONG):
        path = os.path.join(workdir, "rewind-%d.pinball" % length)
        _stream_record(program, length, path, REWIND_INTERVAL)
        with open(path, "rb") as handle:
            blobs[length] = handle.read()

    times: Dict[int, float] = {}
    totals: Dict[int, int] = {}
    suffix = REWIND_INTERVAL // 2
    for length, blob in blobs.items():
        best = float("inf")
        for _ in range(max(REPEATS, 7 if not SMOKE else 1)):
            pinball = Pinball.from_bytes(blob)      # fresh lazy open
            totals[length] = pinball.total_steps
            target = ((pinball.total_steps // REWIND_INTERVAL - 1)
                      * REWIND_INTERVAL + suffix)
            with _quiesced():
                session = DrDebugSession(pinball, program)
                session.enable_reverse_debugging(
                    interval=REWIND_INTERVAL)
                started = time.perf_counter()
                session.seek(target)
                best = min(best, time.perf_counter() - started)
            assert session.steps_done == target
        times[length] = best

    ratio = (max(times.values()) / min(times.values())
             if min(times.values()) else 0.0)
    return {
        "length_short": LENGTH,
        "length_long": LENGTH_LONG,
        "total_steps_short": totals[LENGTH],
        "total_steps_long": totals[LENGTH_LONG],
        "checkpoint_interval": REWIND_INTERVAL,
        "seek_short_sec": times[LENGTH],
        "seek_long_sec": times[LENGTH_LONG],
        "ratio_x": ratio,
    }


def test_perf_pinball():
    program = _program()
    with tempfile.TemporaryDirectory(prefix="bench-pinball-") as workdir:
        overhead = _bench_record_overhead(program, workdir)
        memory = _bench_record_memory(program, workdir)
        rewind = _bench_rewind(program, workdir)

    report = {
        "schema_version": 2,
        "smoke": SMOKE,
        "kernel": KERNEL,
        "record_overhead": overhead,
        "record_memory": memory,
        "rewind": rewind,
    }
    path = os.path.abspath(BENCH_PATH)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    print("\npinball v2: record overhead %.2fx (bar 1.5x)  "
          "peak-alloc growth %.2fx at 4x length (bar 2.0x)  "
          "rewind ratio %.2fx across 4x lengths (bar 1.2x)"
          % (overhead["overhead_x"], memory["growth_x"],
             rewind["ratio_x"]))
    print("wrote %s" % path)

    # The machinery must hold in every mode: embedded checkpoints made
    # the long-region seek replay at most ~interval steps, not O(region).
    assert rewind["total_steps_long"] >= 3 * rewind["total_steps_short"]

    if not SMOKE:
        assert overhead["overhead_x"] <= 1.5, (
            "streamed record overhead %.2fx above the 1.5x bar"
            % overhead["overhead_x"])
        assert memory["growth_x"] <= 2.0, (
            "streamed-record peak alloc grew %.2fx over a 4x longer "
            "region (bar 2.0x: flat in region length)"
            % memory["growth_x"])
        assert rewind["ratio_x"] <= 1.2, (
            "fresh-session rewind cost differs %.2fx between region "
            "lengths %d and %d (bar 1.2x: independent of length)"
            % (rewind["ratio_x"], LENGTH, LENGTH_LONG))
