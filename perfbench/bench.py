"""One benchmark run: set up, measure, check every answer, report."""

from __future__ import annotations

import gc
import os
import random
import time
from collections import defaultdict
from typing import List

from repro.serve import PinballStore

import probes
from common import (REFERENCE_S, Calibrator, Report, Tally, Tracer, beyond,
                    median, peak_rss_mb, percentile, quiesced)
from inproc import HuntWorkload, SliceWorkload, debug_cycle
from served import Fleet, ServedWorkload

#: Metrics that are one sample per round (or per record episode on
#: ``served``), reported as medians.
PER_ROUND = ("round_s", "record_s", "replay_s", "first_slice_s",
             "exec_slice_s")
TAIL = 0.95
#: Load phases of a served segment, with a calibration between each two.
SERVED_PHASES = 4


def make_workload(name: str, seed: int, workdir: str, root: str,
                  segment: int):
    if name in ("cycle", "reexec"):
        return SliceWorkload(name, seed, workdir, segment)
    if name == "hunt":
        return HuntWorkload(seed, workdir, segment)
    return ServedWorkload(seed, workdir, root, segment)


class Samples:
    """Timings of one segment: as measured (``raw``) and scaled to the
    reference speed (``untraced`` / ``traced``), plus the operations
    done."""

    def __init__(self, calibrator: Calibrator) -> None:
        self.calibrator = calibrator
        self.modes = {mode: defaultdict(list)
                      for mode in ("raw", "untraced", "traced")}
        self.calibrations: List[float] = [calibrator()]

    def add(self, traced: bool, batch: dict, ops: int, wall: float) -> None:
        """File one round's (or load phase's) timings, scaled by the
        calibration taken before it and the one taken now."""
        self.calibrations.append(self.calibrator())
        scale = REFERENCE_S / median(self.calibrations[-2:])
        modes = [("traced" if traced else "untraced", scale)]
        if not traced:
            modes.append(("raw", 1.0))
        for mode, factor in modes:
            out = self.modes[mode]
            for name, values in batch.items():
                out[name].extend(value * factor for value in values)
            done, spent = out.get("ops_wall") or (0, 0.0)
            out["ops_wall"] = [done + ops, spent + wall * factor]


def measure_inprocess(workload, seconds: float, tracer: Tracer,
                      tally: Tally, tracing: bool, samples: Samples):
    """Rounds until ``seconds`` pass.  The traced run traces every other
    round, so the untraced rounds between them give its overhead."""
    segment = workload.segment
    results = []
    deadline = time.perf_counter() + seconds
    number = 0
    while number < 2 or time.perf_counter() < deadline:
        traced = tracing and number % 2 == 0
        tracer.enabled = traced
        tracer.tag = "r%d.%d" % (segment, number)
        plan = workload.plan_round(number)
        before = tally.attempted
        batch = defaultdict(list)
        with quiesced():
            started = time.perf_counter()
            with tracer.span("round"):
                result = workload.round(number, plan, tracer, batch, tally)
            wall = time.perf_counter() - started
        if result is not None:
            workload.settle(result)
            results.append(result)
        samples.add(traced, batch, tally.attempted - before, wall)
        number += 1
    tracer.enabled = tracing
    return results


def measure_served(workload, seconds: float, tracer: Tracer, tally: Tally,
                   tracing: bool, samples: Samples):
    """The closed loop in ``SERVED_PHASES`` phases, each scaled by the
    calibrations taken before and after it with the fleet idle; the
    traced run spends its first half untraced."""
    segment = workload.segment
    logs = []
    modes = (False, True) if tracing else (False,)
    phases = [traced for traced in modes
              for _ in range(SERVED_PHASES // len(modes))]
    for traced in phases:
        tracer.enabled = traced
        tracer.tag = "r%d" % segment
        log = workload.run_load(seconds / len(phases), tracer, tally)
        batch = defaultdict(list, log["latencies"])
        batch["round_s"] = log["blocks"]
        samples.add(traced, batch, log["completed"], log["elapsed"])
        logs.append(log)
    tracer.enabled = tracing
    return logs


def pooled(segments: list, mode: str) -> dict:
    """Samples of every segment, pooled per metric."""
    out = defaultdict(list)
    ops = wall = 0.0
    for segment in segments:
        for name, values in segment["samples"][mode].items():
            if name == "ops_wall":
                ops += values[0]
                wall += values[1]
            else:
                out[name].extend(values)
    out["ops_per_s"] = [ops / wall] if wall else []
    return out


def end_to_end(report: Report, segments: list) -> None:
    samples = pooled(segments, "untraced")
    # The as-measured figure is printed beside each scaled one.
    raw = pooled(segments, "raw")

    def add(name, unit, statistic=median, source=None):
        values = samples[source or name]
        if not values:
            # Every attempt failed; the failures are counted.
            report.notes.append("%s: no samples" % name)
            return
        report.add(name, statistic(values), unit, len(values),
                   statistic(raw[source or name]))

    setup_s = [segment["setup_s"] for segment in segments]
    report.add("setup_s", median(setup_s), "s", len(setup_s),
               median([segment["setup_raw"] for segment in segments]))
    for name in PER_ROUND:
        add(name, "s")
    slices, requests = samples["slice_ms"], samples["req_ms"]
    add("slice_ms", "ms")
    add("slice_p95_ms", "ms", lambda values: percentile(values, TAIL),
        "slice_ms")
    add("req_ms", "ms")
    report.add("ops_per_s", samples["ops_per_s"][0], "1/s", None,
               raw["ops_per_s"][0])
    report.add("peak_rss_mb", max(s["rss_mb"] for s in segments), "MB")
    if slices:
        report.notes.append("slice_p95_ms has %d samples beyond it"
                            % beyond(slices, TAIL))
    if requests:
        report.notes.append("req p99 %.3f ms, %d samples beyond it (not "
                            "a metric)" % (percentile(requests, 0.99),
                                           beyond(requests, 0.99)))


def overhead_lines(segments: list) -> list:
    lines = ["tracing overhead (traced median - untraced median):"]
    untraced = pooled(segments, "untraced")
    traced = pooled(segments, "traced")
    for name in PER_ROUND + ("slice_ms",):
        if untraced.get(name) and traced.get(name):
            base = median(untraced[name])
            delta = median(traced[name]) - base
            lines.append("  %-16s %+10.6f (%+.1f%%)"
                         % (name, delta, 100.0 * delta / base))
    return lines


def layer_probes(workload, tracer: Tracer, workdir: str, root: str,
                 seed: int) -> None:
    """Probe every layer the rounds did not reach (see ``probes``)."""
    rng = random.Random("probes/%d" % seed)
    served = isinstance(workload, ServedWorkload)
    region, pinball, plan, criteria = workload.subject()
    if served:
        # The served rounds never reach vm, pinplay or slicing in this
        # process: time the debugging loop on the hottest recording.
        for index in range(probes.PROBE_REPEATS):
            tracer.tag = "probe-cycle-%d" % index
            with quiesced():
                debug_cycle(region, plan, tracer, checked_first=False)
    tracer.tag = "probe"
    probes.probe_resume(region, pinball, tracer, rng)
    probes.probe_detect(region, pinball, tracer)
    probes.probe_maple(region, tracer)
    if not isinstance(workload, HuntWorkload):
        probes.probe_analysis(tracer)
    probes.probe_counts(region, pinball, plan, tracer)
    if served:
        probes.probe_serve(workload.fleet, workload.store_root,
                           workload.entries[0].key, region, criteria,
                           tracer, rng)
        return
    store_root = os.path.join(workdir, "probe-store")
    store = PinballStore(store_root)
    source_sha = store.put_source(region.source, region.program_name)
    key = store.put_pinball(pinball, meta={
        "source_sha": source_sha, "program_name": region.program_name})
    fleet = Fleet(root, store_root, workdir, workers=2).start()
    try:
        with fleet.client() as client:
            client.call("build", {"key": key})
        probes.probe_serve(fleet, store_root, key, region, criteria,
                           tracer, rng)
    finally:
        fleet.stop()


def run_segment(args, root: str, workdir: str) -> dict:
    """One segment of a run, in its own process: set up once, measure for
    ``args.seconds``, check every answer.  The last segment of a traced
    run also probes the layers its rounds did not reach."""
    tracing = bool(args.trace)
    segment = args.segment
    tracer = Tracer(tracing)
    tally = Tally()
    workload = make_workload(args.workload, args.seed, workdir, root,
                             segment)
    served = isinstance(workload, ServedWorkload)
    # Served time is spread over both CPUs, so its calibration runs on
    # every CPU at once; it is taken only around set-up and the load
    # phase, so each reading takes more passes than a round's.
    calibrator = (Calibrator(workload.workers, passes=9) if served
                  else Calibrator())
    phases = []
    try:
        tracer.tag = "setup-%d" % segment
        gc.collect()
        samples = Samples(calibrator)
        started = time.perf_counter()
        workload.setup(tracer)
        setup_raw = time.perf_counter() - started
        samples.calibrations.append(calibrator())
        setup_s = setup_raw * REFERENCE_S / median(samples.calibrations)
        phases.append(("setup", setup_raw))

        clock = time.perf_counter()
        measure = measure_served if served else measure_inprocess
        results = measure(workload, args.seconds, tracer, tally, tracing,
                          samples)
        rss_mb = peak_rss_mb()
        phases.append(("measure", time.perf_counter() - clock))
        if tracing and args.probe:
            clock = time.perf_counter()
            layer_probes(workload, tracer, workdir, root, args.seed)
            phases.append(("probes", time.perf_counter() - clock))
        clock = time.perf_counter()
        if served:
            workload.close()
            rss_mb += peak_rss_mb(children=True)
        # Checks run after the timed phase, against oracles that are
        # not the timed path.
        workload.check(results, tally)
        phases.append(("checks", time.perf_counter() - clock))
    finally:
        workload.close()
        calibrator.close()
    return {
        "setup_s": setup_s,
        "setup_raw": setup_raw,
        "samples": samples.modes,
        "calibrations": samples.calibrations,
        "rss_mb": rss_mb,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "notes": tally.notes,
        "phases": phases,
        "trace": tracer.to_json() if tracing else None,
    }


def emit(args, segments: list, out: str) -> int:
    """Pool the segments and print the table and the final JSON line."""
    tally = Tally()
    for segment in segments:
        tally.attempted += segment["attempted"]
        tally.failed += segment["failed"]
        tally.notes.extend(segment["notes"])
    report = Report()
    for number, segment in enumerate(segments):
        report.notes.append("segment %d: %s" % (number, ", ".join(
            "%s %.1fs" % tuple(phase) for phase in segment["phases"])))
    extra = []
    if args.trace:
        tracer = Tracer.merged([s["trace"] for s in segments])
        calibrations = [c for s in segments for c in s["calibrations"]]
        for name, value, unit in probes.layer_metrics(
                tracer, median(calibrations) * 1000.0):
            report.add(name, value, unit)
        extra = overhead_lines(segments)
        split = tracer.round_split()
        extra.append("round time split (%%): %s" % ", ".join(
            "%s %.1f" % item for item in split.items()))
        path = os.path.join(out, "spans-%s-seed%d.json"
                            % (args.workload, args.seed))
        tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                           "split_pct": split, "overhead": extra})
        extra.append("spans written to %s" % path)
    else:
        end_to_end(report, segments)
    return report.emit(args.workload, tally, extra)
