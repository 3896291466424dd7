"""Per-layer metrics of the traced run.

Most layer timings come from the spans the traced rounds record around
each public call.  A layer a workload's rounds do not reach is measured
by a probe on that workload's own recording (its *subject*), so every
workload reports every per-layer metric; the probes run after the
timed rounds and never inside them:

* ``pinplay.resume`` — ``resume_machine`` at seeded checkpoints (the
  pinball's own, or ones ``generate_checkpoints`` embeds for v1);
* ``detect`` — ``detect_races`` next to a bare ``Machine.run`` of the
  same recording;
* ``maple`` — ``InterleavingProfiler.run`` on the subject program;
* ``analysis`` — the three hunt stages on the ``dangle_reuse`` analog
  (rounds of ``hunt`` time them on its own recordings);
* ``serve`` — a router and a node over a store holding the subject
  (``served`` uses its own fleet): ping, the same slices routed and
  direct, ``WorkerPool.call`` without TCP, cold and warm
  ``SessionManager.open``, and store get/put;
* slicing counts — one pass over a fresh query plan with the program's
  ``OBS`` counters on.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Dict, List, Tuple

from repro.detect import detect_races
from repro.lang import compile_source
from repro.maple.profiler import InterleavingProfiler
from repro.obs import OBS
from repro.pinplay import (RegionSpec, generate_checkpoints, record_region,
                           replay_machine, resume_machine)
from repro.serve import PinballStore, SessionManager, WorkerPool
from repro.slicing import SlicingSession
from repro.vm import RandomScheduler

from common import LAYERS, Tracer, median
from inproc import HUNT_BUGS, HuntWorkload, Plan, Region

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("lang.compile_s", "s"),
    ("vm.run_s", "s"),
    ("vm.steps", "count"),
    ("vm.steps_per_s", "1/s"),
    ("pinplay.record_s", "s"),
    ("pinplay.pinball_bytes", "B"),
    ("pinplay.checkpoints", "count"),
    ("pinplay.restore_s", "s"),
    ("pinplay.verify_s", "s"),
    ("pinplay.load_s", "s"),
    ("pinplay.save_s", "s"),
    ("pinplay.resume_s", "s"),
    ("pinplay.relog_s", "s"),
    ("pinplay.slice_replay_s", "s"),
    ("pinplay.kept_ratio", "ratio"),
    ("slicing.open_s", "s"),
    ("slicing.trace_s", "s"),
    ("slicing.preprocess_s", "s"),
    ("slicing.ddg_build_s", "s"),
    ("slicing.ddg_edges", "count"),
    ("slicing.query_ms", "ms"),
    ("slicing.edges_walked", "count"),
    ("slicing.bfs_visited_nodes", "count"),
    ("slicing.slice_nodes", "count"),
    ("slicing.cache_hit_ratio", "ratio"),
    ("slicing.reexec_window_steps", "count"),
    ("slicing.reexec_passes", "count"),
    ("slicing.reexec_scan_ratio", "ratio"),
    ("detect.online_s", "s"),
    ("detect.online_ratio", "ratio"),
    ("detect.races", "count"),
    ("maple.profile_s", "s"),
    ("maple.iroots", "count"),
    ("analysis.scan_s", "s"),
    ("analysis.evaluate_s", "s"),
    ("analysis.candidate_ms", "ms"),
    ("analysis.confirm_s", "s"),
    ("analysis.candidates", "count"),
    ("analysis.confirmed_ratio", "ratio"),
    ("serve.ping_ms", "ms"),
    ("serve.direct_ms", "ms"),
    ("serve.router_hop_ms", "ms"),
    ("serve.pool_ms", "ms"),
    ("serve.open_warm_s", "s"),
    ("serve.open_cold_s", "s"),
    ("serve.store_get_s", "s"),
    ("serve.store_put_s", "s"),
    ("serve.session_hit_ratio", "ratio"),
    ("serve.requeued", "count"),
    ("serve.rejected", "count"),
    ("serve.timeouts", "count"),
] + [("%s.self_pct" % layer, "%") for layer in LAYERS] + [
    ("unattributed_pct", "%"),
    ("calibration_ms", "ms"),
]

PROBE_REPEATS = 3


def grouped(tracer: Tracer, name: str, setup: bool = False) -> List[float]:
    """Per-tag sums of span ``name`` (a round's two calls add up), from
    set-up spans or from round and probe spans."""
    sums: Dict[object, float] = defaultdict(float)
    for span_name, start, end, _parent, tag, _id in tracer.spans:
        if span_name != name:
            continue
        is_setup = isinstance(tag, str) and tag.startswith("setup")
        if is_setup == setup:
            sums[tag] += end - start
    return list(sums.values())


def noted(tracer: Tracer, name: str) -> List[float]:
    sums: Dict[object, float] = defaultdict(float)
    for tag, value in tracer.values.get(name, ()):
        sums[tag] += value
    return list(sums.values())


def need(values: List[float], name: str) -> float:
    if not values:
        raise RuntimeError("traced run measured no %s" % name)
    return median(values)


def probe_resume(region: Region, pinball, tracer: Tracer,
                 rng: random.Random) -> None:
    checkpoints = list(pinball.checkpoints or ())
    if not checkpoints:
        checkpoints = generate_checkpoints(
            pinball, region.program,
            interval=max(64, pinball.total_steps // 16))
    for index in range(8):
        checkpoint = rng.choice(checkpoints)
        with tracer.span("pinplay.resume", tag="probe-resume-%d" % index):
            resume_machine(pinball, region.program, checkpoint)


def probe_detect(region: Region, pinball, tracer: Tracer) -> None:
    for index in range(PROBE_REPEATS):
        tag = "probe-detect-%d" % index
        machine = replay_machine(pinball, region.program)
        with tracer.span("vm.run_probe", tag=tag):
            machine.run(max_steps=pinball.total_steps)
        with tracer.span("detect.online", tag=tag):
            races = detect_races(pinball, region.program)
        tracer.note("detect.races", len(races), tag)


def probe_maple(region: Region, tracer: Tracer) -> None:
    for index in range(2):
        tag = "probe-maple-%d" % index
        profiler = InterleavingProfiler(region.program)
        with tracer.span("maple.profile", tag=tag):
            profiler.run([0, 1], switch_prob=0.3)
        tracer.note("maple.iroots", len(profiler.predicted()), tag)


def probe_analysis(tracer: Tracer) -> None:
    """The three hunt stages on the ``dangle_reuse`` analog."""
    name, getter, params = HUNT_BUGS[1]
    bug = getter(name)
    program = compile_source(bug.source(**params), name=name)
    pinball, _seed = bug.expose(program)
    for index in range(2):
        tag = "probe-hunt-%d" % index
        tracer.tag = tag
        HuntWorkload.hunt_one(program, pinball, tracer)


def probe_counts(region: Region, pinball, plan: Plan,
                 tracer: Tracer) -> None:
    """One fresh session answering ``plan`` with the OBS counters on."""
    queries = [plan.first] + list(plan.queries)
    with OBS.scope(enabled=True):
        OBS.reset()
        session = SlicingSession(pinball, region.program, region.options)
        nodes = sum(len(session.slice_for(c).nodes) for c in queries)
        counters = OBS.counters()
        stats = session.slicer.index_stats()
        OBS.reset()
    count = len(queries)
    tracer.counts = {
        "slicing.ddg_build_s": stats.get("ddg_build_time_sec", 0.0),
        "slicing.ddg_edges": stats.get("edge_count", 0),
        "slicing.edges_walked": counters.get("slicing.edges_walked", 0)
        / count,
        "slicing.bfs_visited_nodes":
            counters.get("slicing.bfs_visited_nodes", 0) / count,
        "slicing.slice_nodes": nodes / count,
        "slicing.cache_hit_ratio": stats.get("slice_cache_hits", 0) / count,
        "slicing.reexec_window_steps": stats.get("reexec_window_steps", 0),
        "slicing.reexec_passes": stats.get("reexec_passes", 0),
        "slicing.reexec_scan_ratio": (
            stats.get("reexec_windows_scanned", 0)
            / max(1, stats.get("reexec_windows", 0))),
    }


def probe_serve(fleet, store_root: str, key: str, region: Region,
                criteria, tracer: Tracer, rng: random.Random) -> None:
    """The serve layer around one stored recording."""
    store = PinballStore(store_root)
    source_sha = store.entry(key).meta["source_sha"]
    name = region.program_name
    with fleet.client() as routed, fleet.client(direct=True) as direct:
        for index in range(20):
            with tracer.span("serve.ping", tag="probe-ping-%d" % index):
                routed.ping()
        for criterion in criteria:
            routed.slice(key, instance=list(criterion))
        # The same cached slices both ways, alternating which goes first.
        for index, criterion in enumerate(list(criteria) * 2):
            tag = "probe-slice-%d" % index
            pair = [("serve.routed", routed), ("serve.direct", direct)]
            for span, client in pair[::1 if index % 2 else -1]:
                with tracer.span(span, tag=tag):
                    client.slice(key, instance=list(criterion))
        stats = direct.stats()
    pool_counts = stats["pool"]
    hits = misses = 0
    for worker in stats.get("worker_sessions", ()):
        sessions = worker.get("sessions", {})
        hits += sessions.get("hits", 0)
        misses += sessions.get("misses", 0)
    tracer.note("serve.session_hit_ratio", hits / max(1, hits + misses))
    for field in ("requeued", "rejected", "timeouts"):
        tracer.note("serve." + field, pool_counts.get(field, 0))

    params = {"pinball": key, "source": source_sha, "program_name": name}
    with WorkerPool(store_root, workers=1) as pool:
        pool.call("build", dict(params), key=key)
        for index, criterion in enumerate(list(criteria) * 2):
            with tracer.span("serve.pool", tag="probe-pool-%d" % index):
                pool.call("slice", dict(params, instance=list(criterion)),
                          key=key)

    for index in range(2):
        manager = SessionManager(store, max_entries=1, index_cache=False)
        with tracer.span("serve.open_cold", tag="probe-cold-%d" % index):
            manager.open(key, source_sha, program_name=name)
    for index in range(PROBE_REPEATS):
        manager = SessionManager(store, max_entries=1)
        with tracer.span("serve.open_warm", tag="probe-warm-%d" % index):
            manager.open(key, source_sha, program_name=name)
    for index in range(5):
        with tracer.span("serve.store_get", tag="probe-get-%d" % index):
            store.get(key)
    for index in range(PROBE_REPEATS):
        pinball = record_region(region.program, RandomScheduler(
            seed=rng.randrange(1 << 30)), RegionSpec())
        with tracer.span("serve.store_put", tag="probe-put-%d" % index):
            store.put_pinball(pinball, meta={"source_sha": source_sha,
                                             "program_name": name})


def layer_metrics(tracer: Tracer,
                  calibration_ms: float) -> List[Tuple[str, float, str]]:
    """Every :data:`PER_LAYER` metric from the traced run's spans, notes
    and counts.  Layer timings are as measured; ``calibration_ms`` (the
    calibration load's median time in the run) gives the machine speed
    they were taken at."""
    g = lambda name: need(grouped(tracer, name), name)   # noqa: E731
    n = lambda name: need(noted(tracer, name), name)     # noqa: E731
    values: Dict[str, float] = {}
    values["lang.compile_s"] = need(grouped(tracer, "lang.compile", True),
                                    "lang.compile")
    values["vm.run_s"] = g("vm.run")
    values["vm.steps"] = n("vm.steps")
    values["vm.steps_per_s"] = values["vm.steps"] / values["vm.run_s"]
    for name in ("record", "restore", "verify", "load", "save", "resume",
                 "relog", "slice_replay"):
        values["pinplay.%s_s" % name] = g("pinplay." + name)
    values["pinplay.pinball_bytes"] = n("pinplay.pinball_bytes")
    values["pinplay.checkpoints"] = n("pinplay.checkpoints")
    values["pinplay.kept_ratio"] = (sum(noted(tracer, "pinplay.kept"))
                                    / sum(noted(tracer, "pinplay.instrs")))
    values["slicing.open_s"] = g("slicing.open")
    values["slicing.trace_s"] = n("slicing.trace_s")
    values["slicing.preprocess_s"] = n("slicing.preprocess_s")
    values["slicing.query_ms"] = need(
        tracer.durations("slicing.query"), "slicing.query") * 1000.0
    values.update(tracer.counts)
    values["detect.online_s"] = g("detect.online")
    values["detect.online_ratio"] = values["detect.online_s"] / g(
        "vm.run_probe")
    values["detect.races"] = n("detect.races")
    values["maple.profile_s"] = g("maple.profile")
    values["maple.iroots"] = n("maple.iroots")
    values["analysis.scan_s"] = g("analysis.scan")
    values["analysis.evaluate_s"] = g("analysis.evaluate")
    values["analysis.confirm_s"] = g("analysis.confirm")
    values["analysis.candidates"] = n("analysis.candidates")
    values["analysis.candidate_ms"] = (values["analysis.evaluate_s"] * 1000.0
                                       / values["analysis.candidates"])
    values["analysis.confirmed_ratio"] = (
        sum(noted(tracer, "analysis.confirmed"))
        / sum(noted(tracer, "analysis.candidates")))
    values["serve.ping_ms"] = g("serve.ping") * 1000.0
    values["serve.direct_ms"] = g("serve.direct") * 1000.0
    values["serve.router_hop_ms"] = (g("serve.routed") * 1000.0
                                     - values["serve.direct_ms"])
    values["serve.pool_ms"] = g("serve.pool") * 1000.0
    for name in ("open_warm", "open_cold", "store_get", "store_put"):
        values["serve.%s_s" % name] = g("serve." + name)
    for name in ("session_hit_ratio", "requeued", "rejected", "timeouts"):
        values["serve." + name] = n("serve." + name)
    rounds = tracer.round_split()
    for layer in LAYERS:
        values["%s.self_pct" % layer] = rounds[layer]
    values["unattributed_pct"] = rounds["unattributed"]
    values["calibration_ms"] = calibration_ms
    return [(name, values[name], unit) for name, unit in PER_LAYER]

