"""Rendering and demonstrating the observability registry.

:func:`format_report` renders :meth:`~repro.obs.registry.ObsRegistry.snapshot`
as the grouped text table ``repro obs report`` prints.  :func:`run_demo_cycle`
drives one complete DrDebug cyclic-debugging loop — Maple exposure,
record, replay, slicing, slice pinball, reverse debugging, online race
detection, a short bug hunt, plus a pass through the debug service's
store + session cache — so a single ``repro obs report`` run exhibits
nonzero counters from every instrumented layer (vm, pinplay, slicing,
reexec, debugger, maple, serve, index_cache, detect, hunt).
"""

from __future__ import annotations

from repro.obs.registry import OBS

#: The layer prefixes the report groups by (and the acceptance criterion
#: checks): every one of these must show activity after a demo cycle.
LAYERS = ("vm", "pinplay", "slicing", "reexec", "debugger", "maple",
          "serve", "index_cache", "detect", "hunt")

#: A lost-update atomicity bug (two unsynchronized increments): small
#: enough to run in well under a second, racy enough that Maple's
#: profiling + active-scheduling loop reliably exposes the failing
#: interleaving — the full workflow of paper Section 6.
DEMO_SOURCE = """
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
    assert(x == 2, 11);
    return 0;
}
"""


def run_demo_cycle() -> dict:
    """One full cyclic-debugging loop under observability.

    All instrumented layers report into the process-wide :data:`OBS`
    registry, so that is the registry this drives: it is enabled for the
    duration (previous enablement restored on exit) and its snapshot is
    returned.  Callers wanting isolation should save/restore or reset
    ``OBS`` around the call.
    """
    registry = OBS
    from repro.debugger import DrDebugSession
    from repro.lang import compile_source
    from repro.maple import expose_and_record
    from repro.pinplay import replay
    from repro.slicing import SlicingSession

    with registry.scope(enabled=True):
        program = compile_source(DEMO_SOURCE, name="obs_demo")

        # Maple: profile interleavings, force the untested one, record.
        result = expose_and_record(program, profile_seeds=range(4))
        if not result.exposed:   # pragma: no cover - the bug is reliable
            raise RuntimeError("demo cycle failed to expose the bug")
        pinball = result.pinball

        # PinPlay: deterministic replay of the captured region.
        replay(pinball, program)

        # Slicing: traced replay, failure slice, slice pinball.
        session = SlicingSession(pinball, program)
        dslice = session.slice_for(session.failure_criterion())
        slice_pinball = session.make_slice_pinball(dslice)
        replay(slice_pinball, program, verify=False)

        # Re-execution slicing: the same failure query answered by
        # checkpoint-bounded window re-replays over the pinball instead
        # of a resident full trace (``--index reexec``).  The engine is
        # pinned: under the legacy interpreter the session would fall
        # back to the materialized pipeline and the layer stay dark.
        from repro.slicing import SliceOptions
        reexec = SlicingSession(pinball, program,
                                SliceOptions(index="reexec"),
                                engine="predecoded")
        reexec.slice_for(reexec.failure_criterion())

        # Detect + hunt: one online race-detection pass over the
        # recording, then the bug firehose — candidate schedules within
        # the recorded envelope, classification, minimization.
        from repro.analysis.hunt import hunt as run_hunt
        from repro.detect import detect_races
        detect_races(pinball, program)
        run_hunt(pinball, program, budget=4, profile_seeds=2,
                 minimize_budget=8, slice_reports=False)

        # Debugger: reverse-capable cyclic session over the same pinball.
        debug = DrDebugSession(pinball, program)
        debug.enable_reverse_debugging(interval=16)
        debug.run()
        debug.reverse_stepi(4)
        debug.continue_()

        # Serve: the recording as a durable store object + a resident
        # session answering a repeat query from the index LRU (the
        # service's hot path, minus the TCP/process plumbing).
        import tempfile

        from repro.serve.sessions import SessionManager
        from repro.serve.store import PinballStore

        with tempfile.TemporaryDirectory() as root:
            store = PinballStore(root)
            source_sha = store.put_source(DEMO_SOURCE, "obs_demo",
                                          tags=("demo",))
            key = store.put_pinball(pinball, tags=("demo",),
                                    meta={"source_sha": source_sha})
            # Re-putting the identical recording dedups to the same key.
            store.put_pinball(pinball, meta={"source_sha": source_sha})
            manager = SessionManager(store, max_entries=2)
            # The index is pinned, not taken from the environment: only
            # ddg sessions go through the index cache this layer shows.
            resident = manager.open(key, source_sha, "obs_demo",
                                    index="ddg")   # miss
            manager.open(key, source_sha, "obs_demo", index="ddg")   # hit
            resident.slice_for(resident.failure_criterion())
            store.gc()   # nothing untagged; exercises the counter path

        return registry.snapshot()


def layer_totals(snapshot: dict) -> dict:
    """Sum of counter values per layer prefix (report + acceptance check)."""
    totals = {layer: 0 for layer in LAYERS}
    for name, value in snapshot.get("counters", {}).items():
        prefix = name.split(".", 1)[0]
        if prefix in totals:
            totals[prefix] += value
    return totals


def format_report(snapshot: dict) -> str:
    """Human-readable text rendering of a registry snapshot."""
    lines = ["observability report", "====================", ""]
    counters = snapshot.get("counters", {})
    by_layer = {}
    for name, value in counters.items():
        prefix = name.split(".", 1)[0]
        by_layer.setdefault(prefix, []).append((name, value))
    ordered = [layer for layer in LAYERS if layer in by_layer]
    ordered += [layer for layer in sorted(by_layer) if layer not in LAYERS]
    for layer in ordered:
        lines.append("[%s]" % layer)
        for name, value in by_layer[layer]:
            lines.append("  %-40s %12d" % (name, value))
        lines.append("")
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("[histograms]")
        for name, data in histograms.items():
            lines.append(
                "  %-40s n=%-8d mean=%-10.1f min=%-8s max=%s"
                % (name, data["count"], data["mean"],
                   data["min"], data["max"]))
        lines.append("")
    spans = snapshot.get("spans", {})
    if spans:
        lines.append("[spans]")
        for path, data in spans.items():
            lines.append(
                "  %-40s n=%-8d total=%8.4fs  max=%8.4fs"
                % (path, data["count"], data["total_sec"],
                   data["max_sec"] or 0.0))
        lines.append("")
    if not counters and not spans:
        lines.append("(no metrics recorded; enable with --obs or "
                     "REPRO_OBS=1)")
    return "\n".join(lines).rstrip() + "\n"
