"""Differential tests: on-demand re-execution slicing ("reexec") is
byte-identical to the build-once CSR dependence index ("ddg").

The reexec engine answers each criterion query with targeted,
checkpoint-bounded re-replays over the deterministic pinball instead of
materializing the full trace once (paper Section 5: the pinball *is* the
trace, replay is the random-access primitive).  Whatever it discovers is
memoized into a sparse partial DDG — and that partial graph must be
indistinguishable from the corresponding fragment of the full index.

Over the shared randomized corpus (:mod:`tests.support.progen`, ≥12
seeds) and both pinball formats —

* **v1** (monolithic, no embedded checkpoints → reexec synthesizes its
  own window boundaries during its scaffold replay), and
* **v2** (streamed container recorded with a small checkpoint interval →
  many genuine embedded-checkpoint windows),

every slice's canonical serialization (``to_dict`` minus engine stats),
unresolved-location count, and relogged slice-pinball bytes must equal
the ddg session's, for read criteria, global-location queries, and the
recorded failure.  Repeated queries must come back from the reexec
session's slice cache still byte-identical, and disabling the
save/restore bypass must change both engines in lockstep.
"""

import json

import pytest

from repro.slicing import SliceOptions, SlicingSession

from tests.support.progen import build_program, record_pinball

SEEDS = list(range(12))
FORMATS = ("v1", "v2")

#: Small enough that the corpus regions (a few thousand steps) split
#: into many embedded-checkpoint windows, so the v2 leg really exercises
#: multi-window scans and cross-window dependence resolution.
V2_CHECKPOINT_INTERVAL = 64


def _record(seed, fmt):
    program = build_program(seed)
    if fmt == "v2":
        pinball = record_pinball(program, seed, pinball_format="v2",
                                 checkpoint_interval=V2_CHECKPOINT_INTERVAL)
    else:
        pinball = record_pinball(program, seed, pinball_format="v1")
    return program, pinball


def _sessions(program, pinball, **option_kwargs):
    """(ddg reference session, true-reexec session) over one recording.

    The engine is pinned to ``predecoded`` so the reexec gate holds even
    under a ``REPRO_ENGINE`` CI rider — the point of this suite is the
    reexec path itself, not its fallback.
    """
    ddg = SlicingSession(pinball, program,
                         SliceOptions(index="ddg", **option_kwargs),
                         engine="predecoded")
    reexec = SlicingSession(pinball, program,
                            SliceOptions(index="reexec", **option_kwargs),
                            engine="predecoded")
    assert reexec._reexec is not None, "reexec session fell back"
    return ddg, reexec


def _canonical(dslice):
    """The byte-identity contract: ``to_dict`` minus the engine stats."""
    payload = dslice.to_dict()
    payload.pop("stats")
    return json.dumps(payload, sort_keys=True)


def _queries(session):
    queries = [(criterion, None) for criterion in session.last_reads(5)]
    for name in ("g0", "g1"):
        try:
            criterion = session.last_write_to_global(name)
        except ValueError:
            continue
        queries.append((criterion, [session.global_location(name)]))
    try:
        queries.append((session.failure_criterion(), None))
    except ValueError:
        pass
    return queries


def _assert_identical(ddg_slice, reexec_slice, context):
    __tracebackhide__ = True
    assert _canonical(ddg_slice) == _canonical(reexec_slice), (
        "slice bytes differ (%s)" % context)
    assert (ddg_slice.stats["unresolved_locations"]
            == reexec_slice.stats["unresolved_locations"]), context


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("seed", SEEDS)
def test_reexec_matches_ddg(seed, fmt):
    """Slice bytes, unresolved counts, and slice-pinball bytes agree."""
    program, pinball = _record(seed, fmt)
    ddg, reexec = _sessions(program, pinball)

    # The criterion helpers must agree before any slicing happens, for
    # every read count up to past the region's last read; a negative
    # count is rejected by both engines.
    queries = _queries(ddg)
    assert queries, "corpus program produced no slice criteria"
    assert queries == _queries(reexec)
    for count in (0, 5, ddg.trace_record_count() + 1):
        assert ddg.last_reads(count) == reexec.last_reads(count), count
    for session in (ddg, reexec):
        with pytest.raises(ValueError):
            session.last_reads(-3)

    for criterion, locations in queries:
        _assert_identical(
            ddg.slice_for(criterion, locations),
            reexec.slice_for(criterion, locations),
            "seed=%d fmt=%s criterion=%r" % (seed, fmt, criterion))

    # The relogged slice pinball must match byte for byte.
    criterion, locations = queries[0]
    ddg_pb = ddg.make_slice_pinball(ddg.slice_for(criterion, locations))
    reexec_pb = reexec.make_slice_pinball(
        reexec.slice_for(criterion, locations))
    assert (ddg_pb.to_bytes(compress=False)
            == reexec_pb.to_bytes(compress=False))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("seed", SEEDS[::4])
def test_repeated_queries_warm_the_session(seed, fmt):
    """A warmed reexec session answers from its caches, byte-identical,
    without re-running any replay passes."""
    program, pinball = _record(seed, fmt)
    _ddg, reexec = _sessions(program, pinball)
    index = reexec._reexec
    criteria = reexec.last_reads(3)
    first = [reexec.slice_for(c) for c in criteria]
    passes_after_first = index.passes
    again = [reexec.slice_for(c) for c in criteria]
    for a, b in zip(first, again):
        assert a is b, "seed=%d fmt=%s: repeat missed the cache" % (
            seed, fmt)
    # Warm answers are cache reads — no new re-execution passes.
    assert index.passes == passes_after_first
    assert index.cache_hits >= len(criteria)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("seed", SEEDS[::4])
def test_reexec_matches_ddg_without_bypass(seed, fmt):
    """Disabling the Section 5.2 save/restore bypass changes both
    engines in lockstep."""
    program, pinball = _record(seed, fmt)
    ddg, reexec = _sessions(program, pinball, prune_save_restore=False)
    for criterion, locations in _queries(ddg):
        _assert_identical(
            ddg.slice_for(criterion, locations),
            reexec.slice_for(criterion, locations),
            "seed=%d fmt=%s no-bypass criterion=%r"
            % (seed, fmt, criterion))
