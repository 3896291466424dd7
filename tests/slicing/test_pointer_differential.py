"""10-seed differential over the struct/pointer corpus: every slice
index and pinball format agrees byte-for-byte.

The pointer band stresses what the flat corpus cannot: heap addresses
from ``new`` flowing through ``->`` loads (so memory dependences chain
through pointer registers), recursive call frames, ``delete``'s
allocator effects, and struct-value locals.  For each seed and pinball
format the ``ddg`` build is the reference; both alternative index
layouts (``columnar``, ``rows``) and the on-demand re-execution engine
(``reexec``) must produce canonically identical slices and
byte-identical relogged slice pinballs."""

import json

import pytest

from repro.slicing import SliceOptions, SlicingSession

from tests.support.progen import build_struct_program, record_pinball

SEEDS = list(range(10))
FORMATS = ("v1", "v2")
V2_CHECKPOINT_INTERVAL = 64

#: Index layouts checked against the ddg reference.
INDEXES = ("columnar", "rows", "reexec")


def _record(seed, fmt):
    program = build_struct_program(seed)
    if fmt == "v2":
        pinball = record_pinball(program, seed, pinball_format="v2",
                                 checkpoint_interval=V2_CHECKPOINT_INTERVAL)
    else:
        pinball = record_pinball(program, seed, pinball_format="v1")
    return program, pinball


def _session(program, pinball, index):
    session = SlicingSession(pinball, program, SliceOptions(index=index),
                             engine="predecoded")
    if index == "reexec":
        assert session._reexec is not None, "reexec session fell back"
    return session


def _canonical(dslice):
    """Canonical serialization: ``to_dict`` minus engine stats, with
    node/edge lists sorted (index layouts emit them in store order,
    which differs between the columnar and row stores)."""
    payload = dslice.to_dict()
    payload.pop("stats")
    payload["nodes"] = sorted(payload["nodes"],
                              key=lambda n: json.dumps(n, sort_keys=True))
    payload["edges"] = sorted(payload["edges"],
                              key=lambda e: json.dumps(e, sort_keys=True))
    return json.dumps(payload, sort_keys=True)


def _queries(session):
    queries = [(criterion, None) for criterion in session.last_reads(4)]
    try:
        criterion = session.last_write_to_global("total")
        queries.append((criterion, [session.global_location("total")]))
    except ValueError:
        pass
    return queries


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("seed", SEEDS)
def test_pointer_corpus_differential(seed, fmt):
    program, pinball = _record(seed, fmt)
    reference = _session(program, pinball, "ddg")
    queries = _queries(reference)
    assert queries, "pointer corpus program produced no slice criteria"
    expected = {criterion: _canonical(reference.slice_for(criterion, locs))
                for criterion, locs in queries}
    ref_pb = reference.make_slice_pinball(
        reference.slice_for(*queries[0])).to_bytes(compress=False)

    for index in INDEXES:
        session = _session(program, pinball, index)
        assert _queries(session) == queries, (
            "criterion helpers disagree (seed=%d fmt=%s %s)"
            % (seed, fmt, index))
        for criterion, locations in queries:
            got = _canonical(session.slice_for(criterion, locations))
            assert got == expected[criterion], (
                "slice bytes differ (seed=%d fmt=%s %s criterion=%r)"
                % (seed, fmt, index, criterion))
        got_pb = session.make_slice_pinball(
            session.slice_for(*queries[0])).to_bytes(compress=False)
        assert got_pb == ref_pb, (
            "slice-pinball bytes differ (seed=%d fmt=%s %s)"
            % (seed, fmt, index))


@pytest.mark.parametrize("seed", SEEDS[::3])
def test_formats_agree_with_each_other(seed):
    """The same seed recorded under v1 and v2 yields identical slices
    (the stream container changes the carrier, not the content)."""
    program_v1, pinball_v1 = _record(seed, "v1")
    program_v2, pinball_v2 = _record(seed, "v2")
    s1 = _session(program_v1, pinball_v1, "ddg")
    s2 = _session(program_v2, pinball_v2, "ddg")
    q1, q2 = _queries(s1), _queries(s2)
    assert q1 == q2
    for (criterion, locations), _ in zip(q1, q2):
        assert (_canonical(s1.slice_for(criterion, locations))
                == _canonical(s2.slice_for(criterion, locations)))
