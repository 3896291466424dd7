"""Differential oracle: served slices == direct in-process slices.

Satellite spec, verbatim: for 10 seeded random programs, a slice
computed through the full service path (store → worker pool → canonical
payload) must be **byte-identical** — nodes, edges, unresolved count —
to the slice computed directly in-process, and the slice pinball
produced remotely must replay to the same result as the one produced
locally.

The requests are submitted to the pool *concurrently* on purpose: the
oracle also proves that parallel workers and LRU routing never leak
state between recordings.
"""

import json

import pytest

from repro.pinplay import Pinball, replay
from repro.serve import PinballStore, WorkerPool
from repro.serve.sessions import (resolve_criterion, slice_locations,
                                  slice_payload)
from repro.slicing import SlicingSession

from tests.support.progen import build_program, generate_source, \
    record_pinball

SEEDS = list(range(10))

#: Each seed slices on the last write to one of the shared globals —
#: deterministic, nontrivial, and defined for every generated program
#: (progen recordings usually run to completion, so there is no failure
#: criterion to default to).  Chosen per seed at fixture time: the first
#: of g0..g3 the recording actually wrote, rotated by the seed.
VAR_FOR_SEED = {}


def pick_var(session, seed: int) -> str:
    candidates = ["g%d" % ((seed + off) % 4) for off in range(4)]
    for name in candidates:
        try:
            resolve_criterion(session, {"var": name})
            return name
        except ValueError:
            continue
    raise AssertionError("seed %d wrote no shared global" % seed)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Store all ten recordings plus their direct in-process oracles."""
    root = str(tmp_path_factory.mktemp("diff") / "store")
    store = PinballStore(root)
    oracle = {}
    for seed in SEEDS:
        program = build_program(seed)
        pinball = record_pinball(program, seed)
        source_sha = store.put_source(generate_source(seed), program.name,
                                      tags=("diff",))
        pinball_sha = store.put_pinball(
            pinball, tags=("diff",),
            meta={"source_sha": source_sha,
                  "program_name": program.name})
        session = SlicingSession(pinball, program)
        VAR_FOR_SEED[seed] = pick_var(session, seed)
        params = {"var": VAR_FOR_SEED[seed]}
        criterion = resolve_criterion(session, params)
        dslice = session.slice_for(criterion,
                                   slice_locations(session, params))
        payload = slice_payload(session, dslice)
        slice_pb = session.make_slice_pinball(dslice)
        _machine, replay_result = replay(slice_pb, program, verify=False)
        oracle[seed] = {
            "pinball_sha": pinball_sha,
            "source_sha": source_sha,
            "program_name": program.name,
            "program": program,
            "payload": payload,
            "slice_bytes": slice_pb.to_bytes(compress=False),
            "replay_reason": replay_result.reason,
        }
    return root, oracle


def canonical(payload: dict) -> bytes:
    """The byte-identity the spec asks for: one canonical JSON encoding."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def test_concurrent_served_slices_match_direct(corpus):
    root, oracle = corpus
    with WorkerPool(root, workers=4, queue_limit=32,
                    default_timeout=120) as pool:
        futures = {}
        for seed in SEEDS:   # all ten in flight at once
            info = oracle[seed]
            futures[seed] = pool.submit(
                "slice",
                {"pinball": info["pinball_sha"],
                 "source": info["source_sha"],
                 "program_name": info["program_name"],
                 "var": VAR_FOR_SEED[seed],
                 "slice_pinball": True},
                key=info["pinball_sha"], timeout=120)
        for seed in SEEDS:
            info = oracle[seed]
            served = futures[seed].result(timeout=180)
            raw = served.pop("slice_pinball_raw")
            served.pop("kept_instructions", None)
            # Byte-identical canonical payloads: nodes, edges, criterion,
            # unresolved count, source statements — everything.
            assert canonical(served) == canonical(info["payload"]), \
                "served slice diverged for seed %d" % seed
            # The remotely produced slice pinball is the same artifact...
            assert raw == info["slice_bytes"], \
                "slice pinball diverged for seed %d" % seed
            # ...and replays to the same terminal state.
            slice_pb = Pinball.from_bytes(raw, source="<served>")
            _machine, result = replay(slice_pb, info["program"],
                                      verify=False)
            assert result.reason == info["replay_reason"]


def test_repeat_queries_hit_resident_sessions_and_stay_identical(corpus):
    """Round two over a warmed pool (LRU hits) changes nothing.  Without
    ``slice_pinball`` the pool answers with the encoded payload's bytes."""
    root, oracle = corpus
    with WorkerPool(root, workers=2, queue_limit=32,
                    default_timeout=120) as pool:
        for round_index in range(2):
            futures = {
                seed: pool.submit(
                    "slice",
                    {"pinball": oracle[seed]["pinball_sha"],
                     "source": oracle[seed]["source_sha"],
                     "program_name": oracle[seed]["program_name"],
                     "var": VAR_FOR_SEED[seed]},
                    key=oracle[seed]["pinball_sha"], timeout=120)
                for seed in SEEDS[:4]}
            for seed, future in futures.items():
                served = future.result(timeout=180)
                assert served == canonical(oracle[seed]["payload"])
        hits = sum(w["sessions"]["hits"] for w in pool.worker_stats())
        assert hits >= 4
