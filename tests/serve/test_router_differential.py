"""Differential oracle for the routed fleet: scale-out changes nothing.

Satellite spec, verbatim: ten seeded random programs served through a
router + two real serve nodes must produce slice payloads and slice
pinballs identical to direct in-process slicing — including when a node
is chaos-killed mid-run, and when a cold node warm-starts from the
persistent index cache instead of building.

The store is content-addressed, so slice-pinball *byte identity* is
asserted through sha equality: the fixture stores the in-process slice
pinball and the served one must land on the very same key.
"""

import json
import socket

import pytest

from repro import config
from repro.serve import DebugClient, PinballStore, rpc
from repro.serve.server import CHAOS_EXIT_STATUS
from repro.serve.sessions import (resolve_criterion, slice_locations,
                                  slice_payload)
from repro.slicing import SlicingSession
from repro.slicing.ddg_serde import options_fingerprint, serialize_index

from tests.serve.test_chaos import node_fleet, running_router
from tests.support.progen import build_program, generate_source, \
    record_pinball

SEEDS = list(range(10))


def pick_var(session, seed: int) -> str:
    for off in range(4):
        name = "g%d" % ((seed + off) % 4)
        try:
            resolve_criterion(session, {"var": name})
            return name
        except ValueError:
            continue
    raise AssertionError("seed %d wrote no shared global" % seed)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Ten stored recordings, their in-process oracles, and — for the
    ddg engine — pre-seeded persistent index blobs, so every node in
    every test below cold-starts the way a fresh fleet member would."""
    root = str(tmp_path_factory.mktemp("router-diff") / "store")
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
        var = pick_var(session, seed)
        params = {"var": var}
        criterion = resolve_criterion(session, params)
        dslice = session.slice_for(criterion,
                                   slice_locations(session, params))
        payload = slice_payload(session, dslice)
        slice_pb = session.make_slice_pinball(dslice)
        slice_sha = store.put_pinball(slice_pb, tags=("diff-slice",))
        if session.options.index == "ddg":
            fingerprint = options_fingerprint(session.options)
            store.put_index(pinball_sha, fingerprint,
                            serialize_index(session.slicer.ddg,
                                            fingerprint))
        oracle[seed] = {"sha": pinball_sha, "var": var,
                        "payload": payload, "slice_sha": slice_sha,
                        "session": session}
    return root, oracle


def canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def assert_seed_identical(client, info) -> None:
    served = client.slice(info["sha"], global_name=info["var"],
                          slice_pinball=True)
    slice_key = served.pop("slice_pinball_key")
    served.pop("kept_instructions", None)
    assert canonical(served) == canonical(info["payload"])
    # Content-addressed store: same key == byte-identical pinball.
    assert slice_key == info["slice_sha"]


def test_routed_fleet_matches_in_process(corpus, tmp_path):
    root, oracle = corpus
    with node_fleet(root, tmp_path, 2) as (_procs, ports):
        with running_router(ports) as router:
            with DebugClient(port=router.port, timeout=120) as client:
                for seed in SEEDS:
                    assert_seed_identical(client, oracle[seed])
            assert router.counts["forwarded"] >= len(SEEDS)
            assert router.counts["errors"] == 0
            # Key affinity spread the ten recordings over both nodes.
            assert all(node.forwarded > 0 for node in router.nodes)


def test_identical_after_mid_run_node_kill(corpus, tmp_path):
    root, oracle = corpus
    marker = str(tmp_path / "die-once")
    chaos_env = {"REPRO_CHAOS_EXIT_ON": "slice",
                 "REPRO_CHAOS_ONCE_PATH": marker}
    with node_fleet(root, tmp_path, 2, extra_env=chaos_env) as \
            (procs, ports):
        with running_router(ports) as router:
            with DebugClient(port=router.port, timeout=120) as client:
                for seed in SEEDS:
                    assert_seed_identical(client, oracle[seed])
            assert router.counts["node_deaths"] >= 1
            assert router.counts["retries"] >= 1
        codes = [proc.poll() for proc in procs]
        assert codes.count(CHAOS_EXIT_STATUS) == 1


def test_cold_node_warm_starts_from_cached_indexes(corpus, tmp_path):
    if config.slice_index() != "ddg":
        pytest.skip("index cache only serves the ddg engine")
    root, oracle = corpus
    with node_fleet(root, tmp_path, 1,
                    extra_env={"REPRO_OBS": "1"}) as (_procs, ports):
        with DebugClient(port=ports[0], timeout=120) as client:
            for seed in SEEDS[:4]:
                assert_seed_identical(client, oracle[seed])
            stats = client.stats()
    cache = [worker["sessions"]["index_cache"]
             for worker in stats["worker_sessions"]
             if "sessions" in worker]
    assert sum(entry["hits"] for entry in cache) >= 4
    # Warm starts, not rebuilds: nothing was re-serialized.
    assert sum(entry["writes"] for entry in cache) == 0


def test_unknown_key_through_the_router_is_typed(corpus, tmp_path):
    root, _oracle = corpus
    with node_fleet(root, tmp_path, 1) as (_procs, ports):
        with running_router(ports) as router:
            with DebugClient(port=router.port, timeout=60) as client:
                with pytest.raises(rpc.RpcRemoteError) as excinfo:
                    client.slice("0" * 64)
                assert excinfo.value.code == rpc.NOT_FOUND


def _raw_line(port: int, method: str, params: dict, req_id) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=120) as sock:
        with sock.makefile("rwb") as stream:
            stream.write(rpc.encode_message(
                rpc.make_request(method, params, req_id=req_id)))
            stream.flush()
            return stream.readline()


def test_raw_slice_lines_match_encoded_payload(corpus, tmp_path):
    """A served slice's response line, straight from the node and through
    the router, is byte for byte the encoded response around the
    in-process ``slice_payload``: for int and string ids, under the ddg
    (cache-loaded on the node), reexec and scan (explicit slice)
    indexes, with and without a location query."""
    root, oracle = corpus
    with node_fleet(root, tmp_path, 1) as (_procs, ports):
        with running_router(ports) as router:
            for seed in SEEDS[:2]:
                info = oracle[seed]
                session = info["session"]
                instance = session.last_reads(1)[0]
                queries = [
                    ({"global_name": info["var"]}, info["payload"]),
                    ({"instance": list(instance)},
                     slice_payload(session, session.slice_for(instance)))]
                for params, payload in queries:
                    for index in ("ddg", "reexec", "columnar"):
                        request = dict(params, key=info["sha"], index=index)
                        for req_id in (7, "req-7"):
                            want = rpc.encode_message(
                                rpc.make_response(req_id, payload))
                            for port in (ports[0], router.port):
                                got = _raw_line(port, "slice", request,
                                                req_id)
                                assert got == want, (seed, params, index,
                                                     req_id, port)
