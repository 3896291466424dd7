"""End-to-end TCP tests: every RPC verb against a live DebugServer.

One module-scoped server backed by one module-scoped failing recording
of the racy demo program; each test opens its own client connection.
Covers the full verb surface: ping, stats, record, replay, slice,
last_reads, races, build, store.put / put_recording / get / list / tag /
untag / gc / stats, and shutdown (exercised implicitly by the teardown
of every suite using :func:`running_server`).
"""

import base64

import pytest

from repro.pinplay import Pinball, relog
from repro.serve import DebugClient, rpc

from tests.serve.conftest import RACY_SOURCE, running_server


@pytest.fixture(scope="module")
def server(tmp_path_factory, racy_recording):
    _program, pinball = racy_recording
    root = tmp_path_factory.mktemp("e2e") / "store"
    with running_server(root, workers=2) as live:
        with DebugClient(port=live.port, timeout=60) as client:
            uploaded = client.put_recording(
                RACY_SOURCE, pinball.to_bytes(compress=False),
                program_name="racy", tags=("seed",))
        yield live, uploaded["key"], uploaded["source_sha"]


@pytest.fixture
def client(server):
    live, _key, _source = server
    with DebugClient(port=live.port, timeout=120) as connection:
        yield connection


class TestServiceVerbs:
    def test_ping(self, client):
        result = client.ping()
        assert result["pong"] is True
        assert result["uptime_sec"] >= 0

    def test_stats_shape(self, client):
        stats = client.stats()
        assert stats["server"]["requests"] >= 1
        assert stats["pool"]["workers"] == 2
        assert stats["store"]["entries"] >= 2
        assert isinstance(stats["worker_sessions"], list)
        assert len(stats["worker_sessions"]) == 2

    def test_record_stores_and_returns_key(self, client):
        result = client.record(RACY_SOURCE, program_name="racy",
                               expose=64, switch_prob=0.3, tags=["rec"])
        assert result["failure"] is not None
        assert len(result["key"]) == 64
        listed = client.list(tag="rec")["entries"]
        assert any(entry["sha"] == result["key"] for entry in listed)

    def test_replay_reproduces_failure(self, server, client):
        _live, key, _source = server
        result = client.replay(key)
        assert result["failure"] is not None
        assert result["instructions"] > 0

    def test_slice_returns_canonical_payload(self, server, client):
        _live, key, _source = server
        result = client.slice(key)
        assert result["node_count"] == len(result["nodes"])
        assert result["node_count"] > 0
        assert result["criterion"]

    def test_slice_pinball_is_stored_and_replayable(self, server, client):
        _live, key, _source = server
        result = client.slice(key, slice_pinball=True, tags=["slice"])
        slice_key = result["slice_pinball_key"]
        blob = client.get_blob(slice_key)
        slice_pb = Pinball.from_bytes(blob, source="<test>")
        assert slice_pb.program_name == "racy"
        replayed = client.replay(slice_key, no_verify=True)
        assert replayed["instructions"] > 0
        assert result["kept_instructions"] is not None

    def test_last_reads(self, server, client):
        _live, key, _source = server
        result = client.last_reads(key, count=4)
        assert 1 <= len(result["reads"]) <= 4

    def test_races_finds_the_lost_update(self, server, client):
        _live, key, _source = server
        result = client.races(key)
        assert result["finding_count"] >= 1
        assert any("x" in row["description"] for row in result["findings"])

    def test_build(self, server, client):
        _live, key, _source = server
        result = client.call("build", {"key": key})
        assert result["built"] is True
        assert result["trace_records"] > 0


class TestStoreVerbs:
    def test_put_get_roundtrip(self, client):
        blob = base64.b64encode(b"raw payload").decode("ascii")
        result = client.call("store.put", {"blob": blob, "kind": "misc",
                                           "tags": ["keep"]})
        assert result["deduplicated"] is False
        assert client.get_blob(result["sha"]) == b"raw payload"

    def test_put_dedups(self, client):
        blob = base64.b64encode(b"dedup me").decode("ascii")
        first = client.call("store.put", {"blob": blob, "tags": ["keep"]})
        second = client.call("store.put", {"blob": blob, "tags": ["keep"]})
        assert first["sha"] == second["sha"]
        assert second["deduplicated"] is True

    def test_list_filters_by_kind(self, client):
        entries = client.list(kind="source")["entries"]
        assert entries and all(e["kind"] == "source" for e in entries)

    def test_tag_untag_gc(self, client):
        blob = base64.b64encode(b"doomed").decode("ascii")
        sha = client.call("store.put", {"blob": blob,
                                        "tags": ["tmp"]})["sha"]
        tagged = client.call("store.tag", {"sha": sha, "tags": ["extra"]})
        assert set(tagged["tags"]) == {"tmp", "extra"}
        client.call("store.untag", {"sha": sha, "tags": ["tmp", "extra"]})
        removed = client.gc()["removed"]
        assert sha in removed

    def test_store_stats(self, client):
        stats = client.call("store.stats")
        assert stats["entries"] >= 1
        assert stats["bytes_stored"] > 0


#: Malformed requests that fail inside a worker: (verb, params, code).
#: The worker stamps the same code the server's in-process error table
#: gives, so none of them may surface as ``INTERNAL_ERROR``.
WORKER_ERRORS = [
    pytest.param("slice", {"index": "quantum"}, rpc.INVALID_PARAMS,
                 id="slice-unknown-index"),
    pytest.param("build", {"index": "quantum"}, rpc.INVALID_PARAMS,
                 id="build-unknown-index"),
    pytest.param("slice", {"global_name": "nope"}, rpc.INVALID_PARAMS,
                 id="unknown-global"),
    pytest.param("slice", {"global_name": "x", "tid": 0},
                 rpc.INVALID_PARAMS, id="global-never-written-by-tid"),
    pytest.param("slice", {"line": "abc"}, rpc.INVALID_PARAMS,
                 id="non-integer-line"),
    pytest.param("last_reads", {"count": "many"}, rpc.INVALID_PARAMS,
                 id="non-integer-count"),
    pytest.param("slice", {"instance": ["a", "b"]}, rpc.INVALID_PARAMS,
                 id="non-integer-instance"),
    pytest.param("slice", {"line": 9999}, rpc.INVALID_PARAMS,
                 id="never-executed-line"),
    pytest.param("slice", {"instance": [0, 10 ** 9]}, rpc.NOT_FOUND,
                 id="instance-past-end"),
    pytest.param("last_reads", {"count": -3}, rpc.INVALID_PARAMS,
                 id="negative-count"),
]


class TestErrors:
    @pytest.mark.parametrize("verb,params,code", WORKER_ERRORS)
    def test_worker_side_errors_are_typed(self, server, client, verb,
                                          params, code):
        _live, key, _source = server
        with pytest.raises(rpc.RpcRemoteError) as excinfo:
            client.call(verb, dict(params, key=key))
        assert excinfo.value.code == code, excinfo.value.remote_message
        assert client.ping()["pong"] is True

    def test_unknown_key_is_not_found(self, client):
        with pytest.raises(rpc.RpcRemoteError) as excinfo:
            client.replay("0" * 64)
        assert excinfo.value.code == rpc.NOT_FOUND

    def test_record_without_program_is_invalid_params(self, client):
        with pytest.raises(rpc.RpcRemoteError) as excinfo:
            client.call("record", {})
        assert excinfo.value.code == rpc.INVALID_PARAMS

    def test_bad_base64_is_invalid_params(self, client):
        with pytest.raises(rpc.RpcRemoteError) as excinfo:
            client.call("store.put", {"blob": "!!! not base64 !!!"})
        assert excinfo.value.code == rpc.INVALID_PARAMS

    def test_corrupt_uploaded_pinball_is_bad_pinball(self, client):
        mangled = base64.b64encode(b"not a pinball").decode("ascii")
        with pytest.raises(rpc.RpcRemoteError) as excinfo:
            client.call("store.put_recording",
                        {"program": "int main() { return 0; }",
                         "pinball": mangled})
        assert excinfo.value.code == rpc.BAD_PINBALL

    def test_malformed_exclusion_record_is_bad_pinball(
            self, client, racy_recording):
        program, pinball = racy_recording
        keep = {int(tid): {count - 1} for tid, count
                in pinball.meta["thread_instr_counts"].items()}
        slice_pb = relog(pinball, program, keep)
        slice_pb.exclusions[0] = {}
        key = client.put_recording(
            RACY_SOURCE, slice_pb.to_bytes(compress=False),
            program_name="racy")["key"]
        with pytest.raises(rpc.RpcRemoteError) as excinfo:
            client.replay(key)
        assert excinfo.value.code == rpc.BAD_PINBALL
        assert "exclusion record 0" in excinfo.value.remote_message

    def test_relogging_a_slice_pinball_is_invalid_params(
            self, server, client):
        _live, key, _source = server
        slice_key = client.slice(key, global_name="x", slice_pinball=True)[
            "slice_pinball_key"]
        with pytest.raises(rpc.RpcRemoteError) as excinfo:
            client.slice(slice_key, global_name="x", slice_pinball=True)
        assert excinfo.value.code == rpc.INVALID_PARAMS
        assert "exclusion records" in excinfo.value.remote_message
        assert excinfo.value.data["type"] == "RelogError"

    def test_errors_do_not_kill_the_connection(self, client):
        with pytest.raises(rpc.RpcRemoteError):
            client.replay("0" * 64)
        assert client.ping()["pong"] is True
