"""One criterion-lookup contract across every slice index.

A criterion outside the recorded region raises :class:`KeyError` when
its thread never ran there and :class:`IndexError` when its instruction
index is out of range, with one message naming the instance, whichever
index answers: ``ddg``, the cache-loaded index, ``reexec``, and the
``columnar`` and ``rows`` scans.  Served, both read ``NOT_FOUND`` and
carry the exception type, so a node's answer does not depend on whether
its session came from the index cache.
"""

import pytest

from repro.serve import DebugClient, rpc
from repro.slicing import SliceOptions, SlicingSession
from repro.slicing.ddg_serde import (deserialize_index, options_fingerprint,
                                     serialize_index)

from tests.serve.conftest import (RACY_SOURCE, record_racy_pinball,
                                  running_server)
from tests.support.progen import build_program, record_pinball

LOOKUP_PATHS = ["ddg", "frozen", "reexec", "columnar", "rows"]


def _lookup_session(path, program, pinball):
    if path == "frozen":
        options = SliceOptions(index="ddg")
        built = SlicingSession(pinball, program, options)
        blob = serialize_index(built.slicer.ddg,
                               options_fingerprint(options))
        return SlicingSession.from_frozen_index(
            pinball, program, deserialize_index(blob, options=options),
            options)
    options = SliceOptions(index=path, columnar=path != "rows")
    session = SlicingSession(pinball, program, options,
                             engine="predecoded")
    if path == "reexec":
        assert session._reexec is not None
    return session


@pytest.mark.parametrize("path", LOOKUP_PATHS)
def test_lookup_errors_are_typed_and_name_the_instance(path):
    program = build_program(1)
    session = _lookup_session(path, program, record_pinball(program, 1))
    for instance, error in [((9, 0), KeyError), ((0, 10 ** 6), IndexError),
                            ((0, -1), IndexError)]:
        with pytest.raises(error) as excinfo:
            session.slice_for(instance)
        assert str(instance) in str(excinfo.value), path
        assert "not in the region" in str(excinfo.value), path


def test_served_cache_loaded_lookup_error_is_index_error(tmp_path):
    """A node whose session came from the index cache answers a bad
    instance as IndexError / NOT_FOUND, like a freshly built one."""
    _program, pinball = record_racy_pinball()
    root = tmp_path / "store"
    params = {"instance": [0, 10 ** 6], "index": "ddg"}
    with running_server(root, workers=1) as live:
        with DebugClient(port=live.port, timeout=60) as client:
            key = client.put_recording(
                RACY_SOURCE, pinball.to_bytes(compress=False),
                program_name="racy")["key"]
            with pytest.raises(rpc.RpcRemoteError) as cold:
                client.call("slice", dict(params, key=key))
    with running_server(root, workers=1) as live:
        with DebugClient(port=live.port, timeout=60) as client:
            with pytest.raises(rpc.RpcRemoteError) as warm:
                client.call("slice", dict(params, key=key))
            sessions = [worker["sessions"]
                        for worker in client.stats()["worker_sessions"]
                        if "sessions" in worker]
    if not any(entry["index_cache"]["hits"] for entry in sessions):
        pytest.skip("the index cache is disabled")
    for excinfo in (cold, warm):
        assert excinfo.value.code == rpc.NOT_FOUND
        assert excinfo.value.data["type"] == "IndexError"
        assert "(0, 1000000)" in excinfo.value.remote_message
