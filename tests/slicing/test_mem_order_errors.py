"""A malformed access-order edge is a typed error under every index.

A pinball's ``mem_order`` edges ``(from_tid, from_tindex, to_tid,
to_tindex, addr, kind)`` order the threads' traces into one global
trace.  An edge that is not six fields, has an end that is not an
instruction of a traced thread (a thread with no trace, a tindex that
is not an int or lies outside the thread's trace), or closes a cycle
cannot come from a real execution; the ddg, columnar and reexec
sessions all reject it with the same :class:`GlobalTraceError`, a
:class:`PinballFormatError` naming the pinball's source and
``mem_order`` (``repro slice`` exit 65, served ``BAD_PINBALL``); an
edge with a bad end is named by its index.
"""

import re

import pytest

from repro.cli import main
from repro.pinplay import Pinball
from repro.serve import DebugClient, rpc
from repro.slicing import SliceOptions, SlicingSession
from repro.slicing.global_trace import GlobalTraceError

from tests.serve.conftest import (RACY_SOURCE, record_racy_pinball,
                                  running_server)


def _reversed(edge):
    from_tid, from_tindex, to_tid, to_tindex, addr, kind = edge
    return (to_tid, to_tindex, from_tid, from_tindex, addr, kind)


def _first(field, value):
    """An edit setting ``field`` of the first edge to ``value(old)``."""
    def edit(edges):
        edge = list(edges[0])
        edge[field] = value(edge[field])
        return [tuple(edge)] + edges[1:]
    return edit


def _past_trace(tindex):
    return 10 ** 6


#: Shape -> (the edge list it turns the recorded ``mem_order`` into,
#: what the error says after the pinball's source).
SHAPES = {
    "cycle": (lambda edges: edges + [_reversed(edges[0])],
              ": malformed mem_order"),
    "seven-fields": (lambda edges: [edges[0] + ("extra",)] + edges[1:],
                     ": malformed mem_order"),
    "unknown-thread": (lambda edges: edges + [(99, 0) + edges[0][2:]],
                       ": malformed mem_order"),
    "string-source-tindex": (_first(1, str), ": malformed mem_order "
                             "(edge 0: source ("),
    "source-past-trace": (_first(1, _past_trace), ": malformed mem_order "
                          "(edge 0: source ("),
    "destination-past-trace": (_first(3, _past_trace), ": malformed "
                               "mem_order (edge 0: destination ("),
    "negative-source-tindex": (_first(1, lambda tindex: -1), ": malformed "
                               "mem_order (edge 0: source ("),
}


@pytest.fixture(scope="module")
def racy_recording():
    return record_racy_pinball()


def _broken(pinball, shape):
    """``pinball`` as uncompressed v1 bytes, with ``shape`` applied."""
    copy = Pinball.from_bytes(pinball.to_bytes(format="v1"))
    assert copy.mem_order, "the recording has no access-order edges"
    copy.mem_order = SHAPES[shape][0](list(copy.mem_order))
    return copy.to_bytes(compress=False, format="v1")


@pytest.mark.parametrize("index", ["ddg", "columnar", "reexec"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_session_rejects_edge(racy_recording, tmp_path, shape, index):
    program, pinball = racy_recording
    path = tmp_path / ("bad-%s.pinball" % shape)
    path.write_bytes(_broken(pinball, shape))
    bad = Pinball.load(str(path))
    with pytest.raises(GlobalTraceError,
                       match=re.escape(str(path) + SHAPES[shape][1])):
        SlicingSession(bad, program, SliceOptions(index=index))


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_cli_slice_exits_65(racy_recording, tmp_path, capsys, shape):
    _program, pinball = racy_recording
    source = tmp_path / "racy.mc"
    source.write_text(RACY_SOURCE)
    path = tmp_path / "bad.pinball"
    path.write_bytes(_broken(pinball, shape))
    assert main(["slice", str(source), str(path)]) == 65
    assert str(path) + SHAPES[shape][1] in capsys.readouterr().err


def _served_slice_error(pinball, tmp_path, shape):
    with running_server(tmp_path / "store", workers=1) as server:
        with DebugClient(port=server.port, timeout=60) as client:
            key = client.put_recording(
                RACY_SOURCE, _broken(pinball, shape),
                program_name="racy")["key"]
            with pytest.raises(rpc.RpcRemoteError) as excinfo:
                client.slice(key)
    return excinfo.value


def test_served_slice_is_bad_pinball(racy_recording, tmp_path):
    _program, pinball = racy_recording
    error = _served_slice_error(pinball, tmp_path, "cycle")
    assert error.code == rpc.BAD_PINBALL
    assert "malformed mem_order" in error.remote_message


def test_served_slice_names_the_bad_edge(racy_recording, tmp_path):
    _program, pinball = racy_recording
    shape = "destination-past-trace"
    error = _served_slice_error(pinball, tmp_path, shape)
    assert error.code == rpc.BAD_PINBALL
    assert SHAPES[shape][1] in error.remote_message
