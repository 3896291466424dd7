"""A slice pinball records its failure in its own numbering.

Its replay retires only the kept instructions, so the failing instance
has a smaller instruction index than in the region pinball it was
relogged from.  The failure the relogger writes must be the one that
replay reports, so a slice of the slice pinball's failure — in process,
through the CLI, in a debugger child session and served — answers
instead of naming an instance outside the region.
"""

import json

import pytest

from repro.cli import main
from repro.debugger import DrDebugSession
from repro.lang import compile_source
from repro.pinplay import Pinball, replay
from repro.serve import DebugClient
from repro.slicing import SlicingSession
from repro.workloads import get_bug

from tests.serve.conftest import (RACY_SOURCE, record_racy_pinball,
                                  running_server)

ENGINES = ("predecoded", "legacy")


@pytest.fixture(scope="module")
def racy():
    return record_racy_pinball()


@pytest.fixture(scope="module")
def pbzip2():
    workload = get_bug("pbzip2")
    program = workload.build(warmup=60, iters=14, teardown_work=50)
    pinball, _seed = workload.expose(program, seeds=range(48))
    assert pinball is not None
    return program, pinball


def _slice_pinballs(program, pinball, engine):
    """Slice pinballs of the failure slice and of a variable slice."""
    session = SlicingSession(pinball, program, engine=engine)
    slices = [session.slice_for(session.failure_criterion())]
    name = sorted(program.globals)[0]
    slices.append(session.slice_for_global(name))
    return [session.make_slice_pinball(dslice) for dslice in slices]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", ("racy", "pbzip2"))
def test_meta_failure_is_the_replayed_failure(engine, case, request):
    program, pinball = request.getfixturevalue(case)
    for slice_pb in _slice_pinballs(program, pinball, engine):
        machine, result = replay(slice_pb, program, verify=False,
                                 engine=engine)
        recorded = slice_pb.meta["failure"]
        assert result.failure is not None
        for field in ("tid", "pc", "code", "tindex", "seq"):
            assert recorded[field] == machine.failure[field], field
        assert recorded["tindex"] < pinball.meta["failure"]["tindex"]
        session = SlicingSession(slice_pb, program, engine=engine)
        dslice = session.slice_for(session.failure_criterion())
        assert dslice.criterion == (recorded["tid"], recorded["tindex"])
        assert session.collector.store.get(dslice.criterion).addr == \
            recorded["pc"]


@pytest.mark.parametrize("engine", ENGINES)
def test_cli_slices_a_slice_pinball_at_its_failure(engine, tmp_path,
                                                   capsys, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", engine)
    source = tmp_path / "racy.mc"
    source.write_text(RACY_SOURCE)
    _program, pinball = record_racy_pinball()
    region = str(tmp_path / "racy.pinball")
    pinball.save(region)
    slice_pb = str(tmp_path / "racy.slice.pinball")
    assert main(["slice", str(source), region, "--var", "x",
                 "--slice-pinball", slice_pb]) == 0
    capsys.readouterr()
    assert main(["slice", str(source), slice_pb, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    program = compile_source(RACY_SOURCE, name="racy")
    machine, _result = replay(Pinball.load(slice_pb), program,
                              verify=False)
    failure = machine.failure
    assert payload["criterion"] == [failure["tid"], failure["tindex"]]
    assert payload["nodes"]


@pytest.mark.parametrize("engine", ENGINES)
def test_child_session_slices_at_failure(engine, pbzip2, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", engine)
    program, pinball = pbzip2
    parent = DrDebugSession(pinball, program)
    parent.slice_at_failure()
    child = parent.replay_slice()
    dslice = child.slice_at_failure()
    failure = child.pinball.meta["failure"]
    assert dslice.criterion == (failure["tid"], failure["tindex"])
    assert len(dslice) > 0


def test_served_default_slice_of_a_slice_pinball(tmp_path, racy):
    _program, pinball = racy
    with running_server(tmp_path / "store", workers=1) as live:
        with DebugClient(port=live.port, timeout=60) as client:
            key = client.put_recording(
                RACY_SOURCE, pinball.to_bytes(compress=False),
                program_name="racy")["key"]
            slice_key = client.slice(key, slice_pinball=True)[
                "slice_pinball_key"]
            result = client.slice(slice_key)
            failure = client.replay(slice_key, no_verify=True)["failure"]
            assert result["criterion"] == [failure["tid"],
                                           failure["tindex"]]
            assert result["node_count"] > 0
            assert client.slice(slice_key, global_name="x")["node_count"]
