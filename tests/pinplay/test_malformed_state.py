"""A malformed region snapshot, checkpoint body, schedule, syscall log or
exclusion record is a typed error.

The pinball container can be intact (v1 JSON parses, v2 frames pass
their CRCs) while the machine state inside it is not: a snapshot of the
wrong shape or with a thread whose registers are not the ISA's, a
checkpoint body missing a field, a schedule run that is not an int
tid with an int count of at least 1, a syscall entry that is not a
[name, value] pair, or a slice pinball's exclusion record missing a
field or naming a register outside the ISA.  Whatever touches that
state — replay, ``resume_machine``, a debugger seek, ``repro replay`` —
must raise :class:`PinballFormatError` naming the pinball's source and
the part (the checkpoint by step, the exclusion record by index), never
a raw ``KeyError``/``TypeError`` or a divergence far from the cause.  A
v1 schedule or syscall log fails as the pinball loads.
"""

import json
import re

import pytest

from repro.cli import main
from repro.debugger import DrDebugSession
from repro.lang import compile_source
from repro.pinplay import (EmbeddedCheckpoint, Pinball, PinballFormatError,
                           RegionSpec, record_region, relog, replay,
                           resume_machine)
from repro.serve import DebugClient, PinballStore, rpc
from repro.vm import RoundRobinScheduler

from tests.serve.conftest import (RACY_SOURCE, record_racy_pinball,
                                  running_server)

SOURCE = """
int g;
int main() {
    int i;
    for (i = 0; i < 30; i = i + 1) {
        g = g + rand(5);
    }
    print(g);
    return 0;
}
"""

INTERVAL = 20


@pytest.fixture(scope="module")
def recorded():
    program = compile_source(SOURCE, name="malformed")
    pinball = record_region(program, RoundRobinScheduler(), RegionSpec(),
                            rand_seed=3, pinball_format="v2",
                            checkpoint_interval=INTERVAL)
    assert pinball.checkpoints
    return program, pinball


def _with_regs(snapshot, edit):
    """``snapshot`` with ``edit`` applied to its first thread's registers."""
    threads = [dict(thread, regs=dict(thread["regs"]))
               for thread in snapshot["threads"]]
    edit(threads[0]["regs"])
    return dict(snapshot, threads=threads)


def _rename_r3(regs):
    regs["q3"] = regs.pop("r3")


def _snapshot_shapes(snapshot):
    return {"empty": {}, "list": [], "memory-int": dict(snapshot, memory=5),
            "renamed-r3": _with_regs(snapshot, _rename_r3),
            "no-r3": _with_regs(snapshot, lambda regs: regs.pop("r3"))}


SNAPSHOT_SHAPES = ["empty", "list", "memory-int", "renamed-r3", "no-r3"]


def _body_shapes(body):
    return {"empty": {},
            "no-consumed": {key: value for key, value in body.items()
                            if key != "consumed"}}


def _rebuilt(pinball, path, fmt, snapshot=None, body=None):
    """``pinball`` saved to ``path`` with one section replaced, reloaded
    (so the error has a file to name)."""
    copy = Pinball(pinball.program_name,
                   pinball.snapshot if snapshot is None else snapshot,
                   pinball.schedule, pinball.syscalls, pinball.mem_order,
                   pinball.exclusions, pinball.meta)
    if body is not None:
        first = pinball.checkpoints[0]
        copy.checkpoints = [EmbeddedCheckpoint(
            first.steps_done, first.global_seq, body=body)]
    copy.save(str(path), format=fmt)
    return Pinball.load(str(path))


@pytest.mark.parametrize("fmt", ["v1", "v2"])
@pytest.mark.parametrize("shape", SNAPSHOT_SHAPES)
def test_malformed_snapshot_replay(recorded, tmp_path, fmt, shape):
    program, pinball = recorded
    path = tmp_path / ("bad-%s.pinball" % shape)
    bad = _rebuilt(pinball, path, fmt,
                   snapshot=_snapshot_shapes(pinball.snapshot)[shape])
    with pytest.raises(PinballFormatError,
                       match=re.escape(str(path)) + ": malformed region "
                       "snapshot"):
        replay(bad, program)


@pytest.mark.parametrize("shape", SNAPSHOT_SHAPES)
def test_malformed_snapshot_seek(recorded, tmp_path, shape):
    program, pinball = recorded
    path = tmp_path / ("bad-%s.pinball" % shape)
    bad = _rebuilt(pinball, path, "v1",
                   snapshot=_snapshot_shapes(pinball.snapshot)[shape])
    session = DrDebugSession(bad, program)
    session.enable_reverse_debugging(INTERVAL)
    with pytest.raises(PinballFormatError, match="region snapshot"):
        session.seek(3)


@pytest.mark.parametrize("shape", ["empty", "no-consumed"])
def test_malformed_checkpoint_resume(recorded, tmp_path, shape):
    program, pinball = recorded
    path = tmp_path / ("bad-%s.pinball" % shape)
    body = _body_shapes(pinball.checkpoints[0].body())[shape]
    bad = _rebuilt(pinball, path, "v2", body=body)
    step = bad.checkpoints[0].steps_done
    with pytest.raises(PinballFormatError,
                       match=re.escape(str(path)) + ": malformed "
                       "checkpoint at step %d" % step):
        resume_machine(bad, program, bad.checkpoints[0])


@pytest.mark.parametrize("shape", ["empty", "no-consumed"])
def test_malformed_checkpoint_seek(recorded, tmp_path, shape):
    program, pinball = recorded
    path = tmp_path / ("bad-%s.pinball" % shape)
    body = _body_shapes(pinball.checkpoints[0].body())[shape]
    bad = _rebuilt(pinball, path, "v2", body=body)
    step = bad.checkpoints[0].steps_done
    session = DrDebugSession(bad, program)
    session.enable_reverse_debugging(INTERVAL)
    with pytest.raises(PinballFormatError,
                       match="checkpoint at step %d" % step):
        session.seek(step + 2)


def test_cli_replay_of_malformed_snapshot_exits_65(recorded, tmp_path,
                                                    capsys):
    _program, pinball = recorded
    source = tmp_path / "malformed.mc"
    source.write_text(SOURCE)
    path = tmp_path / "bad.pinball"
    _rebuilt(pinball, path, "v1", snapshot={})
    assert main(["replay", str(source), str(path)]) == 65
    assert "malformed region snapshot" in capsys.readouterr().err


def test_cli_replay_of_renamed_register_exits_65(recorded, tmp_path,
                                                  capsys):
    _program, pinball = recorded
    source = tmp_path / "malformed.mc"
    source.write_text(SOURCE)
    path = tmp_path / "bad.pinball"
    _rebuilt(pinball, path, "v1",
             snapshot=_snapshot_shapes(pinball.snapshot)["renamed-r3"])
    assert main(["replay", str(source), str(path)]) == 65
    err = capsys.readouterr().err
    assert "malformed region snapshot" in err and "'r3'" in err


@pytest.mark.parametrize("fmt,shape", [("v1", "renamed-r3"),
                                       ("v2", "no-r3")])
def test_served_replay_of_wrong_registers_is_bad_pinball(
        recorded, tmp_path, fmt, shape):
    program, pinball = recorded
    path = tmp_path / "bad.pinball"
    _rebuilt(pinball, path, fmt,
             snapshot=_snapshot_shapes(pinball.snapshot)[shape])
    with running_server(tmp_path / "store", workers=1) as server:
        with DebugClient(port=server.port, timeout=60) as client:
            key = client.put_recording(SOURCE, path.read_bytes(),
                                       program_name=program.name)["key"]
            with pytest.raises(rpc.RpcRemoteError) as excinfo:
                client.replay(key)
    assert excinfo.value.code == rpc.BAD_PINBALL
    assert "malformed region snapshot" in excinfo.value.remote_message


# -- slice pinballs: exclusion records and the schedule ----------------------

#: Shape -> (how the first exclusion record is broken, expected label).
EXCLUSION_SHAPES = {
    "empty-record": (lambda record: record.clear(), "exclusion record 0"),
    "frame-fields": (lambda record: record.update(frames=[{}]),
                     "exclusion record 0"),
    "regs-int": (lambda record: record.update(regs=5),
                 "exclusion record 0"),
    "end-pc-str": (lambda record: record.update(end_pc="x"),
                   "exclusion record 0"),
    "unknown-register": (lambda record: record.update(regs=[["zz", 1]]),
                         "exclusion record 0"),
}


@pytest.fixture(scope="module")
def sliced():
    """The racy demo's failing recording, relogged to a slice pinball
    whose first exclusion record carries registers and frames."""
    program, pinball = record_racy_pinball()
    keep = {int(tid): {count - 1} for tid, count
            in pinball.meta["thread_instr_counts"].items()}
    slice_pb = relog(pinball, program, keep)
    first = slice_pb.exclusions[0]
    assert first["regs"] and first["frames"]
    return program, slice_pb


def _broken(slice_pb, path, fmt, shape):
    """Save ``slice_pb`` with ``shape`` applied to ``path`` in ``fmt``."""
    copy = Pinball.from_bytes(slice_pb.to_bytes(format="v1"))
    if shape == "schedule":
        copy.schedule = [[0, "a"]]
    else:
        EXCLUSION_SHAPES[shape][0](copy.exclusions[0])
    copy.save(str(path), format=fmt)


def _label(shape):
    return "schedule" if shape == "schedule" else EXCLUSION_SHAPES[shape][1]


#: The v2 schedule is packed integers, so only v1 can carry a bad count.
SLICE_CASES = ([(fmt, shape) for fmt in ("v1", "v2")
                for shape in EXCLUSION_SHAPES] + [("v1", "schedule")])


@pytest.mark.parametrize("fmt,shape", SLICE_CASES)
def test_malformed_slice_pinball_replay(sliced, tmp_path, fmt, shape):
    program, slice_pb = sliced
    path = tmp_path / ("bad-%s.pinball" % shape)
    _broken(slice_pb, path, fmt, shape)
    with pytest.raises(PinballFormatError,
                       match=re.escape(str(path)) + ": malformed "
                       + _label(shape)):
        # A v1 schedule fails at load, the rest at replay.
        replay(Pinball.load(str(path)), program, verify=False)


@pytest.mark.parametrize("fmt,shape", SLICE_CASES)
def test_cli_replay_of_malformed_slice_pinball_exits_65(
        sliced, tmp_path, capsys, fmt, shape):
    _program, slice_pb = sliced
    source = tmp_path / "racy.mc"
    source.write_text(RACY_SOURCE)
    path = tmp_path / "bad.pinball"
    _broken(slice_pb, path, fmt, shape)
    assert main(["replay", str(source), str(path)]) == 65
    assert "malformed " + _label(shape) in capsys.readouterr().err


def test_intact_slice_pinball_still_replays(sliced):
    program, slice_pb = sliced
    machine, _result = replay(slice_pb, program, verify=False)
    assert machine.skipped_exclusions == len(slice_pb.exclusions)


# -- v1 schedule runs and syscall entries -------------------------------------

def _edit_first_run(edit):
    def apply(payload):
        payload["schedule"][0] = edit(payload["schedule"][0])
    return apply


def _edit_first_syscall(edit):
    def apply(payload):
        log = payload["syscalls"][min(payload["syscalls"])]
        log[0] = edit(log[0])
    return apply


#: Shape -> (the section the error names, how it edits a v1 payload).
V1_TUPLE_SHAPES = {
    "string-count": ("schedule",
                     _edit_first_run(lambda run: [run[0], str(run[1])])),
    "string-tid": ("schedule",
                   _edit_first_run(lambda run: [str(run[0]), run[1]])),
    "zero-count": ("schedule", _edit_first_run(lambda run: [run[0], 0])),
    "one-field-syscall": ("syscall log",
                          _edit_first_syscall(lambda entry: entry[:1])),
    "three-field-syscall": ("syscall log",
                            _edit_first_syscall(lambda entry: entry + [0])),
    "int-syscall-name": ("syscall log",
                         _edit_first_syscall(lambda entry: [7, entry[1]])),
}


def _v1_blob(pinball, shape):
    """``pinball`` as uncompressed v1 bytes with ``shape`` applied."""
    payload = json.loads(pinball.to_bytes(compress=False, format="v1"))
    assert payload["schedule"] and payload["syscalls"]
    V1_TUPLE_SHAPES[shape][1](payload)
    return json.dumps(payload).encode()


@pytest.mark.parametrize("shape", sorted(V1_TUPLE_SHAPES))
def test_cli_replay_of_malformed_v1_tuple_exits_65(recorded, tmp_path,
                                                   capsys, shape):
    _program, pinball = recorded
    source = tmp_path / "malformed.mc"
    source.write_text(SOURCE)
    path = tmp_path / "bad.pinball"
    path.write_bytes(_v1_blob(pinball, shape))
    assert main(["replay", str(source), str(path)]) == 65
    assert ("%s: malformed %s (" % (path, V1_TUPLE_SHAPES[shape][0])
            in capsys.readouterr().err)


def test_served_replay_of_malformed_v1_tuples_is_bad_pinball(recorded,
                                                             tmp_path):
    program, pinball = recorded
    store = PinballStore(str(tmp_path / "store"))
    source_sha = store.put_source(SOURCE, program.name)
    # Straight into the store: an upload parses the pinball, and refuses
    # these before any worker sees them.
    keys = {shape: store.put(_v1_blob(pinball, shape), kind="pinball",
                             meta={"source_sha": source_sha,
                                   "program_name": program.name})[0]
            for shape in V1_TUPLE_SHAPES}
    with running_server(store.root, workers=1) as server:
        with DebugClient(port=server.port, timeout=60) as client:
            for shape, key in sorted(keys.items()):
                with pytest.raises(rpc.RpcRemoteError) as excinfo:
                    client.replay(key)
                assert excinfo.value.code == rpc.BAD_PINBALL, shape
                assert ("malformed %s (" % V1_TUPLE_SHAPES[shape][0]
                        in excinfo.value.remote_message), shape
