"""A malformed region snapshot or checkpoint body is a typed error.

The pinball container can be intact (v1 JSON parses, v2 frames pass
their CRCs) while the machine state inside it is not: a snapshot of the
wrong shape, or a checkpoint body missing a field.  Whatever touches
that state — replay, ``resume_machine``, a debugger seek, ``repro
replay`` — must raise :class:`PinballFormatError` naming the pinball's
source and the checkpoint step, never a raw ``KeyError``/``TypeError``.
"""

import re

import pytest

from repro.cli import main
from repro.debugger import DrDebugSession
from repro.lang import compile_source
from repro.pinplay import (EmbeddedCheckpoint, Pinball, PinballFormatError,
                           RegionSpec, record_region, replay,
                           resume_machine)
from repro.vm import RoundRobinScheduler

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


def _snapshot_shapes(snapshot):
    return {"empty": {}, "list": [], "memory-int": dict(snapshot, memory=5)}


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
@pytest.mark.parametrize("shape", ["empty", "list", "memory-int"])
def test_malformed_snapshot_replay(recorded, tmp_path, fmt, shape):
    program, pinball = recorded
    path = tmp_path / ("bad-%s.pinball" % shape)
    bad = _rebuilt(pinball, path, fmt,
                   snapshot=_snapshot_shapes(pinball.snapshot)[shape])
    with pytest.raises(PinballFormatError,
                       match=re.escape(str(path)) + ": malformed region "
                       "snapshot"):
        replay(bad, program)


@pytest.mark.parametrize("shape", ["empty", "list", "memory-int"])
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
