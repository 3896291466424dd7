"""Rewinding a slice pinball.

A slice pinball's replay skips each excluded run by counting the
thread's arrivals at the run's start pc, so a checkpoint of that replay
must carry the arrival counters as well as the machine state: resumed
without them, the machine would skip the wrong arrival.  Slice pinballs
embed no checkpoints, so every rewind here restores a live one.  Each
seek must land on exactly the state a plain forward replay reaches at
the same step.
"""

import pytest

from repro.debugger import DrDebugSession
from repro.pinplay import Pinball, relog, replay_machine
from repro.pinplay.pinball import state_hash
from repro.slicing import SlicingSession

from tests.support.progen import build_program, record_pinball

SEED = 5
INTERVAL = 16


def _state(machine):
    return (state_hash(machine), machine.global_seq, list(machine.output),
            {tid: thread.instr_count
             for tid, thread in sorted(machine.threads.items())},
            dict(machine._excl_arrivals))


@pytest.mark.parametrize("fmt", ["v1", "v2"])
def test_seeks_on_a_slice_pinball_match_forward_replay(fmt):
    program = build_program(SEED)
    recorded = record_pinball(program, SEED, pinball_format=fmt,
                              checkpoint_interval=64)
    recorded = Pinball.from_bytes(recorded.to_bytes(format=fmt))
    slicing = SlicingSession(recorded, program)
    keep = slicing.slice_for(slicing.last_reads(1)[0]).to_keep()
    pinball = relog(recorded, program, keep)
    assert pinball.exclusions and not pinball.checkpoints

    session = DrDebugSession(pinball, program)
    session.enable_reverse_debugging(INTERVAL)
    session.run()
    total = pinball.total_steps
    assert session.steps_done == total

    backwards = [total * k // 7 for k in range(6, 0, -1)]
    arrivals = 0
    for target in backwards + backwards[::-1]:
        session.seek(target)
        assert session.steps_done == target
        reference = replay_machine(pinball, program)
        reference.run(max_steps=target)
        assert _state(session.machine) == _state(reference), target
        arrivals += sum(reference._excl_arrivals.values())
    assert arrivals, "no seek landed past an exclusion arrival"
