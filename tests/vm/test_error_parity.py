"""Error parity: every engine and handler path fails the same way.

Each case is a small program whose run faults (or, for a float operand
to ``and``, deliberately does not).  It runs under the legacy
interpreter, the predecoded engine untraced, the predecoded engine
traced with a non-retaining tool, and ``record_region`` (the record
handlers).  All four must raise the same exception type with the same
message, ``tid`` and ``pc``, or none may raise.
"""

import traceback

import pytest

from repro.isa.assembler import assemble
from repro.pinplay import RegionSpec, record_region
from repro.vm import RoundRobinScheduler
from repro.vm.errors import VMError
from repro.vm.machine import Machine

from tests.support.progen import EagerLog


def _zero_division(op):
    """``op`` by zero in each of the four binop operand shapes."""
    return {
        "%s_rr" % op: "mov r1, 5\n mov r2, 0\n %s r0, r1, r2" % op,
        "%s_ri" % op: "mov r1, 5\n %s r0, r1, 0" % op,
        "%s_ir" % op: "mov r2, 0\n %s r0, 5, r2" % op,
        "%s_ii" % op: "%s r0, 5, 0" % op,
    }


#: Case name -> body of ``func main`` (extra functions follow it).
CASES = dict(_zero_division("div"), **_zero_division("mod"))
CASES.update({
    "overflow_push_imm": "loop:\n push 1\n jmp loop",
    "overflow_push_reg": "mov r1, 2\nloop:\n push r1\n jmp loop",
    "overflow_call": "call main",
    "overflow_icall": "lea r1, main\n icall r1",
    "bad_ijmp": "mov r0, 999\n ijmp r0",
    "bad_icall": "mov r0, 999\n icall r0",
    "bad_ret": "push 999\n ret",
    "bad_call": "call 999",
    "bad_jmp": "jmp 999",
    "bad_br": "mov r0, 1\n br r0, 999",
    "fall_off_end": "mov r0, 1\n nop",
    "shl_negative": "mov r1, -1\n shl r0, r0, r1",
    "and_float": "mov r1, 1.5\n and r0, r1, 3\n halt",
})


def _program(name):
    return assemble("func main\n %s\n" % CASES[name], name=name)


def _legacy(program):
    Machine(program, engine="legacy").run()


def _untraced(program):
    Machine(program, engine="predecoded").run()


def _traced(program):
    Machine(program, engine="predecoded", tools=[EagerLog()]).run()


def _recorded(program):
    record_region(program, RoundRobinScheduler(), RegionSpec(),
                  engine="predecoded")


PATHS = {"legacy": _legacy, "untraced": _untraced, "traced": _traced,
         "record": _recorded}


def _outcome(run, program):
    try:
        run(program)
    except Exception as exc:   # the parity covers host errors too
        return (type(exc), str(exc), getattr(exc, "tid", None),
                getattr(exc, "pc", None))
    return None


@pytest.mark.parametrize("name", sorted(CASES))
def test_all_paths_fail_alike(name):
    outcomes = {path: _outcome(run, _program(name))
                for path, run in PATHS.items()}
    expected = outcomes["legacy"]
    assert all(outcome == expected for outcome in outcomes.values()), \
        outcomes
    if name == "and_float":
        assert expected is None
    elif name == "shl_negative":
        assert expected[0] is ValueError
    else:
        assert issubclass(expected[0], VMError)
        assert expected[2] == 0   # the main thread
        assert expected[3] is not None


def test_handler_traceback_names_the_shape():
    """A fault inside a generated handler shows the shape's file name
    and the body line that raised."""
    program = _program("overflow_push_imm")
    with pytest.raises(VMError) as info:
        _untraced(program)
    frames = [frame for frame in traceback.extract_tb(info.value.__traceback__)
              if frame.filename == "<microop push_imm>"]
    assert frames, "no frame from the push_imm handler"
    assert frames[-1].line == \
        'raise VMError("stack overflow", tid=thread.tid, pc=pc)'
