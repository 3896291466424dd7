"""Differential: every decodable shape and subop against the legacy oracle.

The generated corpora (progen, struct-progen) and the bundled workloads
never decode several shapes of :data:`repro.vm.microops.SHAPES` (constant
operands in first position, ``halt``, ``icall``, pushes and stores of
immediates) nor several subops (``le``, ``shl``, ``float``, ``not``, ...).
The hand-assembled programs here decode all of them, and the predecoded
engine must equal the legacy interpreter on

* the full :class:`~repro.vm.hooks.InstrEvent` stream (retaining and
  recycled-event tools alike), output and final snapshot;
* recording bytes in v1 and in v2 with embedded checkpoints;
* relog (slice pinball) bytes;

and every traced event must carry exactly the register and memory
effects :func:`~repro.vm.microops.instr_effects` reads from the shape's
body.  A shape or subop the corpus does not decode fails
:func:`test_corpus_decodes_every_shape_and_subop`.
"""

import random
import re

import pytest

from repro.isa.assembler import assemble
from repro.isa.instructions import Opcode
from repro.pinplay import RegionSpec, record_region, relog
from repro.vm import RandomScheduler, RoundRobinScheduler
from repro.vm.machine import Machine
from repro.vm.microops import SHAPES, SUBOPS, decode_program, instr_effects

from tests.support.progen import EagerLog, RetainingLog

#: Two workers race on ``g`` while walking every register, immediate and
#: memory shape; main covers the constant-only shapes and ends in HALT.
ALL_SHAPES = """
.global g 4
.global acc 1
.data jt = case_a case_b

func helper(x)
  ld    r0, [sp+1]
  mul   r0, r0, 3
  ret

func work(n)
  ld    r2, [sp+1]
  lea   r3, g
  mov   r4, r2
loop:
  add   r5, r4, r2
  sub   r5, r5, 1
  mul   r5, 2, r5
  div   r6, r5, 3
  mod   r7, r5, r4
  and   r6, r6, r7
  or    r6, r6, 8
  xor   r6, 5, r6
  shl   r6, r6, 2
  shr   r6, r6, 1
  eq    r7, r6, r5
  ne    r7, r7, 0
  lt    r7, r4, 3
  le    r7, 4, r4
  gt    r7, r7, 0
  ge    r7, r4, r2
  neg   r6, r6
  not   r7, r7
  float r6, r6
  div   r6, r6, 2
  int   r6, r6
  ld    r0, [r3]
  add   r0, r0, r6
  st    [r3], r0
  st    [r3+1], 7
  push  r4
  push  9
  pop   r1
  pop   r1
  push  r4
  call  helper
  pop   r1
  lea   r1, helper
  push  r4
  icall r1
  pop   r1
  nop
  sub   r4, r4, 1
  brz   r4, out
  jmp   loop
out:
  lea   r1, jt
  ld    r1, [r1+1]
  ijmp  r1
case_a:
  mov   r0, 1
  ret
case_b:
  mov   r0, 2
  ret

func main
  div   r1, 7, 2
  mod   r2, -7, 2
  le    r3, 1, 2
  float r4, 3
  not   r5, 0
  neg   r6, 2
  int   r7, 2.5
  mov   r0, 1
  br    r0, go
  nop
go:
  lea   r0, work
  mov   r1, 3
  sys   spawn
  mov   r5, r0
  lea   r0, work
  mov   r1, 4
  sys   spawn
  mov   r6, r0
  mov   r0, r5
  sys   join
  mov   r0, r6
  sys   join
  lea   r1, acc
  st    [r1], r0
  lea   r1, g
  ld    r0, [r1]
  sys   print
  halt
  nop
"""

#: Random schedules interleave the workers finely; round-robin quanta
#: also run the predecoded engine's batch loops.
SCHEDULES = {
    "random0": lambda: RandomScheduler(seed=0, switch_prob=0.3),
    "random1": lambda: RandomScheduler(seed=1, switch_prob=0.3),
    "random2": lambda: RandomScheduler(seed=2, switch_prob=0.3),
    "round_robin": lambda: RoundRobinScheduler(quantum=7),
}
SEEDS = sorted(SCHEDULES)
STEP_CAP = 20_000


@pytest.fixture(scope="module")
def program():
    return assemble(ALL_SHAPES, name="all_shapes")


def _scheduler(seed):
    return SCHEDULES[seed]()


def _run(program, seed, engine, tool):
    machine = Machine(program, scheduler=_scheduler(seed), engine=engine,
                      tools=[tool])
    machine.run(max_steps=STEP_CAP)
    assert machine.finished
    return machine


def test_corpus_decodes_every_shape_and_subop(program):
    """Each pc's handler comes from its shape's generated factory, and
    together they cover the whole table."""
    fast_table = decode_program(program)[0]
    seen = set()
    for pc, instr in enumerate(program.instructions):
        if instr.op == Opcode.SYS:
            continue
        filename = fast_table[pc].__code__.co_filename
        match = re.match(r"<microop (\w+)(?: (\w+))?>$", filename)
        assert match, "pc %d (%s) was not decoded" % (pc, instr)
        seen.add(match.groups())
    assert {shape for shape, _subop in seen} == set(SHAPES)
    for op, exprs in SUBOPS.items():
        assert {subop for _shape, subop in seen
                if subop in exprs} == set(exprs), op


@pytest.mark.parametrize("seed", SEEDS)
def test_event_streams_and_final_state_match(program, seed):
    legacy_log = RetainingLog()
    legacy = _run(program, seed, "legacy", legacy_log)
    pre_log = RetainingLog()
    pre = _run(program, seed, "predecoded", pre_log)
    eager = EagerLog()
    _run(program, seed, "predecoded", eager)

    assert legacy_log.frozen() == pre_log.frozen() == eager.frozen_events
    assert legacy_log.syscalls == pre_log.syscalls
    assert list(legacy.output) == list(pre.output)
    assert legacy.exit_code == pre.exit_code
    assert legacy.snapshot().to_dict() == pre.snapshot().to_dict()


def test_traced_effects_match_static_effects(program):
    log = RetainingLog()
    _run(program, "random0", "predecoded", log)
    for event in log.events:
        effects = instr_effects(event.instr)
        reads = tuple(dict.fromkeys(name for name, _ in event.reg_reads))
        writes = tuple(dict.fromkeys(name for name, _ in event.reg_writes))
        assert reads == effects.reads, event.instr
        if event.instr.op == Opcode.SYS:
            assert writes in ((), ("r0",))
            continue
        assert writes == effects.writes, event.instr
        assert bool(event.mem_reads) == effects.reads_mem, event.instr
        assert bool(event.mem_writes) == effects.writes_mem, event.instr


def _record(program, seed, engine, fmt):
    return record_region(program, _scheduler(seed), RegionSpec(),
                         engine=engine, pinball_format=fmt,
                         checkpoint_interval=23 if fmt == "v2" else None)


@pytest.mark.parametrize("fmt", ("v1", "v2"))
@pytest.mark.parametrize("seed", SEEDS)
def test_recordings_are_byte_identical(program, seed, fmt):
    legacy = _record(program, seed, "legacy", fmt)
    pre = _record(program, seed, "predecoded", fmt)
    assert legacy.mem_order, "the workers' race must leave access edges"
    assert (legacy.to_bytes(compress=False, format=fmt)
            == pre.to_bytes(compress=False, format=fmt))


@pytest.mark.parametrize("seed", SEEDS)
def test_relog_bytes_are_identical(program, seed):
    pinball = _record(program, seed, "predecoded", "v1")
    rng = random.Random(pinball.total_steps)
    keep = {int(tid): set(range(rng.randrange(3), count, 3))
            for tid, count in pinball.meta["thread_instr_counts"].items()}
    legacy = relog(pinball, program, keep, engine="legacy")
    pre = relog(pinball, program, keep, engine="predecoded")
    assert legacy.exclusions
    assert (legacy.to_bytes(compress=False)
            == pre.to_bytes(compress=False))
