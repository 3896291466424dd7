"""The control-dependence walk against an independent, event-fed reference.

Both slicing engines compute controlling instances with one offline walk
(:class:`~repro.slicing.control_dep.ControlDepWalk`), so the engine
differentials compare that walk with itself.  This suite checks it from
outside: :class:`ReferenceTracker` is the Xin-Zhang region stack driven
the way an online tool would drive it — by each
:class:`~repro.vm.hooks.InstrEvent`'s own ``frame_id``, the machine's
callee frame after a call, and region ends read from its own,
unmemoized CFGs at retire time.  Attached to the same replay as a
:class:`~repro.slicing.tracer.TraceCollector`, it must name the same
controlling instance for every row — including replays of slice
pinballs, whose exclusion skips install frames mid-thread.  The suite
uses only the collector's public surface; ``test_control_dep`` checks the
walk's simulated frame ids against the same reference.
"""

import random

import pytest

from repro.analysis.registry import CfgRegistry
from repro.isa.instructions import Opcode
from repro.pinplay import RegionSpec, record_region, replay
from repro.pinplay.replayer import replay_machine
from repro.slicing import SliceOptions, SlicingSession, TraceCollector
from repro.slicing.tracer import prime_jump_tables
from repro.vm import RandomScheduler
from repro.vm.hooks import Tool
from repro.workloads import get_parsec, get_pointer, get_specomp

from tests.support.progen import (build_program, build_struct_program,
                                  record_pinball)

ENGINES = ("predecoded", "legacy")


class ReferenceTracker(Tool):
    """The online rule: one region stack per thread, fed by events."""

    wants_instr_events = True
    retains_instr_events = False

    def __init__(self, program, options):
        self.registry = CfgRegistry(program, refine=options.refine_cfg)
        if options.discover_jump_tables:
            prime_jump_tables(self.registry, program)
        self.stacks = {}
        #: tid -> controlling tindex (-1: none) per row.
        self.cd = {}
        #: tid -> InstrEvent.frame_id per row.
        self.frame_ids = {}

    def on_start(self, machine):
        self.machine = machine
        #: tid -> (frame ids, next frame id) when the replay started.
        self.entry = {tid: ([f.frame_id for f in thread.frames],
                            thread._next_frame_id)
                      for tid, thread in machine.threads.items()}

    def on_instr(self, event):
        tid = event.tid
        frame = event.frame_id
        stack = self.stacks.setdefault(tid, [])
        while stack and stack[-1][0] == frame and stack[-1][2] == event.addr:
            stack.pop()
        self.cd.setdefault(tid, []).append(stack[-1][1] if stack else -1)
        self.frame_ids.setdefault(tid, []).append(frame)
        op = event.instr.op
        if op == Opcode.IJMP:
            self.registry.observe_indirect_jump(
                event.addr, int(event.reg_reads[0][1]))
            cfg = self.registry.cfg_for_addr(event.addr)
            if not cfg.indirect_targets.get(event.addr):
                op = None       # no known targets: no region
        if op in (Opcode.BR, Opcode.BRZ, Opcode.IJMP):
            cfg = self.registry.cfg_for_addr(event.addr)
            end = cfg.ipostdom_addr(event.addr)
            region = (frame, event.tindex, end)
            if stack and stack[-1][0] == frame and stack[-1][2] == end:
                stack[-1] = region
            else:
                stack.append(region)
        elif op in (Opcode.CALL, Opcode.ICALL):
            callee = self.machine.threads[tid].frames[-1].frame_id
            stack.append((callee, event.tindex, None))
        elif op == Opcode.RET:
            while stack and stack[-1][0] == frame:
                stack.pop()


def replay_with_reference(program, pinball, options, engine):
    """One replay with both tools attached."""
    collector = TraceCollector(program, options)
    reference = ReferenceTracker(program, options)
    replay(pinball, program, tools=[collector, reference], verify=False,
           engine=engine)
    assert collector.store.threads() == sorted(reference.cd)
    return collector, reference


def _compare(program, pinball, options, engine):
    """Every row's controlling instance equals the reference's."""
    collector, reference = replay_with_reference(program, pinball, options,
                                                 engine)
    store = collector.store
    for tid in store.threads():
        rows = store.thread_length(tid)
        got = [store.get((tid, t)).cd for t in range(rows)]
        want = [None if c < 0 else (tid, c) for c in reference.cd[tid]]
        assert got == want, (
            "controlling instances differ in thread %d" % tid)


def kernels():
    yield "blackscholes", get_parsec("blackscholes").build(units=6, nthreads=3)
    yield "canneal", get_parsec("canneal").build(units=6, nthreads=3)
    yield "dedup", get_parsec("dedup").build(units=6, nthreads=3)
    yield "swaptions", get_parsec("swaptions").build(units=4, nthreads=2)
    yield "ammp", get_specomp("ammp").build(units=6)
    yield "mgrid", get_specomp("mgrid").build(units=6)
    yield "tree_sum", get_pointer("tree_sum").build(units=6, nthreads=2)
    yield "hashchain", get_pointer("hashchain").build(units=6, nthreads=2)


def record_kernel(program):
    return record_region(program, RandomScheduler(seed=1, switch_prob=0.1),
                         RegionSpec())


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", range(6))
def test_progen_corpus(engine, seed):
    for program in (build_program(seed), build_struct_program(seed)):
        pinball = record_pinball(program, seed)
        for options in (SliceOptions(), SliceOptions(refine_cfg=False),
                        SliceOptions(discover_jump_tables=True)):
            _compare(program, pinball, options, engine)


@pytest.mark.parametrize("engine", ENGINES)
def test_kernels(engine):
    for _name, program in kernels():
        pinball = record_kernel(program)
        _compare(program, pinball, SliceOptions(), engine)
        _compare(program, pinball, SliceOptions(refine_cfg=False), engine)


def slice_pinballs(engine):
    """Slices at instructions spread over every thread keep callee code
    whose returns are excluded (and the reverse), so their replays skip
    across calls and returns."""
    rng = random.Random(7)
    for _name, program in kernels():
        pinball = record_kernel(program)
        session = SlicingSession(pinball, program, engine=engine)
        store = session.collector.store
        for tid in store.threads():
            criterion = (tid, rng.randrange(store.thread_length(tid)))
            slice_pinball = session.make_slice_pinball(
                session.slice_for(criterion))
            assert slice_pinball.exclusions
            yield program, slice_pinball


@pytest.mark.parametrize("engine", ENGINES)
def test_slice_pinballs(engine):
    for program, slice_pinball in slice_pinballs(engine):
        _compare(program, slice_pinball, SliceOptions(), engine)


def test_split_runs_walk_every_row():
    """A replay run in pieces walks the rows each piece adds."""
    program = get_parsec("canneal").build(units=6, nthreads=3)
    pinball = record_kernel(program)
    whole = TraceCollector(program)
    replay(pinball, program, tools=[whole], verify=False)
    pieces = TraceCollector(program)
    machine = replay_machine(pinball, program, tools=[pieces])
    remaining = pinball.total_steps
    while remaining > 0:
        remaining -= machine.run(max_steps=min(remaining, 97)).steps
    for tid in whole.store.threads():
        rows = whole.store.thread_length(tid)
        assert ([pieces.store.get((tid, t)).cd for t in range(rows)]
                == [whole.store.get((tid, t)).cd for t in range(rows)])
