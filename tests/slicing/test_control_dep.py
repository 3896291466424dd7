"""Tests for dynamic control-dependence detection (the Xin-Zhang walk)."""

import random

import pytest

from repro.lang import compile_source
from repro.pinplay import RegionSpec, record_region, replay
from repro.slicing import SliceOptions, SlicingSession, TraceCollector
from repro.slicing.control_dep import ControlDepWalk
from repro.vm import RoundRobinScheduler
from repro.vm.hooks import Tool

from tests.slicing.test_control_dep_oracle import (
    ENGINES, kernels, record_kernel, replay_with_reference, slice_pinballs)
from tests.support.progen import (build_program, build_struct_program,
                                  record_pinball)


def trace_program(source, options=None, inputs=()):
    program = compile_source(source)
    pinball = record_region(program, RoundRobinScheduler(), RegionSpec(),
                            inputs=inputs)
    collector = TraceCollector(program, options or SliceOptions())
    replay(pinball, program, tools=[collector], verify=False)
    return program, collector


def cd_lines(program, collector, tid=0):
    """Map line -> set of lines its instructions are control dependent on."""
    result = {}
    records = collector.store.by_thread[tid]
    for rec in records:
        if rec.line is None:
            continue
        if rec.cd is not None:
            parent = collector.store.get(rec.cd)
            if parent.line is not None and parent.line != rec.line:
                result.setdefault(rec.line, set()).add(parent.line)
    return result


class TestIfElse:
    SOURCE = """
int g;
int main() {
    int x; int y;
    x = input();
    if (x > 0) {
        y = 1;
    } else {
        y = 2;
    }
    g = y;
    return 0;
}
"""

    def test_then_branch_depends_on_condition(self):
        program, collector = trace_program(self.SOURCE, inputs=[5])
        deps = cd_lines(program, collector)
        # Line 7 (y = 1) is control dependent on line 6 (if).
        assert 6 in deps.get(7, set())

    def test_join_point_not_dependent(self):
        program, collector = trace_program(self.SOURCE, inputs=[5])
        deps = cd_lines(program, collector)
        # Line 11 (g = y) executes on both paths: no dependence on the if.
        assert 6 not in deps.get(11, set())


class TestLoops:
    SOURCE = """
int g;
int main() {
    int i;
    for (i = 0; i < 3; i = i + 1) {
        g = g + i;
    }
    g = g * 2;
    return 0;
}
"""

    def test_body_depends_on_loop_condition(self):
        program, collector = trace_program(self.SOURCE)
        deps = cd_lines(program, collector)
        assert 5 in deps.get(6, set())

    def test_code_after_loop_independent(self):
        program, collector = trace_program(self.SOURCE)
        deps = cd_lines(program, collector)
        assert 5 not in deps.get(8, set())

    def test_each_iteration_depends_on_its_own_branch_instance(self):
        program, collector = trace_program(self.SOURCE)
        records = collector.store.by_thread[0]
        body_cds = {rec.cd for rec in records
                    if rec.line == 6 and rec.cd is not None}
        # Three iterations, three distinct controlling branch instances.
        assert len(body_cds) == 3


class TestNested:
    SOURCE = """
int g;
int main() {
    int i; int j;
    for (i = 0; i < 2; i = i + 1) {
        if (i > 0) {
            g = g + 10;
        }
    }
    return 0;
}
"""

    def test_transitive_chain_through_nesting(self):
        program, collector = trace_program(self.SOURCE)
        records = collector.store.by_thread[0]
        # The body (line 7) chains: line 7 -> if (line 6) -> for (line 5).
        body = [rec for rec in records if rec.line == 7 and rec.cd]
        assert body
        if_inst = collector.store.get(body[0].cd)
        assert if_inst.line == 6
        for_inst = collector.store.get(if_inst.cd)
        assert for_inst.line == 5


class TestCalls:
    SOURCE = """
int g;
int callee(int v) {
    g = v;
    return v + 1;
}
int main() {
    int x;
    x = input();
    if (x) {
        callee(5);
    }
    return 0;
}
"""

    def test_callee_control_dependent_on_call_site(self):
        program, collector = trace_program(self.SOURCE, inputs=[1])
        records = collector.store.by_thread[0]
        callee_recs = [rec for rec in records if rec.func == "callee"]
        assert callee_recs
        # Chain: callee instr -> call instr -> guarding if.
        parent = collector.store.get(callee_recs[0].cd)
        assert parent.func == "main"
        grandparent = collector.store.get(parent.cd)
        assert grandparent.line == 10  # the if

    def test_recursion_keeps_frames_separate(self):
        source = """
int g;
int fact(int n) {
    if (n < 2) { return 1; }
    return n * fact(n - 1);
}
int main() {
    g = fact(4);
    return 0;
}
"""
        program, collector = trace_program(source)
        # Sanity: trace completed and every record has a resolvable cd.
        for rec in collector.store.by_thread[0]:
            if rec.cd is not None:
                assert rec.cd in collector.store


def compare_frames(program, pinball, engine):
    """The walk's simulated frame id equals ``InstrEvent.frame_id`` on
    every row; returns how many rows a walk that ignored exclusion skips
    would have got wrong."""
    collector, reference = replay_with_reference(
        program, pinball, SliceOptions(), engine)
    store = collector.store
    unskipped_wrong = 0
    for tid in store.threads():
        pcs = [store.get((tid, t)).addr
               for t in range(store.thread_length(tid))]
        entry = reference.entry.get(tid, ((0,), 1))
        ends = collector.region_ends.by_thread.get(tid, ())
        resets = reference.machine.exclusion_frames.get(tid, ())
        simulated = []
        ControlDepWalk(*entry).extend(collector._classes, pcs, ends, resets,
                                      frame_ids=simulated)
        assert simulated == reference.frame_ids[tid], (
            "simulated frame ids differ in thread %d" % tid)
        unskipped = []
        ControlDepWalk(*entry).extend(collector._classes, pcs, ends,
                                      frame_ids=unskipped)
        unskipped_wrong += sum(
            a != b for a, b in zip(unskipped, reference.frame_ids[tid]))
    return unskipped_wrong


@pytest.mark.parametrize("engine", ENGINES)
def test_simulated_frame_ids(engine):
    for seed in range(6):
        for program in (build_program(seed), build_struct_program(seed)):
            compare_frames(program, record_pinball(program, seed), engine)
    for _name, program in kernels():
        compare_frames(program, record_kernel(program), engine)


@pytest.mark.parametrize("engine", ENGINES)
def test_simulated_frame_ids_follow_exclusion_skips(engine):
    """The walk follows the frames each exclusion skip installs; the
    corpus really has skips that change the frame stack."""
    skipped_frames = sum(compare_frames(program, slice_pinball, engine)
                         for program, slice_pinball
                         in slice_pinballs(engine))
    assert skipped_frames > 0


class _FrameStackProbe(Tool):
    """Notes each retire after which its thread's stack holds one frame
    id twice."""

    wants_instr_events = True
    retains_instr_events = False

    def on_start(self, machine):
        self.machine = machine
        self.duplicates = []

    def on_instr(self, event):
        ids = [f.frame_id for f in self.machine.threads[event.tid].frames]
        if len(set(ids)) != len(ids):
            self.duplicates.append((event.tid, event.tindex))


@pytest.mark.parametrize("engine", ENGINES)
def test_calls_after_exclusion_skips_take_fresh_frame_ids(engine):
    """A skip installs the recorded run's frames; a kept call after it
    must not reuse an id still on the stack (some tree_sum slices here
    keep such a call), and the walk's simulated ids follow.  The walk
    raises its next id at a frame reset as the skip does;
    ``test_control_dep_oracle``'s slice pinballs pin that half."""
    rng = random.Random(11)
    for _name, program in kernels():
        pinball = record_kernel(program)
        session = SlicingSession(pinball, program, engine=engine)
        store = session.collector.store
        for tid in store.threads():
            for _ in range(4):
                criterion = (tid, rng.randrange(store.thread_length(tid)))
                slice_pinball = session.make_slice_pinball(
                    session.slice_for(criterion))
                probe = _FrameStackProbe()
                replay(slice_pinball, program, tools=[probe], verify=False,
                       engine=engine)
                assert probe.duplicates == [], criterion
                compare_frames(program, slice_pinball, engine)
