"""Tests for the Maple analog: profiling, active scheduling, recording."""

import pytest

from repro.lang import compile_source
from repro.maple import (
    ActiveScheduler,
    InterleavingProfiler,
    IRoot,
    MemAccess,
    expose_and_record,
)
from repro.pinplay import replay
from repro.vm import Machine

# A lost-update atomicity bug that round-robin schedules never expose:
# both increments must interleave at instruction granularity.
ATOMICITY_BUG = """
int x;
int bump(int unused) {
    x = x + 1;
    return 0;
}
int main() {
    int a; int b;
    a = spawn(bump, 0);
    b = spawn(bump, 0);
    join(a);
    join(b);
    assert(x == 2, 11);
    return 0;
}
"""

# An order-violation bug: the producer publishes the ready flag *before*
# initializing the data it guards, so a consumer that wins the race reads
# uninitialized data.
ORDER_BUG = """
int data; int ready;
int producer(int unused) {
    ready = 1;
    data = 42;
    return 0;
}
int consumer(int unused) {
    while (ready == 0) { yield(); }
    assert(data == 42, 21);
    return 0;
}
int main() {
    int c; int p;
    c = spawn(consumer, 0);
    p = spawn(producer, 0);
    join(c);
    join(p);
    return 0;
}
"""


class TestIRoots:
    def test_conflicts(self):
        write = MemAccess(pc=1, is_write=True)
        read = MemAccess(pc=2, is_write=False)
        assert IRoot(write, read).conflicts()
        assert IRoot(read, write).conflicts()
        assert not IRoot(read, read).conflicts()

    def test_reversed(self):
        a, b = MemAccess(1, True), MemAccess(2, False)
        assert IRoot(a, b).reversed() == IRoot(b, a)

    def test_describe_with_program(self):
        program = compile_source(ATOMICITY_BUG)
        access = MemAccess(program.functions["bump"].entry, True)
        text = access.describe(program)
        assert "bump" in text


class TestProfiler:
    def test_observes_conflicting_pairs(self):
        program = compile_source(ATOMICITY_BUG)
        profiler = InterleavingProfiler(program)
        observed = profiler.run(seeds=range(3))
        assert observed
        assert all(root.conflicts() for root in observed)

    def test_predictions_are_unobserved_reversals(self):
        program = compile_source(ATOMICITY_BUG)
        profiler = InterleavingProfiler(program)
        observed = profiler.run(seeds=range(3))
        for predicted in profiler.predicted():
            assert predicted.reversed() in observed
            assert predicted not in observed

    def test_globals_only_filter(self):
        program = compile_source(ATOMICITY_BUG)
        limited = InterleavingProfiler(program, globals_only=True)
        limited.run(seeds=range(2))
        for root in limited.observed:
            # All access sites touch code; just confirm the pcs are valid.
            assert 0 <= root.first.pc < len(program.instructions)


class TestActiveScheduler:
    def test_forced_ordering_exposes_order_violation(self):
        program = compile_source(ORDER_BUG)
        profiler = InterleavingProfiler(program)
        profiler.run(seeds=range(3))
        candidates = profiler.predicted()
        assert candidates, "profiler predicted nothing to force"
        exposed = False
        for iroot in candidates:
            scheduler = ActiveScheduler(iroot, give_up_budget=5_000)
            machine = Machine(program, scheduler=scheduler)
            machine.run(max_steps=100_000)
            # Success: either the full iRoot was realized, or forcing its
            # first access already tripped the symptom (the failure stops
            # the run before the held second access can retire).
            if scheduler.realized or (machine.failure is not None
                                      and scheduler.first_done_by
                                      is not None):
                exposed = True
        assert exposed

    def test_gives_up_rather_than_livelock(self):
        program = compile_source(ATOMICITY_BUG)
        # An impossible iroot: second access in code that runs before any
        # other thread exists would starve without the give-up budget.
        iroot = IRoot(MemAccess(pc=10_000, is_write=True),
                      MemAccess(pc=program.functions["main"].entry,
                                is_write=False))
        scheduler = ActiveScheduler(iroot, give_up_budget=50)
        machine = Machine(program, scheduler=scheduler)
        result = machine.run(max_steps=100_000)
        assert machine.finished or result.reason in ("exit", "done")


class TestExposeAndRecord:
    def test_atomicity_bug_exposed_and_replayable(self):
        program = compile_source(ATOMICITY_BUG)
        result = expose_and_record(program, profile_seeds=range(3),
                                   max_active_runs=40)
        assert result.exposed
        machine, run = replay(result.pinball, program)
        assert run.failure is not None
        assert run.failure["code"] == 11

    def test_result_metadata(self):
        program = compile_source(ATOMICITY_BUG)
        result = expose_and_record(program, profile_seeds=range(3),
                                   max_active_runs=40)
        assert result.exposed_by in ("profiling", "active")
        if result.exposed_by == "active":
            assert result.iroot is not None
            assert result.active_runs >= 1

    def test_bug_free_program_not_exposed(self):
        source = """
int x; int m;
int bump(int unused) {
    lock(&m);
    x = x + 1;
    unlock(&m);
    return 0;
}
int main() {
    int a; int b;
    a = spawn(bump, 0);
    b = spawn(bump, 0);
    join(a); join(b);
    assert(x == 2, 11);
    return 0;
}
"""
        program = compile_source(source)
        result = expose_and_record(program, profile_seeds=range(2),
                                   max_active_runs=20)
        assert not result.exposed
        assert result.pinball is None
