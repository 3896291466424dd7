"""Cross-engine relog differential.

On the predecoded engine :func:`relog` replays the region through the
machine's selective branch; on the legacy engine it runs
:class:`~repro.pinplay.relogger.RelogTool` over a traced replay.  The
traced relogger is the oracle: both engines must write byte-identical
slice pinballs (schedule, exclusion records and their order, meta key
order) for every keep set.

Programs: the shared randomized corpora (:mod:`tests.support.progen`,
seeds 0-11 of each), pbzip2 (lock syscalls that block) and uaf_chase
(heap poison in the snapshot), plus a hand-built program in which a
kept lock syscall blocks while its thread has an excluded run open.
Keep sets: empty, full, and three seeded slices per program.
"""

import random

import pytest

from repro.isa.instructions import Opcode
from repro.lang import compile_source
from repro.obs import OBS
from repro.pinplay import (RegionSpec, RelogError, record_region, relog,
                           replay)
from repro.slicing import SlicingSession
from repro.vm import ReplayDivergence, RoundRobinScheduler
from repro.vm.hooks import Tool
from repro.workloads import get_bug, get_pointer_bug

from tests.support.progen import (build_program, build_struct_program,
                                  record_pinball)

ENGINES = ("legacy", "predecoded")

SEEDS = list(range(12))

#: The waiter's short loop ends in ``lock`` while the holder keeps the
#: lock for a long loop: the lock blocks with the waiter's loop (excluded
#: under an empty keep set) still an open run.
BLOCKING_SOURCE = """
int m; int x; int y;
int holder(int n) {
    int i;
    lock(&m);
    for (i = 0; i < n; i = i + 1) { x = x + i; }
    unlock(&m);
    return 0;
}
int waiter(int n) {
    int i;
    for (i = 0; i < n; i = i + 1) { y = y + i; }
    lock(&m);
    y = y + x;
    unlock(&m);
    return 0;
}
int main() {
    int a; int b;
    a = spawn(holder, 40);
    b = spawn(waiter, 3);
    join(a);
    join(b);
    print(y);
    return 0;
}
"""

#: A 20-iteration loop that ends with print(b); its slice pinball prints 210.
LOOP_SOURCE = """
int b;
int main() {
    int i;
    for (i = 1; i < 21; i = i + 1) { b = b + i; }
    print(b);
    return 0;
}
"""

CASES = (["progen-%d" % seed for seed in SEEDS]
         + ["struct-%d" % seed for seed in SEEDS]
         + ["pbzip2", "uaf_chase", "blocking"])


def _recording(case):
    """(program, region pinball) for one differential case."""
    if case.startswith("progen-"):
        seed = int(case.split("-")[1])
        program = build_program(seed)
        return program, record_pinball(program, seed)
    if case.startswith("struct-"):
        seed = int(case.split("-")[1])
        program = build_struct_program(seed)
        return program, record_pinball(program, seed)
    if case == "blocking":
        program = compile_source(BLOCKING_SOURCE, name="blocking")
        return program, record_region(program, RoundRobinScheduler(5),
                                      RegionSpec())
    bug = get_bug(case) if case == "pbzip2" else get_pointer_bug(case)
    program = bug.build()
    pinball, _seed = bug.expose(program)
    assert pinball is not None, "no failing schedule for %s" % case
    return program, pinball


def _thread_counts(pinball):
    return {int(tid): int(count) for tid, count
            in pinball.meta["thread_instr_counts"].items()}


def _keep_sets(case, program, pinball):
    """Empty, full, and three seeded slices."""
    counts = _thread_counts(pinball)
    yield "empty", {}
    yield "full", {tid: set(range(count)) for tid, count in counts.items()}
    rng = random.Random(case)
    session = SlicingSession(pinball, program, engine="predecoded")
    tids = sorted(tid for tid, count in counts.items() if count)
    for number in range(3):
        tid = rng.choice(tids)
        criterion = (tid, rng.randrange(counts[tid]))
        yield "slice-%d" % number, session.slice_for(criterion).to_keep()


@pytest.mark.parametrize("case", CASES)
def test_slice_pinballs_are_byte_identical_across_engines(case):
    program, pinball = _recording(case)
    for label, keep in _keep_sets(case, program, pinball):
        oracle = relog(pinball, program, keep, engine="legacy")
        selective = relog(pinball, program, keep, engine="predecoded")
        assert (selective.to_bytes(format="v1")
                == oracle.to_bytes(format="v1")), (case, label)
        assert list(selective.meta) == list(oracle.meta), (case, label)


class _SyscallAttempts(Tool):
    """Scheduler steps spent on each syscall instance, blocked retries
    included: (tid, tindex) -> global step of every attempt."""

    def __init__(self):
        self.machine = None
        self.attempts = {}

    def on_start(self, machine):
        self.machine = machine

    def on_step(self, tid):
        thread = self.machine.threads[tid]
        if self.machine.instructions[thread.pc].op == Opcode.SYS:
            self.attempts.setdefault((tid, thread.instr_count), []).append(
                self.machine.global_seq)


def test_blocked_syscall_closes_the_open_run_when_it_retires():
    program, pinball = _recording("blocking")
    probe = _SyscallAttempts()
    replay(pinball, program, tools=[probe])
    waiter = 2
    blocked = {key: seqs for key, seqs in probe.attempts.items()
               if key[0] == waiter and len(seqs) > 1}
    assert blocked, "the waiter's lock never blocked"
    (tid, tindex), seqs = next(iter(blocked.items()))
    # The instruction before the lock is not a syscall, so under an empty
    # keep set the lock blocks with an excluded run open ...
    assert (tid, tindex - 1) not in probe.attempts
    # ... for several steps of the other threads.
    assert seqs[-1] - seqs[0] >= 10

    for engine in ENGINES:
        slice_pb = relog(pinball, program, {}, engine=engine)
        machine, _ = replay(slice_pb, program)
        assert machine.output == pinball.meta["output"]
    oracle = relog(pinball, program, {}, engine="legacy")
    # The holder's run closed (at unlock) while the waiter was blocked, so
    # the waiter's record must come after it: records are in close order.
    closing = [record["tid"] for record in oracle.exclusions]
    waiter_close = [index for index, record in enumerate(oracle.exclusions)
                    if record["tid"] == waiter][0]
    assert 1 in closing[:waiter_close]


@pytest.mark.parametrize("engine", ENGINES)
def test_relog_obs_counters(engine):
    program, pinball = _recording("progen-3")
    counts = _thread_counts(pinball)
    session = SlicingSession(pinball, program, engine="predecoded")
    keep = session.slice_for(session.last_reads(1)[0]).to_keep()
    with OBS.scope(enabled=True):
        OBS.reset()
        try:
            slice_pb = relog(pinball, program, keep, engine=engine)
            counters = OBS.counters()
        finally:
            OBS.reset()
    meta = slice_pb.meta
    assert counters["pinplay.relogs"] == 1
    assert counters["pinplay.excluded_runs"] == meta["excluded_runs"]
    assert counters["pinplay.kept_instructions"] == meta["kept_instructions"]
    assert (counters["pinplay.excluded_instructions"]
            == sum(counts.values()) - meta["kept_instructions"])
    assert meta["excluded_runs"] > 0
    # The predecoded relog rides the selective branch: a silent fallback
    # to the traced path would count its steps as vm.steps_traced.
    traced = counters.get("vm.steps_traced", 0)
    selective = counters.get("vm.steps_selective", 0)
    if engine == "predecoded":
        assert (traced, selective) == (0, pinball.total_steps)
    else:
        assert (traced, selective) == (pinball.total_steps, 0)


def _loop_slice_pinball():
    program = compile_source(LOOP_SOURCE, name="loop")
    pinball = record_region(program, RoundRobinScheduler(), RegionSpec())
    session = SlicingSession(pinball, program, engine="predecoded")
    dslice = session.slice_for_global("b")
    return program, relog(pinball, program, dslice.to_keep()), dslice


@pytest.mark.parametrize("engine", ENGINES)
def test_relogging_a_slice_pinball_is_refused(engine):
    program, slice_pb, dslice = _loop_slice_pinball()
    machine, _ = replay(slice_pb, program)
    assert machine.output == [210]
    assert slice_pb.exclusions
    with pytest.raises(RelogError) as excinfo:
        relog(slice_pb, program, dslice.to_keep(), engine=engine)
    assert isinstance(excinfo.value, ValueError)
    message = str(excinfo.value)
    assert "slice pinball" in message
    assert "%d exclusion" % len(slice_pb.exclusions) in message


@pytest.mark.parametrize("engine", ENGINES)
def test_thread_ending_inside_an_excluded_run_is_divergence(engine):
    # Without per-thread counts the relogger cannot keep each thread's
    # final instruction, so the main thread exits inside an excluded run.
    program = compile_source(LOOP_SOURCE, name="loop")
    pinball = record_region(program, RoundRobinScheduler(), RegionSpec())
    del pinball.meta["thread_instr_counts"]
    with pytest.raises(ReplayDivergence, match=r"threads \[0\] ended"):
        relog(pinball, program, {}, engine=engine)
