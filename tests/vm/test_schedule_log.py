"""Differential: the run loop's schedule log equals a per-step log.

:meth:`Machine.set_schedule_log` arms the RLE schedule log the run loop
keeps inline: whole runs reach the log, with no call per step, on the
untraced table.  The oracle is a :class:`ScheduleRecorder` fed one step
at a time from a tool's ``on_step`` (which also keeps every step
picked).  On both engines, under random, active, perturbed and
round-robin schedulers, the two agree after every chunk of a seeded
``run(max_steps=k)`` sequence (a run split over several calls), on a
run cut by the step cap, and on a program whose lock and join attempts
block.  The pinball recorder, which logs through the same loop, keeps
its bytes: fast and event-based recordings of the ``cycle`` benchmark's
region are identical.
"""

import random

import pytest

from repro.analysis.hunt import PerturbedScheduler
from repro.isa.instructions import Opcode
from repro.lang import compile_source
from repro.maple import ActiveScheduler, IRoot, MemAccess
from repro.obs.registry import OBS
from repro.pinplay import RegionSpec, record_region
from repro.vm import Machine, RandomScheduler, RoundRobinScheduler
from repro.vm.errors import VMError
from repro.vm.hooks import Tool
from repro.vm.machine import ENGINES
from repro.vm.scheduler import ScheduleRecorder
from repro.workloads import get_parsec

#: Three workers contend on one lock around a shared counter; main's
#: joins block until they finish.
CONTENDED = """
int total; int m;
int worker(int n) {
    int i;
    for (i = 0; i < n; i = i + 1) {
        lock(&m);
        total = total + i;
        unlock(&m);
    }
    return 0;
}
int main() {
    int a; int b; int c;
    a = spawn(worker, 9);
    b = spawn(worker, 7);
    c = spawn(worker, 5);
    join(a); join(b); join(c);
    print(total);
    return 0;
}
"""

CHUNKS = (1, 2, 3, 5, 8, 13, 40, 150, 700)


class _StepLog(Tool):
    def __init__(self) -> None:
        self.schedule = ScheduleRecorder()

    def on_step(self, tid: int) -> None:
        self.schedule.record(tid)


@pytest.fixture(scope="module")
def program():
    return compile_source(CONTENDED, name="contended")


def _mutated(runs, seed):
    rng = random.Random(seed)
    runs = [list(run) for run in runs]
    for _ in range(max(1, len(runs) // 3)):
        at = rng.randrange(len(runs))
        runs[at][1] = max(1, runs[at][1] + rng.choice((-4, -1, 3, 11)))
    at = rng.randrange(len(runs) - 1)
    runs[at], runs[at + 1] = runs[at + 1], runs[at]
    return runs


def _schedulers(program):
    store = [pc for pc, instr in enumerate(program.instructions)
             if instr.op == Opcode.ST
             and program.function_at(pc).name == "worker"][0]
    iroot = IRoot(MemAccess(store, True), MemAccess(store, True))
    recorded = record_region(program, RoundRobinScheduler(quantum=6),
                             RegionSpec())
    return {
        "random": lambda: RandomScheduler(seed=5, switch_prob=0.3),
        "active": lambda: ActiveScheduler(iroot, give_up_budget=40),
        "perturbed": lambda: PerturbedScheduler(
            _mutated(recorded.schedule, 3), quantum=7),
        "round_robin": lambda: RoundRobinScheduler(quantum=4),
    }


def _pair(program, make, engine):
    """(logged machine, its log, per-step machine, its tool)."""
    logged = Machine(program, scheduler=make(), engine=engine)
    log = ScheduleRecorder()
    logged.set_schedule_log(log)
    tool = _StepLog()
    oracle = Machine(program, scheduler=make(), tools=[tool], engine=engine)
    return logged, log, oracle, tool


def _pending(log):
    """The log's runs with the loop's pending run, without flushing."""
    runs = list(log.runs)
    if log._run_count:
        runs.append((log._run_tid, log._run_count))
    return runs


NAMES = ("random", "active", "perturbed", "round_robin")


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", NAMES)
def test_split_runs(program, engine, name):
    logged, log, oracle, tool = _pair(program, _schedulers(program)[name],
                                      engine)
    rng = random.Random(name)
    idle = 0
    while True:
        steps = rng.choice(CHUNKS)
        got = logged.run(max_steps=steps)
        want = oracle.run(max_steps=steps)
        assert (got.reason, got.steps, got.retired) == \
            (want.reason, want.steps, want.retired)
        assert _pending(log) == tool.schedule.runs
        idle += got.steps - got.retired
        if got.reason != "limit":
            break
    assert idle > 0, "no lock or join attempt blocked"
    assert log.finish() == tool.schedule.runs
    assert logged.output == oracle.output


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", NAMES)
def test_step_cap(program, engine, name):
    logged, log, oracle, tool = _pair(program, _schedulers(program)[name],
                                      engine)
    cap = 97
    assert logged.run(max_steps=cap).reason == "limit"
    oracle.run(max_steps=cap)
    assert log.finish() == tool.schedule.runs
    assert sum(count for _tid, count in log.runs) == cap


def test_logged_run_stays_untraced_and_batched(program):
    make = _schedulers(program)["round_robin"]
    with OBS.scope(enabled=True):
        OBS.reset()
        machine = Machine(program, scheduler=make(), engine="predecoded")
        machine.set_schedule_log(ScheduleRecorder())
        result = machine.run()
        counters = OBS.counters()
        OBS.reset()
    assert counters["vm.steps_untraced"] == result.steps
    assert counters["vm.steps_batched"] > 0
    assert counters.get("vm.steps_recorded", 0) == 0


def test_no_log_over_exclusions(program):
    # Exclusion skips take steps the loop does not log.
    machine = Machine(program)
    machine.install_exclusions([{"tid": 0, "start_pc": 0,
                                 "start_arrival": 1, "end_pc": 1,
                                 "regs": [], "mem": []}])
    with pytest.raises(VMError):
        machine.set_schedule_log(ScheduleRecorder())


@pytest.mark.parametrize("fmt,interval", [("v1", None), ("v2", 2048)])
def test_recorder_bytes_on_cycle_shape(fmt, interval):
    kernel = get_parsec("blackscholes")
    program = kernel.build(units=150, nthreads=4)

    def record(engine):
        return record_region(
            program, RandomScheduler(seed=1, switch_prob=0.05),
            RegionSpec(), engine=engine, pinball_format=fmt,
            checkpoint_interval=interval).to_bytes(compress=False,
                                                   format=fmt)

    fast = record("predecoded")
    assert fast == record("legacy")
