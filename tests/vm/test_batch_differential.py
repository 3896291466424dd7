"""Differential: run-batched stepping is observationally invisible.

``Machine.run`` runs the steps a scheduler has already decided — its
:meth:`~repro.vm.scheduler.Scheduler.lease` — as one inner loop, without
a pick, commit or sleeper scan per step.  The oracle is per-step
stepping, which needs no switch: the legacy interpreter never batches,
and a step tool (here a no-op ``on_step``) forces the predecoded engine
back to one pick per step.

Over the randomized corpora (progen seeds 0-11, struct-progen 0-5), the
pbzip2 and dangle_reuse bug analogs and a program that sleeps and then
fails an assertion, the batched engine must equal the oracle

* after every chunk of a seeded ``run(max_steps=k)`` sequence: machine
  snapshot, ``global_seq``, per-thread instruction counts, output, the
  :class:`RunResult`, the scheduler's own state and the ``vm.*``
  counters (``vm.steps_batched`` aside, which only the batched side
  moves);
* for verified replay, relog (slice pinball bytes), reexec window
  passes, online race detection, and recordings made under round-robin,
  perturbed and recorded schedulers, with their pinball bytes in v1 and
  in v2 with embedded checkpoints;
* after a ``VMError`` raised in the middle of a batch.
"""

import contextlib
import json
import random

import pytest

from repro.analysis.hunt import PerturbedScheduler
from repro.detect import detect_races_online
from repro.isa.assembler import assemble
from repro.lang import compile_source
from repro.obs.registry import OBS
from repro.pinplay import RegionSpec, record_region, relog
from repro.pinplay.logger import FastRecorder
from repro.pinplay.replayer import replay, replay_machine
from repro.slicing import SliceOptions, SlicingSession
from repro.vm import Machine, RecordedScheduler, RoundRobinScheduler
from repro.vm.scheduler import Scheduler
from repro.vm.errors import VMError
from repro.vm.hooks import Tool
from repro.workloads import get_bug, get_pointer_bug

from tests.support.progen import (build_program, build_struct_program,
                                  inputs_for, record_pinball)

#: Sleeps (steps taken while a thread sleeps stay unbatched), contends
#: on a lock, and ends in a failing assertion followed by more code: the
#: exit request must stop a batch dead.
SLEEP_SOURCE = r"""
int x; int m;
int napper(int n) {
    int i;
    for (i = 0; i < n; i = i + 1) {
        sleep(3 + i);
        lock(&m);
        x = x + i + 1;
        unlock(&m);
    }
    return x;
}
int main() {
    int a; int b;
    a = spawn(napper, 4);
    b = spawn(napper, 3);
    join(a);
    join(b);
    assert(x == 0, 7);
    print(x);
    return 0;
}
"""

PROGRAMS = ([("progen", seed) for seed in range(12)]
            + [("struct", seed) for seed in range(6)]
            + [("pbzip2", 0), ("dangle_reuse", 0), ("sleep", 0)])

CHUNKS = (1, 2, 3, 5, 8, 13, 40, 150, 700, 4000)


class _NoopStep(Tool):
    def on_step(self, tid):
        pass


@contextlib.contextmanager
def per_step():
    """Every Machine built inside the block steps one pick at a time."""
    original = Machine.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.tools.append(_NoopStep())

    Machine.__init__ = init
    try:
        yield
    finally:
        Machine.__init__ = original


@pytest.fixture(autouse=True)
def _obs():
    with OBS.scope(enabled=True):
        OBS.reset()
        yield
        OBS.reset()


def _recording(kind, seed):
    """(program, pinball, inputs, rand seed): the corpora are recorded
    under their canonical random schedule, the rest under round-robin."""
    if kind in ("progen", "struct"):
        build = build_program if kind == "progen" else build_struct_program
        program = build(seed)
        return program, record_pinball(program, seed), inputs_for(seed), seed
    if kind == "pbzip2":
        program = get_bug("pbzip2").build(warmup=60, iters=14,
                                          teardown_work=50)
    elif kind == "dangle_reuse":
        program = get_pointer_bug("dangle_reuse").build(
            warmup=60, rounds=12, recycle_work=25)
    else:
        program = compile_source(SLEEP_SOURCE, name="sleeper")
    return program, record_region(program, RoundRobinScheduler(quantum=7),
                                  RegionSpec()), (), 0


def _vm_counters():
    return {name: value for name, value in OBS.counters().items()
            if name.startswith("vm.") and name != "vm.steps_batched"}


def _scheduler_state(scheduler):
    return {name: (_scheduler_state(value) if isinstance(value, Scheduler)
                   else value)
            for name, value in vars(scheduler).items()}


def _state(machine):
    return (machine.snapshot().to_dict(), machine.global_seq,
            {tid: t.instr_count for tid, t in machine.threads.items()},
            list(machine.output), machine.exit_code, machine.failure,
            machine._last_tid, _scheduler_state(machine.scheduler))


def _run_chunk(machine, steps):
    OBS.reset()
    result = machine.run(max_steps=steps)
    return result, _vm_counters(), OBS.value("vm.steps_batched")


def batched(operation, *args, **kwargs):
    """Run ``operation`` on the batched engine; returns its result and
    asserts that some of its steps really ran in batches."""
    OBS.reset()
    result = operation(*args, **kwargs)
    assert OBS.value("vm.steps_batched") > 0
    return result


def stepped(operation, *args, **kwargs):
    """Run ``operation`` with every machine stepping per pick."""
    with per_step():
        return operation(*args, **kwargs)


def drive(machines, seed, check=None):
    """Run ``machines`` (batched first) in the same seeded chunk sizes,
    comparing after every chunk; returns the batched side's batched
    step total."""
    rng = random.Random(seed)
    batched_total = 0
    while True:
        steps = rng.choice(CHUNKS)
        results = [_run_chunk(machine, steps) for machine in machines]
        batched_total += results[0][2]
        for other, machine in zip(results[1:], machines[1:]):
            assert other[:2] == results[0][:2]
            assert other[2] == 0
            assert _state(machine) == _state(machines[0])
        if check is not None:
            check()
        if results[0][0].reason != "limit":
            return batched_total


def _slice_keep(pinball, seed):
    rng = random.Random(seed)
    stride = rng.choice((2, 3, 5))
    return {int(tid): set(range(rng.randrange(stride), count, stride))
            for tid, count in pinball.meta["thread_instr_counts"].items()}


def _perturbed_runs(schedule, seed):
    rng = random.Random(seed)
    runs = [list(run) for run in schedule]
    for _ in range(max(1, len(runs) // 4)):
        at = rng.randrange(len(runs))
        runs[at][1] = max(1, runs[at][1] + rng.choice((-3, -1, 2, 9)))
    if len(runs) > 2:
        at = rng.randrange(len(runs) - 1)
        runs[at], runs[at + 1] = runs[at + 1], runs[at]
    return runs


@pytest.fixture(scope="module", params=PROGRAMS,
                ids=["%s-%d" % p for p in PROGRAMS])
def recorded(request):
    kind, seed = request.param
    return (kind, seed) + _recording(kind, seed)


def test_chunked_replay_matches_per_step(recorded):
    kind, seed, program, pinball, _inputs, _rand_seed = recorded
    leased = replay_machine(pinball, program, engine="predecoded")
    legacy = replay_machine(pinball, program, engine="legacy")
    oracle = stepped(replay_machine, pinball, program, engine="predecoded")
    assert drive([leased, oracle, legacy], seed) > 0
    assert leased.scheduler.exhausted


def test_verified_replay_and_relog(recorded):
    kind, seed, program, pinball, _inputs, _rand_seed = recorded
    batched(replay, pinball, program, verify=True, engine="predecoded")
    keep = _slice_keep(pinball, seed)
    expected = stepped(relog, pinball, program, keep,
                       engine="predecoded").to_bytes(compress=False)
    assert batched(relog, pinball, program, keep, engine="predecoded"
                   ).to_bytes(compress=False) == expected
    assert relog(pinball, program, keep, engine="legacy").to_bytes(
        compress=False) == expected


def test_online_detection(recorded, monkeypatch):
    kind, seed, program, pinball, _inputs, _rand_seed = recorded
    monkeypatch.setenv("REPRO_ENGINE", "predecoded")
    assert batched(detect_races_online, pinball, program) == stepped(
        detect_races_online, pinball, program)


@pytest.mark.parametrize("kind,seed", [("progen", 0), ("progen", 3),
                                       ("progen", 6), ("progen", 9),
                                       ("sleep", 0)])
def test_reexec_window_passes(kind, seed):
    program, pinball, inputs, rand_seed = _recording(kind, seed)
    v2 = record_region(program, RecordedScheduler(pinball.schedule),
                       RegionSpec(), inputs=inputs, rand_seed=rand_seed,
                       pinball_format="v2", checkpoint_interval=64)

    def answers():
        session = SlicingSession(v2, program, SliceOptions(index="reexec"),
                                 engine="predecoded")
        assert session._reexec is not None
        out = [json.dumps(session.slice_for(c).to_dict(), sort_keys=True)
               for c in session.last_reads(6)]
        index = session._reexec
        return out, (index.passes, index.window_steps, index.watch_hits)

    fast = batched(answers)
    assert fast == stepped(answers)
    assert fast[1][0] > 0


def _schedulers(pinball, seed):
    """Leasing schedulers: long round-robin quanta (an exit or a thread
    end lands mid-lease), a perturbed schedule with a short-quantum
    tail, and the recording's own schedule."""
    tail = random.Random(seed).choice((3, 7))
    return {
        "round_robin": lambda: RoundRobinScheduler(quantum=50),
        "perturbed": lambda: PerturbedScheduler(
            _perturbed_runs(pinball.schedule, seed), quantum=tail),
        "recorded": lambda: RecordedScheduler(pinball.schedule),
    }


@pytest.mark.parametrize("fmt,interval", [("v1", None), ("v2", 37)])
def test_recordings_are_byte_identical(recorded, fmt, interval):
    kind, seed, program, pinball, inputs, rand_seed = recorded
    for name, make in _schedulers(pinball, seed).items():
        def record(engine):
            return record_region(program, make(), RegionSpec(),
                                 inputs=inputs, rand_seed=rand_seed,
                                 engine=engine, pinball_format=fmt,
                                 checkpoint_interval=interval)
        expected = stepped(record, "predecoded").to_bytes(
            compress=False, format=fmt)
        assert batched(record, "predecoded").to_bytes(
            compress=False, format=fmt) == expected, name
        assert record("legacy").to_bytes(
            compress=False, format=fmt) == expected, name


def test_chunked_recording_matches_per_step(recorded):
    """A FastRecorder driven in seeded chunks: after every chunk the RLE
    schedule, pending run, access-order edges and checkpoints agree."""
    kind, seed, program, pinball, inputs, rand_seed = recorded
    rng = random.Random(seed)
    interval = rng.choice((5, 29, 100))

    def start(make):
        machine = Machine(program, scheduler=make(), inputs=inputs,
                          rand_seed=rand_seed, engine="predecoded")
        recorder = FastRecorder(checkpoint_interval=interval)
        recorder.attach(machine, 0)
        return machine, recorder

    def recorder_state(recorder):
        return (list(recorder.schedule_runs), recorder._run_tid,
                recorder._run_count, recorder.steps_done,
                list(recorder.mem_order), dict(recorder.syscalls),
                [(c.steps_done, c.global_seq, c.body())
                 for c in recorder.checkpoints])

    for name, make in _schedulers(pinball, seed).items():
        machine, recorder = start(make)
        oracle, oracle_recorder = stepped(start, make)

        def check():
            assert recorder_state(recorder) == recorder_state(
                oracle_recorder), name

        assert drive([machine, oracle], seed, check) > 0, name


BAD_RETURN = """
func main
  mov r0, 0
  mov r1, 5
loop:
  add r0, r0, 1
  sub r1, r1, 1
  br r1, loop
  push 99999
  ret
"""


@pytest.mark.parametrize("quantum", (4, 50))
def test_vm_error_mid_batch_leaves_identical_state(quantum):
    """The bad return is step 19: inside the first 50-step lease, and past
    the 4-step one (a lone thread's exhausted quantum grants no lease)."""
    program = assemble(BAD_RETURN)

    def crash():
        machine = Machine(program,
                          scheduler=RoundRobinScheduler(quantum=quantum),
                          engine="predecoded")
        with pytest.raises(VMError, match="bad address"):
            machine.run()
        return machine

    leased = crash()
    assert _state(leased) == _state(stepped(crash))
