"""A restored machine reuses freed heap blocks in the order its source
would.

``malloc`` reuses the last block of a size's free-list bucket, so a
snapshot must keep each bucket in list order.  Here two same-size
structs are freed out of address order (``delete y; delete x;``) and
one is allocated again: region snapshots, hunt forks and v2 checkpoints
taken between the deletes and the ``new`` must hand out ``x``'s block,
as the uninterrupted run does.
"""

import importlib

import pytest

from repro.lang import compile_source
from repro.pinplay import RegionSpec, record_region
from repro.pinplay.pinball import state_hash
from repro.pinplay.replayer import replay, resume_machine
from repro.vm import Machine, RoundRobinScheduler

hunt_mod = importlib.import_module("repro.analysis.hunt")

SOURCE = """
struct P { int a; int b; };
struct P *x;
struct P *y;
struct P *z;
int main() {
    x = new P; y = new P;
    delete y; delete x;
    z = new P; z->a = 5;
    print(z);
    return 0;
}
"""

#: Main-thread instructions retired when the size-2 bucket holds both
#: freed blocks, out of address order, and the ``new`` has not run.
BETWEEN = (16, 17)


@pytest.fixture(scope="module")
def program():
    return compile_source(SOURCE, name="freelist")


def _bucket(machine):
    return machine.memory.snapshot()["free"]


def test_bucket_is_out_of_order_between_the_deletes_and_the_new(program):
    machine = Machine(program)
    for skip in BETWEEN:
        machine.run(max_steps=skip - machine.threads[0].instr_count)
        (size, addrs), = _bucket(machine)
        assert size == 2 and addrs == sorted(addrs, reverse=True)


@pytest.mark.parametrize("skip", BETWEEN)
def test_region_replays(program, skip):
    pinball = record_region(program, RoundRobinScheduler(),
                            RegionSpec(skip=skip))
    machine, _result = replay(pinball, program, verify=True)
    assert machine.output == pinball.meta["output"]


def test_hunt_fork_allocates_its_base_block(program):
    pinball = record_region(program, RoundRobinScheduler(), RegionSpec())
    ctx = hunt_mod.hunt_context(pinball, program)
    base = hunt_mod._restore(program, RoundRobinScheduler(), ctx)
    base.run(max_steps=BETWEEN[0])
    fork = hunt_mod._restore(program, RoundRobinScheduler(), ctx, base)
    assert hunt_mod._finish(fork, ctx) == hunt_mod._finish(base, ctx)
    assert fork.read_global("z") == base.read_global("z") \
        == base.read_global("x")
    assert state_hash(fork) == state_hash(base)


def test_checkpoint_resumes_to_the_final_hash(program):
    pinball = record_region(program, RoundRobinScheduler(), RegionSpec(),
                            pinball_format="v2",
                            checkpoint_interval=BETWEEN[0])
    checkpoint = pinball.checkpoints[0]
    assert checkpoint.steps_done == BETWEEN[0]
    machine, _injector = resume_machine(pinball, program, checkpoint)
    machine.run(max_steps=pinball.total_steps - checkpoint.steps_done)
    assert state_hash(machine) == pinball.meta["final_state_hash"]
    assert machine.output == pinball.meta["output"]
