"""Differential tests: format v2 is observationally identical to v1.

The shared seeded generator (:mod:`tests.support.progen`) records every
randomized program twice — once through the classic v1 path, once
through the v2 path (fast recorder + embedded checkpoints) with the v2
recording round-tripped through its container bytes so the lazy reader
is on the hot path.  The two must agree on:

* every pinball section (schedule, syscalls, mem-order edges, snapshot,
  region metadata);
* the replayed :class:`InstrEvent` stream, final state hash and output,
  under both engines;
* slice results — byte-identical JSON renderings — under all three
  slice indexes (``ddg``, ``columnar``, ``rows``);
* the recorder on the batched loop vs the same recorder on the
  per-step loop (forced by attaching an instruction-event tool);
* debugger ``seek`` over embedded checkpoints, including the boundary
  cases (target exactly on a checkpoint, and one step past one),
  against a serial replay of the same prefix.
"""

import json

import pytest

from repro.debugger import DrDebugSession
from repro.pinplay import Pinball, RegionSpec, record_region, replay
from repro.pinplay.pinball import state_hash
from repro.slicing import SliceOptions, SlicingSession
from repro.vm.hooks import Tool
from repro.vm.machine import Machine, MachineSnapshot
from repro.vm.scheduler import RecordedScheduler

from tests.support.progen import (RetainingLog, build_program,
                                  inputs_for, record_pinball,
                                  scheduler_for)

SEEDS = list(range(12))
INTERVAL = 64
ENGINES = ("legacy", "predecoded")
INDEXES = ("ddg", "columnar", "rows")

_cache = {}


def recordings(seed):
    """(program, v1 pinball, lazily reopened v2 pinball) for ``seed``."""
    if seed not in _cache:
        program = build_program(seed)
        v1 = record_pinball(program, seed, pinball_format="v1")
        v2 = record_pinball(program, seed, pinball_format="v2",
                            checkpoint_interval=INTERVAL)
        # Both sides reopened from their serialized bytes: that is what
        # real consumers see, and it normalizes JSON artifacts (tuples
        # vs lists) identically on both sides.
        v1 = Pinball.from_bytes(v1.to_bytes(format="v1"))
        lazy = Pinball.from_bytes(v2.to_bytes(format="v2"))
        _cache[seed] = (program, v1, lazy)
    return _cache[seed]


@pytest.mark.parametrize("seed", SEEDS)
def test_sections_equal(seed):
    _program, v1, v2 = recordings(seed)
    assert list(v2.schedule) == list(v1.schedule)
    assert v2.syscalls == v1.syscalls
    assert list(v2.mem_order) == list(v1.mem_order)
    assert v2.snapshot == v1.snapshot
    assert v2.meta == v1.meta
    assert v2.total_steps == v1.total_steps


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", SEEDS)
def test_replay_streams_identical(seed, engine):
    program, v1, v2 = recordings(seed)
    log_v1, log_v2 = RetainingLog(), RetainingLog()
    m1, _ = replay(v1, program, tools=(log_v1,), engine=engine)
    m2, _ = replay(v2, program, tools=(log_v2,), engine=engine)
    assert log_v1.steps == log_v2.steps
    assert log_v1.syscalls == log_v2.syscalls
    assert log_v1.frozen() == log_v2.frozen()
    assert list(m1.output) == list(m2.output)
    assert state_hash(m1) == state_hash(m2)


def _slice_bytes(pinball, program, index):
    """A canonical byte rendering of slices for the last few reads."""
    session = SlicingSession(pinball, program,
                             options=SliceOptions(index=index))
    payload = []
    for criterion in session.last_reads(2):
        result = session.slice_for(criterion)
        payload.append({"criterion": list(criterion),
                        "nodes": sorted(result.nodes),
                        "edges": sorted(result.edges)})
    return json.dumps(payload, sort_keys=True).encode()


@pytest.mark.parametrize("index", INDEXES)
@pytest.mark.parametrize("seed", SEEDS[::4])
def test_slices_byte_identical(seed, index):
    program, v1, v2 = recordings(seed)
    assert (_slice_bytes(v1, program, index)
            == _slice_bytes(v2, program, index))


@pytest.mark.parametrize("seed", SEEDS[::4])
def test_slices_byte_identical_across_indexes_on_v2(seed):
    """All three indexes agree with each other on the v2 recording (the
    v1 cross-index agreement is the index-differential suite's job)."""
    program, _v1, v2 = recordings(seed)
    renders = {index: _slice_bytes(v2, program, index)
               for index in INDEXES}
    assert renders["ddg"] == renders["columnar"] == renders["rows"]


class _EventSink(Tool):
    """Takes every instruction event, which keeps a run per-step."""

    wants_instr_events = True
    retains_instr_events = False


@pytest.mark.parametrize("seed", SEEDS)
def test_fast_recorder_matches_classic_logger(seed):
    """The recorder on the batched loop writes the same pinball as on
    the per-step loop (forced by attaching an instruction-event tool)."""
    program = build_program(seed)
    fast = record_pinball(program, seed, pinball_format="v2",
                          checkpoint_interval=INTERVAL)
    classic = record_region(program, scheduler_for(seed), RegionSpec(),
                            inputs=inputs_for(seed), rand_seed=seed,
                            extra_tools=(_EventSink(),),
                            pinball_format="v2",
                            checkpoint_interval=INTERVAL)
    assert fast.schedule == classic.schedule
    assert fast.syscalls == classic.syscalls
    assert fast.mem_order == classic.mem_order
    assert fast.snapshot == classic.snapshot
    assert fast.meta == classic.meta
    assert ([c.steps_done for c in fast.checkpoints]
            == [c.steps_done for c in classic.checkpoints])
    assert (fast.to_bytes(format="v2") == classic.to_bytes(format="v2"))


def _serial_state_at(pinball, program, steps):
    """Reference: replay the first ``steps`` steps from the region
    snapshot with no checkpoint shortcuts."""
    from repro.pinplay.replayer import SyscallInjector
    injector = SyscallInjector(pinball.syscalls)
    machine = Machine.from_snapshot(
        program, MachineSnapshot.from_dict(pinball.snapshot),
        scheduler=RecordedScheduler(pinball.schedule),
        syscall_injector=injector.inject)
    machine.run(max_steps=steps)
    return machine


@pytest.mark.parametrize("seed", SEEDS[::3])
def test_seek_checkpoint_boundaries_match_serial_replay(seed):
    program, _v1, v2 = recordings(seed)
    checkpoints = v2.checkpoints
    if not checkpoints:
        pytest.skip("region too short for an interior checkpoint")
    anchor = checkpoints[len(checkpoints) // 2]
    targets = {anchor.steps_done,               # exactly on a checkpoint
               anchor.steps_done + 1,           # one step past one
               max(0, anchor.steps_done - 1),   # just before one
               v2.total_steps}                  # region end
    session = DrDebugSession(v2, program)
    session.enable_reverse_debugging(interval=INTERVAL)
    for target in sorted(targets):
        session.seek(target)
        reference = _serial_state_at(v2, program, target)
        assert session.steps_done == target
        assert state_hash(session.machine) == state_hash(reference), (
            "seek(%d) diverged from serial replay" % target)
        assert list(session.machine.output) == list(reference.output)
    # Seek is random-access: going backwards again must be just as exact.
    session.seek(anchor.steps_done)
    reference = _serial_state_at(v2, program, anchor.steps_done)
    assert state_hash(session.machine) == state_hash(reference)
