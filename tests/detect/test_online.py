"""The online race detector on every feed the machine has.

:class:`~repro.detect.OnlineRaceDetector` listens on the recorder
protocol, which the machine feeds on either engine, on the batched and
the per-step loop, and over a slice pinball's exclusion skips.  On each
it must report what it reports alone on the batched loop, and what the
traced :class:`~repro.detect.RaceDetectorTool` reports.
"""

import random

import pytest

from repro.detect import OnlineRaceDetector, detect_races, detect_races_online
from repro.isa.program import GLOBAL_BASE
from repro.obs.registry import OBS
from repro.pinplay.logger import FastRecorder
from repro.pinplay.replayer import replay_machine
from repro.slicing import SlicingSession
from repro.vm.errors import VMError
from repro.vm.hooks import Tool

from tests.slicing.test_control_dep_oracle import kernels, record_kernel
from tests.support.progen import build_program, record_pinball

ENGINES = ("predecoded", "legacy")


def _race_key(races):
    return sorted((race.site_pair(), race.kind, race.first_instance,
                   race.second_instance) for race in races)


class _EventSink(Tool):
    """Takes every instruction event, which keeps a run per-step."""

    wants_instr_events = True
    retains_instr_events = False


def _online(pinball, program, engine, tools=()):
    detector = OnlineRaceDetector(watch_low=GLOBAL_BASE,
                                  watch_high=program.data_size)
    machine = replay_machine(pinball, program, tools=tools, engine=engine)
    detector.attach(machine)
    machine.run(max_steps=pinball.total_steps)
    return detector


@pytest.mark.parametrize("engine", ENGINES)
def test_recorder_beside_instruction_tool_is_fed(engine):
    racy = 0
    for seed in range(8):
        program = build_program(seed)
        pinball = record_pinball(program, seed)
        alone = _online(pinball, program, engine)
        beside = _online(pinball, program, engine, tools=[_EventSink()])
        assert alone.mem_ops > 0
        assert beside.mem_ops == alone.mem_ops
        assert _race_key(beside.races) == _race_key(alone.races)
        racy += bool(alone.races)
    assert racy


_slice_corpus = []


def slice_corpus():
    """(program, relogged slice pinball): progen programs and the
    control-dependence oracle's kernels, two criteria per thread."""
    if not _slice_corpus:
        rng = random.Random(5)
        programs = [(build_program(seed), seed) for seed in range(6)]
        programs += [(program, None) for _name, program in kernels()]
        for program, seed in programs:
            pinball = (record_kernel(program) if seed is None
                       else record_pinball(program, seed))
            session = SlicingSession(pinball, program, engine="predecoded")
            store = session.collector.store
            for tid in store.threads():
                for _ in range(2):
                    criterion = (tid, rng.randrange(
                        store.thread_length(tid)))
                    slice_pinball = session.make_slice_pinball(
                        session.slice_for(criterion))
                    if slice_pinball.exclusions:
                        _slice_corpus.append((program, slice_pinball))
    return _slice_corpus


@pytest.mark.parametrize("globals_only", [True, False])
@pytest.mark.parametrize("engine", ENGINES)
def test_online_equals_traced_on_slice_pinballs(engine, globals_only,
                                                monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", engine)
    racy = 0
    for program, slice_pinball in slice_corpus():
        online = detect_races_online(slice_pinball, program,
                                     globals_only=globals_only)
        traced = detect_races(slice_pinball, program,
                              globals_only=globals_only, online=False)
        assert _race_key(online) == _race_key(traced)
        racy += bool(online)
    assert racy


@pytest.mark.parametrize("engine", ENGINES)
def test_detect_races_takes_the_online_feed_everywhere(engine, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", engine)
    program, slice_pinball = slice_corpus()[0]
    pinball = record_pinball(build_program(0), 0)
    with OBS.scope(enabled=True):
        OBS.reset()
        try:
            detect_races(slice_pinball, program)
            detect_races(pinball, build_program(0))
            counters = OBS.counters()
        finally:
            OBS.reset()
    assert counters["detect.online_runs"] == 2
    assert "detect.traced_runs" not in counters


def test_pinball_recorder_refuses_a_slice_pinball_replay():
    program, slice_pinball = slice_corpus()[0]
    machine = replay_machine(slice_pinball, program)
    with pytest.raises(VMError, match="exclusions"):
        FastRecorder().attach(machine, 0)
