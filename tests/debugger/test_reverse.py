"""Tests for checkpoint-based reverse debugging (paper Section 8 sketch)."""

import pytest

from repro.debugger import DrDebugCLI, DrDebugSession
from repro.debugger.checkpoints import CheckpointManager
from repro.debugger.session import DebuggerError
from repro.lang import compile_source
from repro.pinplay import Pinball, RegionSpec, record_region
from repro.pinplay.format_v2 import schedule_suffix
from repro.vm import RoundRobinScheduler

COUNTING = """
int g; int h;
int main() {
    int i;
    for (i = 0; i < 50; i = i + 1) {
        g = g + 1;
        h = h + g;
    }
    print(h);
    return 0;
}
"""


def make_session(interval=40):
    program = compile_source(COUNTING, name="reverse")
    pinball = record_region(program, RoundRobinScheduler(), RegionSpec())
    session = DrDebugSession(pinball, program, source=COUNTING)
    session.enable_reverse_debugging(interval)
    return session


def remaining_schedule(schedule, steps_done):
    return schedule_suffix(Pinball("reverse", {}, schedule, {}), steps_done)


class TestRemainingSchedule:
    def test_zero_skip_is_identity(self):
        schedule = [(0, 5), (1, 3)]
        assert remaining_schedule(schedule, 0) == [(0, 5), (1, 3)]

    def test_skip_within_first_run(self):
        assert remaining_schedule([(0, 5), (1, 3)], 2) == [(0, 3), (1, 3)]

    def test_skip_across_runs(self):
        assert remaining_schedule([(0, 5), (1, 3)], 6) == [(1, 2)]

    def test_skip_everything(self):
        assert remaining_schedule([(0, 5)], 5) == []
        assert remaining_schedule([(0, 5)], 99) == []


class TestReverseStepi:
    def test_rewind_restores_exact_state(self):
        session = make_session()
        session.restart()
        session.stepi(200)
        g_at_200 = session.print_var("g")
        session.stepi(100)
        assert session.print_var("g") != g_at_200 or True  # moved forward
        message = session.reverse_stepi(100)
        assert "backwards" in message
        assert session.steps_done == 200
        assert session.print_var("g") == g_at_200

    def test_forward_after_reverse_is_deterministic(self):
        session = make_session()
        session.restart()
        session.stepi(300)
        h_at_300 = session.print_var("h")
        session.reverse_stepi(150)
        session.stepi(150)
        assert session.steps_done == 300
        assert session.print_var("h") == h_at_300

    def test_reverse_past_start_clamps_to_zero(self):
        session = make_session()
        session.restart()
        session.stepi(10)
        session.reverse_stepi(10_000)
        assert session.steps_done == 0

    def test_repeated_single_reverse_steps(self):
        session = make_session(interval=16)
        session.restart()
        session.stepi(64)
        values = []
        for expected in (63, 62, 61, 60):
            session.reverse_stepi(1)
            assert session.steps_done == expected
            values.append(session.print_var("g"))
        # g is non-increasing going backwards.
        assert values == sorted(values, reverse=True)

    def test_requires_enabling(self):
        program = compile_source(COUNTING, name="reverse")
        pinball = record_region(program, RoundRobinScheduler(), RegionSpec())
        session = DrDebugSession(pinball, program)
        session.restart()
        with pytest.raises(DebuggerError):
            session.reverse_stepi(1)


class TestReverseStepAndContinue:
    def test_reverse_step_changes_line(self):
        session = make_session(interval=16)
        session.restart()
        session.stepi(80)
        line_before = session.current_line()
        session.reverse_step()
        assert session.current_line() != line_before

    def test_reverse_continue_returns_to_previous_hit(self):
        session = make_session(interval=32)
        session.breakpoints.add(line=6)           # g = g + 1
        session.run()                              # 1st hit
        session.continue_()                        # 2nd hit
        session.continue_()                        # 3rd hit
        steps_third = session.steps_done
        g_third = session.print_var("g")
        message = session.reverse_continue()
        assert "breakpoint" in message
        assert session.steps_done < steps_third
        # We are at the 2nd hit: g is one less than at the 3rd.
        assert session.print_var("g") == g_third - 1
        # Going forward again reaches the 3rd hit identically.
        session.continue_()
        assert session.steps_done == steps_third
        assert session.print_var("g") == g_third

    def test_reverse_continue_without_hits_reaches_start(self):
        session = make_session()
        session.breakpoints.add(line=9)           # print(h): hit once
        session.run()
        first_hit = session.steps_done
        message = session.reverse_continue()
        assert "beginning" in message
        assert session.steps_done == 0

    def test_reverse_continue_needs_breakpoints(self):
        session = make_session()
        session.restart()
        session.stepi(10)
        with pytest.raises(DebuggerError):
            session.reverse_continue()


class TestReverseOverRace(object):
    def test_reverse_through_racy_region(self, fig5):
        """Reverse execution is exact even across thread interleavings."""
        program, pinball, _seed = fig5
        session = DrDebugSession(pinball, program)
        session.enable_reverse_debugging(interval=8)
        session.restart()
        session.continue_()                       # runs to the failure
        end_steps = session.steps_done
        x_at_end = session.machine.memory.read(
            program.globals["x"].addr)
        midpoint = end_steps // 2
        session.reverse_stepi(end_steps - midpoint)
        assert session.steps_done == midpoint
        session.stepi(end_steps - midpoint)
        assert session.machine.memory.read(
            program.globals["x"].addr) == x_at_end


class TestReverseCli:
    def test_cli_roundtrip(self):
        program = compile_source(COUNTING, name="reverse")
        pinball = record_region(program, RoundRobinScheduler(), RegionSpec())
        cli = DrDebugCLI(DrDebugSession(pinball, program, source=COUNTING))
        assert "enabled" in cli.execute("record-on 32")
        cli.execute("break 6")
        cli.execute("run")
        cli.execute("continue")
        g_second = cli.execute("print g")
        cli.execute("continue")
        assert "breakpoint" in cli.execute("rc")
        assert cli.execute("print g") == g_second
        assert "backwards" in cli.execute("rsi 5")
        assert "thread" in cli.execute("rs")

    def test_cli_errors_are_reported(self):
        program = compile_source(COUNTING, name="reverse")
        pinball = record_region(program, RoundRobinScheduler(), RegionSpec())
        cli = DrDebugCLI(DrDebugSession(pinball, program))
        cli.execute("run")
        assert "error" in cli.execute("rsi")

    def test_negative_step_counts_are_errors(self):
        session = make_session()
        session.restart()
        session.stepi(105)
        cli = DrDebugCLI(session)
        assert cli.execute("reverse-stepi -7").startswith("error:")
        assert session.steps_done == 105
        assert cli.execute("stepi -3").startswith("error:")
        assert session.steps_done == 105
        with pytest.raises(DebuggerError):
            session.reverse_stepi(-1)

    def test_record_on_resolves_the_interval_knob(self, monkeypatch):
        program = compile_source(COUNTING, name="reverse")
        pinball = record_region(program, RoundRobinScheduler(), RegionSpec())
        session = DrDebugSession(pinball, program)
        cli = DrDebugCLI(session)
        monkeypatch.setenv("REPRO_CHECKPOINT_INTERVAL", "7")
        assert "every 7 steps" in cli.execute("record-on")
        assert session._checkpoints.interval == 7
        assert "every 32 steps" in cli.execute("record-on 32")
