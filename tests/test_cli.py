"""Tests for the ``python -m repro`` command-line interface."""

import json
import os

import pytest

from repro.cli import main

RACY_SOURCE = """
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
    print(x);
    assert(x == 2, 9);
    return 0;
}
"""

CLEAN_SOURCE = """
int main() {
    int i; int s;
    s = 0;
    for (i = 1; i <= 10; i = i + 1) { s = s + i; }
    print(s);
    return 0;
}
"""


@pytest.fixture
def racy_file(tmp_path):
    path = tmp_path / "racy.mc"
    path.write_text(RACY_SOURCE)
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.mc"
    path.write_text(CLEAN_SOURCE)
    return str(path)


@pytest.fixture
def racy_pinball(racy_file, tmp_path):
    out = str(tmp_path / "racy.pinball")
    code = main(["record", racy_file, "-o", out, "--expose", "64",
                 "--switch-prob", "0.3"])
    assert code == 0
    return out


class TestRun:
    def test_clean_program(self, clean_file, capsys):
        assert main(["run", clean_file]) == 0
        assert "55" in capsys.readouterr().out

    def test_failing_program_exit_code(self, racy_file):
        # Round-robin never loses the update: passes.
        assert main(["run", racy_file]) == 0

    def test_inputs_flag(self, tmp_path, capsys):
        path = tmp_path / "in.mc"
        path.write_text("int main() { print(input() + input()); return 0; }")
        assert main(["run", str(path), "--inputs", "4,5"]) == 0
        assert "9" in capsys.readouterr().out

    def test_compile_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.mc"
        path.write_text("int main() { this is not minic }")
        assert main(["run", str(path)]) == 64


class TestRecordReplay:
    def test_record_and_replay_roundtrip(self, clean_file, tmp_path, capsys):
        out = str(tmp_path / "clean.pinball")
        assert main(["record", clean_file, "-o", out]) == 0
        assert os.path.exists(out)
        capsys.readouterr()
        assert main(["replay", clean_file, out]) == 0
        assert "55" in capsys.readouterr().out

    def test_expose_records_failure(self, racy_pinball, racy_file, capsys):
        capsys.readouterr()
        code = main(["replay", racy_file, racy_pinball])
        assert code == 1            # failure reproduced
        assert "failure" in capsys.readouterr().err

    def test_expose_gives_up_on_clean_program(self, clean_file, tmp_path):
        out = str(tmp_path / "never.pinball")
        assert main(["record", clean_file, "-o", out, "--expose", "3"]) == 1

    def test_maple_expose(self, racy_file, tmp_path, capsys):
        out = str(tmp_path / "maple.pinball")
        code = main(["record", racy_file, "-o", out,
                     "--expose", "40", "--maple"])
        assert code == 0
        err = capsys.readouterr().err
        assert "exposed by" in err

    def test_region_flags(self, clean_file, tmp_path, capsys):
        out = str(tmp_path / "region.pinball")
        assert main(["record", clean_file, "-o", out,
                     "--skip", "10", "--length", "20"]) == 0
        assert "20 instructions" in capsys.readouterr().out


class TestSlice:
    def test_failure_slice(self, racy_file, racy_pinball, capsys):
        capsys.readouterr()
        assert main(["slice", racy_file, racy_pinball]) == 0
        out = capsys.readouterr().out
        assert "slice:" in out
        assert "bump:" in out       # the racy increment is in the slice

    def test_variable_slice_with_outputs(self, racy_file, racy_pinball,
                                         tmp_path, capsys):
        slice_json = str(tmp_path / "x.slice.json")
        slice_pb = str(tmp_path / "x.slice.pinball")
        assert main(["slice", racy_file, racy_pinball, "--var", "x",
                     "-o", slice_json, "--slice-pinball", slice_pb]) == 0
        assert os.path.exists(slice_json)
        assert os.path.exists(slice_pb)
        payload = json.load(open(slice_json))
        assert payload["nodes"]

    def test_unknown_variable(self, racy_file, racy_pinball):
        assert main(["slice", racy_file, racy_pinball,
                     "--var", "nope"]) == 65

    def test_slice_pinball_of_a_slice_pinball_exits_65(self, tmp_path,
                                                       capsys):
        # Relogging a slice pinball would drop its excluded code's
        # effects: the result replayed and printed nothing.
        source = tmp_path / "loop.c"
        source.write_text(
            "int b;\nint main() {\n    int i;\n"
            "    for (i = 1; i < 21; i = i + 1) { b = b + i; }\n"
            "    print(b);\n    return 0;\n}\n")
        region, first, second = (str(tmp_path / name) for name in
                                 ("r.pinball", "s1.pinball", "s2.pinball"))
        assert main(["record", str(source), "-o", region]) == 0
        assert main(["slice", str(source), region, "--var", "b",
                     "--slice-pinball", first]) == 0
        capsys.readouterr()
        assert main(["replay", str(source), first]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "210"
        assert main(["slice", str(source), first, "--var", "b",
                     "--slice-pinball", second]) == 65
        err = capsys.readouterr().err
        assert "slice pinball" in err and "exclusion records" in err
        assert not os.path.exists(second)


class TestDual:
    def test_dual_diff_of_input_dependent_bug(self, tmp_path, capsys):
        source = """
int out; int bias;
int main() {
    int c;
    c = input();
    bias = 10;
    if (c) { out = bias - 10; } else { out = bias + 10; }
    assert(out > 0, 5);
    return 0;
}
"""
        path = tmp_path / "branchy.mc"
        path.write_text(source)
        failing = str(tmp_path / "fail.pb")
        passing = str(tmp_path / "pass.pb")
        main(["record", str(path), "-o", failing, "--inputs", "1"])
        main(["record", str(path), "-o", passing, "--inputs", "0"])
        capsys.readouterr()
        assert main(["dual", str(path), failing, passing,
                     "--var", "out"]) == 0
        out = capsys.readouterr().out
        assert "FAILING" in out
        assert "main:7" in out


class TestRaces:
    def test_racy_program_reports(self, racy_file, racy_pinball, capsys):
        capsys.readouterr()
        assert main(["races", racy_file, racy_pinball]) == 2
        out = capsys.readouterr().out
        assert "race on x" in out

    def test_clean_program_silent(self, clean_file, tmp_path, capsys):
        out = str(tmp_path / "clean.pinball")
        main(["record", clean_file, "-o", out])
        capsys.readouterr()
        assert main(["races", clean_file, out]) == 0

    def test_json_is_the_report_schema(self, racy_file, racy_pinball,
                                       capsys):
        capsys.readouterr()
        assert main(["races", racy_file, racy_pinball, "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        from repro.analysis.report import validate_report
        validate_report(payload)
        assert payload["kind"] == "races"
        assert payload["finding_count"] == len(payload["findings"]) >= 1


#: Exit-code contract for the analysis verbs: 2 exactly when the
#: analysis found something, 0 otherwise — identical for the local
#: commands and (tests/serve/test_cli_serve.py) the client verbs.
ANALYSIS_EXIT_TABLE = [
    ("races-racy", ["races"], "racy", 2),
    ("races-clean", ["races"], "clean", 0),
    ("hunt-racy", ["hunt", "--budget", "4", "--profile-seeds", "2",
                   "--minimize-budget", "6"], "racy", 2),
    ("hunt-clean", ["hunt", "--budget", "3", "--profile-seeds", "2",
                    "--minimize-budget", "6"], "clean", 0),
]


class TestAnalysisExitCodes:
    @pytest.mark.parametrize(
        "verb_args,which,expected",
        [row[1:] for row in ANALYSIS_EXIT_TABLE],
        ids=[row[0] for row in ANALYSIS_EXIT_TABLE])
    def test_exit_code(self, racy_file, racy_pinball, clean_file,
                       tmp_path, capsys, verb_args, which, expected):
        if which == "racy":
            program, pinball = racy_file, racy_pinball
        else:
            program = clean_file
            pinball = str(tmp_path / "clean.pinball")
            assert main(["record", clean_file, "-o", pinball]) == 0
        capsys.readouterr()
        assert main(verb_args + [program, pinball]) == expected


class TestHunt:
    def test_confirms_and_minimizes_the_racy_bug(self, racy_file,
                                                 racy_pinball, tmp_path,
                                                 capsys):
        out_dir = str(tmp_path / "mins")
        capsys.readouterr()
        code = main(["hunt", racy_file, racy_pinball, "--budget", "4",
                     "--profile-seeds", "2", "--minimize-budget", "8",
                     "--out-dir", out_dir, "--json"])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        from repro.analysis.report import validate_report
        validate_report(payload)
        assert payload["kind"] == "hunt"
        crash = [f for f in payload["findings"]
                 if f["outcome"] == "crash"][0]
        assert crash["failure_code"] == 9
        assert os.path.exists(crash["minimized_path"])
        # The minimized pinball replays to the same failure.
        capsys.readouterr()
        assert main(["replay", racy_file, crash["minimized_path"]]) == 1
        # The pre-sliced report reaches the racing increment.
        assert crash["slice"]["instance_count"] > 0

    def test_human_output_names_outcome(self, racy_file, racy_pinball,
                                        capsys):
        capsys.readouterr()
        assert main(["hunt", racy_file, racy_pinball, "--budget", "4",
                     "--profile-seeds", "2",
                     "--minimize-budget", "6"]) == 2
        out = capsys.readouterr().out
        assert "crash via" in out


class TestDebug:
    def test_scripted_session(self, racy_file, racy_pinball, capsys):
        capsys.readouterr()
        code = main(["debug", racy_file, racy_pinball,
                     "-x", "break bump", "-x", "run", "-x", "print x",
                     "-x", "info threads"])
        assert code == 0
        out = capsys.readouterr().out
        assert "hit breakpoint" in out
        assert "x = " in out

    def test_scripted_reverse_session(self, racy_file, racy_pinball,
                                      capsys):
        capsys.readouterr()
        code = main(["debug", racy_file, racy_pinball, "--reverse",
                     "--checkpoint-interval", "16",
                     "-x", "run", "-x", "rsi 5", "-x", "where"])
        assert code == 0
        assert "backwards" in capsys.readouterr().out

    def test_quit_command_ends_script(self, racy_file, racy_pinball):
        assert main(["debug", racy_file, racy_pinball,
                     "-x", "quit", "-x", "run"]) == 0


class TestDisasm:
    def test_whole_program(self, clean_file, capsys):
        assert main(["disasm", clean_file]) == 0
        out = capsys.readouterr().out
        assert "func main" in out

    def test_single_function(self, racy_file, capsys):
        assert main(["disasm", racy_file, "--function", "bump"]) == 0
        out = capsys.readouterr().out
        assert "func bump" in out
        assert "func main" not in out


class TestObs:
    @pytest.fixture(autouse=True)
    def _restore_registry(self):
        from repro.obs import OBS
        saved = OBS.enabled
        yield
        OBS.enabled = saved
        OBS.reset()

    def test_obs_report_no_demo_on_empty_registry(self, capsys):
        from repro.obs import OBS
        OBS.disable()
        OBS.reset()
        assert main(["obs", "report", "--no-demo"]) == 0
        captured = capsys.readouterr()
        assert "observability report" in captured.out
        assert "REPRO_OBS=1" in captured.out     # the enable hint
        assert "layer totals" in captured.err

    def test_obs_unknown_action(self, capsys):
        assert main(["obs", "bogus"]) == 2
        assert "unknown obs action" in capsys.readouterr().err

    def test_obs_report_demo_cycle_covers_all_layers(self, tmp_path,
                                                     capsys):
        out_json = str(tmp_path / "obs.json")
        assert main(["obs", "report", "--json", out_json]) == 0
        captured = capsys.readouterr()
        for layer in ("vm", "pinplay", "slicing", "debugger", "maple"):
            assert "[%s]" % layer in captured.out
        with open(out_json) as handle:
            data = json.load(handle)
        assert data["counters"]["vm.instructions_retired"] > 0

    def test_global_obs_flag_exports_snapshot(self, clean_file, tmp_path,
                                              capsys):
        out_json = str(tmp_path / "run_obs.json")
        assert main(["--obs", "--obs-json", out_json, "run",
                     clean_file]) == 0
        with open(out_json) as handle:
            data = json.load(handle)
        assert data["counters"]["vm.instructions_retired"] > 0
        assert "snapshot written" in capsys.readouterr().err

    def test_global_obs_flag_prints_report_to_stderr(self, clean_file,
                                                     capsys):
        assert main(["--obs", "run", clean_file]) == 0
        captured = capsys.readouterr()
        assert "observability report" in captured.err
        assert "vm.instructions_retired" in captured.err
        assert "55" in captured.out              # program output unpolluted


class TestRecordFormats:
    def test_record_v2_writes_streamed_container(self, clean_file,
                                                 tmp_path, capsys):
        out = str(tmp_path / "clean.v2.pinball")
        assert main(["record", clean_file, "-o", out,
                     "--format", "v2"]) == 0
        with open(out, "rb") as handle:
            assert handle.read(4) == b"RPB2"
        capsys.readouterr()
        assert main(["replay", clean_file, out]) == 0
        assert "55" in capsys.readouterr().out

    def test_format_env_knob(self, clean_file, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PINBALL_FORMAT", "v2")
        out = str(tmp_path / "env.pinball")
        assert main(["record", clean_file, "-o", out]) == 0
        with open(out, "rb") as handle:
            assert handle.read(4) == b"RPB2"


class TestConvert:
    def test_v1_to_v2_embeds_checkpoints(self, clean_file, tmp_path,
                                         capsys):
        v1 = str(tmp_path / "clean.pinball")
        # Pin the source format: under the REPRO_PINBALL_FORMAT=v2 CI
        # rider an unpinned record would already be v2.
        assert main(["record", clean_file, "-o", v1,
                     "--format", "v1"]) == 0
        v2 = str(tmp_path / "clean.v2.pinball")
        capsys.readouterr()
        assert main(["convert", v1, "-o", v2, "--program", clean_file,
                     "--checkpoint-interval", "16"]) == 0
        out = capsys.readouterr().out
        assert "v1 -> v2" in out
        with open(v2, "rb") as handle:
            assert handle.read(4) == b"RPB2"
        from repro.pinplay import Pinball
        converted = Pinball.load(v2)
        assert converted.checkpoints
        assert all(c.steps_done % 16 == 0 for c in converted.checkpoints)
        capsys.readouterr()
        assert main(["replay", clean_file, v2]) == 0
        assert "55" in capsys.readouterr().out

    def test_v2_back_to_v1_roundtrip(self, clean_file, tmp_path, capsys):
        v2 = str(tmp_path / "c.v2.pinball")
        assert main(["record", clean_file, "-o", v2, "--format",
                     "v2"]) == 0
        v1 = str(tmp_path / "c.v1.pinball")
        capsys.readouterr()
        # Default target: the opposite of the source format.
        assert main(["convert", v2, "-o", v1]) == 0
        assert "v2 -> v1" in capsys.readouterr().out
        with open(v1, "rb") as handle:
            assert handle.read(4) != b"RPB2"
        capsys.readouterr()
        assert main(["replay", clean_file, v1]) == 0
        assert "55" in capsys.readouterr().out

    def test_convert_corrupt_input_exits_65(self, tmp_path, capsys):
        bad = tmp_path / "bad.pinball"
        bad.write_bytes(b"not a pinball at all")
        out = str(tmp_path / "out.pinball")
        assert main(["convert", str(bad), "-o", out]) == 65
        assert "bad.pinball" in capsys.readouterr().err

    @pytest.mark.parametrize("interval", ("0", "-5"))
    def test_convert_rejects_nonpositive_interval(self, tmp_path, capsys,
                                                  interval):
        # Usage error (64) before the input is even opened: the missing
        # pinball must not be the failure reported.
        missing = str(tmp_path / "never-read.pinball")
        out = str(tmp_path / "out.pinball")
        assert main(["convert", missing, "-o", out,
                     "--checkpoint-interval", interval]) == 64
        err = capsys.readouterr().err
        assert "--checkpoint-interval" in err
        assert interval in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("interval", ("0", "-3"))
    def test_record_rejects_nonpositive_interval(self, tmp_path, capsys,
                                                 interval):
        missing = str(tmp_path / "never-read.mc")
        out = str(tmp_path / "out.pinball")
        assert main(["record", missing, "-o", out,
                     "--checkpoint-interval", interval]) == 64
        err = capsys.readouterr().err
        assert "--checkpoint-interval" in err
        assert not os.path.exists(out)


class TestCorruptPinball:
    def test_corrupt_pinball_exits_65_and_names_file(self, clean_file,
                                                     tmp_path, capsys):
        path = tmp_path / "bad.pinball"
        path.write_bytes(b"definitely not a pinball")
        assert main(["replay", clean_file, str(path)]) == 65
        err = capsys.readouterr().err
        assert "not a pinball" in err
        assert "bad.pinball" in err

    def test_truncated_pinball_exits_65(self, clean_file, tmp_path,
                                        capsys, racy_pinball):
        with open(racy_pinball, "rb") as handle:
            blob = handle.read()
        path = tmp_path / "trunc.pinball"
        path.write_bytes(blob[: len(blob) // 2])
        assert main(["replay", clean_file, str(path)]) == 65
        err = capsys.readouterr().err
        # v1 blobs fail the JSON parse; truncated v2 containers are
        # diagnosed per frame ("truncated payload"/"truncated frame
        # header" + byte offset).  Either way: exit 65, path named.
        assert "not a pinball" in err or "truncated" in err
        assert "trunc.pinball" in err
