"""The public API surface: everything advertised exists and imports.

Extended for the unified-surface redesign: the blessed top-level
``__all__`` (including the serve client and the config resolver) and
the ``repro.config`` precedence knobs.
"""

import importlib

import pytest

import repro


class TestTopLevel:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_all_is_sorted_and_unique(self):
        names = [n for n in repro.__all__ if n != "__version__"]
        assert names == sorted(names)
        assert len(set(repro.__all__)) == len(repro.__all__)

    def test_version(self):
        assert repro.__version__

    def test_quickstart_snippet_names(self):
        # The README quickstart must keep working.
        for name in ("compile_source", "record", "record_region", "replay",
                     "RandomScheduler", "RegionSpec", "SlicingSession",
                     "DrDebugSession", "DrDebugCLI", "expose_and_record",
                     "detect_races", "DebugClient", "SliceOptions", "OBS",
                     "config"):
            assert hasattr(repro, name), name

    def test_record_is_record_region(self):
        assert repro.record is repro.record_region

    def test_config_is_the_resolver_module(self):
        assert repro.config.serve_workers() >= 1
        assert repro.config.slice_index() in ("ddg", "columnar", "rows", "reexec")


class TestDeprecatedAliases:
    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_an_api  # noqa: B018


SUBPACKAGES = [
    "repro.isa", "repro.lang", "repro.vm", "repro.pinplay",
    "repro.analysis", "repro.slicing", "repro.debugger", "repro.maple",
    "repro.detect", "repro.workloads", "repro.cli",
    "repro.serve", "repro.obs", "repro.config",
]


class TestSubpackages:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_imports_cleanly(self, module_name):
        module = importlib.import_module(module_name)
        assert module is not None

    @pytest.mark.parametrize("module_name", [
        m for m in SUBPACKAGES if m != "repro.cli"])
    def test_all_exports_exist(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), "%s.%s" % (module_name, name)

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_has_module_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__) > 40, module_name


class TestConfigKnobs:
    def test_every_knob_has_env_doc_and_default(self):
        for knob in repro.config.KNOBS.values():
            assert knob.env.startswith("REPRO_")
            assert knob.doc
            # The default must pass the knob's own validator.
            assert knob.coerce(knob.default, "default") == knob.default

    def test_precedence_explicit_beats_cli_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "3")
        assert repro.config.serve_workers() == 3
        assert repro.config.serve_workers(cli=5) == 5
        assert repro.config.serve_workers(explicit=7, cli=5) == 7

    def test_invalid_env_raises_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLICE_INDEX", "quantum")
        with pytest.raises(ValueError):
            repro.config.slice_index()

    def test_precedence_table_mentions_every_env(self):
        table = repro.config.precedence_table()
        for knob in repro.config.KNOBS.values():
            assert knob.env in table


class TestReportSchema:
    """The unified analysis-report surface (repro.analysis.report)."""

    def _racy(self):
        from repro.detect import detect_races
        from repro.lang import compile_source
        from repro.pinplay import RegionSpec, record_region
        from repro.vm import RandomScheduler
        source = """
        int x;
        int bump(int u) { x = x + 1; return 0; }
        int main() {
            int a; int b;
            a = spawn(bump, 0); b = spawn(bump, 0);
            join(a); join(b);
            print(x);
            return 0;
        }
        """
        program = compile_source(source, name="schema_demo")
        pinball = record_region(
            program, RandomScheduler(seed=1, switch_prob=0.3), RegionSpec())
        return program, pinball, detect_races(pinball, program)

    def test_races_payload_validates(self):
        from repro.analysis.report import (SCHEMA, SCHEMA_VERSION,
                                           races_report_payload,
                                           validate_report)
        program, _pinball, races = self._racy()
        payload = races_report_payload(races, program)
        validate_report(payload)
        assert payload["schema"] == SCHEMA
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["finding_count"] == len(payload["findings"])

    def test_race_payload_wrapper_is_schema_shaped(self):
        from repro.analysis.report import races_report_payload
        from repro.serve.sessions import race_payload
        program, _pinball, races = self._racy()
        assert race_payload(races, program) == races_report_payload(
            races, program)

    def test_maple_result_payload_validates(self):
        from repro.analysis.report import validate_report
        from repro.maple import expose_and_record
        from repro.lang import compile_source
        source = """
        int x;
        int bump(int u) { x = x + 1; return 0; }
        int main() {
            int a; int b;
            a = spawn(bump, 0); b = spawn(bump, 0);
            join(a); join(b);
            assert(x == 2, 11);
            return 0;
        }
        """
        program = compile_source(source, name="maple_demo")
        result = expose_and_record(program, profile_seeds=range(4))
        payload = result.payload()
        validate_report(payload)
        assert payload["kind"] == "maple"
        assert payload["candidate_count"] == result.candidates

    def test_hunt_payload_validates(self):
        from repro.analysis.hunt import hunt
        from repro.analysis.report import HuntFinding, validate_report
        program, pinball, _races = self._racy()
        result = hunt(pinball, program, budget=4, profile_seeds=2,
                      minimize_budget=4, slice_reports=False)
        payload = result.payload()
        validate_report(payload)
        assert payload["kind"] == "hunt"
        for row in payload["findings"]:
            finding = HuntFinding.from_payload(row)
            assert finding.to_payload() == row

    def test_validate_report_rejects_malformed(self):
        from repro.analysis.report import validate_report
        with pytest.raises(ValueError):
            validate_report({"schema": "something.else",
                             "schema_version": 1, "kind": "races",
                             "finding_count": 0, "findings": []})
        with pytest.raises(ValueError):
            validate_report({"schema": "repro.report", "schema_version": 1,
                             "kind": "nope", "finding_count": 0,
                             "findings": []})
