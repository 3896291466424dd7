"""The unified analysis-report surface: one typed schema for findings.

Every analysis in the tree — happens-before race detection
(:mod:`repro.detect`), the maple expose loop (:mod:`repro.maple`), and
the bug-hunt pipeline (:mod:`repro.analysis.hunt`) — reports through
the dataclasses here and serializes to **one versioned JSON envelope**::

    {"schema": "repro.report", "schema_version": 1, "kind": "races",
     "finding_count": N, "findings": [...], ...}

The same payload shape travels over every surface: library returns,
``--json`` CLI output, and the serve/router ``races`` and ``hunt``
verbs, so a multi-stage pipeline can feed one stage's output to the
next without per-surface reshaping.  :func:`validate_report` is the
single checker all of them (and the test suite) share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "HuntFinding",
    "RaceFinding",
    "SCHEMA",
    "SCHEMA_VERSION",
    "SliceReport",
    "hunt_report_payload",
    "maple_report_payload",
    "races_report_payload",
    "report_envelope",
    "validate_report",
]

#: Schema identifier stamped into every report payload.
SCHEMA = "repro.report"
#: Bumped on any incompatible payload change.
SCHEMA_VERSION = 1

#: Envelope kinds this version defines.
REPORT_KINDS = ("races", "hunt", "maple")

#: Hunt outcome classes (see EXPERIMENTS.md, "Bug firehose").  Findings
#: are crash or wrong-output; a hunt report counts its ``benign`` rows and
#: its ``overrun`` rows (runs the step cap cut short, never minimized).
HUNT_OUTCOMES = ("crash", "wrong-output", "benign", "overrun")


@dataclass(frozen=True)
class RaceFinding:
    """One detected race, in report-schema terms.

    Field names deliberately match the wire rows the serve ``races``
    verb always emitted (``repro.serve.sessions.race_payload``), so the
    schema unifies the surfaces without renaming anything on the wire.
    """

    addr: int
    kind: str                  # "write-write" | "read-write" | "write-read"
    first_pc: int
    second_pc: int
    first_instance: Tuple[int, int]
    second_instance: Tuple[int, int]
    description: str = ""

    @classmethod
    def from_race(cls, race, program=None) -> "RaceFinding":
        """Lift a :class:`repro.detect.RaceReport` into the schema."""
        return cls(addr=race.addr, kind=race.kind,
                   first_pc=race.first_pc, second_pc=race.second_pc,
                   first_instance=tuple(race.first_instance),
                   second_instance=tuple(race.second_instance),
                   description=race.describe(program))

    @classmethod
    def from_payload(cls, payload: dict) -> "RaceFinding":
        return cls(addr=int(payload["addr"]), kind=payload["kind"],
                   first_pc=int(payload["first_pc"]),
                   second_pc=int(payload["second_pc"]),
                   first_instance=tuple(payload["first_instance"]),
                   second_instance=tuple(payload["second_instance"]),
                   description=payload.get("description", ""))

    def to_payload(self) -> dict:
        return {
            "addr": self.addr,
            "kind": self.kind,
            "first_pc": self.first_pc,
            "second_pc": self.second_pc,
            "first_instance": list(self.first_instance),
            "second_instance": list(self.second_instance),
            "description": self.description,
        }

    def site_pair(self) -> Tuple[int, int, int]:
        low, high = sorted((self.first_pc, self.second_pc))
        return (self.addr, low, high)


@dataclass(frozen=True)
class SliceReport:
    """A pre-computed slice rooted at a failing instruction."""

    criterion: Tuple[int, int]          # (tid, tindex)
    instance_count: int
    pc_count: int
    lines: Tuple[int, ...]              # sorted unique source lines
    functions: Tuple[str, ...] = ()     # functions the slice touches

    @classmethod
    def from_slice(cls, dslice) -> "SliceReport":
        statements = dslice.source_statements()
        lines = sorted({line for _func, line in statements
                        if line is not None})
        functions = sorted({func for func, _line in statements
                            if func is not None})
        return cls(criterion=tuple(dslice.criterion),
                   instance_count=len(dslice),
                   pc_count=len(dslice.pcs()),
                   lines=tuple(lines), functions=tuple(functions))

    @classmethod
    def from_payload(cls, payload: dict) -> "SliceReport":
        return cls(criterion=tuple(payload["criterion"]),
                   instance_count=int(payload["instance_count"]),
                   pc_count=int(payload["pc_count"]),
                   lines=tuple(payload["lines"]),
                   functions=tuple(payload.get("functions", ())))

    def to_payload(self) -> dict:
        return {
            "criterion": list(self.criterion),
            "instance_count": self.instance_count,
            "pc_count": self.pc_count,
            "lines": list(self.lines),
            "functions": list(self.functions),
        }


@dataclass(frozen=True)
class HuntFinding:
    """One confirmed (or classified) hunt candidate outcome."""

    candidate: str                      # stable candidate id
    origin: str                         # "race" | "iroot" | "seed"
    outcome: str                        # one of HUNT_OUTCOMES
    failure_code: Optional[int] = None
    failure: Optional[dict] = None      # VM failure record, if any
    schedule_runs: int = 0              # RLE runs in the exposing schedule
    minimized_runs: Optional[int] = None
    minimized_key: Optional[str] = None   # store key (served hunts)
    minimized_path: Optional[str] = None  # file path (CLI hunts)
    race: Optional[RaceFinding] = None
    slice_report: Optional[SliceReport] = None
    description: str = ""

    @property
    def confirmed(self) -> bool:
        return self.outcome in ("crash", "wrong-output")

    @classmethod
    def from_payload(cls, payload: dict) -> "HuntFinding":
        race = payload.get("race")
        sl = payload.get("slice")
        return cls(
            candidate=payload["candidate"], origin=payload["origin"],
            outcome=payload["outcome"],
            failure_code=payload.get("failure_code"),
            failure=payload.get("failure"),
            schedule_runs=int(payload.get("schedule_runs", 0)),
            minimized_runs=payload.get("minimized_runs"),
            minimized_key=payload.get("minimized_key"),
            minimized_path=payload.get("minimized_path"),
            race=RaceFinding.from_payload(race) if race else None,
            slice_report=SliceReport.from_payload(sl) if sl else None,
            description=payload.get("description", ""))

    def to_payload(self) -> dict:
        payload = {
            "candidate": self.candidate,
            "origin": self.origin,
            "outcome": self.outcome,
            "failure_code": self.failure_code,
            "failure": self.failure,
            "schedule_runs": self.schedule_runs,
            "minimized_runs": self.minimized_runs,
            "description": self.description,
        }
        if self.minimized_key is not None:
            payload["minimized_key"] = self.minimized_key
        if self.minimized_path is not None:
            payload["minimized_path"] = self.minimized_path
        if self.race is not None:
            payload["race"] = self.race.to_payload()
        if self.slice_report is not None:
            payload["slice"] = self.slice_report.to_payload()
        return payload


# -- envelopes ----------------------------------------------------------------

def report_envelope(kind: str, findings: Sequence, **extra) -> dict:
    """The one JSON envelope every analysis payload shares."""
    if kind not in REPORT_KINDS:
        raise ValueError("unknown report kind %r (have: %s)"
                         % (kind, ", ".join(REPORT_KINDS)))
    rows = [f.to_payload() if hasattr(f, "to_payload") else dict(f)
            for f in findings]
    payload = {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "finding_count": len(rows),
        "findings": rows,
    }
    payload.update(extra)
    return payload


def races_report_payload(races, program=None) -> dict:
    """Race findings under the shared schema."""
    findings = sorted(
        (RaceFinding.from_race(race, program) for race in races),
        key=lambda f: (f.addr, f.kind, f.first_pc, f.second_pc))
    return report_envelope("races", findings)


def maple_report_payload(result) -> dict:
    """A :class:`repro.maple.MapleResult` under the shared schema."""
    findings: List[dict] = []
    if result.exposed:
        failure = result.pinball.meta.get("failure") or {}
        findings.append({
            "candidate": "maple:%s" % (result.exposed_by or "?"),
            "origin": "iroot" if result.exposed_by == "active" else "seed",
            "outcome": "crash",
            "failure_code": failure.get("code"),
            "description": (result.iroot.describe()
                            if result.iroot is not None else
                            "exposed during profiling"),
        })
    return report_envelope(
        "maple", findings,
        exposed=result.exposed,
        exposed_by=result.exposed_by,
        profile_runs=result.profile_runs,
        active_runs=result.active_runs,
        candidate_count=result.candidates)


def hunt_report_payload(findings: Sequence[HuntFinding],
                        races: Sequence[RaceFinding] = (),
                        candidates_tried: int = 0,
                        benign: int = 0,
                        overrun: int = 0,
                        **extra) -> dict:
    """Hunt findings (confirmed bugs) under the shared schema, with the
    counts of candidates tried, benign and overrun."""
    payload = report_envelope(
        "hunt", findings,
        candidates_tried=candidates_tried,
        benign=benign,
        overrun=overrun,
        race_findings=[r.to_payload() for r in races],
        **extra)
    return payload


# -- validation ---------------------------------------------------------------

_RACE_FIELDS = ("addr", "kind", "first_pc", "second_pc",
                "first_instance", "second_instance", "description")
_HUNT_FIELDS = ("candidate", "origin", "outcome")
_SLICE_FIELDS = ("criterion", "instance_count", "pc_count", "lines")


def _check_fields(row: dict, fields, where: str) -> None:
    for name in fields:
        if name not in row:
            raise ValueError("report %s is missing field %r" % (where, name))


def validate_report(payload: dict) -> dict:
    """Check ``payload`` against the schema; returns it for chaining.

    Raises :class:`ValueError` naming the first problem.  This is the
    single checker shared by the CLI, the serve tests, and the public
    API suite — all three surfaces must satisfy it.
    """
    if not isinstance(payload, dict):
        raise ValueError("report payload must be a dict, got %s"
                         % type(payload).__name__)
    if payload.get("schema") != SCHEMA:
        raise ValueError("payload schema is %r, expected %r"
                         % (payload.get("schema"), SCHEMA))
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError("payload schema_version is %r, expected %d"
                         % (version, SCHEMA_VERSION))
    kind = payload.get("kind")
    if kind not in REPORT_KINDS:
        raise ValueError("payload kind is %r, expected one of %s"
                         % (kind, ", ".join(REPORT_KINDS)))
    findings = payload.get("findings")
    if not isinstance(findings, list):
        raise ValueError("report findings must be a list")
    count = payload.get("finding_count")
    if count != len(findings):
        raise ValueError("finding_count %r does not match %d findings"
                         % (count, len(findings)))
    for index, row in enumerate(findings):
        where = "findings[%d]" % index
        if kind == "races":
            _check_fields(row, _RACE_FIELDS, where)
        else:
            _check_fields(row, _HUNT_FIELDS, where)
            if kind == "hunt" and row["outcome"] not in HUNT_OUTCOMES:
                raise ValueError("%s outcome %r not one of %s"
                                 % (where, row["outcome"],
                                    ", ".join(HUNT_OUTCOMES)))
            if "race" in row and row["race"] is not None:
                _check_fields(row["race"], _RACE_FIELDS, where + ".race")
            if "slice" in row and row["slice"] is not None:
                _check_fields(row["slice"], _SLICE_FIELDS,
                              where + ".slice")
    if kind == "hunt":
        for index, row in enumerate(payload.get("race_findings", ())):
            _check_fields(row, _RACE_FIELDS, "race_findings[%d]" % index)
    return payload
