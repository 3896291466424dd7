"""The Maple + DrDebug loop: expose a concurrency bug, record a pinball.

Workflow (paper Section 6, "Integration with Maple"):

1. Profile the program under a handful of seeded schedules, collecting
   observed iRoots.  If a profiling run fails outright, just re-record it.
2. For each predicted (untested) iRoot, run the active scheduler *under
   the PinPlay logger*.  The first run that trips the failure symptom
   yields a pinball that replays the bug deterministically — ready for
   cyclic debugging and slicing.

Neither phase builds a per-instruction event, on either engine: the
profiler listens on the recorder protocol, and the active scheduler
watches its iRoot itself, so its runs record with the event-free
:class:`~repro.pinplay.logger.FastRecorder` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.isa.program import Program
from repro.maple.active_scheduler import ActiveScheduler
from repro.maple.idioms import IRoot
from repro.maple.profiler import InterleavingProfiler
from repro.obs.registry import OBS
from repro.pinplay.logger import record_region
from repro.pinplay.pinball import Pinball
from repro.pinplay.regions import RegionSpec
from repro.vm.scheduler import RandomScheduler


@dataclass
class MapleResult:
    """Outcome of an expose-and-record session."""

    pinball: Optional[Pinball]      # None if nothing failed
    exposed_by: Optional[str]       # "profiling" | "active" | None
    iroot: Optional[IRoot]          # the forced iRoot, for "active"
    profile_runs: int
    active_runs: int
    candidates: int

    @property
    def exposed(self) -> bool:
        return self.pinball is not None

    def payload(self) -> dict:
        """The shared analysis-report envelope (kind ``maple``) — the
        one JSON shape CLI/library/serve all emit; replaces the ad-hoc
        per-caller dicts."""
        from repro.analysis.report import maple_report_payload
        return maple_report_payload(self)


def expose_and_record(program: Program,
                      inputs: Sequence = (),
                      profile_seeds: Sequence[int] = range(4),
                      max_active_runs: int = 50,
                      switch_prob: float = 0.1,
                      region: Optional[RegionSpec] = None,
                      give_up_budget: int = 10_000) -> MapleResult:
    """Try to expose a failure and capture it in a pinball."""
    region = region or RegionSpec()
    profiler = InterleavingProfiler(program, inputs=inputs)
    profiler.run(list(profile_seeds), switch_prob=switch_prob)
    profile_runs = len(list(profile_seeds))

    if profiler.failing_seed is not None:
        # The bug showed up during profiling: record that exact schedule.
        pinball = record_region(
            program,
            RandomScheduler(seed=profiler.failing_seed,
                            switch_prob=switch_prob),
            region, inputs=inputs)
        if pinball.meta.get("failure"):
            OBS.add("maple.exposed", 1)
            return MapleResult(pinball, "profiling", None,
                               profile_runs, 0, 0)

    candidates: List[IRoot] = profiler.predicted()
    active_runs = 0
    for iroot in candidates[:max_active_runs]:
        active_runs += 1
        scheduler = ActiveScheduler(iroot, give_up_budget=give_up_budget)
        with OBS.span("maple.active_run"):
            pinball = record_region(program, scheduler, region,
                                    inputs=inputs)
        if OBS.enabled:
            OBS.add("maple.active_runs", 1)
            OBS.add("maple.iroots_forced", 1)
            OBS.add("maple.schedule_delays", scheduler.delays)
            if scheduler.gave_up:
                OBS.add("maple.give_ups", 1)
        if pinball.meta.get("failure"):
            OBS.add("maple.exposed", 1)
            return MapleResult(pinball, "active", iroot,
                               profile_runs, active_runs, len(candidates))
    return MapleResult(None, None, None, profile_runs, active_runs,
                       len(candidates))
