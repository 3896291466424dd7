"""The bug firehose: in-situ schedule hunting over a recorded envelope.

The iReplayer-inspired capstone pipeline (see PAPERS.md): instead of
merely *flagging* suspected concurrency bugs, validate them by cheap
repeated in-situ re-execution.  Three stages:

1. **Detect** — one online race-detection pass over the recording
   (:func:`repro.detect.detect_races`, untraced fast path) plus maple
   interleaving profiling (on the recorder protocol, untraced too)
   yields racy site pairs and predicted iRoots.
2. **Permute** — each candidate becomes a fresh schedule of the
   recorded region: racy pairs and iRoots are *forced* (both orders)
   with the maple active scheduler; remaining budget goes to seeded
   random perturbations.  All nondeterminism besides the schedule is
   pinned (memory, threads, inputs, rand state and heap poison all
   ride in the region snapshot), so each candidate run is fully
   deterministic.
3. **Classify & shrink** — every outcome is classified **crash** (the
   VM failure fired), **wrong-output** (differs from the deterministic
   round-robin reference), **benign**, or **overrun** (the run did not
   end within the step cap).  Each distinct confirmed failure is then
   greedily minimized — context switches are removed from the exposing
   schedule while the failure keeps reproducing — and recorded into a
   *minimized pinball*, with a pre-computed slice report rooted at the
   failing instruction.

Every re-execution (the reference run, each candidate, each
minimization attempt, the final minimized recording) starts from the
recording's region snapshot, as replay does, so a region behind a
``skip`` hunts the state and schedule it was recorded with and no run
fast-forwards.  Each is a *bare* run of the region, with no recorder
and no tool; its outcome is read off the machine.  A candidate's
schedule comes from the run loop's own RLE log
(:meth:`~repro.vm.machine.Machine.set_schedule_log`), armed without the
recorder's memory half, so the run stays on the untraced table on
either engine.

Runs share prefixes by forking: a fork restores a base machine's
current state and runs only the suffix.  A forced candidate's active
scheduler picks as round-robin until its first *hold* (a pick where a
runnable thread sits at the iRoot's second site before the first site
has run), so each :func:`evaluate` call runs one round-robin base for
its forced candidates, and each forks the base at its first hold with
its own scheduler at the base's round-robin position; a candidate that
never holds has the base's row.  A minimization attempt forks a base
that ran the current schedule up to where the attempt diverges.  One
pinball is recorded per finding: the final minimized schedule's.

Every re-execution is bounded: ``ctx["step_cap"]`` region steps, a
multiple of the recording's (:data:`STEP_CAP_FACTOR`, at least
:data:`STEP_CAP_MIN`).  A schedule that livelocks the guest therefore
ends as an ``overrun`` row — counted, never deduped into a finding,
minimized or recorded — instead of hanging the hunt.  A capped
reference run leaves ``reference_output`` None.  Maple's profiling runs
in ``scan`` start at machine start, so they stop at ``skip`` plus the
cap.

Everything is deterministic by construction: candidates are generated
in sorted order, each row is what the candidate's own run gives (a fork
runs exactly that), and rows are merged by candidate id — so a hunt
distributed over the serve worker pool yields byte-identical minimized
pinballs to an in-process one (the differential suite asserts it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from repro import config
from repro.analysis.report import (HuntFinding, RaceFinding, SliceReport,
                                   hunt_report_payload)
from repro.detect import detect_races
from repro.isa.program import Program
from repro.maple.active_scheduler import BASE_QUANTUM, ActiveScheduler
from repro.maple.idioms import IRoot, MemAccess
from repro.maple.profiler import InterleavingProfiler
from repro.obs.registry import OBS
from repro.pinplay.format_v2 import capture_state
from repro.pinplay.logger import record_from, run_region
from repro.pinplay.pinball import Pinball
from repro.pinplay.regions import RegionSpec
from repro.pinplay.replayer import restore_machine
from repro.vm.machine import Machine
from repro.vm.scheduler import (RandomScheduler, RoundRobinScheduler,
                                ScheduleRecorder, Scheduler)

__all__ = ["HuntResult", "PerturbedScheduler", "confirm", "evaluate",
           "hunt", "hunt_context", "make_candidates", "scan"]

#: Preemption rate for seeded filler candidates.
SEED_SWITCH_PROB = 0.3
#: Active-scheduler delay budget per forced candidate.
GIVE_UP_BUDGET = 4_000
#: Step cap of every re-execution, as a multiple of the recording's steps.
STEP_CAP_FACTOR = 8
#: Floor for the step cap (tiny recordings still need room to finish).
STEP_CAP_MIN = 50_000


class PerturbedScheduler(Scheduler):
    """Follow an RLE run list *leniently*; round-robin past its end.

    Unlike :class:`~repro.vm.scheduler.RecordedScheduler` this never
    raises on divergence: when the intended thread is not runnable the
    rest of its run is dropped, and when the list is exhausted a
    round-robin tail takes over.  That makes any mutation of a recorded
    schedule executable — the property minimization relies on.
    Deterministic for a fixed run list.

    Hunt runs start at region entry, so the list is a region schedule
    (the recording's, or a mutation of it) and ``steps`` counts region
    steps.  ``leaves[i]`` notes the steps committed before it left run
    ``i``.
    """

    def __init__(self, runs: Sequence[Tuple[int, int]],
                 quantum: int = 50) -> None:
        self._runs = [(int(tid), int(count)) for tid, count in runs
                      if int(count) > 0]
        self._index = 0
        self._used = 0
        self._tail = RoundRobinScheduler(quantum=quantum)
        self.steps = 0
        self.leaves: List[int] = []

    def pick(self, runnable: Sequence[int], last: Optional[int]) -> int:
        runs = self._runs
        while self._index < len(runs):
            tid, count = runs[self._index]
            if self._used < count:
                if tid in runnable:
                    return tid
                # Intended thread blocked or finished early under this
                # perturbation: drop the rest of its run.  (Mutating here
                # is safe: hunt runs never discard picks — no
                # breakpoints.)
            self.leaves.append(self.steps)
            self._index += 1
            self._used = 0
        return self._tail.pick(runnable, last)

    def commit(self, tid: int) -> None:
        self.commit_many(tid, 1)

    def lease(self, tid: int) -> int:
        """The rest of the current run; past the list, the tail's lease."""
        runs = self._runs
        if self._index < len(runs):
            run_tid, count = runs[self._index]
            return count - self._used if tid == run_tid else 0
        return self._tail.lease(tid)

    def commit_many(self, tid: int, n: int) -> None:
        self.steps += n
        runs = self._runs
        if self._index < len(runs) and tid == runs[self._index][0]:
            self._used += n
        else:
            self._tail.commit_many(tid, n)

    def follow(self, runs: Sequence[Tuple[int, int]]) -> "PerturbedScheduler":
        """A scheduler over ``runs`` standing where this one stands: it
        picks as a fresh one that had driven the same steps would, if
        ``runs`` merges the current run with its successors."""
        twin = PerturbedScheduler(runs, quantum=self._tail.quantum)
        twin._index, twin._used = self._index, self._used
        twin.steps, twin.leaves = self.steps, list(self.leaves)
        return twin


class _ForcedBase(RoundRobinScheduler):
    """The round-robin run forced candidates share up to their first hold.

    Until a candidate's :class:`ActiveScheduler` first holds a thread it
    picks exactly as this does.  The base watches each pending
    candidate's sites the way that scheduler would: a committed step on
    a first site settles at the next pick, and once one retires, its
    candidates never hold and keep the base's row.  At a pick where a
    runnable thread sits at a pending candidate's second site, the
    candidate forks the base (the state before that pick) with its own
    scheduler at the base's round-robin position.  Every step is picked
    while a candidate is pending; then the round-robin lease batches,
    and a base whose row no candidate keeps ends.  ``forks`` holds
    ``(candidate, machine, base steps before it)``.
    """

    def __init__(self, program: Program, forced: Sequence[dict],
                 ctx: dict) -> None:
        super().__init__(quantum=BASE_QUANTUM)
        self._program = program
        self._ctx = ctx
        self._pending = {candidate["cid"] for candidate in forced}
        self._firsts: Dict[int, List[dict]] = {}
        self._seconds: Dict[int, List[dict]] = {}
        for candidate in forced:
            self._firsts.setdefault(int(candidate["first_pc"]),
                                    []).append(candidate)
            self._seconds.setdefault(int(candidate["second_pc"]),
                                     []).append(candidate)
        self._note: Optional[tuple] = None
        self._machine: Optional[Machine] = None
        self._shared = False
        self.steps = 0
        self.forks: List[tuple] = []

    def attach(self, machine) -> None:
        self._machine = machine

    def pick(self, runnable: Sequence[int], last: Optional[int]) -> int:
        threads = self._machine.threads
        if self._note is not None:
            tid, pc, retired = self._note
            self._note = None
            if threads[tid].instr_count > retired:
                self._leave(self._firsts.pop(pc, ()), fork=False)
        if self._pending:
            for tid in runnable:
                held = self._seconds.pop(threads[tid].pc, None)
                if held:
                    self._leave(held, fork=True)
        return super().pick(runnable, last)

    def _leave(self, candidates: Sequence[dict], fork: bool) -> None:
        """The pending ones of ``candidates`` leave the base: forked
        here, or keeping its row."""
        for candidate in candidates:
            if candidate["cid"] not in self._pending:
                continue
            self._pending.discard(candidate["cid"])
            if not fork:
                self._shared = True
                continue
            scheduler = _scheduler_for(candidate, self._ctx)
            scheduler._current = self._current
            scheduler._remaining = self._remaining
            self.forks.append((candidate,
                               _restore(self._program, scheduler, self._ctx,
                                        self._machine),
                               self.steps))
        if not self._pending:
            self._firsts.clear()
            self._seconds.clear()
            if not self._shared:
                self._machine.request_exit(0)

    def commit(self, tid: int) -> None:
        super().commit(tid)
        self.steps += 1
        if self._firsts:
            thread = self._machine.threads[tid]
            if thread.pc in self._firsts:
                self._note = (tid, thread.pc, thread.instr_count)

    def lease(self, tid: int) -> int:
        return 0 if self._pending else super().lease(tid)

    def commit_many(self, tid: int, n: int) -> None:
        super().commit_many(tid, n)     # one commit(), then the rest
        self.steps += n - 1


# -- context / candidates -----------------------------------------------------

def hunt_context(pinball: Pinball, program: Program) -> dict:
    """Everything a candidate re-execution needs, as a plain dict.

    ``snapshot`` is the recording's region snapshot, which every run
    starts from; ``inputs`` (for Maple's profiling runs, which start at
    machine start) and ``rand_seed`` (provenance for the minimized
    pinballs) come from the recording's meta.  The reference output
    comes from one deterministic round-robin run of the same region:
    schedule-independent programs always match it, so any mismatch
    under a candidate schedule is an order violation.
    """
    meta = pinball.meta
    ctx = {
        "inputs": list(meta.get("inputs", [])),
        "rand_seed": int(meta.get("rand_seed", 0)),
        "skip": int(meta.get("skip", 0) or 0),
        "length": meta.get("length"),
        "snapshot": pinball.snapshot,
        "step_cap": max(STEP_CAP_MIN, STEP_CAP_FACTOR * pinball.total_steps),
        "recorded_runs": [list(run) for run in pinball.schedule],
        "reference_output": None,
    }
    failure, output, overrun = _run(program, RoundRobinScheduler(), ctx)
    if failure is None and not overrun:
        ctx["reference_output"] = output
    return ctx


def _region(ctx: dict) -> RegionSpec:
    length = ctx.get("length")
    return RegionSpec(skip=int(ctx.get("skip", 0) or 0),
                      length=int(length) if length is not None else None)


def _restore(program: Program, scheduler: Scheduler, ctx: dict,
             base: Optional[Machine] = None) -> Machine:
    """A machine driven by ``scheduler`` from the hunted region's entry
    (the recording's snapshot), or from ``base``'s current state."""
    if base is None:
        return restore_machine(program, ctx["snapshot"], scheduler)
    body = capture_state(base, {}, base.output)
    return restore_machine(program, body["snapshot"], scheduler, body=body,
                           global_seq=base.global_seq, engine=base.engine)


def _finish(machine: Machine, ctx: dict,
            done: int = 0) -> Tuple[Optional[dict], list, bool]:
    """Run ``machine``, ``done`` steps into the region, on to the
    region's end or the step cap: its failure (or None), its output
    since region entry, and whether the cap cut it short."""
    ended = run_region(machine, _region(ctx),
                       max(0, ctx["step_cap"] - done))
    return machine.failure, list(machine.output), ended == "step_cap"


def _run(program: Program, scheduler: Scheduler,
         ctx: dict) -> Tuple[Optional[dict], list, bool]:
    """One bare re-execution of the hunted region (see :func:`_finish`)."""
    return _finish(_restore(program, scheduler, ctx), ctx)


def _logged(machine: Machine, ctx: dict, done: int = 0) -> tuple:
    """:func:`_finish` with the run loop's schedule log armed: the
    failure, output, overrun flag and the RLE runs of this machine's
    steps."""
    log = ScheduleRecorder()
    machine.set_schedule_log(log)
    return _finish(machine, ctx, done) + (log.finish(),)


def _access_kinds(kind: str) -> Tuple[bool, bool]:
    """(first_is_write, second_is_write) for a race kind."""
    return (kind != "read-write", kind != "write-read")


def make_candidates(races, predicted_iroots: Sequence[IRoot],
                    budget: int) -> List[dict]:
    """Candidate schedules, as wire-friendly dicts in evaluation order.

    The recorded schedule itself comes first (a failing recording is
    its own best witness — replaying it in situ confirms and seeds
    minimization).  Then both orders of every detected race pair, the
    maple-predicted iRoots, and seeded random perturbations filling
    the remaining budget (at least two, so even a race-free recording
    gets a nonzero fleet).
    """
    candidates: List[dict] = [
        {"cid": "c000-recorded", "origin": "recorded", "mode": "recorded"},
    ]
    seen: set = set()

    def force(first_pc: int, first_w: bool, second_pc: int, second_w: bool,
              origin: str) -> None:
        key = (first_pc, first_w, second_pc, second_w)
        if key in seen:
            return
        seen.add(key)
        candidates.append({
            "cid": "c%03d-%s" % (len(candidates), origin),
            "origin": origin, "mode": "force",
            "first_pc": first_pc, "first_write": first_w,
            "second_pc": second_pc, "second_write": second_w,
        })

    for race in sorted(races, key=lambda r: (r.addr, r.kind,
                                             r.first_pc, r.second_pc)):
        first_w, second_w = _access_kinds(race.kind)
        # The recorded order already happened; the reversed order is the
        # untested interleaving — force it first.
        force(race.second_pc, second_w, race.first_pc, first_w, "race")
        force(race.first_pc, first_w, race.second_pc, second_w, "race")

    for iroot in sorted(predicted_iroots,
                        key=lambda r: (r.first.pc, r.second.pc)):
        force(iroot.first.pc, iroot.first.is_write,
              iroot.second.pc, iroot.second.is_write, "iroot")

    candidates = candidates[:budget]
    fill = max(2, budget - len(candidates))
    for seed in range(fill):
        candidates.append({
            "cid": "c%03d-seed" % len(candidates),
            "origin": "seed", "mode": "seed", "seed": seed,
        })
    return candidates[:max(budget, 2)]


# -- stages -------------------------------------------------------------------

def scan(pinball: Pinball, program: Program,
         budget: Optional[int] = None,
         profile_seeds: int = 4) -> Tuple[list, List[dict], dict]:
    """Stage 1: detect races, predict iRoots, build the candidate list."""
    budget = config.hunt_budget(explicit=budget)
    with OBS.span("hunt.scan"):
        races = detect_races(pinball, program)
        ctx = hunt_context(pinball, program)
        profiler = InterleavingProfiler(program, inputs=ctx["inputs"])
        profiler.run(list(range(profile_seeds)),
                     switch_prob=SEED_SWITCH_PROB,
                     max_steps=ctx["skip"] + ctx["step_cap"])
        candidates = make_candidates(races, profiler.predicted(), budget)
    if OBS.enabled:
        OBS.add("hunt.scans", 1)
        OBS.add("hunt.races_found", len(races))
        OBS.add("hunt.candidates", len(candidates))
    return races, candidates, ctx


def _scheduler_for(candidate: dict, ctx: dict) -> Scheduler:
    """The scheduler realizing one candidate."""
    if candidate["mode"] == "recorded":
        return PerturbedScheduler(ctx.get("recorded_runs", ()))
    if candidate["mode"] == "seed":
        return RandomScheduler(seed=int(candidate["seed"]),
                               switch_prob=SEED_SWITCH_PROB)
    iroot = IRoot(MemAccess(int(candidate["first_pc"]),
                            bool(candidate["first_write"])),
                  MemAccess(int(candidate["second_pc"]),
                            bool(candidate["second_write"])))
    return ActiveScheduler(iroot, give_up_budget=GIVE_UP_BUDGET)


def _classify(failure: Optional[dict], output: Sequence, ctx: dict,
              overrun: bool = False) -> str:
    """The outcome of a region run that ended with ``failure`` (or
    None) and printed ``output`` since region start; ``overrun`` when
    the step cap cut it short."""
    if overrun:
        return "overrun"
    if failure:
        return "crash"
    reference = ctx.get("reference_output")
    if reference is not None and list(output) != list(reference):
        return "wrong-output"
    return "benign"


def _head(runs: Sequence[Sequence[int]], steps: int) -> List[List[int]]:
    """The first ``steps`` steps of an RLE run list."""
    out: List[List[int]] = []
    for tid, count in runs:
        if steps <= 0:
            break
        out.append([tid, min(count, steps)])
        steps -= count
    return out


def _forced_runs(program: Program, forced: Sequence[dict],
                 ctx: dict) -> Dict[str, tuple]:
    """Every forced candidate's run, by cid, off one round-robin base
    (:class:`_ForcedBase`): a fork's schedule is the base's up to the
    fork, then its own."""
    base = _ForcedBase(program, forced, ctx)
    with OBS.span("hunt.candidate_run"):
        ran = _logged(_restore(program, base, ctx), ctx)
    # Candidates that never forked keep the base's row; a base that
    # ended early is no one's row.
    out = {candidate["cid"]: ran for candidate in forced}
    skipped = 0
    for candidate, fork, done in base.forks:
        with OBS.span("hunt.candidate_run"):
            failure, output, overrun, runs = _logged(fork, ctx, done)
        out[candidate["cid"]] = (failure, output, overrun,
                                 _normalize(_head(ran[3], done)
                                            + [list(run) for run in runs]))
        skipped += done
    if OBS.enabled:
        OBS.add("hunt.forced_forks", len(base.forks))
        OBS.add("hunt.forced_prefix_steps", skipped)
    return out


def evaluate(program: Program, candidates: Sequence[dict],
             ctx: dict) -> List[dict]:
    """Stage 2: run each candidate schedule and classify its outcome.

    Returns one row per candidate, in order.  Rows are plain dicts so a
    serve worker can evaluate a chunk and ship the rows back; confirmed
    rows carry the exposing RLE schedule (the minimization seed).
    """
    forced = [candidate for candidate in candidates
              if candidate["mode"] == "force"]
    forced_runs = _forced_runs(program, forced, ctx) if forced else {}
    rows: List[dict] = []
    for candidate in candidates:
        ran = forced_runs.get(candidate["cid"])
        if ran is None:
            with OBS.span("hunt.candidate_run"):
                ran = _logged(_restore(program,
                                       _scheduler_for(candidate, ctx), ctx),
                              ctx)
        failure, output, overrun, runs = ran
        outcome = _classify(failure, output, ctx, overrun)
        row = {"cid": candidate["cid"], "outcome": outcome,
               "failure": failure and dict(failure), "output": list(output)}
        if outcome in ("crash", "wrong-output"):
            row["schedule_runs"] = [list(run) for run in runs]
        rows.append(row)
        if OBS.enabled:
            OBS.add("hunt.candidate_runs", 1)
            OBS.add("hunt.outcome_%s" % outcome.replace("-", "_"), 1)
    return rows


def _reproduces(failure: Optional[dict], output: Sequence, outcome: str,
                expected: Optional[dict], ctx: dict,
                overrun: bool = False) -> bool:
    """Does a run ending with ``failure``/``output`` (or cut short by the
    step cap) show ``outcome`` (for a crash: with ``expected``'s failure
    code)?"""
    got = _classify(failure, output, ctx, overrun)
    if outcome == "crash":
        return (got == "crash" and expected is not None
                and failure.get("code") == expected.get("code"))
    return got == outcome


def _normalize(runs: List[List[int]]) -> List[List[int]]:
    """Coalesce adjacent same-tid runs and drop empties."""
    out: List[List[int]] = []
    for tid, count in runs:
        if count <= 0:
            continue
        if out and out[-1][0] == tid:
            out[-1][1] += count
        else:
            out.append([tid, count])
    return out


def minimize_schedule(program: Program, runs, outcome: str,
                      failure: Optional[dict], ctx: dict,
                      budget: int = 64
                      ) -> Tuple[List[List[int]], Pinball, int]:
    """Stage 3a: greedy schedule-delta reduction.

    Repeatedly tries to remove one context switch — merging a run into
    its predecessor's thread — keeping any mutation under which the
    failure still reproduces.  Returns the minimized run list, the
    recorded minimized pinball, and the trial count.

    An attempt merging runs *i* and *i+1* picks as the current schedule
    does until that schedule leaves run *i*, so it forks a base machine
    run forward to that step (``leaves[i]``: the prefix sums for the
    exposing schedule, which runs exactly, then the accepted attempt's
    own notes).  An attempt without a note runs from region entry.
    Each pass restarts the base at region entry.
    """
    current = _normalize([list(run) for run in runs])
    leaves = list(accumulate(count for _tid, count in current))
    removed = False
    trials = reused = 0
    base: Optional[Machine] = None
    base_scheduler: Optional[PerturbedScheduler] = None
    with OBS.span("hunt.minimize"):
        improved = True
        while improved and trials < budget:
            improved = False
            index = 0
            base = None
            while index < len(current) - 1 and trials < budget:
                merged = [list(run) for run in current]
                merged[index][1] += merged[index + 1][1]
                del merged[index + 1]
                merged = _normalize(merged)
                trials += 1
                ran = None
                if index < len(leaves):
                    if base is None:
                        base_scheduler = PerturbedScheduler(current)
                        base = _restore(program, base_scheduler, ctx)
                    ahead = leaves[index] - base_scheduler.steps
                    if ahead > 0:
                        base.run(max_steps=ahead)
                    # Until the base leaves run ``index``, each of its
                    # picks is one the merged list makes too.
                    if ahead >= 0 and len(base_scheduler.leaves) <= index:
                        scheduler = base_scheduler.follow(merged)
                        reused += base_scheduler.steps
                        ran = _finish(_restore(program, scheduler, ctx,
                                               base),
                                      ctx, scheduler.steps)
                if ran is None:
                    scheduler = PerturbedScheduler(merged)
                    ran = _run(program, scheduler, ctx)
                got_failure, got_output, overrun = ran
                if not _reproduces(got_failure, got_output, outcome, failure,
                                   ctx, overrun):
                    index += 1
                    continue
                current = merged
                removed = improved = True
                leaves = scheduler.leaves
                if base is not None and len(base_scheduler.leaves) <= index:
                    base_scheduler = base_scheduler.follow(merged)
                    base.scheduler = base_scheduler
                else:
                    base = None
        base = None
        pinball = record_from(
            _restore(program, PerturbedScheduler(current), ctx),
            _region(ctx), rand_seed=ctx["rand_seed"])
    if not removed and not _reproduces(
            pinball.meta.get("failure"), pinball.meta.get("output", []),
            outcome, failure, ctx):
        raise RuntimeError(
            "exposing schedule did not reproduce under re-execution")
    if OBS.enabled:
        OBS.add("hunt.minimize_trials", trials)
        OBS.add("hunt.prefix_steps", reused)
    return current, pinball, trials


def confirm(program: Program, candidate: dict, row: dict, ctx: dict,
            races: Sequence = (),
            minimize_budget: int = 64,
            slice_reports: bool = True
            ) -> Tuple[HuntFinding, Pinball]:
    """Stage 3: minimize one confirmed outcome and pre-slice its report."""
    outcome = row["outcome"]
    failure = row.get("failure")
    runs = row["schedule_runs"]
    minimized, pinball, trials = minimize_schedule(
        program, runs, outcome, failure, ctx, budget=minimize_budget)

    slice_report = None
    if slice_reports and outcome == "crash":
        from repro.slicing import SlicingSession
        with OBS.span("hunt.slice"):
            session = SlicingSession(pinball, program)
            dslice = session.slice_for(session.failure_criterion())
            slice_report = SliceReport.from_slice(dslice)

    race_finding = None
    if candidate.get("origin") == "race":
        pair = {candidate["first_pc"], candidate["second_pc"]}
        for race in races:
            if {race.first_pc, race.second_pc} == pair:
                race_finding = (race if isinstance(race, RaceFinding)
                                else RaceFinding.from_race(race, program))
                break

    descr = "%s via %s schedule" % (outcome, candidate.get("origin"))
    if failure:
        descr += " (failure code %s at pc %s)" % (failure.get("code"),
                                                  failure.get("pc"))
    finding = HuntFinding(
        candidate=candidate["cid"], origin=candidate.get("origin", "?"),
        outcome=outcome,
        failure_code=(failure or {}).get("code"),
        failure=failure,
        schedule_runs=len(_normalize([list(r) for r in runs])),
        minimized_runs=len(minimized),
        race=race_finding,
        slice_report=slice_report,
        description=descr)
    if OBS.enabled:
        OBS.add("hunt.confirmed", 1)
    return finding, pinball


def _signature(row: dict) -> tuple:
    if row["outcome"] == "crash":
        failure = row.get("failure") or {}
        return ("crash", failure.get("code"), failure.get("pc"))
    return ("wrong-output", tuple(row.get("output", ())))


def dedupe_rows(candidates: Sequence[dict],
                rows: Sequence[dict]) -> List[Tuple[dict, dict]]:
    """Confirmed (candidate, row) pairs, first occurrence per distinct
    failure signature, in candidate order — the one dedup rule both the
    in-process and the served pipeline apply."""
    by_cid = {c["cid"]: c for c in candidates}
    seen: set = set()
    out: List[Tuple[dict, dict]] = []
    for row in rows:
        if row["outcome"] not in ("crash", "wrong-output"):
            continue
        signature = _signature(row)
        if signature in seen:
            continue
        seen.add(signature)
        out.append((by_cid[row["cid"]], row))
    return out


@dataclass
class HuntResult:
    """Everything one hunt produced."""

    findings: List[HuntFinding] = field(default_factory=list)
    minimized: Dict[str, Pinball] = field(default_factory=dict)
    races: List[RaceFinding] = field(default_factory=list)
    candidates_tried: int = 0
    benign: int = 0
    overrun: int = 0

    @property
    def confirmed(self) -> bool:
        return bool(self.findings)

    def payload(self) -> dict:
        """The shared report-schema envelope (kind ``hunt``)."""
        return hunt_report_payload(self.findings, races=self.races,
                                   candidates_tried=self.candidates_tried,
                                   benign=self.benign, overrun=self.overrun)


def hunt(pinball: Pinball, program: Program,
         budget: Optional[int] = None,
         profile_seeds: int = 4,
         minimize_budget: int = 64,
         slice_reports: bool = True) -> HuntResult:
    """The full in-process pipeline: scan, evaluate, confirm.

    The serve ``hunt`` verb runs the same three stages with stage 2
    sharded across the worker pool; results are identical (and the
    minimized pinballs byte-identical) because every stage is
    deterministic and merged in candidate order.
    """
    with OBS.span("hunt.total"):
        races, candidates, ctx = scan(pinball, program, budget=budget,
                                      profile_seeds=profile_seeds)
        rows = evaluate(program, candidates, ctx)
        result = HuntResult(
            races=[RaceFinding.from_race(race, program) for race in races],
            candidates_tried=len(rows),
            benign=sum(1 for row in rows if row["outcome"] == "benign"),
            overrun=sum(1 for row in rows if row["outcome"] == "overrun"))
        for candidate, row in dedupe_rows(candidates, rows):
            finding, minimized = confirm(
                program, candidate, row, ctx, races=result.races,
                minimize_budget=minimize_budget,
                slice_reports=slice_reports)
            result.findings.append(finding)
            result.minimized[finding.candidate] = minimized
    if OBS.enabled:
        OBS.add("hunt.runs", 1)
        OBS.add("hunt.findings", len(result.findings))
    return result
