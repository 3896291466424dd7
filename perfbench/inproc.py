"""The in-process workloads: ``cycle``, ``reexec`` and ``hunt``.

All three run the paper's cyclic-debugging loop through the library's
public entry points: record a region, replay it, cold-open a slicing
session from the saved pinball, answer a seeded query sequence, and
replay one execution slice (paper Figs. 11-14).  ``hunt`` puts the bug
firehose in front of that loop; its debugging rounds run on the two bug
recordings it hunts.

Each segment process of a run draws its own recordings from the run's
seed, so a run's medians pool a few recordings instead of hanging on one.
"""

from __future__ import annotations

import os
import random
import time
from typing import Callable, Dict, List, Optional

from repro.analysis.hunt import (PerturbedScheduler, confirm, dedupe_rows,
                                 evaluate, hunt, scan)
from repro.lang import compile_source
from repro.maple import expose_and_record
from repro.pinplay import (Pinball, RegionSpec, record_region, replay,
                           replay_machine)
from repro.pinplay.pinball import state_hash
from repro.serve.sessions import slice_payload
from repro.slicing import SliceOptions, SlicingSession
from repro.vm import RandomScheduler, ReplayDivergence
from repro.workloads import get_bug, get_parsec, get_pointer_bug

from common import Tally, Timed, Tracer

NTHREADS = 4
SWITCH_PROB = 0.05

#: ``cycle``: blackscholes at ~5*10^4 steps (units scale the per-thread
#: loop), the library's default pinball format, checkpoint interval and
#: slice index.
CYCLE_UNITS = 150
#: ``reexec``: twice ``cycle``'s region as pinball v2, with a checkpoint
#: interval far below the region length, sliced with the reexec index.
REEXEC_UNITS = 300
REEXEC_INTERVAL = 2048

#: blackscholes statements of the per-unit pricing computation.  Their
#: backward closures stay inside a few checkpoint windows, which is the
#: regime the reexec index answers by re-replaying only those windows.
UNIT_SNIPPETS = (
    "results[i] = price_one",
    "prices[i] = 10.0 + i",
    "i = (u * 7 + wid * 31)",
    "d1 = (s / k",
    "d2 = d1 - t",
    "v = s * d1 - k * d2",
)
#: Statements whose closures span the region: each thread's running sum
#: (its instances in the second half of the thread's loop) and its
#: update of the shared ``total`` accumulator.
SPAN_SNIPPETS = ("sum = sum + results[i]", "total = total + sum")

#: ``hunt``: two bug analogs at the default hunt budget, sized so a
#: round (one hunt of each) takes about a second.
HUNT_BUGS = (
    ("pbzip2", get_bug, {"warmup": 60, "iters": 14, "teardown_work": 50}),
    ("dangle_reuse", get_pointer_bug,
     {"warmup": 60, "rounds": 12, "recycle_work": 25}),
)
#: Maple profiling runs that expose each bug in set-up.
EXPOSE_SEEDS = 4
#: Recording pairs each segment cycles through (see HuntWorkload).
HUNT_PAIRS = 4

#: Queries per round, by kind.  Re-queries hit the slice cache; they stay
#: under a fifth of each sequence so the median falls among computed
#: slices, and region-spanning criteria make up about a tenth so the
#: 95th percentile falls inside their band, not at its edge.
CYCLE_UNIT_QUERIES = 80
CYCLE_SPAN_QUERIES = 14
CYCLE_REQUERIES = 20
REEXEC_REQUERIES = 6
#: One re-query per this many fresh criteria on ``hunt``.
HUNT_REQUERY_SHARE = 5
#: Fewest nodes in the slice of a ``hunt`` criterion.  About a fifth of
#: the statements' final instances slice to eight nodes or fewer and
#: answer in tens of microseconds; the rest have hundreds of nodes and
#: take 0.15 ms and more.  With both in the mix the median sat on the
#: shoulder between the two bands (0.15 ms at the 30th percentile,
#: 0.47 ms at the 50th), where it moved with their share.
HUNT_MIN_SLICE_NODES = 10
#: Timed slices per round whose answers the oracle recomputes.
CHECKED_PER_ROUND = 2
#: Criteria the traced run's serve probes slice through the service.
PROBE_CRITERIA = 10


def source_lines(source: str, snippets) -> List[int]:
    numbered = list(enumerate(source.splitlines(), 1))
    lines = []
    for snippet in snippets:
        matches = [lineno for lineno, text in numbered if snippet in text]
        if not matches:
            raise RuntimeError("kernel source lost statement %r" % snippet)
        lines.append(matches[0])
    return lines


def canonical(dslice) -> dict:
    """The slice's deterministic wire rendering; equal renderings encode
    to equal bytes (the session argument of ``slice_payload`` is
    unused)."""
    return slice_payload(None, dslice)


def statement_ends(instances) -> list:
    """The last instance of each execution of a statement: a thread runs
    a statement's instructions back to back, so a gap in the instruction
    index starts the next execution.  For ``sum = sum + x`` that last
    instruction is the store, whose slice reaches every earlier sum."""
    ordered = sorted(instances)
    return [inst for inst, nxt in zip(ordered, ordered[1:] + [None])
            if nxt is None or nxt[1] != inst[1] + 1]


def statement_finals(session: SlicingSession, source: str,
                     pinball: Pinball) -> list:
    """The last executed instance of every source line, per thread: the
    final state of each statement near a failure."""
    counts = pinball.meta["thread_instr_counts"]
    tids = sorted(int(tid) for tid, count in counts.items() if count)
    finals = set()
    for line in range(1, len(source.splitlines()) + 1):
        for tid in tids:
            try:
                finals.add(session.last_instance_at_line(line, tid=tid))
            except ValueError:
                pass
    return sorted(finals)


def with_requeries(rng: random.Random, fresh: list, count: int) -> list:
    """``fresh`` in seeded order with ``count`` repeats of earlier
    criteria inserted after their first occurrence."""
    sequence = list(fresh)
    rng.shuffle(sequence)
    for _ in range(count):
        at = rng.randrange(1, len(sequence) + 1)
        sequence.insert(at, sequence[rng.randrange(at)])
    return sequence


def random_scheduler(seed: int, switch_prob: float):
    return lambda: RandomScheduler(seed=seed, switch_prob=switch_prob)


class Plan:
    """One round's slicing work on one region."""

    def __init__(self, first, queries, exec_criterion, checked):
        self.first = first
        self.queries = queries
        self.exec_criterion = exec_criterion
        #: Indices into ``queries`` whose answers the oracle rechecks.
        self.checked = checked


class Region:
    """A program region the debugging loop records, replays and slices."""

    def __init__(self, name: str, source: str, program_name: str,
                 path: str, scheduler: Callable,
                 options: Optional[SliceOptions] = None,
                 **record_kwargs) -> None:
        self.name = name
        self.source = source
        self.program_name = program_name
        self.path = path
        #: A fresh scheduler per recording; the same one every time, so
        #: each round records the same execution.
        self.scheduler = scheduler
        self.options = options
        self.record_kwargs = record_kwargs
        self.program = None
        self.final_hash = None
        #: Slice criteria scouted in set-up (``hunt`` only).
        self.criteria: list = []

    def compile(self, tracer: Tracer) -> None:
        with tracer.span("lang.compile"):
            self.program = compile_source(self.source,
                                          name=self.program_name)

    def record(self, tracer: Tracer) -> Pinball:
        with tracer.span("pinplay.record"):
            return record_region(self.program, self.scheduler(),
                                 RegionSpec(), **self.record_kwargs)

    def open(self, pinball: Pinball, tracer: Tracer) -> SlicingSession:
        with tracer.span("slicing.open"):
            return SlicingSession(pinball, self.program, self.options)


def verified_replay(pinball: Pinball, program, tracer: Tracer) -> None:
    """``replay(verify=True)``; the traced run makes the same three calls
    the library makes inside it, so restore, run and verify get spans."""
    if not tracer.enabled:
        replay(pinball, program, verify=True)
        return
    with tracer.span("pinplay.restore"):
        machine = replay_machine(pinball, program)
    with tracer.span("vm.run"):
        machine.run(max_steps=pinball.total_steps)
    with tracer.span("pinplay.verify"):
        expected = pinball.meta.get("final_state_hash")
        if expected is not None and state_hash(machine) != expected:
            raise ReplayDivergence("final state hash mismatch")
        output = pinball.meta.get("output")
        if output is not None and list(machine.output) != list(output):
            raise ReplayDivergence("replay output diverged")


class Cycle:
    """Per-round results of :func:`debug_cycle`, kept for the checks."""

    def __init__(self) -> None:
        self.times: Dict[str, float] = {}
        self.query_s: List[float] = []
        self.first = None
        self.first_nodes = 0
        self.final_hash = None
        self.ops = 0
        #: (criterion, slice) answers the oracle rechecks.
        self.answers: List[tuple] = []
        #: The round's session, released by :meth:`settle` so its
        #: teardown falls outside the round.
        self.session = None

    def op_s(self) -> List[float]:
        """Latency of every timed operation of the round."""
        return list(self.times.values()) + self.query_s

    def settle(self) -> None:
        self.session = None


def debug_cycle(region: Region, plan: Plan, tracer: Tracer,
                checked_first: bool) -> Cycle:
    """record -> replay -> cold first slice -> queries -> execution slice.

    Raises on the first failed operation; the caller counts it.
    """
    out = Cycle()
    program = region.program
    with Timed(tracer, "record_s") as timer:
        pinball = region.record(tracer)
        with tracer.span("pinplay.save"):
            pinball.save(region.path)
    out.times["record_s"] = timer.elapsed
    out.final_hash = pinball.meta.get("final_state_hash")
    tracer.note("vm.steps", pinball.total_steps)
    tracer.note("pinplay.checkpoints", len(pinball.checkpoints or ()))
    if tracer.enabled:
        tracer.note("pinplay.pinball_bytes", os.path.getsize(region.path))

    with Timed(tracer, "replay_s") as timer:
        verified_replay(pinball, program, tracer)
    out.times["replay_s"] = timer.elapsed

    with Timed(tracer, "first_slice_s") as timer:
        with tracer.span("pinplay.load"):
            loaded = Pinball.load(region.path)
        session = region.open(loaded, tracer)
        with tracer.span("slicing.query"):
            first = session.slice_for(plan.first)
    out.times["first_slice_s"] = timer.elapsed
    out.first = plan.first
    out.first_nodes = len(first.nodes)
    tracer.note("slicing.trace_s", session.trace_time)
    tracer.note("slicing.preprocess_s", session.preprocess_time)

    if checked_first:
        out.answers.append((plan.first, first))
    clock = time.perf_counter
    with tracer.span("op.slice_ms"):
        for index, criterion in enumerate(plan.queries):
            with tracer.span("slicing.query"):
                started = clock()
                dslice = session.slice_for(criterion)
                out.query_s.append(clock() - started)
            if index in plan.checked:
                out.answers.append((criterion, dslice))
        exec_slice = session.slice_for(plan.exec_criterion)

    with Timed(tracer, "exec_slice_s") as timer:
        with tracer.span("pinplay.relog"):
            slice_pinball = session.make_slice_pinball(exec_slice)
        with tracer.span("pinplay.slice_replay"):
            replay(slice_pinball, program)
    out.times["exec_slice_s"] = timer.elapsed
    tracer.note("pinplay.kept",
                slice_pinball.meta.get("kept_instructions") or 0)
    tracer.note("pinplay.instrs", pinball.total_instructions)
    out.ops = 4 + len(plan.queries)
    out.session = session
    return out


def oracle_check(region: Region, pinball: Pinball, checks, options,
                 tally: Tally) -> None:
    """Recompute sampled slices with another index; the renderings must
    be equal."""
    session = SlicingSession(pinball, region.program, options)
    for criterion, answer in checks:
        if canonical(session.slice_for(criterion)) != canonical(answer):
            tally.wrong("%s: slice of %r differs from the %s index"
                        % (region.name, criterion, options.index))


def check_cycles(name: str, region: Region, cycles: List[Cycle],
                 tally: Tally) -> list:
    """Each round recorded the set-up's execution and sliced the same
    first criterion to the same size; returns the answers to recheck."""
    sizes: Dict[tuple, set] = {}
    checks = []
    for number, cycle in enumerate(cycles):
        sizes.setdefault(cycle.first, set()).add(cycle.first_nodes)
        if cycle.final_hash != region.final_hash:
            tally.wrong("%s round %d: recording differs from set-up's"
                        % (name, number))
        checks.extend(cycle.answers)
    for criterion, seen in sizes.items():
        if len(seen) > 1:
            tally.wrong("%s: first slice of %r varies across rounds: %s"
                        % (name, criterion, sorted(seen)))
    return checks


# -- cycle / reexec -----------------------------------------------------------

class SliceWorkload:
    """``cycle`` and ``reexec``: the debugging loop on one PARSEC region."""

    def __init__(self, name: str, seed: int, workdir: str,
                 segment: int) -> None:
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.segment = segment
        self.reexec = name == "reexec"
        self.region: Optional[Region] = None
        self.scout: Optional[Pinball] = None
        self.plans_rng = None

    def setup(self, tracer: Tracer) -> None:
        """Compile, record once, and scout the criteria on that recording."""
        rng = random.Random("%s/%d/%d" % (self.name, self.seed,
                                          self.segment))
        source = get_parsec("blackscholes").source(
            units=REEXEC_UNITS if self.reexec else CYCLE_UNITS,
            nthreads=NTHREADS)
        scheduler = random_scheduler(rng.randrange(1 << 30), SWITCH_PROB)
        path = os.path.join(self.workdir, self.name + ".pinball")
        if self.reexec:
            region = Region(self.name, source, "blackscholes", path,
                            scheduler, SliceOptions(index="reexec"),
                            pinball_format="v2",
                            checkpoint_interval=REEXEC_INTERVAL)
        else:
            region = Region(self.name, source, "blackscholes", path,
                            scheduler)
        region.compile(tracer)
        scout_pb = region.record(tracer)
        scout = region.open(scout_pb, tracer)
        unit_lines = source_lines(source, UNIT_SNIPPETS)
        if self.reexec:
            self.first = None
            self.unit_pool = sorted(
                {scout.last_instance_at_line(line, tid=tid)
                 for line in unit_lines for tid in range(NTHREADS)})
            self.span_pool = []
        else:
            self.first = scout.last_write_to_global("total")
            total = scout.slice_for(self.first)
            wanted = set(unit_lines)
            self.unit_pool = sorted(inst for inst, node in total.nodes.items()
                                    if node.line in wanted)
            self.span_pool = []
            for line in source_lines(source, SPAN_SNIPPETS):
                for tid in range(NTHREADS):
                    ends = statement_ends(
                        inst for inst, node in total.nodes.items()
                        if node.line == line and inst[0] == tid)
                    self.span_pool.extend(ends[len(ends) // 2:])
        self.exec_pool = [scout.last_instance_at_line(unit_lines[0], tid=tid)
                          for tid in range(NTHREADS)]
        region.final_hash = scout_pb.meta.get("final_state_hash")
        self.region = region
        self.scout = scout_pb
        self.plans_rng = random.Random(rng.randrange(1 << 30))

    def plan_round(self, number: int) -> Plan:
        rng = self.plans_rng
        if self.reexec:
            pool = list(self.unit_pool)
            rng.shuffle(pool)
            first, fresh = pool[0], pool[1:]
            queries = with_requeries(rng, fresh, REEXEC_REQUERIES)
        else:
            first = self.first
            fresh = (rng.sample(self.unit_pool, CYCLE_UNIT_QUERIES)
                     + rng.sample(self.span_pool, CYCLE_SPAN_QUERIES))
            queries = with_requeries(rng, fresh, CYCLE_REQUERIES)
        checked = set(rng.sample(range(len(queries)), CHECKED_PER_ROUND))
        return Plan(first, queries, rng.choice(self.exec_pool), checked)

    def check_first(self, number: int) -> bool:
        """Whether the oracle rechecks this round's first slice.  On
        ``cycle`` that is the same region-spanning slice every round,
        costly to render, so one round of one segment carries it and the
        other rounds are checked for the same node count."""
        if self.reexec:
            return True
        return number == 0 and self.segment == 0

    def round(self, number: int, plan: Plan, tracer: Tracer, samples,
              tally: Tally):
        started = time.perf_counter()
        try:
            cycle = debug_cycle(self.region, plan, tracer,
                                checked_first=self.check_first(number))
        except (ReplayDivergence, ValueError, IndexError, OSError) as exc:
            tally.fail("%s round %d: %s: %s" % (self.name, number,
                                                type(exc).__name__, exc))
            return None
        samples["round_s"].append(time.perf_counter() - started)
        tally.ok(cycle.ops)
        for metric, value in cycle.times.items():
            samples[metric].append(value)
        samples["slice_ms"].extend(s * 1000.0 for s in cycle.query_s)
        samples["req_ms"].extend(s * 1000.0 for s in cycle.op_s())
        return cycle

    @staticmethod
    def settle(cycle: Cycle) -> None:
        cycle.settle()

    def check(self, cycles: List[Cycle], tally: Tally) -> None:
        checks = check_cycles(self.name, self.region, cycles, tally)
        # reexec answers are checked against the full DDG; ddg answers
        # against the paper's LP scan over the columnar trace.
        options = SliceOptions(index="ddg" if self.reexec else "columnar")
        oracle_check(self.region, self.scout, checks, options, tally)

    def subject(self):
        """(region, pinball, plan, small criteria) for the traced run's
        layer probes."""
        step = max(1, len(self.unit_pool) // PROBE_CRITERIA)
        return (self.region, self.scout, self.plan_round(-1),
                self.unit_pool[::step][:PROBE_CRITERIA])

    def close(self) -> None:
        pass


# -- hunt ---------------------------------------------------------------------

class HuntWorkload:
    """``hunt``: the bug firehose, then the debugging loop on its inputs.

    Each round hunts one recording of each analog.  A segment keeps
    :data:`HUNT_PAIRS` such pairs and cycles through them: hunt cost and
    the slowest slices follow the exposing schedule (how many context
    switches there are to minimize away), so one pair would tie a run's
    medians to one draw.
    """

    name = "hunt"

    def __init__(self, seed: int, workdir: str, segment: int) -> None:
        self.seed = seed
        self.workdir = workdir
        self.segment = segment
        #: Per pair, one (bug, region, pinball) per analog.
        self.pairs: List[List[tuple]] = []
        self.plans_rng = None

    def setup(self, tracer: Tracer) -> None:
        """Compile each analog and expose its bug with Maple (profiling
        runs, then active scheduling), recording the failing run."""
        rng = random.Random("hunt/%d/%d" % (self.seed, self.segment))
        self.pairs = [[] for _ in range(HUNT_PAIRS)]
        for name, getter, params in HUNT_BUGS:
            bug = getter(name)
            source = bug.source(**params)
            with tracer.span("lang.compile"):
                program = compile_source(source, name=name)
            for index, pair in enumerate(self.pairs):
                base = rng.randrange(1 << 20)
                with tracer.span("maple.expose"):
                    exposed = expose_and_record(
                        program,
                        profile_seeds=range(base, base + EXPOSE_SEEDS),
                        switch_prob=bug.switch_prob)
                pinball = exposed.pinball
                code = (pinball.meta.get("failure") or {}).get("code") \
                    if pinball is not None else None
                if code != bug.failure_code:
                    raise RuntimeError("%s: Maple exposed failure %r, "
                                       "expected %d"
                                       % (name, code, bug.failure_code))
                # Rounds re-record the failing run from its schedule.
                region = Region(
                    name, source, name,
                    os.path.join(self.workdir,
                                 "%s-%d.pinball" % (name, index)),
                    lambda runs=pinball.schedule: PerturbedScheduler(runs))
                region.program = program
                region.final_hash = pinball.meta.get("final_state_hash")
                session = region.open(pinball, tracer)
                region.criteria = [
                    criterion for criterion
                    in statement_finals(session, source, pinball)
                    if len(session.slice_for(criterion).nodes)
                    >= HUNT_MIN_SLICE_NODES]
                if not region.criteria:
                    raise RuntimeError("%s: no statement slices to %d "
                                       "nodes or more"
                                       % (name, HUNT_MIN_SLICE_NODES))
                pair.append((bug, region, pinball))
        self.plans_rng = random.Random(rng.randrange(1 << 30))

    def plan(self, region: Region, pinball: Pinball) -> Plan:
        """The failure slice first, then the final execution of every
        statement of every thread in seeded order, with re-queries."""
        rng = self.plans_rng
        queries = with_requeries(rng, region.criteria,
                                 len(region.criteria) // HUNT_REQUERY_SHARE)
        failure = pinball.meta["failure"]
        first = (int(failure["tid"]), int(failure["tindex"]))
        checked = set(rng.sample(range(len(queries)), 1))
        return Plan(first, queries, first, checked)

    def plan_round(self, number: int) -> List[Plan]:
        return [self.plan(region, pinball)
                for _bug, region, pinball in self.pairs[number % HUNT_PAIRS]]

    @staticmethod
    def hunt_one(program, pinball: Pinball, tracer: Tracer):
        """``hunt()``; the traced run calls its three stages itself.
        Returns the findings' failure codes and minimized pinballs."""
        if not tracer.enabled:
            result = hunt(pinball, program)
            return ([f.failure_code for f in result.findings],
                    list(result.minimized.values()))
        with tracer.span("analysis.scan"):
            races, candidates, ctx = scan(pinball, program)
        with tracer.span("analysis.evaluate"):
            rows = evaluate(program, candidates, ctx)
        tracer.note("analysis.candidates", len(rows))
        tracer.note("analysis.confirmed", sum(
            1 for row in rows if row["outcome"] != "benign"))
        codes, minimized = [], []
        for candidate, row in dedupe_rows(candidates, rows):
            with tracer.span("analysis.confirm"):
                finding, pb = confirm(program, candidate, row, ctx,
                                      races=races)
            codes.append(finding.failure_code)
            minimized.append(pb)
        return codes, minimized

    def round(self, number: int, plans: List[Plan], tracer: Tracer,
              samples, tally: Tally):
        pair = self.pairs[number % HUNT_PAIRS]
        found = []
        with Timed(tracer, "round_s") as timer:
            for bug, region, pinball in pair:
                started = time.perf_counter()
                codes, minimized = self.hunt_one(region.program, pinball,
                                                 tracer)
                samples["req_ms"].append(
                    (time.perf_counter() - started) * 1000.0)
                found.append((bug, region, codes, minimized))
        samples["round_s"].append(timer.elapsed)
        tally.ok(len(pair))
        sums: Dict[str, float] = {}
        queries: List[float] = []
        cycles = []
        for (bug, region, pinball), plan in zip(pair, plans):
            try:
                cycle = debug_cycle(region, plan, tracer,
                                    checked_first=number < HUNT_PAIRS)
            except (ReplayDivergence, ValueError, IndexError,
                    OSError) as exc:
                tally.fail("hunt round %d %s: %s: %s"
                           % (number, region.name, type(exc).__name__, exc))
                return None
            tally.ok(cycle.ops)
            for metric, value in cycle.times.items():
                sums[metric] = sums.get(metric, 0.0) + value
            queries.extend(cycle.query_s)
            samples["req_ms"].extend(s * 1000.0 for s in cycle.op_s())
            cycles.append(cycle)
        for metric, value in sums.items():
            samples[metric].append(value)
        samples["slice_ms"].extend(s * 1000.0 for s in queries)
        return number % HUNT_PAIRS, found, cycles

    @staticmethod
    def settle(result) -> None:
        for cycle in result[2]:
            cycle.settle()

    def check(self, results, tally: Tally) -> None:
        """Every hunt finds its analog's failure, each minimized pinball
        reproduces it on replay, and sampled slices match the LP scan."""
        for number, (_pair, found, _cycles) in enumerate(results):
            for bug, region, codes, minimized in found:
                if not codes or set(codes) != {bug.failure_code}:
                    tally.wrong("hunt round %d %s: findings %r, expected "
                                "failure code %d"
                                % (number, region.name, codes,
                                   bug.failure_code))
                for pb in minimized:
                    _machine, result = replay(pb, region.program)
                    code = (result.failure or {}).get("code")
                    if code != bug.failure_code:
                        tally.wrong("hunt round %d %s: minimized pinball "
                                    "replays to failure %r"
                                    % (number, region.name, code))
        for number, pair in enumerate(self.pairs):
            for index, (_bug, region, pinball) in enumerate(pair):
                cycles = [cycles[index] for used, _found, cycles in results
                          if used == number]
                checks = check_cycles(region.name, region, cycles, tally)
                oracle_check(region, pinball, checks,
                             SliceOptions(index="columnar"), tally)

    def subject(self):
        _bug, region, pinball = self.pairs[0][0]
        plan = self.plan(region, pinball)
        return region, pinball, plan, plan.queries[:PROBE_CRITERIA]

    def close(self) -> None:
        pass
