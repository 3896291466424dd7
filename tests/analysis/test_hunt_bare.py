"""Hunt's bare re-executions against the recorder-based pipeline.

Candidates, the reference run and minimization attempts run with no
recorder and no tool, a candidate's schedule comes from the run loop's
log, forced candidates fork one round-robin base at their first hold,
attempts fork a base machine where they diverge, the Maple active
scheduler watches its own iRoot and the profiler listens on the
recorder protocol.  The oracle here is the pipeline
those replaced: every re-execution a ``record_region`` from region
entry (behind a ``skip``, a ``record_from`` of the restored region
snapshot, where every hunt run starts), forced candidates under an
event-driven iRoot watch.  Rows (schedules included), minimized run
lists, trial counts and minimized pinball bytes must match it exactly.
"""

import importlib
from typing import Optional

import pytest

from repro.analysis.hunt import (PerturbedScheduler, dedupe_rows, evaluate,
                                 minimize_schedule, scan)
from repro.isa.instructions import Opcode
from repro.lang import compile_source
from repro.maple import ActiveScheduler, InterleavingProfiler, IRoot, MemAccess
from repro.obs.registry import OBS
from repro.pinplay import RegionSpec, record_region
from repro.pinplay.logger import record_from
from repro.pinplay.pinball import state_hash
from repro.pinplay.replayer import restore_machine
from repro.serve import PinballStore, WorkerPool
from repro.vm import Machine, RandomScheduler, RoundRobinScheduler
from repro.vm.hooks import Tool
from repro.workloads import get_bug, get_pointer_bug

from tests.support.progen import build_program, record_pinball

hunt_mod = importlib.import_module("repro.analysis.hunt")


# -- the oracle: the recorder-based pipeline ----------------------------------

class _EventWatch(Tool):
    """Reports executions of the iRoot's sites from instruction events."""

    wants_instr_events = True

    def __init__(self, iroot: IRoot) -> None:
        self.iroot = iroot
        self.first_done_by: Optional[int] = None
        self.second_done_by: Optional[int] = None
        self.realized = False

    def on_instr(self, event) -> None:
        if event.addr == self.iroot.first.pc and self.first_done_by is None:
            self.first_done_by = event.tid
        elif (event.addr == self.iroot.second.pc
              and self.first_done_by is not None
              and self.second_done_by is None):
            self.second_done_by = event.tid
            if event.tid != self.first_done_by:
                self.realized = True


class _EventActiveScheduler(ActiveScheduler):
    """The active scheduler steered by an event watch instead of itself."""

    def __init__(self, watch: _EventWatch, **kwargs) -> None:
        super().__init__(watch.iroot, **kwargs)
        self.watch = watch

    def _is_held(self, tid: int) -> bool:
        if self.gave_up or self.watch.first_done_by is not None:
            return False
        thread = self._machine.threads.get(tid)
        return thread is not None and thread.pc == self._second_pc

    def commit(self, tid: int) -> None:
        if tid == self._current:
            self._remaining -= 1
        else:
            self._current = tid
            self._remaining = self.base_quantum - 1


def _oracle_execute(program, scheduler, ctx, extra_tools=()):
    """A recording of one re-execution.  Behind a ``skip`` it starts
    from the region snapshot, as the recording's own region did."""
    region = hunt_mod._region(ctx)
    if region.skip:
        return record_from(restore_machine(program, ctx["snapshot"],
                                           scheduler),
                           region, rand_seed=int(ctx.get("rand_seed", 0)),
                           extra_tools=extra_tools)
    poison = ctx["snapshot"]["memory"].get("poison", False)
    return record_region(program, scheduler, region,
                         inputs=ctx.get("inputs", ()),
                         rand_seed=int(ctx.get("rand_seed", 0)),
                         extra_tools=extra_tools,
                         heap_poison=bool(poison))


def _oracle_evaluate(program, candidates, ctx):
    rows = []
    for candidate in candidates:
        extras = ()
        if candidate["mode"] == "force":
            watch = _EventWatch(IRoot(
                MemAccess(int(candidate["first_pc"]),
                          bool(candidate["first_write"])),
                MemAccess(int(candidate["second_pc"]),
                          bool(candidate["second_write"]))))
            scheduler = _EventActiveScheduler(
                watch, give_up_budget=hunt_mod.GIVE_UP_BUDGET)
            extras = (watch,)
        else:
            scheduler = hunt_mod._scheduler_for(candidate, ctx)
        pinball = _oracle_execute(program, scheduler, ctx, extras)
        failure = pinball.meta.get("failure")
        output = list(pinball.meta.get("output", []))
        outcome = hunt_mod._classify(failure, output, ctx)
        row = {"cid": candidate["cid"], "outcome": outcome,
               "failure": failure, "output": output}
        if outcome != "benign":
            row["schedule_runs"] = [list(run) for run in pinball.schedule]
        rows.append(row)
    return rows


def _oracle_minimize(program, runs, outcome, failure, ctx, budget):
    """Every attempt recorded from region entry; the last reproducing
    recording is the minimized pinball."""
    def reproduces(pinball):
        return hunt_mod._reproduces(
            pinball.meta.get("failure"), pinball.meta.get("output", []),
            outcome, failure, ctx)

    current = hunt_mod._normalize([list(run) for run in runs])
    best = None
    trials = 0
    improved = True
    while improved and trials < budget:
        improved = False
        index = 0
        while index < len(current) - 1 and trials < budget:
            merged = [list(run) for run in current]
            merged[index][1] += merged[index + 1][1]
            del merged[index + 1]
            merged = hunt_mod._normalize(merged)
            trials += 1
            pinball = _oracle_execute(program, PerturbedScheduler(merged),
                                      ctx)
            if reproduces(pinball):
                current, best, improved = merged, pinball, True
            else:
                index += 1
    if best is None:
        best = _oracle_execute(program, PerturbedScheduler(current), ctx)
        assert reproduces(best)
    return current, best, trials


# -- inputs -------------------------------------------------------------------

def _exposed(getter, name, start, region=None):
    bug = getter(name)
    program = bug.build()
    pinball, _seed = bug.expose(program, seeds=range(start, start + 64),
                                region=region)
    assert pinball is not None
    return program, pinball


def _pbzip2_skip():
    bug = get_bug("pbzip2")
    program = bug.build()
    region = RegionSpec(skip=bug.buggy_region_skip(program, 3))
    pinball, _seed = bug.expose(program, seeds=range(3, 67), region=region)
    assert pinball is not None and pinball.meta["skip"] > 0
    return program, pinball


def _pbzip2_length(margin):
    """A region cut off just past the main thread's count at the
    failure: an attempt that delays the failure ends at the length."""
    bug = get_bug("pbzip2")
    program = bug.build()
    whole, seed = bug.expose(program)
    length = whole.meta["thread_instr_counts"]["0"] + margin
    pinball, _seed = bug.expose(program, seeds=[seed],
                                region=RegionSpec(length=length))
    assert pinball is not None and pinball.meta["length"] == length
    return program, pinball


def _progen(seed):
    program = build_program(seed)
    return program, record_pinball(program, seed)


#: (input, scan budget, minimize budget)
INPUTS = {
    "pbzip2-0": (lambda: _exposed(get_bug, "pbzip2", 0), 8, 24),
    "pbzip2-100": (lambda: _exposed(get_bug, "pbzip2", 100), 8, 24),
    "dangle_reuse-0": (lambda: _exposed(get_pointer_bug, "dangle_reuse", 0),
                       8, 24),
    "dangle_reuse-300": (
        lambda: _exposed(get_pointer_bug, "dangle_reuse", 300), 8, 24),
    "uaf_chase-0": (lambda: _exposed(get_pointer_bug, "uaf_chase", 0),
                    6, 16),
    "uaf_chase-500": (lambda: _exposed(get_pointer_bug, "uaf_chase", 500),
                      6, 16),
    "pbzip2-skip": (_pbzip2_skip, 6, 16),
    "pbzip2-length": (lambda: _pbzip2_length(2), 8, 32),
    "progen-0": (lambda: _progen(0), 6, 20),
    "progen-4": (lambda: _progen(4), 6, 20),
}
LEGACY_INPUTS = ("dangle_reuse-0", "pbzip2-skip", "progen-0")


@pytest.fixture
def engine(request, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", request.param)
    return request.param


def _check_against_oracle(name, fmt, monkeypatch):
    monkeypatch.setenv("REPRO_PINBALL_FORMAT", fmt)
    make, budget, minimize_budget = INPUTS[name]
    program, pinball = make()
    _races, candidates, ctx = scan(pinball, program, budget=budget,
                                   profile_seeds=2)
    rows = evaluate(program, candidates, ctx)
    assert rows == _oracle_evaluate(program, candidates, ctx)
    confirmed = dedupe_rows(candidates, rows)
    for _candidate, row in confirmed:
        got = minimize_schedule(program, row["schedule_runs"],
                                row["outcome"], row.get("failure"), ctx,
                                budget=minimize_budget)
        want = _oracle_minimize(program, row["schedule_runs"],
                                row["outcome"], row.get("failure"), ctx,
                                minimize_budget)
        assert got[0] == want[0] and got[2] == want[2]
        assert got[1].to_bytes(compress=False) == \
            want[1].to_bytes(compress=False)
    return confirmed


class TestAgainstRecordedPipeline:
    @pytest.mark.parametrize("fmt", ["v1", "v2"])
    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_rows_and_minimized_pinballs(self, name, fmt, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "predecoded")
        confirmed = _check_against_oracle(name, fmt, monkeypatch)
        if not name.startswith("progen"):
            assert confirmed, "no finding to minimize on %s" % name

    @pytest.mark.parametrize("name", LEGACY_INPUTS)
    def test_legacy_engine(self, name, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "legacy")
        _check_against_oracle(name, "v1", monkeypatch)

    def test_served_eval_lanes(self, tmp_path):
        bug = get_pointer_bug("dangle_reuse")
        program = bug.build()
        pinball, _seed = bug.expose(program)
        _races, candidates, ctx = scan(pinball, program, budget=8,
                                       profile_seeds=2)
        store = PinballStore(str(tmp_path / "store"))
        source_sha = store.put_source(bug.source(), program.name)
        key = store.put_pinball(pinball, meta={"source_sha": source_sha})
        params = {"pinball": key, "source": source_sha,
                  "program_name": program.name}
        with WorkerPool(store.root, workers=2, default_timeout=120) as pool:
            lanes = [pool.call("hunt_eval", dict(params, candidates=chunk,
                                                 ctx=ctx), timeout=120)
                     for chunk in (candidates[:3], candidates[3:])]
        rows = [row for lane in lanes for row in lane["rows"]]
        assert rows == _oracle_evaluate(program, candidates, ctx)


class TestForcedForks:
    """Forced candidates fork one round-robin base at their first hold."""

    @pytest.mark.parametrize("name", ["pbzip2-0", "dangle_reuse-0"])
    def test_oracle_comparison_forks(self, name, obs, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "predecoded")
        _check_against_oracle(name, "v1", monkeypatch)
        counters = obs.counters()
        assert counters["hunt.forced_forks"] > 0
        assert counters["hunt.forced_prefix_steps"] > 0

    @pytest.mark.parametrize("engine", ["predecoded", "legacy"],
                             indirect=True)
    @pytest.mark.parametrize("name", ["pbzip2-0", "uaf_chase-0",
                                      "atomicity", "spawned"])
    def test_every_forced_run_equals_its_own(self, engine, name, obs):
        # Outcome, output and whole schedule, benign runs included: a
        # fork, or the base for a candidate that never holds, runs
        # exactly what the candidate's own scheduler runs alone.
        if name == "spawned":
            # The second site is the entry of a thread main spawns in
            # mid-quantum: the first hold leaves main eligible, so the
            # fork picks by the round-robin position it carries over.
            program = compile_source(SPAWNED, name="spawned")
            pinball = record_region(program, RoundRobinScheduler(),
                                    RegionSpec())
            store = _pcs(program, "f", Opcode.ST)[0]
            entry = program.functions["g"].entry
            candidates = [
                {"cid": "c000", "mode": "force", "first_pc": store,
                 "first_write": True, "second_pc": entry,
                 "second_write": False},
                {"cid": "c001", "mode": "force", "first_pc": entry,
                 "first_write": False, "second_pc": store,
                 "second_write": True}]
            ctx = hunt_mod.hunt_context(pinball, program)
        elif name == "atomicity":
            program = compile_source(ATOMICITY, name="atomicity")
            pinball = record_region(program, RoundRobinScheduler(),
                                    RegionSpec())
            profiler = InterleavingProfiler(program)
            observed = profiler.run(range(4), switch_prob=0.3)
            roots = observed | {r.reversed() for r in observed}
            candidates = [
                {"cid": "c%03d" % index, "mode": "force",
                 "first_pc": root.first.pc,
                 "first_write": root.first.is_write,
                 "second_pc": root.second.pc,
                 "second_write": root.second.is_write}
                for index, root in enumerate(sorted(
                    roots, key=lambda r: (r.first.pc, r.second.pc,
                                          r.first.is_write)))]
            ctx = hunt_mod.hunt_context(pinball, program)
        else:
            make, budget, _minimize_budget = INPUTS[name]
            program, pinball = make()
            _races, candidates, ctx = scan(pinball, program, budget=budget,
                                           profile_seeds=2)
        forced = [c for c in candidates if c["mode"] == "force"]
        assert len(forced) > 1
        obs.reset()
        got = hunt_mod._forced_runs(program, forced, ctx)
        assert obs.counters()["hunt.forced_forks"] > 0
        for candidate in forced:
            alone = hunt_mod._logged(hunt_mod._restore(
                program, hunt_mod._scheduler_for(candidate, ctx), ctx), ctx)
            failure, output, overrun, runs = got[candidate["cid"]]
            assert (failure, output, overrun) == alone[:3]
            assert [list(run) for run in runs] == \
                [list(run) for run in alone[3]], candidate["cid"]

    def test_served_lanes_split_between_forced_candidates(self, tmp_path,
                                                           obs):
        bug = get_bug("pbzip2")
        program = bug.build()
        pinball, _seed = bug.expose(program)
        _races, candidates, ctx = scan(pinball, program, budget=8,
                                       profile_seeds=2)
        split = 4
        assert [c["mode"] for c in candidates[split - 1:split + 1]] == \
            ["force", "force"]
        want = evaluate(program, candidates, ctx)
        assert want == _oracle_evaluate(program, candidates, ctx)
        # Each lane runs its own base, and forks off it.
        for chunk in (candidates[:split], candidates[split:]):
            obs.reset()
            assert evaluate(program, chunk, ctx) == \
                [row for row in want if row["cid"] in
                 {candidate["cid"] for candidate in chunk}]
            assert obs.counters()["hunt.forced_forks"] > 0
        store = PinballStore(str(tmp_path / "store"))
        source_sha = store.put_source(bug.source(), program.name)
        key = store.put_pinball(pinball, meta={"source_sha": source_sha})
        params = {"pinball": key, "source": source_sha,
                  "program_name": program.name}
        with WorkerPool(store.root, workers=2, default_timeout=120) as pool:
            lanes = [pool.call("hunt_eval", dict(params, candidates=chunk,
                                                 ctx=ctx), timeout=120)
                     for chunk in (candidates[:split], candidates[split:])]
        assert [row for lane in lanes for row in lane["rows"]] == want


class TestFork:
    @pytest.mark.parametrize("name", ["dangle_reuse-0", "pbzip2-length"])
    def test_fork_runs_on_like_its_base(self, name):
        make, _budget, _minimize_budget = INPUTS[name]
        program, pinball = make()
        ctx = hunt_mod.hunt_context(pinball, program)
        runs = [list(run) for run in pinball.schedule]
        for at in (1, pinball.total_steps // 3, pinball.total_steps - 2):
            scheduler = PerturbedScheduler(runs)
            base = hunt_mod._restore(program, scheduler, ctx)
            base.run(max_steps=at)
            fork = hunt_mod._restore(program, scheduler.follow(runs), ctx,
                                     base)
            assert state_hash(fork) == state_hash(base)
            assert fork.global_seq == base.global_seq == at
            assert ({tid: t.instr_count for tid, t in fork.threads.items()}
                    == {tid: t.instr_count
                        for tid, t in base.threads.items()})
            forked = hunt_mod._finish(fork, ctx)
            assert forked == hunt_mod._finish(base, ctx)
            assert forked[0] == pinball.meta["failure"]
            assert state_hash(fork) == pinball.meta["final_state_hash"]


# -- the active scheduler's own watch -----------------------------------------

BLOCKING_WATCH = """
int x;
int child(int unused) {
    int i;
    for (i = 0; i < 30; i = i + 1) { x = x + 1; }
    return 0;
}
int main() {
    int a;
    a = spawn(child, 0);
    join(a);
    return x;
}
"""

SPAWNED = """
int x; int y;
int f(int unused) {
    int i;
    for (i = 0; i < 5; i = i + 1) { x = x + 1; }
    return 0;
}
int g(int unused) { y = x; return 0; }
int main() {
    int a; int b;
    a = spawn(f, 0);
    b = spawn(g, 0);
    join(a); join(b);
    return y;
}
"""

ATOMICITY = """
int x;
int bump(int unused) { x = x + 1; return 0; }
int main() {
    int a; int b;
    a = spawn(bump, 0); b = spawn(bump, 0);
    join(a); join(b);
    assert(x == 2, 11);
    return 0;
}
"""


def _pcs(program, function, op, subop=None):
    return [pc for pc, instr in enumerate(program.instructions)
            if instr.op == op and (subop is None or instr.subop == subop)
            and program.function_at(pc).name == function]


def _lockstep(program, iroot, budget=10_000):
    """Run the self-watching and the event-watched scheduler one step
    per run() and compare their watches after every run."""
    own = ActiveScheduler(iroot, give_up_budget=budget)
    mine = Machine(program, scheduler=own)
    watch = _EventWatch(iroot)
    theirs_scheduler = _EventActiveScheduler(watch, give_up_budget=budget)
    theirs = Machine(program, scheduler=theirs_scheduler, tools=[watch])
    runs = 0
    while not (mine.finished and theirs.finished):
        a = mine.run(max_steps=1)
        b = theirs.run(max_steps=1)
        assert (a.steps, mine.global_seq) == (b.steps, theirs.global_seq)
        got = (own.first_done_by, own.second_done_by, own.realized,
               own.delays, own.gave_up)
        want = (watch.first_done_by, watch.second_done_by, watch.realized,
                theirs_scheduler.delays, theirs_scheduler.gave_up)
        assert got == want, "watches differ after run %d" % runs
        runs += 1
    return own


class TestSelfWatch:
    @pytest.mark.parametrize("engine", ["predecoded", "legacy"],
                             indirect=True)
    def test_blocked_step_is_not_an_execution(self, engine):
        # The watched first site is main's join, which blocks while the
        # child runs: only the attempt that retires counts.
        program = compile_source(BLOCKING_WATCH, name="blocking")
        join_pc = _pcs(program, "main", Opcode.SYS, "join")[0]
        for store_pc in _pcs(program, "child", Opcode.ST):
            iroot = IRoot(MemAccess(join_pc, False),
                          MemAccess(store_pc, True))
            own = _lockstep(program, iroot)
            assert own.delays > 0

    @pytest.mark.parametrize("engine", ["predecoded", "legacy"],
                             indirect=True)
    def test_every_profiled_iroot(self, engine):
        # The run ends on the failing assert, and lockstep single-step
        # runs end on every watched step at least once.
        program = compile_source(ATOMICITY, name="atomicity")
        profiler = InterleavingProfiler(program)
        observed = profiler.run(range(4), switch_prob=0.3)
        roots = sorted(observed | {r.reversed() for r in observed},
                       key=lambda r: (r.first.pc, r.second.pc,
                                      r.first.is_write))
        assert roots
        for iroot in roots:
            _lockstep(program, iroot, budget=200)

    def test_region_fast_forward_is_not_watched(self):
        # With a fast-forward in front of the region, the watch sees
        # region steps only (forced pinballs equal the event-watched
        # ones, where the watch tool is attached after fast-forward).
        program = compile_source(ATOMICITY, name="atomicity")
        profiler = InterleavingProfiler(program)
        profiler.run(range(4), switch_prob=0.3)
        for iroot in profiler.predicted():
            for skip in (3, 9, 20):
                region = RegionSpec(skip=skip)
                own = ActiveScheduler(iroot, give_up_budget=500)
                got = record_region(program, own, region)
                watch = _EventWatch(iroot)
                theirs = _EventActiveScheduler(watch, give_up_budget=500)
                want = record_region(program, theirs, region,
                                     extra_tools=[watch])
                assert got.to_bytes(compress=False) == \
                    want.to_bytes(compress=False)
                assert (own.first_done_by, own.second_done_by,
                        own.realized, own.delays) == \
                    (watch.first_done_by, watch.second_done_by,
                     watch.realized, theirs.delays)


# -- Maple's profiler ---------------------------------------------------------

class _EventProfiler(Tool):
    """Maple's idiom-1 rule read from instruction events: for each
    address below ``limit``, the ordered pair of static sites of two
    back-to-back accesses from different threads, one a write."""

    wants_instr_events = True

    def __init__(self, limit: Optional[int]) -> None:
        self.limit = limit
        self.observed = set()
        self.last = {}

    def on_instr(self, event) -> None:
        accesses = ([(addr, False) for addr, _value in event.mem_reads]
                    + [(addr, True) for addr, _value in event.mem_writes])
        for addr, is_write in accesses:
            if self.limit is not None and addr >= self.limit:
                continue
            last = self.last.get(addr)
            if (last is not None and last[0] != event.tid
                    and (last[2] or is_write)):
                self.observed.add(IRoot(MemAccess(last[1], last[2]),
                                        MemAccess(event.addr, is_write)))
            self.last[addr] = (event.tid, event.addr, is_write)


class TestProfilerFeeds:
    @pytest.mark.parametrize("engine", ["predecoded", "legacy"],
                             indirect=True)
    @pytest.mark.parametrize("globals_only", [True, False])
    def test_observed_iroots_match_event_path(self, engine, globals_only):
        for program in (compile_source(ATOMICITY, name="atomicity"),
                        get_pointer_bug("dangle_reuse").build(),
                        build_program(2)):
            profiler = InterleavingProfiler(program,
                                            globals_only=globals_only)
            profiler.run(range(3), switch_prob=0.2)
            want = set()
            for seed in range(3):
                tool = _EventProfiler(profiler.shared_limit)
                machine = Machine(program, scheduler=RandomScheduler(
                    seed=seed, switch_prob=0.2), tools=[tool])
                machine.run(max_steps=2_000_000)
                want |= tool.observed
            assert profiler.observed == want


# -- one recording per finding ------------------------------------------------

@pytest.fixture
def obs():
    saved = OBS.enabled
    OBS.reset()
    OBS.enable()
    yield OBS
    OBS.reset()
    OBS.enabled = saved


class TestRecordingsPerFinding:
    def test_one_recording_per_finding(self, obs, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "predecoded")
        program, pinball = _exposed(get_pointer_bug, "dangle_reuse", 0)
        obs.reset()
        result = hunt_mod.hunt(pinball, program, budget=8, profile_seeds=2,
                               minimize_budget=24, slice_reports=False)
        counters = obs.counters()
        assert result.findings
        assert counters["pinplay.regions_recorded"] == len(result.findings)
        assert counters["hunt.confirmed"] == len(result.findings)
        assert counters["hunt.prefix_steps"] > 0
        assert counters.get("vm.steps_traced", 0) == 0

    def test_clean_hunt_runs_no_traced_step(self, obs, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "predecoded")
        program = build_program(1)
        pinball = record_pinball(program, 1)
        obs.reset()
        result = hunt_mod.hunt(pinball, program, budget=6, profile_seeds=2)
        counters = obs.counters()
        assert not result.findings
        assert counters.get("pinplay.regions_recorded", 0) == 0
        assert counters.get("vm.steps_traced", 0) == 0
        assert counters["vm.steps"] > 0

