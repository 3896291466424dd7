"""On-demand re-execution slicing: the ``index="reexec"`` engine.

The materialized engines (``ddg`` / ``columnar`` / ``rows``) pay one traced
replay that records *every* retired instruction's operands, then keep the
whole trace resident for the session.  For long regions the trace — not
the slice — dominates peak memory.  This module answers the same queries
byte-identically while keeping resident state proportional to what the
queries actually touch, by leaning on the pinball's determinism twice:

* **Scaffold pass** (once, at session open): one full replay in the
  *selective-trace* VM mode (:func:`repro.vm.microops.decode_selective`,
  ``"flow"`` sink) records only the per-thread pc streams plus the few
  execution-time facts static analysis cannot recover — branch region
  ends under live CFG refinement, per-instance syscall result presence,
  dynamically verified save/restore pairs (reusing
  :class:`~repro.slicing.save_restore.SaveRestoreDetector` verbatim via
  shim events), and a per-window *written-address directory* (the set of
  memory addresses each window writes, no order or attribution).
  Everything else about an instruction — its register
  defs/uses, line, function — is a pure function of the static program
  and is derived per *pc*, not per instance.  The pass also cuts the
  region into checkpoint-bounded *windows*: embedded (v2) checkpoints
  where the pinball carries them, otherwise checkpoints synthesized at
  planned boundaries while the scaffold passes by (the v1 fallback).
* **Window scans** (on demand, per query): memory-access addresses are
  the one per-instance fact the scaffold skips.  When a query needs the
  defs/uses of a window's instructions, the engine resumes the nearest
  checkpoint (:func:`~repro.pinplay.replayer.resume_machine`) and
  replays *only that window* with the ``"mem"`` selective table armed —
  every other window stays unexecuted, unrecorded, and unresident.
  Backward def searches consult the written-address directory first, so
  a resolution touching distant history re-replays exactly the window
  holding the producer — and a read of pre-region state resolves to
  "unresolved" from set membership alone, with no re-replay at all.

Discovered dependences are memoized into a sparse *partial DDG* whose
per-node rows replicate :class:`~repro.slicing.ddg.DependenceIndex`'s
build exactly (same producer resolution, same save/restore bypass chase,
same control-dependence replication of
:class:`~repro.slicing.control_dep.ControlDepTracker`, same closure memo
and slice LRU), so repeated queries converge to ddg-class latency while
the first query never pays the full-trace build.  Byte-identity of the
resulting slices is asserted by
``tests/slicing/test_reexec_differential.py``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import config
from repro.analysis.registry import CfgRegistry
from repro.isa.instructions import Opcode
from repro.isa.program import Program
from repro.obs.registry import OBS
from repro.pinplay.format_v2 import EmbeddedCheckpoint, capture_state
from repro.pinplay.pinball import Pinball
from repro.pinplay.replayer import resume_machine
from repro.slicing.global_trace import build_incoming, cycle_error
from repro.slicing.options import SliceOptions
from repro.slicing.save_restore import SaveRestoreDetector
from repro.slicing.slice import DynamicSlice, SliceColumns
from repro.slicing.trace import Instance, Location
from repro.slicing.tracer import prime_jump_tables
from repro.vm.machine import Machine
from repro.vm.microops import decode_selective, program_effects

#: Per-pc instruction classes driving the offline control-dep replication.
_PLAIN, _BRANCH, _CALL, _RET, _SYS = 0, 1, 2, 3, 4

#: ``br_end`` encodings for region ends that are not addresses.
_END_NONE = -1        # post-dominator unknown: region closes at frame exit
_END_NO_TARGETS = -2  # IJMP with no known targets: no region at all

#: Most windows the v1 fallback synthesizes checkpoints for — bounds the
#: scaffold's resident snapshot memory for pinballs recorded without
#: embedded checkpoints.
_MAX_SYNTH_WINDOWS = 16

class _ShimEvent:
    """The slice of :class:`~repro.vm.hooks.InstrEvent` the save/restore
    detector reads, built from flow-sink callbacks."""

    __slots__ = ("tid", "tindex", "addr", "instr", "frame_id",
                 "mem_writes", "mem_reads")

    def __init__(self, tid, tindex, addr, instr, frame_id,
                 mem_writes, mem_reads):
        self.tid = tid
        self.tindex = tindex
        self.addr = addr
        self.instr = instr
        self.frame_id = frame_id
        self.mem_writes = mem_writes
        self.mem_reads = mem_reads


class _RetMarker:
    """Stand-in instruction for RET shim events: the detector only
    inspects ``instr.op`` on that path."""
    op = Opcode.RET


_RET_INSTR = _RetMarker()
_NO_PAIRS = ()


class _ScaffoldSink:
    """Flow-mode selective sink: per-thread pc streams + the dynamic
    facts listed in the module docstring."""

    mode = "flow"

    def __init__(self, program: Program, options: SliceOptions) -> None:
        self.registry = CfgRegistry(program, refine=options.refine_cfg)
        if options.discover_jump_tables:
            prime_jump_tables(self.registry, program)
        self.detector = SaveRestoreDetector(
            program, options.max_save if options.prune_save_restore else 0)
        self.save_addrs = self.detector.save_addrs
        self.restore_addrs = self.detector.restore_addrs
        self._instructions = program.instructions
        self._refine = options.refine_cfg
        #: pcs fit a 16-bit column for every realistic program; fall back
        #: to 32-bit only when the code segment is genuinely that large.
        self._pc_typecode = (
            "H" if len(program.instructions) <= 0xFFFF else "I")
        self.pcs: Dict[int, array] = {}
        #: Per-thread branch region ends, one entry per BR/BRZ/IJMP retire
        #: in program order (consumed positionally by the offline
        #: control-dep replication).
        self.br_end: Dict[int, array] = {}
        #: Per-thread SYS result flags, one per SYS retire in order.
        self.sys_flag: Dict[int, bytearray] = {}
        #: Per-window written-address sets (no order, no attribution
        #: within a window).  The scaffold driver calls
        #: :meth:`begin_window` at every checkpoint bound; resolution
        #: later jumps straight to the nearest window whose set holds the
        #: address instead of scanning every window in between, and a use
        #: of an address in no set short-circuits to "unresolved".
        self.window_written: List[Set[int]] = []
        self._cur_written: Set[int] = set()

    def begin_window(self) -> None:
        self._cur_written = set()
        self.window_written.append(self._cur_written)
        #: region_end_addr per pc, valid for one refinement epoch — the
        #: tracer recomputes per event, so a refinement mid-run must
        #: invalidate what we cached before it.
        self._end_cache: Dict[int, int] = {}
        self._end_epoch = -1

    # -- callbacks (hot) ---------------------------------------------------

    def on_step(self, tid: int, pc: int) -> None:
        col = self.pcs.get(tid)
        if col is None:
            col = self.pcs[tid] = array(self._pc_typecode)
            self.br_end[tid] = array("q")
            self.sys_flag[tid] = bytearray()
        col.append(pc)

    def on_branch(self, tid: int, pc: int) -> None:
        self.br_end[tid].append(self._end_of(pc))

    def on_ijmp(self, tid: int, pc: int, target: int) -> None:
        registry = self.registry
        if self._refine:
            registry.observe_indirect_jump(pc, target)
        if registry.cfg_for_addr(pc).indirect_targets.get(pc):
            self.br_end[tid].append(self._end_of(pc))
        else:
            self.br_end[tid].append(_END_NO_TARGETS)

    def on_sys(self, tid: int, wrote_r0: bool) -> None:
        self.sys_flag[tid].append(1 if wrote_r0 else 0)

    def on_wset(self, addr: int) -> None:
        self._cur_written.add(addr)

    def on_save(self, tid: int, pc: int, stack_addr: int, value,
                frame_id: int) -> None:
        self._cur_written.add(stack_addr)
        self.detector.on_event(_ShimEvent(
            tid, len(self.pcs[tid]) - 1, pc, self._instructions[pc],
            frame_id, ((stack_addr, value),), _NO_PAIRS))

    def on_restore(self, tid: int, pc: int, stack_addr: int, value,
                   frame_id: int) -> None:
        self.detector.on_event(_ShimEvent(
            tid, len(self.pcs[tid]) - 1, pc, self._instructions[pc],
            frame_id, _NO_PAIRS, ((stack_addr, value),)))

    def on_ret(self, tid: int, frame_id: int) -> None:
        # Only the RET branch of the detector fires for this event shape
        # (addr -1 is in no candidate set); it drops the frame's open
        # saves, exactly as the traced path does for every RET.
        self.detector.on_event(_ShimEvent(
            tid, -1, -1, _RET_INSTR, frame_id, _NO_PAIRS, _NO_PAIRS))

    # -- helpers -----------------------------------------------------------

    def _end_of(self, pc: int) -> int:
        registry = self.registry
        if registry.refinements != self._end_epoch:
            self._end_cache.clear()
            self._end_epoch = registry.refinements
        end = self._end_cache.get(pc, _END_NO_TARGETS - 1)
        if end == _END_NO_TARGETS - 1:
            real = registry.region_end_addr(pc)
            end = _END_NONE if real is None else real
            self._end_cache[pc] = end
        return end


class _MemSink:
    """Mem-mode selective sink: (tid, tindex, muses, mdefs) rows in
    retire order, deduped exactly as the tracer dedupes event address
    lists."""

    mode = "mem"

    def __init__(self) -> None:
        self.rows: List[tuple] = []

    def on_mem(self, tid: int, tindex: int, reads: list, writes: list)\
            -> None:
        if not reads:
            muses = _NO_PAIRS
        elif len(reads) == 1:
            muses = (reads[0],)
        else:
            muses = tuple(dict.fromkeys(reads))
        if not writes:
            mdefs = _NO_PAIRS
        elif len(writes) == 1:
            mdefs = (writes[0],)
        else:
            mdefs = tuple(dict.fromkeys(writes))
        self.rows.append((tid, tindex, mdefs, muses))


class _Window:
    """One checkpoint-bounded region window's scanned memory facts."""

    __slots__ = ("scanned", "rows", "defs")

    def __init__(self) -> None:
        self.scanned = False
        #: (tid, tindex) -> muses for rows that *read* memory (defs live
        #: in the per-address columns below; instances without reads have
        #: no entry).
        self.rows: Dict[Instance, tuple] = {}
        #: addr -> ascending gpos list of its definitions in this window.
        self.defs: Dict[int, list] = {}


class ReexecIndex:
    """The reexec session engine: scaffold + partial DDG + window scans.

    Drop-in for the :class:`~repro.slicing.slicer.BackwardSlicer` facade
    (``slice()`` / ``index_stats()``) plus the criterion helpers
    :class:`~repro.slicing.api.SlicingSession` delegates.  Construction
    raises :class:`ValueError` when the program cannot be selectively
    decoded (or the pinball/engine combination is unsupported); the
    session then falls back to the materialized pipeline.
    """

    def __init__(self, pinball: Pinball, program: Program,
                 options: Optional[SliceOptions] = None,
                 engine: Optional[str] = None) -> None:
        if pinball.exclusions:
            raise ValueError(
                "reexec slicing does not support exclusion (slice) "
                "pinballs")
        if config.engine(explicit=engine) != "predecoded":
            raise ValueError(
                "reexec slicing requires the predecoded engine")
        self.pinball = pinball
        self.program = program
        self.options = options or SliceOptions()
        self.engine = engine
        # Selective tables (ValueError propagates to the session's
        # fallback for undecodable programs).
        self._sink = _ScaffoldSink(program, self.options)
        self._flow_table = decode_selective(program, self._sink)
        self._mem_sink = _MemSink()
        self._mem_table = decode_selective(program, self._mem_sink)
        self.registry = self._sink.registry
        self.save_restore = self._sink.detector
        self._build_statics()

        #: Re-execution counters (index_stats / OBS mirrors).
        self.passes = 0
        self.window_steps = 0
        self.watch_hits = 0
        #: Partial-DDG growth + memo counters, same roles as the ddg
        #: engine's (differential-stripped stats aside, the byte-identity
        #: contract is over slices, not counters).
        self.node_count = 0
        self.edge_count = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.bypassed_edges = 0
        self._slice_cache: "OrderedDict[tuple, DynamicSlice]" = OrderedDict()
        self._closure_memo: "OrderedDict[int, array]" = OrderedDict()
        #: gpos -> (edge locations, producer gposes): the partial DDG
        #: itself.  A None location marks the control edge.
        self._details: Dict[int, tuple] = {}
        #: gpos -> locations whose reaching definition precedes the
        #: region (sparse, like the ddg engine's ``_unresolved``).
        self._missing: Dict[int, tuple] = {}
        #: Dependence-location tuples interned by value: thousands of
        #: nodes use the same ("r", tid, name) / ("m", addr) keys.
        self._loc_intern: Dict[tuple, tuple] = {}
        self._bypass_memo: Dict[tuple, int] = {}
        self._crit_lines = None
        self._prepared = False

        with OBS.span("reexec.scaffold") as span:
            self._scaffold()
        self.build_time = span.elapsed

    # -- machines ----------------------------------------------------------

    def _resume(self, window: int) -> Machine:
        """A machine at the start of ``window`` (region entry for the
        first, else the window's checkpoint)."""
        machine, _injector = resume_machine(
            self.pinball, self.program, self._handles[window],
            engine=self.engine)
        return machine

    # -- scaffold ----------------------------------------------------------

    def _scaffold(self) -> None:
        pinball = self.pinball
        total = pinball.total_steps
        if pinball.checkpoints:
            by_steps = {c.steps_done: c for c in pinball.checkpoints}
            interiors = sorted(s for s in by_steps if 0 < s < total)
            synthesize = False
        else:
            interval = max(1, config.checkpoint_interval())
            nwin = max(1, min(_MAX_SYNTH_WINDOWS, total // interval))
            interiors = [total * i // nwin for i in range(1, nwin)]
            by_steps = {}
            synthesize = True
        bounds = [0] + interiors + [total]

        machine, injector = resume_machine(pinball, self.program,
                                           engine=self.engine)
        machine.set_selective(self._flow_table)
        #: Pre-run frame-id state per thread, seeding the offline
        #: control-dep replication.  Threads spawned mid-region start
        #: with one frame (id 0) and next id 1, matching create_thread.
        self._init_frames = {
            tid: (tuple(f.frame_id for f in thread.frames),
                  thread._next_frame_id)
            for tid, thread in machine.threads.items()}

        counts = [{tid: t.instr_count for tid, t in machine.threads.items()}]
        handles: List[Optional[EmbeddedCheckpoint]] = [None]
        done = 0
        result = None
        self._sink.begin_window()
        for bound in bounds[1:]:
            delta = bound - done
            while delta > 0:
                result = machine.run(max_steps=delta)
                if result.steps == 0:
                    break
                delta -= result.steps
                done += result.steps
            counts.append({tid: t.instr_count
                           for tid, t in machine.threads.items()})
            if bound < total:
                if synthesize:
                    by_steps[bound] = EmbeddedCheckpoint(
                        done, machine.global_seq,
                        body=capture_state(machine, injector.consumed(),
                                           machine.output))
                handles.append(by_steps[bound])
                self._sink.begin_window()
        machine.set_selective(None)
        #: The scaffold replays the whole region, so its final machine is
        #: the region's end state — sessions expose it as ``machine``.
        self.final_machine = machine
        self.final_result = result
        self._bounds = bounds
        self._bnd_counts = counts
        self._handles = handles
        self._windows = [_Window() for _ in range(len(bounds) - 1)]
        #: Per-window written-address sets and their union: the window
        #: directory that lets resolution jump to the right window.
        self._window_written = self._sink.window_written
        self._written = (set().union(*self._window_written)
                         if self._window_written else set())
        self._pcs = self._sink.pcs
        self.passes += 1
        self.window_steps += done
        if OBS.enabled:
            OBS.add("reexec.passes", 1)
            OBS.add("reexec.window_steps", done)
            OBS.add("reexec.scaffold_steps", done)

    # -- per-pc statics ----------------------------------------------------

    def _build_statics(self) -> None:
        track_sp = self.options.track_stack_pointer
        plans = []
        reads_mem = bytearray()
        memop = bytearray()
        lines = []
        # decode_selective has rejected undecodable programs.  SYS lists
        # its no-result variant; the per-instance r0 def is applied from
        # the scaffold's flag stream.
        for instr, effects in zip(self.program.instructions,
                                  program_effects(self.program)):
            rdefs = tuple(name for name in effects.writes
                          if track_sp or name != "sp")
            ruses = tuple(name for name in effects.reads
                          if track_sp or name != "sp")
            op = instr.op
            if op == Opcode.BR or op == Opcode.BRZ or op == Opcode.IJMP:
                klass = _BRANCH
            elif op == Opcode.CALL or op == Opcode.ICALL:
                klass = _CALL
            elif op == Opcode.RET:
                klass = _RET
            elif op == Opcode.SYS:
                klass = _SYS
            else:
                klass = _PLAIN
            plans.append((instr.line, instr.func, rdefs, ruses, klass))
            reads_mem.append(effects.reads_mem)
            memop.append(effects.reads_mem or effects.writes_mem)
            lines.append(instr.line)
        self._plans = plans
        self._reads_mem = reads_mem
        self._memop = memop
        self._line_by_pc = lines

    # -- prepare: merge + offline scaffolding ------------------------------

    def prepare(self) -> None:
        """Merge the pc streams into the global order and replicate the
        offline analyses (control deps, register def chains, bypass
        redirects).  Idempotent; called once per session."""
        if self._prepared:
            return
        self._merge()
        self._offline_pass()
        self.columns = SliceColumns(
            self._order_tids, self._order_tindexes, self._order_pcs,
            self._gpos, [(instr.func, instr.line)
                         for instr in self.program.instructions])
        prune = (self.options.prune_save_restore
                 and bool(self.save_restore.verified))
        self._prune = prune
        redirect: Dict[int, Dict[int, int]] = {}
        if prune:
            for (tid, restore_t), (_tid, save_t) in \
                    self.save_restore.verified.items():
                redirect.setdefault(tid, {})[restore_t] = save_t
        self._redirect = redirect
        #: Per-thread cumulative retire counts at each window boundary:
        #: ``window_of`` is one bisect against this.
        self._bnd_tindex = {
            tid: [c.get(tid, 0) for c in self._bnd_counts]
            for tid in self._pcs}
        self._prepared = True

    def _merge(self) -> None:
        """Replicates :func:`~repro.slicing.global_trace._merge_columnar`
        over the scaffold's pc streams — identical emission order, so
        every gpos here equals the materialized pipeline's gpos."""
        pcs = self._pcs
        source = self.pinball._source
        tids = sorted(pcs)
        lengths = {tid: len(pcs[tid]) for tid in tids}
        incoming = build_incoming(self.pinball.mem_order, lengths, source)
        cursor = {tid: 0 for tid in tids}
        total = sum(lengths.values())
        # 32-bit columns: positions/tindexes are bounded by the region's
        # step count, which sits far under 2**31 for anything the ddg
        # engine could materialize either.
        order_tids = array("h")
        order_tindexes = array("i")
        order_pcs = array(self._sink._pc_typecode)
        gpos = {tid: array("i", bytes(4 * lengths[tid])) for tid in tids}
        current = 0
        stalled = 0
        while len(order_tids) < total:
            tid = tids[current]
            emitted_here = 0
            length = lengths[tid]
            col = gpos[tid]
            pc_col = pcs[tid]
            while cursor[tid] < length:
                position = cursor[tid]
                if incoming:
                    deps = incoming.get((tid, position))
                    if deps is not None and any(
                            cursor[from_tid] <= from_tindex
                            for from_tid, from_tindex in deps):
                        break
                col[position] = len(order_tids)
                order_tids.append(tid)
                order_tindexes.append(position)
                order_pcs.append(pc_col[position])
                cursor[tid] = position + 1
                emitted_here += 1
            if emitted_here:
                stalled = 0
            else:
                stalled += 1
                if stalled >= len(tids):
                    raise cycle_error(source, cursor)
            current = (current + 1) % len(tids)
        self._order_tids = order_tids
        self._order_tindexes = order_tindexes
        self._order_pcs = order_pcs
        self._gpos = gpos

    def _offline_pass(self) -> None:
        """One pass per thread over the pc stream: replicate
        :class:`~repro.slicing.control_dep.ControlDepTracker` (frame ids
        simulated from the captured initial state, branch region ends
        consumed positionally) and build the per-(tid, register)
        ascending-tindex definition lists."""
        sink = self._sink
        plans = self._plans
        cds: Dict[int, array] = {}
        reg_defs: Dict[int, Dict[str, array]] = {}
        for tid, col in self._pcs.items():
            ends = sink.br_end[tid]
            flags = sink.sys_flag[tid]
            frames_init, next_id = self._init_frames.get(tid, ((0,), 1))
            frames = list(frames_init)
            stack: List[list] = []   # [frame_id, inst_tindex, end_addr]
            cd = array("i")
            defs: Dict[str, array] = {}
            bi = 0
            si = 0
            for tindex, pc in enumerate(col):
                _line, _func, rdefs, _ruses, klass = plans[pc]
                frame = frames[-1] if frames else -1
                while (stack and stack[-1][0] == frame
                       and stack[-1][2] == pc):
                    stack.pop()
                cd.append(stack[-1][1] if stack else -1)
                if klass == _PLAIN:
                    pass
                elif klass == _BRANCH:
                    end = ends[bi]
                    bi += 1
                    if end != _END_NO_TARGETS:
                        if (stack and stack[-1][0] == frame
                                and stack[-1][2] == end):
                            stack[-1] = [frame, tindex, end]
                        else:
                            stack.append([frame, tindex, end])
                elif klass == _CALL:
                    callee = next_id
                    next_id += 1
                    frames.append(callee)
                    stack.append([callee, tindex, _END_NONE])
                elif klass == _RET:
                    while stack and stack[-1][0] == frame:
                        stack.pop()
                    if frames:
                        frames.pop()
                else:   # _SYS: r0 def present iff a result was written
                    if flags[si]:
                        d = defs.get("r0")
                        if d is None:
                            d = defs["r0"] = array("i")
                        d.append(tindex)
                    si += 1
                    continue
                for name in rdefs:
                    d = defs.get(name)
                    if d is None:
                        d = defs[name] = array("i")
                    d.append(tindex)
            cds[tid] = cd
            reg_defs[tid] = defs
        self._cd = cds
        self._reg_defs = reg_defs

    # -- window scans ------------------------------------------------------

    def _window_of(self, tid: int, tindex: int) -> int:
        return bisect_right(self._bnd_tindex[tid], tindex) - 1

    def _ensure_scanned(self, lo: int, hi: int) -> None:
        """Scan unscanned windows in ``[lo, hi)``, grouping consecutive
        ones into single resume passes."""
        windows = self._windows
        w = lo
        while w < hi:
            if windows[w].scanned:
                w += 1
                continue
            run_end = w + 1
            while run_end < hi and not windows[run_end].scanned:
                run_end += 1
            self._scan_range(w, run_end)
            w = run_end

    def _scan_range(self, wa: int, wb: int) -> None:
        """One resume pass replaying windows ``[wa, wb)`` with the mem
        selective table armed, then distribute rows to their windows."""
        steps = self._bounds[wb] - self._bounds[wa]
        with OBS.span("reexec.pass"):
            machine = self._resume(wa)
            machine.set_selective(self._mem_table)
            remaining = steps
            while remaining > 0:
                result = machine.run(max_steps=remaining)
                if result.steps == 0:
                    break
                remaining -= result.steps
            machine.set_selective(None)
        replayed = steps - max(0, remaining)
        rows = self._mem_sink.rows
        self._mem_sink.rows = []
        self.passes += 1
        self.window_steps += replayed
        self.watch_hits += len(rows)
        if OBS.enabled:
            OBS.add("reexec.passes", 1)
            OBS.add("reexec.window_steps", replayed)
            OBS.add("reexec.watch_hits", len(rows))

        windows = self._windows
        bnd = self._bnd_tindex
        gpos = self._gpos
        for tid, tindex, mdefs, muses in rows:
            window = windows[bisect_right(bnd[tid], tindex) - 1]
            if muses:
                # Only the use lists are consulted per instance later
                # (defs go into the per-address columns right here), and
                # a missing entry already reads as "no uses".
                window.rows[(tid, tindex)] = muses
            if mdefs:
                g = gpos[tid][tindex]
                defs = window.defs
                for addr in mdefs:
                    lst = defs.get(addr)
                    if lst is None:
                        defs[addr] = array("i", (g,))
                    else:
                        lst.append(g)
        for w in range(wa, wb):
            windows[w].scanned = True

    # -- dependence resolution ---------------------------------------------

    def _chase_reg(self, tid: int, name: str, dp: list, producer_t: int,
                   hi_index: int) -> int:
        """Tindex-space twin of :meth:`DependenceIndex._chase` — for a
        fixed thread the per-register def list ascends in both tindex
        and gpos, so the bisect chain lands on the same definition."""
        key = (tid, name, producer_t)
        cached = self._bypass_memo.get(key)
        if cached is not None:
            return cached
        self.bypassed_edges += 1
        rmap = self._redirect[tid]
        i = hi_index
        while True:
            save_t = rmap[producer_t]
            i = bisect_left(dp, save_t, 0, i) - 1
            if i < 0:
                result = -1
                break
            producer_t = dp[i]
            if producer_t not in rmap:
                result = producer_t
                break
        self._bypass_memo[key] = result
        return result

    def _resolve_reg(self, tid: int, name: str, before_tindex: int) -> int:
        """Latest def of ``(tid, name)`` strictly below ``before_tindex``
        (bypassing verified restores); -1 when unresolved."""
        defs = self._reg_defs.get(tid)
        if defs is None:
            return -1
        dp = defs.get(name)
        if not dp:
            return -1
        i = bisect_left(dp, before_tindex) - 1
        if i < 0:
            return -1
        producer_t = dp[i]
        if self._prune:
            rmap = self._redirect.get(tid)
            if rmap and producer_t in rmap:
                return self._chase_reg(tid, name, dp, producer_t, i)
        return producer_t

    def _resolve_mem_use(self, addr: int, use_gpos: int, window: int)\
            -> int:
        """Latest def of ``addr`` strictly below ``use_gpos``, for a use
        *in* ``window`` (already scanned).  Per-address accesses are
        totally ordered consistently in time and gpos (program order
        within a thread, recorded access-order edges across threads), so
        the nearest earlier window containing any def of ``addr`` holds
        the latest one.

        The scaffold's per-window written-address sets say which window
        that is without re-replaying anything: the walk is pure set
        membership, and only the window that actually holds the producer
        gets scanned.  An address in no set resolves to "unresolved"
        immediately — the producer predates the region.  Without the
        directory, a read of far-away state (setup-phase writes, or
        pre-region values) forced a re-replay of every window in
        between just to locate — or rule out — the def."""
        lst = self._windows[window].defs.get(addr)
        if lst:
            j = bisect_left(lst, use_gpos) - 1
            if j >= 0:
                return lst[j]
        window_written = self._window_written
        for wi in range(window - 1, -1, -1):
            if addr in window_written[wi]:
                self._ensure_scanned(wi, wi + 1)
                lst = self._windows[wi].defs.get(addr)
                if lst:
                    return lst[-1]
        return -1

    def _resolve_mem_at(self, addr: int, before_gpos: int) -> int:
        """Latest def of ``addr`` strictly below gpos ``before_gpos``
        with no window hint (location queries): walk from the *last*
        window backwards — per-address defs ascend across windows, so
        the first window whose earliest def sits below the bound holds
        the answer.  The written-address directory restricts the walk
        (and the scans) to windows that actually wrote ``addr``."""
        windows = self._windows
        window_written = self._window_written
        for wi in range(len(windows) - 1, -1, -1):
            if addr not in window_written[wi]:
                continue
            self._ensure_scanned(wi, wi + 1)
            lst = windows[wi].defs.get(addr)
            if lst and lst[0] < before_gpos:
                j = bisect_left(lst, before_gpos) - 1
                if j >= 0:
                    return lst[j]
        return -1

    def _resolve(self, loc: Location, before: int) -> int:
        """Gpos-space location resolution, matching
        :meth:`DependenceIndex._resolve` result-for-result."""
        if loc[0] == "r":
            _kind, tid, name = loc
            arr = self._gpos.get(tid)
            if arr is None:
                return -1
            producer_t = self._resolve_reg(
                tid, name, bisect_left(arr, before))
            if producer_t < 0:
                return -1
            return arr[producer_t]
        return self._resolve_mem_at(loc[1], before)

    # -- partial DDG nodes -------------------------------------------------

    def _node_detail(self, g: int) -> tuple:
        detail = self._details.get(g)
        if detail is not None:
            return detail
        tid = self._order_tids[g]
        tindex = self._order_tindexes[g]
        pc = self._pcs[tid][tindex]
        _line, _func, _rdefs, ruses, _klass = self._plans[pc]
        gpos = self._gpos
        # Edges are stored columnar — predecessor gpos plus the dependence
        # location (None marks the control edge); slices read them in
        # place, and build edge tuples only when a consumer asks.
        locs: List[Optional[tuple]] = []
        preds: List[int] = []
        missing: List[tuple] = []
        intern = self._loc_intern.setdefault
        for name in ruses:
            producer_t = self._resolve_reg(tid, name, tindex)
            loc = ("r", tid, name)
            loc = intern(loc, loc)
            if producer_t < 0:
                missing.append(loc)
                continue
            locs.append(loc)
            preds.append(gpos[tid][producer_t])
        if self._memop[pc]:
            window = self._window_of(tid, tindex)
            self._ensure_scanned(window, window + 1)
            muses = self._windows[window].rows.get((tid, tindex), _NO_PAIRS)
            for addr in muses:
                p = self._resolve_mem_use(addr, g, window)
                loc = ("m", addr)
                loc = intern(loc, loc)
                if p < 0:
                    missing.append(loc)
                    continue
                locs.append(loc)
                preds.append(p)
        cd_t = self._cd[tid][tindex]
        if cd_t >= 0:
            locs.append(None)
            preds.append(gpos[tid][cd_t])
        if missing:
            self._missing[g] = tuple(missing)
        detail = self._details[g] = (tuple(locs), array("i", preds))
        self.node_count += 1
        self.edge_count += len(preds)
        if OBS.enabled:
            OBS.add("reexec.partial_nodes", 1)
            OBS.add("reexec.partial_edges", len(preds))
        return detail

    def _closure(self, start: int) -> frozenset:
        """Reachable gpos set from ``start``, growing the partial DDG as
        it walks; memo behavior replicates the ddg engine's."""
        memo = self._closure_memo
        cached = memo.get(start)
        if cached is not None:
            memo.move_to_end(start)
            self.memo_hits += 1
            return frozenset(cached)
        self.memo_misses += 1
        node_detail = self._node_detail
        visited = set()
        add = visited.add
        stack = [start]
        pop = stack.pop
        extend = stack.extend
        while stack:
            g = pop()
            if g in visited:
                continue
            if g != start:
                fragment = memo.get(g)
                if fragment is not None:
                    memo.move_to_end(g)
                    self.memo_hits += 1
                    visited.update(fragment)
                    continue
            add(g)
            extend(node_detail(g)[1])
        result = frozenset(visited)
        size = self.options.closure_memo_size
        if size:
            # Memoized fragments live as sorted 32-bit arrays — the memo
            # can hold region-scale closures, and a frozenset of boxed
            # ints costs ~10x the bytes of the packed column.
            memo[start] = array("i", sorted(visited))
            if len(memo) > size:
                memo.popitem(last=False)
        return result

    # -- queries -----------------------------------------------------------

    def gpos_of(self, instance: Instance) -> int:
        """Global position; same error contract as the columnar store
        (KeyError for unknown tids, IndexError for bad tindexes)."""
        self.prepare()
        return self.columns.gpos_of(instance)

    def slice(self, criterion: Instance,
              locations: Optional[Sequence[Location]] = None)\
            -> DynamicSlice:
        """Backward slice from ``criterion`` — same contract and, stats
        aside, same bytes as :meth:`DependenceIndex.slice`."""
        self.prepare()
        criterion = (criterion[0], criterion[1])
        loc_key = (None if locations is None
                   else tuple(tuple(loc) for loc in locations))
        key = (criterion, loc_key)
        cache_size = self.options.slice_cache_size
        if cache_size:
            cached = self._slice_cache.get(key)
            if cached is not None:
                self._slice_cache.move_to_end(key)
                self.cache_hits += 1
                OBS.add("slicing.slice_cache_hits", 1)
                return cached
        self.cache_misses += 1

        crit_gpos = self.gpos_of(criterion)
        hits_before = self.memo_hits
        misses_before = self.memo_misses
        members = self._closure(crit_gpos)

        extra_edges: List[Tuple[int, int, Location]] = []
        unresolved_locs = set()
        if locations is not None:
            members = set(members)
            for loc in locations:
                loc = tuple(loc)
                producer = self._resolve(loc, crit_gpos + 1)
                if producer < 0:
                    unresolved_locs.add(loc)
                else:
                    extra_edges.append((crit_gpos, producer, loc))
                    if producer not in members:
                        members |= self._closure(producer)
        order = array("q", sorted(members))

        # The partial DDG keeps growing, so the slice takes its members'
        # rows now (each row is immutable once made).
        rows = list(map(self._details.__getitem__, order))
        missing = self._missing
        if len(missing) < len(members):
            found = [mlocs for g, mlocs in missing.items() if g in members]
        else:
            found = [missing[g] for g in order if g in missing]
        for mlocs in found:
            unresolved_locs.update(mlocs)
        memo_hits = self.memo_hits - hits_before
        result = DynamicSlice.from_columns(
            (self._order_tids[crit_gpos], self._order_tindexes[crit_gpos]),
            order, self.columns, "reexec", len(unresolved_locs), memo_hits,
            rows=rows, extra_edges=extra_edges)
        if OBS.enabled:
            OBS.add("slicing.bfs_visited_nodes", len(members))
            OBS.add("slicing.memo_hits", memo_hits)
            OBS.add("slicing.memo_misses",
                    self.memo_misses - misses_before)
            OBS.add("slicing.edges_walked", result.stats["edges"])
        if cache_size:
            self._slice_cache[key] = result
            if len(self._slice_cache) > cache_size:
                self._slice_cache.popitem(last=False)
        return result

    # -- criterion helpers (SlicingSession delegation) ---------------------

    def last_instance_at_line(self, line: int,
                              tid: Optional[int] = None) -> Instance:
        self.prepare()
        line_best, line_tid_best = self._line_indexes()
        best = (line_best.get(line) if tid is None
                else line_tid_best.get((line, tid)))
        if best is None:
            raise ValueError("line %d was never executed%s" % (
                line, "" if tid is None else " by tid %d" % tid))
        return best[1]

    def _line_indexes(self) -> tuple:
        if self._crit_lines is None:
            line_best: Dict[int, tuple] = {}
            line_tid_best: Dict[tuple, tuple] = {}
            lines = self._line_by_pc
            for tid in sorted(self._pcs):
                col = self._pcs[tid]
                gcol = self._gpos[tid]
                for tindex, pc in enumerate(col):
                    line = lines[pc]
                    if line is None:
                        continue
                    g = gcol[tindex]
                    current = line_best.get(line)
                    if current is None or g > current[0]:
                        line_best[line] = (g, (tid, tindex))
                    key = (line, tid)
                    current = line_tid_best.get(key)
                    if current is None or g > current[0]:
                        line_tid_best[key] = (g, (tid, tindex))
            self._crit_lines = (line_best, line_tid_best)
        return self._crit_lines

    def last_write_to_global(self, name: str,
                             tid: Optional[int] = None) -> Instance:
        var = self.program.globals.get(name)
        if var is None:
            raise ValueError("unknown global %r" % name)
        self.prepare()
        addrs = [a for a in range(var.addr, var.addr + max(1, var.size))
                 if a in self._written]
        if not addrs:
            raise ValueError("global %r was never written" % name)
        windows = self._windows
        order_tids = self._order_tids
        best_g = -1
        # Different addresses are not mutually gpos-ordered across
        # windows, so every window *writing the variable* is consulted
        # (each at most once per session — scans persist); the directory
        # skips the rest.
        window_written = self._window_written
        for wi in range(len(windows) - 1, -1, -1):
            wset = window_written[wi]
            if not any(a in wset for a in addrs):
                continue
            self._ensure_scanned(wi, wi + 1)
            defs = windows[wi].defs
            for addr in addrs:
                lst = defs.get(addr)
                if not lst:
                    continue
                if tid is None:
                    g = lst[-1]
                    if g > best_g:
                        best_g = g
                else:
                    for g in reversed(lst):
                        if order_tids[g] == tid:
                            if g > best_g:
                                best_g = g
                            break
        if best_g < 0:
            raise ValueError("global %r was never written" % name)
        return (order_tids[best_g], self._order_tindexes[best_g])

    def last_reads(self, count: int) -> List[Instance]:
        """The last ``count`` memory-reading instances, newest first —
        derived from the scaffold alone (whether an instruction reads
        memory is a static property of its pc)."""
        self.prepare()
        if count <= 0:
            return []
        reads_mem = self._reads_mem
        pcs = self._pcs
        order_tids = self._order_tids
        order_tindexes = self._order_tindexes
        out: List[Instance] = []
        for g in range(len(order_tids) - 1, -1, -1):
            tid = order_tids[g]
            tindex = order_tindexes[g]
            if reads_mem[pcs[tid][tindex]]:
                out.append((tid, tindex))
                if len(out) >= count:
                    break
        return out

    # -- reporting ---------------------------------------------------------

    @property
    def ddg(self) -> "ReexecIndex":
        """Facade parity with :class:`BackwardSlicer`: the partial DDG
        *is* this index (grown per query instead of compiled up front)."""
        return self

    @property
    def trace_records(self) -> int:
        """Scaffold-counted retires (what a full trace would hold)."""
        return sum(len(col) for col in self._pcs.values())

    def threads(self) -> List[int]:
        return sorted(self._pcs)

    def index_stats(self) -> dict:
        """Same key shape as :meth:`BackwardSlicer.index_stats`, plus the
        re-execution counters."""
        return {
            "slice_index": "reexec",
            "ddg_build_time_sec": self.build_time,
            "edge_count": self.edge_count,
            "memo_hits": self.memo_hits + self.cache_hits,
            "memo_misses": self.memo_misses + self.cache_misses,
            "slice_cache_hits": self.cache_hits,
            "closure_memo_hits": self.memo_hits,
            "bypassed_edges": self.bypassed_edges,
            "reexec_passes": self.passes,
            "reexec_window_steps": self.window_steps,
            "reexec_watch_hits": self.watch_hits,
            "reexec_windows": len(self._windows),
            "reexec_windows_scanned": sum(
                1 for w in self._windows if w.scanned),
            "partial_nodes": self.node_count,
            "partial_edges": self.edge_count,
        }
