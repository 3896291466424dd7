"""Build-once CSR dynamic dependence graph for interactive slice queries.

The paper's workflow (Figure 4) is *cyclic*: replay the region pinball
once, then answer **many** interactive slice queries against the same
trace.  The backward-scan engines pay O(|trace|) per query; this module
instead pays one O(|trace| + |edges|) pass that compiles every dependence
into a compact, flat graph, after which each query is a cheap int-array
traversal touching only the slice itself:

* **Build** — a forward pass over the merged global trace resolves
  every use to its dynamic reaching definition (per-location last-def
  tables), chains dynamic control-dependence parents, and applies the
  Section 5.2 save/restore bypass *at build time*: a data dependence that
  would land on a verified restore is redirected (transitively) to the
  definition reaching the matching save, so spurious save/restore chains
  never enter the graph.  For a columnar trace store the pass runs
  directly on the interned columns — no ``TraceRecord`` is materialized.
* **CSR layout** — edges live in flat ``array('q')`` columns indexed by
  global position: ``indptr[g] .. indptr[g+1]`` delimits node ``g``'s
  predecessor rows in ``preds`` (producer gpos), with parallel edge-kind
  bytes and location-id columns (locations interned into one table).
  The same pass emits the per-gpos tid, tindex and pc columns and a
  per-pc ``(func, line)`` table; together with the CSR columns they form
  the :class:`~repro.slicing.slice.SliceColumns` every slice of this
  index reads.
* **Query** — a backward slice is the reachable set from the criterion's
  gpos, found by an int BFS over the CSR columns; the slice's edges are
  then exactly the CSR rows of its members.  The answer is that set as a
  sorted gpos array over the shared columns: no per-member node or edge
  object is built until a consumer reads ``nodes`` or ``edges``.  Two
  memo layers exploit the cyclic-debugging access pattern (queries
  cluster near the failure):

  - a *closure memo*: complete reachable-set fragments from previously
    visited start nodes are reused wholesale by later traversals;
  - an LRU of complete :class:`DynamicSlice` results keyed by
    ``(criterion, locations)`` (options are fixed per index instance).

Equivalence with the backward-scan engines (same nodes, same edge
multiset, including verified-restore exclusion) is asserted by
``tests/slicing/test_index_differential.py`` over randomized
multi-threaded programs.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.registry import OBS
from repro.slicing.global_trace import GlobalTrace
from repro.slicing.options import SliceOptions
from repro.slicing.slice import (DynamicSlice, SliceColumns,
                                 thread_positions)
from repro.slicing.trace import Instance, Location

#: Edge-kind bytes in the CSR kind column.
EDGE_DATA = 0
EDGE_CONTROL = 1


class DependenceIndex:
    """Compiled dependence graph over one merged global trace.

    Build it once per :class:`~repro.slicing.api.SlicingSession` (the
    :class:`~repro.slicing.slicer.BackwardSlicer` facade does this lazily
    on the first query), then serve any number of slice queries in time
    proportional to the slice, not the trace.
    """

    def __init__(self, gtrace: GlobalTrace,
                 verified_restores: Optional[Dict[Instance, Instance]] = None,
                 options: Optional[SliceOptions] = None) -> None:
        self.gtrace = gtrace
        self.options = options or SliceOptions()
        self.restores = dict(verified_restores or {})
        #: Closure-memo / result-LRU counters (cumulative, for stats()).
        self.memo_hits = 0
        self.memo_misses = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.bypassed_edges = 0
        self._slice_cache: "OrderedDict[tuple, DynamicSlice]" = OrderedDict()
        self._closure_memo: "OrderedDict[int, frozenset]" = OrderedDict()
        # Span in place of the old ad-hoc perf_counter pair: it measures
        # regardless of enablement, so ``build_time`` stays populated.
        with OBS.span("slicing.ddg_build") as span:
            self._build()
        self.build_time = span.elapsed
        if OBS.enabled:
            OBS.add("slicing.ddg_builds", 1)
            OBS.add("slicing.ddg_edges", self.edge_count)
            OBS.add("slicing.ddg_nodes", self.node_count)

    # -- reporting -----------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self._preds)

    @property
    def node_count(self) -> int:
        return len(self._indptr) - 1

    def stats(self) -> dict:
        return {
            "build_time_sec": self.build_time,
            "node_count": self.node_count,
            "edge_count": self.edge_count,
            "location_count": len(self._locs),
            "bypassed_edges": self.bypassed_edges,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "closure_memo_entries": len(self._closure_memo),
            "slice_cache_entries": len(self._slice_cache),
        }

    # -- build ---------------------------------------------------------------

    def _build(self) -> None:
        order = self.gtrace.order
        store = self.gtrace.store
        total = len(order)
        columnar = getattr(order, "instance_at", None) is not None
        if columnar:
            tids = order._tids.tolist()
            tindexes = order._tindexes.tolist()
            columns = store._columns
        else:
            tids = [record.tid for record in order]
            tindexes = [record.tindex for record in order]

        prune = self.options.prune_save_restore and bool(self.restores)
        self._prune = prune
        #: verified-restore gpos -> matching save gpos (Section 5.2).
        redirect: Dict[int, int] = {}
        if prune:
            gpos_of = self.gtrace.gpos_of
            for restore_inst, save_inst in self.restores.items():
                try:
                    redirect[gpos_of(restore_inst)] = gpos_of(save_inst)
                except (KeyError, IndexError):
                    # A pair outside the merged region cannot be matched
                    # by any scanned definition either; skip it.
                    continue
        self._redirect = redirect
        #: (locid, restore gpos) -> effective producer gpos (or -1).  The
        #: chase result only depends on definitions *below* the save, all
        #: of which precede the restore in the forward build — so entries
        #: computed mid-build stay valid forever.
        self._bypass_memo: Dict[Tuple[int, int], int] = {}

        #: Restore gposes as a flat flag column: `flags[g]` beats a dict
        #: membership test on the per-register-use hot path.
        restore_flags = bytearray(total)
        for restore_gpos in redirect:
            restore_flags[restore_gpos] = 1

        loc_ids: Dict[Location, int] = {}
        locs: List[Location] = []
        #: locid -> ascending gpos list of its definitions (the
        #: addr/register write side table; also serves location queries).
        #: Dense: locids are allocated 0..N, so a flat list beats a dict.
        def_positions: List[List[int]] = []
        #: addr -> (locid, def-position list) for memory locations — one
        #: lookup resolves both; the list object is shared with
        #: ``def_positions`` and mutated in place.
        mem_entries: Dict[int, tuple] = {}
        #: Register "plans": per distinct instruction per thread, the
        #: (use (locid, def-list) pairs, def def-lists) — def-position
        #: lists are bound directly so the hot loop never re-indexes
        #: ``def_positions``.  Columnar statics tuples are owned by the
        #: store for its whole lifetime, so ``id(static)`` is a stable,
        #: hash-cheap key; one plan dict per thread (the merged order
        #: clusters per-thread runs, so the per-tid locals below rarely
        #: need refreshing).
        plans_by_tid: Dict[int, dict] = {}
        row_plans: Dict[tuple, Tuple[tuple, tuple]] = {}

        def reg_plan(tid, ruses, rdefs):
            pairs = []
            for name in ruses:
                loc = ("r", tid, name)
                locid = loc_ids.get(loc)
                if locid is None:
                    locid = loc_ids[loc] = len(locs)
                    locs.append(loc)
                    def_positions.append([])
                pairs.append((locid, def_positions[locid]))
            dps = []
            for name in rdefs:
                loc = ("r", tid, name)
                locid = loc_ids.get(loc)
                if locid is None:
                    locid = loc_ids[loc] = len(locs)
                    locs.append(loc)
                    def_positions.append([])
                dps.append(def_positions[locid])
            return tuple(pairs), tuple(dps)

        indptr = array("q", [0])
        preds = array("q")
        kinds = bytearray()
        elocs = array("q")
        #: Per-gpos pc and written-value columns, pc -> (func, line), and
        #: the gpos of every memory-reading instruction.
        pcs = array("q")
        pcs_append = pcs.append
        values: list = []
        values_append = values.append
        statements: Dict[int, tuple] = {}
        reads = array("q")
        reads_append = reads.append
        #: gpos -> tuple of locids whose reaching definition was not found
        #: inside the trace (initial-state reads); sparse.
        unresolved: Dict[int, tuple] = {}

        chase = self._chase

        last_tid = None
        statics_col = dyns_col = cd_col = gpos_col = plan_map = None
        for g in range(total):
            tid = tids[g]
            tindex = tindexes[g]
            if columnar:
                if tid != last_tid:
                    cols = columns[tid]
                    statics_col = cols.statics
                    dyns_col = cols.dyns
                    cd_col = cols.cd
                    gpos_col = cols.gpos
                    plan_map = plans_by_tid.get(tid)
                    if plan_map is None:
                        plan_map = plans_by_tid[tid] = {}
                    last_tid = tid
                static = statics_col[tindex]
                mdefs, muses, value = dyns_col[tindex]
                cd = cd_col[tindex]
                cd_gpos = gpos_col[cd] if cd >= 0 else -1
                sid = id(static)
                plan = plan_map.get(sid)
                if plan is None:
                    plan = plan_map[sid] = reg_plan(
                        tid, static[4], static[3])
                    statements[static[0]] = (static[2], static[1])
                pcs_append(static[0])
            else:
                record = order[g]
                mdefs, muses, cd = record.mdefs, record.muses, record.cd
                cd_gpos = store.get(cd).gpos if cd is not None else -1
                value = record.values
                plan_key = (tid, record.ruses, record.rdefs)
                plan = row_plans.get(plan_key)
                if plan is None:
                    plan = row_plans[plan_key] = reg_plan(
                        tid, record.ruses, record.rdefs)
                statements[record.addr] = (record.func, record.line)
                pcs_append(record.addr)
            values_append(value)
            use_pairs, def_dps = plan

            missing = None
            for locid, dp in use_pairs:    # register uses (bypass applies)
                if not dp:
                    if missing is None:
                        missing = [locid]
                    else:
                        missing.append(locid)
                    continue
                producer = dp[-1]
                if prune and restore_flags[producer]:
                    producer = chase(locid, dp, producer, len(dp) - 1)
                    if producer < 0:
                        if missing is None:
                            missing = [locid]
                        else:
                            missing.append(locid)
                        continue
                preds.append(producer)
                kinds.append(EDGE_DATA)
                elocs.append(locid)
            if muses:
                reads_append(g)
                for addr in muses:         # memory uses (no bypass)
                    entry = mem_entries.get(addr)
                    if entry is None:
                        loc = ("m", addr)
                        locid = loc_ids[loc] = len(locs)
                        locs.append(loc)
                        dp = []
                        def_positions.append(dp)
                        mem_entries[addr] = (locid, dp)
                    else:
                        locid, dp = entry
                    if not dp:
                        if missing is None:
                            missing = [locid]
                        else:
                            missing.append(locid)
                        continue
                    preds.append(dp[-1])
                    kinds.append(EDGE_DATA)
                    elocs.append(locid)
            if cd_gpos >= 0:
                preds.append(cd_gpos)
                kinds.append(EDGE_CONTROL)
                elocs.append(-1)
            if missing is not None:
                unresolved[g] = tuple(missing)
            for dp in def_dps:
                dp.append(g)
            for addr in mdefs:
                entry = mem_entries.get(addr)
                if entry is None:
                    loc = ("m", addr)
                    locid = loc_ids[loc] = len(locs)
                    locs.append(loc)
                    dp = [g]
                    def_positions.append(dp)
                    mem_entries[addr] = (locid, dp)
                else:
                    entry[1].append(g)
            indptr.append(len(preds))

        self._loc_ids = loc_ids
        self._locs = locs
        self._def_positions = def_positions
        self._indptr = indptr
        self._preds = preds
        self._kinds = kinds
        self._elocs = elocs
        self._unresolved = unresolved
        self._tids = array("q", tids)
        self._tindexes = array("q", tindexes)
        #: Per-gpos written-value maps: each query hands its members'
        #: maps to the slice, which must not keep the trace store.
        self._values = values
        self._reads = reads
        if columnar:
            positions = {tid: array("q", cols.gpos)
                         for tid, cols in columns.items()}
        else:
            positions = thread_positions(self._tids)
        self.columns = SliceColumns(self._tids, self._tindexes, pcs,
                                    positions, statements, indptr, preds,
                                    elocs, locs + [None])

    def _chase(self, locid: int, dp: List[int], producer: int,
               hi_index: int) -> int:
        """Resolve a definition that landed on a verified restore.

        Mirrors the scan engines' redirect: search for the latest
        definition *below* the matching save, transitively bypassing
        chained restores.  Returns -1 when the location's value comes
        from initial state below every save.
        """
        key = (locid, producer)
        cached = self._bypass_memo.get(key)
        if cached is not None:
            return cached
        self.bypassed_edges += 1
        redirect = self._redirect
        i = hi_index
        while True:
            save_gpos = redirect[producer]
            i = bisect_left(dp, save_gpos, 0, i) - 1
            if i < 0:
                result = -1
                break
            producer = dp[i]
            if producer not in redirect:
                result = producer
                break
        self._bypass_memo[key] = result
        return result

    # -- query ---------------------------------------------------------------

    def slice(self, criterion: Instance,
              locations: Optional[Sequence[Location]] = None) -> DynamicSlice:
        """Backward slice from ``criterion`` (same contract as the scan
        engines' :meth:`BackwardSlicer.slice`)."""
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

        columns = self.columns
        crit_gpos = columns.gpos_of(criterion)
        hits_before = self.memo_hits
        misses_before = self.memo_misses
        members = self._closure(crit_gpos)

        # Location queries: track the given locations as of (and
        # including) the criterion instruction — resolve each to its
        # reaching definition at crit_gpos + 1 and pull in its closure.
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

        unresolved = self._unresolved
        if unresolved:
            locs = self._locs
            if len(unresolved) < len(members):
                missing = [ids for g, ids in unresolved.items()
                           if g in members]
            else:
                missing = [unresolved[g] for g in order if g in unresolved]
            for ids in missing:
                for locid in ids:
                    unresolved_locs.add(locs[locid])
        memo_hits = self.memo_hits - hits_before
        result = DynamicSlice.from_columns(
            (self._tids[crit_gpos], self._tindexes[crit_gpos]), order,
            columns, "ddg", len(unresolved_locs), memo_hits,
            values=self._member_values(order), extra_edges=extra_edges)
        if OBS.enabled:
            OBS.add("slicing.bfs_visited_nodes", len(members))
            OBS.add("slicing.memo_hits", memo_hits)
            OBS.add("slicing.memo_misses", self.memo_misses - misses_before)
            OBS.add("slicing.edges_walked", result.stats["edges"])
        if cache_size:
            self._slice_cache[key] = result
            if len(self._slice_cache) > cache_size:
                self._slice_cache.popitem(last=False)
        return result

    # -- internals -----------------------------------------------------------

    def _member_values(self, order: array) -> list:
        """The written-value maps of the members at ``order``."""
        values = self._values
        return [values[g] for g in order]

    def _closure(self, start: int) -> frozenset:
        """Reachable gpos set from ``start`` over the CSR columns, reusing
        previously computed fragments (the closure memo)."""
        memo = self._closure_memo
        cached = memo.get(start)
        if cached is not None:
            memo.move_to_end(start)
            self.memo_hits += 1
            return cached
        self.memo_misses += 1
        indptr = self._indptr
        preds = self._preds
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
                    visited |= fragment
                    continue
            add(g)
            extend(preds[indptr[g]:indptr[g + 1]])
        result = frozenset(visited)
        size = self.options.closure_memo_size
        if size:
            memo[start] = result
            if len(memo) > size:
                memo.popitem(last=False)
        return result

    def _resolve(self, loc: Location, before: int) -> int:
        """Latest definition of ``loc`` strictly below gpos ``before``
        (with save/restore bypass), or -1 when unresolved."""
        locid = self._loc_ids.get(loc)
        if locid is None:
            return -1
        dp = self._def_positions[locid]
        if not dp:
            return -1
        i = bisect_left(dp, before) - 1
        if i < 0:
            return -1
        producer = dp[i]
        if (self._prune and loc[0] == "r" and producer in self._redirect):
            return self._chase(locid, dp, producer, i)
        return producer

