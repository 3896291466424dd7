"""Backward dynamic slicing over the global trace (Section 3, step iii).

:class:`BackwardSlicer` is the query facade.  ``SliceOptions(index=...)``
selects the engine:

* ``"ddg"`` (default) — the build-once CSR dependence index of
  :mod:`repro.slicing.ddg`: one pass compiles every dependence edge, then
  each query is a memoized graph traversal touching only the slice.  The
  engine is built lazily on the first query.
* ``"columnar"`` / ``"rows"`` — the per-query backward scans described
  below, kept as baselines (and as the differential tests' references).

One backward scan from the criterion position resolves data dependences:
the *wanted* map holds, per location, the consumers still looking for their
reaching definition; the first definition encountered below a consumer's
position is, by construction of the scan order, the latest one — the
dynamic reaching definition.  Control dependences come for free: every
trace record carries its controlling instance, so adding a node chains its
control parents directly without scanning.

LP block summaries let the scan skip blocks that define none of the wanted
locations.  Save/restore bypassing (Section 5.2) redirects a dependence
that resolves to a verified *restore* to instead search below the matching
*save*, so spurious save/restore chains never enter the slice.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.obs.registry import OBS
from repro.slicing.ddg import DependenceIndex
from repro.slicing.global_trace import GlobalTrace
from repro.slicing.lp import TraceBlock, build_blocks_with_defs
from repro.slicing.options import SliceOptions
from repro.slicing.slice import DynamicSlice, SliceNode
from repro.slicing.trace import Instance, Location, TraceRecord


class BackwardSlicer:
    """Computes backward dynamic slices over one global trace."""

    def __init__(self, gtrace: GlobalTrace,
                 verified_restores: Optional[Dict[Instance, Instance]] = None,
                 options: Optional[SliceOptions] = None) -> None:
        self.gtrace = gtrace
        self.options = options or SliceOptions()
        self.restores = dict(verified_restores or {})
        self.index = self.options.index
        self._ddg: Optional[DependenceIndex] = None
        if self.index in ("ddg", "reexec"):
            # "reexec" here means a reexec session fell back to the
            # materialized pipeline (exclusion pinball, legacy engine,
            # undecodable program); the ddg engine answers with identical
            # bytes, so the fallback is transparent.
            # The DDG engine builds its own flat edge columns (lazily, on
            # the first query); the LP block summaries are scan-only.
            self.blocks: List[TraceBlock] = []
            self._def_locs = None
        else:
            #: ``_def_locs[gpos]`` — interned def-location tuple per
            #: position for columnar stores (None for record-list orders):
            #: lets the backward scan test a position against the wanted
            #: set without materializing its record.  ``index="rows"``
            #: forces the record path even on a columnar store.
            self.blocks, self._def_locs = build_blocks_with_defs(
                gtrace.order, self.options.block_size,
                force_rows=(self.index == "rows"))
        #: save-instance -> gpos memo for the save/restore bypass: the
        #: same save is typically bypassed many times per slice, and its
        #: global position never changes once the trace is merged.
        self._save_gpos: Dict[Instance, int] = {}

    # -- public API -----------------------------------------------------------

    @property
    def ddg(self) -> DependenceIndex:
        """The compiled dependence index (built on first access)."""
        if self._ddg is None:
            self._ddg = DependenceIndex(self.gtrace, self.restores,
                                        self.options)
        return self._ddg

    def index_stats(self) -> dict:
        """Amortization counters for benchmarks / the CLI (zeros until
        the DDG engine has been built)."""
        out = {
            "slice_index": self.index,
            "ddg_build_time_sec": 0.0,
            "edge_count": 0,
            "memo_hits": 0,
            "memo_misses": 0,
            "slice_cache_hits": 0,
            "closure_memo_hits": 0,
            "bypassed_edges": 0,
        }
        if self._ddg is not None:
            ddg = self._ddg
            out.update(
                ddg_build_time_sec=ddg.build_time,
                edge_count=ddg.edge_count,
                memo_hits=ddg.memo_hits + ddg.cache_hits,
                memo_misses=ddg.memo_misses + ddg.cache_misses,
                slice_cache_hits=ddg.cache_hits,
                closure_memo_hits=ddg.memo_hits,
                bypassed_edges=ddg.bypassed_edges,
            )
        return out

    def slice(self, criterion: Instance,
              locations: Optional[Sequence[Location]] = None) -> DynamicSlice:
        """Backward slice from ``criterion``.

        With ``locations`` the slice tracks those specific locations as of
        (and including) the criterion instruction; otherwise it tracks the
        criterion instruction's own uses — "the statements that played a
        role in the computation of the value".
        """
        if self.index in ("ddg", "reexec"):
            return self.ddg.slice(criterion, locations)
        crit_rec = self.gtrace.record_of(criterion)
        stats = {
            "scanned_records": 0,
            "skipped_blocks": 0,
            "visited_blocks": 0,
            "bypassed_deps": 0,
            "unresolved_locations": 0,
        }
        nodes: Dict[Instance, SliceNode] = {}
        edges: List[Tuple[Instance, Instance, str, Optional[tuple]]] = []
        # location -> list of (before_gpos, consumer_instance)
        wanted: Dict[Location, List[Tuple[int, Instance]]] = {}

        if self._def_locs is not None:
            # Columnar store: the whole node-expansion loop runs on the
            # parallel columns — no TraceRecord is materialized for slice
            # membership, only the criterion record above.
            store = self.gtrace.store
            columns = store._columns
            locations_for = store.locations_for

            def add_node(inst: Instance) -> None:
                """Insert an instance and chain its control parents."""
                stack = [inst]
                while stack:
                    inst = stack.pop()
                    if inst in nodes:
                        continue
                    tid, tindex = inst
                    cols = columns[tid]
                    addr, line, func, _rdefs, ruses = cols.statics[tindex]
                    _mdefs, muses, cd, values = cols.dyns[tindex]
                    nodes[inst] = SliceNode(tid, tindex, addr, line, func,
                                            values)
                    gpos = cols.gpos[tindex]
                    for loc in locations_for(tid, ruses, muses):
                        entries = wanted.get(loc)
                        if entries is None:
                            wanted[loc] = [(gpos, inst)]
                        else:
                            entries.append((gpos, inst))
                    if cd is not None:
                        edges.append((inst, cd, "control", None))
                        stack.append(cd)

            add_node(crit_rec._inst)
        else:
            record_of = self.gtrace.record_of

            def add_node(record: TraceRecord) -> None:
                """Insert a record and chain its control-dependence parents."""
                stack = [record]
                while stack:
                    rec = stack.pop()
                    inst = rec._inst
                    if inst in nodes:
                        continue
                    nodes[inst] = SliceNode(
                        rec.tid, rec.tindex, rec.addr, rec.line, rec.func,
                        rec.values)
                    gpos = rec.gpos
                    for loc in rec.use_locations():
                        entries = wanted.get(loc)
                        if entries is None:
                            wanted[loc] = [(gpos, inst)]
                        else:
                            entries.append((gpos, inst))
                    cd = rec.cd
                    if cd is not None:
                        edges.append((inst, cd, "control", None))
                        stack.append(record_of(cd))

            add_node(crit_rec)
        if locations is not None:
            for loc in locations:
                wanted.setdefault(tuple(loc), []).append(
                    (crit_rec.gpos + 1, crit_rec.instance))

        self._scan(crit_rec.gpos, wanted, nodes, edges, add_node, stats)
        stats["unresolved_locations"] = len(wanted)
        stats["nodes"] = len(nodes)
        stats["edges"] = len(edges)
        if OBS.enabled:
            OBS.add("slicing.scan_queries", 1)
            OBS.add("slicing.scanned_records", stats["scanned_records"])
            OBS.add("slicing.skipped_blocks", stats["skipped_blocks"])
            OBS.add("slicing.visited_blocks", stats["visited_blocks"])
            OBS.add("slicing.edges_walked", len(edges))
        return DynamicSlice(crit_rec.instance, nodes, edges, stats)

    # -- the backward scan ---------------------------------------------------------

    def _scan(self, start_pos: int, wanted, nodes, edges, add_node,
              stats) -> None:
        order = self.gtrace.order
        prune = self.options.prune_save_restore and bool(self.restores)
        block_size = self.options.block_size
        start_block = start_pos // block_size if order else -1
        for block_index in range(min(start_block, len(self.blocks) - 1),
                                 -1, -1):
            if not wanted:
                break
            block = self.blocks[block_index]
            # ``wanted`` is keyed by location, so the dict itself serves as
            # the wanted-location set: no per-block set() rebuild (the set
            # is maintained incrementally by the dict insert/delete flow).
            if not block.may_define(wanted):
                stats["skipped_blocks"] += 1
                continue
            stats["visited_blocks"] += 1
            hi = min(block.end - 1, start_pos)
            def_locs = self._def_locs
            if def_locs is not None:
                # Columnar: test the interned def tuple against the wanted
                # map first; on a hit, match on (tid, tindex) indices —
                # no record is materialized anywhere in the scan.
                tids = order._tids
                tindexes = order._tindexes
                scanned = 0
                for position in range(hi, block.start - 1, -1):
                    if not wanted:
                        break
                    scanned += 1
                    locs = def_locs[position]
                    for loc in locs:
                        if loc in wanted:
                            self._match_defs_columnar(
                                locs, (tids[position], tindexes[position]),
                                position, wanted, nodes, edges, add_node,
                                stats, prune)
                            break
                stats["scanned_records"] += scanned
            else:
                for position in range(hi, block.start - 1, -1):
                    if not wanted:
                        break
                    record = order[position]
                    stats["scanned_records"] += 1
                    self._match_defs(record, position, wanted, nodes, edges,
                                     add_node, stats, prune)

    def _match_defs_columnar(self, def_locs: tuple, inst: Instance,
                             position: int, wanted, nodes, edges, add_node,
                             stats, prune: bool) -> None:
        """Columnar twin of :meth:`_match_defs`: works on the interned def
        tuple and the (tid, tindex) instance; ``add_node`` (the columnar
        closure) takes instances, so nothing here touches a TraceRecord."""
        for loc in def_locs:
            entries = wanted.get(loc)
            if not entries:
                continue
            matched = [entry for entry in entries if entry[0] > position]
            if not matched:
                continue
            if len(matched) == len(entries):
                remaining = []
            else:
                remaining = [entry for entry in entries
                             if entry[0] <= position]
            if prune and loc[0] == "r" and inst in self.restores:
                save_instance = self.restores[inst]
                save_gpos = self._save_gpos.get(save_instance)
                if save_gpos is None:
                    save_gpos = self.gtrace.record_of(save_instance).gpos
                    self._save_gpos[save_instance] = save_gpos
                redirected = [(save_gpos, consumer)
                              for _before, consumer in matched]
                stats["bypassed_deps"] += len(matched)
                new_entries = remaining + redirected
                if new_entries:
                    wanted[loc] = new_entries
                else:
                    del wanted[loc]
                continue
            if remaining:
                wanted[loc] = remaining
            else:
                del wanted[loc]
            for _before, consumer in matched:
                edges.append((consumer, inst, "data", loc))
            if inst not in nodes:
                add_node(inst)

    def _match_defs(self, record: TraceRecord, position: int, wanted,
                    nodes, edges, add_node, stats, prune: bool) -> None:
        for loc in record.def_locations():
            entries = wanted.get(loc)
            if not entries:
                continue
            matched = [entry for entry in entries if entry[0] > position]
            if not matched:
                continue
            if len(matched) == len(entries):
                # Common case: every consumer sits above this definition
                # (control parents below the scan front are the exception),
                # so skip the second partition pass.
                remaining = []
            else:
                remaining = [entry for entry in entries
                             if entry[0] <= position]
            if (prune and loc[0] == "r"
                    and record._inst in self.restores):
                # Verified restore: bypass it.  The consumers' reaching
                # definition is whatever defined the register before the
                # matching save — resume the search below the save.
                save_instance = self.restores[record._inst]
                save_gpos = self._save_gpos.get(save_instance)
                if save_gpos is None:
                    save_gpos = self.gtrace.record_of(save_instance).gpos
                    self._save_gpos[save_instance] = save_gpos
                redirected = [(save_gpos, consumer)
                              for _before, consumer in matched]
                stats["bypassed_deps"] += len(matched)
                new_entries = remaining + redirected
                if new_entries:
                    wanted[loc] = new_entries
                else:
                    del wanted[loc]
                continue
            # Commit the shrunken entry list *before* expanding the node:
            # add_node may append fresh entries for this same location
            # (e.g. ``add r0, r0, 1`` both defines and uses r0), and those
            # must survive.
            if remaining:
                wanted[loc] = remaining
            else:
                del wanted[loc]
            inst = record._inst
            for _before, consumer in matched:
                edges.append((consumer, inst, "data", loc))
            if inst not in nodes:
                add_node(record)
