"""The dynamic slice data structure: nodes, dependence edges, navigation.

A :class:`DynamicSlice` is the answer to one backward slice query: the
instruction instances that played a role in computing the criterion's
value, and the dependence edges between them.  It comes in two forms
that answer every query, and serialize, identically:

* **Column-backed** (what the ``ddg``, cache-loaded and ``reexec``
  indexes return): a sorted ``array('q')`` of the members' global trace
  positions (gpos) over the :class:`SliceColumns` its index owns.  Size,
  membership, the relogger's keep-sets, and the threads, pcs, lines and
  source statements the slice touches are answered from that array and
  the columns.  :attr:`~DynamicSlice.nodes` is a read-only mapping whose
  ``len`` and ``in`` do the same; the node dict behind it and
  :attr:`~DynamicSlice.edges` are built on first read, once, in gpos
  order (then CSR row order, then location-query edges last).
* **Explicit**: a nodes dict and an edges list, built by the backward
  scan engines (the differential oracles derive their own edges) and by
  :meth:`DynamicSlice.load`.

**Retention.**  A slice keeps O(slice) Python objects — its position
array, its members' written-value maps, location-query edges — plus its
index's flat columns.  It never keeps the trace store, the collector,
the machine, the session or a mutable index cache, so a slice held past
its session costs what the slice costs.  Slices stay valid across debug
sessions thanks to PinPlay's repeatability guarantee: they can be saved,
reloaded later, browsed backwards along dependence edges (the KDbg-style
navigation), and converted into the keep-sets the relogger needs to
build a slice pinball.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left
from collections.abc import Mapping
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.slicing.trace import Instance, instance_error

Edge = Tuple[Instance, Instance, str, Optional[tuple]]


class SliceNode:
    """One instruction instance included in the slice."""

    __slots__ = ("tid", "tindex", "addr", "line", "func", "values")

    def __init__(self, tid: int, tindex: int, addr: int,
                 line: Optional[int], func: Optional[str],
                 values: Optional[dict] = None) -> None:
        self.tid = tid
        self.tindex = tindex
        self.addr = addr
        self.line = line
        self.func = func
        self.values = values

    @property
    def instance(self) -> Instance:
        return (self.tid, self.tindex)

    def __repr__(self) -> str:
        return "<SliceNode %d:%d %s:%s pc=%d>" % (
            self.tid, self.tindex, self.func, self.line, self.addr)


class SliceColumns:
    """Flat per-position columns one index shares with all its slices.

    Built once per index and never changed afterwards:

    * ``tids`` / ``tindexes`` / ``pcs`` — per gpos;
    * ``positions`` — tid -> column mapping tindex to gpos;
    * ``statements`` — pc -> ``(func, line)``;
    * the CSR dependence rows of a compiled graph (``indptr``, ``preds``
      and ``elocs`` over ``locs``, the interned location table plus a
      trailing None, so a control edge's location id -1 reads None).
      The re-execution index grows its graph per query, so it leaves
      these None and hands each slice its members' rows instead.
    """

    __slots__ = ("tids", "tindexes", "pcs", "positions", "statements",
                 "indptr", "preds", "elocs", "locs")

    def __init__(self, tids: Sequence[int], tindexes: Sequence[int],
                 pcs: Sequence[int], positions: Dict[int, Sequence[int]],
                 statements, indptr=None, preds=None, elocs=None,
                 locs=None) -> None:
        self.tids = tids
        self.tindexes = tindexes
        self.pcs = pcs
        self.positions = positions
        self.statements = statements
        self.indptr = indptr
        self.preds = preds
        self.elocs = elocs
        self.locs = locs

    def gpos_of(self, instance: Instance) -> int:
        """Global position of ``instance``; :func:`instance_error` for
        one outside the region."""
        tid, tindex = instance
        column = self.positions.get(tid)
        if column is None:
            raise instance_error(instance)
        if not 0 <= tindex < len(column):
            raise instance_error(instance, len(column))
        return column[tindex]


def thread_positions(tids: Sequence[int]) -> Dict[int, array]:
    """tid -> the gpos of each of its instructions, in tindex order (a
    merged trace keeps each thread's program order)."""
    positions: Dict[int, array] = {}
    for g, tid in enumerate(tids):
        column = positions.get(tid)
        if column is None:
            column = positions[tid] = array("q")
        column.append(g)
    return positions


class SliceNodes(Mapping):
    """Read-only ``instance -> SliceNode`` view of one slice.

    ``len`` and ``in`` answer from the slice itself; indexing, iteration,
    ``get``, ``keys``, ``values`` and ``items`` read its node dict, which
    a column-backed slice builds on the first such read.
    """

    __slots__ = ("_slice",)

    def __init__(self, dslice: "DynamicSlice") -> None:
        self._slice = dslice

    def __len__(self) -> int:
        return len(self._slice)

    def __contains__(self, instance) -> bool:
        return instance in self._slice

    def __getitem__(self, instance) -> SliceNode:
        return self._slice._node_dict()[instance]

    def __iter__(self) -> Iterator[Instance]:
        return iter(self._slice._node_dict())

    def get(self, instance, default=None):
        return self._slice._node_dict().get(instance, default)

    def keys(self):
        return self._slice._node_dict().keys()

    def values(self):
        return self._slice._node_dict().values()

    def items(self):
        return self._slice._node_dict().items()

    def __repr__(self) -> str:
        return "<SliceNodes of %d instances>" % len(self)


class DynamicSlice:
    """A computed backward dynamic slice."""

    def __init__(self, criterion: Instance,
                 nodes: Dict[Instance, SliceNode],
                 edges: List[Edge],
                 stats: Optional[dict] = None) -> None:
        """The explicit form.  ``edges`` holds ``(consumer, producer,
        kind, location)``: consumer *depends on* producer via a data
        ("data") or control ("control") dependence."""
        self.criterion = criterion
        self._stats: Optional[dict] = dict(stats or {})
        self._counts: tuple = ()
        self._nodes: Optional[Dict[Instance, SliceNode]] = nodes
        self._edges: Optional[List[Edge]] = edges
        self._members: Optional[array] = None
        self._columns: Optional[SliceColumns] = None
        self._values: Optional[list] = None
        self._rows: Optional[list] = None
        self._extra: Sequence[tuple] = ()
        self._deps: Optional[Dict[Instance, List]] = None

    @classmethod
    def from_columns(cls, criterion: Instance, members: array,
                     columns: SliceColumns, engine: str, unresolved: int,
                     memo_hits: int, values: Optional[list] = None,
                     rows: Optional[list] = None,
                     extra_edges: Sequence[tuple] = ()) -> "DynamicSlice":
        """The column-backed form.

        ``members`` is the ascending gpos array; ``engine``,
        ``unresolved`` (locations whose definition precedes the region)
        and ``memo_hits`` (closure-memo hits) go into :attr:`stats`;
        ``values`` are the members' written-value maps — a list, or an
        immutable source whose ``gather(members)`` returns that list when
        the nodes are first built (None: none recorded); ``rows`` the
        members' ``(locations, producer gposes)`` dependence rows, when
        ``columns`` carries no CSR graph (a None location is the control
        edge); ``extra_edges`` the location-query edges as ``(consumer
        gpos, producer gpos, location)``.
        """
        dslice = cls.__new__(cls)
        dslice.criterion = criterion
        dslice._stats = None
        dslice._counts = (engine, unresolved, memo_hits)
        dslice._nodes = None
        dslice._edges = None
        dslice._members = members
        dslice._columns = columns
        dslice._values = values
        dslice._rows = rows
        dslice._extra = extra_edges
        dslice._deps = None
        return dslice

    # -- queries -----------------------------------------------------------

    @property
    def stats(self) -> dict:
        """The engine's counters for this query (``nodes``, ``edges``,
        ``unresolved_locations``, ...); counted on first read for a
        column-backed slice."""
        stats = self._stats
        if stats is None:
            engine, unresolved, memo_hits = self._counts
            stats = self._stats = {
                "engine": engine,
                "nodes": len(self._members),
                "edges": self._edge_count(),
                "unresolved_locations": unresolved,
                "closure_memo_hits": memo_hits,
            }
        return stats

    @property
    def nodes(self) -> SliceNodes:
        return SliceNodes(self)

    @property
    def edges(self) -> List[Edge]:
        """``(consumer, producer, kind, location)`` per dependence edge
        (built on first read for a column-backed slice)."""
        if self._edges is None:
            self._edges = self._edge_list()
        return self._edges

    def __len__(self) -> int:
        if self._members is None:
            return len(self._nodes)
        return len(self._members)

    def __contains__(self, instance) -> bool:
        if self._members is None:
            return tuple(instance) in self._nodes
        try:
            gpos = self._columns.gpos_of(instance)
        except (LookupError, TypeError, ValueError):
            return False
        members = self._members
        at = bisect_left(members, gpos)
        return at < len(members) and members[at] == gpos

    def _pairs(self) -> Iterator[Instance]:
        """The members' ``(tid, tindex)`` pairs, in node order."""
        if self._members is None:
            return iter(self._nodes)
        tids = self._columns.tids
        tindexes = self._columns.tindexes
        return ((tids[g], tindexes[g]) for g in self._members)

    def instances(self) -> List[Instance]:
        return sorted(self._pairs())

    def node(self, instance: Instance) -> SliceNode:
        return self._node_dict()[tuple(instance)]

    def deps_of(self, instance: Instance) -> List[Tuple[Instance, str, Optional[tuple]]]:
        """Producers this instance directly depends on (backward edges)."""
        if self._deps is None:
            self._deps = {}
            for consumer, producer, kind, loc in self.edges:
                self._deps.setdefault(consumer, []).append(
                    (producer, kind, loc))
        return self._deps.get(tuple(instance), [])

    def pcs(self) -> Set[int]:
        """The instruction addresses the slice touches."""
        if self._members is None:
            return {node.addr for node in self._nodes.values()}
        pcs = self._columns.pcs
        return {pcs[g] for g in self._members}

    def source_statements(self) -> Set[Tuple[Optional[str], Optional[int]]]:
        """The (function, line) statements the slice touches."""
        if self._members is None:
            return {(node.func, node.line) for node in self._nodes.values()}
        statements = self._columns.statements
        return {statements[pc] for pc in self.pcs()}

    def lines(self) -> Set[int]:
        return {line for _func, line in self.source_statements()
                if line is not None}

    def threads(self) -> Set[int]:
        if self._members is None:
            return {tid for tid, _ in self._nodes}
        tids = self._columns.tids
        return {tids[g] for g in self._members}

    def to_keep(self) -> Dict[int, Set[int]]:
        """Keep-sets for the relogger: tid -> instruction indices kept."""
        keep: Dict[int, Set[int]] = {}
        if self._members is None:
            for tid, tindex in self._nodes:
                keep.setdefault(tid, set()).add(tindex)
            return keep
        tids = self._columns.tids
        tindexes = self._columns.tindexes
        for g in self._members:
            tid = tids[g]
            kept = keep.get(tid)
            if kept is None:
                kept = keep[tid] = set()
            kept.add(tindexes[g])
        return keep

    # -- column-backed materialization ---------------------------------------

    def _node_dict(self) -> Dict[Instance, SliceNode]:
        nodes = self._nodes
        if nodes is None:
            cols = self._columns
            tids = cols.tids
            tindexes = cols.tindexes
            pcs = cols.pcs
            statements = cols.statements
            values = self._values
            if values is None:
                values = repeat(None)
            elif not isinstance(values, list):
                values = values.gather(self._members)
            nodes = {}
            for g, value in zip(self._members, values):
                tid = tids[g]
                tindex = tindexes[g]
                pc = pcs[g]
                func, line = statements[pc]
                nodes[(tid, tindex)] = SliceNode(tid, tindex, pc, line, func,
                                                 value)
            self._nodes = nodes
        return nodes

    def _edge_count(self) -> int:
        if self._rows is None:
            indptr = self._columns.indptr
            count = sum(indptr[g + 1] - indptr[g] for g in self._members)
        else:
            count = sum(len(preds) for _locs, preds in self._rows)
        return count + len(self._extra)

    def _edge_positions(self) -> Iterator[tuple]:
        """``(consumer gpos, producer gpos, location)`` per edge, in edge
        order; a None location marks a control dependence."""
        if self._rows is None:
            cols = self._columns
            indptr = cols.indptr
            preds = cols.preds
            elocs = cols.elocs
            locs = cols.locs
            for g in self._members:
                for e in range(indptr[g], indptr[g + 1]):
                    yield g, preds[e], locs[elocs[e]]
        else:
            for g, (row_locs, row_preds) in zip(self._members, self._rows):
                for loc, p in zip(row_locs, row_preds):
                    yield g, p, loc
        yield from self._extra

    def _edge_list(self) -> List[Edge]:
        members = self._members
        if self._nodes is not None:
            # Share the node dict's instance tuples.
            instance = dict(zip(members, self._nodes))
        else:
            instance = dict(zip(members, self._pairs()))
        return [(instance[g], instance[p],
                 "control" if loc is None else "data", loc)
                for g, p, loc in self._edge_positions()]

    # -- serialization ----------------------------------------------------------

    def node_rows(self) -> List[list]:
        """``[tid, tindex, addr, line, func]`` per node, in node order
        (no :class:`SliceNode` is built)."""
        if self._members is None:
            return [[node.tid, node.tindex, node.addr, node.line, node.func]
                    for node in self._nodes.values()]
        cols = self._columns
        tids = cols.tids
        tindexes = cols.tindexes
        pcs = cols.pcs
        statements = cols.statements
        rows = []
        for g in self._members:
            pc = pcs[g]
            func, line = statements[pc]
            rows.append([tids[g], tindexes[g], pc, line, func])
        return rows

    def edge_rows(self) -> List[list]:
        """``[consumer, producer, kind, location]`` per edge with lists
        for tuples, in edge order (no edge tuple is built)."""
        if self._members is None:
            return [[list(consumer), list(producer), kind,
                     list(loc) if loc is not None else None]
                    for consumer, producer, kind, loc in self._edges]
        tids = self._columns.tids
        tindexes = self._columns.tindexes
        return [[[tids[g], tindexes[g]], [tids[p], tindexes[p]],
                 "control" if loc is None else "data",
                 None if loc is None else list(loc)]
                for g, p, loc in self._edge_positions()]

    def to_dict(self) -> dict:
        return {
            "criterion": list(self.criterion),
            "nodes": self.node_rows(),
            "edges": self.edge_rows(),
            "stats": self.stats,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DynamicSlice":
        nodes = {}
        for tid, tindex, addr, line, func in payload["nodes"]:
            node = SliceNode(tid, tindex, addr, line, func)
            nodes[node.instance] = node
        edges = [
            (tuple(consumer), tuple(producer), kind,
             tuple(loc) if loc is not None else None)
            for consumer, producer, kind, loc in payload["edges"]
        ]
        return cls(tuple(payload["criterion"]), nodes, edges,
                   payload.get("stats"))

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle)

    @classmethod
    def load(cls, path: str) -> "DynamicSlice":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))
