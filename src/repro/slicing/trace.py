"""Per-thread local execution traces (paper Section 3, step i).

One :class:`TraceRecord` per retired instruction carries exactly what the
backward slicer needs: which registers and memory addresses the instance
defined and used, its dynamic control-dependence parent, and source debug
information.  Locations are encoded as:

* registers: ``("r", tid, name)`` — registers are per-thread state;
* memory: ``("m", addr)`` — shared across threads.

Two storage layouts exist:

* :class:`TraceStore` — the original record-per-row layout: one
  :class:`TraceRecord` object appended per retired instruction.
* :class:`ColumnarTraceStore` — the hot-path layout used by the
  predecoded engine's tracer: parallel per-thread columns with def/use
  tuples *interned* (a thread executing the same pc twice shares one
  tuple), and :class:`TraceRecord` objects materialized lazily, on first
  access, as cached views over the columns.  Both layouts expose the same
  API (``by_thread``, ``get``, lengths), so the slicer, the merger and
  the precision analyses work on either unchanged.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Instance = Tuple[int, int]          # (tid, tindex)
Location = tuple                     # ("r", tid, name) | ("m", addr)


def instance_error(instance: Instance,
                   length: Optional[int] = None) -> LookupError:
    """The error every slice index raises for a criterion outside the
    region: :class:`KeyError` when the thread never ran in it (``length``
    None), :class:`IndexError` when the instruction index falls outside
    the thread's ``length`` retired instructions."""
    if length is None:
        return KeyError("instance %r is not in the region: thread %r "
                        "never ran there" % (instance, instance[0]))
    return IndexError("instance %r is not in the region: thread %r "
                      "retired %d instructions" % (instance, instance[0],
                                                   length))


class TraceRecord:
    """One executed instruction instance in a thread's local trace."""

    __slots__ = ("tid", "tindex", "addr", "line", "func",
                 "rdefs", "ruses", "mdefs", "muses", "cd", "gpos", "values",
                 "_def_locs", "_use_locs", "_inst")

    def __init__(self, tid: int, tindex: int, addr: int,
                 line: Optional[int], func: Optional[str],
                 rdefs: Tuple[str, ...], ruses: Tuple[str, ...],
                 mdefs: Tuple[int, ...], muses: Tuple[int, ...],
                 cd: Optional[Instance],
                 values: Optional[dict] = None) -> None:
        self.tid = tid
        self.tindex = tindex
        self.addr = addr
        self.line = line
        self.func = func
        self.rdefs = rdefs
        self.ruses = ruses
        self.mdefs = mdefs
        self.muses = muses
        self.cd = cd           # controlling instance, or None
        self.gpos = -1         # position in the merged global trace
        self.values = values   # optional written-value map for display
        self._def_locs: Optional[Tuple[Location, ...]] = None
        self._use_locs: Optional[Tuple[Location, ...]] = None
        self._inst = (tid, tindex)

    @property
    def instance(self) -> Instance:
        return self._inst

    def def_locations(self) -> Tuple[Location, ...]:
        locs = self._def_locs
        if locs is None:
            locs = tuple(("r", self.tid, name) for name in self.rdefs) \
                + tuple(("m", addr) for addr in self.mdefs)
            self._def_locs = locs
        return locs

    def use_locations(self) -> Tuple[Location, ...]:
        locs = self._use_locs
        if locs is None:
            locs = tuple(("r", self.tid, name) for name in self.ruses) \
                + tuple(("m", addr) for addr in self.muses)
            self._use_locs = locs
        return locs

    def __repr__(self) -> str:
        return ("<TraceRecord %d:%d pc=%d line=%s defs=%s/%s uses=%s/%s>"
                % (self.tid, self.tindex, self.addr, self.line,
                   self.rdefs, self.mdefs, self.ruses, self.muses))


class TraceStore:
    """Per-thread record lists, indexable by (tid, tindex)."""

    def __init__(self) -> None:
        self.by_thread: Dict[int, List[TraceRecord]] = {}

    def append(self, record: TraceRecord) -> None:
        self.by_thread.setdefault(record.tid, []).append(record)

    def get(self, instance: Instance) -> TraceRecord:
        tid, tindex = instance
        records = self.by_thread.get(tid)
        if records is None:
            raise instance_error(instance)
        if not 0 <= tindex < len(records):
            raise instance_error(instance, len(records))
        return records[tindex]

    def thread_length(self, tid: int) -> int:
        return len(self.by_thread.get(tid, ()))

    def total_records(self) -> int:
        return sum(len(records) for records in self.by_thread.values())

    def threads(self) -> List[int]:
        return sorted(self.by_thread)

    def __contains__(self, instance: Instance) -> bool:
        tid, tindex = instance
        records = self.by_thread.get(tid)
        return records is not None and 0 <= tindex < len(records)


# -- columnar layout ----------------------------------------------------------

class _ThreadColumns:
    """Parallel per-thread columns; one slot per retired instruction.

    Each row is split into a *static* part — ``(addr, line, func, rdefs,
    ruses)``, a pure function of the instruction (modulo the SYS r0 def),
    interned by the tracer so a pc executed a million times contributes
    one tuple — and a *dynamic* part ``(mdefs, muses, values)`` built
    per retired instruction.  The controlling instruction index (``cd``,
    -1 for none; control stays inside a thread) and the global position
    (``gpos``) columns are filled in by the walk and the merge."""

    __slots__ = ("statics", "dyns", "cd", "gpos", "cache")

    def __init__(self) -> None:
        #: Interned (addr, line, func, rdefs, ruses) per row.
        self.statics: List[tuple] = []
        #: (mdefs, muses, values) per row.
        self.dyns: List[tuple] = []
        self.cd: Sequence[int] = array("i")
        self.gpos: Sequence[int] = array("i")
        #: Lazily materialized TraceRecord views (None until first access).
        self.cache: List[Optional[TraceRecord]] = []


class _LazyThreadView:
    """List-like view of one thread's records, materializing on access."""

    __slots__ = ("_store", "_tid", "_cols")

    def __init__(self, store: "ColumnarTraceStore", tid: int,
                 cols: _ThreadColumns) -> None:
        self._store = store
        self._tid = tid
        self._cols = cols

    def __len__(self) -> int:
        return len(self._cols.statics)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        length = len(self._cols.statics)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError(index)
        return self._store.materialize(self._tid, index)

    def __iter__(self):
        for tindex in range(len(self._cols.statics)):
            yield self._store.materialize(self._tid, tindex)


class ColumnarTraceStore:
    """Interned, columnar trace storage with lazy :class:`TraceRecord` views.

    Append path (one call per retired instruction) touches only parallel
    lists and an intern table; no record object, no location tuples.  The
    record/location objects are built on first access and cached, so a
    consumer that never looks at a record (e.g. an LP-skipped trace block)
    never pays for it.
    """

    def __init__(self) -> None:
        self._columns: Dict[int, _ThreadColumns] = {}
        #: Public mapping tid -> list-like record view (same shape as
        #: TraceStore.by_thread; views are created when a tid first appears).
        self.by_thread: Dict[int, _LazyThreadView] = {}
        self._tuples: dict = {}      # interner: def/use tuples
        self._loc_memo: dict = {}    # (tid, rtuple, mtuple) -> location tuple

    # -- append (hot) ---------------------------------------------------------

    def intern(self, items: tuple) -> tuple:
        """Return the canonical instance of ``items`` (tuple interning)."""
        return self._tuples.setdefault(items, items)

    def columns_for(self, tid: int) -> _ThreadColumns:
        cols = self._columns.get(tid)
        if cols is None:
            cols = self._columns[tid] = _ThreadColumns()
            self.by_thread[tid] = _LazyThreadView(self, tid, cols)
        return cols

    def append_row(self, cols: _ThreadColumns, static: tuple,
                   mdefs: tuple, muses: tuple,
                   values: Optional[dict]) -> None:
        """Append one row.  ``static`` is the interned
        ``(addr, line, func, rdefs, ruses)`` tuple for the instruction."""
        cols.statics.append(static)
        cols.dyns.append((mdefs, muses, values))
        cols.cache.append(None)

    # -- location interning ---------------------------------------------------

    def locations_for(self, tid: int, regs: tuple, mems: tuple) -> tuple:
        """The interned location tuple for a (regs, mems) def or use set."""
        key = (tid, regs, mems)
        locs = self._loc_memo.get(key)
        if locs is None:
            locs = tuple(("r", tid, name) for name in regs) \
                + tuple(("m", addr) for addr in mems)
            self._loc_memo[key] = locs
        return locs

    # -- record materialization -----------------------------------------------

    def materialize(self, tid: int, tindex: int) -> TraceRecord:
        cols = self._columns[tid]
        record = cols.cache[tindex]
        if record is None:
            # Direct slot assignment (bypassing __init__) — materialize is
            # called once per record the slicer actually touches, and the
            # constructor's keyword handling is measurable at that volume.
            record = TraceRecord.__new__(TraceRecord)
            (record.addr, record.line, record.func, rdefs, ruses) = \
                cols.statics[tindex]
            (mdefs, muses, record.values) = cols.dyns[tindex]
            cd = cols.cd[tindex]
            record.cd = (tid, cd) if cd >= 0 else None
            record.tid = tid
            record.tindex = tindex
            record.rdefs = rdefs
            record.ruses = ruses
            record.mdefs = mdefs
            record.muses = muses
            record.gpos = cols.gpos[tindex] if cols.gpos else -1
            record._def_locs = self.locations_for(tid, rdefs, mdefs)
            record._use_locs = self.locations_for(tid, ruses, muses)
            record._inst = (tid, tindex)
            cols.cache[tindex] = record
        return record

    def gpos_of(self, tid: int, tindex: int) -> int:
        """Global position of one row without materializing its record
        (-1 before the merge)."""
        cols = self._columns.get(tid)
        if cols is None:
            raise instance_error((tid, tindex))
        length = len(cols.statics)
        if not 0 <= tindex < length:
            raise instance_error((tid, tindex), length)
        return cols.gpos[tindex] if cols.gpos else -1

    def adopt_positions(self, positions: Dict[int, Sequence[int]]) -> None:
        """Take each thread's merged-order position column (see
        :func:`~repro.slicing.global_trace.merge_order`)."""
        for tid, cols in self._columns.items():
            gpos = cols.gpos = positions[tid]
            for record in filter(None, cols.cache):
                record.gpos = gpos[record.tindex]

    def def_locations_at(self, tid: int, tindex: int) -> tuple:
        """Def locations of one row without materializing its record."""
        cols = self._columns[tid]
        return self.locations_for(
            tid, cols.statics[tindex][3], cols.dyns[tindex][0])

    # -- TraceStore-compatible API --------------------------------------------

    def get(self, instance: Instance) -> TraceRecord:
        tid, tindex = instance
        cols = self._columns.get(tid)
        if cols is None:
            raise instance_error(instance)
        if not 0 <= tindex < len(cols.cache):
            raise instance_error(instance, len(cols.cache))
        # Cache-hit fast path: repeated lookups of the same instance (the
        # slicer chasing cd chains and dependence edges) skip materialize.
        record = cols.cache[tindex]
        if record is not None:
            return record
        return self.materialize(tid, tindex)

    def thread_length(self, tid: int) -> int:
        cols = self._columns.get(tid)
        return len(cols.statics) if cols is not None else 0

    def total_records(self) -> int:
        return sum(len(cols.statics) for cols in self._columns.values())

    def threads(self) -> List[int]:
        return sorted(self._columns)

    def __contains__(self, instance: Instance) -> bool:
        tid, tindex = instance
        cols = self._columns.get(tid)
        return cols is not None and 0 <= tindex < len(cols.statics)
