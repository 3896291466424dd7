"""Combined global trace construction (paper Section 3, step ii).

Merges the per-thread local traces into one total order that respects

* program order within each thread, and
* the shared-memory access-order edges (RAW/WAW/WAR across threads)
  recorded in the pinball.

The merge is a Kahn-style topological sort that *clusters* per-thread runs:
it keeps emitting from the current thread until the next record has an
unsatisfied cross-thread dependency, then rotates — the locality heuristic
the paper describes for the LP algorithm ("we always try to cluster traces
for each thread to the extent possible").

For a :class:`~repro.slicing.trace.ColumnarTraceStore` the merge runs
entirely on (tid, tindex) indices and a per-thread ``gpos`` column — no
:class:`~repro.slicing.trace.TraceRecord` is materialized.  The resulting
``GlobalTrace.order`` is then a lazy sequence view that materializes (and
caches, via the store) only the records a consumer actually touches.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

from repro.pinplay.pinball import Pinball, PinballFormatError
from repro.slicing.trace import ColumnarTraceStore, TraceRecord, TraceStore

Edge = Tuple[int, int, int, int, int, str]


class GlobalTraceError(PinballFormatError):
    """A pinball's access-order edges (``mem_order``) cannot be merged:
    an edge is not six fields, an end of it is not an instruction of a
    traced thread, or the edges form a cycle.  None of these can come
    from a real execution."""


class LazyOrderView:
    """Sequence of the merged global trace, materializing records lazily.

    Record identity is shared with the store's own cache, so
    ``gtrace.record_at(g) is gtrace.record_of(instance)`` holds exactly as
    it does for the eager list.
    """

    __slots__ = ("_store", "_tids", "_tindexes", "_cache")

    def __init__(self, store: ColumnarTraceStore,
                 tids: List[int], tindexes: List[int]) -> None:
        self._store = store
        self._tids = tids
        self._tindexes = tindexes
        #: Per-position record cache: a repeat access (the slicer scans
        #: the same positions across queries) is one list index, not a
        #: store round-trip.  Holds the *same* objects as the store's own
        #: per-thread cache, so record identity is preserved.
        self._cache: List[object] = [None] * len(tids)

    def instance_at(self, gpos: int) -> Tuple[int, int]:
        return (self._tids[gpos], self._tindexes[gpos])

    def __len__(self) -> int:
        return len(self._tids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        length = len(self._tids)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError(index)
        record = self._cache[index]
        if record is None:
            record = self._store.materialize(
                self._tids[index], self._tindexes[index])
            self._cache[index] = record
        return record

    def __iter__(self):
        for index in range(len(self._tids)):
            yield self[index]

    def __reversed__(self):
        for index in range(len(self._tids) - 1, -1, -1):
            yield self[index]


OrderSeq = Union[List[TraceRecord], LazyOrderView]


class GlobalTrace:
    """The merged total order, with per-record global positions filled in."""

    def __init__(self, order: OrderSeq,
                 store: Union[TraceStore, ColumnarTraceStore]) -> None:
        self.order = order
        self.store = store

    def __len__(self) -> int:
        return len(self.order)

    def record_at(self, gpos: int) -> TraceRecord:
        return self.order[gpos]

    def record_of(self, instance: Tuple[int, int]) -> TraceRecord:
        return self.store.get(instance)

    def gpos_of(self, instance: Tuple[int, int]) -> int:
        """Global position of ``instance`` — O(1) column read for columnar
        stores (no record materialization), record lookup otherwise."""
        fast = getattr(self.store, "gpos_of", None)
        if fast is not None:
            return fast(instance[0], instance[1])
        return self.store.get(instance).gpos

    def verify_topological(self, edges: Sequence[Edge]) -> bool:
        """Check the order honors program order and every edge (for tests)."""
        last_by_thread: Dict[int, int] = {}
        for gpos, record in enumerate(self.order):
            if record.gpos != gpos:
                return False
            previous = last_by_thread.get(record.tid, -1)
            if record.tindex != previous + 1:
                return False
            last_by_thread[record.tid] = record.tindex
        for from_tid, from_tindex, to_tid, to_tindex, _addr, _kind in edges:
            frm = self.store.get((from_tid, from_tindex))
            to = self.store.get((to_tid, to_tindex))
            if frm.gpos >= to.gpos:
                return False
        return True


def build_incoming(edges: Sequence[Edge], lengths: Dict[int, int],
                   source: str) -> Dict[Tuple[int, int],
                                        List[Tuple[int, int]]]:
    """Each edge's *to* instance -> its *from* instances; ``lengths``
    maps each traced tid to its trace length.  Every merge of a
    pinball's ``mem_order`` reads it through here."""
    incoming: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for index, edge in enumerate(edges):
        try:
            from_tid, from_tindex, to_tid, to_tindex, _addr, _kind = edge
        except (TypeError, ValueError):
            raise GlobalTraceError(
                "%s: malformed mem_order (edge %d is not six fields: %r)"
                % (source, index, edge)) from None
        for end, tid, tindex in (("source", from_tid, from_tindex),
                                 ("destination", to_tid, to_tindex)):
            length = lengths.get(tid, 0) if type(tid) is int else 0
            if type(tindex) is not int or not 0 <= tindex < length:
                raise GlobalTraceError(
                    "%s: malformed mem_order (edge %d: %s (%r, %r) is not "
                    "an instruction of a traced thread)"
                    % (source, index, end, tid, tindex))
        incoming.setdefault((to_tid, to_tindex), []).append(
            (from_tid, from_tindex))
    return incoming


def cycle_error(source: str, cursor: Dict[int, int]) -> GlobalTraceError:
    return GlobalTraceError(
        "%s: malformed mem_order (the access-order edges form a cycle; "
        "remaining cursors: %r)" % (source, cursor))


def merge_traces(store: Union[TraceStore, ColumnarTraceStore],
                 edges: Sequence[Edge],
                 source: str = Pinball._source) -> GlobalTrace:
    """Topologically merge per-thread traces honoring ``edges``.

    Each edge ``(from_tid, from_tindex, to_tid, to_tindex, addr, kind)``
    constrains the *from* instance to precede the *to* instance.
    Malformed edges raise :class:`GlobalTraceError` naming ``source``,
    the pinball they were read from.
    """
    if isinstance(store, ColumnarTraceStore):
        return _merge_columnar(store, edges, source)
    tids = store.threads()
    lengths: Dict[int, int] = {tid: store.thread_length(tid) for tid in tids}
    incoming = build_incoming(edges, lengths, source)
    cursor: Dict[int, int] = {tid: 0 for tid in tids}
    total = sum(lengths.values())
    order: List[TraceRecord] = []
    current = 0
    stalled = 0
    while len(order) < total:
        tid = tids[current]
        emitted_here = 0
        while cursor[tid] < lengths[tid]:
            deps = incoming.get((tid, cursor[tid]))
            if deps is not None and any(
                    cursor[from_tid] <= from_tindex
                    for from_tid, from_tindex in deps):
                break
            record = store.by_thread[tid][cursor[tid]]
            record.gpos = len(order)
            order.append(record)
            cursor[tid] += 1
            emitted_here += 1
        if emitted_here:
            stalled = 0
        else:
            stalled += 1
            if stalled >= len(tids):
                raise cycle_error(source, cursor)
        current = (current + 1) % len(tids)
    return GlobalTrace(order, store)


def _merge_columnar(store: ColumnarTraceStore, edges: Sequence[Edge],
                    source: str) -> GlobalTrace:
    """Index-only merge: identical emission order, zero materialization."""
    tids = store.threads()
    lengths: Dict[int, int] = {tid: store.thread_length(tid) for tid in tids}
    incoming = build_incoming(edges, lengths, source)
    cursor: Dict[int, int] = {tid: 0 for tid in tids}
    total = sum(lengths.values())
    order_tids: List[int] = []
    order_tindexes: List[int] = []
    set_gpos = store.set_gpos
    current = 0
    stalled = 0
    while len(order_tids) < total:
        tid = tids[current]
        emitted_here = 0
        length = lengths[tid]
        while cursor[tid] < length:
            position = cursor[tid]
            if incoming:
                deps = incoming.get((tid, position))
                if deps is not None and any(
                        cursor[from_tid] <= from_tindex
                        for from_tid, from_tindex in deps):
                    break
            set_gpos(tid, position, len(order_tids))
            order_tids.append(tid)
            order_tindexes.append(position)
            cursor[tid] = position + 1
            emitted_here += 1
        if emitted_here:
            stalled = 0
        else:
            stalled += 1
            if stalled >= len(tids):
                raise cycle_error(source, cursor)
        current = (current + 1) % len(tids)
    return GlobalTrace(LazyOrderView(store, order_tids, order_tindexes),
                       store)
