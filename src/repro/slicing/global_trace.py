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

:func:`merge_order` is the one merge: it runs on thread lengths and edges
alone, for the trace stores and for the re-execution index's pc streams.
A :class:`~repro.slicing.trace.ColumnarTraceStore` adopts its position
columns — no :class:`~repro.slicing.trace.TraceRecord` is materialized —
and its ``GlobalTrace.order`` is a lazy sequence view that materializes
(and caches, via the store) only the records a consumer actually touches.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple, Union

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


def merge_order(lengths: Dict[int, int], edges: Sequence[Edge],
                source: str, gather: Optional[Dict[int, array]] = None
                ) -> Tuple[array, array, Dict[int, array], Optional[array]]:
    """The merged order of per-thread traces of ``lengths`` (tid -> trace
    length) honoring ``edges``: its tid and tindex columns, each
    thread's position column (tindex -> gpos), and — with ``gather``, a
    per-thread column such as a pc stream — that column laid out in
    merged order (else None).

    Each edge ``(from_tid, from_tindex, to_tid, to_tindex, addr, kind)``
    constrains the *from* instance to precede the *to* instance.
    Threads are visited round-robin in tid order; each visit emits the
    thread's longest run whose every instruction has its incoming edges
    satisfied, so only the instructions that are an edge's *to* end are
    looked at one by one.  Malformed edges raise
    :class:`GlobalTraceError` naming ``source``, the pinball they were
    read from.
    """
    tids = sorted(lengths)
    incoming = build_incoming(edges, lengths, source)
    #: Per thread, the tindexes that carry incoming edges, last first.
    gated: Dict[int, List[int]] = {tid: [] for tid in tids}
    for tid, tindex in incoming:
        gated[tid].append(tindex)
    for gates in gated.values():
        gates.sort(reverse=True)
    cursor: Dict[int, int] = {tid: 0 for tid in tids}
    total = sum(lengths.values())
    # 32-bit columns: positions and tindexes are bounded by the region's
    # step count.
    order_tids = array("i")
    order_tindexes = array("i")
    positions = {tid: array("i", bytes(4 * lengths[tid])) for tid in tids}
    gathered = (None if gather is None
                else array(gather[tids[0]].typecode if tids else "q"))
    emitted = 0
    current = 0
    stalled = 0
    while emitted < total:
        tid = tids[current]
        start = cursor[tid]
        end = lengths[tid]
        gates = gated[tid]
        while gates:
            gate = gates[-1]
            # Rows before the gate run in this visit, so the thread's own
            # cursor stands at the gate when its edges are checked.
            if any((gate if from_tid == tid else cursor[from_tid])
                   <= from_tindex
                   for from_tid, from_tindex in incoming[(tid, gate)]):
                end = gate
                break
            gates.pop()
        if end > start:
            count = end - start
            order_tids.extend(array("i", (tid,)) * count)
            order_tindexes.extend(range(start, end))
            positions[tid][start:end] = array(
                "i", range(emitted, emitted + count))
            if gathered is not None:
                gathered.extend(gather[tid][start:end])
            cursor[tid] = end
            emitted += count
            stalled = 0
        else:
            stalled += 1
            if stalled >= len(tids):
                raise GlobalTraceError(
                    "%s: malformed mem_order (the access-order edges form "
                    "a cycle; remaining cursors: %r)" % (source, cursor))
        current = (current + 1) % len(tids)
    return order_tids, order_tindexes, positions, gathered


def merge_traces(store: Union[TraceStore, ColumnarTraceStore],
                 edges: Sequence[Edge],
                 source: str = Pinball._source) -> GlobalTrace:
    """Merge ``store``'s per-thread traces (:func:`merge_order`) and fill
    in every row's global position."""
    lengths = {tid: store.thread_length(tid) for tid in store.threads()}
    tids, tindexes, positions, _ = merge_order(lengths, edges, source)
    if isinstance(store, ColumnarTraceStore):
        store.adopt_positions(positions)
        return GlobalTrace(LazyOrderView(store, tids, tindexes), store)
    for tid, records in store.by_thread.items():
        for record, gpos in zip(records, positions[tid]):
            record.gpos = gpos
    by_thread = store.by_thread
    return GlobalTrace([by_thread[tid][tindex]
                        for tid, tindex in zip(tids, tindexes)], store)
