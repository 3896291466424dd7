"""Limited Preprocessing (LP) over the global trace (Zhang et al., ICSE'03).

The global trace is divided into fixed-size blocks; each block's summary is
the set of locations the block defines.  The backward traversal consults
the summary before descending into a block and skips blocks that define
none of the currently wanted locations — for criterion-local slices over
long traces most blocks are skipped, which is what makes interactive
slicing practical (the paper adopted this algorithm for the same reason).
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.slicing.trace import Location, TraceRecord


class TraceBlock:
    """Summary of global-trace positions ``[start, end)``."""

    __slots__ = ("start", "end", "defs")

    def __init__(self, start: int, end: int, defs: Set[Location]) -> None:
        self.start = start
        self.end = end
        self.defs = defs

    def may_define(self, wanted) -> bool:
        """``wanted`` is any sized container of locations supporting ``in``
        (a set, or the slicer's wanted dict keyed by location)."""
        if len(wanted) < len(self.defs):
            return any(loc in self.defs for loc in wanted)
        return any(loc in wanted for loc in self.defs)

    def __repr__(self) -> str:
        return "<TraceBlock [%d,%d) %d defs>" % (
            self.start, self.end, len(self.defs))


def build_blocks(order: Sequence[TraceRecord],
                 block_size: int) -> List[TraceBlock]:
    """Partition the global trace into blocks with def-set summaries.

    For a lazy columnar order view the summaries are computed straight
    from the store's interned def columns — no record materialization.
    """
    return build_blocks_with_defs(order, block_size)[0]


def build_blocks_with_defs(
        order: Sequence[TraceRecord], block_size: int,
        force_rows: bool = False
) -> Tuple[List[TraceBlock], Optional[List[tuple]]]:
    """Like :func:`build_blocks`, also returning the per-position interned
    def-location tuples for columnar orders (``None`` for record lists).

    The slicer's backward scan uses the flat def-locs list to test each
    scanned position against the wanted set without materializing the
    record — records are only built for positions that actually match.

    With ``force_rows`` a lazy columnar order is summarized through its
    materialized record views instead — the ``index="rows"`` baseline,
    which exercises the seed record-at-a-time scan on any store layout.
    """
    if not force_rows and getattr(order, "instance_at", None) is not None:
        return _build_blocks_columnar(order, block_size)
    blocks: List[TraceBlock] = []
    for start in range(0, len(order), block_size):
        end = min(start + block_size, len(order))
        defs: Set[Location] = set()
        for position in range(start, end):
            record = order[position]
            for location in record.def_locations():
                defs.add(location)
        blocks.append(TraceBlock(start, end, defs))
    return blocks, None


def _build_blocks_columnar(order, block_size: int):
    store = order._store
    def_locations_at = store.def_locations_at
    tids = order._tids
    tindexes = order._tindexes
    total = len(tids)
    def_locs: List[tuple] = [
        def_locations_at(tids[position], tindexes[position])
        for position in range(total)]
    blocks: List[TraceBlock] = []
    for start in range(0, total, block_size):
        end = min(start + block_size, total)
        defs: Set[Location] = set()
        for position in range(start, end):
            defs.update(def_locs[position])
        blocks.append(TraceBlock(start, end, defs))
    return blocks, def_locs
