"""Persistent serialization of the build-once DDG index (fleet warm starts).

The CSR dependence index (:class:`~repro.slicing.ddg.DependenceIndex`)
is the expensive derived artifact of a slicing session: O(trace) to
build, then cheap to query.  In a multi-node debug service every node
that opens the same recording would otherwise pay that build again —
so this module flattens a built index into one self-describing blob and
re-opens it as a :class:`FrozenIndex` in O(load), no replay, no trace,
no build.

The design follows from what the query path actually touches:

* :meth:`DependenceIndex.slice` reads only the index's
  :class:`~repro.slicing.slice.SliceColumns` (the flat CSR columns, the
  interned location table, per-gpos tid/tindex/pc arrays, a per-pc
  ``(func, line)`` table), the sparse ``_unresolved`` map and — for
  node rendering — the per-gpos written-value maps.  All of that
  serializes almost for free: the big columns are
  ``array('q')``/``bytearray`` already.
* The criterion helpers (``last_reads``, last-write-to-address,
  last-instance-at-line) need one ascending read-position column plus
  the per-location definition-position lists, which the index also
  already owns.

So a frozen index answers **every serve verb that doesn't need the raw
trace** (slice, last_reads, build) byte-identically to a fresh build,
while ``make_slice_pinball`` still works because the relogger consumes
only the pinball + the slice's keep-set.

**Container format** (``RIX1``)::

    magic "RIX1" | version u16 | header_len u32 | header JSON | sections

The header carries the options fingerprint, scalar metadata and a
section table ``[name, compressed_len, crc32, raw_len]``; each section
is an independently zlib-compressed, CRC-guarded byte run.  Any
corruption — truncation, bit flips, version skew — surfaces as
:class:`~repro.pinplay.pinball.PinballFormatError` naming the source,
mirroring the pinball container's diagnostics contract.

**Cache keying.**  :func:`options_fingerprint` hashes exactly the
:class:`~repro.slicing.options.SliceOptions` fields that change the
*built graph* (refinement, pruning, MaxSave, stack-pointer tracking,
recorded values).  Engine-selection and build-strategy fields
(``index``, ``columnar``, ``block_size``, cache sizes, ``obs``) are
deliberately excluded: they never change the built graph, so every
configuration that would produce the same graph shares one cache
entry.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from array import array
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.obs.registry import OBS
from repro.pinplay.pinball import PinballFormatError
from repro.slicing.ddg import DependenceIndex
from repro.slicing.options import SliceOptions
from repro.slicing.slice import SliceColumns, thread_positions
from repro.slicing.trace import Instance

MAGIC = b"RIX1"
FORMAT_VERSION = 1

_HEAD = struct.Struct("<HI")     # version, header length

#: SliceOptions fields that determine the built dependence graph.  Two
#: options values agreeing on these produce byte-identical CSR columns,
#: so they share one cache entry (see module docstring).
_SEMANTIC_FIELDS = (
    "refine_cfg",
    "discover_jump_tables",
    "prune_save_restore",
    "max_save",
    "track_stack_pointer",
    "record_values",
)


def options_fingerprint(options: SliceOptions) -> str:
    """Stable hex fingerprint of the graph-determining option fields."""
    payload = {"serde_version": FORMAT_VERSION}
    for name in _SEMANTIC_FIELDS:
        payload[name] = getattr(options, name)
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()[:16]


def _corrupt(source: str, what: str) -> PinballFormatError:
    return PinballFormatError("%s: corrupt index blob (%s)" % (source, what))


# -- serialization ------------------------------------------------------------

def serialize_index(index: DependenceIndex, fingerprint: str) -> bytes:
    """Flatten a built index into one self-describing ``RIX1`` blob."""
    total = index.node_count
    columns = index.columns
    addrs = columns.pcs

    # Per-gpos node detail: the index's per-gpos pc column, with line and
    # function spread from its per-pc table (functions interned in order
    # of first appearance); ``values`` maps keep their int-vs-str keys
    # through explicit pair lists.
    line_of: Dict[int, int] = {}
    fid_of: Dict[int, int] = {}
    func_ids: Dict[Optional[str], int] = {}
    func_table: List[Optional[str]] = []
    for pc in dict.fromkeys(addrs):
        func, line = columns.statements[pc]
        line_of[pc] = -1 if line is None else line
        fid = func_ids.get(func)
        if fid is None:
            fid = func_ids[func] = len(func_table)
            func_table.append(func)
        fid_of[pc] = fid
    lines = array("q", map(line_of.__getitem__, addrs))
    funcs = array("q", map(fid_of.__getitem__, addrs))
    values_col = [None if values is None
                  else [[k, v] for k, v in values.items()]
                  for values in index._values]

    dp_indptr = array("q", [0])
    dp_flat = array("q")
    for dp in index._def_positions:
        dp_flat.extend(dp)
        dp_indptr.append(len(dp_flat))

    # ``values`` is the one O(nodes) JSON column; it lives in its own
    # section so a warm open can defer its parse to first node render
    # (the query-path tables below stay eager — they are tiny).
    tables = {
        "locs": [list(loc) for loc in index._locs],
        "func_table": func_table,
        "unresolved": [[g, list(locids)]
                       for g, locids in sorted(index._unresolved.items())],
        "redirect": [[g, s] for g, s in sorted(index._redirect.items())],
    }

    sections = [
        ("indptr", index._indptr.tobytes()),
        ("preds", index._preds.tobytes()),
        ("kinds", bytes(index._kinds)),
        ("elocs", index._elocs.tobytes()),
        ("tids", columns.tids.tobytes()),
        ("tindexes", columns.tindexes.tobytes()),
        ("addrs", addrs.tobytes()),
        ("lines", lines.tobytes()),
        ("funcs", funcs.tobytes()),
        ("reads", index._reads.tobytes()),
        ("dp_indptr", dp_indptr.tobytes()),
        ("dp_flat", dp_flat.tobytes()),
        ("tables", json.dumps(tables, separators=(",", ":"))
         .encode("utf-8")),
        ("values", json.dumps(values_col, separators=(",", ":"))
         .encode("utf-8")),
    ]
    table = []
    payloads = []
    for name, raw in sections:
        blob = zlib.compress(raw, 6)
        table.append([name, len(blob), zlib.crc32(blob) & 0xFFFFFFFF,
                      len(raw)])
        payloads.append(blob)
    header = json.dumps({
        "fingerprint": fingerprint,
        "node_count": total,
        "edge_count": index.edge_count,
        "prune": bool(index._prune),
        "build_time": index.build_time,
        "sections": table,
    }, separators=(",", ":"), sort_keys=True).encode("utf-8")
    out = b"".join([MAGIC, _HEAD.pack(FORMAT_VERSION, len(header)), header]
                   + payloads)
    if OBS.enabled:
        OBS.inc("index_cache.serializations")
        OBS.add("index_cache.bytes_serialized", len(out))
    return out


# -- deserialization ----------------------------------------------------------

def deserialize_index(data: bytes, options: Optional[SliceOptions] = None,
                      source: str = "<bytes>",
                      fingerprint: Optional[str] = None) -> "FrozenIndex":
    """Re-open a serialized index blob as a :class:`FrozenIndex`.

    Every integrity failure — bad magic, version skew, truncation, CRC
    mismatch, malformed tables — raises :class:`PinballFormatError`
    naming ``source``.  With ``fingerprint`` given, a header fingerprint
    that differs (the blob was built under different slice options)
    is rejected the same way.
    """
    if len(data) < len(MAGIC) + _HEAD.size:
        raise _corrupt(source, "truncated before the header")
    if data[:len(MAGIC)] != MAGIC:
        raise _corrupt(source, "bad magic %r" % data[:len(MAGIC)])
    version, header_len = _HEAD.unpack_from(data, len(MAGIC))
    if version != FORMAT_VERSION:
        raise PinballFormatError(
            "%s: unsupported index format version %d (expected %d)"
            % (source, version, FORMAT_VERSION))
    body = len(MAGIC) + _HEAD.size
    if len(data) < body + header_len:
        raise _corrupt(source, "truncated inside the header")
    try:
        header = json.loads(data[body:body + header_len].decode("utf-8"))
        section_table = [(str(n), int(c), int(crc), int(r))
                         for n, c, crc, r in header["sections"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise _corrupt(source, "unreadable header (%s)" % exc)
    if fingerprint is not None and header.get("fingerprint") != fingerprint:
        raise PinballFormatError(
            "%s: index fingerprint mismatch (blob %r, expected %r)"
            % (source, header.get("fingerprint"), fingerprint))

    offset = body + header_len
    raw: Dict[str, bytes] = {}
    for name, comp_len, crc, raw_len in section_table:
        blob = data[offset:offset + comp_len]
        if len(blob) != comp_len:
            raise _corrupt(source, "truncated in section %r" % name)
        offset += comp_len
        if zlib.crc32(blob) & 0xFFFFFFFF != crc:
            raise _corrupt(source, "CRC mismatch in section %r" % name)
        try:
            payload = zlib.decompress(blob)
        except zlib.error as exc:
            raise _corrupt(source, "section %r: %s" % (name, exc))
        if len(payload) != raw_len:
            raise _corrupt(source, "section %r length mismatch" % name)
        raw[name] = payload
    if offset != len(data):
        raise _corrupt(source, "%d trailing bytes" % (len(data) - offset))

    def q_section(name: str) -> array:
        payload = raw.get(name)
        if payload is None:
            raise _corrupt(source, "missing section %r" % name)
        out = array("q")
        out.frombytes(payload)
        return out

    try:
        tables = json.loads(raw["tables"].decode("utf-8"))
        frozen = FrozenIndex(
            options=options or SliceOptions(),
            indptr=q_section("indptr"), preds=q_section("preds"),
            kinds=bytearray(raw["kinds"]), elocs=q_section("elocs"),
            tids=q_section("tids"), tindexes=q_section("tindexes"),
            addrs=q_section("addrs"), lines=q_section("lines"),
            funcs=q_section("funcs"), reads=q_section("reads"),
            dp_indptr=q_section("dp_indptr"), dp_flat=q_section("dp_flat"),
            locs=[tuple(loc) for loc in tables["locs"]],
            func_table=list(tables["func_table"]),
            values_json=raw["values"],
            unresolved={int(g): tuple(locids)
                        for g, locids in tables["unresolved"]},
            redirect={int(g): int(s) for g, s in tables["redirect"]},
            prune=bool(header.get("prune")),
            build_time=float(header.get("build_time", 0.0)),
            source=source)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise _corrupt(source, "malformed payload (%s)" % exc)
    if OBS.enabled:
        OBS.inc("index_cache.deserializations")
    return frozen


# -- the frozen index ---------------------------------------------------------

class _ValuesSection:
    """The blob's per-gpos written-value column, still as JSON.

    Only node rendering reads written values, and the served path renders
    slices without nodes, so each slice that builds its nodes parses the
    section itself; it holds the raw bytes and nothing mutable, so a kept
    slice may hold it too.
    """

    __slots__ = ("raw", "count", "source")

    def __init__(self, raw: bytes, count: int, source: str) -> None:
        self.raw = raw
        self.count = count
        self.source = source

    def gather(self, members) -> list:
        try:
            column = json.loads(self.raw.decode("utf-8"))
            if len(column) != self.count:
                raise ValueError("values column length mismatch")
            return [None if pairs is None else dict(pairs)
                    for pairs in map(column.__getitem__, members)]
        except (ValueError, TypeError, UnicodeDecodeError) as exc:
            raise _corrupt(self.source, "values section (%s)" % exc)


class FrozenIndex(DependenceIndex):
    """A deserialized dependence index: full query API, no trace behind it.

    Inherits the whole query path (``slice``/``_closure``/``_resolve``/
    ``_chase`` and both memo layers) from :class:`DependenceIndex`; only
    construction differs — the CSR columns arrive from the blob instead
    of a build pass.  Also answers the criterion-helper queries a warm
    serve session needs (:meth:`last_reads`,
    :meth:`last_instance_at_line`, :meth:`last_write_to_addr_range`).
    """

    def __init__(self, options: SliceOptions, indptr: array, preds: array,
                 kinds: bytearray, elocs: array, tids: array,
                 tindexes: array, addrs: array, lines: array, funcs: array,
                 reads: array, dp_indptr: array, dp_flat: array,
                 locs: List[tuple], func_table: List[Optional[str]],
                 values_json: bytes,
                 unresolved: Dict[int, tuple], redirect: Dict[int, int],
                 prune: bool, build_time: float, source: str) -> None:
        # Deliberately no super().__init__: there is no trace to build
        # from.  Every field the inherited query path reads is set here.
        self.options = options
        self.restores = {}
        self.source = source
        self.memo_hits = 0
        self.memo_misses = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.bypassed_edges = 0
        self._slice_cache = OrderedDict()
        self._closure_memo = OrderedDict()
        self.build_time = build_time

        self._indptr = indptr
        self._preds = preds
        self._kinds = kinds
        self._elocs = elocs
        self._tids = tids
        self._tindexes = tindexes
        self._locs = locs
        self._loc_ids = {loc: locid for locid, loc in enumerate(locs)}
        self._def_positions = [dp_flat[dp_indptr[i]:dp_indptr[i + 1]]
                               for i in range(len(dp_indptr) - 1)]
        self._unresolved = unresolved
        self._redirect = redirect
        self._prune = prune
        self._bypass_memo: Dict[Tuple[int, int], int] = {}

        # The slice columns' per-thread positions and per-pc statement
        # table are built on the first query (see ``columns``), so a warm
        # open costs O(sections), not O(nodes); the values section is
        # parsed only by a slice that builds its nodes.
        self._addrs_col = addrs
        self._funcs_col = funcs
        self._func_table = func_table
        self._values_section = _ValuesSection(values_json, len(tids),
                                              source)
        self._columns_built: Optional[SliceColumns] = None

        self._reads = reads
        self._lines_col = lines
        self._line_index: Optional[tuple] = None

    @property
    def columns(self) -> SliceColumns:
        built = self._columns_built
        if built is None:
            addrs = self._addrs_col
            table = self._func_table
            try:
                per_pc = dict(zip(addrs, zip(self._funcs_col,
                                             self._lines_col)))
                statements = {pc: (table[fid], None if line < 0 else line)
                              for pc, (fid, line) in per_pc.items()}
            except IndexError as exc:
                raise _corrupt(self.source, "funcs section (%s)" % exc)
            built = self._columns_built = SliceColumns(
                self._tids, self._tindexes, addrs,
                thread_positions(self._tids), statements, self._indptr,
                self._preds, self._elocs, self._locs + [None])
        return built

    def _member_values(self, order: array) -> "_ValuesSection":
        return self._values_section

    # -- criterion helpers (what a warm serve session asks) ----------------

    def instance_of(self, gpos: int) -> Instance:
        return (self._tids[gpos], self._tindexes[gpos])

    def last_reads(self, count: int) -> List[Instance]:
        return [self.instance_of(g) for g in self._reads[:-count - 1:-1]]

    def _line_maps(self) -> tuple:
        if self._line_index is None:
            line_best: Dict[int, int] = {}
            line_tid_best: Dict[Tuple[int, int], int] = {}
            lines = self._lines_col
            tids = self._tids
            for g in range(len(lines)):
                line = lines[g]
                if line < 0:
                    continue
                line_best[line] = g          # ascending gpos: last wins
                line_tid_best[(line, tids[g])] = g
            self._line_index = (line_best, line_tid_best)
        return self._line_index

    def last_instance_at_line(self, line: int,
                              tid: Optional[int] = None) -> Instance:
        line_best, line_tid_best = self._line_maps()
        best = (line_best.get(line) if tid is None
                else line_tid_best.get((line, tid)))
        if best is None:
            raise ValueError("line %d was never executed%s" % (
                line, "" if tid is None else " by tid %d" % tid))
        return self.instance_of(best)

    def last_write_to_addr_range(self, lo: int, hi: int,
                                 tid: Optional[int] = None
                                 ) -> Optional[Instance]:
        """Latest write to any address in ``[lo, hi)`` (per-tid option)."""
        best = -1
        tids = self._tids
        for addr in range(lo, hi):
            locid = self._loc_ids.get(("m", addr))
            if locid is None:
                continue
            dp = self._def_positions[locid]
            if tid is None:
                if dp:
                    best = max(best, dp[-1])
                continue
            for i in range(len(dp) - 1, -1, -1):
                if tids[dp[i]] == tid:
                    best = max(best, dp[i])
                    break
        return None if best < 0 else self.instance_of(best)

    def stats(self) -> dict:
        out = DependenceIndex.stats(self)
        out["frozen"] = True
        return out
