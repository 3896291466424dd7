"""Resident slicing sessions with a bounded LRU of built indexes.

Opening a recording is the expensive part of every query: a traced
replay (trace collection), the global-trace merge, and — under the
default engine — the one-shot CSR dependence-index build.  The cyclic
workflow then issues *many* queries against that state (paper Figure 2),
so the :class:`SessionManager` keeps opened
:class:`~repro.slicing.api.SlicingSession` objects resident behind an
LRU bounded by **entry count** and **approximate bytes**.  A hot
recording answers a slice query straight from the memoized index; a cold
one pays one build and then stays hot until evicted.

A second, *persistent* cache layer sits underneath the LRU: built DDG
indexes are serialized into the store keyed by ``(pinball sha, options
fingerprint)`` (:mod:`repro.slicing.ddg_serde`), so a session that is
cold *in this process* — a fresh worker, a different node sharing the
store — warm-starts in O(load) instead of O(trace + build).  A corrupt
cached blob is never an error: it is deleted and the session falls back
to a full build (cache-miss semantics, counted separately).

Also home to the canonical wire renderings (:func:`slice_payload`,
:func:`race_payload`, :func:`replay_payload`): the worker pool and the
in-process differential tests share these functions, which is what makes
"served result == direct result" a byte-for-byte comparison.  A served
slice travels as :func:`slice_payload_bytes`, the encoded
:func:`slice_payload` rendered once in the worker; the node splices those
bytes into its response line.
"""

from __future__ import annotations

import dataclasses
import json
from collections import OrderedDict
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, Optional, Tuple

from repro import config
from repro.lang import compile_source
from repro.obs.registry import OBS
from repro.pinplay.pinball import PinballFormatError
from repro.slicing.api import SlicingSession
from repro.slicing.ddg_serde import (deserialize_index, options_fingerprint,
                                     serialize_index)
from repro.slicing.options import SliceOptions
from repro.slicing.slice import DynamicSlice

#: Rough per-trace-record resident cost (columns + index + memos), used
#: for the byte bound.  Deliberately coarse: the bound exists to keep a
#: runaway worker from swallowing the machine, not to be an allocator.
BYTES_PER_TRACE_RECORD = 400

DEFAULT_MAX_ENTRIES = 8
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

SessionKey = Tuple[str, str, str]


class SessionManager:
    """LRU cache of opened slicing sessions over a pinball store."""

    def __init__(self, store, max_entries: int = DEFAULT_MAX_ENTRIES,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 index_cache: Optional[bool] = None) -> None:
        self.store = store
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.slice_options = SliceOptions()
        self.index_cache = config.index_cache(explicit=index_cache)
        self._sessions: "OrderedDict[SessionKey, Tuple[SlicingSession, int]]" \
            = OrderedDict()
        self._programs: Dict[str, object] = {}
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.index_cache_hits = 0
        self.index_cache_misses = 0
        self.index_cache_writes = 0
        self.index_cache_corrupt = 0

    # -- program cache -----------------------------------------------------

    def program_for(self, source_sha: str, program_name: str):
        """Compile (and cache) the stored source blob ``source_sha``."""
        program = self._programs.get(source_sha)
        if program is None:
            source = self.store.get_source(source_sha)
            program = compile_source(source, name=program_name)
            self._programs[source_sha] = program
        return program

    # -- session LRU -------------------------------------------------------

    def open(self, pinball_sha: str, source_sha: str,
             program_name: str = "program",
             index: Optional[str] = None) -> SlicingSession:
        """The resident session for a stored recording (build on miss).

        ``index`` selects the slice-query engine and is a cache-key
        component (sessions built under different engines memoize
        differently); the default comes from the manager's
        :class:`SliceOptions`.
        """
        options = self.slice_options
        if index is not None and index != options.index:
            options = dataclasses.replace(options, index=index)
        key: SessionKey = (pinball_sha, source_sha, options.index)
        cached = self._sessions.get(key)
        if cached is not None:
            self._sessions.move_to_end(key)
            self.hits += 1
            if OBS.enabled:
                OBS.inc("serve.cache/hit")
            return cached[0]
        self.misses += 1
        if OBS.enabled:
            OBS.inc("serve.cache/miss")
        with OBS.span("serve/session_build"):
            program = self.program_for(source_sha, program_name)
            pinball = self.store.get_pinball(pinball_sha)
            session = None
            cacheable = self.index_cache and options.index == "ddg"
            fingerprint = options_fingerprint(options) if cacheable else None
            if cacheable:
                session = self._open_warm(pinball_sha, fingerprint,
                                          pinball, program, options)
            if session is None:
                session = SlicingSession(pinball, program, options)
                if options.index == "ddg":
                    # Pre-build the dependence index so the first query
                    # is already hot — the whole point of keeping it
                    # resident.
                    session.slicer.ddg
                    if cacheable:
                        self._store_index(pinball_sha, fingerprint,
                                          session.slicer.ddg)
        cost = self._approx_bytes(session)
        if self.max_entries > 0:
            self._sessions[key] = (session, cost)
            self._bytes += cost
            self._evict()
        return session

    def _open_warm(self, pinball_sha: str, fingerprint: str, pinball,
                   program, options) -> Optional[SlicingSession]:
        """A warm session from the persistent index cache, or None.

        Miss and corruption both fall through to a full build — a
        cached index can speed a session up but never change (or fail)
        an answer.  Corrupt blobs are additionally deleted so the
        rebuild repopulates the slot.
        """
        try:
            blob = self.store.get_index(pinball_sha, fingerprint)
        except KeyError:
            self.index_cache_misses += 1
            if OBS.enabled:
                OBS.inc("index_cache.misses")
            return None
        try:
            frozen = deserialize_index(
                blob, options=options,
                source=self.store.index_path(pinball_sha, fingerprint),
                fingerprint=fingerprint)
        except PinballFormatError:
            self.index_cache_corrupt += 1
            if OBS.enabled:
                OBS.inc("index_cache.corrupt")
            self.store.delete_index(pinball_sha, fingerprint)
            return None
        self.index_cache_hits += 1
        if OBS.enabled:
            OBS.inc("index_cache.hits")
        return SlicingSession.from_frozen_index(pinball, program, frozen,
                                                options=options)

    def _store_index(self, pinball_sha: str, fingerprint: str, ddg) -> None:
        """Persist a freshly built index (best-effort: a full store or
        read-only filesystem must not fail the query that built it)."""
        try:
            self.store.put_index(pinball_sha, fingerprint,
                                 serialize_index(ddg, fingerprint))
        except OSError:
            return
        self.index_cache_writes += 1
        if OBS.enabled:
            OBS.inc("index_cache.writes")

    @staticmethod
    def _approx_bytes(session: SlicingSession) -> int:
        # trace_record_count() answers without materializing the trace:
        # a reexec session holds scaffold pc streams instead of full
        # columns, so its resident charge is a fraction of a materialized
        # session's and the byte-bounded LRU keeps more sessions hot.
        records = session.trace_record_count()
        edges = session.slicer.index_stats().get("edge_count", 0)
        # Reexec sessions hold scaffold pc streams, warm-started sessions
        # hold only the frozen index — both charge a fraction of a fully
        # materialized session's columns.
        per_record = (BYTES_PER_TRACE_RECORD // 20
                      if (session._reexec is not None
                          or session._frozen is not None)
                      else BYTES_PER_TRACE_RECORD)
        return (records * per_record + edges * 24
                + session.pinball.size_bytes(compress=False))

    def _evict(self) -> None:
        while self._sessions and (
                len(self._sessions) > self.max_entries
                or self._bytes > self.max_bytes):
            _key, (_session, cost) = self._sessions.popitem(last=False)
            self._bytes -= cost
            self.evictions += 1
            if OBS.enabled:
                OBS.inc("serve.cache/evictions")

    @property
    def cached_bytes(self) -> int:
        """Approximate bytes held by resident sessions (the LRU charge)."""
        return self._bytes

    def invalidate(self, pinball_sha: Optional[str] = None) -> int:
        """Drop cached sessions (all, or those of one recording)."""
        if pinball_sha is None:
            dropped = len(self._sessions)
            self._sessions.clear()
            self._bytes = 0
            return dropped
        doomed = [key for key in self._sessions if key[0] == pinball_sha]
        for key in doomed:
            _session, cost = self._sessions.pop(key)
            self._bytes -= cost
        return len(doomed)

    def stats(self) -> dict:
        return {
            "entries": len(self._sessions),
            "max_entries": self.max_entries,
            "approx_bytes": self._bytes,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "programs_cached": len(self._programs),
            "index_cache": {
                "enabled": self.index_cache,
                "hits": self.index_cache_hits,
                "misses": self.index_cache_misses,
                "writes": self.index_cache_writes,
                "corrupt": self.index_cache_corrupt,
            },
        }


# -- criterion resolution + canonical wire payloads ---------------------------

def resolve_criterion(session: SlicingSession, params: dict):
    """Map RPC slice params onto a concrete (tid, tindex) criterion.

    Accepted forms (first match wins), in the unified entry-point
    vocabulary (``instance=``, ``global_name=``, ``line=``, ``tid=``;
    the pre-unification field names ``criterion`` and ``var`` remain
    accepted aliases): an explicit ``instance`` pair, a global
    ``global_name`` (last write), a source ``line`` (last execution,
    optionally per-``tid``), ``last_read=true`` (the recording's final
    memory-reading instance — defined for *every* recording, which is
    what the load generator slices on) — defaulting to the recorded
    failure.
    """
    instance = params.get("instance", params.get("criterion"))
    if instance is not None:
        tid, tindex = instance
        return (int(tid), int(tindex))
    global_name = params.get("global_name") or params.get("var")
    if global_name:
        return session.last_write_to_global(global_name,
                                            tid=params.get("tid"))
    if params.get("line") is not None:
        return session.last_instance_at_line(int(params["line"]),
                                             tid=params.get("tid"))
    if params.get("last_read"):
        reads = session.last_reads(1)
        if not reads:
            raise ValueError("the recording performed no memory reads")
        return reads[0]
    return session.failure_criterion()


def slice_locations(session: SlicingSession, params: dict):
    global_name = params.get("global_name") or params.get("var")
    if global_name:
        return [session.global_location(global_name)]
    return None


def _statement_rows(statements) -> list:
    return sorted(([func, line] for func, line in statements),
                  key=lambda fl: (fl[0] or "", fl[1] or 0))


def slice_payload(session: SlicingSession, dslice: DynamicSlice) -> dict:
    """Deterministic JSON rendering of a computed slice.

    Sorted nodes/edges and explicit unresolved count: two independently
    computed equal slices render to identical JSON bytes, which is the
    contract the differential suite checks served results against.

    This is the reference rendering: the served ``slice`` verb answers
    with :func:`slice_payload_bytes`, and the differentials and
    perfbench's served check compare those bytes against this dict,
    encoded.
    """
    nodes = sorted(dslice.node_rows())
    edges = sorted(dslice.edge_rows())
    return {
        "criterion": list(dslice.criterion),
        "node_count": len(nodes),
        "thread_count": len(dslice.threads()),
        "nodes": nodes,
        "edges": edges,
        "unresolved_locations": dslice.stats.get("unresolved_locations", 0),
        "source_statements": _statement_rows(dslice.source_statements()),
    }


#: Compact, sorted-key JSON: how the wire encodes a result.
_encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def slice_payload_bytes(dslice: DynamicSlice) -> bytes:
    """:func:`slice_payload` as the wire encodes it, rendered once.

    For a column-backed slice the JSON text is written in one pass over
    the slice's columns: nodes sorted by (tid, tindex), edges by
    (consumer, producer, kind, location) with the nodes' ranks standing
    for the instances.  Within one render, each pc's node text and each
    location's edge text is built once, with json's own encoders.  No
    row list, :class:`SliceNode` or edge tuple is built.  An explicit
    slice encodes its payload.
    """
    members = dslice._members
    if members is None:
        return _encode(slice_payload(None, dslice)).encode("utf-8")
    cols = dslice._columns
    tids = cols.tids
    tindexes = cols.tindexes
    pcs = cols.pcs
    statements = cols.statements
    rank: Dict[int, int] = {}
    insts = []                   # "[tid,tindex]" per node, in node order
    nodes = []
    tails: Dict[int, str] = {}   # pc -> ",pc,line,func]"
    threads = 0
    last_tid = None
    for tid, tindex, g in sorted([(tids[g], tindexes[g], g)
                                  for g in members]):
        if tid != last_tid:
            threads += 1
            last_tid = tid
        rank[g] = len(insts)
        inst = f"[{tid},{tindex}"
        insts.append(inst + "]")
        pc = pcs[g]
        tail = tails.get(pc)
        if tail is None:
            func, line = statements[pc]
            tail = tails[pc] = ",%d,%s,%s]" % (
                pc, "null" if line is None else "%d" % line,
                "null" if func is None else _quote(func))
        nodes.append(inst + tail)
    # A control edge sorts with an empty location, so no None is ever
    # compared with a location tuple.
    edges = [(rank[g], rank[p], "control", ()) if loc is None
             else (rank[g], rank[p], "data", loc)
             for g, p, loc in dslice._edge_positions()]
    edges.sort()
    ends: Dict[tuple, str] = {}  # location -> ',kind,location]'
    rendered = []
    for c, p, kind, loc in edges:
        end = ends.get(loc)
        if end is None:
            end = ends[loc] = ',"%s",%s]' % (
                kind, _encode(loc) if loc else "null")
        rendered.append(f"[{insts[c]},{insts[p]}{end}")
    return ('{"criterion":%s,"edges":[%s],"node_count":%d,"nodes":[%s],'
            '"source_statements":%s,"thread_count":%d,'
            '"unresolved_locations":%d}' % (
                _encode(list(dslice.criterion)), ",".join(rendered),
                len(nodes), ",".join(nodes),
                _encode(_statement_rows({statements[pc] for pc in tails})),
                threads, dslice.stats.get("unresolved_locations", 0),
            )).encode("utf-8")


def race_payload(races, program) -> dict:
    """Deterministic JSON rendering of a race-detection result.

    Thin wrapper over the unified report schema
    (:func:`repro.analysis.report.races_report_payload`).
    """
    from repro.analysis.report import races_report_payload
    return races_report_payload(races, program)


def replay_payload(machine, result, pinball) -> dict:
    return {
        "steps": pinball.total_steps,
        "instructions": pinball.total_instructions,
        "reason": result.reason,
        "output": list(machine.output),
        "failure": result.failure,
        "exit_code": machine.exit_code or 0,
    }
