"""High-level slicing sessions: replay a pinball once, slice many times.

This is the workflow of paper Figure 4: replay the region pinball with the
slicing pintool attached (collecting traces — the expensive part, done
once), then answer interactive slice queries, and finally turn a chosen
slice into a slice pinball via the relogger.

With ``SliceOptions(index="reexec")`` the session skips the full traced
replay entirely: a :class:`~repro.slicing.reexec.ReexecIndex` scaffold
pass (selective tracing, near-untraced speed) seeds the session, and each
query re-replays only the checkpoint-bounded windows it needs — peak
memory proportional to the slice, not the region.  Configurations the
reexec engine does not cover (exclusion pinballs, the legacy engine,
programs the selective decoder rejects) fall back to the materialized
pipeline transparently, answering with identical bytes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro import config
from repro.isa.program import Program
from repro.obs.registry import OBS
from repro.pinplay.pinball import Pinball
from repro.pinplay.relogger import relog
from repro.pinplay.replayer import replay
from repro.slicing.ddg_serde import FrozenIndex
from repro.slicing.global_trace import GlobalTrace, merge_traces
from repro.slicing.options import SliceOptions
from repro.slicing.reexec import ReexecIndex
from repro.slicing.slice import DynamicSlice
from repro.slicing.slicer import BackwardSlicer
from repro.slicing.trace import Instance, Location
from repro.slicing.tracer import TraceCollector


class FrozenSlicer:
    """:class:`BackwardSlicer`-shaped facade over a deserialized
    :class:`~repro.slicing.ddg_serde.FrozenIndex` — same ``slice`` /
    ``index_stats`` / ``ddg`` surface, but the index arrived from the
    persistent cache instead of a build pass, so there is no trace (and
    no lazy build) behind it."""

    def __init__(self, frozen: FrozenIndex) -> None:
        self.index = "ddg"
        self._ddg = frozen

    @property
    def ddg(self) -> FrozenIndex:
        return self._ddg

    def slice(self, criterion: Instance,
              locations: Optional[Sequence[Location]] = None
              ) -> DynamicSlice:
        return self._ddg.slice(criterion, locations)

    def index_stats(self) -> dict:
        ddg = self._ddg
        return {
            "slice_index": self.index,
            "ddg_build_time_sec": ddg.build_time,
            "edge_count": ddg.edge_count,
            "memo_hits": ddg.memo_hits + ddg.cache_hits,
            "memo_misses": ddg.memo_misses + ddg.cache_misses,
            "slice_cache_hits": ddg.cache_hits,
            "closure_memo_hits": ddg.memo_hits,
            "bypassed_edges": ddg.bypassed_edges,
        }


class SlicingSession:
    """Owns the traced replay of one region pinball and serves slices."""

    def __init__(self, pinball: Pinball, program: Program,
                 options: Optional[SliceOptions] = None,
                 engine: Optional[str] = None) -> None:
        self.pinball = pinball
        self.program = program
        self.options = options or SliceOptions()
        self.engine = engine
        if self.options.obs:
            OBS.enable()
        #: The materialized pipeline's state (collector + merged trace).
        #: For reexec sessions these stay None until a consumer actually
        #: needs the full trace (the :attr:`collector` / :attr:`gtrace`
        #: properties materialize on demand — the escape hatch).
        self._collector: Optional[TraceCollector] = None
        self._gtrace: Optional[GlobalTrace] = None
        self._reexec: Optional[ReexecIndex] = None
        #: A cache-loaded index (warm start) — set only by
        #: :meth:`from_frozen_index`; the criterion helpers and stats
        #: branch on it so no trace is ever materialized.
        self._frozen: Optional[FrozenIndex] = None

        reexec_wanted = (
            self.options.index == "reexec"
            and not pinball.exclusions
            and config.engine(explicit=engine) == "predecoded")
        # The phase timers live in the observability registry
        # (``slicing.trace`` / ``slicing.preprocess`` spans); a Span
        # measures whether or not the registry is enabled, so the public
        # ``trace_time``/``preprocess_time`` attributes survive unchanged.
        if reexec_wanted:
            with OBS.span("slicing.trace") as trace_span:
                try:
                    self._reexec = ReexecIndex(pinball, program,
                                               options=self.options,
                                               engine=engine)
                except ValueError:
                    self._reexec = None
            self.trace_time = trace_span.elapsed
        if self._reexec is not None:
            self.machine = self._reexec.final_machine
            self.replay_result = self._reexec.final_result
            with OBS.span("slicing.preprocess") as prep_span:
                self._reexec.prepare()
            self.preprocess_time = prep_span.elapsed
            self.slicer = self._reexec
        else:
            self.trace_time, self.preprocess_time = self._materialize()
        self.last_slice_time = 0.0
        if OBS.enabled:
            OBS.add("slicing.sessions", 1)
            OBS.add("slicing.trace_records", self.trace_record_count())
        #: Lazily built reverse indexes serving the criterion helpers
        #: (line -> latest instance, written addr -> latest writer, read
        #: positions).  One pass over the trace columns on first use —
        #: interactive sessions resolve criteria repeatedly, and the seed
        #: implementation re-scanned the whole trace per call.
        self._criterion_index: Optional[tuple] = None

    @classmethod
    def from_frozen_index(cls, pinball: Pinball, program: Program,
                          frozen: FrozenIndex,
                          options: Optional[SliceOptions] = None,
                          engine: Optional[str] = None) -> "SlicingSession":
        """Warm-start a session from a cache-loaded dependence index.

        Skips replay, tracing and the index build entirely: slice
        queries, the criterion helpers and ``make_slice_pinball`` (the
        relogger consumes only the pinball + the keep-set) all answer
        from the frozen index, byte-identical to a cold build.  The
        materialized-trace escape hatches (:attr:`collector` /
        :attr:`gtrace`) still work — touching them runs the full traced
        replay the warm start avoided.
        """
        session = cls.__new__(cls)
        session.pinball = pinball
        session.program = program
        session.options = options or SliceOptions()
        session.engine = engine
        if session.options.obs:
            OBS.enable()
        session._collector = None
        session._gtrace = None
        session._reexec = None
        session._frozen = frozen
        session.machine = None
        session.replay_result = None
        session.trace_time = 0.0
        session.preprocess_time = 0.0
        session.slicer = FrozenSlicer(frozen)
        session.last_slice_time = 0.0
        session._criterion_index = None
        if OBS.enabled:
            OBS.add("slicing.sessions", 1)
            OBS.add("slicing.warm_sessions", 1)
        return session

    # -- materialized-trace access (lazy for reexec sessions) ----------------

    @property
    def collector(self) -> TraceCollector:
        """The trace collector — for reexec sessions, accessing this runs
        the full traced replay the engine was avoiding (once)."""
        if self._collector is None:
            self._materialize()
        return self._collector

    @property
    def gtrace(self) -> GlobalTrace:
        """The merged global trace (materialized on demand, see
        :attr:`collector`)."""
        if self._gtrace is None:
            self._materialize()
        return self._gtrace

    def _materialize(self) -> Tuple[float, float]:
        """The traced replay, then the merge into the global trace; a
        session that answers from them also builds its
        :class:`BackwardSlicer` in the merge phase.  Returns the two
        phases' times."""
        with OBS.span("slicing.trace") as trace_span:
            collector = TraceCollector(self.program, self.options)
            self.machine, self.replay_result = replay(
                self.pinball, self.program, tools=[collector],
                verify=False, engine=self.engine)
        with OBS.span("slicing.preprocess") as prep_span:
            self._gtrace = merge_traces(collector.store,
                                        self.pinball.mem_order,
                                        source=self.pinball._source)
            if self._reexec is None and self._frozen is None:
                self.slicer = BackwardSlicer(
                    self._gtrace,
                    verified_restores=collector.save_restore.verified,
                    options=self.options)
        self._collector = collector
        return trace_span.elapsed, prep_span.elapsed

    def trace_record_count(self) -> int:
        """Retired-instruction count of the region — what a full trace
        would hold.  Reexec sessions answer from the scaffold's pc
        streams without materializing any trace."""
        if self._frozen is not None:
            return self._frozen.node_count
        if self._reexec is not None:
            return self._reexec.trace_records
        return self.collector.store.total_records()

    # -- criterion resolution ----------------------------------------------------

    def failure_criterion(self) -> Instance:
        """The instance of the recorded failure symptom (assert)."""
        failure = self.pinball.meta.get("failure")
        if not failure:
            raise ValueError("pinball records no failure")
        return (int(failure["tid"]), int(failure["tindex"]))

    def _indexes(self) -> tuple:
        """(line_best, line_tid_best, write_best, write_tid_best, reads)
        reverse indexes, built once per session directly from the trace
        columns (or records, for the row store)."""
        if self._criterion_index is not None:
            return self._criterion_index
        line_best: Dict[int, Tuple[int, Instance]] = {}
        line_tid_best: Dict[Tuple[int, int], Tuple[int, Instance]] = {}
        write_best: Dict[int, Tuple[int, Instance]] = {}
        write_tid_best: Dict[Tuple[int, int], Tuple[int, Instance]] = {}
        reads: List[Tuple[int, Instance]] = []
        store = self.collector.store
        columns = getattr(store, "_columns", None)
        if columns is not None:
            rows_of = ((tid, cols.statics, cols.dyns, cols.gpos)
                       for tid, cols in columns.items())
            for tid, statics, dyns, gpos_col in rows_of:
                for tindex in range(len(statics)):
                    gpos = gpos_col[tindex]
                    inst = (tid, tindex)
                    line = statics[tindex][1]
                    mdefs, muses = dyns[tindex][0], dyns[tindex][1]
                    self._index_row(line_best, line_tid_best, write_best,
                                    write_tid_best, reads, tid, inst, gpos,
                                    line, mdefs, muses)
        else:
            for tid, records in store.by_thread.items():
                for record in records:
                    self._index_row(line_best, line_tid_best, write_best,
                                    write_tid_best, reads, tid,
                                    record.instance, record.gpos,
                                    record.line, record.mdefs, record.muses)
        reads.sort()
        self._criterion_index = (line_best, line_tid_best, write_best,
                                 write_tid_best, reads)
        return self._criterion_index

    @staticmethod
    def _index_row(line_best, line_tid_best, write_best, write_tid_best,
                   reads, tid, inst, gpos, line, mdefs, muses) -> None:
        if line is not None:
            current = line_best.get(line)
            if current is None or gpos > current[0]:
                line_best[line] = (gpos, inst)
            key = (line, tid)
            current = line_tid_best.get(key)
            if current is None or gpos > current[0]:
                line_tid_best[key] = (gpos, inst)
        for addr in mdefs:
            current = write_best.get(addr)
            if current is None or gpos > current[0]:
                write_best[addr] = (gpos, inst)
            key = (addr, tid)
            current = write_tid_best.get(key)
            if current is None or gpos > current[0]:
                write_tid_best[key] = (gpos, inst)
        if muses:
            reads.append((gpos, inst))

    def last_instance_at_line(self, line: int,
                              tid: Optional[int] = None) -> Instance:
        """The latest executed instance attributed to source ``line``."""
        if self._frozen is not None:
            return self._frozen.last_instance_at_line(line, tid)
        if self._reexec is not None:
            return self._reexec.last_instance_at_line(line, tid)
        line_best, line_tid_best, _writes, _tid_writes, _reads = \
            self._indexes()
        best = (line_best.get(line) if tid is None
                else line_tid_best.get((line, tid)))
        if best is None:
            raise ValueError("line %d was never executed%s" % (
                line, "" if tid is None else " by tid %d" % tid))
        return best[1]

    def last_write_to_global(self, name: str,
                             tid: Optional[int] = None) -> Instance:
        """The latest instance that wrote global variable ``name``."""
        if self._frozen is not None:
            var = self.program.globals.get(name)
            if var is None:
                raise ValueError("unknown global %r" % name)
            best = self._frozen.last_write_to_addr_range(
                var.addr, var.addr + max(1, var.size), tid)
            if best is None:
                raise ValueError("global %r was never written" % name)
            return best
        if self._reexec is not None:
            return self._reexec.last_write_to_global(name, tid)
        var = self.program.globals.get(name)
        if var is None:
            raise ValueError("unknown global %r" % name)
        _lines, _tid_lines, write_best, write_tid_best, _reads = \
            self._indexes()
        best: Optional[Tuple[int, Instance]] = None
        for addr in range(var.addr, var.addr + max(1, var.size)):
            candidate = (write_best.get(addr) if tid is None
                         else write_tid_best.get((addr, tid)))
            if candidate is not None and (best is None
                                          or candidate[0] > best[0]):
                best = candidate
        if best is None:
            raise ValueError("global %r was never written" % name)
        return best[1]

    def global_location(self, name: str) -> Location:
        var = self.program.globals.get(name)
        if var is None:
            raise ValueError("unknown global %r" % name)
        return ("m", var.addr)

    def last_reads(self, count: int) -> List[Instance]:
        """The last ``count`` memory-reading instances across all threads.

        This mirrors the paper's slicing-overhead experiment, which slices
        "the last 10 read instructions (spread across five threads)".
        A negative ``count`` is a :class:`ValueError` under every engine.
        """
        if count < 0:
            raise ValueError("last_reads count must be >= 0, got %d" % count)
        if self._frozen is not None:
            return self._frozen.last_reads(count)
        if self._reexec is not None:
            return self._reexec.last_reads(count)
        reads = self._indexes()[4]
        return [inst for _gpos, inst in reads[:-count - 1:-1]]

    # -- slicing --------------------------------------------------------------------

    def slice_for(self, criterion: Instance,
                  locations: Optional[Sequence[Location]] = None
                  ) -> DynamicSlice:
        with OBS.span("slicing.query") as span:
            result = self.slicer.slice(criterion, locations)
        self.last_slice_time = span.elapsed
        if OBS.enabled:
            OBS.add("slicing.queries", 1)
            OBS.observe("slicing.slice_nodes", len(result))
        return result

    def slice_for_global(self, global_name: str,
                         instance: Optional[Instance] = None,
                         tid: Optional[int] = None) -> DynamicSlice:
        """Slice for the value of global ``global_name`` as of
        ``instance`` (default: the last write to it, optionally
        restricted to thread ``tid``).

        Uses the unified entry-point vocabulary (``global_name``,
        ``instance=``, ``tid=``) shared with
        :meth:`~repro.debugger.session.DrDebugSession.slice_for_variable`
        and the serve ``slice`` verb.
        """
        if instance is None:
            instance = self.last_write_to_global(global_name, tid)
        return self.slice_for(instance, [self.global_location(global_name)])

    # -- slice pinball -----------------------------------------------------------------

    def make_slice_pinball(self, dslice: DynamicSlice) -> Pinball:
        """Run the relogger to produce the slice pinball for ``dslice``."""
        return relog(self.pinball, self.program, dslice.to_keep(),
                     engine=self.engine)

    # -- reporting ----------------------------------------------------------------------

    def stats(self) -> dict:
        """Session statistics.

        Timing values come from the observability spans (``trace_time`` /
        ``preprocess_time`` are their ``elapsed`` readings); the
        index-amortization counters come from the slicer.  With the
        registry enabled (``--obs`` / ``REPRO_OBS=1``), the same numbers
        — plus pipeline-wide counters from every other layer — are
        available via ``repro.obs.OBS.snapshot()``.
        """
        if self._frozen is not None:
            out = {
                "obs_enabled": OBS.enabled,
                "warm_start": True,
                "trace_records": self._frozen.node_count,
                "trace_time_sec": self.trace_time,
                "preprocess_time_sec": self.preprocess_time,
                "mem_order_edges": len(self.pinball.mem_order),
                "threads": len(self._frozen.columns.positions),
            }
            out.update(self.slicer.index_stats())
            return out
        if self._reexec is not None:
            out = {
                "obs_enabled": OBS.enabled,
                "trace_records": self.trace_record_count(),
                "trace_time_sec": self.trace_time,
                "preprocess_time_sec": self.preprocess_time,
                "mem_order_edges": len(self.pinball.mem_order),
                "cfg_refinements": self._reexec.registry.refinements,
                "verified_save_restore_pairs":
                    self._reexec.save_restore.pair_count,
                "threads": self._reexec.threads(),
            }
            out.update(self._reexec.index_stats())
            return out
        out = {
            "obs_enabled": OBS.enabled,
            "trace_records": self.collector.store.total_records(),
            "trace_time_sec": self.trace_time,
            "preprocess_time_sec": self.preprocess_time,
            "mem_order_edges": len(self.pinball.mem_order),
            "cfg_refinements": self.collector.registry.refinements,
            "verified_save_restore_pairs":
                self.collector.save_restore.pair_count,
            "threads": self.collector.store.threads(),
        }
        # Amortization counters for the build-once DDG engine (zeros for
        # the scan engines, and until the first DDG query builds it).
        out.update(self.slicer.index_stats())
        return out
