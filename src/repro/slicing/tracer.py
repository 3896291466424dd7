"""Trace collection during pinball replay (the slicing "pintool").

Attached to a replay, this tool builds the per-thread local traces while
recording the execution-time facts the two precision analyses need:

* CFG refinement from observed indirect-jump targets (Section 5.1), and
  each retired branch's control-dependence region end under the CFG of
  that moment.  When a run ends, the shared Xin-Zhang walk
  (:mod:`repro.slicing.control_dep`) fills in every row's controlling
  instance from these ends and the thread's frames;
* dynamic save/restore pair verification (Section 5.2), fed at candidate
  pcs and returns only.

With ``discover_jump_tables`` the tracer instead primes every CFG from the
switch jump tables before execution — the precision upper bound that real
x86 static analysis cannot reach (useful for ablations).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Optional, Tuple

from repro.analysis.registry import CfgRegistry
from repro.isa.instructions import Imm, Opcode
from repro.isa.program import Program
from repro.slicing.control_dep import ControlDepWalk, RegionEnds, pc_classes
from repro.slicing.options import SliceOptions
from repro.slicing.save_restore import SaveRestoreDetector
from repro.slicing.trace import ColumnarTraceStore, TraceRecord, TraceStore
from repro.vm.hooks import InstrEvent, Tool

_SYS_R0_DEF = ("r0",)
_NO_REGS = ()

#: Per-pc event kinds the collector reports beyond the trace row.
_ROW, _BRANCH, _IJMP, _RET, _SAVE, _RESTORE = range(6)
_KIND_OF = {Opcode.BR: _BRANCH, Opcode.BRZ: _BRANCH, Opcode.IJMP: _IJMP,
            Opcode.RET: _RET}


def prime_jump_tables(registry: CfgRegistry, program: Program) -> int:
    """Statically read switch jump tables into the CFGs; returns edge count.

    Recognizes the code generator's dispatch idiom: an ``ijmp`` whose
    target register was loaded from a table whose base came from
    ``lea rX, <table>`` within the preceding few instructions.
    """
    image = program.initial_data_image()
    table_ranges = [(d.addr, d.addr + len(d.values)) for d in
                    program.data_defs.values()]
    added = 0
    for function in program.functions.values():
        for addr in range(function.entry, function.end):
            if program.instructions[addr].op != Opcode.IJMP:
                continue
            base = None
            for back in range(addr - 1, max(function.entry, addr - 6) - 1, -1):
                instr = program.instructions[back]
                if (instr.op == Opcode.LEA
                        and isinstance(instr.operands[1], Imm)):
                    base = int(instr.operands[1].value)
                    break
            if base is None:
                continue
            for start, end in table_ranges:
                if start <= base < end:
                    cfg = registry.cfg(function.name)
                    for slot in range(start, end):
                        target = int(image.get(slot, 0))
                        if cfg.add_indirect_target(addr, target):
                            added += 1
                    break
    return added


class TraceCollector(Tool):
    """Collects per-thread traces plus precision metadata during replay.

    By default the trace goes into a :class:`ColumnarTraceStore` (the
    predecoded engine's interned hot path).  ``SliceOptions(columnar=
    False)`` selects the seed layout — one eagerly built
    :class:`TraceRecord` per instruction in a :class:`TraceStore` — which
    the perf benchmark uses as its measured baseline and the differential
    tests compare against the columnar views record-for-record.
    Controlling instances are filled in when each run ends
    (:meth:`on_finish`).
    """

    wants_instr_events = True
    retains_instr_events = False   # events are consumed synchronously

    def __init__(self, program: Program,
                 options: Optional[SliceOptions] = None) -> None:
        self.program = program
        self.options = options or SliceOptions()
        self.registry = CfgRegistry(program, refine=self.options.refine_cfg)
        if self.options.discover_jump_tables:
            prime_jump_tables(self.registry, program)
        self.region_ends = RegionEnds(self.registry)
        self.save_restore = SaveRestoreDetector(
            program, self.options.max_save
            if self.options.prune_save_restore else 0)
        self._columnar = self.options.columnar
        self.store = (ColumnarTraceStore() if self._columnar
                      else TraceStore())
        self._classes = pc_classes(program)
        kinds = bytearray(_KIND_OF.get(instr.op, _ROW)
                          for instr in program.instructions)
        for pc in self.save_restore.save_addrs:
            kinds[pc] = _SAVE
        for pc in self.save_restore.restore_addrs:
            kinds[pc] = _RESTORE
        self._kinds = bytes(kinds)
        #: tid -> the thread's control-dependence walk.
        self._walks: Dict[int, ControlDepWalk] = {}
        #: Per-pc cache of the interned static row part
        #: ``(addr, line, func, rdefs, ruses)``.  Register def/use sets
        #: are a pure function of the static instruction for every opcode
        #: except SYS, whose r0 def depends on whether the handler
        #: returned a result — SYS entries carry both variants and pick
        #: per event.  Entry: ``(static, sys_static_r0, sys_static_none)``
        #: with ``static=None`` for SYS.
        self._row_cache: Dict[int, tuple] = {}

    def on_start(self, machine) -> None:
        self._walks = {
            tid: ControlDepWalk([f.frame_id for f in thread.frames],
                                thread._next_frame_id)
            for tid, thread in machine.threads.items()}

    def on_instr(self, event: InstrEvent) -> None:
        kind = self._kinds[event.addr]
        if kind:
            self._note(kind, event)
        if self._columnar:
            self._append_columnar(event)
        else:
            self._append_record(event)

    def _note(self, kind: int, event: InstrEvent) -> None:
        tid = event.tid
        if kind == _BRANCH:
            self.region_ends.on_branch(tid, event.addr)
        elif kind == _IJMP:
            self.region_ends.on_ijmp(tid, event.addr,
                                     int(event.reg_reads[0][1]))
        elif kind == _RET:
            self.save_restore.on_ret(tid, event.frame_id)
        elif kind == _SAVE:
            if event.mem_writes:   # (stack slot, value)
                self.save_restore.on_save(tid, event.tindex, event.addr,
                                          *event.mem_writes[0], event.frame_id)
        elif event.mem_reads:
            self.save_restore.on_restore(tid, event.tindex, event.addr,
                                         *event.mem_reads[0], event.frame_id)

    def on_finish(self, machine) -> None:
        """Walk the rows this run added (:mod:`repro.slicing.control_dep`)
        and fill in their controlling instances."""
        store = self.store
        for tid in store.threads():
            walk = self._walks.get(tid)
            if walk is None:   # spawned in the region: create_thread's frame
                walk = self._walks[tid] = ControlDepWalk((0,), 1)
            start = len(walk.cd)
            if self._columnar:
                cols = store.columns_for(tid)
                cols.cd = walk.cd
                pcs = map(itemgetter(0), cols.statics[start:])
            else:
                records = store.by_thread[tid][start:]
                pcs = [record.addr for record in records]
            walk.extend(self._classes, pcs,
                        self.region_ends.by_thread.get(tid, ()),
                        machine.exclusion_frames.get(tid, ()))
            if not self._columnar:
                for record, parent in zip(records, walk.cd[start:]):
                    record.cd = (tid, parent) if parent >= 0 else None

    # -- columnar append (hot path) ----------------------------------------

    def _append_columnar(self, event) -> None:
        store = self.store
        addr = event.addr
        cached = self._row_cache.get(addr)
        if cached is None:
            instr = event.instr
            track_sp = self.options.track_stack_pointer
            ruses = store.intern(_dedupe(
                name for name, _ in event.reg_reads
                if track_sp or name != "sp"))
            if instr.op == Opcode.SYS:
                cached = (
                    None,
                    store.intern((addr, instr.line, instr.func,
                                  _SYS_R0_DEF, ruses)),
                    store.intern((addr, instr.line, instr.func,
                                  _NO_REGS, ruses)),
                )
            else:
                rdefs = store.intern(_dedupe(
                    name for name, _ in event.reg_writes
                    if track_sp or name != "sp"))
                cached = (
                    store.intern((addr, instr.line, instr.func,
                                  rdefs, ruses)),
                    None, None,
                )
            self._row_cache[addr] = cached
        static = cached[0]
        if static is None:   # SYS: r0 def present iff a result was written
            static = cached[1] if event.reg_writes else cached[2]

        mem_writes = event.mem_writes
        if not mem_writes:
            mdefs = _NO_REGS
        elif len(mem_writes) == 1:
            mdefs = store.intern((mem_writes[0][0],))
        else:
            mdefs = store.intern(_dedupe(a for a, _ in mem_writes))
        mem_reads = event.mem_reads
        if not mem_reads:
            muses = _NO_REGS
        elif len(mem_reads) == 1:
            muses = store.intern((mem_reads[0][0],))
        else:
            muses = store.intern(_dedupe(a for a, _ in mem_reads))

        values = None
        if self.options.record_values:
            values = {}
            for name, value in event.reg_writes:
                values[name] = value
            for addr_w, value in mem_writes:
                values[addr_w] = value

        store.append_row(store.columns_for(event.tid), static,
                         mdefs, muses, values)

    # -- eager record append (seed layout, benchmark baseline) -------------

    def _append_record(self, event) -> None:
        instr = event.instr
        track_sp = self.options.track_stack_pointer
        rdefs = _dedupe(name for name, _ in event.reg_writes
                        if track_sp or name != "sp")
        ruses = _dedupe(name for name, _ in event.reg_reads
                        if track_sp or name != "sp")
        mdefs = _dedupe(addr for addr, _ in event.mem_writes)
        muses = _dedupe(addr for addr, _ in event.mem_reads)

        values = None
        if self.options.record_values:
            values = {}
            for name, value in event.reg_writes:
                values[name] = value
            for addr, value in event.mem_writes:
                values[addr] = value

        self.store.append(TraceRecord(
            tid=event.tid, tindex=event.tindex, addr=event.addr,
            line=instr.line, func=instr.func,
            rdefs=rdefs, ruses=ruses, mdefs=mdefs, muses=muses,
            cd=None, values=values))


def _dedupe(items) -> Tuple:
    return tuple(dict.fromkeys(items))
