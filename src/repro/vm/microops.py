"""Predecoded micro-op execution engine.

At :class:`~repro.vm.machine.Machine` construction the program's flat
instruction list is compiled — once per :class:`~repro.isa.program.Program`,
cached on the program object — into parallel handler tables:

* ``fast[pc](machine, thread) -> bool`` — the *untraced* path.  Operands,
  immediates, jump targets, register names and callee functions are
  resolved at decode time, so executing an instruction is one closure call
  with no opcode dispatch, no ``isinstance`` tests on operands, and no
  def/use list plumbing at all.  This is the path replay takes whenever no
  per-instruction tool is attached (the analog of Pin-only speed).
* ``traced[pc](machine, thread, rr, rw, mr, mw) -> bool`` — the *traced*
  path.  Same pre-resolved semantics, but every register read/write and
  memory read/write is appended to the supplied lists in exactly the order
  the seed interpreter (:meth:`Machine._execute`) produced them, so
  :class:`~repro.vm.hooks.InstrEvent` streams are bit-for-bit identical
  between engines (the differential tests assert this).
* ``rec[pc](machine, thread, mr, mw) -> bool`` — the *record* path,
  present only for opcodes in :data:`MEM_OPCODES` (``None`` elsewhere).
  The fast recorder needs just the memory *addresses* an instruction
  touched (access-order edges carry no values), so these closures run at
  untraced speed plus one bare-``int`` append per access: no tuples, no
  register def/use plumbing.  Opcodes without a dedicated record shape
  (SYS, fallbacks) wrap their traced closure and strip the addresses out.
* ``sel[pc](machine, thread) -> bool`` — the *selective* path, a fourth
  table variant armed with :meth:`Machine.set_selective
  <repro.vm.machine.Machine.set_selective>`.  Unlike the three tables
  above it is bound to its consumer rather than cached on the program:
  only the events the consumer watches pay any per-step cost, everything
  else executes through the untraced closure unchanged.  Two consumers
  build one.  The re-execution slicer's comes from
  :func:`decode_selective` in two sink modes — ``"flow"`` (per-retire pc
  stream plus the few execution-time facts offline analysis cannot
  recover: branch region ends, indirect-jump targets, syscall result
  presence, save/restore stack traffic) and ``"mem"`` (memory addresses
  only, for replaying a bounded window of the region on demand).  The
  relogger (:mod:`repro.pinplay.relogger`) wraps the ``fast`` and
  ``rec`` closures of this module's tables in its own keep-cursor
  handlers.

All handlers return True iff the instruction retired (False: a syscall
blocked and will be retried).  Instructions the decoder does not recognize
fall back to a closure that delegates to the machine's legacy
``_execute`` — decoding never changes observable behavior, including the
error behavior of malformed operand combinations.

Next to the handlers the decoder caches one *kind* per pc
(``KIND_PLAIN``, ``KIND_MEM`` or ``KIND_SLOT``, plus ``KIND_STOP``).
The machine's run loop executes the steps a scheduler has leased to one
thread as a batch, a single inner loop over one of the tables above
(:meth:`Machine.run <repro.vm.machine.Machine.run>`), and reads the kind
once per step: the record loop picks the ``fast`` or ``rec`` closure by
it, and every loop ends the batch before a ``KIND_STOP`` pc.  The stop
set is SYS and HALT (their effects reach other threads, the exit flag and
the global step clock), undecoded fallback shapes, and any instruction
that can leave ``pc`` outside the code without raising.  A stop pc still
runs, as the picked first step of a batch.

The handler tables are keyed by the *identity* of ``program.instructions``
so a relinked or mutated program is transparently re-decoded.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.isa.instructions import Instr, Mem, Opcode
from repro.vm.errors import VMError
from repro.vm.thread import EXIT_SENTINEL

FastHandler = Callable[..., bool]
TracedHandler = Callable[..., bool]
RecordHandler = Callable[..., bool]

_CACHE_ATTR = "_microop_tables"

#: Opcodes whose handlers can touch memory.  SYS is included because
#: ``spawn`` writes the child's argument slot through
#: ``Machine._cur_mem_writes`` (see create_thread).  Only these pcs get
#: a record handler; the fast record path runs everything else untraced.
MEM_OPCODES = frozenset((
    Opcode.LD, Opcode.ST, Opcode.PUSH, Opcode.POP,
    Opcode.CALL, Opcode.ICALL, Opcode.RET, Opcode.SYS,
))

#: Opcodes whose handlers can *write* memory (LD/POP/RET only read it;
#: POP and RET write registers).  The flow-mode selective table reports
#: these pcs' written addresses through ``sink.on_wset`` so a scaffold
#: pass can collect the region's written-address set.  SYS is handled
#: separately (its write arrives via ``Machine._cur_mem_writes``).
_WRITING_MEM_OPCODES = frozenset((
    Opcode.ST, Opcode.PUSH, Opcode.CALL, Opcode.ICALL,
))


#: Per-pc step kinds (see the module docstring).  KIND_SLOT marks an
#: opcode whose every execution touches exactly one address, which the
#: record loop checks against the recorder's window; adding KIND_STOP
#: marks a pc a run batch must end before (see _batch_stop).
KIND_PLAIN, KIND_MEM, KIND_SLOT, KIND_STOP = 0, 1, 2, 3

_ONE_SLOT_OPCODES = frozenset((
    Opcode.LD, Opcode.ST, Opcode.PUSH, Opcode.POP,
    Opcode.CALL, Opcode.ICALL, Opcode.RET,
))


def decode_program(program) -> Tuple[List[FastHandler], List[TracedHandler],
                                     List[Optional[RecordHandler]],
                                     List[int]]:
    """Return (and cache on ``program``) the fast/traced/record tables
    and the per-pc step kinds."""
    cached = getattr(program, _CACHE_ATTR, None)
    if cached is not None and cached[0] is program.instructions:
        return cached[1:]
    instructions = program.instructions
    code_len = len(instructions)
    fast_table: List[FastHandler] = []
    traced_table: List[TracedHandler] = []
    rec_table: List[Optional[RecordHandler]] = []
    kinds: List[int] = []
    for pc, instr in enumerate(instructions):
        try:
            fast, traced = _decode_instr(program, instr, pc, code_len)
        except Exception:
            # Unknown shape: preserve the seed interpreter's behavior
            # (including its runtime errors) by delegating per execution.
            fast, traced = _make_fallback(instr, pc)
            stop = True
        else:
            stop = _batch_stop(instr, pc, code_len)
        fast_table.append(fast)
        traced_table.append(traced)
        rec_table.append(_record_handler(program, instr, pc, code_len,
                                         traced))
        kind = (KIND_PLAIN if instr.op not in MEM_OPCODES
                else KIND_SLOT if instr.op in _ONE_SLOT_OPCODES
                else KIND_MEM)
        kinds.append(kind + KIND_STOP if stop else kind)
    tables = (fast_table, traced_table, rec_table, kinds)
    try:
        setattr(program, _CACHE_ATTR, (instructions,) + tables)
    except AttributeError:
        pass   # exotic program object without a __dict__; just don't cache
    return tables


def _batch_stop(instr: Instr, pc: int, code_len: int) -> bool:
    """Must a run batch end before ``pc``?

    True for SYS and HALT, whose effects reach past their own thread
    (locks, spawns, sleeps, exits, the global step clock), and for an
    instruction that can leave ``pc`` outside the code without raising
    (a jump to a bad constant target, or falling off the end): a batch
    never looks up the kind of a pc it cannot execute.  Fallback shapes
    are flagged by the caller.
    """
    op = instr.op
    if op == Opcode.SYS or op == Opcode.HALT:
        return True
    if op == Opcode.JMP:
        return not 0 <= int(instr.operands[0].value) < code_len
    if op == Opcode.BR or op == Opcode.BRZ:
        return not (0 <= int(instr.operands[1].value) < code_len
                    and pc + 1 < code_len)
    if op in (Opcode.IJMP, Opcode.CALL, Opcode.ICALL, Opcode.RET):
        return False    # the handler checks its target (or ends the thread)
    return pc + 1 >= code_len


def _make_fallback(instr: Instr, pc: int):
    def fast(machine, thread) -> bool:
        return machine._execute(thread, instr, pc, None, None, None, None)

    def traced(machine, thread, rr, rw, mr, mw) -> bool:
        return machine._execute(thread, instr, pc, rr, rw, mr, mw)

    return fast, traced


# -- arithmetic micro-op kernels ---------------------------------------------
#
# Shared 2-arg kernels for the subops whose semantics need no error context;
# div/mod get dedicated closures because they raise VMError with tid/pc.

def _k_add(a, b):
    return a + b


def _k_sub(a, b):
    return a - b


def _k_mul(a, b):
    return a * b


def _k_and(a, b):
    return int(a) & int(b)


def _k_or(a, b):
    return int(a) | int(b)


def _k_xor(a, b):
    return int(a) ^ int(b)


def _k_shl(a, b):
    return int(a) << int(b)


def _k_shr(a, b):
    return int(a) >> int(b)


def _k_eq(a, b):
    return int(a == b)


def _k_ne(a, b):
    return int(a != b)


def _k_lt(a, b):
    return int(a < b)


def _k_le(a, b):
    return int(a <= b)


def _k_gt(a, b):
    return int(a > b)


def _k_ge(a, b):
    return int(a >= b)


_SIMPLE_BINOPS = {
    "add": _k_add, "sub": _k_sub, "mul": _k_mul,
    "and": _k_and, "or": _k_or, "xor": _k_xor,
    "shl": _k_shl, "shr": _k_shr,
    "eq": _k_eq, "ne": _k_ne, "lt": _k_lt, "le": _k_le,
    "gt": _k_gt, "ge": _k_ge,
}


def _make_div_kernel(pc: int):
    def div(a, b, thread):
        if b == 0:
            raise VMError("division by zero", tid=thread.tid, pc=pc)
        if isinstance(a, int) and isinstance(b, int):
            quotient = abs(a) // abs(b)
            return quotient if (a >= 0) == (b >= 0) else -quotient
        return a / b
    return div


def _make_mod_kernel(pc: int):
    def mod(a, b, thread):
        if b == 0:
            raise VMError("modulo by zero", tid=thread.tid, pc=pc)
        return int(a) - int(b) * (abs(int(a)) // abs(int(b))) * (
            1 if (a >= 0) == (b >= 0) else -1)
    return mod


def _k_neg(a):
    return -a


def _k_not(a):
    return int(not a)


def _k_int(a):
    return int(a)


def _k_float(a):
    return float(a)


_UNOPS = {"neg": _k_neg, "not": _k_not, "int": _k_int, "float": _k_float}


# -- the decoder -------------------------------------------------------------

def _decode_instr(program, instr: Instr, pc: int, code_len: int):
    op = instr.op
    ops = instr.operands
    kinds = instr.operand_kinds()
    next_pc = pc + 1

    if op == Opcode.MOV or op == Opcode.LEA:
        # After linking, a LEA's label operand is an Imm address — both
        # opcodes reduce to an immediate-load or register-copy shape.
        if kinds == "ri":
            return _decode_mov_imm(ops[0].name, ops[1].value, next_pc)
        if kinds == "rr":
            return _decode_mov_reg(ops[0].name, ops[1].name, next_pc)
        raise ValueError("undecodable %s shape %r" % (op, kinds))
    if op == Opcode.LD:
        return _decode_ld(ops[0].name, ops[1], next_pc)
    if op == Opcode.ST:
        return _decode_st(ops[0], ops[1], kinds, next_pc)
    if op == Opcode.BINOP:
        return _decode_binop(instr.subop, ops[0].name, ops[1], ops[2],
                             kinds, pc, next_pc)
    if op == Opcode.UNOP:
        return _decode_unop(instr.subop, ops[0].name, ops[1], kinds,
                            next_pc)
    if op == Opcode.JMP:
        return _decode_jmp(int(ops[0].value))
    if op == Opcode.BR:
        return _decode_br(ops[0].name, int(ops[1].value), next_pc, False)
    if op == Opcode.BRZ:
        return _decode_br(ops[0].name, int(ops[1].value), next_pc, True)
    if op == Opcode.IJMP:
        return _decode_ijmp(ops[0].name, code_len)
    if op == Opcode.CALL:
        return _decode_call(program, int(ops[0].value), pc, code_len)
    if op == Opcode.ICALL:
        return _decode_icall(program, ops[0].name, pc, code_len)
    if op == Opcode.RET:
        return _decode_ret(next_pc, code_len)
    if op == Opcode.PUSH:
        return _decode_push(ops[0], kinds, pc, next_pc)
    if op == Opcode.POP:
        return _decode_pop(ops[0].name, next_pc)
    if op == Opcode.SYS:
        return _decode_sys(instr, pc)
    if op == Opcode.HALT:
        return _decode_halt(next_pc)
    if op == Opcode.NOP:
        return _decode_nop(next_pc)
    raise ValueError("undecodable opcode %r" % (op,))


# MOV / LEA ------------------------------------------------------------------

def _decode_mov_imm(rd: str, value, next_pc: int):
    def fast(machine, thread) -> bool:
        thread.regs[rd] = value
        thread.pc = next_pc
        return True

    def traced(machine, thread, rr, rw, mr, mw) -> bool:
        thread.regs[rd] = value
        rw.append((rd, value))
        thread.pc = next_pc
        return True

    return fast, traced


def _decode_mov_reg(rd: str, rs: str, next_pc: int):
    def fast(machine, thread) -> bool:
        regs = thread.regs
        regs[rd] = regs[rs]
        thread.pc = next_pc
        return True

    def traced(machine, thread, rr, rw, mr, mw) -> bool:
        regs = thread.regs
        value = regs[rs]
        rr.append((rs, value))
        regs[rd] = value
        rw.append((rd, value))
        thread.pc = next_pc
        return True

    return fast, traced


# LD / ST --------------------------------------------------------------------

def _decode_ld(rd: str, mem: Mem, next_pc: int):
    rb = mem.base.name
    offset = mem.offset

    def fast(machine, thread) -> bool:
        regs = thread.regs
        value = machine.memory.read(int(regs[rb]) + offset)
        regs[rd] = value
        thread.pc = next_pc
        return True

    def traced(machine, thread, rr, rw, mr, mw) -> bool:
        regs = thread.regs
        base = regs[rb]
        rr.append((rb, base))
        addr = int(base) + offset
        value = machine.memory.read(addr)
        mr.append((addr, value))
        regs[rd] = value
        rw.append((rd, value))
        thread.pc = next_pc
        return True

    return fast, traced


def _decode_st(mem: Mem, src, kinds: str, next_pc: int):
    rb = mem.base.name
    offset = mem.offset
    if kinds == "mi":
        value = src.value

        def fast(machine, thread) -> bool:
            machine.memory.write(int(thread.regs[rb]) + offset, value)
            thread.pc = next_pc
            return True

        def traced(machine, thread, rr, rw, mr, mw) -> bool:
            base = thread.regs[rb]
            rr.append((rb, base))
            addr = int(base) + offset
            machine.memory.write(addr, value)
            mw.append((addr, value))
            thread.pc = next_pc
            return True

        return fast, traced
    if kinds == "mr":
        rs = src.name

        def fast(machine, thread) -> bool:
            regs = thread.regs
            machine.memory.write(int(regs[rb]) + offset, regs[rs])
            thread.pc = next_pc
            return True

        def traced(machine, thread, rr, rw, mr, mw) -> bool:
            regs = thread.regs
            base = regs[rb]
            rr.append((rb, base))
            value = regs[rs]
            rr.append((rs, value))
            addr = int(base) + offset
            machine.memory.write(addr, value)
            mw.append((addr, value))
            thread.pc = next_pc
            return True

        return fast, traced
    raise ValueError("undecodable st shape %r" % (kinds,))


# BINOP / UNOP ---------------------------------------------------------------

def _decode_binop(subop, rd: str, a, b, kinds: str, pc: int, next_pc: int):
    if kinds not in ("rrr", "rri", "rir", "rii"):
        raise ValueError("undecodable binop shape %r" % (kinds,))
    a_reg = kinds[1] == "r"
    b_reg = kinds[2] == "r"

    kernel = _SIMPLE_BINOPS.get(subop)
    if kernel is None:
        if subop == "div":
            kernel3 = _make_div_kernel(pc)
        elif subop == "mod":
            kernel3 = _make_mod_kernel(pc)
        else:
            raise ValueError("undecodable binop subop %r" % (subop,))
        return _decode_binop3(kernel3, rd, a, b, a_reg, b_reg, next_pc)

    if a_reg and b_reg:
        ra, rb = a.name, b.name

        def fast(machine, thread) -> bool:
            regs = thread.regs
            regs[rd] = kernel(regs[ra], regs[rb])
            thread.pc = next_pc
            return True

        def traced(machine, thread, rr, rw, mr, mw) -> bool:
            regs = thread.regs
            va = regs[ra]
            rr.append((ra, va))
            vb = regs[rb]
            rr.append((rb, vb))
            value = kernel(va, vb)
            regs[rd] = value
            rw.append((rd, value))
            thread.pc = next_pc
            return True

        return fast, traced
    if a_reg:
        ra, vb = a.name, b.value

        def fast(machine, thread) -> bool:
            regs = thread.regs
            regs[rd] = kernel(regs[ra], vb)
            thread.pc = next_pc
            return True

        def traced(machine, thread, rr, rw, mr, mw) -> bool:
            regs = thread.regs
            va = regs[ra]
            rr.append((ra, va))
            value = kernel(va, vb)
            regs[rd] = value
            rw.append((rd, value))
            thread.pc = next_pc
            return True

        return fast, traced
    if b_reg:
        va, rb = a.value, b.name

        def fast(machine, thread) -> bool:
            regs = thread.regs
            regs[rd] = kernel(va, regs[rb])
            thread.pc = next_pc
            return True

        def traced(machine, thread, rr, rw, mr, mw) -> bool:
            regs = thread.regs
            vb = regs[rb]
            rr.append((rb, vb))
            value = kernel(va, vb)
            regs[rd] = value
            rw.append((rd, value))
            thread.pc = next_pc
            return True

        return fast, traced
    # Both immediates: constant-fold when the kernel cannot raise on these
    # inputs; otherwise evaluate at runtime (preserves seed error behavior).
    try:
        folded = kernel(a.value, b.value)
    except Exception:
        va, vb = a.value, b.value

        def fast(machine, thread) -> bool:
            thread.regs[rd] = kernel(va, vb)
            thread.pc = next_pc
            return True

        def traced(machine, thread, rr, rw, mr, mw) -> bool:
            value = kernel(va, vb)
            thread.regs[rd] = value
            rw.append((rd, value))
            thread.pc = next_pc
            return True

        return fast, traced
    return _decode_mov_imm(rd, folded, next_pc)


def _decode_binop3(kernel3, rd: str, a, b, a_reg: bool, b_reg: bool,
                   next_pc: int):
    """div/mod: the kernel needs the thread for VMError context."""
    if a_reg and b_reg:
        ra, rb = a.name, b.name

        def fast(machine, thread) -> bool:
            regs = thread.regs
            regs[rd] = kernel3(regs[ra], regs[rb], thread)
            thread.pc = next_pc
            return True

        def traced(machine, thread, rr, rw, mr, mw) -> bool:
            regs = thread.regs
            va = regs[ra]
            rr.append((ra, va))
            vb = regs[rb]
            rr.append((rb, vb))
            value = kernel3(va, vb, thread)
            regs[rd] = value
            rw.append((rd, value))
            thread.pc = next_pc
            return True

        return fast, traced
    if a_reg:
        ra, vb = a.name, b.value

        def fast(machine, thread) -> bool:
            regs = thread.regs
            regs[rd] = kernel3(regs[ra], vb, thread)
            thread.pc = next_pc
            return True

        def traced(machine, thread, rr, rw, mr, mw) -> bool:
            regs = thread.regs
            va = regs[ra]
            rr.append((ra, va))
            value = kernel3(va, vb, thread)
            regs[rd] = value
            rw.append((rd, value))
            thread.pc = next_pc
            return True

        return fast, traced
    if b_reg:
        va, rb = a.value, b.name

        def fast(machine, thread) -> bool:
            regs = thread.regs
            regs[rd] = kernel3(va, regs[rb], thread)
            thread.pc = next_pc
            return True

        def traced(machine, thread, rr, rw, mr, mw) -> bool:
            regs = thread.regs
            vb = regs[rb]
            rr.append((rb, vb))
            value = kernel3(va, vb, thread)
            regs[rd] = value
            rw.append((rd, value))
            thread.pc = next_pc
            return True

        return fast, traced
    va, vb = a.value, b.value

    def fast(machine, thread) -> bool:
        thread.regs[rd] = kernel3(va, vb, thread)
        thread.pc = next_pc
        return True

    def traced(machine, thread, rr, rw, mr, mw) -> bool:
        value = kernel3(va, vb, thread)
        thread.regs[rd] = value
        rw.append((rd, value))
        thread.pc = next_pc
        return True

    return fast, traced


def _decode_unop(subop, rd: str, a, kinds: str, next_pc: int):
    kernel = _UNOPS.get(subop)
    if kernel is None:
        raise ValueError("undecodable unop subop %r" % (subop,))
    if kinds == "rr":
        ra = a.name

        def fast(machine, thread) -> bool:
            regs = thread.regs
            regs[rd] = kernel(regs[ra])
            thread.pc = next_pc
            return True

        def traced(machine, thread, rr, rw, mr, mw) -> bool:
            regs = thread.regs
            va = regs[ra]
            rr.append((ra, va))
            value = kernel(va)
            regs[rd] = value
            rw.append((rd, value))
            thread.pc = next_pc
            return True

        return fast, traced
    if kinds == "ri":
        try:
            folded = kernel(a.value)
        except Exception:
            va = a.value

            def fast(machine, thread) -> bool:
                thread.regs[rd] = kernel(va)
                thread.pc = next_pc
                return True

            def traced(machine, thread, rr, rw, mr, mw) -> bool:
                value = kernel(va)
                thread.regs[rd] = value
                rw.append((rd, value))
                thread.pc = next_pc
                return True

            return fast, traced
        return _decode_mov_imm(rd, folded, next_pc)
    raise ValueError("undecodable unop shape %r" % (kinds,))


# Control transfer -----------------------------------------------------------

def _decode_jmp(target: int):
    def fast(machine, thread) -> bool:
        thread.pc = target
        return True

    def traced(machine, thread, rr, rw, mr, mw) -> bool:
        thread.pc = target
        return True

    return fast, traced


def _decode_br(rc: str, target: int, next_pc: int, branch_if_zero: bool):
    if branch_if_zero:
        def fast(machine, thread) -> bool:
            thread.pc = target if thread.regs[rc] == 0 else next_pc
            return True

        def traced(machine, thread, rr, rw, mr, mw) -> bool:
            cond = thread.regs[rc]
            rr.append((rc, cond))
            thread.pc = target if cond == 0 else next_pc
            return True
    else:
        def fast(machine, thread) -> bool:
            thread.pc = target if thread.regs[rc] != 0 else next_pc
            return True

        def traced(machine, thread, rr, rw, mr, mw) -> bool:
            cond = thread.regs[rc]
            rr.append((rc, cond))
            thread.pc = target if cond != 0 else next_pc
            return True

    return fast, traced


def _decode_ijmp(rt: str, code_len: int):
    def fast(machine, thread) -> bool:
        target = int(thread.regs[rt])
        if not 0 <= target < code_len:
            raise VMError("control transfer to bad address %d" % target,
                          tid=thread.tid, pc=thread.pc)
        thread.pc = target
        return True

    def traced(machine, thread, rr, rw, mr, mw) -> bool:
        value = thread.regs[rt]
        rr.append((rt, value))
        target = int(value)
        if not 0 <= target < code_len:
            raise VMError("control transfer to bad address %d" % target,
                          tid=thread.tid, pc=thread.pc)
        thread.pc = target
        return True

    return fast, traced


def _decode_call(program, target: int, pc: int, code_len: int):
    ret_pc = pc + 1
    target_ok = 0 <= target < code_len
    if target_ok:
        function = program.function_at(target)
        func_name = function.name if function else "<anon>"
    else:
        func_name = "<anon>"

    def fast(machine, thread) -> bool:
        if not target_ok:
            raise VMError("control transfer to bad address %d" % target,
                          tid=thread.tid, pc=thread.pc)
        regs = thread.regs
        sp = int(regs["sp"]) - 1
        if sp <= thread.stack_limit:
            raise VMError("stack overflow", tid=thread.tid, pc=pc)
        machine.memory.write(sp, ret_pc)
        regs["sp"] = sp
        thread.push_frame(func_name, pc, ret_pc)
        thread.pc = target
        return True

    def traced(machine, thread, rr, rw, mr, mw) -> bool:
        if not target_ok:
            raise VMError("control transfer to bad address %d" % target,
                          tid=thread.tid, pc=thread.pc)
        regs = thread.regs
        sp0 = regs["sp"]
        rr.append(("sp", sp0))
        sp = int(sp0) - 1
        if sp <= thread.stack_limit:
            raise VMError("stack overflow", tid=thread.tid, pc=pc)
        machine.memory.write(sp, ret_pc)
        mw.append((sp, ret_pc))
        regs["sp"] = sp
        rw.append(("sp", sp))
        thread.push_frame(func_name, pc, ret_pc)
        thread.pc = target
        return True

    return fast, traced


def _decode_icall(program, rt: str, pc: int, code_len: int):
    ret_pc = pc + 1
    function_at = program.function_at

    def fast(machine, thread) -> bool:
        regs = thread.regs
        target = int(regs[rt])
        if not 0 <= target < code_len:
            raise VMError("control transfer to bad address %d" % target,
                          tid=thread.tid, pc=thread.pc)
        sp = int(regs["sp"]) - 1
        if sp <= thread.stack_limit:
            raise VMError("stack overflow", tid=thread.tid, pc=pc)
        machine.memory.write(sp, ret_pc)
        regs["sp"] = sp
        function = function_at(target)
        thread.push_frame(function.name if function else "<anon>",
                          pc, ret_pc)
        thread.pc = target
        return True

    def traced(machine, thread, rr, rw, mr, mw) -> bool:
        regs = thread.regs
        value = regs[rt]
        rr.append((rt, value))
        target = int(value)
        if not 0 <= target < code_len:
            raise VMError("control transfer to bad address %d" % target,
                          tid=thread.tid, pc=thread.pc)
        sp0 = regs["sp"]
        rr.append(("sp", sp0))
        sp = int(sp0) - 1
        if sp <= thread.stack_limit:
            raise VMError("stack overflow", tid=thread.tid, pc=pc)
        machine.memory.write(sp, ret_pc)
        mw.append((sp, ret_pc))
        regs["sp"] = sp
        rw.append(("sp", sp))
        function = function_at(target)
        thread.push_frame(function.name if function else "<anon>",
                          pc, ret_pc)
        thread.pc = target
        return True

    return fast, traced


def _decode_ret(next_pc: int, code_len: int):
    def fast(machine, thread) -> bool:
        regs = thread.regs
        sp = int(regs["sp"])
        ret_addr = int(machine.memory.read(sp))
        regs["sp"] = sp + 1
        thread.pop_frame()
        if ret_addr == EXIT_SENTINEL:
            thread.pc = next_pc
            machine._finish_thread(thread)
        else:
            if not 0 <= ret_addr < code_len:
                raise VMError(
                    "control transfer to bad address %d" % ret_addr,
                    tid=thread.tid, pc=thread.pc)
            thread.pc = ret_addr
        return True

    def traced(machine, thread, rr, rw, mr, mw) -> bool:
        regs = thread.regs
        sp0 = regs["sp"]
        rr.append(("sp", sp0))
        sp = int(sp0)
        raw = machine.memory.read(sp)
        mr.append((sp, raw))
        ret_addr = int(raw)
        regs["sp"] = sp + 1
        rw.append(("sp", sp + 1))
        thread.pop_frame()
        if ret_addr == EXIT_SENTINEL:
            thread.pc = next_pc
            machine._finish_thread(thread)
        else:
            if not 0 <= ret_addr < code_len:
                raise VMError(
                    "control transfer to bad address %d" % ret_addr,
                    tid=thread.tid, pc=thread.pc)
            thread.pc = ret_addr
        return True

    return fast, traced


# Stack ----------------------------------------------------------------------

def _decode_push(src, kinds: str, pc: int, next_pc: int):
    if kinds == "i":
        value = src.value

        def fast(machine, thread) -> bool:
            regs = thread.regs
            sp = int(regs["sp"]) - 1
            if sp <= thread.stack_limit:
                raise VMError("stack overflow", tid=thread.tid, pc=pc)
            machine.memory.write(sp, value)
            regs["sp"] = sp
            thread.pc = next_pc
            return True

        def traced(machine, thread, rr, rw, mr, mw) -> bool:
            regs = thread.regs
            sp0 = regs["sp"]
            rr.append(("sp", sp0))
            sp = int(sp0) - 1
            if sp <= thread.stack_limit:
                raise VMError("stack overflow", tid=thread.tid, pc=pc)
            machine.memory.write(sp, value)
            mw.append((sp, value))
            regs["sp"] = sp
            rw.append(("sp", sp))
            thread.pc = next_pc
            return True

        return fast, traced
    if kinds == "r":
        rs = src.name

        def fast(machine, thread) -> bool:
            regs = thread.regs
            value = regs[rs]
            sp = int(regs["sp"]) - 1
            if sp <= thread.stack_limit:
                raise VMError("stack overflow", tid=thread.tid, pc=pc)
            machine.memory.write(sp, value)
            regs["sp"] = sp
            thread.pc = next_pc
            return True

        def traced(machine, thread, rr, rw, mr, mw) -> bool:
            regs = thread.regs
            value = regs[rs]
            rr.append((rs, value))
            sp0 = regs["sp"]
            rr.append(("sp", sp0))
            sp = int(sp0) - 1
            if sp <= thread.stack_limit:
                raise VMError("stack overflow", tid=thread.tid, pc=pc)
            machine.memory.write(sp, value)
            mw.append((sp, value))
            regs["sp"] = sp
            rw.append(("sp", sp))
            thread.pc = next_pc
            return True

        return fast, traced
    raise ValueError("undecodable push shape %r" % (kinds,))


def _decode_pop(rd: str, next_pc: int):
    def fast(machine, thread) -> bool:
        regs = thread.regs
        sp = int(regs["sp"])
        regs[rd] = machine.memory.read(sp)
        regs["sp"] = sp + 1
        thread.pc = next_pc
        return True

    def traced(machine, thread, rr, rw, mr, mw) -> bool:
        regs = thread.regs
        sp0 = regs["sp"]
        rr.append(("sp", sp0))
        sp = int(sp0)
        value = machine.memory.read(sp)
        mr.append((sp, value))
        regs[rd] = value
        rw.append((rd, value))
        regs["sp"] = sp + 1
        rw.append(("sp", sp + 1))
        thread.pc = next_pc
        return True

    return fast, traced


# SYS / HALT / NOP -----------------------------------------------------------

def _decode_sys(instr: Instr, pc: int):
    def fast(machine, thread) -> bool:
        return machine._do_syscall(thread, instr, pc, None, None)

    def traced(machine, thread, rr, rw, mr, mw) -> bool:
        return machine._do_syscall(thread, instr, pc, rr, rw)

    return fast, traced


def _decode_halt(next_pc: int):
    def fast(machine, thread) -> bool:
        thread.pc = next_pc
        machine.request_exit(0)
        return True

    def traced(machine, thread, rr, rw, mr, mw) -> bool:
        thread.pc = next_pc
        machine.request_exit(0)
        return True

    return fast, traced


def _decode_nop(next_pc: int):
    def fast(machine, thread) -> bool:
        thread.pc = next_pc
        return True

    def traced(machine, thread, rr, rw, mr, mw) -> bool:
        thread.pc = next_pc
        return True

    return fast, traced


# -- record handlers ----------------------------------------------------------
#
# The record loop of Machine.run only needs the memory addresses an
# instruction touched, in access order — the recorder's edge detection
# never looks at values.  Each handler is the untraced closure
# plus a bare-int append; anything without a dedicated shape below wraps
# its traced closure and strips the addresses out afterwards.

def _record_handler(program, instr: Instr, pc: int, code_len: int,
                    traced) -> Optional[RecordHandler]:
    if instr.op not in MEM_OPCODES:
        return None
    try:
        ops = instr.operands
        kinds = instr.operand_kinds()
        next_pc = pc + 1
        if instr.op == Opcode.LD:
            return _rec_ld(ops[0].name, ops[1], next_pc)
        if instr.op == Opcode.ST:
            return _rec_st(ops[0], ops[1], kinds, next_pc)
        if instr.op == Opcode.PUSH:
            return _rec_push(ops[0], kinds, pc, next_pc)
        if instr.op == Opcode.POP:
            return _rec_pop(ops[0].name, next_pc)
        if instr.op == Opcode.CALL:
            return _rec_call(program, int(ops[0].value), pc, code_len)
        if instr.op == Opcode.ICALL:
            return _rec_icall(program, ops[0].name, pc, code_len)
        if instr.op == Opcode.RET:
            return _rec_ret(next_pc, code_len)
    except Exception:
        pass    # undecodable shape: the traced wrapper preserves behavior
    return _rec_from_traced(traced)


def _rec_from_traced(traced) -> RecordHandler:
    """Record handler for SYS and fallback shapes: run the traced closure
    against throwaway lists (plus ``_cur_mem_writes``, where ``spawn``
    deposits the child's argument-slot write) and keep only addresses."""
    def rec(machine, thread, mr, mw) -> bool:
        rr: list = []
        rw: list = []
        tmr: list = []
        tmw: list = []
        machine._cur_mem_writes = tmw
        retired = traced(machine, thread, rr, rw, tmr, tmw)
        machine._cur_mem_writes = None
        if retired:
            for addr, _value in tmr:
                mr.append(addr)
            for addr, _value in tmw:
                mw.append(addr)
        return retired
    return rec


def _rec_ld(rd: str, mem: Mem, next_pc: int) -> RecordHandler:
    rb = mem.base.name
    offset = mem.offset

    def rec(machine, thread, mr, mw) -> bool:
        regs = thread.regs
        addr = int(regs[rb]) + offset
        regs[rd] = machine.memory.read(addr)
        mr.append(addr)
        thread.pc = next_pc
        return True

    return rec


def _rec_st(mem: Mem, src, kinds: str, next_pc: int) -> RecordHandler:
    rb = mem.base.name
    offset = mem.offset
    if kinds == "mi":
        value = src.value

        def rec(machine, thread, mr, mw) -> bool:
            addr = int(thread.regs[rb]) + offset
            machine.memory.write(addr, value)
            mw.append(addr)
            thread.pc = next_pc
            return True

        return rec
    if kinds == "mr":
        rs = src.name

        def rec(machine, thread, mr, mw) -> bool:
            regs = thread.regs
            addr = int(regs[rb]) + offset
            machine.memory.write(addr, regs[rs])
            mw.append(addr)
            thread.pc = next_pc
            return True

        return rec
    raise ValueError("undecodable st shape %r" % (kinds,))


def _rec_push(src, kinds: str, pc: int, next_pc: int) -> RecordHandler:
    if kinds == "i":
        value = src.value

        def rec(machine, thread, mr, mw) -> bool:
            regs = thread.regs
            sp = int(regs["sp"]) - 1
            if sp <= thread.stack_limit:
                raise VMError("stack overflow", tid=thread.tid, pc=pc)
            machine.memory.write(sp, value)
            mw.append(sp)
            regs["sp"] = sp
            thread.pc = next_pc
            return True

        return rec
    if kinds == "r":
        rs = src.name

        def rec(machine, thread, mr, mw) -> bool:
            regs = thread.regs
            value = regs[rs]
            sp = int(regs["sp"]) - 1
            if sp <= thread.stack_limit:
                raise VMError("stack overflow", tid=thread.tid, pc=pc)
            machine.memory.write(sp, value)
            mw.append(sp)
            regs["sp"] = sp
            thread.pc = next_pc
            return True

        return rec
    raise ValueError("undecodable push shape %r" % (kinds,))


def _rec_pop(rd: str, next_pc: int) -> RecordHandler:
    def rec(machine, thread, mr, mw) -> bool:
        regs = thread.regs
        sp = int(regs["sp"])
        regs[rd] = machine.memory.read(sp)
        mr.append(sp)
        regs["sp"] = sp + 1
        thread.pc = next_pc
        return True

    return rec


def _rec_call(program, target: int, pc: int, code_len: int) -> RecordHandler:
    ret_pc = pc + 1
    target_ok = 0 <= target < code_len
    if target_ok:
        function = program.function_at(target)
        func_name = function.name if function else "<anon>"
    else:
        func_name = "<anon>"

    def rec(machine, thread, mr, mw) -> bool:
        if not target_ok:
            raise VMError("control transfer to bad address %d" % target,
                          tid=thread.tid, pc=thread.pc)
        regs = thread.regs
        sp = int(regs["sp"]) - 1
        if sp <= thread.stack_limit:
            raise VMError("stack overflow", tid=thread.tid, pc=pc)
        machine.memory.write(sp, ret_pc)
        mw.append(sp)
        regs["sp"] = sp
        thread.push_frame(func_name, pc, ret_pc)
        thread.pc = target
        return True

    return rec


def _rec_icall(program, rt: str, pc: int, code_len: int) -> RecordHandler:
    ret_pc = pc + 1
    function_at = program.function_at

    def rec(machine, thread, mr, mw) -> bool:
        regs = thread.regs
        target = int(regs[rt])
        if not 0 <= target < code_len:
            raise VMError("control transfer to bad address %d" % target,
                          tid=thread.tid, pc=thread.pc)
        sp = int(regs["sp"]) - 1
        if sp <= thread.stack_limit:
            raise VMError("stack overflow", tid=thread.tid, pc=pc)
        machine.memory.write(sp, ret_pc)
        mw.append(sp)
        regs["sp"] = sp
        function = function_at(target)
        thread.push_frame(function.name if function else "<anon>",
                          pc, ret_pc)
        thread.pc = target
        return True

    return rec


def _rec_ret(next_pc: int, code_len: int) -> RecordHandler:
    def rec(machine, thread, mr, mw) -> bool:
        regs = thread.regs
        sp = int(regs["sp"])
        ret_addr = int(machine.memory.read(sp))
        mr.append(sp)
        regs["sp"] = sp + 1
        thread.pop_frame()
        if ret_addr == EXIT_SENTINEL:
            thread.pc = next_pc
            machine._finish_thread(thread)
        else:
            if not 0 <= ret_addr < code_len:
                raise VMError(
                    "control transfer to bad address %d" % ret_addr,
                    tid=thread.tid, pc=thread.pc)
            thread.pc = ret_addr
        return True

    return rec


# -- selective handlers --------------------------------------------------------
#
# The re-execution slicer's selective tables (see the module docstring;
# the relogger builds its own from the fast and record tables).  The
# tables are *sink-bound*: every closure captures the sink's callbacks at
# decode time, so arming a table on a machine adds zero per-step dispatch
# beyond what the sink asked to observe.  They are therefore never cached
# on the program object.

SelectiveHandler = Callable[..., bool]


def decode_selective(program, sink) -> List[SelectiveHandler]:
    """Compile the selective table for ``sink`` (mode ``"flow"`` / ``"mem"``).

    A flow sink provides ``save_addrs``/``restore_addrs`` (static
    save/restore candidate pcs) and the callbacks ``on_step(tid, pc)``
    (every retire, first), then per class: ``on_branch(tid, pc)``,
    ``on_ijmp(tid, pc, target)``, ``on_sys(tid, wrote_r0)``,
    ``on_save(tid, pc, stack_addr, value, frame_id)``,
    ``on_restore(tid, pc, stack_addr, value, frame_id)`` and
    ``on_ret(tid, frame_id)`` (``frame_id`` is pre-execution, matching
    :class:`~repro.vm.hooks.InstrEvent`), plus ``on_wset(addr)`` —
    called once per memory address *written* by a non-save retire (save
    pcs report their slot through ``on_save``), giving the sink the
    region's written-address set without any ordering or attribution.
    A mem sink provides only
    ``on_mem(tid, tindex, reads, writes)``; the address lists are scratch
    buffers reused across steps, so the sink must copy what it keeps.

    Raises :class:`ValueError` for instructions the decoder cannot give a
    dedicated shape — selective tracing has no fallback path because its
    consumer (the reexec slicer) must also *statically* derive the
    instruction's register defs/uses, which an opaque shape cannot supply.
    """
    mode = sink.mode
    instructions = program.instructions
    code_len = len(instructions)
    table: List[SelectiveHandler] = []
    if mode == "mem":
        on_mem = sink.on_mem
        mr: List[int] = []
        mw: List[int] = []
        for pc, instr in enumerate(instructions):
            try:
                _fast, traced = _decode_instr(program, instr, pc, code_len)
            except Exception:
                raise ValueError(
                    "selective decode: undecodable instruction at pc %d (%r)"
                    % (pc, instr.op))
            if instr.op in MEM_OPCODES:
                rec = _record_handler(program, instr, pc, code_len, traced)
                table.append(_sel_mem(rec, on_mem, mr, mw))
            else:
                table.append(_fast)
        return table
    if mode != "flow":
        raise ValueError("unknown selective mode %r" % (mode,))
    on_step = sink.on_step
    on_wset = sink.on_wset
    save_addrs = sink.save_addrs
    restore_addrs = sink.restore_addrs
    wmr: List[int] = []
    wmw: List[int] = []
    for pc, instr in enumerate(instructions):
        try:
            fast, traced = _decode_instr(program, instr, pc, code_len)
        except Exception:
            raise ValueError(
                "selective decode: undecodable instruction at pc %d (%r)"
                % (pc, instr.op))
        op = instr.op
        if op == Opcode.BR or op == Opcode.BRZ:
            table.append(_sel_flow_branch(fast, pc, on_step, sink.on_branch))
        elif op == Opcode.IJMP:
            table.append(_sel_flow_ijmp(fast, pc, on_step, sink.on_ijmp))
        elif op == Opcode.SYS:
            table.append(_sel_flow_sys(traced, pc, on_step, sink.on_sys,
                                       on_wset))
        elif op == Opcode.RET:
            table.append(_sel_flow_ret(fast, pc, on_step, sink.on_ret))
        elif (op == Opcode.PUSH and pc in save_addrs
                and instr.operand_kinds() == "r"):
            table.append(_sel_flow_save(fast, pc, instr.operands[0].name,
                                        on_step, sink.on_save))
        elif op == Opcode.POP and pc in restore_addrs:
            table.append(_sel_flow_restore(fast, pc, on_step,
                                           sink.on_restore))
        elif op in _WRITING_MEM_OPCODES:
            rec = _record_handler(program, instr, pc, code_len, traced)
            table.append(_sel_flow_write(rec, pc, on_step, on_wset,
                                         wmr, wmw))
        else:
            table.append(_sel_flow_plain(fast, pc, on_step))
    return table


def _sel_mem(rec, on_mem, mr, mw) -> SelectiveHandler:
    def sel(machine, thread) -> bool:
        retired = rec(machine, thread, mr, mw)
        if mr or mw:
            if retired:
                on_mem(thread.tid, thread.instr_count, mr, mw)
            del mr[:]
            del mw[:]
        return retired
    return sel


def _sel_flow_plain(fast, pc, on_step) -> SelectiveHandler:
    def sel(machine, thread) -> bool:
        fast(machine, thread)
        on_step(thread.tid, pc)
        return True
    return sel


def _sel_flow_branch(fast, pc, on_step, on_branch) -> SelectiveHandler:
    def sel(machine, thread) -> bool:
        fast(machine, thread)
        tid = thread.tid
        on_step(tid, pc)
        on_branch(tid, pc)
        return True
    return sel


def _sel_flow_ijmp(fast, pc, on_step, on_ijmp) -> SelectiveHandler:
    def sel(machine, thread) -> bool:
        fast(machine, thread)
        tid = thread.tid
        on_step(tid, pc)
        on_ijmp(tid, pc, thread.pc)
        return True
    return sel


def _sel_flow_sys(traced, pc, on_step, on_sys, on_wset) -> SelectiveHandler:
    def sel(machine, thread) -> bool:
        rr: list = []
        rw: list = []
        tmw: list = []
        # spawn deposits the child's argument-slot write here (the SYS
        # traced closure itself never touches its mem lists).
        machine._cur_mem_writes = tmw
        retired = traced(machine, thread, rr, rw, rr, rw)
        machine._cur_mem_writes = None
        if retired:
            tid = thread.tid
            on_step(tid, pc)
            on_sys(tid, bool(rw))
            for addr, _value in tmw:
                on_wset(addr)
        return retired
    return sel


def _sel_flow_write(rec, pc, on_step, on_wset, mr, mw) -> SelectiveHandler:
    def sel(machine, thread) -> bool:
        retired = rec(machine, thread, mr, mw)
        if retired:
            on_step(thread.tid, pc)
            for addr in mw:
                on_wset(addr)
        del mr[:]
        del mw[:]
        return retired
    return sel


def _sel_flow_ret(fast, pc, on_step, on_ret) -> SelectiveHandler:
    def sel(machine, thread) -> bool:
        frames = thread.frames
        frame_id = frames[-1].frame_id if frames else -1
        fast(machine, thread)
        tid = thread.tid
        on_step(tid, pc)
        on_ret(tid, frame_id)
        return True
    return sel


def _sel_flow_save(fast, pc, rs, on_step, on_save) -> SelectiveHandler:
    def sel(machine, thread) -> bool:
        frames = thread.frames
        frame_id = frames[-1].frame_id if frames else -1
        value = thread.regs[rs]
        fast(machine, thread)
        tid = thread.tid
        # Post-execution sp is exactly the slot the push wrote.
        on_step(tid, pc)
        on_save(tid, pc, int(thread.regs["sp"]), value, frame_id)
        return True
    return sel


def _sel_flow_restore(fast, pc, on_step, on_restore) -> SelectiveHandler:
    def sel(machine, thread) -> bool:
        frames = thread.frames
        frame_id = frames[-1].frame_id if frames else -1
        sp = int(thread.regs["sp"])
        value = machine.memory.read(sp)
        fast(machine, thread)
        tid = thread.tid
        on_step(tid, pc)
        on_restore(tid, pc, sp, value, frame_id)
        return True
    return sel
