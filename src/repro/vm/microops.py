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
  present only where the instruction can touch memory (``None``
  elsewhere).  The fast recorder needs just the memory *addresses* an
  instruction touched (access-order edges carry no values), so these
  closures run at untraced speed plus one bare-``int`` append per access.
  SYS and fallback shapes wrap their traced closure and strip the
  addresses out.

One description per shape
-------------------------

Every decodable instruction shape has exactly one entry in
:data:`SHAPES`: the opcodes and operand kinds
(:meth:`~repro.isa.instructions.Instr.operand_kinds`) it matches, the
names of its decode-time parameters — one per register or immediate
operand, two (base register, offset) per memory operand — and one
*body*, written in the legacy interpreter's read/write order.  Four
body lines mark effects::

    x = R(reg)          register read       (reg: a parameter or "sp")
    W(reg, expr)        register write
    x = MR(addr)        memory read         (addr: a local name)
    MW(addr, expr)      memory write

Everything else in a body is plain Python over ``machine``, ``thread``,
the parameters and ``pc``, ``next_pc``, ``code_len`` and ``program``.
An optional *setup* runs once per instruction at decode time (say, to
resolve a callee's name).  The generator compiles each shape once per
process into a factory that returns the three variants; they differ only
in how the effect lines report:

* ``fast`` drops the reporting: ``R``/``W`` become ``regs[...]``
  accesses and ``MR``/``MW`` memory reads and writes;
* ``traced`` also appends ``(reg|addr, value)`` pairs to ``rr``, ``rw``,
  ``mr`` and ``mw``;
* ``rec`` appends only the bare addresses to ``mr`` and ``mw``.

The same bodies answer the static query :func:`instr_effects` — the
registers an instruction reads and writes, in traced order, and whether
it reads or writes memory — which the re-execution slicer, the relogger
and the step kinds below all read (:func:`program_effects` caches it
per program).  Because a shape's execution and its
static def/use sets come from one text, they agree by construction.

To add a shape: give it a :data:`SHAPES` entry (its opcodes must not
already match the same operand kinds) and a case in the hand-assembled
differential corpus (``tests/vm/test_shape_differential.py``), which
fails for any shape it does not decode.

Splice rule: program operands and register names enter generated code
only as factory arguments.  The one text spliced into generated source
is this module's own subop expression (:data:`SUBOPS`, replacing ``OP``
in a body), looked up by a subop :class:`~repro.isa.instructions.Instr`
has already validated.  An unknown shape or subop raises, and the
instruction takes the undecodable fallback.  Each factory is compiled
under the file name ``<microop SHAPE>`` (``<microop SHAPE SUBOP>`` for
arithmetic) and registered with :mod:`linecache`, so a traceback through
a handler shows its body line and :func:`inspect.getsource` works on a
table entry.

Selective tables
----------------

``sel[pc](machine, thread) -> bool`` is a fourth table variant armed with
:meth:`Machine.set_selective <repro.vm.machine.Machine.set_selective>`.
Unlike the three tables above it is bound to its consumer rather than
cached on the program: only the events the consumer watches pay any
per-step cost, everything else executes through the untraced closure
unchanged.  Two consumers build one.  The re-execution slicer's comes
from :func:`decode_selective` in two sink modes — ``"flow"`` (per-retire
pc stream plus the few execution-time facts offline analysis cannot
recover: branch region ends, indirect-jump targets, syscall result
presence, save/restore stack traffic) and ``"mem"`` (memory addresses
only, for replaying a bounded window of the region on demand).  The
relogger (:mod:`repro.pinplay.relogger`) wraps the ``fast`` and ``rec``
closures of this module's tables in its own keep-cursor handlers.

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
it, and every loop ends the batch before a ``KIND_STOP`` pc.  A shape's
kind follows from its body (no memory line: plain; one: slot); SYS is
``KIND_MEM``, and a fallback pc takes the kind of its opcode's shapes.
The stop set is SYS and HALT (their effects reach other threads, the exit
flag and the global step clock), undecoded fallback shapes, and any
instruction that can leave ``pc`` outside the code without raising.  A
stop pc still runs, as the picked first step of a batch.

The handler tables are keyed by the *identity* of ``program.instructions``
so a relinked or mutated program is transparently re-decoded.
"""

from __future__ import annotations

import linecache
import re
import textwrap
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.isa.instructions import Instr, Opcode
from repro.vm.errors import VMError
from repro.vm.thread import EXIT_SENTINEL

FastHandler = Callable[..., bool]
TracedHandler = Callable[..., bool]
RecordHandler = Callable[..., bool]

_CACHE_ATTR = "_microop_tables"
_EFFECTS_ATTR = "_microop_effects"

#: Per-pc step kinds (see the module docstring).  KIND_SLOT marks a
#: shape whose every execution touches exactly one address, which the
#: record loop checks against the recorder's window; adding KIND_STOP
#: marks a pc a run batch must end before (see _batch_stop).
KIND_PLAIN, KIND_MEM, KIND_SLOT, KIND_STOP = 0, 1, 2, 3


class Shape(NamedTuple):
    """One instruction shape: what it matches and its one body."""

    opcodes: Tuple[str, ...]
    kinds: str
    params: str
    body: str
    setup: str = ""


#: The shape table: one description per decodable non-SYS shape.
SHAPES: Dict[str, Shape] = {
    "mov_imm": Shape((Opcode.MOV, Opcode.LEA), "ri", "rd value", """
        W(rd, value)
        thread.pc = next_pc
    """),
    "mov_reg": Shape((Opcode.MOV, Opcode.LEA), "rr", "rd rs", """
        value = R(rs)
        W(rd, value)
        thread.pc = next_pc
    """),
    "ld": Shape((Opcode.LD,), "rm", "rd rb offset", """
        base = R(rb)
        addr = int(base) + offset
        value = MR(addr)
        W(rd, value)
        thread.pc = next_pc
    """),
    "st_imm": Shape((Opcode.ST,), "mi", "rb offset value", """
        base = R(rb)
        addr = int(base) + offset
        MW(addr, value)
        thread.pc = next_pc
    """),
    "st_reg": Shape((Opcode.ST,), "mr", "rb offset rs", """
        base = R(rb)
        value = R(rs)
        addr = int(base) + offset
        MW(addr, value)
        thread.pc = next_pc
    """),
    "binop_rr": Shape((Opcode.BINOP,), "rrr", "rd ra rb", """
        a = R(ra)
        b = R(rb)
        W(rd, OP)
        thread.pc = next_pc
    """),
    "binop_ri": Shape((Opcode.BINOP,), "rri", "rd ra b", """
        a = R(ra)
        W(rd, OP)
        thread.pc = next_pc
    """),
    "binop_ir": Shape((Opcode.BINOP,), "rir", "rd a rb", """
        b = R(rb)
        W(rd, OP)
        thread.pc = next_pc
    """),
    "binop_ii": Shape((Opcode.BINOP,), "rii", "rd a b", """
        W(rd, OP)
        thread.pc = next_pc
    """),
    "unop_r": Shape((Opcode.UNOP,), "rr", "rd ra", """
        a = R(ra)
        W(rd, OP)
        thread.pc = next_pc
    """),
    "unop_i": Shape((Opcode.UNOP,), "ri", "rd a", """
        W(rd, OP)
        thread.pc = next_pc
    """),
    "jmp": Shape((Opcode.JMP,), "i", "target", """
        thread.pc = target
    """, setup="target = int(target)"),
    "br": Shape((Opcode.BR,), "ri", "rc target", """
        cond = R(rc)
        thread.pc = target if cond != 0 else next_pc
    """, setup="target = int(target)"),
    "brz": Shape((Opcode.BRZ,), "ri", "rc target", """
        cond = R(rc)
        thread.pc = target if cond == 0 else next_pc
    """, setup="target = int(target)"),
    "ijmp": Shape((Opcode.IJMP,), "r", "rt", """
        value = R(rt)
        target = int(value)
        if not 0 <= target < code_len:
            raise VMError("control transfer to bad address %d" % target,
                          tid=thread.tid, pc=thread.pc)
        thread.pc = target
    """),
    "call": Shape((Opcode.CALL,), "i", "target", """
        if not target_ok:
            raise VMError("control transfer to bad address %d" % target,
                          tid=thread.tid, pc=thread.pc)
        sp0 = R("sp")
        sp = int(sp0) - 1
        if sp <= thread.stack_limit:
            raise VMError("stack overflow", tid=thread.tid, pc=pc)
        MW(sp, next_pc)
        W("sp", sp)
        thread.push_frame(func_name, pc, next_pc)
        thread.pc = target
    """, setup="""
        target = int(target)
        target_ok = 0 <= target < code_len
        function = program.function_at(target) if target_ok else None
        func_name = function.name if function else "<anon>"
    """),
    "icall": Shape((Opcode.ICALL,), "r", "rt", """
        value = R(rt)
        target = int(value)
        if not 0 <= target < code_len:
            raise VMError("control transfer to bad address %d" % target,
                          tid=thread.tid, pc=thread.pc)
        sp0 = R("sp")
        sp = int(sp0) - 1
        if sp <= thread.stack_limit:
            raise VMError("stack overflow", tid=thread.tid, pc=pc)
        MW(sp, next_pc)
        W("sp", sp)
        function = function_at(target)
        thread.push_frame(function.name if function else "<anon>",
                          pc, next_pc)
        thread.pc = target
    """, setup="function_at = program.function_at"),
    "ret": Shape((Opcode.RET,), "", "", """
        sp0 = R("sp")
        sp = int(sp0)
        raw = MR(sp)
        ret_addr = int(raw)
        W("sp", sp + 1)
        thread.pop_frame()
        if ret_addr == EXIT_SENTINEL:
            thread.pc = next_pc
            machine._finish_thread(thread)
        elif not 0 <= ret_addr < code_len:
            raise VMError("control transfer to bad address %d" % ret_addr,
                          tid=thread.tid, pc=thread.pc)
        else:
            thread.pc = ret_addr
    """),
    "push_imm": Shape((Opcode.PUSH,), "i", "value", """
        sp0 = R("sp")
        sp = int(sp0) - 1
        if sp <= thread.stack_limit:
            raise VMError("stack overflow", tid=thread.tid, pc=pc)
        MW(sp, value)
        W("sp", sp)
        thread.pc = next_pc
    """),
    "push_reg": Shape((Opcode.PUSH,), "r", "rs", """
        value = R(rs)
        sp0 = R("sp")
        sp = int(sp0) - 1
        if sp <= thread.stack_limit:
            raise VMError("stack overflow", tid=thread.tid, pc=pc)
        MW(sp, value)
        W("sp", sp)
        thread.pc = next_pc
    """),
    "pop": Shape((Opcode.POP,), "r", "rd", """
        sp0 = R("sp")
        sp = int(sp0)
        value = MR(sp)
        W(rd, value)
        W("sp", sp + 1)
        thread.pc = next_pc
    """),
    "halt": Shape((Opcode.HALT,), "", "", """
        thread.pc = next_pc
        machine.request_exit(0)
    """),
    "nop": Shape((Opcode.NOP,), "", "", """
        thread.pc = next_pc
    """),
}

#: Subop expressions over ``a`` and ``b``, spliced for ``OP`` in the
#: BINOP and UNOP bodies.  div and mod raise with the faulting tid and pc.
SUBOPS: Dict[str, Dict[str, str]] = {
    Opcode.BINOP: {
        "add": "a + b", "sub": "a - b", "mul": "a * b",
        "div": "_div(a, b, thread, pc)", "mod": "_mod(a, b, thread, pc)",
        "and": "int(a) & int(b)", "or": "int(a) | int(b)",
        "xor": "int(a) ^ int(b)", "shl": "int(a) << int(b)",
        "shr": "int(a) >> int(b)",
        "eq": "int(a == b)", "ne": "int(a != b)", "lt": "int(a < b)",
        "le": "int(a <= b)", "gt": "int(a > b)", "ge": "int(a >= b)",
    },
    Opcode.UNOP: {
        "neg": "-a", "not": "int(not a)", "int": "int(a)",
        "float": "float(a)",
    },
}


def _div(a, b, thread, pc):
    if b == 0:
        raise VMError("division by zero", tid=thread.tid, pc=pc)
    if isinstance(a, int) and isinstance(b, int):
        quotient = abs(a) // abs(b)
        return quotient if (a >= 0) == (b >= 0) else -quotient
    return a / b


def _mod(a, b, thread, pc):
    if b == 0:
        raise VMError("modulo by zero", tid=thread.tid, pc=pc)
    return int(a) - int(b) * (abs(int(a)) // abs(int(b))) * (
        1 if (a >= 0) == (b >= 0) else -1)


# -- decoding an instruction to its shape --------------------------------------

_BY_MATCH = {(op, shape.kinds): name
             for name, shape in SHAPES.items() for op in shape.opcodes}


def _shape_of(instr: Instr) -> Tuple[str, list, Optional[str]]:
    """(shape name, parameter values, subop) of ``instr``; ValueError if
    no shape matches.  Needs only the instruction, not the program."""
    kinds = instr.operand_kinds()
    name = _BY_MATCH.get((instr.op, kinds))
    if name is None:
        raise ValueError("undecodable %s shape %r" % (instr.op, kinds))
    subop = None
    if instr.op in SUBOPS:
        subop = instr.subop
        if subop not in SUBOPS[instr.op]:
            raise ValueError("undecodable %s subop %r" % (instr.op, subop))
    args = []
    for code, operand in zip(kinds, instr.operands):
        if code == "r":
            args.append(operand.name)
        elif code == "i":
            args.append(operand.value)
        else:
            base = operand.base
            if not hasattr(base, "name"):
                raise ValueError("undecodable memory base %r" % (base,))
            args.extend((base.name, operand.offset))
    return name, args, subop


# -- the generator ---------------------------------------------------------------

_READ_LINE = re.compile(r'(\s*)(\w+) = (R|MR)\((\w+|"\w+")\)$')
_WRITE_LINE = re.compile(r'(\s*)(W|MW)\((\w+|"\w+"), (.+)\)$')
_NAME = re.compile(r"\w+$")

#: How each variant reports an effect line, by effect.
_REPORT = {
    "fast": {"R": (), "MR": (), "W": (), "MW": ()},
    "traced": {"R": ("rr.append(({loc}, {x}))",),
               "MR": ("mr.append(({loc}, {x}))",),
               "W": ("rw.append(({loc}, {x}))",),
               "MW": ("mw.append(({loc}, {x}))",)},
    "rec": {"R": (), "MR": ("mr.append({loc})",), "W": (),
            "MW": ("mw.append({loc})",)},
}
_DO = {"R": "{x} = regs[{loc}]", "MR": "{x} = machine.memory.read({loc})",
       "W": "regs[{loc}] = {x}", "MW": "machine.memory.write({loc}, {x})"}
_SIGNATURE = {"fast": "machine, thread",
              "traced": "machine, thread, rr, rw, mr, mw",
              "rec": "machine, thread, mr, mw"}


def _effects(body: str) -> List[Tuple[str, str]]:
    """The (effect, reg|addr) pairs of a body's effect lines, in order."""
    out = []
    for line in body.splitlines():
        match = _READ_LINE.match(line)
        if match:
            out.append((match.group(3), match.group(4)))
            continue
        match = _WRITE_LINE.match(line)
        if match:
            out.append((match.group(2), match.group(3)))
    return out


def _variant(variant: str, body: str) -> List[str]:
    """One handler's source lines, effect lines expanded for ``variant``."""
    lines = ["def %s(%s):" % (variant, _SIGNATURE[variant])]
    if any(effect in ("R", "W") for effect, _ in _effects(body)):
        lines.append("    regs = thread.regs")
    for line in body.splitlines():
        match = _READ_LINE.match(line)
        if match:
            indent, x, effect, loc = match.groups()
        else:
            match = _WRITE_LINE.match(line)
            if match is None:
                lines.append("    " + line)
                continue
            indent, effect, loc, x = match.groups()
            if variant == "traced" and not _NAME.match(x):
                # A reported value is computed once.
                lines.append("    %s_v = %s" % (indent, x))
                x = "_v"
        for template in (_DO[effect],) + _REPORT[variant][effect]:
            lines.append("    " + indent + template.format(x=x, loc=loc))
    lines.append("    return True")
    return lines


def _source(name: str, subop: Optional[str]) -> str:
    shape = SHAPES[name]
    body = textwrap.dedent(shape.body).strip("\n")
    if subop is not None:
        body = re.sub(r"\bOP\b", SUBOPS[shape.opcodes[0]][subop], body)
    variants = ["fast", "traced"]
    if any(effect in ("MR", "MW") for effect, _ in _effects(body)):
        variants.append("rec")
    params = shape.params.split() + ["pc", "code_len", "program"]
    out = ["def make(%s):" % ", ".join(params), "    next_pc = pc + 1"]
    for line in textwrap.dedent(shape.setup).strip("\n").splitlines():
        out.append("    " + line)
    for variant in variants:
        out.append("")
        out.extend("    " + line for line in _variant(variant, body))
    if len(variants) == 2:
        variants.append("None")
    out.extend(("", "    return %s" % ", ".join(variants)))
    return "\n".join(out) + "\n"


_FACTORIES: Dict[Tuple[str, Optional[str]], Callable] = {}
_GLOBALS = {"VMError": VMError, "EXIT_SENTINEL": EXIT_SENTINEL,
            "_div": _div, "_mod": _mod}


def _factory(name: str, subop: Optional[str]) -> Callable:
    """The compiled factory of shape ``name`` (with ``subop`` spliced)."""
    key = (name, subop)
    factory = _FACTORIES.get(key)
    if factory is None:
        source = _source(name, subop)
        filename = "<microop %s>" % " ".join(filter(None, key))
        linecache.cache[filename] = (len(source), None,
                                     source.splitlines(True), filename)
        namespace = dict(_GLOBALS)
        exec(compile(source, filename, "exec"), namespace)
        factory = _FACTORIES[key] = namespace["make"]
    return factory


# -- static effects ---------------------------------------------------------------

class InstrEffects(NamedTuple):
    """What an instruction does, read from its shape's body."""

    #: Registers read and written, deduped, in traced order.
    reads: Tuple[str, ...]
    writes: Tuple[str, ...]
    reads_mem: bool
    writes_mem: bool


#: SYS runs ``Machine._do_syscall``: it reads the argument registers,
#: writes ``r0`` only when a result is returned (the no-result variant is
#: listed), and ``spawn`` writes the child's argument slot.
_SYS_EFFECTS = InstrEffects(("r0", "r1", "r2", "r3"), (), False, True)


def _static(shape: Shape) -> tuple:
    """(register reads, register writes, reads memory, writes memory) of
    a shape's body; a register is a parameter index or a literal name."""
    params = shape.params.split()
    reads: list = []
    writes: list = []
    reads_mem = writes_mem = False
    for effect, loc in _effects(shape.body):
        if effect == "MR":
            reads_mem = True
        elif effect == "MW":
            writes_mem = True
        else:
            reg = loc.strip('"') if loc[0] == '"' else params.index(loc)
            (reads if effect == "R" else writes).append(reg)
    return tuple(reads), tuple(writes), reads_mem, writes_mem


_STATIC = {name: _static(shape) for name, shape in SHAPES.items()}


def _registers(regs: tuple, args: list) -> Tuple[str, ...]:
    names = [args[reg] if reg.__class__ is int else reg for reg in regs]
    return tuple(dict.fromkeys(names)) if len(names) > 1 else tuple(names)


def instr_effects(instr: Instr) -> InstrEffects:
    """Static register and memory effects of ``instr``.

    Raises :class:`ValueError` for a shape the decoder would not decode."""
    if instr.op == Opcode.SYS:
        return _SYS_EFFECTS
    name, args, _subop = _shape_of(instr)
    reads, writes, reads_mem, writes_mem = _STATIC[name]
    return InstrEffects(_registers(reads, args), _registers(writes, args),
                        reads_mem, writes_mem)


def program_effects(program) -> List[Optional[InstrEffects]]:
    """:func:`instr_effects` of every pc (``None`` where no shape
    matches), cached on ``program`` like the handler tables."""
    cached = getattr(program, _EFFECTS_ATTR, None)
    if cached is not None and cached[0] is program.instructions:
        return cached[1]
    effects: List[Optional[InstrEffects]] = []
    for instr in program.instructions:
        try:
            effects.append(instr_effects(instr))
        except ValueError:
            effects.append(None)
    try:
        setattr(program, _EFFECTS_ATTR, (program.instructions, effects))
    except AttributeError:
        pass   # exotic program object without a __dict__; just don't cache
    return effects


def _shape_kind(shape: Shape) -> int:
    memory = sum(effect in ("MR", "MW") for effect, _ in _effects(shape.body))
    if not memory:
        return KIND_PLAIN
    return KIND_SLOT if memory == 1 else KIND_MEM


_SHAPE_KIND = {name: _shape_kind(shape) for name, shape in SHAPES.items()}
#: A fallback pc's kind: that of its opcode's shapes (every opcode but
#: SYS has shapes, and an opcode's shapes share one kind).
_OPCODE_KIND = {op: _SHAPE_KIND[name]
                for name, shape in SHAPES.items() for op in shape.opcodes}


# -- the program tables ------------------------------------------------------------

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
        if instr.op == Opcode.SYS:
            fast, traced = _sys_handlers(instr, pc)
            rec = _record_via_traced(traced)
            kind = KIND_MEM
            stop = True
        else:
            try:
                name, args, subop = _shape_of(instr)
                fast, traced, rec = _factory(name, subop)(
                    *args, pc, code_len, program)
            except Exception:
                # Unknown shape: preserve the seed interpreter's behavior
                # (including its runtime errors) by delegating per
                # execution.
                fast, traced = _make_fallback(instr, pc)
                kind = _OPCODE_KIND[instr.op]
                rec = _record_via_traced(traced) if kind else None
                stop = True
            else:
                kind = _SHAPE_KIND[name]
                stop = _batch_stop(instr, pc, code_len)
        fast_table.append(fast)
        traced_table.append(traced)
        rec_table.append(rec)
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


def _sys_handlers(instr: Instr, pc: int):
    def fast(machine, thread) -> bool:
        return machine._do_syscall(thread, instr, pc, None, None)

    def traced(machine, thread, rr, rw, mr, mw) -> bool:
        return machine._do_syscall(thread, instr, pc, rr, rw)

    return fast, traced


def _record_via_traced(traced) -> RecordHandler:
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
    (every retire, first), then per class: ``on_branch(tid, pc)`` and
    ``on_ijmp(tid, pc, target)`` (the shapes of
    :class:`~repro.slicing.control_dep.RegionEnds`' recorders),
    ``on_sys(tid, wrote_r0)``, ``on_save(tid, pc, stack_addr, value,
    frame_id)``, ``on_restore(tid, pc, stack_addr, value, frame_id)`` and
    ``on_ret(tid, frame_id)`` (``frame_id`` is pre-execution, matching
    :class:`~repro.vm.hooks.InstrEvent`; the last three feed a
    :class:`~repro.slicing.save_restore.SaveRestoreDetector`, which also
    wants the retire's instruction index — the sink's pc stream length
    minus one), plus ``on_wset(addr)`` —
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
    if mode not in ("flow", "mem"):
        raise ValueError("unknown selective mode %r" % (mode,))
    fast_table, traced_table, rec_table, _kinds = decode_program(program)
    effects = program_effects(program)
    if None in effects:
        pc = effects.index(None)
        raise ValueError(
            "selective decode: undecodable instruction at pc %d (%r)"
            % (pc, program.instructions[pc].op))
    table: List[SelectiveHandler] = []
    if mode == "mem":
        on_mem = sink.on_mem
        mr: List[int] = []
        mw: List[int] = []
        for pc, eff in enumerate(effects):
            if eff.reads_mem or eff.writes_mem:
                table.append(_sel_mem(rec_table[pc], on_mem, mr, mw))
            else:
                table.append(fast_table[pc])
        return table
    on_step = sink.on_step
    on_wset = sink.on_wset
    save_addrs = sink.save_addrs
    restore_addrs = sink.restore_addrs
    wmr: List[int] = []
    wmw: List[int] = []
    for pc, instr in enumerate(program.instructions):
        fast = fast_table[pc]
        op = instr.op
        if op == Opcode.BR or op == Opcode.BRZ:
            table.append(_sel_flow_branch(fast, pc, on_step, sink.on_branch))
        elif op == Opcode.IJMP:
            table.append(_sel_flow_ijmp(fast, pc, on_step, sink.on_ijmp))
        elif op == Opcode.SYS:
            table.append(_sel_flow_sys(traced_table[pc], pc, on_step,
                                       sink.on_sys, on_wset))
        elif op == Opcode.RET:
            table.append(_sel_flow_ret(fast, pc, on_step, sink.on_ret))
        elif (op == Opcode.PUSH and pc in save_addrs
                and instr.operand_kinds() == "r"):
            table.append(_sel_flow_save(fast, pc, instr.operands[0].name,
                                        on_step, sink.on_save))
        elif op == Opcode.POP and pc in restore_addrs:
            table.append(_sel_flow_restore(fast, pc, on_step,
                                           sink.on_restore))
        elif effects[pc].writes_mem:
            table.append(_sel_flow_write(rec_table[pc], pc, on_step,
                                         on_wset, wmr, wmw))
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
