"""Instruction and operand definitions for the mini-ISA.

The machine is register based with a downward-growing stack:

* eight general purpose registers ``r0`` .. ``r7`` (``r0`` carries return
  values; arguments are pushed on the stack by the caller);
* ``sp`` (stack pointer) and ``fp`` (frame pointer);
* a flat word-addressed data memory, disjoint from code addresses;
* code addresses are indices into the program's flat instruction list.

An instruction's register and memory effects are described once, by its
shape in :mod:`repro.vm.microops`, whose
:func:`~repro.vm.microops.instr_effects` answers the static part.  The
memory addresses it touches are known only at execution time and are
reported by the VM in trace records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union


class Opcode:
    """Namespace of opcode mnemonics (plain strings, compared by identity)."""

    MOV = "mov"        # mov rd, src          rd := src
    LD = "ld"          # ld rd, [rb+off]      rd := M[rb+off]
    ST = "st"          # st [rb+off], src     M[rb+off] := src
    LEA = "lea"        # lea rd, label|imm    rd := address
    BINOP = "binop"    # <op> rd, ra, src     rd := ra <op> src
    UNOP = "unop"      # <op> rd, ra          rd := <op> ra
    JMP = "jmp"        # jmp label            unconditional
    BR = "br"          # br rc, label         if rc != 0 goto label
    BRZ = "brz"        # brz rc, label        if rc == 0 goto label
    IJMP = "ijmp"      # ijmp rt              goto rt (indirect, jump tables)
    CALL = "call"      # call label           push pc+1; goto label
    ICALL = "icall"    # icall rt             push pc+1; goto rt
    RET = "ret"        # ret                  pop return address; goto it
    PUSH = "push"      # push src             sp -= 1; M[sp] := src
    POP = "pop"        # pop rd               rd := M[sp]; sp += 1
    SYS = "sys"        # sys name             syscall, args/results in r0..r3
    HALT = "halt"      # halt                 stop the current thread
    NOP = "nop"

    ALL = (
        MOV, LD, ST, LEA, BINOP, UNOP, JMP, BR, BRZ, IJMP,
        CALL, ICALL, RET, PUSH, POP, SYS, HALT, NOP,
    )


#: Sub-operations usable with ``Opcode.BINOP``.
BINARY_OPS = (
    "add", "sub", "mul", "div", "mod",
    "and", "or", "xor", "shl", "shr",
    "eq", "ne", "lt", "le", "gt", "ge",
)

#: The comparison subset of :data:`BINARY_OPS` (results are 0/1).
COMPARE_OPS = ("eq", "ne", "lt", "le", "gt", "ge")

#: Sub-operations usable with ``Opcode.UNOP``.
UNARY_OPS = ("neg", "not", "int", "float")

GENERAL_REGISTERS = tuple("r%d" % i for i in range(8))
SPECIAL_REGISTERS = ("sp", "fp")
ALL_REGISTERS = GENERAL_REGISTERS + SPECIAL_REGISTERS


@dataclass(frozen=True)
class Reg:
    """A register operand, e.g. ``Reg('r3')``."""

    name: str

    def __post_init__(self) -> None:
        if self.name not in ALL_REGISTERS:
            raise ValueError("unknown register %r" % (self.name,))

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Imm:
    """An immediate constant operand (int or float)."""

    value: Union[int, float]

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Mem:
    """A memory operand ``[base + offset]`` with a register base."""

    base: Reg
    offset: int = 0

    def __str__(self) -> str:
        if self.offset == 0:
            return "[%s]" % (self.base,)
        sign = "+" if self.offset >= 0 else "-"
        return "[%s%s%d]" % (self.base, sign, abs(self.offset))


@dataclass(frozen=True)
class Label:
    """A symbolic code or data label, resolved to an address at link time."""

    name: str

    def __str__(self) -> str:
        return self.name


Operand = Union[Reg, Imm, Mem, Label]


@dataclass
class Instr:
    """One machine instruction.

    ``addr`` is assigned at link time (index into the program's flat
    instruction list).  ``line`` and ``func`` carry source debug
    information used by the debugger and by statement-level slicing.
    ``subop`` selects the arithmetic/compare operation for ``BINOP`` /
    ``UNOP`` and carries the syscall name for ``SYS``.
    """

    op: str
    operands: Tuple[Operand, ...] = ()
    subop: Optional[str] = None
    line: Optional[int] = None
    func: Optional[str] = None
    addr: int = -1
    #: Free-form annotations used by analyses (e.g. ``"save"``/``"restore"``
    #: markers are *not* placed here -- the paper's point is that the binary
    #: carries no such markers; this exists for tests and diagnostics only).
    comment: str = ""

    def __post_init__(self) -> None:
        if self.op not in Opcode.ALL:
            raise ValueError("unknown opcode %r" % (self.op,))
        if self.op == Opcode.BINOP and self.subop not in BINARY_OPS:
            raise ValueError("bad binop subop %r" % (self.subop,))
        if self.op == Opcode.UNOP and self.subop not in UNARY_OPS:
            raise ValueError("bad unop subop %r" % (self.subop,))
        if self.op == Opcode.SYS and not self.subop:
            raise ValueError("sys requires a syscall name in subop")

    # -- decode metadata (consumed by the predecode layer) ------------------

    def operand_kinds(self) -> str:
        """Operand shape string, one char per operand: r/i/m/l.

        The predecoder (:mod:`repro.vm.microops`) specializes a handler
        closure on this shape at decode time — e.g. ``mov`` with shape
        ``"ri"`` binds an immediate-store handler, ``"rr"`` a
        register-copy handler — instead of isinstance-testing operands in
        the execution hot path.  Unknown shapes (``"?"``) make the
        decoder fall back to the generic interpreter so malformed
        programs keep their exact legacy error behavior.
        """
        return "".join(_OPERAND_KIND_CODES.get(type(operand), "?")
                       for operand in self.operands)

    # -- classification helpers --------------------------------------------

    def is_branch(self) -> bool:
        """True for conditional branches (control-dependence sources)."""
        return self.op in (Opcode.BR, Opcode.BRZ)

    def is_indirect_jump(self) -> bool:
        return self.op == Opcode.IJMP

    def is_control_transfer(self) -> bool:
        return self.op in (
            Opcode.JMP, Opcode.BR, Opcode.BRZ, Opcode.IJMP,
            Opcode.CALL, Opcode.ICALL, Opcode.RET, Opcode.HALT,
        )

    def branch_target(self) -> Optional[str]:
        """Label name of the static target, if any."""
        if self.op in (Opcode.JMP, Opcode.CALL):
            target = self.operands[0]
            return target.name if isinstance(target, Label) else None
        if self.op in (Opcode.BR, Opcode.BRZ):
            target = self.operands[1]
            return target.name if isinstance(target, Label) else None
        return None

    def __str__(self) -> str:
        parts = []
        if self.op in (Opcode.BINOP, Opcode.UNOP):
            parts.append(self.subop)
        elif self.op == Opcode.SYS:
            parts.append("sys %s" % self.subop)
        else:
            parts.append(self.op)
        if self.op != Opcode.SYS and self.operands:
            parts.append(", ".join(str(o) for o in self.operands))
        return " ".join(parts)


#: Operand-kind codes for :meth:`Instr.operand_kinds`.
_OPERAND_KIND_CODES = {Reg: "r", Imm: "i", Mem: "m", Label: "l"}
