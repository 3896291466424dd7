"""Linked program image: code, data, symbols, and debug information.

A :class:`Program` is the unit everything downstream consumes: the VM loads
it, the static analyzer discovers code in it, the compiler produces it, and
pinballs reference it by name.  Code lives in its own address space (an
instruction's address is its index in :attr:`Program.instructions`), data
lives in a flat word-addressed memory whose low addresses hold globals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.isa.instructions import Instr, Label, Opcode

#: Data address where the globals segment starts.
GLOBAL_BASE = 16


class LinkError(Exception):
    """Raised when symbol resolution fails at link time."""


@dataclass
class GlobalVar:
    """A global variable: ``size`` words at data address ``addr``.

    ``is_array`` distinguishes ``int a[1]`` from ``int a`` — they have the
    same size but different expression semantics (array names decay to
    their address; scalars evaluate to their value).
    """

    name: str
    size: int = 1
    addr: int = -1
    init: Optional[Sequence[Union[int, float]]] = None
    is_array: bool = False


@dataclass
class DataDef:
    """A read-only data blob (e.g. a switch jump table of code labels)."""

    name: str
    values: Sequence[Union[int, float, Label]] = ()
    addr: int = -1


@dataclass
class Function:
    """A function: a contiguous run of instructions plus debug info.

    ``local_offsets`` maps local variable names to fp-relative word offsets
    (negative: locals; positive: arguments), which is how the debugger
    resolves ``print x`` inside a frame.
    """

    name: str
    instrs: List[Instr] = field(default_factory=list)
    entry: int = -1
    params: List[str] = field(default_factory=list)
    local_offsets: Dict[str, int] = field(default_factory=dict)
    #: Locals promoted to callee-saved registers: name -> register name.
    reg_locals: Dict[str, str] = field(default_factory=dict)
    source_file: Optional[str] = None

    @property
    def end(self) -> int:
        """One past the address of this function's last instruction."""
        return self.entry + len(self.instrs)

    def contains(self, addr: int) -> bool:
        return self.entry <= addr < self.end


class Program:
    """A fully linked program.

    Build one by appending :class:`Function` and :class:`GlobalVar` /
    :class:`DataDef` objects and then calling :meth:`link`, which assigns
    code and data addresses and resolves :class:`Label` operands.
    """

    def __init__(self, name: str = "a.out") -> None:
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVar] = {}
        self.data_defs: Dict[str, DataDef] = {}
        self.instructions: List[Instr] = []
        self.entry_function = "main"
        self.data_size = GLOBAL_BASE
        self._linked = False
        #: label name -> code address, for functions and local code labels.
        self.code_symbols: Dict[str, int] = {}

    # -- construction -------------------------------------------------------

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise LinkError("duplicate function %r" % (function.name,))
        self.functions[function.name] = function
        return function

    def add_global(self, var: GlobalVar) -> GlobalVar:
        if var.name in self.globals or var.name in self.data_defs:
            raise LinkError("duplicate global %r" % (var.name,))
        self.globals[var.name] = var
        return var

    def add_data(self, data: DataDef) -> DataDef:
        if data.name in self.data_defs or data.name in self.globals:
            raise LinkError("duplicate data %r" % (data.name,))
        self.data_defs[data.name] = data
        return data

    # -- linking -------------------------------------------------------------

    def link(self, code_labels: Optional[Dict[str, Dict[str, int]]] = None) -> "Program":
        """Assign addresses and resolve labels.

        ``code_labels`` optionally maps function name -> {label -> local
        instruction index} for labels that are internal to a function body
        (the assembler and compiler both supply this).
        """
        if self._linked:
            raise LinkError("program already linked")
        code_labels = code_labels or {}

        # Lay out code: functions in insertion order.
        self.instructions = []
        for function in self.functions.values():
            function.entry = len(self.instructions)
            self.code_symbols[function.name] = function.entry
            for index, instr in enumerate(function.instrs):
                instr.addr = function.entry + index
                instr.func = function.name
                self.instructions.append(instr)
        for fname, labels in code_labels.items():
            function = self.functions.get(fname)
            if function is None:
                raise LinkError("labels given for unknown function %r" % (fname,))
            for label, local_index in labels.items():
                if not 0 <= local_index <= len(function.instrs):
                    raise LinkError(
                        "label %r out of range in %r" % (label, fname))
                self.code_symbols["%s.%s" % (fname, label)] = (
                    function.entry + local_index)

        # Lay out data: globals then data defs, after the reserved region.
        addr = GLOBAL_BASE
        for var in self.globals.values():
            var.addr = addr
            addr += max(1, var.size)
        for data in self.data_defs.values():
            data.addr = addr
            addr += max(1, len(data.values))
        self.data_size = addr

        # Resolve Label operands in instructions.
        for instr in self.instructions:
            if not instr.operands:
                continue
            resolved = tuple(
                self._resolve_operand(instr, op) for op in instr.operands)
            instr.operands = resolved
        self._linked = True
        return self

    def _resolve_operand(self, instr: Instr, operand):
        from repro.isa.instructions import Imm
        if not isinstance(operand, Label):
            return operand
        addr = self.resolve_symbol(operand.name, scope=instr.func)
        if addr is None:
            raise LinkError(
                "unresolved symbol %r in %s at %d"
                % (operand.name, instr.func, instr.addr))
        # Control transfers keep code addresses as Imm too; the VM treats
        # branch/call targets as plain code addresses.
        return Imm(addr)

    def resolve_symbol(self, name: str, scope: Optional[str] = None) -> Optional[int]:
        """Resolve a symbol to a code or data address.

        Lookup order: function-local code label, function name, global
        variable, data definition.
        """
        if scope is not None:
            local = self.code_symbols.get("%s.%s" % (scope, name))
            if local is not None:
                return local
        if name in self.code_symbols:
            return self.code_symbols[name]
        if name in self.globals:
            return self.globals[name].addr
        if name in self.data_defs:
            return self.data_defs[name].addr
        # Unqualified function-local code label (used by jump-table data
        # in hand-written assembly); resolve if unambiguous.
        suffix = "." + name
        matches = [addr for sym, addr in self.code_symbols.items()
                   if sym.endswith(suffix)]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise LinkError("ambiguous label %r" % name)
        return None

    # -- queries --------------------------------------------------------------

    def function_at(self, addr: int) -> Optional[Function]:
        """The function containing code address ``addr`` (linear scan cached)."""
        for function in self.functions.values():
            if function.contains(addr):
                return function
        return None

    def line_of(self, addr: int) -> Optional[int]:
        """Source line of a code address, if debug info is present."""
        if 0 <= addr < len(self.instructions):
            return self.instructions[addr].line
        return None

    def addresses_of_line(self, line: int, func: Optional[str] = None) -> List[int]:
        """All code addresses attributed to a source line (for breakpoints)."""
        result = []
        for instr in self.instructions:
            if instr.line == line and (func is None or instr.func == func):
                result.append(instr.addr)
        return result

    def initial_data_image(self) -> Dict[int, Union[int, float]]:
        """Initial contents of the data segment (only non-zero words)."""
        image: Dict[int, Union[int, float]] = {}
        for var in self.globals.values():
            if var.init is None:
                continue
            for index, value in enumerate(var.init):
                if value != 0:
                    image[var.addr + index] = value
        for data in self.data_defs.values():
            for index, value in enumerate(data.values):
                if isinstance(value, Label):
                    addr = self.resolve_symbol(value.name)
                    if addr is None:
                        raise LinkError(
                            "unresolved label %r in data %r"
                            % (value.name, data.name))
                    value = addr
                if value != 0:
                    image[data.addr + index] = value
        return image

    def __len__(self) -> int:
        return len(self.instructions)
