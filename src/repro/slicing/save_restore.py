"""Save/restore pair detection (paper Section 5.2).

Two phases, exactly as the paper describes:

* **Static candidates** — the first ``MaxSave`` ``push`` instructions at a
  function's entry are potential *saves*; the ``pop`` instructions in the
  window before each ``ret`` are potential *restores*.  No compiler
  cooperation: this works on any binary our ISA can express.
* **Dynamic verification** — a candidate pair is a verified save/restore
  for a dynamic frame iff the save copied register ``r`` to stack slot
  ``s`` at frame entry and the restore copied *the same value* from ``s``
  back to ``r`` at frame exit.

The verified pairs feed the slicer's bypass: a data dependence resolved to
a verified restore is redirected to the definition reaching the matching
save, eliminating the spurious chains of Figure 8.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.isa.instructions import Opcode, Reg
from repro.isa.program import Function, Program

Instance = Tuple[int, int]

#: How many non-push instructions the candidate scan tolerates before
#: giving up (prologues interleave ``mov fp, sp`` / ``sub sp`` with pushes).
_SCAN_SLACK = 4


def find_static_candidates(program: Program,
                           max_save: int) -> Tuple[Set[int], Set[int]]:
    """Candidate save/restore instruction addresses across the program."""
    saves: Set[int] = set()
    restores: Set[int] = set()
    for function in program.functions.values():
        saves.update(_scan_saves(program, function, max_save))
        restores.update(_scan_restores(program, function, max_save))
    return saves, restores


def _scan_saves(program: Program, function: Function,
                max_save: int) -> List[int]:
    found: List[int] = []
    if max_save <= 0:
        return found
    slack = _SCAN_SLACK
    for addr in range(function.entry, function.end):
        instr = program.instructions[addr]
        if instr.op == Opcode.PUSH and isinstance(instr.operands[0], Reg):
            found.append(addr)
            if len(found) >= max_save:
                break
        elif instr.is_control_transfer():
            break
        else:
            slack -= 1
            if slack < 0:
                break
    return found


def _scan_restores(program: Program, function: Function,
                   max_save: int) -> List[int]:
    found: List[int] = []
    if max_save <= 0:
        return found
    for ret_addr in range(function.entry, function.end):
        if program.instructions[ret_addr].op != Opcode.RET:
            continue
        slack = _SCAN_SLACK
        count = 0
        for addr in range(ret_addr - 1, function.entry - 1, -1):
            instr = program.instructions[addr]
            if instr.op == Opcode.POP:
                found.append(addr)
                count += 1
                if count >= max_save:
                    break
            elif instr.is_control_transfer():
                break
            else:
                slack -= 1
                if slack < 0:
                    break
    return found


class SaveRestoreDetector:
    """Verifies candidate pairs dynamically as the trace is collected.

    Both slicing engines make the same calls, and only at candidate pcs
    and returns; ``frame_id`` is the frame before the instruction ran
    (:attr:`InstrEvent.frame_id <repro.vm.hooks.InstrEvent.frame_id>`).
    """

    def __init__(self, program: Program, max_save: int) -> None:
        if max_save > 0:
            self.save_addrs, self.restore_addrs = find_static_candidates(
                program, max_save)
        else:
            self.save_addrs, self.restore_addrs = set(), set()
        instructions = program.instructions
        #: Candidate pc -> the register it saves or restores.
        self._reg = {addr: instructions[addr].operands[0].name
                     for addr in self.save_addrs | self.restore_addrs}
        #: (tid, frame_id) -> reg -> (save_tindex, stack_addr, value)
        self._open: Dict[Tuple[int, int], Dict[str, Tuple[int, int, object]]] = {}
        #: restore instance -> matching save instance.
        self.verified: Dict[Instance, Instance] = {}
        #: All instances participating in a verified pair (for reporting).
        self.pair_count = 0

    def on_save(self, tid: int, tindex: int, pc: int, stack_addr: int,
                value, frame_id: int) -> None:
        """Save candidate ``pc`` copied its register to ``stack_addr``."""
        self._open.setdefault((tid, frame_id), {})[self._reg[pc]] = (
            tindex, stack_addr, value)

    def on_restore(self, tid: int, tindex: int, pc: int, stack_addr: int,
                   value, frame_id: int) -> None:
        """Restore candidate ``pc`` read ``value`` from ``stack_addr``."""
        frame_saves = self._open.get((tid, frame_id))
        reg = self._reg[pc]
        saved = frame_saves.get(reg) if frame_saves else None
        if (saved is not None and saved[1] == stack_addr
                and saved[2] == value):
            self.verified[(tid, tindex)] = (tid, saved[0])
            self.pair_count += 1
            del frame_saves[reg]

    def on_ret(self, tid: int, frame_id: int) -> None:
        """The frame is gone; drop its open saves."""
        self._open.pop((tid, frame_id), None)
