"""Whole-program CFG registry with lazy construction and refinement.

The slicing tracers ask, per executed branch, for the address at which the
branch's control-dependence region ends; this registry owns one
:class:`~repro.analysis.cfg.CFG` per function, routes indirect-jump
observations to the right one, and memoizes the region ends between
refinements.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.cfg import CFG
from repro.isa.program import Program


class CfgRegistry:
    """Per-function CFGs for one program, built on first use."""

    def __init__(self, program: Program, refine: bool = True) -> None:
        self.program = program
        self.refine = refine
        self._cfgs: Dict[str, CFG] = {}
        #: Count of CFG edges added by dynamic refinement (for reporting).
        self.refinements = 0
        #: branch pc -> region end, valid until the next refinement.
        self._ends: Dict[int, Optional[int]] = {}

    def cfg_for_addr(self, addr: int) -> CFG:
        function = self.program.function_at(addr)
        if function is None:
            raise KeyError("no function contains address %d" % addr)
        cfg = self._cfgs.get(function.name)
        if cfg is None:
            cfg = CFG(self.program, function)
            self._cfgs[function.name] = cfg
        return cfg

    def cfg(self, function_name: str) -> CFG:
        cfg = self._cfgs.get(function_name)
        if cfg is None:
            cfg = CFG(self.program, self.program.functions[function_name])
            self._cfgs[function_name] = cfg
        return cfg

    def observe_indirect_jump(self, ijmp_addr: int, target: int) -> bool:
        """Refine the owning CFG with an observed ijmp target."""
        if not self.refine:
            return False
        changed = self.cfg_for_addr(ijmp_addr).add_indirect_target(
            ijmp_addr, target)
        if changed:
            self.refinements += 1
            self._ends.clear()
        return changed

    def region_end_addr(self, branch_addr: int) -> Optional[int]:
        """Where the control-dependence region of ``branch_addr`` ends
        (None: no post-dominator, the region closes at frame exit).
        Memoized per pc; a refinement clears the memo, since a new edge
        can move post-dominators anywhere in its CFG."""
        ends = self._ends
        if branch_addr not in ends:
            ends[branch_addr] = \
                self.cfg_for_addr(branch_addr).ipostdom_addr(branch_addr)
        return ends[branch_addr]
