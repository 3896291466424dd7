"""Dynamic control dependences (Xin & Zhang, ISSTA'07), computed offline.

Per thread, a stack of open control regions.  Executing a conditional
branch or indirect jump opens a region that closes when control reaches the
branch's immediate post-dominator *in the same call frame*; a call opens a
region for the whole callee frame (so callee instructions are transitively
control dependent on the call site, as in the paper's Figure 8 discussion).
The controlling instance of each executed instruction is the top of the
stack.

Both slicing engines run this one walk over a thread's pc stream after
the replay.  While it runs they record only what the stream cannot say
afterwards: each retired branch's region end (:class:`RegionEnds`; CFG
refinement, Section 5.1, moves post-dominators as indirect-jump targets
are observed), the thread's frame ids at region entry (the walk
simulates the rest: a call pushes the next id, a return pops) and, on a
slice-pinball replay, the frames each exclusion skip installs.

Precision depends entirely on the post-dominator information supplied by
the :class:`~repro.analysis.registry.CfgRegistry`: with an unrefined CFG,
indirect-jump regions are wrong and control dependences go missing —
exactly the Section 5.1 imprecision.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.registry import CfgRegistry
from repro.isa.instructions import Opcode
from repro.isa.program import Program

#: Per-pc instruction classes the walk dispatches on.
PLAIN, BRANCH, CALL, RET = 0, 1, 2, 3
_CLASS_OF = {Opcode.BR: BRANCH, Opcode.BRZ: BRANCH, Opcode.IJMP: BRANCH,
             Opcode.CALL: CALL, Opcode.ICALL: CALL, Opcode.RET: RET}

#: Region-end codes that are not addresses.
END_AT_EXIT = -1   # no post-dominator: the region closes at frame exit
NO_REGION = -2     # an ijmp with no known targets opens no region

#: (instruction index, frame ids) — the frames an exclusion skip
#: installed before that instruction of the thread retired.
FrameReset = Tuple[int, Tuple[int, ...]]


def pc_classes(program: Program) -> bytes:
    """The walk's class of every pc of ``program``."""
    return bytes(_CLASS_OF.get(instr.op, PLAIN)
                 for instr in program.instructions)


class RegionEnds:
    """Per-thread region ends of retired branches, in retire order: one
    entry per BR/BRZ/IJMP, which the walk consumes positionally."""

    def __init__(self, registry: CfgRegistry) -> None:
        self.registry = registry
        self.by_thread: Dict[int, array] = defaultdict(lambda: array("q"))

    def on_branch(self, tid: int, pc: int) -> None:
        end = self.registry.region_end_addr(pc)
        self.by_thread[tid].append(END_AT_EXIT if end is None else end)

    def on_ijmp(self, tid: int, pc: int, target: int) -> None:
        # Refine the CFG with the observed target *before* asking for
        # this jump's region end.
        registry = self.registry
        registry.observe_indirect_jump(pc, target)
        if registry.cfg_for_addr(pc).indirect_targets.get(pc):
            self.on_branch(tid, pc)
        else:
            # No CFG successors known for this indirect jump: prior tools
            # compute no post-dominator and hence open no region —
            # control dependences on the jump go *missing*, the exact
            # Section 5.1 imprecision (reproduced when refinement is
            # disabled).
            self.by_thread[tid].append(NO_REGION)


class ControlDepWalk:
    """One thread's walk, resumable: each :meth:`extend` continues where
    the last one stopped, so a replay run in several pieces walks each
    instruction once."""

    __slots__ = ("frames", "next_id", "stack", "cd", "_branches", "_resets")

    def __init__(self, frames: Sequence[int], next_id: int) -> None:
        #: Simulated frame ids, innermost last, and the next id a call
        #: gets (the thread's ``_next_frame_id``).
        self.frames: List[int] = list(frames)
        self.next_id = next_id
        #: Open regions: (frame id, controlling tindex, end address).
        self.stack: List[tuple] = []
        #: Controlling instruction index per row (-1: none).  Control
        #: dependences never cross threads.
        self.cd = array("i")
        self._branches = 0
        self._resets = 0

    def extend(self, classes: bytes, pcs, ends: Sequence[int],
               resets: Sequence[FrameReset] = (),
               frame_ids: Optional[list] = None) -> None:
        """Walk the thread's next rows, whose pcs are ``pcs``.  ``ends``
        and ``resets`` are the thread's whole region-end and frame-reset
        columns; the walk consumes them from where it stopped.  When
        given, ``frame_ids`` receives each row's simulated frame id."""
        frames = self.frames
        next_id = self.next_id
        stack = self.stack
        append = self.cd.append
        bi = self._branches
        ri = self._resets
        tindex = len(self.cd)
        reset_at = resets[ri][0] if ri < len(resets) else -1
        frame = frames[-1] if frames else -1
        for pc in pcs:
            while reset_at == tindex:
                frames = list(resets[ri][1])
                frame = frames[-1] if frames else -1
                # As the machine's skip does: calls continue above the
                # installed ids.
                if frames:
                    next_id = max(next_id, max(frames) + 1)
                ri += 1
                reset_at = resets[ri][0] if ri < len(resets) else -1
            # Close regions that end at this address in this frame.
            while stack and stack[-1][0] == frame and stack[-1][2] == pc:
                stack.pop()
            append(stack[-1][1] if stack else -1)
            if frame_ids is not None:
                frame_ids.append(frame)
            kind = classes[pc]
            if kind == BRANCH:
                end = ends[bi]
                bi += 1
                if end != NO_REGION:
                    # Merge-with-top (Xin-Zhang): a region ending at the
                    # same point in the same frame is superseded by the
                    # newer branch instance.
                    if (stack and stack[-1][0] == frame
                            and stack[-1][2] == end):
                        stack[-1] = (frame, tindex, end)
                    else:
                        stack.append((frame, tindex, end))
            elif kind == CALL:
                frames.append(next_id)
                stack.append((next_id, tindex, END_AT_EXIT))
                frame = next_id
                next_id += 1
            elif kind == RET:
                # Close every region of the frame being exited.
                while stack and stack[-1][0] == frame:
                    stack.pop()
                if frames:
                    frames.pop()
                frame = frames[-1] if frames else -1
            tindex += 1
        self.frames = frames
        self.next_id = next_id
        self._branches = bi
        self._resets = ri
