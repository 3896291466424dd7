"""Per-thread execution context.

Each thread owns its registers, program counter, a stack region, and a call
stack of frames for debugger backtraces and for tagging dynamic control
dependences with the frame they belong to (the Xin-Zhang algorithm is
per-frame; see :mod:`repro.slicing.control_dep`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.isa.instructions import ALL_REGISTERS

Word = Union[int, float]

#: Sentinel return address: a ``ret`` that pops this terminates the thread.
EXIT_SENTINEL = -1

_REGISTER_NAMES = frozenset(ALL_REGISTERS)


class ThreadStatus:
    RUNNABLE = "runnable"
    BLOCKED = "blocked"     # waiting on a lock or a join
    FINISHED = "finished"


@dataclass
class Frame:
    """One call frame: enough for backtraces and frame-scoped analyses."""

    func: str
    call_addr: int          # address of the call instruction (-1 for entry)
    return_addr: int
    frame_id: int           # unique per (thread, dynamic call)
    fp_at_entry: int = 0


class ThreadContext:
    """Architectural state of one guest thread."""

    def __init__(self, tid: int, entry_pc: int, stack_base: int) -> None:
        self.tid = tid
        self.pc = entry_pc
        self.status = ThreadStatus.RUNNABLE
        self.regs: Dict[str, Word] = {name: 0 for name in ALL_REGISTERS}
        self.regs["sp"] = stack_base
        self.regs["fp"] = stack_base
        self.stack_base = stack_base          # highest address + 1 of stack
        self.stack_limit = stack_base - (1 << 14)
        #: Instructions this thread has executed (region-relative).
        self.instr_count = 0
        #: What the thread is blocked on: ("lock", addr) or ("join", tid)
        #: or ("sleep", wake_at_seq).
        self.block_reason: Optional[tuple] = None
        self.frames: List[Frame] = []
        self._next_frame_id = 0
        #: Exit value (r0 of the entry function at thread exit).
        self.exit_value: Word = 0

    # -- frames ----------------------------------------------------------------

    def push_frame(self, func: str, call_addr: int, return_addr: int) -> Frame:
        frame = Frame(
            func=func,
            call_addr=call_addr,
            return_addr=return_addr,
            frame_id=self._next_frame_id,
            fp_at_entry=self.regs["fp"],
        )
        self._next_frame_id += 1
        self.frames.append(frame)
        return frame

    def pop_frame(self) -> Optional[Frame]:
        if self.frames:
            return self.frames.pop()
        return None

    def current_frame(self) -> Optional[Frame]:
        return self.frames[-1] if self.frames else None

    # -- snapshot / restore ------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "tid": self.tid,
            "pc": self.pc,
            "status": self.status,
            "regs": dict(self.regs),
            "stack_base": self.stack_base,
            "stack_limit": self.stack_limit,
            "block_reason": list(self.block_reason) if self.block_reason else None,
            "frames": [
                {
                    "func": f.func,
                    "call_addr": f.call_addr,
                    "return_addr": f.return_addr,
                    "frame_id": f.frame_id,
                    "fp_at_entry": f.fp_at_entry,
                }
                for f in self.frames
            ],
            "next_frame_id": self._next_frame_id,
            # Mid-region snapshots (checkpoints, reexec window starts) may
            # be taken after this thread exited; a later ``join`` must still
            # observe the recorded exit value.
            "exit_value": self.exit_value,
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "ThreadContext":
        """The thread ``snap`` describes; a ``ValueError`` if its
        registers are not exactly the ISA's."""
        regs = snap["regs"]
        if regs.keys() != _REGISTER_NAMES:
            names = set(regs)
            raise ValueError(
                "thread %r registers: missing %s, unknown %s"
                % (snap["tid"], sorted(_REGISTER_NAMES - names),
                   sorted(names - _REGISTER_NAMES)))
        thread = cls(snap["tid"], snap["pc"], snap["stack_base"])
        thread.status = snap["status"]
        thread.regs = dict(regs)
        thread.stack_limit = snap["stack_limit"]
        reason = snap.get("block_reason")
        thread.block_reason = tuple(reason) if reason else None
        thread.frames = [
            Frame(
                func=f["func"],
                call_addr=f["call_addr"],
                return_addr=f["return_addr"],
                frame_id=f["frame_id"],
                fp_at_entry=f["fp_at_entry"],
            )
            for f in snap["frames"]
        ]
        thread._next_frame_id = snap["next_frame_id"]
        thread.exit_value = snap.get("exit_value", 0)
        return thread

    def __repr__(self) -> str:
        return "<ThreadContext tid=%d pc=%d %s>" % (self.tid, self.pc, self.status)
