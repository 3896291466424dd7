"""Maple's active scheduling phase: force a predicted interleaving.

The :class:`ActiveScheduler` realizes one idiom-1 iRoot by thread-priority
control, like Maple's active scheduler (which "runs the program on a
single processor and controls thread execution by changing scheduling
priorities"):

* until the iRoot's *first* access has executed, any thread whose next
  instruction is the *second* access site is held back (not scheduled) as
  long as another thread can run;
* a give-up budget bounds the delay, so an unrealizable candidate cannot
  livelock the run (Maple's timeout analog).

Among the threads it does not hold, it rotates round-robin with quantum
:data:`BASE_QUANTUM`.  So a forced run is round-robin until its first
*hold*: the first pick at which a runnable thread sits at the second
site while the first has not run.  If the first site runs before any
hold, nothing is ever held and the whole run is round-robin.  Hunt runs
that prefix once for the forced candidates it evaluates together and
forks each at its first hold (:mod:`repro.analysis.hunt`).

The scheduler watches its own iRoot: it notes a committed step on one
of the two sites and settles the note at the next pick (or when the
watch is read), counting it only if the thread retired an instruction.
With no per-instruction tool the forced run stays on the untraced path,
and — the DrDebug integration the paper describes — records under the
PinPlay logger like any other schedule, so the exposed bug lands in an
ordinary pinball.  A region's fast-forward steps are not watched.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.maple.idioms import IRoot
from repro.vm.scheduler import Scheduler

#: Round-robin quantum among the threads not held back.
BASE_QUANTUM = 20


class ActiveScheduler(Scheduler):
    """Priority-controlled scheduler steering toward one iRoot."""

    def __init__(self, iroot: IRoot,
                 give_up_budget: int = 10_000,
                 base_quantum: int = BASE_QUANTUM) -> None:
        self.iroot = iroot
        self.give_up_budget = give_up_budget
        self.base_quantum = base_quantum
        self.delays = 0
        self.gave_up = False
        self._first_pc = iroot.first.pc
        self._second_pc = iroot.second.pc
        self._first_by: Optional[int] = None
        self._second_by: Optional[int] = None
        self._realized = False
        #: (tid, pc, retired count) of the last committed step on a
        #: watched site, until the next pick settles it.
        self._note: Optional[tuple] = None
        self._machine = None
        self._remaining = base_quantum
        self._current: Optional[int] = None

    def attach(self, machine) -> None:
        self._machine = machine

    # -- the iRoot watch ------------------------------------------------------

    def _settle(self) -> None:
        note = self._note
        if note is None:
            return
        self._note = None
        tid, pc, retired = note
        if self._machine.threads[tid].instr_count <= retired:
            return      # the step blocked: nothing executed
        if pc == self._first_pc and self._first_by is None:
            self._first_by = tid
        elif (pc == self._second_pc and self._first_by is not None
              and self._second_by is None):
            self._second_by = tid
            self._realized = tid != self._first_by

    @property
    def first_done_by(self) -> Optional[int]:
        """The thread that executed the iRoot's first access, if any."""
        self._settle()
        return self._first_by

    @property
    def second_done_by(self) -> Optional[int]:
        """The thread that executed the second access after the first."""
        self._settle()
        return self._second_by

    @property
    def realized(self) -> bool:
        """Did the two accesses run in iRoot order from different threads?"""
        self._settle()
        return self._realized

    # -- scheduling -----------------------------------------------------------

    def _is_held(self, tid: int) -> bool:
        """Should ``tid`` be delayed right now?"""
        if self.gave_up or self._first_by is not None:
            return False
        thread = self._machine.threads.get(tid)
        return thread is not None and thread.pc == self._second_pc

    def pick(self, runnable: Sequence[int], last: Optional[int]) -> int:
        if self._note is not None:
            self._settle()
        eligible = [tid for tid in runnable if not self._is_held(tid)]
        if not eligible:
            # Everyone runnable sits at the second access: we must run one
            # (otherwise we livelock); count it against the budget.
            self.delays += 1
            if self.delays >= self.give_up_budget:
                self.gave_up = True
            return runnable[0]
        if len(eligible) != len(runnable):
            self.delays += 1
            if self.delays >= self.give_up_budget:
                self.gave_up = True
        # Round-robin among the eligible for fairness.
        if (last in eligible and last == self._current
                and self._remaining > 0):
            return last
        if last is None or last not in eligible:
            return eligible[0]
        for tid in eligible:
            if tid > last:
                return tid
        return eligible[0]

    def commit(self, tid: int) -> None:
        if tid == self._current:
            self._remaining -= 1
        else:
            self._current = tid
            self._remaining = self.base_quantum - 1
        if self._second_by is not None:
            return      # the watch is complete
        machine = self._machine
        thread = machine.threads[tid]
        pc = thread.pc
        if ((pc == self._first_pc or pc == self._second_pc)
                and not machine.fast_forwarding):
            self._note = (tid, pc, thread.instr_count)
