"""Thread schedulers: the VM's single biggest source of nondeterminism.

The machine asks the scheduler for a tid before every instruction, so the
interleaving is at single-instruction granularity — fine enough for any
data race to manifest.  A scheduler that already knows it will keep
picking the same thread says so through :meth:`Scheduler.lease`, and the
machine then runs those steps without asking.  Schedulers provided:

* :class:`RoundRobinScheduler` — deterministic quantum-based rotation.
* :class:`RandomScheduler` — seeded random preemption; different seeds give
  different interleavings, which is how tests shake out races.
* :class:`RecordedScheduler` — follows the run-length-encoded schedule from
  a pinball; this is what makes replay deterministic.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.vm.errors import ReplayDivergence


class Scheduler:
    """Interface: pick the next thread to run one instruction."""

    def pick(self, runnable: Sequence[int], last: Optional[int]) -> int:
        """Return the tid to run next.

        ``runnable`` is the sorted list of runnable tids (never empty);
        ``last`` is the previously run tid (or None at start).  The machine
        may *discard* a pick (e.g. the chosen thread sits on a breakpoint),
        so replay-critical schedulers must only consume state in
        :meth:`commit`.
        """
        raise NotImplementedError

    def commit(self, tid: int) -> None:
        """The machine confirms ``tid`` actually took the step."""

    def lease(self, tid: int) -> int:
        """How many further steps of ``tid`` are already decided.

        Asked right after ``commit(tid)``: the number of following picks
        that return ``tid`` for as long as ``tid`` stays runnable,
        whatever the other threads do.  The machine runs that many steps
        in one batch without asking again (see :meth:`Machine.run
        <repro.vm.machine.Machine.run>`) and reports them with
        :meth:`commit_many`.  The default, 0, leaves every step to
        :meth:`pick`: right for schedulers that draw a random number or
        run a callback on each pick."""
        return 0

    def commit_many(self, tid: int, n: int) -> None:
        """``n`` consecutive :meth:`commit` calls for ``tid``."""
        for _ in range(n):
            self.commit(tid)

    def attach(self, machine) -> None:
        """Called once by the machine that will use this scheduler.

        Schedulers that need to inspect thread state (e.g. the Maple-style
        active scheduler peeking at upcoming pcs) keep the reference."""

    def intended(self) -> Optional[int]:
        """The tid this scheduler will pick next, if predetermined.

        Only replay schedulers return a value.  The machine uses it to
        wake a sleeping thread the schedule is about to run: a recorded
        step implies the thread was awake at this point in the original
        run, and sleep deadlines measured in global steps shift when a
        slice pinball drops excluded steps."""
        return None

    def on_thread_created(self, tid: int) -> None:
        """Notification hook; schedulers may ignore it."""

    def on_thread_finished(self, tid: int) -> None:
        """Notification hook; schedulers may ignore it."""


class RoundRobinScheduler(Scheduler):
    """Run each thread for ``quantum`` instructions, then rotate."""

    def __init__(self, quantum: int = 50) -> None:
        if quantum < 1:
            raise ValueError("quantum must be >= 1")
        self.quantum = quantum
        self._remaining = quantum
        self._current: Optional[int] = None

    def pick(self, runnable: Sequence[int], last: Optional[int]) -> int:
        if (last is not None and last in runnable and last == self._current
                and self._remaining > 0):
            return last
        if last is None or last not in runnable:
            return runnable[0]
        # Rotate: next runnable tid greater than last, else wrap.
        for tid in runnable:
            if tid > last:
                return tid
        return runnable[0]

    def commit(self, tid: int) -> None:
        if tid == self._current:
            self._remaining -= 1
        else:
            self._current = tid
            self._remaining = self.quantum - 1

    def lease(self, tid: int) -> int:
        """The rest of ``tid``'s quantum."""
        if tid == self._current and self._remaining > 0:
            return self._remaining
        return 0

    def commit_many(self, tid: int, n: int) -> None:
        if n > 0:
            self.commit(tid)
            self._remaining -= n - 1


class RandomScheduler(Scheduler):
    """Seeded random preemption with probability ``switch_prob`` per step."""

    def __init__(self, seed: int = 0, switch_prob: float = 0.05) -> None:
        self._rng = random.Random(seed)
        self.switch_prob = switch_prob
        self.seed = seed

    def pick(self, runnable: Sequence[int], last: Optional[int]) -> int:
        if (last is not None and last in runnable
                and self._rng.random() >= self.switch_prob):
            return last
        return runnable[self._rng.randrange(len(runnable))]


class RecordedScheduler(Scheduler):
    """Replay a run-length-encoded schedule ``[(tid, count), ...]``.

    Raises :class:`ReplayDivergence` if the recorded tid is not runnable —
    which, for a well-formed pinball replayed on the same program, cannot
    happen (the property tests assert this).
    """

    def __init__(self, schedule: Sequence[Tuple[int, int]]) -> None:
        self._schedule: List[Tuple[int, int]] = [
            (int(tid), int(count)) for tid, count in schedule]
        self._index = 0
        # O(1) per-step state: the current run's tid and how many of its
        # steps remain.  pick/commit/intended are called (at least) once
        # per machine step, so they must not re-walk the RLE list.
        self._cur_tid: Optional[int] = None
        self._remaining = 0
        self._advance()

    def _advance(self) -> None:
        """Load the next non-empty run into the O(1) cursor."""
        schedule = self._schedule
        index = self._index
        while index < len(schedule):
            tid, count = schedule[index]
            if count > 0:
                self._index = index
                self._cur_tid = tid
                self._remaining = count
                return
            index += 1
        self._index = index
        self._cur_tid = None
        self._remaining = 0

    def pick(self, runnable: Sequence[int], last: Optional[int]) -> int:
        tid = self._cur_tid
        if tid is None:
            raise ReplayDivergence("recorded schedule exhausted")
        if tid not in runnable:
            raise ReplayDivergence(
                "recorded tid %d not runnable (runnable=%s)"
                % (tid, list(runnable)))
        return tid

    def commit(self, tid: int) -> None:
        if tid != self._cur_tid:
            raise ReplayDivergence(
                "commit of tid %d does not match schedule" % tid)
        self._remaining -= 1
        if self._remaining == 0:
            self._index += 1
            self._advance()

    def lease(self, tid: int) -> int:
        """The rest of the current RLE run."""
        return self._remaining if tid == self._cur_tid else 0

    def commit_many(self, tid: int, n: int) -> None:
        if tid != self._cur_tid or not 0 < n <= self._remaining:
            super().commit_many(tid, n)   # commit() raises where due
            return
        self._remaining -= n
        if self._remaining == 0:
            self._index += 1
            self._advance()

    def intended(self) -> Optional[int]:
        return self._cur_tid

    @property
    def exhausted(self) -> bool:
        return self._cur_tid is None


class ScheduleRecorder:
    """Accumulates an RLE schedule ``[(tid, count), ...]`` as steps happen.

    Fed one :meth:`record` per step (from a tool's ``on_step``), or
    whole runs as a machine's schedule log
    (:meth:`Machine.set_schedule_log
    <repro.vm.machine.Machine.set_schedule_log>`), whose last run stays
    pending until :meth:`finish`.
    """

    def __init__(self) -> None:
        self.runs: List[Tuple[int, int]] = []
        # Pending run, owned by the machine loop between run() calls.
        self._run_tid: Optional[int] = None
        self._run_count = 0

    def record(self, tid: int) -> None:
        if self.runs and self.runs[-1][0] == tid:
            last_tid, count = self.runs[-1]
            self.runs[-1] = (last_tid, count + 1)
        else:
            self.runs.append((tid, 1))

    def append_run(self, tid: int, count: int) -> None:
        self.runs.append((tid, count))

    def finish(self) -> List[Tuple[int, int]]:
        """The runs, the machine loop's pending one flushed."""
        if self._run_count:
            self.runs.append((self._run_tid, self._run_count))
            self._run_tid = None
            self._run_count = 0
        return self.runs

    def total(self) -> int:
        return sum(count for _, count in self.runs)
