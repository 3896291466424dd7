"""Maple's profiling phase: observe interleavings, predict untested ones.

Each profiling run executes the program under a differently-seeded random
scheduler while a :class:`ProfilerTool` records, for every shared
address, the ordered pairs of static access sites that executed
back-to-back from different threads (with at least one write) — the
*observed* iRoots.  Predicted iRoots are the reversals of observed ones
that no run has exhibited yet; those are the candidate interleavings the
active scheduler will force.

The tool listens on the recorder protocol like the online race
detector (:meth:`ProfilerTool.on_mem`), on either engine; no profiling
run builds an instruction event.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.isa.program import Program
from repro.maple.idioms import IRoot, MemAccess
from repro.obs.registry import OBS
from repro.vm.hooks import ListeningRecorder
from repro.vm.machine import Machine
from repro.vm.scheduler import RandomScheduler


class ProfilerTool(ListeningRecorder):
    """Records observed idiom-1 iRoots during one run."""

    def __init__(self, shared_limit: Optional[int] = None) -> None:
        #: Only addresses below this count as interesting (defaults to all).
        self.shared_limit = shared_limit
        #: on_mem ignores every address outside [0, shared_limit), so the
        #: machine skips the call for a one-address step outside it.
        self.watch_window = (0, shared_limit if shared_limit is not None
                             else float("inf"))
        self.observed: Set[IRoot] = set()
        #: addr -> (tid, pc, is_write) of the last access.
        self._last: Dict[int, Tuple[int, int, bool]] = {}

    def attach(self, machine: Machine) -> None:
        """Arm the tool as ``machine``'s recorder."""
        machine.set_recorder(self)

    def _access(self, tid: int, pc: int, addr: int, is_write: bool) -> None:
        if self.shared_limit is not None and addr >= self.shared_limit:
            return
        last = self._last.get(addr)
        if last is not None:
            last_tid, last_pc, last_write = last
            if last_tid != tid and (last_write or is_write):
                self.observed.add(IRoot(
                    first=MemAccess(last_pc, last_write),
                    second=MemAccess(pc, is_write)))
        self._last[addr] = (tid, pc, is_write)

    def on_mem(self, tid: int, tindex: int, read_addrs, write_addrs,
               pc: int = -1) -> None:
        for addr in read_addrs:
            self._access(tid, pc, addr, False)
        for addr in write_addrs:
            self._access(tid, pc, addr, True)


class InterleavingProfiler:
    """Runs the profiling phase over several seeds."""

    def __init__(self, program: Program, inputs: Sequence = (),
                 globals_only: bool = True) -> None:
        self.program = program
        self.inputs = list(inputs)
        # Restricting to the globals segment keeps candidate sets focused
        # on program-level shared state (heap/stack races would need the
        # full limit — pass globals_only=False for those).
        self.shared_limit = program.data_size if globals_only else None
        self.observed: Set[IRoot] = set()
        self.failing_seed: Optional[int] = None

    def run(self, seeds: Sequence[int],
            switch_prob: float = 0.1,
            max_steps: int = 2_000_000) -> Set[IRoot]:
        """Profile under each seed; returns all observed iRoots.

        If a run happens to fail naturally, its seed is remembered in
        :attr:`failing_seed` (no active scheduling needed then).  Each
        run stops after ``max_steps`` steps from machine start.
        """
        observed_before = len(self.observed)
        runs = 0
        steps = 0
        with OBS.span("maple.profile"):
            for seed in seeds:
                runs += 1
                tool = ProfilerTool(self.shared_limit)
                machine = Machine(
                    self.program,
                    scheduler=RandomScheduler(seed=seed,
                                              switch_prob=switch_prob),
                    inputs=self.inputs)
                tool.attach(machine)
                steps += machine.run(max_steps=max_steps).steps
                self.observed.update(tool.observed)
                if machine.failure is not None and self.failing_seed is None:
                    self.failing_seed = seed
        if OBS.enabled:
            OBS.add("maple.profile_runs", runs)
            OBS.add("maple.profile_steps", steps)
            OBS.add("maple.iroots_observed",
                    len(self.observed) - observed_before)
        return self.observed

    def predicted(self) -> List[IRoot]:
        """Untested orderings: reversals of observed iRoots not yet seen."""
        candidates = []
        for iroot in sorted(self.observed,
                            key=lambda r: (r.first.pc, r.second.pc)):
            reverse = iroot.reversed()
            if reverse not in self.observed and reverse.conflicts():
                candidates.append(reverse)
        OBS.add("maple.iroots_predicted", len(candidates))
        return candidates
