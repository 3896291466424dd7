"""DrDebug's debugger: cyclic, replay-based debugging with slicing.

The paper's user-facing layer — GDB plus the KDbg GUI — maps to:

* :class:`~repro.debugger.session.DrDebugSession` — the debugger core:
  replays a pinball with breakpoints, instruction/line stepping, state
  inspection (globals, locals, threads, backtraces), slice computation,
  slice-pinball generation, and *slice stepping* (run the slice pinball,
  stopping at each successive statement of the slice — the capability the
  paper notes no other slicing tool provides);
* :class:`~repro.debugger.commands.DrDebugCLI` — a gdb-style command
  interpreter (``break``/``run``/``continue``/``stepi``/``print``/
  ``info threads``/``slice``/``slice-step``/...) usable interactively or
  scripted in tests;
* :class:`~repro.debugger.navigator.SliceNavigator` — the KDbg stand-in:
  renders annotated source listings with slice statements highlighted and
  navigates backwards along concrete dependence edges.

Because every session replays the same pinball, every debugging iteration
observes the identical program state — the cyclic-debugging guarantee.
"""

from repro.debugger.breakpoints import Breakpoint, BreakpointTable
from repro.debugger.checkpoints import CheckpointManager
from repro.debugger.session import DrDebugSession
from repro.debugger.commands import DrDebugCLI
from repro.debugger.navigator import SliceNavigator

__all__ = [
    "Breakpoint",
    "BreakpointTable",
    "CheckpointManager",
    "DrDebugCLI",
    "DrDebugSession",
    "SliceNavigator",
]
