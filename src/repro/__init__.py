"""DrDebug reproduction: deterministic replay based cyclic debugging
with dynamic slicing.

A from-scratch Python reproduction of *DrDebug* (Wang, Patil, Pereira,
Lueck, Gupta, Neamtiu — CGO 2014), including every substrate the paper
builds on:

* :mod:`repro.isa` — a register-based mini-ISA with the x86 features that
  matter to slicing (indirect jumps, save/restore idioms);
* :mod:`repro.lang` — MiniC, a C-like language compiled to the ISA;
* :mod:`repro.vm` — a multi-threaded interpreter with Pin-style
  instrumentation hooks;
* :mod:`repro.pinplay` — the PinPlay analog: logger, replayer, relogger,
  pinballs;
* :mod:`repro.analysis` — static code discovery, CFGs with dynamic
  indirect-jump refinement, post-dominators;
* :mod:`repro.slicing` — precise dynamic slicing for multi-threaded
  programs over replay (global-trace construction, LP traversal, dynamic
  control dependences, save/restore pruning);
* :mod:`repro.debugger` — the GDB/KDbg analog: breakpoints, stepping,
  slice browsing, execution-slice stepping;
* :mod:`repro.maple` — the Maple analog: interleaving profiling and
  active scheduling to expose bugs, integrated with the logger;
* :mod:`repro.workloads` — bug analogs (Table 1) and PARSEC/SPECOMP-like
  kernels for the evaluation.

Quickstart::

    from repro import (compile_source, record, RegionSpec,
                       RandomScheduler, SlicingSession, DrDebugSession)

    program = compile_source(MINI_C_SOURCE)
    pinball = record(program, RandomScheduler(seed=7), RegionSpec())
    session = SlicingSession(pinball, program)
    dslice = session.slice_for(session.failure_criterion())

This module is the *stable* public surface: everything in ``__all__``
is blessed, everything else should be imported from its subpackage and
may move.  Configuration (engine choice, slice index, observability,
pool width) resolves through :mod:`repro.config` with one precedence
rule: explicit argument > CLI flag > ``REPRO_*`` environment variable >
default.
"""

__version__ = "1.0.0"

from repro.lang import CompileError, compile_source
from repro.isa import Program, assemble, disassemble
from repro.vm import (
    AssertionFailure,
    Machine,
    RandomScheduler,
    RecordedScheduler,
    ReplayDivergence,
    RoundRobinScheduler,
    Tool,
    VMError,
)
from repro.pinplay import (
    Pinball,
    RegionSpec,
    record_region,
    relog,
    replay,
)
from repro.slicing import DynamicSlice, SliceOptions, SlicingSession
from repro.debugger import DrDebugCLI, DrDebugSession, SliceNavigator
from repro.maple import expose_and_record
from repro.detect import detect_races
from repro.serve import DebugClient
from repro.obs import OBS
from repro import config

#: Blessed short name for the logger entry point: ``record(program,
#: scheduler, region)`` — the paper's "log a region pinball" step.
record = record_region

__all__ = [
    "AssertionFailure",
    "CompileError",
    "DebugClient",
    "DrDebugCLI",
    "DrDebugSession",
    "DynamicSlice",
    "Machine",
    "OBS",
    "Pinball",
    "Program",
    "RandomScheduler",
    "RecordedScheduler",
    "RegionSpec",
    "ReplayDivergence",
    "RoundRobinScheduler",
    "SliceNavigator",
    "SliceOptions",
    "SlicingSession",
    "Tool",
    "VMError",
    "assemble",
    "compile_source",
    "config",
    "detect_races",
    "disassemble",
    "expose_and_record",
    "record",
    "record_region",
    "relog",
    "replay",
    "__version__",
]
