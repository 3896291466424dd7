"""PinPlay analog: record, deterministically replay, and relog executions.

The three tools of the paper's substrate, reimplemented over our VM:

* :func:`~repro.pinplay.logger.record_region` — the **logger**.  Fast-forwards
  (minimal instrumentation) to a region of interest, snapshots the full
  architectural state, then records everything nondeterministic while the
  region executes: the schedule, nondeterministic syscall results, and the
  shared-memory access order.  The result is a :class:`~repro.pinplay.pinball.Pinball`.
* :func:`~repro.pinplay.replayer.replay` — the **replayer**.  Re-executes a
  pinball exactly: same interleaving, same syscall results, same final
  state (verified by hash).  Analysis tools (the dynamic slicer, the
  debugger) attach to the replay.
* :func:`~repro.pinplay.relogger.relog` — the **relogger**.  Replays a region
  pinball while excluding the instruction instances outside a slice,
  detecting the side effects of excluded code, and emits a *slice pinball*
  whose replay skips the excluded code entirely and injects the side
  effects (paper Section 4).
"""

from repro.pinplay.pinball import Pinball, PinballFormatError
from repro.pinplay.format_v2 import EmbeddedCheckpoint, LazyPinball
from repro.pinplay.regions import RegionSpec
from repro.pinplay.logger import FastRecorder, record_region
from repro.pinplay.replayer import (SyscallInjector, generate_checkpoints,
                                    replay, replay_machine, resume_machine)
from repro.pinplay.relogger import RelogError, relog

__all__ = [
    "EmbeddedCheckpoint",
    "FastRecorder",
    "LazyPinball",
    "Pinball",
    "PinballFormatError",
    "RegionSpec",
    "RelogError",
    "SyscallInjector",
    "generate_checkpoints",
    "record_region",
    "relog",
    "replay",
    "replay_machine",
    "resume_machine",
]
