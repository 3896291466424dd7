"""Slicing configuration knobs, including the paper's precision features.

Every ablation benchmark flips one of these:

* ``refine_cfg`` — dynamic CFG refinement with observed indirect-jump
  targets (Section 5.1).  Off = the imprecise baseline of Figure 7.
* ``discover_jump_tables`` — an extra, oracle-ish mode our substrate makes
  possible: statically read switch jump tables so the CFG is complete from
  the start (real x86 static analysis cannot do this in general, which is
  the whole point of Section 5.1; useful as the precision upper bound).
* ``prune_save_restore`` / ``max_save`` — save/restore pair detection and
  spurious-dependence bypassing (Section 5.2); ``max_save`` is the paper's
  MaxSave tunable (10 in their Figure 13 experiments).
* ``block_size`` — the LP trace-block granularity of Zhang et al.
* ``track_stack_pointer`` — whether ``sp`` participates in register
  def/use chains.  Off by default: stack-slot dependences are already
  tracked precisely through memory addresses, and threading every push/pop
  through ``sp`` would chain all stack operations together (the same
  engineering choice practical binary slicers make).
* ``columnar`` — trace storage layout.  On (default): the interned
  columnar store with lazy record views (the predecoded engine's hot
  path).  Off: the seed record-per-row layout, kept as the perf
  benchmark's measured baseline and the differential tests' reference.
* ``index`` — the slice-query engine:

  - ``"ddg"`` (default): one pass over the trace compiles every
    data/control/save-restore dependence into a CSR dynamic dependence
    graph (:mod:`repro.slicing.ddg`); each query is then an int-array
    graph traversal with memoized reachability fragments and an LRU of
    complete slices — the build-once/query-many engine for cyclic
    debugging.
  - ``"columnar"``: the per-query backward scan over the interned
    columns with LP block skipping (falls back to the record scan when
    the trace store is row-based).
  - ``"rows"``: the seed record-at-a-time backward scan, kept as the
    differential tests' reference and the benchmark baseline.
  - ``"reexec"``: on-demand re-execution slicing — no full trace is
    collected at all.  One *selective-mode* scaffold replay (a fourth
    micro-op table: near-untraced speed, recording only per-thread pc
    streams plus the few execution-time facts static analysis cannot
    recover — branch region ends, syscall result presence, verified
    save/restore pairs) seeds the session; each query then resolves
    its dependences offline, re-replaying checkpoint-bounded windows
    of the pinball on demand to recover memory-access addresses,
    memoized into a sparse partial DDG that warms up across a
    session's queries.  Slices are byte-identical to ``"ddg"``
    (``tests/slicing/test_reexec_differential.py``); peak memory stays
    proportional to the windows a query actually touches, not the
    region.  Query cost scales with the pinball's checkpoint interval
    (each window pass replays at most one interval of steps).

  The environment variable ``REPRO_SLICE_INDEX`` overrides the default
  (used by CI to run the tier-1 suite against every engine); resolution
  goes through :mod:`repro.config` (explicit arg > CLI > env > default).
* ``slice_cache_size`` / ``closure_memo_size`` — the DDG engine's result
  LRU (complete ``DynamicSlice`` objects keyed by criterion+locations)
  and reachable-set fragment memo; 0 disables either cache.
* ``obs`` — enable the process-wide observability registry
  (:data:`repro.obs.OBS`) for this session: per-phase spans and counters
  across the whole pipeline (vm, pinplay, slicing, debugger, maple).
  Defaults to the ``REPRO_OBS`` environment variable; the CLI's
  ``--obs`` flag and ``repro obs report`` set it too.  Purely
  observational — enabling it never changes replay or slice results
  (``tests/obs/test_obs_differential.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import config

#: The recognised slice-query engines (see the module docstring).
SLICE_INDEXES = ("ddg", "columnar", "rows", "reexec")


def _default_index() -> str:
    """Default engine via :func:`repro.config.slice_index`."""
    return config.slice_index()


def _default_obs() -> bool:
    """Default observability via :func:`repro.config.obs_enabled`."""
    return config.obs_enabled()


@dataclass(frozen=True)
class SliceOptions:
    refine_cfg: bool = True
    discover_jump_tables: bool = False
    prune_save_restore: bool = True
    max_save: int = 10
    block_size: int = 1024
    track_stack_pointer: bool = False
    record_values: bool = True
    columnar: bool = True
    index: str = field(default_factory=_default_index)
    slice_cache_size: int = 128
    closure_memo_size: int = 256
    obs: bool = field(default_factory=_default_obs)

    def __post_init__(self) -> None:
        if self.max_save < 0:
            raise ValueError("max_save must be >= 0")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.index not in SLICE_INDEXES:
            raise ValueError("index must be one of %r, got %r"
                             % (SLICE_INDEXES, self.index))
        if self.slice_cache_size < 0:
            raise ValueError("slice_cache_size must be >= 0")
        if self.closure_memo_size < 0:
            raise ValueError("closure_memo_size must be >= 0")
