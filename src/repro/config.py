"""``repro.config`` — the one resolver for every configuration knob.

Four PRs of growth scattered configuration across the tree: the slice
engine hid in ``repro.slicing.options``, the observability toggle in
``repro.obs.registry``'s import-time check, the pool width in
``repro.serve.workers``, the interpreter choice in ``repro.vm.machine``
and the benchmark smoke switch in every ``benchmarks/test_perf_*``
module.  Each read ``os.environ`` itself with its own parsing and its
own (sometimes inconsistent) fallback behavior.  This module replaces
all of those with a single table of knobs and one precedence rule.

**Precedence**, strongest first:

1. **explicit argument** — a value passed directly to a constructor or
   function (``SliceOptions(index="rows")``, ``WorkerPool(workers=4)``,
   ``Machine(..., engine="legacy")``);
2. **CLI flag** — the command line (``--index``, ``--obs``,
   ``--workers``).  The CLI resolves flags through :func:`resolve`
   before constructing anything, so lower layers never see argparse;
3. **environment variable** — the ``REPRO_*`` family (how the CI matrix
   pins riders without touching code);
4. **built-in default**.

The knobs:

========================  =========================  ==========  =======
environment variable      resolver                   type        default
========================  =========================  ==========  =======
``REPRO_ENGINE``          :func:`engine`             choice      ``predecoded``
``REPRO_SLICE_INDEX``     :func:`slice_index`        choice      ``ddg``
``REPRO_OBS``             :func:`obs_enabled`        bool        ``False``
``REPRO_SERVE_WORKERS``   :func:`serve_workers`      int >= 1    ``2``
``REPRO_PERF_SMOKE``      :func:`perf_smoke`         bool        ``False``
``REPRO_PINBALL_FORMAT``  :func:`pinball_format`     choice      ``v1``
``REPRO_CHECKPOINT_INTERVAL``  :func:`checkpoint_interval`  int >= 1  ``500``
``REPRO_INDEX_CACHE``     :func:`index_cache`        bool        ``True``
``REPRO_ROUTER_NODES``    :func:`router_nodes`       str         ``""``
``REPRO_HUNT_WORKERS``    :func:`hunt_workers`       int >= 1    ``2``
``REPRO_HUNT_BUDGET``     :func:`hunt_budget`        int >= 1    ``24``
========================  =========================  ==========  =======

Semantics, uniform across every knob:

* booleans: unset, empty, or ``"0"`` mean False; anything else True;
* explicit and CLI values are validated strictly — a bad value raises
  :class:`ValueError` naming the knob and the accepted values;
* environment values are validated strictly too *when set*: a typo'd
  ``REPRO_SLICE_INDEX=quantum`` should fail the run loudly rather than
  silently pick the default and invalidate the CI matrix leg that set
  it.  An unset/empty variable simply falls through to the default.

This module deliberately imports nothing from the rest of ``repro`` so
every layer (including :mod:`repro.obs.registry`, which consults it at
import time) can depend on it without cycles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

__all__ = [
    "KNOBS",
    "Knob",
    "checkpoint_interval",
    "engine",
    "hunt_budget",
    "hunt_workers",
    "index_cache",
    "obs_enabled",
    "perf_smoke",
    "pinball_format",
    "precedence_table",
    "resolve",
    "router_nodes",
    "serve_workers",
    "slice_index",
]

#: Recognised interpreter engines (mirrored by ``repro.vm.ENGINES``).
_ENGINES = ("predecoded", "legacy")
#: Recognised slice-query engines (mirrored by ``SLICE_INDEXES``).
_SLICE_INDEXES = ("ddg", "columnar", "rows", "reexec")
#: Recognised pinball serialization formats.
_PINBALL_FORMATS = ("v1", "v2")

_FALSEY = ("", "0")


def _parse_bool(text: str):
    return text not in _FALSEY


def _parse_int(text: str):
    return int(text)


def _positive(value: int) -> Optional[str]:
    if int(value) < 1:
        return "must be >= 1"
    return None


def _choice(choices: Tuple[str, ...]) -> Callable[[str], Optional[str]]:
    def check(value) -> Optional[str]:
        if value not in choices:
            return "must be one of %s" % (", ".join(choices),)
        return None
    return check


@dataclass(frozen=True)
class Knob:
    """One configuration knob: its env name, type, default, validator."""

    name: str                 #: resolver name (``slice_index``, ...)
    env: str                  #: environment variable (``REPRO_*``)
    default: object           #: built-in default (weakest source)
    parse: Callable           #: str -> value, for env/CLI strings
    validate: Optional[Callable] = None   #: value -> error text or None
    doc: str = ""             #: one line for the precedence table

    def coerce(self, value, source: str):
        """Parse (if a string) and validate ``value`` from ``source``."""
        if isinstance(value, str):
            value = value.strip()
            if self.parse is not _identity:
                try:
                    value = self.parse(value)
                except (TypeError, ValueError):
                    raise ValueError(
                        "%s (%s from %s): cannot parse %r"
                        % (self.name, self.env, source, value))
        if self.validate is not None:
            problem = self.validate(value)
            if problem is not None:
                raise ValueError("%s (%s from %s): %s, got %r"
                                 % (self.name, self.env, source, problem,
                                    value))
        return value


def _identity(text: str):
    return text


KNOBS: Dict[str, Knob] = {
    knob.name: knob for knob in (
        Knob("engine", "REPRO_ENGINE", "predecoded", _identity,
             _choice(_ENGINES),
             doc="interpreter engine for new Machines"),
        Knob("slice_index", "REPRO_SLICE_INDEX", "ddg", _identity,
             _choice(_SLICE_INDEXES),
             doc="slice-query engine (DDG, backward scans, or reexec)"),
        Knob("obs", "REPRO_OBS", False, _parse_bool,
             doc="process-wide observability registry on/off"),
        Knob("serve_workers", "REPRO_SERVE_WORKERS", 2, _parse_int,
             _positive,
             doc="debug-service worker-pool width"),
        Knob("perf_smoke", "REPRO_PERF_SMOKE", False, _parse_bool,
             doc="benchmarks: reduced sizes, no perf-ratio assertions"),
        Knob("pinball_format", "REPRO_PINBALL_FORMAT", "v1", _identity,
             _choice(_PINBALL_FORMATS),
             doc="default pinball serialization (v1 JSON, v2 streamed)"),
        Knob("checkpoint_interval", "REPRO_CHECKPOINT_INTERVAL", 500,
             _parse_int, _positive,
             doc="steps between embedded / reverse-debug checkpoints "
                 "(bounds each reexec window pass)"),
        Knob("index_cache", "REPRO_INDEX_CACHE", True, _parse_bool,
             doc="persist built DDG indexes in the store for warm starts"),
        Knob("router_nodes", "REPRO_ROUTER_NODES", "", _identity,
             doc="comma-separated host:port serve nodes for `repro "
                 "router`"),
        Knob("hunt_workers", "REPRO_HUNT_WORKERS", 2, _parse_int,
             _positive,
             doc="parallel candidate-evaluation lanes for served hunts"),
        Knob("hunt_budget", "REPRO_HUNT_BUDGET", 24, _parse_int,
             _positive,
             doc="max candidate schedules a hunt re-executes"),
    )
}


def resolve(name: str, explicit=None, cli=None):
    """Resolve knob ``name``: explicit arg > CLI flag > env > default.

    ``None`` means "not given" at each level (so a CLI flag whose
    argparse default is ``None`` falls through cleanly).  Explicit and
    CLI values are validated; set-but-invalid environment values raise
    :class:`ValueError` rather than silently masking a typo.
    """
    knob = KNOBS[name]
    if explicit is not None:
        return knob.coerce(explicit, "argument")
    if cli is not None:
        return knob.coerce(cli, "cli")
    raw = os.environ.get(knob.env)
    if raw is not None and raw.strip() != "":
        return knob.coerce(raw, "environment")
    return knob.default


# -- typed conveniences (what the rest of the tree calls) ---------------------

def engine(explicit: Optional[str] = None, cli: Optional[str] = None) -> str:
    """Interpreter engine: ``predecoded`` (default) or ``legacy``."""
    return resolve("engine", explicit, cli)


def slice_index(explicit: Optional[str] = None,
                cli: Optional[str] = None) -> str:
    """Slice-query engine: ``ddg`` (default), ``columnar``, ``rows`` or
    ``reexec`` (on-demand re-execution over the pinball)."""
    return resolve("slice_index", explicit, cli)


def obs_enabled(explicit: Optional[bool] = None,
                cli: Optional[bool] = None) -> bool:
    """Whether the observability registry should be enabled."""
    return resolve("obs", explicit, cli)


def serve_workers(explicit: Optional[int] = None,
                  cli: Optional[int] = None) -> int:
    """Debug-service worker-pool width (default 2)."""
    return resolve("serve_workers", explicit, cli)


def perf_smoke(explicit: Optional[bool] = None,
               cli: Optional[bool] = None) -> bool:
    """Benchmark smoke mode: small sizes, correctness-only assertions."""
    return resolve("perf_smoke", explicit, cli)


def pinball_format(explicit: Optional[str] = None,
                   cli: Optional[str] = None) -> str:
    """Pinball serialization format: ``v1`` (default) or ``v2``."""
    return resolve("pinball_format", explicit, cli)


def checkpoint_interval(explicit: Optional[int] = None,
                        cli: Optional[int] = None) -> int:
    """Steps between embedded (v2) / reverse-debugging checkpoints."""
    return resolve("checkpoint_interval", explicit, cli)


def index_cache(explicit: Optional[bool] = None,
                cli: Optional[bool] = None) -> bool:
    """Whether serve sessions persist/load built DDG indexes through the
    store's index cache (default True)."""
    return resolve("index_cache", explicit, cli)


def router_nodes(explicit: Optional[str] = None,
                 cli: Optional[str] = None) -> str:
    """Comma-separated ``host:port`` list of serve nodes behind
    ``repro router`` (empty = must be given on the command line)."""
    return resolve("router_nodes", explicit, cli)


def hunt_workers(explicit: Optional[int] = None,
                 cli: Optional[int] = None) -> int:
    """Parallel candidate-evaluation lanes for served hunts (default 2)."""
    return resolve("hunt_workers", explicit, cli)


def hunt_budget(explicit: Optional[int] = None,
                cli: Optional[int] = None) -> int:
    """Maximum candidate schedules one hunt re-executes (default 24)."""
    return resolve("hunt_budget", explicit, cli)


def precedence_table() -> str:
    """The knob table as aligned text (used by docs and ``--help`` epilogs)."""
    rows = [(knob.env, knob.name, str(knob.default), knob.doc)
            for knob in sorted(KNOBS.values(), key=lambda k: k.env)]
    headers = ("variable", "resolver", "default", "meaning")
    widths = [max(len(row[i]) for row in rows + [headers])
              for i in range(4)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(w)
                               for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)
