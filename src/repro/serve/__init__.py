"""``repro.serve`` — the resident debug service (ISSUE 4).

DrDebug is *cyclic*: one recording, many replay/slice queries against it
(paper Figure 2).  That access pattern is the shape of a long-lived
service, not a one-shot CLI — so this package keeps recordings and their
expensive derived state resident and serves concurrent clients:

* :mod:`repro.serve.store` — a content-addressed pinball repository on
  disk: sha256-keyed zlib blobs plus a JSON manifest carrying tags and
  metadata.  Identical recordings deduplicate to one blob; corrupt blobs
  surface as :class:`~repro.pinplay.pinball.PinballFormatError` naming
  the on-disk path; the manifest rewrite is atomic (write-temp +
  ``os.replace``).
* :mod:`repro.serve.sessions` — a session manager that opens a stored
  recording into a resident :class:`~repro.slicing.api.SlicingSession`
  with the DDG index pre-built, behind an LRU bounded by entry count
  *and* approximate bytes, so repeated queries against hot recordings
  skip the trace + index rebuild entirely.
* :mod:`repro.serve.workers` — a ``multiprocessing`` worker pool running
  trace/index builds and slice queries in parallel across recordings:
  per-request timeouts, a bounded queue with explicit backpressure
  rejection, and worker-crash handling (requeue once, then error).
* :mod:`repro.serve.rpc` / :mod:`repro.serve.server` /
  :mod:`repro.serve.client` — a newline-delimited JSON-RPC protocol over
  TCP (asyncio server, blocking client) exposing ``record``, ``replay``,
  ``slice``, ``last_reads``, ``races``, the ``store.*`` verbs,
  ``stats`` and ``shutdown``; the CLI's ``repro serve`` / ``repro
  client`` verbs sit on top.
* :mod:`repro.serve.router` — a thin asyncio front end for horizontal
  scale-out (ISSUE 8): N serve processes share one store; the router
  dispatches by key affinity (two-choice hashing on the recording sha),
  health-checks nodes, and retries a request once when a node dies
  mid-call.  Cold nodes warm-start from the store's persistent index
  cache (``<root>/indexes/``, see :mod:`repro.slicing.ddg_serde`).

Load comes from outside the package: perfbench's ``served`` workload
and ``benchmarks/test_perf_loadgen.py`` drive closed-loop clients over
the wire.

All four layers report into the observability registry under the
``serve`` layer prefix (``serve.requests``, ``serve.cache/{hit,miss}``,
``serve.pool/{queued,rejected,timeouts}``, latency histograms), so
``repro obs report`` and the ``stats`` RPC expose the service's health.
``REPRO_SERVE_WORKERS`` sets the default pool width, next to
``REPRO_SLICE_INDEX`` and ``REPRO_OBS``.
"""

from repro.serve.store import PinballStore, StoreEntry
from repro.serve.sessions import SessionManager, slice_payload, race_payload
from repro.serve.workers import (
    DEFAULT_WORKERS,
    PoolBusyError,
    PoolError,
    PoolTimeoutError,
    WorkerCrashError,
    WorkerPool,
)
from repro.serve.rpc import RpcError, RpcRemoteError
from repro.serve.server import DebugServer, run_server
from repro.serve.client import DebugClient
from repro.serve.router import Router, parse_nodes, run_router

__all__ = [
    "DEFAULT_WORKERS",
    "DebugClient",
    "DebugServer",
    "PinballStore",
    "PoolBusyError",
    "PoolError",
    "PoolTimeoutError",
    "Router",
    "RpcError",
    "RpcRemoteError",
    "SessionManager",
    "StoreEntry",
    "WorkerCrashError",
    "WorkerPool",
    "parse_nodes",
    "race_payload",
    "run_router",
    "run_server",
    "slice_payload",
]
