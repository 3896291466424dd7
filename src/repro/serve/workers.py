"""The parallel compute tier: a ``multiprocessing`` slice-worker pool.

Trace collection, DDG builds and slice queries are CPU-bound Python, so
concurrency across recordings comes from *processes*.  Each worker owns
a private :class:`~repro.serve.sessions.SessionManager` (its own index
LRU) over the shared on-disk store; requests carry the content keys of
the recording they target and are routed with **key affinity** (same
recording → same worker) so a hot recording's resident session keeps
getting hit.

Operational semantics, all explicit:

* **Bounded queue + backpressure** — at most ``queue_limit`` requests
  may be in flight; beyond that :meth:`WorkerPool.submit` raises
  :class:`PoolBusyError` immediately (the RPC layer maps it to a
  structured ``BUSY`` error), it never blocks the caller.
* **Per-request timeout** — every request carries a deadline; when it
  expires the waiter gets :class:`PoolTimeoutError` and any late result
  from the worker is discarded.
* **Crash containment** — a worker that dies (segfault analog:
  ``os._exit``) is respawned; its in-flight requests are requeued
  *once* onto the fresh worker, and fail with :class:`WorkerCrashError`
  if they crash a second time.

Workers are pure compute over the content-addressed blob space: they
*read* blobs (by key, no manifest needed) and return picklable payloads;
every store-manifest write stays in the server process.  A ``slice``
without ``slice_pinball`` returns its result already encoded, as bytes
(:func:`~repro.serve.sessions.slice_payload_bytes`), so the queue carries
one bytes object and the server never re-encodes it.
"""

from __future__ import annotations

import itertools
import os
import queue
import threading
import time
import zlib
from typing import Dict, Optional

import multiprocessing as mp

from repro.obs.registry import OBS
from repro.pinplay.pinball import PinballFormatError
from repro.serve import rpc

#: Pool width default, overridable with ``REPRO_SERVE_WORKERS`` (next to
#: ``REPRO_SLICE_INDEX`` / ``REPRO_OBS``; see :mod:`repro.config`).
DEFAULT_WORKERS = 2


def default_workers() -> int:
    """Pool width via :func:`repro.config.serve_workers`."""
    from repro import config
    return config.serve_workers()


class PoolError(RuntimeError):
    """Base class for worker-pool request failures."""


class PoolBusyError(PoolError):
    """Backpressure: the bounded request queue is full."""


class PoolTimeoutError(PoolError):
    """The request's deadline expired before a result arrived."""


class WorkerCrashError(PoolError):
    """The request's worker died (twice, counting one requeue)."""


class RemoteOpError(PoolError):
    """The operation raised inside the worker; carries the remote type
    and the JSON-RPC error ``code`` the worker stamped with
    :func:`error_code`."""

    def __init__(self, op: str, error_type: str, message: str,
                 code: int) -> None:
        super().__init__("%s failed in worker: %s: %s"
                         % (op, error_type, message))
        self.op = op
        self.error_type = error_type
        self.remote_message = message
        self.code = code


#: Exception type -> JSON-RPC error code, first match wins.  ``KeyError``
#: and ``IndexError`` (an unknown store key, an instance past the end of
#: its thread) are both ``LookupError``; ``ValueError`` covers every
#: typed rejection of a malformed request (``RelogError`` included).
_ERROR_CODES = (
    (LookupError, rpc.NOT_FOUND),
    (PinballFormatError, rpc.BAD_PINBALL),
    (PoolBusyError, rpc.BUSY),
    (PoolTimeoutError, rpc.TIMEOUT),
    (WorkerCrashError, rpc.WORKER_CRASHED),
    ((TypeError, ValueError), rpc.INVALID_PARAMS),
)


def error_code(exc: BaseException) -> int:
    """The JSON-RPC error code answering a request that raised ``exc``,
    wherever it raised: in the server process or inside a worker."""
    for exc_types, code in _ERROR_CODES:
        if isinstance(exc, exc_types):
            return code
    return rpc.INTERNAL_ERROR


class PoolFuture:
    """A one-shot result slot fulfilled by the collector thread."""

    __slots__ = ("_event", "_value", "_error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value = None
        self._error: Optional[BaseException] = None

    def _fulfill(self, value) -> None:
        self._value = value
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None):
        if not self._event.wait(timeout):
            raise PoolTimeoutError("no result within %.1fs" % (timeout or 0))
        if self._error is not None:
            raise self._error
        return self._value


class _Pending:
    __slots__ = ("req_id", "op", "params", "key", "worker", "attempts",
                 "deadline", "future")

    def __init__(self, req_id, op, params, key, worker, deadline, future):
        self.req_id = req_id
        self.op = op
        self.params = params
        self.key = key
        self.worker = worker
        self.attempts = 0
        self.deadline = deadline
        self.future = future


# -- worker process side ------------------------------------------------------

def _execute(op: str, params: dict, store, manager):
    """Run one operation inside the worker process."""
    from repro.pinplay import Pinball, RegionSpec, record_region, replay
    from repro.serve.sessions import (race_payload, replay_payload,
                                      resolve_criterion, slice_locations,
                                      slice_payload, slice_payload_bytes)
    from repro.vm import RandomScheduler, RoundRobinScheduler

    if op == "ping":
        return {"pong": True, "pid": os.getpid()}
    if op == "__stats__":
        counters = {name: value for name, value in OBS.counters().items()
                    if name.startswith(("serve.", "index_cache.",
                                        "hunt.", "detect."))}
        return {"pid": os.getpid(), "sessions": manager.stats(),
                "counters": counters}
    if op == "__crash__":                       # test hook: hard death
        once = params.get("once_path")
        if once and os.path.exists(once):
            # Crash-once mode: a marker from the previous life means the
            # requeued attempt should survive (exercises the retry path).
            return {"ok": True, "pid": os.getpid()}
        if once:
            with open(once, "w") as handle:
                handle.write(str(os.getpid()))
        os._exit(int(params.get("code", 13)))
    if op == "__sleep__":                       # test hook: slow request
        time.sleep(float(params.get("sec", 1.0)))
        return {"slept": params.get("sec", 1.0)}

    if op == "record":
        program = manager.program_for(params["source"],
                                      params.get("program_name", "program"))
        region = RegionSpec(skip=int(params.get("skip", 0)),
                            length=params.get("length"))
        inputs = params.get("inputs") or []
        rand_seed = int(params.get("rand_seed", 0))
        expose = int(params.get("expose", 0))
        switch_prob = float(params.get("switch_prob", 0.2))
        if expose:
            pinball = None
            for seed in range(expose):
                candidate = record_region(
                    program,
                    RandomScheduler(seed=seed, switch_prob=switch_prob),
                    region, inputs=inputs, rand_seed=rand_seed)
                if candidate.meta.get("failure"):
                    pinball = candidate
                    break
            if pinball is None:
                raise ValueError("no failure exposed in %d seeds" % expose)
        else:
            seed = params.get("seed")
            scheduler = (RoundRobinScheduler() if seed is None
                         else RandomScheduler(seed=int(seed),
                                              switch_prob=switch_prob))
            pinball = record_region(program, scheduler, region,
                                    inputs=inputs, rand_seed=rand_seed)
        return {
            "pinball_raw": pinball.to_bytes(compress=False),
            "program_name": pinball.program_name,
            "instructions": pinball.total_instructions,
            "failure": (pinball.meta.get("failure") or {}).get("code"),
        }

    # Everything below operates on one stored recording.
    key = params["pinball"]
    source = params["source"]
    name = params.get("program_name", "program")

    if op == "replay":
        program = manager.program_for(source, name)
        pinball = store.get_pinball(key)
        machine, result = replay(pinball, program,
                                 verify=not params.get("no_verify", False))
        return replay_payload(machine, result, pinball)

    if op == "races":
        from repro.detect import detect_races
        program = manager.program_for(source, name)
        pinball = store.get_pinball(key)
        races = detect_races(pinball, program,
                             globals_only=not params.get("all_memory", False))
        return race_payload(races, program)

    if op == "hunt":
        # The whole firehose on one worker (used by `repro client hunt`
        # against a single-lane pool, and as the differential baseline).
        from repro.analysis.hunt import hunt
        program = manager.program_for(source, name)
        pinball = store.get_pinball(key)
        result = hunt(pinball, program,
                      budget=params.get("budget"),
                      profile_seeds=int(params.get("profile_seeds", 4)),
                      minimize_budget=int(params.get("minimize_budget", 64)))
        payload = result.payload()
        payload["minimized_raw"] = {
            cid: pb.to_bytes(compress=False)
            for cid, pb in result.minimized.items()}
        return payload

    if op == "hunt_scan":
        # Stage 1 — the server shards the resulting candidate list
        # across hunt_eval lanes and merges by candidate order.
        from repro.analysis.hunt import scan
        from repro.analysis.report import RaceFinding
        program = manager.program_for(source, name)
        pinball = store.get_pinball(key)
        races, candidates, ctx = scan(
            pinball, program, budget=params.get("budget"),
            profile_seeds=int(params.get("profile_seeds", 4)))
        return {"races": [RaceFinding.from_race(race, program).to_payload()
                          for race in races],
                "candidates": candidates, "ctx": ctx}

    if op == "hunt_eval":
        from repro.analysis.hunt import evaluate
        program = manager.program_for(source, name)
        return {"rows": evaluate(program, params["candidates"],
                                 params["ctx"])}

    if op == "hunt_confirm":
        from repro.analysis.hunt import confirm
        from repro.analysis.report import RaceFinding
        program = manager.program_for(source, name)
        races = [RaceFinding.from_payload(item)
                 for item in params.get("races", [])]
        finding, pinball = confirm(
            program, params["candidate"], params["row"], params["ctx"],
            races=races,
            minimize_budget=int(params.get("minimize_budget", 64)))
        return {"finding": finding.to_payload(),
                "pinball_raw": pinball.to_bytes(compress=False)}

    session = manager.open(key, source, program_name=name,
                           index=params.get("index"))
    if op == "build":
        # trace_record_count() answers without materializing the trace,
        # which matters for reexec sessions (no full trace resident).
        return {"built": True, "trace_records":
                session.trace_record_count(),
                "stats": {k: v for k, v in session.stats().items()
                          if isinstance(v, (int, float, str, bool))}}
    if op == "last_reads":
        count = int(params.get("count", 10))
        return {"reads": [list(inst)
                          for inst in session.last_reads(count)]}
    if op == "slice":
        criterion = resolve_criterion(session, params)
        dslice = session.slice_for(criterion,
                                   slice_locations(session, params))
        if not params.get("slice_pinball"):
            # The result line's bytes: the node splices them verbatim.
            return slice_payload_bytes(dslice)
        # The node stores the slice pinball and adds its key: a dict.
        payload = slice_payload(session, dslice)
        slice_pb = session.make_slice_pinball(dslice)
        payload["slice_pinball_raw"] = slice_pb.to_bytes(compress=False)
        payload["kept_instructions"] = slice_pb.meta.get("kept_instructions")
        return payload
    raise ValueError("unknown worker op %r" % op)


def _worker_main(worker_id: int, task_q, result_q, store_root: Optional[str],
                 config: dict) -> None:
    """Worker loop: pop (req_id, op, params), push (req_id, status, ...)."""
    if config.get("obs"):
        OBS.enable()
    from repro.serve.sessions import SessionManager
    from repro.serve.store import PinballStore
    store = PinballStore(store_root) if store_root else None
    manager = SessionManager(
        store,
        max_entries=config.get("lru_entries", 4),
        max_bytes=config.get("lru_bytes", 512 * 1024 * 1024))
    while True:
        item = task_q.get()
        if item is None:
            break
        req_id, op, params = item
        try:
            with OBS.span("serve/worker/%s" % op):
                result = _execute(op, params or {}, store, manager)
        except BaseException as exc:   # noqa: BLE001 — wire it back
            result_q.put((req_id, worker_id, "error",
                          {"op": op, "type": type(exc).__name__,
                           "message": str(exc),
                           "code": error_code(exc)}))
            continue
        result_q.put((req_id, worker_id, "ok", result))


# -- parent side --------------------------------------------------------------

class WorkerPool:
    """Parallel slice workers over a shared store.  See module docstring."""

    def __init__(self, store_root: Optional[str] = None,
                 workers: Optional[int] = None,
                 queue_limit: int = 64,
                 default_timeout: float = 120.0,
                 lru_entries: int = 4,
                 lru_bytes: int = 512 * 1024 * 1024,
                 obs: bool = False) -> None:
        self.store_root = store_root
        self.workers = workers if workers is not None else default_workers()
        self.queue_limit = queue_limit
        self.default_timeout = default_timeout
        self._config = {"lru_entries": lru_entries, "lru_bytes": lru_bytes,
                        "obs": obs}
        self._ctx = mp.get_context()
        self._task_qs = []
        self._procs = []
        self._result_q = None
        self._pending: Dict[int, _Pending] = {}
        self._abandoned = set()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._collector: Optional[threading.Thread] = None
        self._closing = threading.Event()
        self.counts = {"submitted": 0, "completed": 0, "errors": 0,
                       "rejected": 0, "timeouts": 0, "requeued": 0,
                       "crashes": 0}
        self.started = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "WorkerPool":
        if self.started:
            return self
        self._result_q = self._ctx.Queue()
        for worker_id in range(self.workers):
            self._task_qs.append(self._ctx.Queue())
            self._procs.append(self._spawn(worker_id))
        self._collector = threading.Thread(target=self._collect_loop,
                                           name="serve-pool-collector",
                                           daemon=True)
        self._collector.start()
        self.started = True
        return self

    def _spawn(self, worker_id: int):
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, self._task_qs[worker_id], self._result_q,
                  self.store_root, self._config),
            name="serve-worker-%d" % worker_id,
            daemon=True)
        proc.start()
        return proc

    def close(self, timeout: float = 5.0) -> None:
        if not self.started:
            return
        self._closing.set()
        for task_q in self._task_qs:
            try:
                task_q.put(None)
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + timeout
        for proc in self._procs:
            proc.join(max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)
        if self._collector is not None:
            self._collector.join(timeout=2.0)
        with self._lock:
            for pending in self._pending.values():
                pending.future._fail(PoolError("pool closed"))
            self._pending.clear()
        for q in self._task_qs + [self._result_q]:
            try:
                q.close()
            except (OSError, ValueError):
                pass
        self.started = False

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- submission --------------------------------------------------------

    def _route(self, key: Optional[str]) -> int:
        if key is not None:
            # Stable key affinity: a hot recording keeps hitting the
            # worker whose LRU already holds its session.  Keys are hex
            # sha256 strings; fall back to crc for anything else.
            text = str(key)
            try:
                bucket = int(text[:8], 16)
            except ValueError:
                bucket = zlib.crc32(text.encode("utf-8"))
            return bucket % self.workers
        # No key: least-loaded worker (fewest in-flight requests).
        loads = [0] * self.workers
        for pending in self._pending.values():
            loads[pending.worker] += 1
        return loads.index(min(loads))

    def submit(self, op: str, params: Optional[dict] = None,
               key: Optional[str] = None,
               timeout: Optional[float] = None,
               worker: Optional[int] = None) -> PoolFuture:
        """Queue one operation; never blocks.

        Raises :class:`PoolBusyError` when ``queue_limit`` requests are
        already in flight (explicit backpressure, counted under
        ``serve.pool/rejected``).
        """
        if not self.started:
            raise PoolError("pool is not running")
        future = PoolFuture()
        deadline = time.monotonic() + (timeout if timeout is not None
                                       else self.default_timeout)
        with self._lock:
            if len(self._pending) >= self.queue_limit:
                self.counts["rejected"] += 1
                if OBS.enabled:
                    OBS.inc("serve.pool/rejected")
                raise PoolBusyError(
                    "pool queue full (%d in flight)" % len(self._pending))
            req_id = next(self._ids)
            target = worker if worker is not None else self._route(key)
            pending = _Pending(req_id, op, params or {}, key, target,
                               deadline, future)
            self._pending[req_id] = pending
            self.counts["submitted"] += 1
        if OBS.enabled:
            OBS.inc("serve.pool/queued")
        self._task_qs[target].put((req_id, op, params or {}))
        return future

    def call(self, op: str, params: Optional[dict] = None,
             key: Optional[str] = None, timeout: Optional[float] = None,
             worker: Optional[int] = None):
        """Submit and wait; raises the pool/remote error on failure."""
        effective = timeout if timeout is not None else self.default_timeout
        future = self.submit(op, params, key=key, timeout=effective,
                             worker=worker)
        # The collector enforces the deadline; wait a little past it.
        return future.result(effective + 5.0)

    # -- collector thread --------------------------------------------------

    def _collect_loop(self) -> None:
        while not self._closing.is_set():
            try:
                item = self._result_q.get(timeout=0.05)
            except queue.Empty:
                item = None
            except (OSError, ValueError, EOFError):
                break
            if item is not None:
                self._handle_result(*item)
            self._expire_deadlines()
            self._reap_crashes()

    def _handle_result(self, req_id, worker_id, status, payload) -> None:
        with self._lock:
            if req_id in self._abandoned:
                self._abandoned.discard(req_id)
                return
            pending = self._pending.pop(req_id, None)
        if pending is None:
            return
        if status == "ok":
            self.counts["completed"] += 1
            if OBS.enabled:
                OBS.inc("serve.pool/completed")
            pending.future._fulfill(payload)
        else:
            self.counts["errors"] += 1
            if OBS.enabled:
                OBS.inc("serve.pool/errors")
            pending.future._fail(RemoteOpError(
                payload.get("op", pending.op), payload.get("type", "Error"),
                payload.get("message", ""),
                code=payload.get("code", rpc.INTERNAL_ERROR)))

    def _expire_deadlines(self) -> None:
        now = time.monotonic()
        expired = []
        with self._lock:
            for req_id, pending in list(self._pending.items()):
                if pending.deadline <= now:
                    expired.append(self._pending.pop(req_id))
                    self._abandoned.add(req_id)
        for pending in expired:
            self.counts["timeouts"] += 1
            if OBS.enabled:
                OBS.inc("serve.pool/timeouts")
            pending.future._fail(PoolTimeoutError(
                "%s request timed out" % pending.op))

    def _reap_crashes(self) -> None:
        for worker_id, proc in enumerate(self._procs):
            if proc.is_alive() or self._closing.is_set():
                continue
            exitcode = proc.exitcode
            self.counts["crashes"] += 1
            if OBS.enabled:
                OBS.inc("serve.pool/crashes")
            # Fresh queue + fresh process: the old queue may hold
            # requests the dead worker never popped; re-route them.
            stranded = []
            with self._lock:
                for pending in self._pending.values():
                    if pending.worker == worker_id:
                        stranded.append(pending)
            old_q = self._task_qs[worker_id]
            self._task_qs[worker_id] = self._ctx.Queue()
            try:
                old_q.close()
            except (OSError, ValueError):
                pass
            self._procs[worker_id] = self._spawn(worker_id)
            for pending in stranded:
                if pending.attempts >= 1:
                    with self._lock:
                        self._pending.pop(pending.req_id, None)
                    pending.future._fail(WorkerCrashError(
                        "%s crashed its worker twice (exit %r)"
                        % (pending.op, exitcode)))
                    continue
                pending.attempts += 1
                self.counts["requeued"] += 1
                if OBS.enabled:
                    OBS.inc("serve.pool/requeued")
                self._task_qs[worker_id].put(
                    (pending.req_id, pending.op, pending.params))

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            in_flight = len(self._pending)
        return {
            "workers": self.workers,
            "queue_limit": self.queue_limit,
            "in_flight": in_flight,
            "alive": sum(1 for proc in self._procs if proc.is_alive()),
            **self.counts,
        }

    def worker_stats(self, timeout: float = 10.0) -> list:
        """Per-worker session-LRU and obs-counter snapshots."""
        futures = [self.submit("__stats__", timeout=timeout, worker=i)
                   for i in range(self.workers)]
        out = []
        for future in futures:
            try:
                out.append(future.result(timeout + 1.0))
            except PoolError as exc:
                out.append({"error": str(exc)})
        return out
