"""The asyncio TCP front end of the debug service.

One long-lived server process owns the pinball store's manifest and the
worker pool; each client connection speaks newline-delimited JSON-RPC
(:mod:`repro.serve.rpc`).  The division of labor keeps every layer
single-writer:

* the **event loop** only parses, validates and routes — compute-heavy
  verbs are dispatched to the :class:`~repro.serve.workers.WorkerPool`
  via an executor thread so slow slices never stall other connections;
* **workers** read blobs by content key and return payloads;
* the **server** performs every store-manifest write (uploads, recorded
  pinballs, slice pinballs, tags, gc), so the manifest needs no
  cross-process locking.

Fault behavior follows the satellite spec: malformed, oversized or
truncated request lines produce structured error responses (the
connection survives malformed lines; oversized lines are answered then
the connection is closed, since the line cannot be resynchronized);
pool backpressure surfaces as ``BUSY``; per-request deadlines as
``TIMEOUT``; corrupt blobs as ``BAD_PINBALL`` naming the blob path.
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import os
import signal
import time
from functools import partial
from typing import Optional

from repro.obs.registry import OBS
from repro.pinplay.pinball import Pinball
from repro.serve import rpc
from repro.serve.store import PinballStore
from repro.serve.workers import RemoteOpError, WorkerPool, error_code

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 9178

#: Chaos-testing exit status — distinctive so a test harness can tell a
#: deliberately injected node death from a genuine crash.
CHAOS_EXIT_STATUS = 17


def _chaos_maybe_die(method: str) -> None:
    """Fault-injection hook: die hard before serving ``method``.

    ``REPRO_CHAOS_EXIT_ON=<method>`` makes the server process exit with
    :data:`CHAOS_EXIT_STATUS` *before* touching the request — the client
    sees the connection drop mid-call, exactly like a node loss.  With
    ``REPRO_CHAOS_ONCE_PATH`` also set, the death happens only while the
    marker file does not exist (it is created atomically first), so a
    fleet of nodes sharing the marker loses exactly one member — the
    shape the router's retry-once semantics are tested against.  Only
    the chaos suite sets these variables.
    """
    target = os.environ.get("REPRO_CHAOS_EXIT_ON")
    if not target or target != method:
        return
    once_path = os.environ.get("REPRO_CHAOS_ONCE_PATH")
    if once_path:
        try:
            fd = os.open(once_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return
        os.close(fd)
    os._exit(CHAOS_EXIT_STATUS)


class DebugServer:
    """TCP JSON-RPC server over one store + one worker pool."""

    def __init__(self, store_root: str,
                 host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
                 workers: Optional[int] = None,
                 queue_limit: int = 64,
                 request_timeout: float = 120.0,
                 lru_entries: int = 4,
                 lru_bytes: int = 512 * 1024 * 1024,
                 max_request_bytes: int = rpc.MAX_REQUEST_BYTES) -> None:
        self.store = PinballStore(store_root)
        self.host = host
        self.port = port
        self.max_request_bytes = max_request_bytes
        self.pool = WorkerPool(store_root=store_root, workers=workers,
                               queue_limit=queue_limit,
                               default_timeout=request_timeout,
                               lru_entries=lru_entries, lru_bytes=lru_bytes,
                               obs=OBS.enabled)
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        self.counts = {"connections": 0, "requests": 0, "errors": 0}
        self.started_at = time.time()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "DebugServer":
        self.pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=self.max_request_bytes + 2)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` RPC (or :meth:`close`) arrives."""
        await self._shutdown.wait()
        await self.close()

    async def close(self) -> None:
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await asyncio.get_running_loop().run_in_executor(
            None, self.pool.close)

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.counts["connections"] += 1
        if OBS.enabled:
            OBS.inc("serve.connections")
        try:
            while not self._shutdown.is_set():
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Line longer than the stream limit: the buffer can
                    # not be resynchronized — answer, then hang up.
                    response = rpc.make_error(
                        None, rpc.OVERSIZED_REQUEST,
                        "request line exceeds the %d byte cap"
                        % self.max_request_bytes)
                    await self._send(writer, response)
                    break
                if not line:
                    break                      # clean EOF
                if not line.strip():
                    continue                   # keepalive blank line
                try:
                    request = rpc.parse_request(line,
                                                self.max_request_bytes)
                except rpc.RpcError as exc:
                    self.counts["errors"] += 1
                    if OBS.enabled:
                        OBS.inc("serve.protocol_errors")
                    await self._send(writer, exc.to_response())
                    if exc.code == rpc.OVERSIZED_REQUEST:
                        break
                    continue
                response, close_after = await self._dispatch(request)
                await self._send(writer, response)
                if close_after:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _send(self, writer: asyncio.StreamWriter,
                    message: dict) -> None:
        try:
            writer.write(rpc.encode_message(message))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    # -- dispatch ----------------------------------------------------------

    async def _dispatch(self, request: dict):
        """Route one validated request; returns (response, close_after)."""
        method = request["method"]
        params = request["params"]
        req_id = request["id"]
        self.counts["requests"] += 1
        started = time.perf_counter()
        _chaos_maybe_die(method)
        if OBS.enabled:
            OBS.inc("serve.requests")
            OBS.inc("serve.requests/%s" % method)
        close_after = False
        try:
            if method == "shutdown":
                result = {"stopping": True}
                self._shutdown.set()
                close_after = True
            else:
                handler = getattr(self, "_rpc_" + method.replace(".", "_"),
                                  None)
                if handler is None:
                    raise rpc.RpcError(rpc.METHOD_NOT_FOUND,
                                       "unknown method %r" % method)
                result = await handler(params)
            response = rpc.make_response(req_id, result)
        except Exception as exc:   # noqa: BLE001 — never crash the server
            self.counts["errors"] += 1
            if OBS.enabled:
                OBS.inc("serve.errors")
            response = self._error_response(req_id, exc)
        if OBS.enabled:
            OBS.observe("serve.request_latency_ms",
                        (time.perf_counter() - started) * 1000.0)
        return response, close_after

    @staticmethod
    def _error_response(req_id, exc: Exception) -> dict:
        """Map one dispatch failure onto its structured error response."""
        if isinstance(exc, rpc.RpcError):
            return exc.to_response(req_id)
        if isinstance(exc, RemoteOpError):
            return rpc.make_error(req_id, exc.code, exc.remote_message,
                                  data={"op": exc.op,
                                        "type": exc.error_type})
        code = error_code(exc)
        if code == rpc.INTERNAL_ERROR:
            return rpc.make_error(req_id, code,
                                  "%s: %s" % (type(exc).__name__, exc))
        return rpc.make_error(req_id, code, str(exc).strip("'\""))

    async def _pool_call(self, op: str, params: dict,
                         key: Optional[str] = None):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, partial(self.pool.call, op, params, key=key,
                          timeout=params.get("timeout")))

    # -- recording resolution ----------------------------------------------

    def _recording_params(self, params: dict) -> dict:
        """Expand a client ``key`` into worker params (source + name)."""
        key = params.get("key")
        if not key:
            raise rpc.RpcError(rpc.INVALID_PARAMS,
                               "missing recording 'key' parameter")
        entry = self.store.entry(key)
        source_sha = entry.meta.get("source_sha")
        if not source_sha:
            raise rpc.RpcError(
                rpc.INVALID_PARAMS,
                "recording %s has no linked source (store it with "
                "store.put_recording or record)" % key)
        out = dict(params)
        out.pop("key", None)
        out["pinball"] = key
        out["source"] = source_sha
        out["program_name"] = entry.meta.get("program_name", "program")
        return out

    # -- service verbs -----------------------------------------------------

    async def _rpc_ping(self, params: dict) -> dict:
        return {"pong": True, "uptime_sec": time.time() - self.started_at}

    async def _rpc_stats(self, params: dict) -> dict:
        serve_counters = {
            name: value for name, value in OBS.counters().items()
            if name.startswith(("serve.", "index_cache."))}
        out = {
            "server": dict(self.counts, uptime_sec=time.time()
                           - self.started_at, port=self.port),
            "pool": self.pool.stats(),
            "store": self.store.stats(),
            "obs": serve_counters,
        }
        if params.get("workers", True):
            loop = asyncio.get_running_loop()
            out["worker_sessions"] = await loop.run_in_executor(
                None, self.pool.worker_stats)
        return out

    async def _rpc_record(self, params: dict) -> dict:
        source = params.get("program")
        if not source:
            raise rpc.RpcError(rpc.INVALID_PARAMS,
                               "record needs 'program' source text")
        name = params.get("program_name", "program")
        source_sha = self.store.put_source(source, name,
                                           tags=params.get("tags", ()))
        worker_params = {k: v for k, v in params.items()
                        if k not in ("program", "tags")}
        worker_params["source"] = source_sha
        worker_params["program_name"] = name
        result = await self._pool_call("record", worker_params)
        pinball = Pinball.from_bytes(result.pop("pinball_raw"),
                                     source="<recorded>")
        key = self.store.put_pinball(
            pinball, tags=params.get("tags", ()),
            meta={"source_sha": source_sha, "program_name": name})
        if OBS.enabled:
            OBS.inc("serve.recordings")
        return {"key": key, "source_sha": source_sha, **result}

    async def _rpc_replay(self, params: dict) -> dict:
        worker_params = self._recording_params(params)
        return await self._pool_call("replay", worker_params,
                                     key=worker_params["pinball"])

    async def _rpc_slice(self, params: dict) -> dict | bytes:
        worker_params = self._recording_params(params)
        result = await self._pool_call("slice", worker_params,
                                       key=worker_params["pinball"])
        # Without a slice pinball the result is the encoded payload,
        # which the response line carries as it came.
        if worker_params.get("slice_pinball"):
            raw = result.pop("slice_pinball_raw")
            slice_pb = Pinball.from_bytes(raw, source="<slice>")
            sha = self.store.put_pinball(
                slice_pb, tags=params.get("tags", ()),
                meta={"source_sha": worker_params["source"],
                      "program_name": worker_params["program_name"],
                      "sliced_from": worker_params["pinball"]})
            result["slice_pinball_key"] = sha
        if OBS.enabled:
            OBS.inc("serve.slices")
        return result

    async def _rpc_last_reads(self, params: dict) -> dict:
        worker_params = self._recording_params(params)
        return await self._pool_call("last_reads", worker_params,
                                     key=worker_params["pinball"])

    async def _rpc_races(self, params: dict) -> dict:
        worker_params = self._recording_params(params)
        return await self._pool_call("races", worker_params,
                                     key=worker_params["pinball"])

    async def _rpc_build(self, params: dict) -> dict:
        worker_params = self._recording_params(params)
        return await self._pool_call("build", worker_params,
                                     key=worker_params["pinball"])

    async def _rpc_hunt(self, params: dict) -> dict:
        """The bug firehose, sharded over the pool.

        Stage 1 (scan) runs on the recording's affine worker; stage 2
        shards the candidate list into up to ``REPRO_HUNT_WORKERS``
        contiguous chunks evaluated concurrently (chunk order preserves
        candidate order, so the merge — and therefore every downstream
        artifact — is byte-identical to an in-process hunt); stage 3
        minimizes each distinct confirmed failure and stores its
        minimized pinball in the blob store.
        """
        import math
        from dataclasses import replace as dc_replace

        from repro import config as knobs
        from repro.analysis.hunt import dedupe_rows
        from repro.analysis.report import (HuntFinding, RaceFinding,
                                           hunt_report_payload)

        worker_params = self._recording_params(params)
        key = worker_params["pinball"]
        scanned = await self._pool_call("hunt_scan", worker_params, key=key)
        candidates = scanned["candidates"]
        ctx = scanned["ctx"]

        lanes = max(1, knobs.hunt_workers(explicit=params.get("workers")))
        lanes = min(lanes, len(candidates)) or 1
        size = math.ceil(len(candidates) / lanes)
        chunks = [candidates[i:i + size]
                  for i in range(0, len(candidates), size)]
        lane_results = await asyncio.gather(*[
            self._pool_call("hunt_eval",
                            dict(worker_params, candidates=chunk, ctx=ctx))
            for chunk in chunks])
        rows = [row for lane in lane_results for row in lane["rows"]]

        minimize_budget = int(params.get("minimize_budget", 64))
        findings = []
        minimized_keys = {}
        for candidate, row in dedupe_rows(candidates, rows):
            confirmed = await self._pool_call(
                "hunt_confirm",
                dict(worker_params, candidate=candidate, row=row, ctx=ctx,
                     races=scanned["races"],
                     minimize_budget=minimize_budget),
                key=key)
            minimized = Pinball.from_bytes(confirmed["pinball_raw"],
                                           source="<hunt>")
            sha = self.store.put_pinball(
                minimized, tags=params.get("tags", ()),
                meta={"source_sha": worker_params["source"],
                      "program_name": worker_params["program_name"],
                      "hunted_from": key})
            finding = dc_replace(
                HuntFinding.from_payload(confirmed["finding"]),
                minimized_key=sha)
            findings.append(finding)
            minimized_keys[finding.candidate] = sha
        if OBS.enabled:
            OBS.inc("serve.hunts")
        return hunt_report_payload(
            findings,
            races=[RaceFinding.from_payload(item)
                   for item in scanned["races"]],
            candidates_tried=len(rows),
            benign=sum(1 for row in rows if row["outcome"] == "benign"),
            overrun=sum(1 for row in rows if row["outcome"] == "overrun"),
            minimized_keys=minimized_keys)

    # -- store verbs -------------------------------------------------------

    @staticmethod
    def _b64decode(params: dict, field: str) -> bytes:
        value = params.get(field)
        if not isinstance(value, str):
            raise rpc.RpcError(rpc.INVALID_PARAMS,
                               "missing base64 %r parameter" % field)
        try:
            return base64.b64decode(value.encode("ascii"), validate=True)
        except (binascii.Error, ValueError) as exc:
            raise rpc.RpcError(rpc.INVALID_PARAMS,
                               "%s is not valid base64: %s" % (field, exc))

    async def _rpc_store_put(self, params: dict) -> dict:
        data = self._b64decode(params, "blob")
        sha, dedup = self.store.put(
            data, kind=params.get("kind", "pinball"),
            tags=params.get("tags", ()), meta=params.get("meta"))
        return {"sha": sha, "deduplicated": dedup}

    async def _rpc_store_put_recording(self, params: dict) -> dict:
        """Upload program source + pinball blob as one linked recording."""
        source = params.get("program")
        if not isinstance(source, str) or not source:
            raise rpc.RpcError(rpc.INVALID_PARAMS,
                               "missing 'program' source text")
        blob = self._b64decode(params, "pinball")
        pinball = Pinball.from_bytes(blob, source="<upload>")
        name = params.get("program_name") or pinball.program_name
        tags = params.get("tags", ())
        source_sha = self.store.put_source(source, name, tags=tags)
        key = self.store.put_pinball(
            pinball, tags=tags,
            meta={"source_sha": source_sha, "program_name": name})
        return {"key": key, "source_sha": source_sha,
                "instructions": pinball.total_instructions,
                "failure": (pinball.meta.get("failure") or {}).get("code")}

    async def _rpc_store_get(self, params: dict) -> dict:
        sha = params.get("sha") or params.get("key")
        if not sha:
            raise rpc.RpcError(rpc.INVALID_PARAMS, "missing 'sha'")
        # get_payload reassembles chunked (format-v2) pinballs; plain
        # blobs pass through unchanged.
        data = self.store.get_payload(sha)
        try:
            entry = self.store.entry(sha).to_dict()
        except KeyError:
            entry = {"sha": sha}
        return {"entry": entry,
                "blob": base64.b64encode(data).decode("ascii")}

    async def _rpc_store_list(self, params: dict) -> dict:
        return {"entries": self.store.list(kind=params.get("kind"),
                                           tag=params.get("tag"))}

    async def _rpc_store_tag(self, params: dict) -> dict:
        self.store.tag(params["sha"], *params.get("tags", []))
        return {"sha": params["sha"],
                "tags": self.store.entry(params["sha"]).tags}

    async def _rpc_store_untag(self, params: dict) -> dict:
        self.store.untag(params["sha"], *params.get("tags", []))
        return {"sha": params["sha"],
                "tags": self.store.entry(params["sha"]).tags}

    async def _rpc_store_gc(self, params: dict) -> dict:
        removed = self.store.gc()
        # Cached worker sessions for removed recordings are stale now.
        return {"removed": removed}

    async def _rpc_store_stats(self, params: dict) -> dict:
        return self.store.stats()


def run_server(server: DebugServer,
               port_file: Optional[str] = None,
               announce=None) -> None:
    """Blocking entry point: start, announce, serve until shutdown.

    SIGTERM triggers the same graceful shutdown as the ``shutdown``
    RPC — essential for subprocess-managed fleets: a bare SIGTERM
    death would skip the pool teardown and orphan the daemonic worker
    processes (atexit hooks don't run under the default handler).
    """

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, server._shutdown.set)
        except (NotImplementedError, RuntimeError):
            pass                     # non-main thread or bare platform
        await server.start()
        if port_file:
            with open(port_file, "w") as handle:
                handle.write("%d\n" % server.port)
        if announce is not None:
            announce(server.host, server.port)
        await server.serve_until_shutdown()

    asyncio.run(_main())
