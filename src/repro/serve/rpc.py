"""Newline-delimited JSON-RPC 2.0 framing for the debug service.

One request per line, one response per line, UTF-8 JSON, ``\n``
terminated.  The envelope is classic JSON-RPC 2.0 (``jsonrpc``, ``id``,
``method``, ``params`` / ``result`` | ``error``), chosen over a custom
protocol because every language has a client for it and the framing
survives ``netcat`` for debugging.

This module is transport-free: pure bytes in, dicts out.  The server
and the protocol fuzz tests share :func:`parse_request`, which enforces

* a **per-line size cap** (oversized requests are rejected with a
  structured ``OVERSIZED_REQUEST`` error before JSON parsing),
* strict envelope validation (object shape, ``method`` a string,
  ``params`` an object, ``id`` a JSON scalar),

and never raises anything but :class:`RpcError` — malformed input can
therefore always be answered with a structured error response instead
of crashing the connection handler.
"""

from __future__ import annotations

import json
from typing import Optional

# Standard JSON-RPC 2.0 error codes.
PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603

# Implementation-defined (server) error codes, -32000..-32099 band.
NOT_FOUND = -32000            # unknown store key / missing resource
BUSY = -32001                 # worker pool backpressure rejection
TIMEOUT = -32002              # per-request deadline expired
WORKER_CRASHED = -32003       # request crashed its worker twice
BAD_PINBALL = -32004          # corrupt blob / unloadable pinball
SHUTTING_DOWN = -32005        # server is draining
OVERSIZED_REQUEST = -32006    # request line beyond the size cap
NODE_UNAVAILABLE = -32007     # node died mid-call / no healthy node left

#: Default per-connection request-line cap.  Generous enough for a
#: base64 pinball upload, small enough that one client cannot balloon
#: the server's read buffer.
MAX_REQUEST_BYTES = 8 * 1024 * 1024

JSONRPC_VERSION = "2.0"


class RpcError(Exception):
    """A protocol-level failure that maps onto one error response."""

    def __init__(self, code: int, message: str, data=None) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.data = data

    def to_response(self, req_id=None) -> dict:
        return make_error(req_id, self.code, self.message, self.data)


class RpcRemoteError(RuntimeError):
    """Client-side rendering of a server error response."""

    def __init__(self, code: int, message: str, data=None) -> None:
        super().__init__("server error %d: %s" % (code, message))
        self.code = code
        self.remote_message = message
        self.data = data


def make_request(method: str, params: Optional[dict] = None,
                 req_id: Optional[int] = None) -> dict:
    message = {"jsonrpc": JSONRPC_VERSION, "method": method}
    if params:
        message["params"] = params
    if req_id is not None:
        message["id"] = req_id
    return message


def make_response(req_id, result) -> dict:
    return {"jsonrpc": JSONRPC_VERSION, "id": req_id, "result": result}


def make_error(req_id, code: int, message: str, data=None) -> dict:
    error = {"code": code, "message": message}
    if data is not None:
        error["data"] = data
    return {"jsonrpc": JSONRPC_VERSION, "id": req_id, "error": error}


def encode_message(message: dict) -> bytes:
    """One wire frame: compact JSON + newline.

    A response whose ``result`` is already-encoded bytes (a rendered
    slice) is spliced in verbatim: the frame equals the sorted-key
    encoding of the same response with the result decoded.
    """
    result = message.get("result")
    if isinstance(result, bytes):
        return b"".join((b'{"id":', json.dumps(message["id"]).encode(),
                         b',"jsonrpc":"2.0","result":', result, b"}\n"))
    return (json.dumps(message, separators=(",", ":"), sort_keys=True)
            .encode("utf-8") + b"\n")


def parse_request(line: bytes,
                  max_bytes: int = MAX_REQUEST_BYTES) -> dict:
    """Validate one request line into ``{"method", "params", "id"}``.

    Raises :class:`RpcError` — and only :class:`RpcError` — on any
    malformed, oversized or invalid input.
    """
    if len(line) > max_bytes:
        raise RpcError(OVERSIZED_REQUEST,
                       "request line of %d bytes exceeds the %d byte cap"
                       % (len(line), max_bytes))
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RpcError(PARSE_ERROR, "request is not UTF-8: %s" % exc)
    text = text.strip()
    if not text:
        raise RpcError(INVALID_REQUEST, "empty request line")
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise RpcError(PARSE_ERROR, "request is not JSON: %s" % exc)
    if not isinstance(payload, dict):
        raise RpcError(INVALID_REQUEST,
                       "request must be a JSON object, got %s"
                       % type(payload).__name__)
    method = payload.get("method")
    if not isinstance(method, str) or not method:
        raise RpcError(INVALID_REQUEST, "request has no method string")
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise RpcError(INVALID_REQUEST,
                       "params must be a JSON object, got %s"
                       % type(params).__name__)
    req_id = payload.get("id")
    if req_id is not None and not isinstance(req_id, (int, str)):
        raise RpcError(INVALID_REQUEST,
                       "id must be an integer, string or null")
    return {"method": method, "params": params, "id": req_id}
