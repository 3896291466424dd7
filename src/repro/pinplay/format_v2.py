"""Pinball format v2: a streaming, chunked, checkpointed container.

Format v1 is one monolithic zlib-compressed JSON blob: the logger
accumulates every schedule run and mem-order edge in memory, dumps them
at region end, and every consumer — replayer, debugger, relogger —
re-parses the whole thing before it can touch a single step.  v2 is the
rr-style answer ("Engineering Record And Replay For Deployability"):
an append-only sequence of framed binary segments that the logger
writes *incrementally while recording*, with periodic machine-state
checkpoints embedded in the stream so rewind/seek replays only a
suffix.

Container layout::

    MAGIC ("RPB2") | frame | frame | ... | META frame

Each frame is ``[kind:u8][length:u32 LE][crc32:u32 LE][payload]`` with
the CRC taken over the payload.  Frame kinds:

    ========== =============================================================
    PROLOGUE   JSON header: format_version, program name, checkpoint
               interval (always the first frame)
    SNAPSHOT   zlib-compressed JSON machine snapshot at region entry
    SCHEDULE   a chunk of RLE schedule runs, packed ``<II`` (tid, count)
    MEM_ORDER  a chunk of access-order edges, packed ``<IIIIIB``
               (from_tid, from_tindex, to_tid, to_tindex, addr, kind)
    SYSCALLS   JSON per-thread nondeterministic syscall results
    CHECKPOINT ``<QQ`` (steps_done, global_seq) scan header followed by a
               zlib-compressed JSON state body (snapshot, injector
               cursor, region output, per-thread instruction counts)
    EXCLUSIONS JSON slice-pinball exclusion records (absent when empty)
    META       JSON region metadata; doubles as the completeness marker
    ========== =============================================================

Readers index frames by a header-only scan (no payload is touched), so
:class:`LazyPinball` opens in O(frames) and decodes each section on
first access; the CRC is verified when — and only when — a payload is
actually read.  Mem-order edges, for instance, are never decoded for a
pure replay.  Chunk boundaries are deterministic (every
``SCHEDULE_CHUNK`` runs / ``EDGE_CHUNK`` edges), so re-recording a
longer run of the same program reproduces the shorter run's frames
byte-for-byte and the content-addressed store dedups the shared prefix.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence

from repro.obs.registry import OBS
from repro.pinplay.pinball import Pinball, PinballFormatError

MAGIC = b"RPB2"

#: Deterministic chunk sizes — shared by the streaming writer and the
#: in-memory encoder so both produce identical frames for identical
#: prefixes (the store's per-frame dedup depends on this).  1024 entries
#: keeps the recorder's pending-chunk buffers (the only O(region) state
#: the streamed fast path would otherwise hold) near-constant: ~90 KiB
#: of edge tuples at worst, flushed long before a region of any
#: benchmarked length completes.
SCHEDULE_CHUNK = 1024
EDGE_CHUNK = 1024

#: Compression level for snapshot and checkpoint bodies.  Level 1 is
#: ~4x faster to compress than the zlib default for ~15% larger frames —
#: the right trade for an always-on record path, where checkpoint
#: capture sits on the recording's critical path.  Must be a constant:
#: the streaming writer and the in-memory encoder both go through
#: :class:`PinballWriter`, and per-frame store dedup needs identical
#: recordings to produce identical bytes.
_ZLIB_LEVEL = 1

K_PROLOGUE = 1
K_SNAPSHOT = 2
K_SCHEDULE = 3
K_MEM_ORDER = 4
K_SYSCALLS = 5
K_CHECKPOINT = 6
K_EXCLUSIONS = 7
K_META = 8

FRAME_NAMES = {
    K_PROLOGUE: "prologue",
    K_SNAPSHOT: "snapshot",
    K_SCHEDULE: "schedule",
    K_MEM_ORDER: "mem-order",
    K_SYSCALLS: "syscalls",
    K_CHECKPOINT: "checkpoint",
    K_EXCLUSIONS: "exclusions",
    K_META: "meta",
}

_FRAME_HEADER = struct.Struct("<BII")
_SCHED_ENTRY = struct.Struct("<II")
_EDGE_ENTRY = struct.Struct("<IIIIIB")
_CKPT_HEADER = struct.Struct("<QQ")

_EDGE_KINDS = ("raw", "waw", "war")
_EDGE_CODE = {"raw": 0, "waw": 1, "war": 2}


def _frame_error(source: str, offset: int, kind: Optional[int],
                 message: str) -> PinballFormatError:
    """The one typed error, always naming frame kind + byte offset."""
    if kind is None:
        where = "v2 container"
    else:
        name = FRAME_NAMES.get(kind, "unknown kind %d" % kind)
        where = "v2 %s frame" % name
    return PinballFormatError(
        "%s: %s at byte offset %d: %s" % (source, where, offset, message))


class FrameRef:
    """One frame located by the header scan; payload decoded on demand."""

    __slots__ = ("kind", "offset", "start", "length", "crc")

    def __init__(self, kind: int, offset: int, start: int, length: int,
                 crc: int) -> None:
        self.kind = kind
        self.offset = offset          # of the frame header, in the blob
        self.start = start            # of the payload
        self.length = length
        self.crc = crc

    def payload(self, blob: bytes, source: str) -> bytes:
        data = blob[self.start:self.start + self.length]
        if zlib.crc32(data) & 0xFFFFFFFF != self.crc:
            raise _frame_error(
                source, self.offset, self.kind,
                "CRC mismatch (stored 0x%08x, computed 0x%08x)"
                % (self.crc, zlib.crc32(data) & 0xFFFFFFFF))
        if OBS.enabled:
            OBS.add("pinplay.v2_frames_decoded", 1)
        return data


def scan_frames(blob: bytes, source: str = "<bytes>") -> List[FrameRef]:
    """Index every frame by walking headers only — O(frames), no payload
    reads, no CRC work."""
    # Slice compare, not startswith: ``blob`` may be an mmap (the lazy
    # file-open path maps the container instead of reading it into heap).
    if blob[:len(MAGIC)] != MAGIC:
        raise _frame_error(source, 0, None,
                           "bad magic (not a v2 pinball)")
    frames: List[FrameRef] = []
    offset = len(MAGIC)
    total = len(blob)
    while offset < total:
        if offset + _FRAME_HEADER.size > total:
            raise _frame_error(
                source, offset, None,
                "truncated frame header (%d bytes left, need %d)"
                % (total - offset, _FRAME_HEADER.size))
        kind, length, crc = _FRAME_HEADER.unpack_from(blob, offset)
        if kind not in FRAME_NAMES:
            raise _frame_error(source, offset, kind,
                               "unknown frame kind %d" % kind)
        start = offset + _FRAME_HEADER.size
        if start + length > total:
            raise _frame_error(
                source, offset, kind,
                "truncated payload (declares %d bytes, %d left)"
                % (length, total - start))
        frames.append(FrameRef(kind, offset, start, length, crc))
        offset = start + length
    if not frames or frames[0].kind != K_PROLOGUE:
        raise _frame_error(source, len(MAGIC), K_PROLOGUE,
                           "missing prologue frame")
    if frames[-1].kind != K_META:
        raise _frame_error(
            source, frames[-1].offset, K_META,
            "missing meta/epilogue frame (recording incomplete?)")
    return frames


def frame_chunks(blob: bytes, source: str = "<bytes>") -> List[bytes]:
    """The container split into per-frame byte chunks (header included),
    for content-addressed storage; ``MAGIC + b"".join(chunks)``
    reassembles the original blob exactly."""
    return [blob[ref.offset:ref.start + ref.length]
            for ref in scan_frames(blob, source)]


# -- frame payload codecs -----------------------------------------------------

def _pack_schedule(runs: Sequence) -> bytes:
    pack = _SCHED_ENTRY.pack
    return b"".join(pack(tid, count) for tid, count in runs)


def _unpack_schedule(data: bytes) -> List[tuple]:
    return [entry for entry in _SCHED_ENTRY.iter_unpack(data)]


def _pack_edges(edges: Sequence) -> bytes:
    pack = _EDGE_ENTRY.pack
    code = _EDGE_CODE
    return b"".join(
        pack(ft, fi, tt, ti, addr, code[kind])
        for ft, fi, tt, ti, addr, kind in edges)


def _unpack_edges(data: bytes) -> List[tuple]:
    kinds = _EDGE_KINDS
    return [(ft, fi, tt, ti, addr, kinds[code])
            for ft, fi, tt, ti, addr, code
            in _EDGE_ENTRY.iter_unpack(data)]


def _json_bytes(payload) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def capture_state(machine, consumed: Dict[int, int],
                  output: Sequence) -> dict:
    """One resumable state capture, in the format's own shape, so
    recorder checkpoints, reexec window starts and the debugger's live
    checkpoints all agree on it (and
    :func:`~repro.pinplay.replayer.resume_machine` restores every one).

    A machine replaying a slice pinball also carries its exclusion
    arrival counters, as JSON-safe ``[[tid, pc, n], ...]``; recordings
    never have exclusions, so their bodies (and bytes) do not change.
    """
    state = {
        "snapshot": machine.snapshot().to_dict(),
        "consumed": dict(consumed),
        "global_seq": machine.global_seq,
        "instr_counts": {tid: thread.instr_count
                         for tid, thread in machine.threads.items()},
        "output": list(output),
    }
    if machine._excl_watch:
        state["excl_arrivals"] = [
            [tid, pc, count] for (tid, pc), count
            in sorted(machine._excl_arrivals.items())]
    return state


def _decode_state(raw: dict) -> dict:
    """JSON round-trip normalization: tid keys back to ints."""
    raw["consumed"] = {int(tid): int(count)
                       for tid, count in raw["consumed"].items()}
    raw["instr_counts"] = {int(tid): int(count)
                           for tid, count in raw["instr_counts"].items()}
    return raw


class EmbeddedCheckpoint:
    """A checkpoint carried by (or destined for) a v2 pinball.

    ``steps_done``/``global_seq`` come from the cheap frame-header scan;
    the state body (snapshot, injector cursor, output, per-thread
    instruction counts) stays on disk until :meth:`body` is called.
    """

    __slots__ = ("steps_done", "global_seq", "_body", "_loader")

    def __init__(self, steps_done: int, global_seq: int,
                 body: Optional[dict] = None, loader=None) -> None:
        self.steps_done = steps_done
        self.global_seq = global_seq
        self._body = body
        self._loader = loader

    def body(self) -> dict:
        if self._body is None:
            self._body = _decode_state(self._loader())
            if OBS.enabled:
                OBS.add("pinplay.v2_checkpoints_loaded", 1)
        return self._body


def schedule_suffix(pinball, steps_done: int) -> List[tuple]:
    """The pinball's RLE schedule with the first ``steps_done`` steps
    dropped (splitting the straddling run): what a machine resumed from
    a checkpoint replays.  Bisects the pinball's cached prefix sums, so
    a resume costs O(log runs) plus the copied suffix."""
    schedule = pinball.schedule
    if steps_done <= 0:
        return list(schedule)
    prefix = pinball.schedule_prefix()
    # First run whose cumulative step count exceeds steps_done; runs
    # consumed exactly (prefix == steps_done) are skipped entirely.
    index = bisect_right(prefix, steps_done)
    if index >= len(schedule):
        return []
    return [(schedule[index][0], prefix[index] - steps_done),
            *schedule[index + 1:]]


# -- writer -------------------------------------------------------------------

class PinballWriter:
    """Streams v2 frames to a file object as recording proceeds.

    Nothing is buffered beyond the current frame: peak memory during a
    streamed record stays flat in region length.
    """

    def __init__(self, fileobj, program_name: str,
                 checkpoint_interval: int = 0) -> None:
        self._fh = fileobj
        self.frames_written = 0
        self.bytes_written = 0
        self._write(MAGIC)
        self.write_frame(K_PROLOGUE, _json_bytes({
            "format_version": 2,
            "program_name": program_name,
            "checkpoint_interval": int(checkpoint_interval),
        }))

    def _write(self, data: bytes) -> None:
        self._fh.write(data)
        self.bytes_written += len(data)

    def write_frame(self, kind: int, payload: bytes) -> None:
        self._write(_FRAME_HEADER.pack(
            kind, len(payload), zlib.crc32(payload) & 0xFFFFFFFF))
        self._write(payload)
        self.frames_written += 1
        if OBS.enabled:
            OBS.add("pinplay.v2_frames_written", 1)
            OBS.add("pinplay.v2_frame_bytes_written",
                    _FRAME_HEADER.size + len(payload))

    def write_snapshot(self, snapshot: dict) -> None:
        self.write_frame(K_SNAPSHOT,
                         zlib.compress(_json_bytes(snapshot), _ZLIB_LEVEL))

    def write_schedule(self, runs: Sequence) -> None:
        if runs:
            self.write_frame(K_SCHEDULE, _pack_schedule(runs))

    def write_mem_order(self, edges: Sequence) -> None:
        if edges:
            self.write_frame(K_MEM_ORDER, _pack_edges(edges))

    def write_syscalls(self, syscalls: Dict[int, list]) -> None:
        if syscalls:
            self.write_frame(K_SYSCALLS, _json_bytes(
                {str(tid): [[name, value] for name, value in log]
                 for tid, log in syscalls.items()}))

    def write_checkpoint(self, steps_done: int, global_seq: int,
                         body: dict) -> None:
        payload = (_CKPT_HEADER.pack(steps_done, global_seq)
                   + zlib.compress(_json_bytes(body), _ZLIB_LEVEL))
        self.write_frame(K_CHECKPOINT, payload)
        if OBS.enabled:
            OBS.add("pinplay.v2_checkpoints_embedded", 1)

    def write_exclusions(self, exclusions: Sequence) -> None:
        if exclusions:
            self.write_frame(K_EXCLUSIONS, _json_bytes(list(exclusions)))

    def write_meta(self, meta: dict) -> None:
        self.write_frame(K_META, _json_bytes(meta))


def encode_pinball(pinball) -> bytes:
    """An in-memory pinball rendered as a v2 container.

    Uses the writer's deterministic chunking, so a converted pinball
    shares frames with the streamed recording of the same run (frame
    *order* may differ, which the per-frame store dedup doesn't mind).
    """
    checkpoints = getattr(pinball, "checkpoints", None) or ()
    interval = 0
    if len(checkpoints) >= 1:
        interval = checkpoints[0].steps_done
    buffer = io.BytesIO()
    writer = PinballWriter(buffer, pinball.program_name,
                           checkpoint_interval=interval)
    writer.write_snapshot(pinball.snapshot)
    schedule = pinball.schedule
    for base in range(0, len(schedule), SCHEDULE_CHUNK):
        writer.write_schedule(schedule[base:base + SCHEDULE_CHUNK])
    edges = pinball.mem_order
    for base in range(0, len(edges), EDGE_CHUNK):
        writer.write_mem_order(edges[base:base + EDGE_CHUNK])
    writer.write_syscalls(pinball.syscalls)
    for checkpoint in checkpoints:
        writer.write_checkpoint(checkpoint.steps_done,
                                checkpoint.global_seq, checkpoint.body())
    writer.write_exclusions(pinball.exclusions)
    writer.write_meta(pinball.meta)
    return buffer.getvalue()


# -- lazy reader --------------------------------------------------------------

class _LazySection:
    """A pinball section decoded from its frames on first access.

    Plain attribute assignment still works (it lands in the instance
    cache), so code that mutates e.g. ``pinball.meta`` keeps working on
    lazy pinballs.
    """

    def __init__(self, name: str, decode) -> None:
        self.name = name
        self.decode = decode

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        try:
            return obj._cache[self.name]
        except KeyError:
            value = obj._cache[self.name] = self.decode(obj)
            return value

    def __set__(self, obj, value) -> None:
        obj._cache[self.name] = value


def _decode_json_frames(pinball: "LazyPinball", kind: int):
    for ref in pinball._frames:
        if ref.kind == kind:
            payload = ref.payload(pinball._blob, pinball._source)
            try:
                return json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as exc:
                raise _frame_error(pinball._source, ref.offset, kind,
                                   "invalid JSON payload (%s)" % exc) from exc
    return None


def _decode_snapshot(pinball: "LazyPinball") -> dict:
    for ref in pinball._frames:
        if ref.kind == K_SNAPSHOT:
            payload = ref.payload(pinball._blob, pinball._source)
            try:
                return json.loads(zlib.decompress(payload).decode("utf-8"))
            except (zlib.error, UnicodeDecodeError, ValueError) as exc:
                raise _frame_error(
                    pinball._source, ref.offset, K_SNAPSHOT,
                    "invalid snapshot payload (%s)" % exc) from exc
    raise _frame_error(pinball._source, len(MAGIC), K_SNAPSHOT,
                       "missing snapshot frame")


def _decode_schedule_frames(pinball: "LazyPinball") -> List[tuple]:
    runs: List[tuple] = []
    for ref in pinball._frames:
        if ref.kind == K_SCHEDULE:
            payload = ref.payload(pinball._blob, pinball._source)
            if len(payload) % _SCHED_ENTRY.size:
                raise _frame_error(
                    pinball._source, ref.offset, K_SCHEDULE,
                    "payload length %d is not a multiple of %d"
                    % (len(payload), _SCHED_ENTRY.size))
            runs.extend(_unpack_schedule(payload))
    return runs


def _decode_edge_frames(pinball: "LazyPinball") -> List[tuple]:
    edges: List[tuple] = []
    for ref in pinball._frames:
        if ref.kind == K_MEM_ORDER:
            payload = ref.payload(pinball._blob, pinball._source)
            if len(payload) % _EDGE_ENTRY.size:
                raise _frame_error(
                    pinball._source, ref.offset, K_MEM_ORDER,
                    "payload length %d is not a multiple of %d"
                    % (len(payload), _EDGE_ENTRY.size))
            try:
                edges.extend(_unpack_edges(payload))
            except IndexError as exc:
                raise _frame_error(
                    pinball._source, ref.offset, K_MEM_ORDER,
                    "invalid edge kind code") from exc
    return edges


def _decode_syscalls(pinball: "LazyPinball") -> dict:
    payload = _decode_json_frames(pinball, K_SYSCALLS)
    if payload is None:
        return {}
    try:
        return {int(tid): [(entry[0], entry[1]) for entry in log]
                for tid, log in payload.items()}
    except (TypeError, ValueError, IndexError, AttributeError) as exc:
        raise PinballFormatError(
            "%s: v2 syscalls frame: malformed payload (%s: %s)"
            % (pinball._source, type(exc).__name__, exc)) from exc


def _decode_exclusions(pinball: "LazyPinball") -> list:
    payload = _decode_json_frames(pinball, K_EXCLUSIONS)
    return payload if payload is not None else []


def _decode_meta(pinball: "LazyPinball") -> dict:
    payload = _decode_json_frames(pinball, K_META)
    if not isinstance(payload, dict):
        raise PinballFormatError(
            "%s: v2 meta frame: payload must be a JSON object"
            % pinball._source)
    return payload


def _decode_checkpoints(pinball: "LazyPinball") -> List[EmbeddedCheckpoint]:
    checkpoints: List[EmbeddedCheckpoint] = []
    for ref in pinball._frames:
        if ref.kind != K_CHECKPOINT:
            continue
        if ref.length < _CKPT_HEADER.size:
            raise _frame_error(
                pinball._source, ref.offset, K_CHECKPOINT,
                "payload too short for checkpoint header (%d bytes)"
                % ref.length)
        # The scan header is read without CRC work (laziness is the
        # point); the body loader below verifies the whole payload.
        steps_done, global_seq = _CKPT_HEADER.unpack_from(
            pinball._blob, ref.start)

        def loader(ref=ref):
            payload = ref.payload(pinball._blob, pinball._source)
            try:
                return json.loads(zlib.decompress(
                    payload[_CKPT_HEADER.size:]).decode("utf-8"))
            except (zlib.error, UnicodeDecodeError, ValueError) as exc:
                raise _frame_error(
                    pinball._source, ref.offset, K_CHECKPOINT,
                    "invalid checkpoint body (%s)" % exc) from exc

        checkpoints.append(
            EmbeddedCheckpoint(steps_done, global_seq, loader=loader))
    checkpoints.sort(key=lambda c: c.steps_done)
    return checkpoints


class LazyPinball(Pinball):
    """A v2 pinball that decodes sections on first access.

    Opening costs a header-only frame scan; replay touches schedule,
    syscalls, snapshot and meta but never pays for mem-order edges or
    checkpoint bodies it does not use.  All decoded data comes straight
    from packed structs / trusted JSON, so there is no per-element
    re-validation pass at all (the per-frame CRC already vouched for the
    bytes).
    """

    snapshot = _LazySection("snapshot", _decode_snapshot)
    schedule = _LazySection("schedule", _decode_schedule_frames)
    syscalls = _LazySection("syscalls", _decode_syscalls)
    mem_order = _LazySection("mem_order", _decode_edge_frames)
    exclusions = _LazySection("exclusions", _decode_exclusions)
    meta = _LazySection("meta", _decode_meta)
    checkpoints = _LazySection("checkpoints", _decode_checkpoints)

    def __init__(self, blob: bytes, frames: List[FrameRef],
                 source: str) -> None:
        # Deliberately no super().__init__: every section is lazy.
        self._blob = blob
        self._frames = frames
        self._source = source
        self._cache: dict = {}
        prologue = json.loads(
            frames[0].payload(blob, source).decode("utf-8"))
        version = prologue.get("format_version")
        if version != 2:
            raise _frame_error(
                source, frames[0].offset, K_PROLOGUE,
                "unsupported pinball format version %r (expected 2)"
                % (version,))
        self.program_name = prologue.get("program_name", "")
        self.checkpoint_interval = int(
            prologue.get("checkpoint_interval") or 0)
        self._native_format = "v2"

    @property
    def format(self) -> str:
        return "v2"

    def to_bytes(self, compress: bool = True,
                 format: Optional[str] = None) -> bytes:
        fmt = format or "v2"
        if fmt == "v2":
            # Already the canonical encoding; materialize when the
            # backing store is an mmap rather than bytes.
            blob = self._blob
            return blob if isinstance(blob, bytes) else bytes(blob)
        return super().to_bytes(compress=compress, format=fmt)


def open_pinball(blob: bytes, source: str = "<bytes>") -> LazyPinball:
    """Open a v2 container lazily; raises :class:`PinballFormatError`
    with frame kind + byte offset on any structural problem."""
    frames = scan_frames(blob, source)
    pinball = LazyPinball(blob, frames, source)
    if OBS.enabled:
        OBS.add("pinplay.v2_pinballs_opened", 1)
        OBS.add("pinplay.v2_frames_indexed", len(frames))
    return pinball
