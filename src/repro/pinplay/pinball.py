"""The pinball: everything needed to deterministically replay an execution.

A pinball captures one *region* of one run of one program:

* ``snapshot`` — full architectural state at region entry (memory image,
  all thread contexts, lock table, RNG state, pending inputs);
* ``schedule`` — the run-length-encoded interleaving, one entry per
  scheduler step (including lock attempts that blocked);
* ``syscalls`` — per-thread ordered results of nondeterministic syscalls
  (``input``/``rand``/``time``) to inject during replay;
* ``mem_order`` — the shared-memory access-order edges (RAW/WAW/WAR across
  threads) the dynamic slicer uses to build the global trace — "already
  available in a pinball, as it is needed for replay" (paper Section 3);
* ``exclusions`` — for *slice pinballs* only: the dynamic code-exclusion
  records with their side-effect injections (paper Section 4);
* ``meta`` — bookkeeping: region bounds, per-thread instruction counts,
  failure record, expected output, and a final-state hash the replayer can
  verify against.

Two serialized forms exist.  Format **v1** is one zlib-compressed JSON
blob (this module).  Format **v2** (:mod:`repro.pinplay.format_v2`) is a
streaming container of framed binary segments with embedded machine
checkpoints; :meth:`Pinball.from_bytes` auto-detects both, and
``to_bytes``/``save`` take a ``format`` argument whose default follows
the ``repro.config`` ``pinball_format`` knob.  :meth:`Pinball.save`
returns the on-disk byte size, which is what the Table 2/3 "Space"
columns report.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import zlib
from bisect import bisect_right
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.registry import OBS


class PinballFormatError(ValueError):
    """A blob/file is not a loadable pinball.

    One clean, typed error for every way deserialization can fail —
    truncated or corrupt compressed data, non-JSON payloads, non-object
    JSON, wrong ``format_version``, missing required fields — instead of
    leaking raw ``zlib``/``json``/``KeyError`` internals to callers.  The
    message always names the offending source (file path, or
    ``"<bytes>"`` for in-memory blobs).  Subclasses :class:`ValueError`
    so existing ``except ValueError`` handlers (the CLI's exit-65 path)
    keep working.
    """


class Pinball:
    """A recorded execution region; see module docstring for the fields."""

    FORMAT_VERSION = 1
    #: Where the pinball was read from (a file path, ``"<bytes>"``), so
    #: errors found after loading can name it.
    _source = "<in-memory pinball>"

    def __init__(self,
                 program_name: str,
                 snapshot: dict,
                 schedule: Sequence[Tuple[int, int]],
                 syscalls: Dict[int, List[Tuple[str, object]]],
                 mem_order: Sequence[Tuple[int, int, int, int, int, str]] = (),
                 exclusions: Sequence[dict] = (),
                 meta: Optional[dict] = None,
                 trusted: bool = False) -> None:
        """``trusted=True`` skips the per-element normalization casts.

        Use it only when the inputs are already in canonical form — i.e.
        they come from this class's own serialized representation
        (:meth:`from_dict`) or from the logger/relogger, whose recorders
        produce typed tuples directly.  Outer containers are still
        shallow-copied so pinballs never alias caller state.
        """
        self.program_name = program_name
        self.snapshot = snapshot
        if trusted:
            self.schedule = list(schedule)
            self.syscalls = {tid: list(log)
                             for tid, log in syscalls.items()}
            self.mem_order = list(mem_order)
        else:
            self.schedule = [(int(t), int(c)) for t, c in schedule]
            self.syscalls = {int(t): [(str(n), v) for n, v in log]
                             for t, log in syscalls.items()}
            self.mem_order = [tuple(edge) for edge in mem_order]
        self.exclusions = list(exclusions)
        self.meta = dict(meta or {})
        #: :class:`~repro.pinplay.format_v2.EmbeddedCheckpoint` list —
        #: populated by the recorder (v2) or checkpoint generation; not
        #: part of the v1 serialized form.
        self.checkpoints: list = []
        #: Set to "v2" by a v2 recording: serialization then defaults to
        #: v2 even when the config knob says v1 (the embedded
        #: checkpoints would otherwise silently drop).
        self._native_format = "v1"

    @property
    def format(self) -> str:
        """The serialized form this pinball came from / natively uses."""
        return self._native_format

    # -- derived quantities ---------------------------------------------------

    @property
    def kind(self) -> str:
        return self.meta.get("kind", "region")

    def schedule_prefix(self) -> List[int]:
        """Cumulative step counts of the RLE schedule runs: entry ``i``
        is the steps retired once run ``i`` is fully consumed.

        Cached: O(runs) to build, and both :attr:`total_steps` (read per
        debugger command) and every checkpoint resume
        (:func:`~repro.pinplay.format_v2.schedule_suffix` bisects it)
        need it.  The cache key guards the two ways the list could
        change under us — rebinding and appends — neither of which any
        current code path does after construction.
        """
        schedule = self.schedule
        cached = self.__dict__.get("_sched_prefix")
        if (cached is None or cached[0] is not schedule
                or cached[1] != len(schedule)):
            cached = (schedule, len(schedule),
                      list(accumulate(count for _tid, count in schedule)))
            self.__dict__["_sched_prefix"] = cached
        return cached[2]

    @property
    def total_steps(self) -> int:
        prefix = self.schedule_prefix()
        return prefix[-1] if prefix else 0

    @property
    def total_instructions(self) -> int:
        """Instructions retired in the region, across all threads."""
        counts = self.meta.get("thread_instr_counts", {})
        return sum(int(v) for v in counts.values())

    def thread_instructions(self, tid: int) -> int:
        counts = self.meta.get("thread_instr_counts", {})
        return int(counts.get(str(tid), counts.get(tid, 0)))

    def nearest_checkpoint(self, steps: int):
        """The latest embedded checkpoint at or before region step
        ``steps`` (None when the pinball carries none that early).

        The one checkpoint-selection primitive: every consumer (the
        replayer's resume path, the debugger's rewind, the reexec
        slicer's window passes) binary-searches the same
        cached ascending index instead of scanning CHECKPOINT frames
        independently.  The cache key guards rebinding and appends,
        the two ways the list could change after construction.
        """
        checkpoints = self.checkpoints
        if not checkpoints:
            return None
        cached = self.__dict__.get("_ckpt_index")
        if (cached is None or cached[0] is not checkpoints
                or cached[1] != len(checkpoints)):
            ordered = sorted(checkpoints, key=lambda c: c.steps_done)
            cached = (checkpoints, len(checkpoints), ordered,
                      [c.steps_done for c in ordered])
            self.__dict__["_ckpt_index"] = cached
        index = bisect_right(cached[3], steps)
        return cached[2][index - 1] if index else None

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format_version": self.FORMAT_VERSION,
            "program_name": self.program_name,
            "snapshot": self.snapshot,
            "schedule": [list(entry) for entry in self.schedule],
            "syscalls": {str(tid): [[name, value] for name, value in log]
                         for tid, log in self.syscalls.items()},
            "mem_order": [list(edge) for edge in self.mem_order],
            "exclusions": self.exclusions,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, payload: dict, source: str = "<dict>") -> "Pinball":
        if not isinstance(payload, dict):
            raise PinballFormatError(
                "%s: pinball payload must be a JSON object, got %s"
                % (source, type(payload).__name__))
        version = payload.get("format_version")
        if version != cls.FORMAT_VERSION:
            raise PinballFormatError(
                "%s: unsupported pinball format version %r (expected %r)"
                % (source, version, cls.FORMAT_VERSION))
        # JSON already delivers ints: the schedule is type-checked, not
        # re-boxed through ``int()`` (which dominated Pinball.load for
        # long regions).  Syscall tids are the one real conversion.
        try:
            schedule = [(t, c) for t, c in payload["schedule"]]
            for index, (tid, count) in enumerate(schedule):
                if type(tid) is not int or type(count) is not int or count < 1:
                    raise PinballFormatError(
                        "%s: malformed schedule (run %d is %r, not an int "
                        "tid and an int count of at least 1)"
                        % (source, index, [tid, count]))
            syscalls = {}
            for tid, log in payload["syscalls"].items():
                results = syscalls[int(tid)] = []
                for index, entry in enumerate(log):
                    if (type(entry) is not list or len(entry) != 2
                            or type(entry[0]) is not str):
                        raise PinballFormatError(
                            "%s: malformed syscall log (thread %s result %d "
                            "is %r, not a [name, value] pair)"
                            % (source, tid, index, entry))
                    results.append((entry[0], entry[1]))
            pinball = cls(
                program_name=payload["program_name"],
                snapshot=payload["snapshot"],
                schedule=schedule,
                syscalls=syscalls,
                mem_order=[tuple(edge) for edge in payload["mem_order"]],
                exclusions=payload.get("exclusions", []),
                meta=payload.get("meta", {}),
                trusted=True,
            )
        except PinballFormatError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise PinballFormatError(
                "%s: malformed pinball payload (%s: %s)"
                % (source, type(exc).__name__, exc)) from exc
        pinball._source = source
        return pinball

    def to_bytes(self, compress: bool = True,
                 format: Optional[str] = None) -> bytes:
        """Serialize; ``format`` is ``"v1"``/``"v2"``, defaulting to the
        pinball's native format if that is v2, else to the
        ``pinball_format`` config knob (env ``REPRO_PINBALL_FORMAT``)."""
        from repro import config
        if format is None and self._native_format == "v2":
            format = "v2"
        if config.pinball_format(explicit=format) == "v2":
            from repro.pinplay import format_v2
            return format_v2.encode_pinball(self)
        raw = json.dumps(self.to_dict(), separators=(",", ":")).encode("utf-8")
        return zlib.compress(raw, level=6) if compress else raw

    @classmethod
    def from_bytes(cls, blob: bytes, source: str = "<bytes>") -> "Pinball":
        if blob[:4] == b"RPB2":
            from repro.pinplay import format_v2
            pinball = format_v2.open_pinball(bytes(blob), source=source)
            if OBS.enabled:
                OBS.add("pinplay.pinballs_loaded", 1)
                OBS.add("pinplay.pinball_bytes_read", len(blob))
            return pinball
        try:
            raw = zlib.decompress(blob)
        except zlib.error:
            # Either an uncompressed pinball (valid: to_bytes(compress=
            # False)) or corrupt/truncated compressed data — the JSON
            # parse below discriminates and raises the typed error.
            raw = blob
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise PinballFormatError(
                "%s: not a pinball (neither valid compressed nor plain "
                "JSON: %s)" % (source, exc)) from exc
        pinball = cls.from_dict(payload, source=source)
        if OBS.enabled:
            OBS.add("pinplay.pinballs_loaded", 1)
            OBS.add("pinplay.pinball_bytes_read", len(blob))
        return pinball

    def save(self, path: str, compress: bool = True,
             format: Optional[str] = None) -> int:
        """Write to ``path``; returns the stored size in bytes."""
        blob = self.to_bytes(compress=compress, format=format)
        with open(path, "wb") as handle:
            handle.write(blob)
        if OBS.enabled:
            OBS.add("pinplay.pinballs_saved", 1)
            OBS.add("pinplay.pinball_bytes_written", len(blob))
        return os.path.getsize(path)

    @classmethod
    def load(cls, path: str) -> "Pinball":
        with open(path, "rb") as handle:
            if handle.read(4) == b"RPB2":
                # Map the container instead of copying it into the heap:
                # the lazy open scans frame headers in place, and payload
                # bytes are only materialized per-frame on first access.
                # (The mapping outlives the closed handle.)
                try:
                    blob = mmap.mmap(handle.fileno(), 0,
                                     access=mmap.ACCESS_READ)
                except (ValueError, OSError):
                    handle.seek(0)
                    return cls.from_bytes(handle.read(), source=path)
                from repro.pinplay import format_v2
                pinball = format_v2.open_pinball(blob, source=path)
                if OBS.enabled:
                    OBS.add("pinplay.pinballs_loaded", 1)
                    OBS.add("pinplay.pinball_bytes_read", len(blob))
                return pinball
            handle.seek(0)
            return cls.from_bytes(handle.read(), source=path)

    def size_bytes(self, compress: bool = True,
                   format: Optional[str] = None) -> int:
        """In-memory serialized size (no file needed)."""
        return len(self.to_bytes(compress=compress, format=format))


def state_hash(machine) -> str:
    """Hash of guest-visible machine state, for replay verification.

    Covers memory contents and every live thread's registers and pc — if a
    replay reproduces this hash, it reproduced the architectural state.
    """
    digest = hashlib.sha256()
    for addr, value in machine.memory.nonzero_items():
        digest.update(("%d=%r;" % (addr, value)).encode())
    for tid, thread in sorted(machine.threads.items()):
        digest.update(("T%d@%d:%s;" % (tid, thread.pc, thread.status)).encode())
        for name, value in sorted(thread.regs.items()):
            digest.update(("%s=%r," % (name, value)).encode())
    return digest.hexdigest()
