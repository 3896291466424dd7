"""Content-addressed pinball repository: sha256-keyed zlib blobs + manifest.

The durable half of the debug service.  rr's engineering report stresses
that record/replay artifacts only pay off when they are *durable,
shareable objects*; this store gives pinballs (and the program sources
needed to replay them) exactly that shape:

* **Blobs** live under ``<root>/blobs/<sha[:2]>/<sha>.blob`` as
  zlib-compressed payloads.  The key is the sha256 of the *uncompressed*
  payload, so the address is the content: storing the same
  program + schedule twice lands on the same key and the second put is a
  no-op (dedup).  Blob writes are atomic (write-temp + ``os.replace``)
  and idempotent.
* **The manifest** (``<root>/manifest.json``) carries everything that is
  *not* content: kind, tags, free-form metadata, sizes, creation time.
  It is rewritten atomically (write-temp + ``os.replace``), so readers
  never observe a torn manifest.  Worker processes never need it —
  :meth:`PinballStore.get` derives the blob path from the key alone —
  which is what lets the server own all manifest writes while the pool
  reads blobs concurrently.
* **Integrity**: every read decompresses and re-hashes.  Truncated,
  bit-flipped or otherwise corrupt blobs surface as
  :class:`~repro.pinplay.pinball.PinballFormatError` naming the on-disk
  blob path.
* **Chunked pinballs**: a format-v2 container is stored one blob *per
  frame* plus a small self-describing index blob, so re-recording a
  longer run of the same program dedups every frame of the shared
  prefix.  :meth:`PinballStore.get_payload` reassembles the container
  from the index alone (no manifest needed).
* **gc** removes untagged entries (and their blobs) plus any orphan
  blob files on disk that the manifest no longer references; untagged
  frame blobs survive while a surviving index entry references them.
* **Derived index blobs** (``<root>/indexes/<sha[:2]>/<sha>.<fp>.idx``)
  persist built DDG indexes keyed by ``(pinball sha, SliceOptions
  fingerprint)`` so any node can warm-start a slicing session without
  re-tracing (see :mod:`repro.slicing.ddg_serde`).  They are derived
  data — regenerable from the pinball — so they bypass the manifest
  entirely: pool workers on any node write them with a plain atomic
  rename, and gc sweeps those whose pinball no longer exists.
* **Multi-node sharing**: every manifest mutation runs inside an
  advisory ``flock`` transaction (``<root>/manifest.lock``) that
  re-reads the manifest first, so N server processes on a shared
  filesystem merge their writes instead of clobbering each other.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

try:
    import fcntl
except ImportError:          # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.obs.registry import OBS
from repro.pinplay.format_v2 import MAGIC as V2_MAGIC
from repro.pinplay.pinball import Pinball, PinballFormatError

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1
LOCK_NAME = "manifest.lock"
INDEX_SUFFIX = ".idx"

_MISSING = object()


def _utcnow() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


@dataclass
class StoreEntry:
    """One manifest row: everything about a blob that is not its content."""

    sha: str
    kind: str = "pinball"
    tags: List[str] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)
    size: int = 0                 # uncompressed payload bytes
    stored_size: int = 0          # zlib blob bytes on disk
    created: str = ""

    def to_dict(self) -> dict:
        return {
            "sha": self.sha,
            "kind": self.kind,
            "tags": sorted(self.tags),
            "meta": self.meta,
            "size": self.size,
            "stored_size": self.stored_size,
            "created": self.created,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StoreEntry":
        return cls(sha=payload["sha"], kind=payload.get("kind", "pinball"),
                   tags=list(payload.get("tags", [])),
                   meta=dict(payload.get("meta", {})),
                   size=int(payload.get("size", 0)),
                   stored_size=int(payload.get("stored_size", 0)),
                   created=payload.get("created", ""))


class PinballStore:
    """A content-addressed blob repository rooted at one directory."""

    def __init__(self, root: str, create: bool = True) -> None:
        self.root = os.path.abspath(root)
        self.blob_root = os.path.join(self.root, "blobs")
        self.index_root = os.path.join(self.root, "indexes")
        self.manifest_path = os.path.join(self.root, MANIFEST_NAME)
        self.lock_path = os.path.join(self.root, LOCK_NAME)
        self._lock_depth = 0
        self._lock_handle = None
        if create:
            os.makedirs(self.blob_root, exist_ok=True)
        self._entries: Dict[str, StoreEntry] = {}
        # Set when the in-memory manifest holds a change not yet written.
        self._dirty = False
        self._load_manifest()

    @contextmanager
    def _locked(self):
        """Advisory cross-process manifest transaction (reentrant).

        On outermost entry: take an exclusive ``flock`` on the lock
        file, then re-read the manifest so writes from other server
        processes sharing the store are merged before ours lands.  Blob
        and index files never need this — they are content-addressed
        and written atomically — only the read-modify-write of the
        manifest does.  No-op degradation where ``flock`` is missing.
        """
        if self._lock_depth:
            self._lock_depth += 1
            try:
                yield
            finally:
                self._lock_depth -= 1
            return
        handle = None
        if fcntl is not None:
            try:
                handle = open(self.lock_path, "a+")
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            except OSError:
                handle = None
        self._lock_depth = 1
        self._lock_handle = handle
        try:
            self.reload()
            yield
        finally:
            self._lock_depth = 0
            self._lock_handle = None
            if handle is not None:
                try:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
                except OSError:
                    pass
                handle.close()

    # -- manifest ----------------------------------------------------------

    def _load_manifest(self) -> None:
        try:
            with open(self.manifest_path) as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return
        except (OSError, ValueError) as exc:
            raise PinballFormatError(
                "%s: unreadable store manifest (%s)"
                % (self.manifest_path, exc)) from exc
        if (not isinstance(payload, dict)
                or payload.get("manifest_version") != MANIFEST_VERSION):
            raise PinballFormatError(
                "%s: unsupported store manifest version %r"
                % (self.manifest_path,
                   payload.get("manifest_version")
                   if isinstance(payload, dict) else None))
        self._entries = {
            sha: StoreEntry.from_dict(entry)
            for sha, entry in payload.get("entries", {}).items()}

    def reload(self) -> None:
        """Re-read the manifest from disk (other-process writes)."""
        self._entries = {}
        self._dirty = False
        self._load_manifest()

    def _write_manifest(self) -> None:
        """Atomic rewrite: serialize to a temp file, then ``os.replace``.

        A crash mid-write leaves either the old manifest or the new one
        on disk, never a torn hybrid; the temp file is cleaned up on
        failure.
        """
        payload = {
            "manifest_version": MANIFEST_VERSION,
            "entries": {sha: entry.to_dict()
                        for sha, entry in sorted(self._entries.items())},
        }
        tmp_path = self.manifest_path + ".tmp.%d" % os.getpid()
        try:
            with open(tmp_path, "w") as handle:
                # Compact: CPython's C encoder runs only without indent.
                json.dump(payload, handle, separators=(",", ":"),
                          sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self.manifest_path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self._dirty = False

    # -- blob addressing ---------------------------------------------------

    def blob_path(self, sha: str) -> str:
        return os.path.join(self.blob_root, sha[:2], sha + ".blob")

    @staticmethod
    def content_key(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    # -- writes ------------------------------------------------------------

    def _put_blob(self, data: bytes, kind: str) -> Tuple[str, bool]:
        """Write one content-addressed blob + manifest entry in memory.

        Does *not* persist the manifest — callers batch several blob
        writes (a v2 pinball's frames) under one ``_write_manifest``.
        """
        sha = self.content_key(data)
        entry = self._entries.get(sha)
        deduplicated = entry is not None
        if entry is None:
            blob = zlib.compress(data, 6)
            path = self.blob_path(sha)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            if not os.path.exists(path):
                tmp_path = path + ".tmp.%d" % os.getpid()
                with open(tmp_path, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp_path, path)
            entry = StoreEntry(sha=sha, kind=kind, size=len(data),
                               stored_size=len(blob), created=_utcnow())
            self._entries[sha] = entry
            self._dirty = True
            if OBS.enabled:
                OBS.add("serve.store/bytes_written", len(blob))
        else:
            if OBS.enabled:
                OBS.inc("serve.store/dedup_hits")
        return sha, deduplicated

    def put(self, data: bytes, kind: str = "pinball",
            tags: Iterable[str] = (), meta: Optional[dict] = None,
            ) -> Tuple[str, bool]:
        """Store ``data``; returns ``(sha, deduplicated)``.

        Re-putting identical content merges tags/meta into the existing
        entry and writes no second blob (``deduplicated=True``); when
        that adds nothing, the manifest is not rewritten either.
        """
        with self._locked():
            sha, deduplicated = self._put_blob(data, kind)
            entry = self._entries[sha]
            for tag in tags:
                if tag not in entry.tags:
                    entry.tags.append(tag)
                    self._dirty = True
            if meta and any(entry.meta.get(name, _MISSING) != value
                            for name, value in meta.items()):
                entry.meta.update(meta)
                self._dirty = True
            # A put that changed nothing leaves the manifest untouched.
            if self._dirty:
                self._write_manifest()
        if OBS.enabled:
            OBS.inc("serve.store/puts")
        return sha, deduplicated

    def tag(self, sha: str, *tags: str) -> None:
        with self._locked():
            entry = self._require(sha)
            for tag in tags:
                if tag not in entry.tags:
                    entry.tags.append(tag)
            self._write_manifest()

    def untag(self, sha: str, *tags: str) -> None:
        with self._locked():
            entry = self._require(sha)
            entry.tags = [t for t in entry.tags if t not in tags]
            self._write_manifest()

    def delete(self, sha: str) -> None:
        with self._locked():
            self._require(sha)
            del self._entries[sha]
            try:
                os.unlink(self.blob_path(sha))
            except OSError:
                pass
            self._write_manifest()

    def gc(self) -> List[str]:
        """Remove untagged entries and orphan blob files; returns keys.

        Frame blobs of a chunked (v2) pinball are untagged by design:
        they survive gc for as long as some surviving entry lists them in
        ``meta["frames"]``, and go away with the last index that does.
        Cached DDG index files ride along: an index whose pinball entry
        no longer survives is derived garbage and is swept too (tracked
        by the ``serve.store/gc_index_removed`` counter, not the return
        list — they are files, not manifest keys).
        """
        with self._locked():
            candidates = {sha for sha, entry in self._entries.items()
                          if not entry.tags}
            referenced = set()
            for sha, entry in self._entries.items():
                if sha in candidates:
                    continue
                referenced.update(entry.meta.get("frames", ()))
            removed = sorted(candidates - referenced)
            for sha in removed:
                del self._entries[sha]
                try:
                    os.unlink(self.blob_path(sha))
                except OSError:
                    pass
            # Orphan blobs: files on disk the manifest no longer
            # references (e.g. a crash between blob write and manifest
            # write).
            for dirpath, _dirnames, filenames in os.walk(self.blob_root):
                for filename in filenames:
                    if not filename.endswith(".blob"):
                        continue
                    sha = filename[:-len(".blob")]
                    if sha not in self._entries:
                        try:
                            os.unlink(os.path.join(dirpath, filename))
                        except OSError:
                            pass
                        if sha not in removed:
                            removed.append(sha)
            index_removed = 0
            for pinball_sha, _fingerprint, path in self._index_files():
                if pinball_sha not in self._entries:
                    try:
                        os.unlink(path)
                        index_removed += 1
                    except OSError:
                        pass
            self._write_manifest()
        if OBS.enabled:
            OBS.add("serve.store/gc_removed", len(removed))
            OBS.add("serve.store/gc_index_removed", index_removed)
        return removed

    # -- reads -------------------------------------------------------------

    def _require(self, sha: str) -> StoreEntry:
        entry = self._entries.get(sha)
        if entry is None:
            raise KeyError("store has no entry %s" % sha)
        return entry

    def has(self, sha: str) -> bool:
        return sha in self._entries or os.path.exists(self.blob_path(sha))

    def entry(self, sha: str) -> StoreEntry:
        entry = self._entries.get(sha)
        if entry is None:
            # Another node may have registered the key since our last
            # manifest read (shared-store multi-node mode): one reload
            # before giving up makes cross-node keys visible.
            self.reload()
            entry = self._require(sha)
        return entry

    def get(self, sha: str) -> bytes:
        """Read, decompress and *verify* the blob for ``sha``.

        Works without the manifest (the path is derived from the key),
        so pool workers can read blobs the server just wrote without a
        manifest reload.  Any integrity failure raises
        :class:`PinballFormatError` naming the blob path.
        """
        path = self.blob_path(sha)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            raise KeyError("store has no blob %s (expected at %s)"
                           % (sha, path))
        try:
            data = zlib.decompress(blob)
        except zlib.error as exc:
            raise PinballFormatError(
                "%s: corrupt store blob (zlib: %s)" % (path, exc)) from exc
        actual = self.content_key(data)
        if actual != sha:
            raise PinballFormatError(
                "%s: store blob content hash mismatch (manifest key %s, "
                "content %s)" % (path, sha, actual))
        if OBS.enabled:
            OBS.inc("serve.store/gets")
            OBS.add("serve.store/bytes_read", len(blob))
        return data

    def list(self, kind: Optional[str] = None,
             tag: Optional[str] = None) -> List[dict]:
        out = []
        for sha in sorted(self._entries):
            entry = self._entries[sha]
            if kind is not None and entry.kind != kind:
                continue
            if tag is not None and tag not in entry.tags:
                continue
            out.append(entry.to_dict())
        return out

    def stats(self) -> dict:
        by_kind: Dict[str, int] = {}
        for entry in self._entries.values():
            by_kind[entry.kind] = by_kind.get(entry.kind, 0) + 1
        index_files = 0
        index_bytes = 0
        for _sha, _fp, path in self._index_files():
            index_files += 1
            try:
                index_bytes += os.path.getsize(path)
            except OSError:
                pass
        return {
            "root": self.root,
            "entries": len(self._entries),
            "by_kind": by_kind,
            "bytes_raw": sum(e.size for e in self._entries.values()),
            "bytes_stored": sum(e.stored_size
                                for e in self._entries.values()),
            "index_files": index_files,
            "index_bytes": index_bytes,
        }

    # -- derived index blobs (persistent DDG cache) ------------------------

    def index_path(self, pinball_sha: str, fingerprint: str) -> str:
        return os.path.join(self.index_root, pinball_sha[:2],
                            "%s.%s%s" % (pinball_sha, fingerprint,
                                         INDEX_SUFFIX))

    def _index_files(self):
        """Yield ``(pinball_sha, fingerprint, path)`` for every cached
        index file on disk (skips names we did not write)."""
        for dirpath, _dirnames, filenames in os.walk(self.index_root):
            for filename in sorted(filenames):
                if not filename.endswith(INDEX_SUFFIX):
                    continue
                stem = filename[:-len(INDEX_SUFFIX)]
                pinball_sha, sep, fingerprint = stem.partition(".")
                if sep:
                    yield (pinball_sha, fingerprint,
                           os.path.join(dirpath, filename))

    def put_index(self, pinball_sha: str, fingerprint: str,
                  data: bytes) -> str:
        """Persist a serialized DDG index for ``(pinball, options)``.

        Manifest-free by design: the payload is derived data any node
        can regenerate, the name encodes the full key, and the write is
        an atomic rename — so pool workers on any node store indexes
        concurrently with zero coordination.  Returns the path.
        """
        path = self.index_path(pinball_sha, fingerprint)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp_path = path + ".tmp.%d" % os.getpid()
        try:
            with open(tmp_path, "wb") as handle:
                handle.write(data)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        if OBS.enabled:
            OBS.inc("serve.store/index_puts")
            OBS.add("serve.store/index_bytes_written", len(data))
        return path

    def get_index(self, pinball_sha: str, fingerprint: str) -> bytes:
        """The serialized index blob, raw (the ``RIX1`` container does
        its own CRC/version verification on deserialize).  Raises
        :class:`KeyError` on a cache miss."""
        path = self.index_path(pinball_sha, fingerprint)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            raise KeyError("store has no cached index for %s/%s"
                           % (pinball_sha, fingerprint))
        if OBS.enabled:
            OBS.inc("serve.store/index_gets")
        return data

    def delete_index(self, pinball_sha: str,
                     fingerprint: Optional[str] = None) -> int:
        """Drop cached indexes for a pinball (one fingerprint, or all);
        returns the number of files removed.  Used when a cached blob
        turns out corrupt, and by cache invalidation."""
        removed = 0
        if fingerprint is not None:
            targets = [self.index_path(pinball_sha, fingerprint)]
        else:
            targets = [path for sha, _fp, path in self._index_files()
                       if sha == pinball_sha]
        for path in targets:
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    # -- pinball / source conveniences ------------------------------------

    def put_pinball(self, pinball: Pinball, tags: Iterable[str] = (),
                    meta: Optional[dict] = None,
                    format: Optional[str] = None) -> str:
        """Store a pinball; returns the sha to fetch it back by.

        v1 pinballs are one blob, content-addressed over the canonical
        uncompressed JSON, so two recordings of the same
        program + schedule — byte-identical payloads — deduplicate to one
        blob.  v2 containers are chunked *per frame*: each frame becomes
        its own untagged blob and the addressed entry is a small index
        listing them, so re-recording a longer run of the same program
        dedups every frame of the shared prefix.  ``format`` defaults to
        the pinball's own format (v1 stays v1, a lazily-opened v2 file
        stays v2) unless the ``pinball_format`` config knob overrides.
        """
        combined = dict(meta or {})
        combined.setdefault("program_name", pinball.program_name)
        combined.setdefault("kind_detail", pinball.kind)
        combined.setdefault("instructions", pinball.total_instructions)
        combined.setdefault(
            "failure", (pinball.meta.get("failure") or {}).get("code"))
        blob = pinball.to_bytes(compress=False, format=format)
        # One transaction around the whole put: a chunked container's
        # frame blobs land in memory first and must not be discarded by
        # the inner put()'s manifest merge.
        with self._locked():
            if blob[:4] == V2_MAGIC:
                return self._put_pinball_v2(blob, pinball.program_name,
                                            tags, combined)
            sha, _dedup = self.put(blob, kind="pinball", tags=tags,
                                   meta=combined)
        return sha

    def _put_pinball_v2(self, blob: bytes, program_name: str,
                        tags: Iterable[str], meta: dict) -> str:
        from repro.pinplay.format_v2 import frame_chunks
        frames = []
        frame_dedups = 0
        for chunk in frame_chunks(blob, source="<store put>"):
            fsha, dedup = self._put_blob(chunk, kind="pinball-frame")
            frames.append(fsha)
            if dedup:
                frame_dedups += 1
        index = json.dumps(
            {"repro_pinball_v2_index": 1, "program_name": program_name,
             "frames": frames},
            sort_keys=True).encode("utf-8")
        meta = dict(meta)
        meta["format"] = "v2"
        meta["frames"] = frames
        sha, _dedup = self.put(index, kind="pinball", tags=tags, meta=meta)
        if OBS.enabled:
            OBS.add("serve.store/frame_puts", len(frames))
            OBS.add("serve.store/frame_dedup_hits", frame_dedups)
        return sha

    @staticmethod
    def _v2_index_frames(data: bytes) -> Optional[List[str]]:
        """The frame shas if ``data`` is a chunked-pinball index blob."""
        if not data.startswith(b"{") or b"repro_pinball_v2_index" not in data:
            return None
        try:
            payload = json.loads(data)
        except ValueError:
            return None
        if (isinstance(payload, dict)
                and payload.get("repro_pinball_v2_index") == 1):
            return [str(sha) for sha in payload.get("frames", ())]
        return None

    def get_payload(self, sha: str) -> bytes:
        """The stored pinball payload, reassembling chunked v2 entries.

        Like :meth:`get`, works without the manifest: the index blob is
        self-describing, so pool workers can fetch chunked pinballs the
        server just wrote.
        """
        data = self.get(sha)
        frames = self._v2_index_frames(data)
        if frames is None:
            return data
        if OBS.enabled:
            OBS.inc("serve.store/frame_reassemblies")
        return V2_MAGIC + b"".join(self.get(fsha) for fsha in frames)

    def get_pinball(self, sha: str) -> Pinball:
        data = self.get_payload(sha)
        return Pinball.from_bytes(data, source=self.blob_path(sha))

    def put_source(self, source: str, program_name: str,
                   tags: Iterable[str] = ()) -> str:
        sha, _dedup = self.put(source.encode("utf-8"), kind="source",
                               tags=tags, meta={"program_name": program_name})
        return sha

    def get_source(self, sha: str) -> str:
        return self.get(sha).decode("utf-8")
