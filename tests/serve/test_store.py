"""Unit + fault tests for the content-addressed pinball store.

The satellite spec, verbatim: dedup (the same program + schedule stored
twice yields one blob), gc of untagged blobs, truncated/bit-flipped
blobs on disk surface a typed error naming the blob path, and the
manifest rewrite is atomic (write-temp + ``os.replace``).
"""

import json
import os

import pytest

from repro.pinplay import Pinball, PinballFormatError
from repro.serve import PinballStore

from tests.support.progen import build_program, record_pinball

SEED = 5


@pytest.fixture
def store(tmp_path):
    return PinballStore(str(tmp_path / "store"))


@pytest.fixture(scope="module")
def recording():
    program = build_program(SEED)
    return program, record_pinball(program, SEED)


class TestPutGet:
    def test_roundtrip_bytes(self, store):
        sha, dedup = store.put(b"hello pinballs", kind="misc")
        assert not dedup
        assert store.get(sha) == b"hello pinballs"
        assert store.entry(sha).kind == "misc"

    def test_pinball_roundtrip(self, store, recording):
        _program, pinball = recording
        sha = store.put_pinball(pinball, tags=("keep",))
        loaded = store.get_pinball(sha)
        assert (loaded.to_bytes(compress=False)
                == pinball.to_bytes(compress=False))
        assert store.entry(sha).meta["program_name"] == pinball.program_name

    def test_unknown_key_raises_keyerror(self, store):
        with pytest.raises(KeyError):
            store.get("0" * 64)
        with pytest.raises(KeyError):
            store.entry("0" * 64)

    def test_source_roundtrip(self, store):
        sha = store.put_source("int main() { return 0; }", "tiny")
        assert store.get_source(sha) == "int main() { return 0; }"
        assert store.entry(sha).kind == "source"


class TestDedup:
    def test_same_recording_stored_twice_is_one_blob(self, store):
        """Same program + schedule -> identical payload -> one blob."""
        program = build_program(SEED)
        first = record_pinball(program, SEED)
        second = record_pinball(program, SEED)
        sha1 = store.put_pinball(first, tags=("a",))
        sha2 = store.put_pinball(second, tags=("b",))
        assert sha1 == sha2
        blobs = [name for _dir, _sub, names in os.walk(store.blob_root)
                 for name in names if name.endswith(".blob")]
        # v1: one payload blob.  v2 (chunked): the index blob plus one
        # blob per frame — still written exactly once each.
        frames = store.entry(sha1).meta.get("frames", [])
        assert sorted(blobs) == sorted(
            {sha1 + ".blob"} | {sha + ".blob" for sha in frames})
        # Tags merged onto the single entry.
        assert set(store.entry(sha1).tags) == {"a", "b"}

    def test_put_reports_dedup(self, store):
        sha1, dedup1 = store.put(b"payload")
        sha2, dedup2 = store.put(b"payload")
        assert sha1 == sha2
        assert (dedup1, dedup2) == (False, True)

    def test_different_payloads_different_keys(self, store):
        sha1, _ = store.put(b"payload one")
        sha2, _ = store.put(b"payload two")
        assert sha1 != sha2


class TestGc:
    def test_gc_removes_untagged_keeps_tagged(self, store):
        kept, _ = store.put(b"kept", tags=("pin",))
        doomed, _ = store.put(b"doomed")
        removed = store.gc()
        assert doomed in removed and kept not in removed
        assert store.get(kept) == b"kept"
        assert not os.path.exists(store.blob_path(doomed))
        with pytest.raises(KeyError):
            store.entry(doomed)

    def test_untag_then_gc(self, store):
        sha, _ = store.put(b"data", tags=("t1", "t2"))
        store.untag(sha, "t1")
        assert store.gc() == []
        store.untag(sha, "t2")
        assert store.gc() == [sha]

    def test_gc_sweeps_orphan_blobs(self, store):
        """A blob on disk without a manifest row (crash between the blob
        write and the manifest write) is swept."""
        sha, _ = store.put(b"orphan-to-be", tags=("t",))
        # Simulate the crash: manifest forgets the entry, blob remains.
        del store._entries[sha]
        store._write_manifest()
        assert os.path.exists(store.blob_path(sha))
        assert sha in store.gc()
        assert not os.path.exists(store.blob_path(sha))


class TestV2Chunking:
    """v2 pinballs are stored per-frame: the tagged entry is a small
    JSON index whose ``frames`` list names one content-addressed blob
    per container frame, so re-recording a longer run of the same
    program dedups the shared prefix."""

    def _record(self, length):
        from repro.pinplay import RegionSpec, record_region
        from tests.support.progen import inputs_for, scheduler_for
        program = build_program(SEED)
        return record_region(program, scheduler_for(SEED),
                             RegionSpec(length=length),
                             inputs=inputs_for(SEED), rand_seed=SEED,
                             pinball_format="v2", checkpoint_interval=40)

    def test_index_entry_and_reassembly(self, store):
        pinball = self._record(200)
        sha = store.put_pinball(pinball, tags=("t",))
        entry = store.entry(sha)
        assert entry.meta["format"] == "v2"
        assert entry.meta["frames"]
        # get_payload reassembles the container exactly.
        assert store.get_payload(sha) == pinball.to_bytes(format="v2")
        loaded = store.get_pinball(sha)
        assert loaded.format == "v2"
        assert list(loaded.schedule) == list(pinball.schedule)

    def test_longer_rerecording_dedups_shared_prefix(self, store):
        short = store.put_pinball(self._record(120), tags=("short",))
        full = store.put_pinball(self._record(480), tags=("full",))
        assert short != full
        short_frames = set(store.entry(short).meta["frames"])
        full_frames = set(store.entry(full).meta["frames"])
        shared = short_frames & full_frames
        # Prologue, snapshot and common-prefix checkpoint frames are
        # byte-identical, hence stored once.
        assert len(shared) >= 3
        blobs = [name for _dir, _sub, names in os.walk(store.blob_root)
                 for name in names if name.endswith(".blob")]
        # One blob per distinct frame + the two index entries.
        assert len(blobs) == len(short_frames | full_frames) + 2

    def test_gc_keeps_frames_referenced_by_survivors(self, store):
        short = store.put_pinball(self._record(120))          # untagged
        full = store.put_pinball(self._record(480), tags=("keep",))
        short_frames = set(store.entry(short).meta["frames"])
        full_frames = set(store.entry(full).meta["frames"])
        removed = store.gc()
        # The short index and its unshared frames go; every frame the
        # surviving entry references stays.
        assert short in removed
        assert set(removed) & full_frames == set()
        assert set(removed) >= short_frames - full_frames
        assert (store.get_payload(full)
                == self._record(480).to_bytes(format="v2"))
        with pytest.raises(KeyError):
            store.entry(short)

    def test_v1_pinball_is_not_chunked(self, store, recording):
        _program, pinball = recording
        sha = store.put_pinball(pinball, tags=("t",), format="v1")
        assert "frames" not in store.entry(sha).meta
        assert store.get_pinball(sha).format == "v1"


class TestCorruptBlobs:
    """Every on-disk corruption mode -> PinballFormatError naming the path."""

    @pytest.mark.parametrize("corruptor", [
        pytest.param(lambda blob: blob[: len(blob) // 2], id="truncated"),
        pytest.param(lambda blob: blob[:10] + bytes([blob[10] ^ 0xFF])
                     + blob[11:], id="bit-flipped"),
        pytest.param(lambda blob: b"", id="emptied"),
        pytest.param(lambda blob: b"garbage" * 40, id="replaced"),
    ])
    def test_corrupt_blob_is_typed_error_naming_path(self, store,
                                                     corruptor):
        sha, _ = store.put(b"x" * 4096, tags=("t",))
        path = store.blob_path(sha)
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(corruptor(blob))
        with pytest.raises(PinballFormatError) as excinfo:
            store.get(sha)
        assert path in str(excinfo.value)
        # The typed error is a ValueError subclass (CLI exit-65 contract).
        assert isinstance(excinfo.value, ValueError)

    def test_valid_zlib_wrong_content_is_hash_mismatch(self, store):
        """A blob that decompresses fine but hashes differently (swapped
        file) is caught by the content re-hash."""
        import zlib
        sha, _ = store.put(b"the real payload", tags=("t",))
        path = store.blob_path(sha)
        with open(path, "wb") as handle:
            handle.write(zlib.compress(b"a different payload"))
        with pytest.raises(PinballFormatError) as excinfo:
            store.get(sha)
        assert "hash mismatch" in str(excinfo.value)
        assert path in str(excinfo.value)

    def test_corrupt_stored_pinball_via_get_pinball(self, store,
                                                    recording):
        _program, pinball = recording
        sha = store.put_pinball(pinball, tags=("t",))
        path = store.blob_path(sha)
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) - 20])
        with pytest.raises(PinballFormatError):
            store.get_pinball(sha)


class TestManifest:
    def test_manifest_rewrite_is_atomic(self, store, monkeypatch):
        """A crash mid-serialization leaves the previous manifest intact
        (write goes to a temp file; ``os.replace`` is the commit)."""
        sha, _ = store.put(b"first", tags=("t",))

        real_replace = os.replace
        def exploding_replace(src, dst):   # crash before the commit
            raise RuntimeError("simulated crash during manifest commit")
        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(RuntimeError):
            store.put(b"second", tags=("t",))
        monkeypatch.setattr(os, "replace", real_replace)

        # No temp litter, and a fresh reader sees the pre-crash manifest.
        litter = [name for name in os.listdir(store.root)
                  if name.startswith("manifest.json.tmp")]
        assert litter == []
        fresh = PinballStore(store.root)
        assert fresh.get(sha) == b"first"
        assert len(fresh.list()) == 1

    def test_manifest_persists_across_instances(self, store):
        sha, _ = store.put(b"payload", kind="misc", tags=("x",),
                           meta={"note": "hi"})
        reopened = PinballStore(store.root)
        entry = reopened.entry(sha)
        assert entry.kind == "misc"
        assert entry.tags == ["x"]
        assert entry.meta == {"note": "hi"}
        assert reopened.get(sha) == b"payload"

    def test_noop_reput_leaves_manifest_untouched(self, store, recording):
        _program, pinball = recording
        source_sha = store.put_source("int main() { return 0; }", "p",
                                      tags=("t",))
        key = store.put_pinball(pinball, tags=("t",),
                                meta={"source_sha": source_sha})
        path = store.manifest_path
        os.utime(path, ns=(1_000_000_000, 1_000_000_000))
        before = os.stat(path).st_mtime_ns
        with open(path, "rb") as handle:
            content = handle.read()
        # The same source, pinball, tags and meta again: nothing new.
        assert store.put_source("int main() { return 0; }", "p",
                                tags=("t",)) == source_sha
        assert store.put_pinball(pinball, tags=("t",),
                                 meta={"source_sha": source_sha}) == key
        assert store.put(b"int main() { return 0; }", kind="source")[1]
        assert os.stat(path).st_mtime_ns == before
        with open(path, "rb") as handle:
            assert handle.read() == content

    def test_reput_with_new_tag_or_meta_persists(self, store):
        sha, _ = store.put(b"payload", tags=("a",), meta={"note": "hi"})
        assert store.put(b"payload", tags=("b",)) == (sha, True)
        assert PinballStore(store.root).entry(sha).tags == ["a", "b"]
        assert store.put(b"payload", meta={"note": "bye"}) == (sha, True)
        assert PinballStore(store.root).entry(sha).meta == {"note": "bye"}
        assert store.put(b"payload", meta={"extra": 1}) == (sha, True)
        assert PinballStore(store.root).entry(sha).meta == {"note": "bye",
                                                            "extra": 1}

    def test_unreadable_manifest_is_typed_error(self, tmp_path):
        root = tmp_path / "store"
        PinballStore(str(root)).put(b"x")
        (root / "manifest.json").write_text("{not json")
        with pytest.raises(PinballFormatError) as excinfo:
            PinballStore(str(root))
        assert "manifest" in str(excinfo.value)

    def test_wrong_manifest_version_is_typed_error(self, tmp_path):
        root = tmp_path / "store"
        PinballStore(str(root)).put(b"x")
        with open(root / "manifest.json") as handle:
            payload = json.load(handle)
        payload["manifest_version"] = 99
        with open(root / "manifest.json", "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(PinballFormatError):
            PinballStore(str(root))

    def test_stats(self, store):
        store.put(b"a" * 100, kind="pinball", tags=("t",))
        store.put(b"b" * 50, kind="source")
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["by_kind"] == {"pinball": 1, "source": 1}
        assert stats["bytes_raw"] == 150
        assert stats["bytes_stored"] > 0
