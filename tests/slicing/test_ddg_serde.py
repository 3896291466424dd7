"""RIX1 index serde: round-trip fidelity and corruption diagnostics.

Satellite spec, verbatim: serialization round-trip equality on the CSR
columns and memo behaviour, rejection of stale fingerprints, and
table-driven corrupt-blob tests (truncated, CRC flip, version skew)
mirroring the pinball format suite.
"""

import json
import struct
import zlib

import pytest

from repro.pinplay.pinball import PinballFormatError
from repro.slicing import SliceOptions, SlicingSession
from repro.slicing.ddg_serde import (FORMAT_VERSION, MAGIC, FrozenIndex,
                                     deserialize_index, options_fingerprint,
                                     serialize_index)

from tests.support.progen import build_program, record_pinball

SEED = 7


@pytest.fixture(scope="module")
def built():
    """One cold session with its DDG index built, plus the frozen blob.

    The index is pinned to ``ddg`` so a ``REPRO_SLICE_INDEX`` CI rider
    cannot swap in an engine that builds no dependence index."""
    program = build_program(SEED)
    pinball = record_pinball(program, SEED)
    options = SliceOptions(index="ddg")
    session = SlicingSession(pinball, program, options)
    index = session.slicer.ddg
    fingerprint = options_fingerprint(options)
    blob = serialize_index(index, fingerprint)
    return program, pinball, options, index, fingerprint, blob


class TestFingerprint:
    def test_stable_across_calls(self):
        assert (options_fingerprint(SliceOptions())
                == options_fingerprint(SliceOptions()))

    def test_build_strategy_fields_are_excluded(self):
        """Row-store / cache-tuned builds share one entry."""
        base = options_fingerprint(SliceOptions())
        assert options_fingerprint(SliceOptions(
            columnar=False, slice_cache_size=1)) == base

    def test_graph_semantic_fields_change_it(self):
        base = options_fingerprint(SliceOptions())
        assert options_fingerprint(SliceOptions(max_save=3)) != base
        assert options_fingerprint(
            SliceOptions(record_values=False)) != base


class TestRoundTrip:
    def test_csr_columns_identical(self, built):
        _, _, options, index, fingerprint, blob = built
        frozen = deserialize_index(blob, options=options,
                                   fingerprint=fingerprint)
        assert isinstance(frozen, FrozenIndex)
        assert list(frozen._indptr) == list(index._indptr)
        assert list(frozen._preds) == list(index._preds)
        assert bytes(frozen._kinds) == bytes(index._kinds)
        assert list(frozen._elocs) == list(index._elocs)
        assert list(frozen._tids) == list(index._tids)
        assert list(frozen._tindexes) == list(index._tindexes)
        assert frozen.node_count == index.node_count
        assert frozen.edge_count == index.edge_count

    def test_location_and_def_position_tables(self, built):
        _, _, options, index, fingerprint, blob = built
        frozen = deserialize_index(blob, options=options,
                                   fingerprint=fingerprint)
        assert frozen._locs == list(index._locs)
        assert len(frozen._def_positions) == len(index._def_positions)
        for mine, theirs in zip(frozen._def_positions,
                                index._def_positions):
            assert list(mine) == list(theirs)
        assert frozen._unresolved == {
            g: tuple(locids) for g, locids in index._unresolved.items()}
        assert frozen._redirect == dict(index._redirect)

    def test_slices_are_equal(self, built):
        _, _, options, index, fingerprint, blob = built
        frozen = deserialize_index(blob, options=options,
                                   fingerprint=fingerprint)
        criterion = frozen.instance_of(frozen.node_count - 1)
        cold = index.slice(criterion)
        warm = frozen.slice(criterion)
        assert warm.to_dict() == cold.to_dict()

    def test_memo_behaviour_survives(self, built):
        """The inherited memo layers work on a frozen index."""
        _, _, options, _, fingerprint, blob = built
        frozen = deserialize_index(blob, options=options,
                                   fingerprint=fingerprint)
        criterion = frozen.instance_of(frozen.node_count - 1)
        frozen.slice(criterion)
        assert frozen.cache_misses >= 1
        before = frozen.cache_hits
        frozen.slice(criterion)
        assert frozen.cache_hits == before + 1

    def test_warm_session_last_reads_match_cold(self, built):
        """A warm-started session answers ``last_reads`` like a cold one
        for every read count, and rejects a negative one."""
        program, pinball, options, _, fingerprint, blob = built
        cold = SlicingSession(pinball, program, options)
        warm = SlicingSession.from_frozen_index(
            pinball, program,
            deserialize_index(blob, options=options,
                              fingerprint=fingerprint),
            options=options)
        for count in (0, 5, cold.trace_record_count() + 1):
            assert warm.last_reads(count) == cold.last_reads(count), count
        with pytest.raises(ValueError):
            warm.last_reads(-3)

    def test_stats_flag_frozen(self, built):
        _, _, options, _, fingerprint, blob = built
        frozen = deserialize_index(blob, options=options,
                                   fingerprint=fingerprint)
        stats = frozen.stats()
        assert stats["frozen"] is True
        assert stats["node_count"] == frozen.node_count


class TestFingerprintRejection:
    def test_stale_fingerprint_is_rejected(self, built):
        _, _, options, _, _, blob = built
        stale = options_fingerprint(SliceOptions(max_save=3))
        with pytest.raises(PinballFormatError, match="fingerprint"):
            deserialize_index(blob, options=options, fingerprint=stale)

    def test_no_fingerprint_skips_the_check(self, built):
        _, _, options, _, _, blob = built
        assert deserialize_index(blob, options=options) is not None


# ---------------------------------------------------------------------------
# Table-driven corruption: every mutilation is a typed, named error.
# ---------------------------------------------------------------------------

def _flip_section_byte(blob: bytes) -> bytes:
    """Flip one byte inside the first compressed section (CRC trips)."""
    _, header_len = struct.unpack_from("<HI", blob, len(MAGIC))
    offset = len(MAGIC) + struct.calcsize("<HI") + header_len + 4
    return blob[:offset] + bytes([blob[offset] ^ 0xFF]) + blob[offset + 1:]


def _replace_section(blob: bytes, name: str, raw: bytes) -> bytes:
    """Re-pack ``blob`` with section ``name`` holding ``raw`` (valid CRC,
    valid lengths: only the content is wrong)."""
    _, header_len = struct.unpack_from("<HI", blob, len(MAGIC))
    body = len(MAGIC) + struct.calcsize("<HI")
    header = json.loads(blob[body:body + header_len])
    offset = body + header_len
    payloads = []
    for entry in header["sections"]:
        section, comp_len = entry[0], entry[1]
        payload = blob[offset:offset + comp_len]
        offset += comp_len
        if section == name:
            payload = zlib.compress(raw)
            entry[1:] = [len(payload), zlib.crc32(payload) & 0xFFFFFFFF,
                         len(raw)]
        payloads.append(payload)
    head = json.dumps(header, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")
    return b"".join([MAGIC, struct.pack("<HI", FORMAT_VERSION, len(head)),
                     head] + payloads)


def _bump_version(blob: bytes) -> bytes:
    head = struct.pack("<HI", FORMAT_VERSION + 1,
                       struct.unpack_from("<HI", blob, len(MAGIC))[1])
    return MAGIC + head + blob[len(MAGIC) + len(head):]


CORRUPTIONS = [
    ("empty", lambda blob: b"", "truncated"),
    ("short", lambda blob: blob[:6], "truncated"),
    ("bad_magic", lambda blob: b"XIX1" + blob[4:], "bad magic"),
    ("version_skew", _bump_version, "unsupported index format version"),
    ("header_cut", lambda blob: blob[:16], "truncated inside the header"),
    ("section_cut", lambda blob: blob[:len(blob) // 2], "truncated"),
    ("crc_flip", _flip_section_byte, "CRC mismatch"),
    ("trailing", lambda blob: blob + b"junk", "trailing bytes"),
]


class TestCorruptBlobs:
    @pytest.mark.parametrize(
        "mutilate,needle",
        [row[1:] for row in CORRUPTIONS],
        ids=[row[0] for row in CORRUPTIONS])
    def test_corruption_is_a_typed_named_error(self, built, mutilate,
                                               needle):
        _, _, options, _, fingerprint, blob = built
        bad = mutilate(blob)
        with pytest.raises(PinballFormatError) as excinfo:
            deserialize_index(bad, options=options, source="<test-blob>",
                              fingerprint=fingerprint)
        assert needle in str(excinfo.value)
        assert "<test-blob>" in str(excinfo.value)

    def test_malformed_values_section_fails_when_nodes_are_read(self,
                                                                 built):
        """The written-value column is parsed only by a slice that builds
        its nodes: slicing works, reading the nodes is a typed error."""
        _, _, options, _, fingerprint, blob = built
        bad = _replace_section(blob, "values", b"[]")
        frozen = deserialize_index(bad, options=options, source="<test-blob>",
                                   fingerprint=fingerprint)
        dslice = frozen.slice(frozen.instance_of(frozen.node_count - 1))
        assert len(dslice) == sum(map(len, dslice.to_keep().values()))
        assert len(dslice.edge_rows()) == dslice.stats["edges"]
        with pytest.raises(PinballFormatError) as excinfo:
            dict(dslice.nodes.items())
        assert "values section" in str(excinfo.value)
        assert "<test-blob>" in str(excinfo.value)

    def test_good_blob_still_loads_after_the_table_ran(self, built):
        """The mutations above never touched the original blob."""
        _, _, options, _, fingerprint, blob = built
        assert deserialize_index(blob, options=options,
                                 fingerprint=fingerprint) is not None
