import hashlib
import io
import itertools
import os
import random

import numpy as np
import pytest

from graphette.canon import CanonicalCatalog, LookupTable, pack_record, unpack_record
from graphette.core import Graphette, Permutation, apply_permutation, bit_length
from graphette.orbits import GlobalOrbitIndex
from graphette.store import (
    BadMagicError,
    CANONICAL_ID_BITS,
    HEADER_SIZE,
    HeaderFieldError,
    LayoutMismatchError,
    LengthMismatchError,
    TableFileError,
    TableSet,
    TruncatedFileError,
    VersionMismatchError,
    catalog_entry_size,
    deserialize,
    expected_file_size,
    serialize,
)
from reference import orbit_partition


def table_bytes(tables: TableSet) -> bytes:
    buf = io.BytesIO()
    tables.save(buf)
    return buf.getvalue()


# --- layout arithmetic -------------------------------------------------------


def test_k3_file_size(tables3):
    blob = table_bytes(tables3)
    assert len(blob) == HEADER_SIZE + 4 * catalog_entry_size(3) + 8 * 8
    assert len(blob) == expected_file_size(3, 4)


def test_k5_record_section_is_8kib(tables5):
    assert (1 << bit_length(5)) * 8 == 8192
    assert len(table_bytes(tables5)) == expected_file_size(5, 34)


def test_record_packing_roundtrip():
    rng = random.Random(61)
    for _ in range(200):
        cid = rng.randrange(1 << CANONICAL_ID_BITS)
        conn = rng.random() < 0.5
        wit = rng.randrange(1 << 24)
        value = pack_record(cid, conn, wit)
        assert value < 1 << 40  # bits above the witness field stay zero
        assert unpack_record(value) == (cid, conn, wit)


def test_k8_format_arithmetic():
    # the largest supported table: NC(8) ids, 2^b(8) records
    nc8 = 12346
    assert nc8 <= 1 << CANONICAL_ID_BITS
    assert bit_length(8) == 28
    size = expected_file_size(8, nc8)
    assert size == HEADER_SIZE + nc8 * (13 + 8) + (1 << 28) * 8
    # a full k=8 witness uses bits 16..39 of the record
    witness = sum(u << 3 * u for u in range(8))
    value = pack_record(nc8 - 1, True, witness)
    assert unpack_record(value) == (nc8 - 1, True, witness)
    assert value >> 40 == 0


def test_pack_record_rejects_overflow():
    with pytest.raises(ValueError):
        pack_record(1 << CANONICAL_ID_BITS, False, 0)
    with pytest.raises(ValueError):
        pack_record(0, False, 1 << 24)


# --- round trips -------------------------------------------------------------


def test_roundtrip_k4(tables4):
    blob = table_bytes(tables4)
    loaded = TableSet.load(io.BytesIO(blob))
    assert loaded.k == 4
    assert loaded.catalog.canonicals.tolist() == tables4.catalog.canonicals.tolist()
    assert loaded.catalog.connected.tolist() == tables4.catalog.connected.tolist()
    assert loaded.catalog.orbit_labels.tolist() == tables4.catalog.orbit_labels.tolist()
    assert loaded.catalog.orbit_labels.dtype == np.uint8
    assert np.array_equal(loaded.table.records, tables4.table.records)
    assert loaded.orbits.total_orbits == tables4.orbits.total_orbits
    # byte-identical re-serialization
    assert table_bytes(loaded) == blob


def test_file_determinism_across_builds():
    a = TableSet.build(4)
    b = TableSet.build(4, m=4, workers=1)
    assert table_bytes(a) == table_bytes(b)


# sha256 of the table files built before the builder became one sweep
PINNED_SHA256 = {
    1: "43c13a9db91f8f1eb975d51de7341061ff58392e23247a6ead7fa566f7124a82",
    2: "773270bc03574bac674aaa2b85475ff8debf0e14d2b4af864cd6da198f8e5561",
    3: "751ecfdb35d11f2cd706b9c15f8ab81758d1741b5581b0b04e02f93bf36bc8e4",
    4: "54446a0a96973a89ec8fbdc481e60bb022b15b0a2189084ddcca7e90abeebbb5",
    5: "5317236dcfd26c3891151469fb3e60774b79c3b1db9eb6d9b4d6800d8b4fd9f7",
    6: "56f05de8530e33a45b4a72e57a36958a7a6e9d51ce04d55673b7ea97eb44fca0",
    7: "ba2a825daae29a5c31d1fc86d06e42aa94027feed61345e0a6c5c24b21f9c9b5",
}


# (4, 64) and (5, 1024) give each range one entry, so most ranges hold no canonical
@pytest.mark.parametrize("k,m", [(k, m) for k in range(1, 7) for m in (1, 3, 16)]
                         + [(4, 64), (5, 1024), (7, 1)])
def test_table_bytes_match_pinned_sha256(k, m):
    blob = table_bytes(TableSet.build(k, m=m))
    assert hashlib.sha256(blob).hexdigest() == PINNED_SHA256[k]


def test_build_refuses_more_than_half_of_memory(monkeypatch):
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 150}  # 600 KiB of physical memory
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    # k=6 has 2^15 entries: 256 KiB of slots for every m
    one_shot = table_bytes(TableSet.build(6))
    assert table_bytes(TableSet.build(6, m=2)) == one_shot
    for m in (1, 8):
        with pytest.raises(ValueError, match="16777216 bytes"):
            TableSet.build(7, m=m)


def test_build_refuses_more_than_one_worker():
    with pytest.raises(ValueError, match="workers must be 1"):
        TableSet.build(4, workers=2)


def test_load_refuses_more_than_half_of_memory(tmp_path, monkeypatch):
    path = tmp_path / "k6.table"
    TableSet.build(6).save(path)
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 100}  # 400 KiB of physical memory
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    # k=6 has 2^15 records of 8 bytes
    with pytest.raises(ValueError, match="262144 bytes"):
        TableSet.load(path)


def test_save_load_path(tmp_path, tables3):
    path = tmp_path / "k3.table"
    tables3.save(path)
    loaded = TableSet.load(path)
    assert len(loaded.catalog) == 4
    assert len(loaded.table) == 8


# --- error reporting ---------------------------------------------------------


def test_bad_magic(tables3):
    blob = bytearray(table_bytes(tables3))
    blob[0] ^= 0xFF
    with pytest.raises(BadMagicError):
        deserialize(io.BytesIO(bytes(blob)))


def test_version_mismatch(tables3):
    blob = bytearray(table_bytes(tables3))
    blob[10] = 99
    with pytest.raises(VersionMismatchError):
        deserialize(io.BytesIO(bytes(blob)))


def test_layout_tag_mismatch(tables3):
    blob = bytearray(table_bytes(tables3))
    blob[20] ^= 0xFF  # inside the layout tag
    with pytest.raises(LayoutMismatchError):
        deserialize(io.BytesIO(bytes(blob)))


def test_bad_k_field(tables3):
    blob = bytearray(table_bytes(tables3))
    blob[11] = 60
    with pytest.raises(HeaderFieldError):
        deserialize(io.BytesIO(bytes(blob)))


def test_orbit_total_disagrees_with_labels(tables3):
    blob = bytearray(table_bytes(tables3))
    blob[16] += 1  # low byte of the header's orbit total
    with pytest.raises(HeaderFieldError, match="orbit numbering"):
        deserialize(io.BytesIO(bytes(blob)))


def test_truncated_record_section_names_expected_records(tables3):
    blob = table_bytes(tables3)
    with pytest.raises(TruncatedFileError, match="8 records"):
        deserialize(io.BytesIO(blob[:-9]))


def test_truncated_catalog(tables3):
    blob = table_bytes(tables3)
    with pytest.raises(TruncatedFileError):
        deserialize(io.BytesIO(blob[: HEADER_SIZE + 5]))


def test_truncated_header(tables3):
    blob = table_bytes(tables3)
    with pytest.raises(TruncatedFileError):
        deserialize(io.BytesIO(blob[:12]))


class TrickleStream(io.RawIOBase):
    """A seekable raw stream that returns at most chunk bytes per read, as a
    raw stream may, and none past stop, while seek still reports the whole
    file."""

    def __init__(self, blob: bytes, stop: int | None = None, chunk: int = 1000):
        self.blob = io.BytesIO(blob)
        self.stop = len(blob) if stop is None else stop
        self.chunk = chunk

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> int:
        return self.blob.seek(offset, whence)

    def tell(self) -> int:
        return self.blob.tell()

    def readinto(self, buffer) -> int:
        room = max(0, min(self.chunk, self.stop - self.tell()))
        return self.blob.readinto(memoryview(buffer).cast("B")[:room])


def test_short_reads_load_every_record(tables5):
    # 7 bytes per read also cuts the 38-byte header into pieces
    for chunk in (1000, 7):
        loaded = TableSet.load(TrickleStream(table_bytes(tables5), chunk=chunk))
        assert np.array_equal(loaded.table.records, tables5.table.records)
        assert np.array_equal(loaded.catalog.canonicals, tables5.catalog.canonicals)
        assert np.array_equal(loaded.catalog.orbit_labels, tables5.catalog.orbit_labels)


def test_stream_ending_early_is_truncated(tables5):
    blob = table_bytes(tables5)
    catalog_end = HEADER_SIZE + len(tables5.catalog) * catalog_entry_size(5)
    with pytest.raises(TruncatedFileError, match=f"offset {HEADER_SIZE + 7},"):
        deserialize(TrickleStream(blob, HEADER_SIZE + 7))
    with pytest.raises(TruncatedFileError, match=f"offset {catalog_end + 5000},"):
        deserialize(TrickleStream(blob, catalog_end + 5000))


class TrickleSink(io.RawIOBase):
    """A raw stream that takes at most 1,000 bytes per write, as raw streams may."""

    def __init__(self):
        self.data = bytearray()

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        taken = bytes(memoryview(b).cast("B")[:1000])
        self.data += taken
        return len(taken)


class NoneSink:
    """A write-only sink whose write returns None, as tests/test_k8.py's HashSink."""

    def __init__(self):
        self.data = bytearray()

    def write(self, b) -> None:
        self.data += b


@pytest.mark.parametrize("sink_type", [TrickleSink, NoneSink])
def test_short_writes_save_every_byte(tables5, sink_type):
    sink = sink_type()
    tables5.save(sink)
    assert bytes(sink.data) == table_bytes(tables5)


def test_trailing_bytes(tables3):
    blob = table_bytes(tables3) + b"x"
    with pytest.raises(LengthMismatchError):
        deserialize(io.BytesIO(blob))


def test_serialize_rejects_inconsistent_inputs(tables3, tables4):
    with pytest.raises(ValueError):
        serialize(tables3.catalog, tables4.table, tables3.orbits, io.BytesIO())
    catalog, table, orbits = tables3.catalog, tables3.table, tables3.orbits
    k9 = CanonicalCatalog(9, catalog.canonicals, catalog.connected, np.zeros((4, 9)))
    with pytest.raises(ValueError, match="k in 1..8"):
        serialize(k9, table, orbits, io.BytesIO())
    with pytest.raises(ValueError, match="4 records, expected 8"):
        serialize(catalog, LookupTable(3, table.records[:4]), orbits, io.BytesIO())
    short = GlobalOrbitIndex(3, orbits.bases[:3], orbits.total_orbits, orbits.node_ids[:3])
    with pytest.raises(ValueError, match="orbit index does not cover"):
        serialize(catalog, table, short, io.BytesIO())
    nc = (1 << CANONICAL_ID_BITS) + 1
    wide = CanonicalCatalog(3, np.zeros(nc, np.int64), np.zeros(nc, bool), np.zeros((nc, 3)))
    wide_orbits = GlobalOrbitIndex(3, np.zeros(nc, np.int64), nc, np.zeros((nc, 3), np.int64))
    with pytest.raises(ValueError, match="14-bit id field"):
        serialize(wide, table, wide_orbits, io.BytesIO())
    stripped = TableSet.build(3)
    stripped.catalog.orbit_labels = np.zeros((len(stripped.catalog), 4), dtype=np.uint8)
    with pytest.raises(ValueError, match="orbit partitions"):  # one label column too many
        serialize(stripped.catalog, stripped.table, tables3.orbits, io.BytesIO())


# --- query -------------------------------------------------------------------


def test_query_one_edge(tables3):
    g = Graphette(3, 2)  # edge {2,0}
    cid, witness, connected = tables3.query(g)
    assert int(tables3.catalog.canonicals[cid]) == 1  # one-edge canonical
    assert apply_permutation(g, witness).bits == 1
    assert not connected


def test_query_canonical_identity_witness(tables3):
    for cid in range(4):
        g = tables3.catalog.graphette(cid)
        got_cid, witness, _ = tables3.query(g)
        assert got_cid == cid
        assert witness.mapping == (0, 1, 2)


def test_query_triangle_connected(tables3):
    _, _, connected = tables3.query(Graphette(3, 7))
    assert connected


def test_query_k_mismatch(tables3):
    with pytest.raises(ValueError):
        tables3.query(Graphette(4, 0))


# --- node_orbit --------------------------------------------------------------


def test_triangle_single_orbit_id(tables3):
    g = Graphette(3, 7)
    ids = {tables3.node_orbit(g, u) for u in range(3)}
    assert len(ids) == 1


def test_isolated_node_orbit_of_one_edge(tables3):
    g = Graphette(3, 4)  # edge {2,1}; node 0 isolated
    # canonical is bits=1 whose orbits are {0,1} (ends) and {2} (isolated)
    assert tables3.node_orbit(g, 0) == 2
    assert tables3.node_orbit(g, 1) == tables3.node_orbit(g, 2) == 1


def test_same_orbit_nodes_share_global_id(tables5):
    rng = random.Random(67)
    for _ in range(100):
        g = Graphette(5, rng.randrange(1 << 10))
        cid, witness, _ = tables5.query(g)
        part = orbit_partition(tables5.catalog.graphette(cid))
        for u in range(5):
            for v in range(5):
                same_local = part.orbit_of[witness(u)] == part.orbit_of[witness(v)]
                same_global = tables5.node_orbit(g, u) == tables5.node_orbit(g, v)
                assert same_local == same_global


def test_node_orbit_range_checks(tables3):
    with pytest.raises(ValueError):
        tables3.node_orbit(Graphette(3, 0), 3)
    with pytest.raises(ValueError):
        tables3.node_orbit(Graphette(4, 0), 0)


def test_all_ids_in_range(tables4):
    for bits in range(1 << bit_length(4)):
        g = Graphette(4, bits)
        cid, _, _ = tables4.query(g)
        assert 0 <= cid < len(tables4.catalog)
        for u in range(4):
            assert 0 <= tables4.node_orbit(g, u) < tables4.orbits.total_orbits


@pytest.mark.parametrize("k", range(1, 6))
def test_node_orbit_invariant_under_relabeling(k):
    tables = TableSet.build(k)
    perms = [Permutation(p) for p in itertools.permutations(range(k))]
    for bits in range(1 << bit_length(k)):
        g = Graphette(k, bits)
        base = [tables.node_orbit(g, u) for u in range(k)]
        for p in perms:
            image = apply_permutation(g, p)
            for u in range(k):
                assert tables.node_orbit(image, p(u)) == base[u]


def test_identify_matches_node_orbit(tables4):
    rng = random.Random(71)
    for _ in range(200):
        bits = rng.randrange(1 << bit_length(4))
        g = Graphette(4, bits)
        cid, orbit_ids = tables4.identify(bits)
        assert cid == tables4.query(g)[0]
        assert list(orbit_ids) == [tables4.node_orbit(g, u) for u in range(4)]


@pytest.mark.parametrize("bits", [-1, 1 << bit_length(3)])
def test_identify_rejects_bits_out_of_range(tables3, bits):
    for identify in (tables3.identify, lambda b: tables3.identify_batch(np.array([0, b]))):
        with pytest.raises(ValueError, match="out of range"):
            identify(bits)


@pytest.mark.parametrize("bits", [-1, 1 << bit_length(3)])
def test_read_rejects_bits_out_of_range(tables3, bits):
    for read in (tables3.table.read, lambda b: tables3.table.read_batch(np.array([0, b]))):
        with pytest.raises(ValueError, match=f"bits {bits} out of range"):
            read(bits)


@pytest.mark.parametrize("bits, corrupt", [
    (63, lambda cid, connected, w: (13, connected, w)),     # NC = 11 at k=4
    (1, lambda cid, connected, w: (cid, connected, w | 7)),  # node 0 sent to 7 > k - 1
], ids=["canonical-id", "witness"])
def test_reads_refuse_a_record_outside_the_table(tables4, bits, corrupt):
    records = tables4.table.records.copy()
    records[bits] = pack_record(*corrupt(*unpack_record(int(records[bits]))))
    tables = TableSet(tables4.catalog, LookupTable(4, records), tables4.orbits)
    reads = [lambda: tables.query(Graphette(4, bits)), lambda: tables.identify(bits),
             lambda: tables.node_orbit(Graphette(4, bits), 0),
             lambda: tables.identify_batch(np.array([0, bits, 2]))]
    for read in reads:
        with pytest.raises(TableFileError, match=f"corrupt record {bits}:"):
            read()
    good = np.array([0, 2, 62])
    assert np.array_equal(tables.identify_batch(good)[1], tables4.identify_batch(good)[1])
