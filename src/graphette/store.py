"""Bit-exact persistence and constant-time queries for graphette tables.

File layout (little-endian throughout):

    header   magic "GRAPHETTE1" | version u8 | k u8 | NC u32 | total_orbits u32
             | layout tag "lower-triangle-lsb"
    catalog  NC entries: canonical bits u64 | connected u8 | k orbit-label u8
             | global orbit base u32
    records  2^b(k) fixed 8-byte records

Record packing: bits 0-13 canonical id, bit 14 connected flag, bits 16-39
witness permutation at 3 bits per node (node u's image in bits 16+3u..18+3u),
all other bits zero.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from os import PathLike
from typing import BinaryIO, Union

import numpy as np

from .canon import (
    MAX_SEQUENTIAL_K,
    CanonicalCatalog,
    LookupTable,
    build_canonical_map_parallel,
    build_canonical_map_sequential,
)
from .core import Graphette, Permutation, bit_length
from .orbits import GlobalOrbitIndex, assign_global_orbit_ids, compute_orbit_partitions

MAGIC = b"GRAPHETTE1"
LAYOUT_TAG = b"lower-triangle-lsb"
FORMAT_VERSION = 1
HEADER_SIZE = len(MAGIC) + 1 + 1 + 4 + 4 + len(LAYOUT_TAG)  # 38 bytes
RECORD_SIZE = 8
CANONICAL_ID_BITS = 14
CONNECTED_BIT = 14
WITNESS_SHIFT = 16
MAX_FILE_K = 8  # 3-bit node images in the witness field cap the format at k=8

Destination = Union[str, PathLike, BinaryIO]


class TableFileError(Exception):
    """Base error for malformed or inconsistent table files."""


class BadMagicError(TableFileError):
    pass


class VersionMismatchError(TableFileError):
    pass


class LayoutMismatchError(TableFileError):
    pass


class HeaderFieldError(TableFileError):
    pass


class LengthMismatchError(TableFileError):
    pass


class TruncatedFileError(LengthMismatchError):
    pass


def catalog_entry_size(k: int) -> int:
    return 8 + 1 + k + 4


def expected_file_size(k: int, canonical_count: int) -> int:
    """Exact byte size of a table file for the given k and catalog size."""
    return (
        HEADER_SIZE
        + canonical_count * catalog_entry_size(k)
        + (1 << bit_length(k)) * RECORD_SIZE
    )


def pack_record(canonical_id: int, connected: bool, witness_packed: int) -> int:
    """Assemble one 8-byte record value from its fields."""
    if not 0 <= canonical_id < (1 << CANONICAL_ID_BITS):
        raise ValueError(f"canonical id {canonical_id} does not fit {CANONICAL_ID_BITS} bits")
    if not 0 <= witness_packed < (1 << 24):
        raise ValueError(f"witness {witness_packed:#x} does not fit 24 bits")
    return canonical_id | (int(connected) << CONNECTED_BIT) | (witness_packed << WITNESS_SHIFT)


def unpack_record(value: int) -> tuple[int, bool, int]:
    """Split a record value into (canonical_id, connected, witness_packed)."""
    return (
        value & ((1 << CANONICAL_ID_BITS) - 1),
        bool(value >> CONNECTED_BIT & 1),
        value >> WITNESS_SHIFT & 0xFFFFFF,
    )


def _check_consistent(
    catalog: CanonicalCatalog, table: LookupTable, orbit_index: GlobalOrbitIndex
) -> None:
    k = catalog.k
    if not 1 <= k <= MAX_FILE_K:
        raise ValueError(f"file format supports k in 1..{MAX_FILE_K}, got {k}")
    if table.k != k or orbit_index.k != k:
        raise ValueError(
            f"inconsistent k across inputs: catalog {k}, table {table.k}, "
            f"orbit index {orbit_index.k}"
        )
    if len(table) != 1 << bit_length(k):
        raise ValueError(
            f"table has {len(table)} records, expected {1 << bit_length(k)}"
        )
    if catalog.orbit_labels is None or len(catalog.orbit_labels) != len(catalog):
        raise ValueError("catalog orbit partitions missing or incomplete")
    if len(orbit_index.bases) != len(catalog):
        raise ValueError("orbit index does not cover the catalog")
    if len(catalog) > (1 << CANONICAL_ID_BITS):
        raise ValueError(f"{len(catalog)} canonicals exceed the {CANONICAL_ID_BITS}-bit id field")


def serialize(
    catalog: CanonicalCatalog,
    table: LookupTable,
    orbit_index: GlobalOrbitIndex,
    destination: Destination,
) -> None:
    """Write the catalog, lookup table, and orbit numbering as one table file."""
    _check_consistent(catalog, table, orbit_index)
    k = catalog.k
    header = (
        MAGIC
        + struct.pack("<BB", FORMAT_VERSION, k)
        + struct.pack("<II", len(catalog), orbit_index.total_orbits)
        + LAYOUT_TAG
    )
    chunks = [header]
    for cid in range(len(catalog)):
        chunks.append(struct.pack("<Q", int(catalog.canonicals[cid])))
        chunks.append(struct.pack("<B", int(catalog.connected[cid])))
        chunks.append(bytes(catalog.orbit_labels[cid]))
        chunks.append(struct.pack("<I", int(orbit_index.bases[cid])))
    records = (
        table.canonical_id.astype(np.uint64)
        | (table.connected.astype(np.uint64) << np.uint64(CONNECTED_BIT))
        | (table.witness.astype(np.uint64) << np.uint64(WITNESS_SHIFT))
    )
    chunks.append(records.astype("<u8").tobytes())
    blob = b"".join(chunks)
    if hasattr(destination, "write"):
        destination.write(blob)
    else:
        with open(destination, "wb") as fh:
            fh.write(blob)


def deserialize(source: Destination) -> tuple[CanonicalCatalog, LookupTable, GlobalOrbitIndex]:
    """Read a table file back into its three structures, validating layout."""
    if hasattr(source, "read"):
        data = source.read()
    else:
        with open(source, "rb") as fh:
            data = fh.read()

    if len(data) < len(MAGIC):
        raise TruncatedFileError(
            f"file ends inside magic: {len(data)} bytes, need {len(MAGIC)}"
        )
    if data[: len(MAGIC)] != MAGIC:
        raise BadMagicError(f"bad magic {data[:len(MAGIC)]!r} at offset 0")
    if len(data) < HEADER_SIZE:
        raise TruncatedFileError(
            f"file ends inside header at offset {len(data)}, need {HEADER_SIZE}"
        )
    version, k = struct.unpack_from("<BB", data, len(MAGIC))
    if version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"format version {version} at offset {len(MAGIC)}, expected {FORMAT_VERSION}"
        )
    if not 1 <= k <= MAX_FILE_K:
        raise HeaderFieldError(f"unsupported k={k} at offset {len(MAGIC) + 1}")
    nc, total_orbits = struct.unpack_from("<II", data, len(MAGIC) + 2)
    tag_off = len(MAGIC) + 10
    tag = data[tag_off : tag_off + len(LAYOUT_TAG)]
    if tag != LAYOUT_TAG:
        raise LayoutMismatchError(
            f"layout tag {tag!r} at offset {tag_off}, expected {LAYOUT_TAG!r}"
        )

    entry_size = catalog_entry_size(k)
    catalog_end = HEADER_SIZE + nc * entry_size
    record_count = 1 << bit_length(k)
    expected = expected_file_size(k, nc)
    if len(data) < catalog_end:
        raise TruncatedFileError(
            f"catalog section truncated at offset {len(data)}: "
            f"expected {nc} entries ending at {catalog_end}"
        )
    if len(data) < expected:
        raise TruncatedFileError(
            f"record section truncated at offset {len(data)}: "
            f"expected {record_count} records ending at {expected}"
        )
    if len(data) > expected:
        raise LengthMismatchError(
            f"{len(data) - expected} trailing bytes after offset {expected}"
        )

    canonicals = np.empty(nc, dtype=np.int64)
    connected = np.empty(nc, dtype=bool)
    labels: list[tuple[int, ...]] = []
    bases = np.empty(nc, dtype=np.int64)
    off = HEADER_SIZE
    for cid in range(nc):
        canonicals[cid] = struct.unpack_from("<Q", data, off)[0]
        connected[cid] = data[off + 8]
        labels.append(tuple(data[off + 9 : off + 9 + k]))
        bases[cid] = struct.unpack_from("<I", data, off + 9 + k)[0]
        off += entry_size
    catalog = CanonicalCatalog(k, canonicals, connected, labels)

    records = np.frombuffer(data, dtype="<u8", count=record_count, offset=catalog_end)
    table = LookupTable(
        k=k,
        canonical_id=(records & np.uint64((1 << CANONICAL_ID_BITS) - 1)).astype(np.int32),
        witness=(records >> np.uint64(WITNESS_SHIFT)).astype(np.uint32) & np.uint32(0xFFFFFF),
        connected=(records >> np.uint64(CONNECTED_BIT) & np.uint64(1)).astype(bool),
    )
    orbit_index = assign_global_orbit_ids(catalog)
    if orbit_index.total_orbits != total_orbits or not np.array_equal(orbit_index.bases, bases):
        raise HeaderFieldError(
            "orbit numbering in file disagrees with its own orbit partitions"
        )
    return catalog, table, orbit_index


def query(table: LookupTable, g: Graphette) -> tuple[int, Permutation, bool]:
    """Record for g: (canonical id, witness onto the canonical, connected)."""
    if g.k != table.k:
        raise ValueError(f"graphette k={g.k} does not match table k={table.k}")
    cid = int(table.canonical_id[g.bits])
    return cid, table.witness_permutation(g.bits), bool(table.connected[g.bits])


def node_orbit(
    catalog: CanonicalCatalog,
    table: LookupTable,
    orbit_index: GlobalOrbitIndex,
    g: Graphette,
    u: int,
) -> int:
    """Global orbit id of node u inside graphette g, in O(1)."""
    if not 0 <= u < g.k:
        raise ValueError(f"node index {u} out of range for k={g.k}")
    if g.k != table.k:
        raise ValueError(f"graphette k={g.k} does not match table k={table.k}")
    cid = int(table.canonical_id[g.bits])
    pos = int(table.witness[g.bits]) >> 3 * u & 7
    return int(orbit_index.bases[cid]) + int(orbit_index.local_ranks[cid, pos])


@dataclass(frozen=True)
class TableSet:
    """Catalog + lookup table + orbit numbering for one k, as a unit."""

    catalog: CanonicalCatalog
    table: LookupTable
    orbits: GlobalOrbitIndex

    @property
    def k(self) -> int:
        return self.catalog.k

    @classmethod
    def build(cls, k: int, m: int = 1, workers: int = 1) -> "TableSet":
        """Build everything for one k (partitioned when m > 1).

        k=8 always goes through the partitioned path; the one-shot scan is
        bounded to k<=7.
        """
        if m == 1 and k <= MAX_SEQUENTIAL_K:
            catalog, table = build_canonical_map_sequential(k)
        else:
            catalog, table = build_canonical_map_parallel(k, m, workers)
        compute_orbit_partitions(catalog)
        return cls(catalog, table, assign_global_orbit_ids(catalog))

    @classmethod
    def load(cls, source: Destination) -> "TableSet":
        return cls(*deserialize(source))

    def save(self, destination: Destination) -> None:
        serialize(self.catalog, self.table, self.orbits, destination)

    def query(self, g: Graphette) -> tuple[int, Permutation, bool]:
        return query(self.table, g)

    def node_orbit(self, g: Graphette, u: int) -> int:
        return node_orbit(self.catalog, self.table, self.orbits, g, u)

    def identify(self, bits: int) -> tuple[int, tuple[int, ...]]:
        """Canonical id plus the global orbit id at every node position."""
        cids, orbit_ids = self.identify_batch(np.array([bits]))
        return int(cids[0]), tuple(orbit_ids[0].tolist())

    def identify_batch(self, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Canonical ids (B,) and global orbit ids (B, k) of B bit vectors.

        Node u of a graphette sits at position (witness >> 3u) & 7 of its
        canonical, whose orbit there is bases[cid] + local_ranks[cid, pos].
        """
        cids = self.table.canonical_id[bits]
        shifts = 3 * np.arange(self.k, dtype=np.uint32)
        pos = self.table.witness[bits][:, None] >> shifts & np.uint32(7)
        orbit_ids = self.orbits.bases[cids][:, None] + self.orbits.local_ranks[cids[:, None], pos]
        return cids, orbit_ids
