"""Bit-exact persistence and constant-time queries for graphette tables.

File layout (little-endian throughout):

    header   magic "GRAPHETTE1" | version u8 | k u8 | NC u32 | total_orbits u32
             | layout tag "lower-triangle-lsb"
    catalog  NC entries: canonical bits u64 | connected u8 | k orbit-label u8
             | global orbit base u32
    records  2^b(k) fixed 8-byte records

The record section is a LookupTable's records array byte for byte (the bit
layout sits beside LookupTable in canon): saving writes it as held, loading
reads it straight into a numpy array, and the catalog's (NC, k) uint8
orbit_labels are likewise its label bytes.  LookupTable.read (one record)
and LookupTable.read_batch (an index array), which both reject a bit vector
outside the table, are its only readers; every query here goes through them
and decodes only the records it indexes.  Loading refuses, like building, a
record section larger than half of physical memory.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from os import PathLike
from typing import BinaryIO, Sequence, Union

import numpy as np

from .canon import (
    CANONICAL_ID_BITS,
    MAX_BUILD_K,
    RECORD_DTYPE,
    CanonicalCatalog,
    LookupTable,
    build_canonical_map,
)
from .core import Graphette, Permutation, bit_length, check_memory
from .orbits import GlobalOrbitIndex, assign_global_orbit_ids

MAGIC = b"GRAPHETTE1"
LAYOUT_TAG = b"lower-triangle-lsb"
FORMAT_VERSION = 1
HEADER_SIZE = len(MAGIC) + 1 + 1 + 4 + 4 + len(LAYOUT_TAG)  # 38 bytes
RECORD_SIZE = RECORD_DTYPE.itemsize

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


def catalog_dtype(k: int) -> np.dtype:
    """One packed catalog entry: bits u64 | connected u8 | k labels u8 | orbit base u32."""
    return np.dtype([("bits", "<u8"), ("connected", "u1"), ("labels", "u1", (k,)),
                     ("base", "<u4")])


def catalog_entry_size(k: int) -> int:
    return catalog_dtype(k).itemsize


def expected_file_size(k: int, canonical_count: int) -> int:
    """Exact byte size of a table file for the given k and catalog size."""
    return (
        HEADER_SIZE
        + canonical_count * catalog_entry_size(k)
        + (1 << bit_length(k)) * RECORD_SIZE
    )


def _check_consistent(
    catalog: CanonicalCatalog, table: LookupTable, orbit_index: GlobalOrbitIndex
) -> None:
    k = catalog.k
    if not 1 <= k <= MAX_BUILD_K:
        raise ValueError(f"file format supports k in 1..{MAX_BUILD_K}, got {k}")
    if table.k != k or orbit_index.k != k:
        raise ValueError(
            f"inconsistent k across inputs: catalog {k}, table {table.k}, "
            f"orbit index {orbit_index.k}"
        )
    if len(table) != 1 << bit_length(k):
        raise ValueError(
            f"table has {len(table)} records, expected {1 << bit_length(k)}"
        )
    if catalog.orbit_labels.shape != (len(catalog), k):
        raise ValueError("catalog orbit partitions do not cover its canonicals")
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
    entries = np.empty(len(catalog), dtype=catalog_dtype(k))
    entries["bits"] = catalog.canonicals
    entries["connected"] = catalog.connected
    entries["labels"] = catalog.orbit_labels
    entries["base"] = orbit_index.bases
    records = np.ascontiguousarray(table.records, dtype=RECORD_DTYPE)
    if hasattr(destination, "write"):
        _write(destination, header, entries, records)
    else:
        with open(destination, "wb") as fh:
            _write(fh, header, entries, records)


def _write(fh: BinaryIO, header: bytes, entries: np.ndarray, records: np.ndarray) -> None:
    """Write both sections whole.  A raw stream may take fewer bytes than it
    is given and returns how many, so write is called until none are left; a
    sink whose write returns None took them all."""
    for section in (memoryview(header + entries.tobytes()), memoryview(records).cast("B")):
        while section:
            n = fh.write(section)
            section = section[len(section) if n is None else n:]


def deserialize(source: Destination) -> tuple[CanonicalCatalog, LookupTable, GlobalOrbitIndex]:
    """Read a table file back into its three structures, validating layout."""
    if hasattr(source, "read"):
        return _read(source)
    with open(source, "rb") as fh:
        return _read(fh)


def _read(fh: BinaryIO) -> tuple[CanonicalCatalog, LookupTable, GlobalOrbitIndex]:
    start = fh.tell()
    size = fh.seek(0, io.SEEK_END) - start  # every length check runs before the big reads
    fh.seek(start)
    header = _read_section(fh, np.uint8, min(size, HEADER_SIZE), 0).tobytes()

    if size < len(MAGIC):
        raise TruncatedFileError(
            f"file ends inside magic: {size} bytes, need {len(MAGIC)}"
        )
    if header[: len(MAGIC)] != MAGIC:
        raise BadMagicError(f"bad magic {header[:len(MAGIC)]!r} at offset 0")
    if size < HEADER_SIZE:
        raise TruncatedFileError(
            f"file ends inside header at offset {size}, need {HEADER_SIZE}"
        )
    version, k = struct.unpack_from("<BB", header, len(MAGIC))
    if version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"format version {version} at offset {len(MAGIC)}, expected {FORMAT_VERSION}"
        )
    if not 1 <= k <= MAX_BUILD_K:
        raise HeaderFieldError(f"unsupported k={k} at offset {len(MAGIC) + 1}")
    nc, total_orbits = struct.unpack_from("<II", header, len(MAGIC) + 2)
    tag_off = len(MAGIC) + 10
    tag = header[tag_off : tag_off + len(LAYOUT_TAG)]
    if tag != LAYOUT_TAG:
        raise LayoutMismatchError(
            f"layout tag {tag!r} at offset {tag_off}, expected {LAYOUT_TAG!r}"
        )

    entry_type = catalog_dtype(k)
    catalog_end = HEADER_SIZE + nc * entry_type.itemsize
    record_count = 1 << bit_length(k)
    expected = expected_file_size(k, nc)
    if size < catalog_end:
        raise TruncatedFileError(
            f"catalog section truncated at offset {size}: "
            f"expected {nc} entries ending at {catalog_end}"
        )
    if size < expected:
        raise TruncatedFileError(
            f"record section truncated at offset {size}: "
            f"expected {record_count} records ending at {expected}"
        )
    if size > expected:
        raise LengthMismatchError(
            f"{size - expected} trailing bytes after offset {expected}"
        )

    entries = _read_section(fh, entry_type, nc, HEADER_SIZE)
    catalog = CanonicalCatalog(k, entries["bits"].astype(np.int64),
                               entries["connected"].astype(bool), entries["labels"].copy())
    orbit_index = assign_global_orbit_ids(catalog)  # a bad numbering fails before the big read
    if orbit_index.total_orbits != total_orbits or not np.array_equal(
        orbit_index.bases, entries["base"]
    ):
        raise HeaderFieldError(
            "orbit numbering in file disagrees with its own orbit partitions"
        )
    check_memory(record_count * RECORD_SIZE, f"a k={k} table load")
    records = _read_section(fh, RECORD_DTYPE, record_count, catalog_end)
    return catalog, LookupTable(k, records), orbit_index


def _read_section(fh: BinaryIO, dtype: np.dtype, count: int, offset: int) -> np.ndarray:
    """The next count items of dtype, which start at offset in the file.

    readinto may return fewer bytes than asked, so it is called until the
    section is full; a stream that ends first is truncated.
    """
    section = np.empty(count, dtype=dtype)
    view = memoryview(section).cast("B")
    while view:
        n = fh.readinto(view)
        if not n:
            raise TruncatedFileError(f"stream ends at offset {offset}, before {offset + len(view)}")
        view, offset = view[n:], offset + n
    return section


@dataclass(frozen=True)
class TableSet:
    """Catalog + lookup table + orbit numbering for one k, as a unit.

    query, identify (and so node_orbit) and identify_batch refuse, with
    TableFileError, a record whose canonical id is not in the catalog or
    whose witness sends a node past k - 1.  A witness that sends two nodes
    to one image is caught only by query, where Permutation refuses it, and
    by a whole-table check of every record (ROADMAP item 4).
    """

    catalog: CanonicalCatalog
    table: LookupTable
    orbits: GlobalOrbitIndex

    @property
    def k(self) -> int:
        return self.catalog.k

    @classmethod
    def build(cls, k: int, m: int = 1, workers: int = 1) -> "TableSet":
        """Build everything for one k from m sifted ranges (m=1: one-shot)."""
        # workers is kept only for perfbench/session.py, which passes workers=1;
        # the ranges are always sifted in this process
        if workers != 1:
            raise ValueError(f"table builds run in one process; workers must be 1, got {workers}")
        catalog, table = build_canonical_map(k, m)
        return cls(catalog, table, assign_global_orbit_ids(catalog))

    @classmethod
    def load(cls, source: Destination) -> "TableSet":
        return cls(*deserialize(source))

    def save(self, destination: Destination) -> None:
        serialize(self.catalog, self.table, self.orbits, destination)

    def query(self, g: Graphette) -> tuple[int, Permutation, bool]:
        """Record for g: (canonical id, witness onto the canonical, connected)."""
        if g.k != self.k:
            raise ValueError(f"graphette k={g.k} does not match table k={self.k}")
        cid, connected, images = self._read(g.bits)
        return cid, Permutation(images), connected

    def node_orbit(self, g: Graphette, u: int) -> int:
        """Global orbit id of node u inside graphette g, in O(1)."""
        if not 0 <= u < g.k:
            raise ValueError(f"node index {u} out of range for k={g.k}")
        if g.k != self.k:
            raise ValueError(f"graphette k={g.k} does not match table k={self.k}")
        return self.identify(g.bits)[1][u]

    def identify(self, bits: int) -> tuple[int, tuple[int, ...]]:
        """Canonical id plus the global orbit id at every node position."""
        cid, _, images = self._read(bits)
        row = self.orbits.node_ids[cid].tolist()
        return cid, tuple([row[pos] for pos in images])

    def identify_batch(self, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Canonical ids (B,) and global orbit ids (B, k) of B bit vectors.

        Node u of a graphette sits at position pos = images[u] of its
        canonical, whose global orbit there is orbits.node_ids[cid, pos],
        gathered through the flat index cid * k + pos.  Like identify, it
        raises ValueError for a bit vector outside the table.
        """
        cids, pos = self.table.read_batch(bits)
        nc, k = len(self.catalog), self.k
        if cids.max(initial=0) >= nc or pos.max(initial=0) >= k:
            row = np.flatnonzero((cids >= nc) | (pos >= k).any(axis=1))[0]
            raise self._corrupt(bits[row], cids[row], pos[row])
        pos += cids[:, None] * k
        return cids, self.orbits.node_ids.reshape(-1)[pos]

    def _read(self, bits: int) -> tuple[int, bool, tuple[int, ...]]:
        """table.read(bits), refusing a record that points outside the table."""
        cid, connected, images = self.table.read(bits)
        if cid >= len(self.catalog) or max(images) >= self.k:
            raise self._corrupt(bits, cid, images)
        return cid, connected, images

    def _corrupt(self, bits: int, cid: int, images: Sequence[int]) -> TableFileError:
        return TableFileError(
            f"corrupt record {int(bits)}: canonical id {int(cid)} (the catalog has "
            f"{len(self.catalog)}), witness images {tuple(map(int, images))} (k={self.k})"
        )
