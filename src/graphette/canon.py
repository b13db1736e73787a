"""Graphette isomorphism testing and canonical lookup-table construction.

The canonical representative of an isomorphism class is its numerically
lowest bit vector.  Tables map every bit vector B to one packed record
(canonical id, witness permutation, connected flag), where the witness w
satisfies apply_permutation(decode(B), w) == canonical bits.

Among all valid witnesses for a given B we always store the lexicographically
least mapping.  That rule is independent of how the table was built, which is
what makes one-shot and partitioned builds produce identical bytes; it also
guarantees every canonical entry carries the identity witness, since the
identity is lexicographically least inside any permutation group.

Every build is one sweep: contiguous ranges of bit vectors are sifted
(``sift_partition``) and the ranges merged (``merge_siftings``); the one-shot
build is the single range [0, 2^b(k)).  The sweep relabels each class's
lowest in-range member by the inverses of the k! permutations, listed in
lexicographic order, which yields the class's global canonical; when that
member is not the canonical, the canonical is relabeled instead.  The r-th
permutation undoes the r-th relabeling, so r keys its witness and the least
r is the least witness: every range stores each member's least witness onto
the global canonical, and the merge only assembles records.  The relabelings
that fix a canonical are its automorphisms; node orbits are read off them.
One relabeling by all k! permutations is a few table reads: the bit vector
is cut into 4-bit chunks, and for each chunk and each of its 16 values a
precomputed uint32 row holds the OR of the images of its set bits under
every permutation, so the k! images are the OR of one row per chunk.

A build holds one uint64 slot per bit vector in one array: each range sifts
into its slice of it, and the merge turns every slot into that vector's
record in place, packing the witness through a table of k! entries.  So
every build holds 8 bytes per entry (2 GiB at k=8), one-shot or
partitioned, plus, when a pool sifts the ranges, the ranges its workers
hold.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .core import (
    Graphette,
    Permutation,
    _bit_layout,
    adjacency_masks,
    bit_length,
    check_memory,
    degree_sequence,
    degrees,
    is_connected,
)

MAX_BUILD_K = 8          # 3-bit witness digits and the 14-bit id field cap builds and files at k=8
_SCAN_CHUNK = 1 << 12    # entries compared per step of the unclaimed scan
_RECORD_CHUNK = 1 << 16  # slots turned into records per step of the merge
_CHUNK_BITS = 4          # bit-vector bits per nibble-table row group of _perm_tables
_CHUNK_MASK = (1 << _CHUNK_BITS) - 1

# Slot layout while a range is sifted, one u64 per bit vector: bits 0-15 the
# index of its temporary canonical in the range, bits 16-31 the key of its
# least witness, the witness's column in _perm_tables; all ones until a class
# claims the vector.  The key is the high field, so the least slot a claim
# offers an entry holds its least key.
SLOT_TEMP_MASK = (1 << 16) - 1  # < 12,346 temporary canonicals per range even at k=8
SLOT_KEY_SHIFT = 16             # columns are < 8! = 40,320 < 2^16
_OPEN_SLOT = np.uint64(2**64 - 1)

# Record layout, one little-endian u64 per bit vector: bits 0-13 canonical id,
# bit 14 connected flag, bits 16-39 witness permutation at 3 bits per node
# (node u's image in bits 16+3u..18+3u), all other bits zero.
RECORD_DTYPE = np.dtype("<u8")
CANONICAL_ID_BITS = 14
CONNECTED_BIT = 14
WITNESS_SHIFT = 16
ID_MASK = (1 << CANONICAL_ID_BITS) - 1
WITNESS_MASK = (1 << 24) - 1
_WITNESS_SHIFTS = WITNESS_SHIFT + 3 * np.arange(MAX_BUILD_K, dtype=np.uint64)  # node u at [u]


def pack_record(canonical_id: int, connected: bool, witness_packed: int) -> int:
    """Assemble one 8-byte record value from its fields."""
    if not 0 <= canonical_id <= ID_MASK:
        raise ValueError(f"canonical id {canonical_id} does not fit {CANONICAL_ID_BITS} bits")
    if not 0 <= witness_packed <= WITNESS_MASK:
        raise ValueError(f"witness {witness_packed:#x} does not fit 24 bits")
    return canonical_id | (int(connected) << CONNECTED_BIT) | (witness_packed << WITNESS_SHIFT)


def unpack_record(value: int) -> tuple[int, bool, int]:
    """Split a record value into (canonical_id, connected, witness_packed)."""
    return (
        value & ID_MASK,
        bool(value >> CONNECTED_BIT & 1),
        value >> WITNESS_SHIFT & WITNESS_MASK,
    )


@dataclass
class CanonicalCatalog:
    """Ascending canonical bit vectors for one k, with per-canonical metadata.

    Row c of orbit_labels, an (NC, k) uint8 array as the table file stores it,
    gives each node of canonical c the minimum node index of its automorphism
    orbit.
    """

    k: int
    canonicals: np.ndarray
    connected: np.ndarray
    orbit_labels: np.ndarray

    def __post_init__(self) -> None:  # label rows given in another form become that array
        self.orbit_labels = np.asarray(self.orbit_labels, np.uint8).reshape(-1, self.k)

    def __len__(self) -> int:
        return len(self.canonicals)

    def graphette(self, canonical_id: int) -> Graphette:
        return Graphette(self.k, int(self.canonicals[canonical_id]))


@dataclass
class LookupTable:
    """Dense map from every k-node bit vector to its packed record.

    records is the table file's record section as it is stored.  read (one
    record, in Python ints) and read_batch (an index array) are its only
    readers, and decode only the records they index.
    """

    k: int
    records: np.ndarray

    def __len__(self) -> int:
        return len(self.records)

    def read(self, bits: int) -> tuple[int, bool, tuple[int, ...]]:
        """One record: (canonical id, connected, images); node u is images[u] in the canonical."""
        if not 0 <= bits < len(self.records):
            raise ValueError(f"bits {bits} out of range for k={self.k}")
        cid, connected, w = unpack_record(self.records.item(bits))
        return cid, connected, tuple([w >> 3 * u & 7 for u in range(self.k)])

    def read_batch(self, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Canonical ids (B,) and witness images (B, k), as intp, of B bit vectors."""
        records = self.records[bits]
        cids = (records & ID_MASK).astype(np.intp)
        images = (records[:, None] >> _WITNESS_SHIFTS[:self.k] & 7).astype(np.intp)
        return cids, images


@dataclass
class SiftPartition:
    """Isomorphism classes of one contiguous bit-vector range [lo, hi).

    temp_canonicals holds the lowest member of each class local to the range
    and temp_minima the class's global canonical (the least of its k!
    relabelings).  slots[b - lo] packs, in the slot layout above, the index
    of member b's temp canonical and the least r such that _perm_tables'
    perms[r] sends b onto the global canonical: the witness the table stores
    for b.  slots is the range's own array, or its slice of the one array a
    build sifts every range into.  orbit_labels (n, k) holds the label row
    of each temp canonical that is its own minimum, in temp order.
    """

    k: int
    lo: int
    hi: int
    temp_canonicals: np.ndarray
    temp_minima: np.ndarray
    orbit_labels: np.ndarray
    slots: np.ndarray


# ---------------------------------------------------------------------------
# pairwise isomorphism


def _iter_isomorphisms(g: Graphette, h: Graphette) -> Iterator[tuple[int, ...]]:
    """Yield every node mapping taking g onto h, in lexicographic order.

    Backtracking over partial assignments; a node may only map to a node of
    equal degree, and each extension is checked against all earlier edges.
    """
    k = g.k
    deg_g, deg_h = degrees(g), degrees(h)
    adj_g, adj_h = adjacency_masks(g), adjacency_masks(h)
    candidates = [[v for v in range(k) if deg_h[v] == deg_g[u]] for u in range(k)]
    image = [0] * k
    used = [False] * k

    def extend(u: int) -> Iterator[tuple[int, ...]]:
        if u == k:
            yield tuple(image)
            return
        row = adj_g[u]
        for v in candidates[u]:
            if used[v]:
                continue
            hrow = adj_h[v]
            ok = True
            for s in range(u):
                if (row >> s & 1) != (hrow >> image[s] & 1):
                    ok = False
                    break
            if ok:
                used[v] = True
                image[u] = v
                yield from extend(u + 1)
                used[v] = False

    yield from extend(0)


def are_isomorphic(g: Graphette, h: Graphette) -> Permutation | None:
    """Witness permutation taking g onto h, or None if not isomorphic.

    Rejects cheaply on edge-count then degree-sequence mismatch before
    cycling through degree-compatible node assignments.
    """
    if g.k != h.k:
        raise ValueError(f"size mismatch: k={g.k} vs k={h.k}")
    if g.bits == h.bits:
        return Permutation.identity(g.k)
    if g.edge_count != h.edge_count:
        return None
    if degree_sequence(g) != degree_sequence(h):
        return None
    for mapping in _iter_isomorphisms(g, h):
        return Permutation(mapping)
    return None


# ---------------------------------------------------------------------------
# vectorized permutation sweeps


@lru_cache(maxsize=None)
def _perm_tables(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All k! permutations in lexicographic order, each one's record witness
    field, and the nibble table that relabels a bit vector by each one's
    inverse.

    Column r relabels by perms[r]'s inverse, so perms[r] takes every image
    in column r back: r is the witness's key, and since
    itertools.permutations lists rows in lexicographic order, the least
    column is the lexicographically least witness.  Bit p's edge (i, j)
    goes to 1 << edge_bit(inv[i], inv[j]) under every inverse inv; that
    edge-image row is read from a (k, k) table of bit weights built from
    core's layout, so no bit position is computed here.  The bit vector is
    cut into chunks of _CHUNK_BITS bits, and nibbles[c, v], a (k!,) uint32
    row (b(8) = 28 bits fit), is the OR of the edge-image rows of the set
    bits of value v in chunk c; _relabelings ORs one such row per chunk.
    witness_field[r] is perms[r] packed as a record's witness bits.
    """
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.int64)
    inverse = np.argsort(perms, axis=1)
    hi, lo, weights = _bit_layout(k)
    weight_at = np.zeros((k, k), dtype=np.int64)
    weight_at[hi, lo] = weight_at[lo, hi] = weights
    # the whole (b(k), k!) int64 edge-image array first, then folded: folding
    # bit by bit into the nibble table left the k=7 heap of a session that
    # builds and loads tables in turn one 16 MiB block larger (124 vs 108 MiB)
    rows = [weight_at[inverse[:, i], inverse[:, j]] for i, j in zip(hi, lo)]
    edge_images = np.array(rows, dtype=np.int64)
    chunks = max(1, -(-len(hi) // _CHUNK_BITS))  # k=1 has no bits and one all-zero chunk
    nibbles = np.zeros((chunks, 1 << _CHUNK_BITS, len(perms)), dtype=np.uint32)
    values = np.arange(1 << _CHUNK_BITS)
    for p, row in enumerate(edge_images):
        chunk, shift = divmod(p, _CHUNK_BITS)
        nibbles[chunk, values >> shift & 1 == 1] |= row.astype(np.uint32)
    witness_field = (perms.astype(np.uint64) << _WITNESS_SHIFTS[:k]).sum(axis=1, dtype=np.uint64)
    return perms, witness_field, nibbles


def _relabelings(nibbles: np.ndarray, bits: int) -> np.ndarray:
    """bits relabeled by every column of _perm_tables, as (k!,) uint32: the
    OR of one nibble-table row per chunk of bits."""
    images = nibbles[0, bits & _CHUNK_MASK].copy()
    for chunk in range(1, len(nibbles)):
        images |= nibbles[chunk, bits >> _CHUNK_BITS * chunk & _CHUNK_MASK]
    return images


def _next_open(slots: np.ndarray, start: int) -> int:
    """Index of the first unclaimed slot at or after start, or len(slots)."""
    size = len(slots)
    pos = start
    while pos < size:
        stop = min(pos + _SCAN_CHUNK, size)
        hits = np.flatnonzero(slots[pos:stop] == _OPEN_SLOT)
        if len(hits):
            return pos + int(hits[0])
        pos = stop
    return size


def _check_build_k(k: int) -> None:
    if not 1 <= k <= MAX_BUILD_K:
        raise ValueError(f"table building supports k in 1..{MAX_BUILD_K}, got {k}")


# ---------------------------------------------------------------------------
# the sweep


def sift_partition(k: int, lo: int, hi: int, slots: np.ndarray | None = None) -> SiftPartition:
    """Classify one contiguous range of bit vectors in isolation.

    The range is scanned in ascending order.  Each time the scan reaches a
    bit vector t not yet claimed, t is the lowest in-range member of a new
    class and becomes its temporary canonical.  All k! relabelings of t come
    at once, each chunk of t's bits reading one row of _perm_tables' nibble
    table; their least is the class's global canonical c.  If c differs
    from t, c is relabeled instead, which yields the same class.  Each
    relabeling inside [lo, hi) offers its slot the temp's index and its
    column, the key of its witness, and the slot keeps the least offer: the
    least witness onto c.  When t is c, node u's orbit label is u's least
    image under the relabelings that fix t.

    slots, when given, is the (hi - lo)-entry uint64 array to sift into;
    otherwise the range gets an array of its own.
    """
    _check_build_k(k)
    size = 1 << bit_length(k)
    if not (0 <= lo < hi <= size):
        raise ValueError(f"empty or out-of-range partition [{lo}, {hi}) for k={k}")
    span = hi - lo
    if slots is None:
        slots = np.empty(span, dtype=np.uint64)
    elif slots.shape != (span,) or slots.dtype != np.uint64:
        raise ValueError(f"range [{lo}, {hi}) needs {span} uint64 slots, "
                         f"got {slots.shape} {slots.dtype}")
    slots.fill(_OPEN_SLOT)
    perms, _, nibbles = _perm_tables(k)
    key_hi = np.arange(len(perms), dtype=np.uint64) << np.uint64(SLOT_KEY_SHIFT)
    temps: list[int] = []
    minima: list[int] = []
    labels: list[np.ndarray] = []

    cursor = 0
    while True:
        cursor = _next_open(slots, cursor)
        if cursor >= span:
            break
        bits = lo + cursor
        images = _relabelings(nibbles, bits)
        low = int(images.min())
        if low == bits:
            labels.append(perms[images == low].min(axis=0))
        else:
            images = _relabelings(nibbles, low)
        inside = (images >= lo) & (images < hi)
        np.minimum.at(slots, images[inside] - lo, key_hi[inside] | np.uint64(len(temps)))
        temps.append(bits)
        minima.append(low)
        cursor += 1

    return SiftPartition(
        k=k,
        lo=lo,
        hi=hi,
        temp_canonicals=np.array(temps, dtype=np.int64),
        temp_minima=np.array(minima, dtype=np.int64),
        orbit_labels=np.array(labels, dtype=np.uint8).reshape(-1, k),
        slots=slots,
    )


def _validate_tiling(parts: Sequence[SiftPartition]) -> list[SiftPartition]:
    if not parts:
        raise ValueError("no partitions to merge")
    k = parts[0].k
    ordered = sorted(parts, key=lambda p: p.lo)
    size = 1 << bit_length(k)
    expected = 0
    for p in ordered:
        if p.k != k:
            raise ValueError(f"mixed k in partitions: {p.k} vs {k}")
        if p.lo != expected:
            raise ValueError(
                f"partitions do not tile the space: gap/overlap at {expected} "
                f"(next range starts at {p.lo})"
            )
        expected = p.hi
    if expected != size:
        raise ValueError(
            f"partitions do not tile the space: cover [0, {expected}) of [0, {size})"
        )
    return ordered


def merge_siftings(
    parts: Sequence[SiftPartition], slots: np.ndarray | None = None
) -> tuple[CanonicalCatalog, LookupTable]:
    """Fuse per-range siftings into the global catalog and lookup table.

    slots is the one array of 2^b(k) entries that the parts were sifted
    into, part p's slots being slots[p.lo:p.hi]; the merge takes it over and
    turns it into the table's records in place.  Without it, the parts'
    own slot arrays are joined into one first.  The canonicals are the temp
    canonicals that are their own minimum (the class's lowest member always
    survives its own range).  Every range already holds each member's least
    witness onto its global canonical, so the merge only assembles records:
    canonical id and connected flag through the slot's temp index, witness
    field through its key.  The parts' orbit label rows, concatenated in range
    order, are the catalog's.
    """
    ordered = _validate_tiling(parts)
    k = ordered[0].k
    if slots is None:
        slots = np.concatenate([p.slots for p in ordered])
    elif slots.shape != (1 << bit_length(k),):
        raise ValueError(f"k={k} slots need {1 << bit_length(k)} entries, got {slots.shape}")

    temps = np.concatenate([p.temp_canonicals for p in ordered])
    minima = np.concatenate([p.temp_minima for p in ordered])
    # ranges are ascending and temps ascend within each range
    canonicals = temps[minima == temps]
    connected = np.array([is_connected(Graphette(k, int(c))) for c in canonicals], dtype=bool)
    temp_cid = np.searchsorted(canonicals, minima)
    temp_low = temp_cid.astype(np.uint64) | connected[temp_cid].astype(np.uint64) << CONNECTED_BIT

    ends = np.cumsum([len(p.temp_canonicals) for p in ordered])
    for part, part_low in zip(ordered, np.split(temp_low, ends[:-1])):
        _slots_to_records(k, slots[part.lo:part.hi], part_low)

    labels = np.concatenate([p.orbit_labels for p in ordered])
    return CanonicalCatalog(k, canonicals, connected, labels), LookupTable(k, slots)


def _slots_to_records(k: int, slots: np.ndarray, temp_low: np.ndarray) -> None:
    """Turn each sifted slot of one range into its record, in place.

    temp_low holds the id and connected bits of each temp canonical of the
    range, and _perm_tables the witness field of each key.  Chunks bound the
    temporaries.
    """
    witness_field = _perm_tables(k)[1]
    for start in range(0, len(slots), _RECORD_CHUNK):
        chunk = slots[start:start + _RECORD_CHUNK]
        claimed = chunk.view(np.int64)  # sifted slots are < 2^32; signed indexes gather faster
        chunk[:] = temp_low[claimed & SLOT_TEMP_MASK] | witness_field[claimed >> SLOT_KEY_SHIFT]


def partition_ranges(k: int, m: int) -> list[tuple[int, int]]:
    """m contiguous near-equal ranges tiling [0, 2^b(k)); never empty."""
    if m < 1:
        raise ValueError(f"partition count must be >= 1, got {m}")
    size = 1 << bit_length(k)
    m = min(m, size)
    bounds = [size * i // m for i in range(m + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(m)]


def build_canonical_map_parallel(
    k: int, m: int, workers: int = 1
) -> tuple[CanonicalCatalog, LookupTable]:
    """Sift m bit-vector ranges (concurrently when workers > 1) and merge.

    Every range sifts into its slice of one slot array, which the merge
    turns into the record array.  Output is identical for every m, worker
    count and completion order; m=1 is the one-shot build.
    """
    _check_build_k(k)
    ranges = partition_ranges(k, m)
    size = 1 << bit_length(k)
    pooled = workers > 1 and len(ranges) > 1
    in_flight = min(workers, len(ranges)) if pooled else 0
    # 8 bytes per entry for the slot array, and as much for each range a worker holds
    check_memory(8 * (size + in_flight * max(hi - lo for lo, hi in ranges)),
                 f"a k={k} table build from {len(ranges)} ranges"
                 + (f" on {workers} workers" if pooled else ""))
    slots = np.empty(size, dtype=np.uint64)
    if not pooled:
        parts = [sift_partition(k, lo, hi, slots[lo:hi]) for lo, hi in ranges]
    else:
        parts = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(sift_partition, k, lo, hi) for lo, hi in ranges]
            for future in as_completed(futures):
                part = future.result()  # into its slice as it arrives; its own array is dropped
                slots[part.lo:part.hi] = part.slots
                part.slots = slots[part.lo:part.hi]
                parts.append(part)
    return merge_siftings(parts, slots)


def build_canonical_map_sequential(k: int) -> tuple[CanonicalCatalog, LookupTable]:
    """The one-shot build: the whole bit-vector space as one sifted range."""
    return build_canonical_map_parallel(k, 1)
