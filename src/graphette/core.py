"""Bit-vector graphettes, permutations, and host graphs.

A graphette is a small undirected simple graph on k labeled nodes, stored as
the lower triangle of its adjacency matrix packed into an integer: edge
{i, j} with i > j occupies bit position p(i, j) = i*(i-1)/2 + j, with
position 0 the least significant bit.  The layout is normative; table files
written by this package depend on it.  `edge_bit` is the layout and
`edge_pairs` its inverse; nothing else computes a bit position.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

# Graphette and the scalar functions hold bits in Python ints, so they take
# k <= 12 (b = 66 bits).  induced_bits_batch packs int64 and stops at k=11
# (b = 55), and tables at k=8 (canon.MAX_BUILD_K).
MAX_K = 12


def check_memory(nbytes: int, what: str) -> None:
    """Refuse up front an allocation of more than half of physical memory.

    Raises ValueError naming what would be allocated and both byte counts.
    """
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2
    if nbytes > limit:
        raise ValueError(
            f"{what} needs {nbytes} bytes, more than half of physical memory ({limit} bytes)"
        )


def bit_length(k: int) -> int:
    """Number of lower-triangle bits b(k) = k*(k-1)/2 for a k-node graphette."""
    return k * (k - 1) // 2


def edge_bit(i: int, j: int) -> int:
    """Bit position of edge {i, j}; order of arguments does not matter."""
    if i == j:
        raise ValueError(f"self-loop on node {i}")
    if i < j:
        i, j = j, i
    return i * (i - 1) // 2 + j


@lru_cache(maxsize=None)
def edge_pairs(k: int) -> tuple[tuple[int, int], ...]:
    """Entry p is the edge (i, j), i > j, at bit p of a k-node graphette."""
    pairs = ((i, j) for i in range(k) for j in range(i))
    return tuple(sorted(pairs, key=lambda e: edge_bit(*e)))


@dataclass(frozen=True)
class Graphette:
    """A k-node graphette as (k, lower-triangle bit vector)."""

    k: int
    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.k <= MAX_K:
            raise ValueError(f"k must be in 1..{MAX_K}, got {self.k}")
        if not 0 <= self.bits < (1 << bit_length(self.k)):
            raise ValueError(
                f"bits {self.bits:#x} out of range for k={self.k} "
                f"(need 0 <= bits < 2**{bit_length(self.k)})"
            )

    @property
    def edge_count(self) -> int:
        return self.bits.bit_count()

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.bits >> edge_bit(i, j) & 1)


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0..k-1}; mapping[u] is the image of node u."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        k = len(self.mapping)
        if sorted(self.mapping) != list(range(k)):
            raise ValueError(f"not a bijection on 0..{k - 1}: {self.mapping}")

    @classmethod
    def identity(cls, k: int) -> "Permutation":
        return cls(tuple(range(k)))

    @property
    def k(self) -> int:
        return len(self.mapping)

    def __call__(self, u: int) -> int:
        return self.mapping[u]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(u) = self(other(u))."""
        if self.k != other.k:
            raise ValueError(f"size mismatch: {self.k} vs {other.k}")
        return Permutation(tuple(self.mapping[v] for v in other.mapping))

    def inverse(self) -> "Permutation":
        inv = [0] * self.k
        for u, v in enumerate(self.mapping):
            inv[v] = u
        return Permutation(tuple(inv))


def encode(k: int, edges: Iterable[tuple[int, int]]) -> Graphette:
    """Pack an edge set on nodes 0..k-1 into a graphette.

    Raises ValueError for endpoints out of range or self-loops.
    """
    bits = 0
    for u, v in edges:
        if not (0 <= u < k and 0 <= v < k):
            raise ValueError(f"edge endpoint out of range for k={k}: ({u}, {v})")
        bits |= 1 << edge_bit(u, v)
    return Graphette(k, bits)


def decode(g: Graphette) -> set[tuple[int, int]]:
    """Edge set of g as (i, j) pairs with i > j; exact inverse of encode."""
    bits = g.bits
    return {e for p, e in enumerate(edge_pairs(g.k)) if bits >> p & 1}


def apply_permutation(g: Graphette, perm: Permutation) -> Graphette:
    """Relabel g's nodes: the result has edge {perm(u), perm(v)} iff g has {u, v}."""
    if perm.k != g.k:
        raise ValueError(f"size mismatch: graphette k={g.k}, permutation k={perm.k}")
    m = perm.mapping
    return Graphette(g.k, sum(1 << edge_bit(m[i], m[j]) for i, j in decode(g)))


def adjacency_masks(g: Graphette) -> list[int]:
    """Per-node neighbor bitmasks (bit v of entry u set iff edge {u, v})."""
    masks = [0] * g.k
    for i, j in decode(g):
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return masks


def is_connected(g: Graphette) -> bool:
    """True iff all k nodes lie in one connected component (k=1 is connected)."""
    if g.k == 1:
        return True
    masks = adjacency_masks(g)
    seen = 1  # start from node 0
    frontier = 1
    while frontier:
        nxt = 0
        v = frontier
        while v:
            low = v & -v
            nxt |= masks[low.bit_length() - 1]
            v ^= low
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << g.k) - 1


# Multiplicative hashing (Knuth, TAOCP vol. 3, section 6.4): C is odd, so
# key -> key * C mod 2^64 is a bijection and the edge set stores hashes.
_HASH_MULTIPLIER = 0x9E3779B97F4A7C15


class HostGraph:
    """A large undirected simple graph with O(k^2)-cost induced-subgraph reads.

    Adjacency is stored in compressed sparse rows (sorted neighbor arrays),
    which serve neighbor reads and draws.  Each edge owns two adjacency
    slots, one in each end's row, so a uniform slot names a uniform edge.
    Edge tests probe an open-addressing set of the edge keys u*n + v
    (u < v), at load at most 1/2.  The rows hold int32 labels and take 8
    bytes per edge and 8 per node, the set 16 to 32 bytes per edge: 4.4 and
    8.0 MiB for a configuration-model host of 100,000 nodes and 475,898
    edges.
    """

    def __init__(self, n: int, edges: "Iterable[tuple[int, int]] | np.ndarray",
                 names: Sequence[str] | None = None):
        if not 1 <= n <= 1 << 31:
            raise ValueError(f"host graph needs 1 to 2^31 nodes (int32 labels), got {n}")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        loops = arr[:, 0] == arr[:, 1]
        if loops.any():
            raise ValueError(f"self-loop on node {int(arr[loops][0, 0])}")
        bad = ((arr < 0) | (arr >= n)).any(axis=1)
        if bad.any():
            u, v = arr[bad][0].tolist()
            raise ValueError(f"edge endpoint out of range: ({u}, {v})")
        self.n = n
        if names is not None:
            if len(names) != n:
                raise ValueError("names length must equal n")
            self.names = list(names)
        else:
            self.names = [str(i) for i in range(n)]
        # Both orientations' keys u*n + v, deduplicated after one sort (numpy
        # 2.4's hash-based np.unique is ~60x slower), are the adjacency slots:
        # row u is the run [u*n, (u+1)*n).  Those with u < v are the edge keys.
        u, v = arr.T
        slots = np.sort(np.concatenate([u * n + v, v * n + u]))
        first = np.empty(len(slots), dtype=bool)  # one bool per key, no int64 temporaries
        first[:1] = True
        np.not_equal(slots[1:], slots[:-1], out=first[1:])
        slots = slots[first]
        rows, cols = np.divmod(slots, n)
        self._indices = cols.astype(np.int32)
        self._indptr = np.searchsorted(slots, np.arange(n + 1, dtype=np.int64) * n)
        keys = slots[rows < cols]
        del slots, rows, cols  # freed before the hash set is laid out
        self.edge_count = len(keys)
        self._hash_edges(keys)

    def _hash_edges(self, keys: np.ndarray) -> None:
        """Lay out the open-addressing set of the edge keys, hashing them in place.

        The set stores h = key * C mod 2^64 at or after slot h >> shift, the
        top bits of h, in 2^b slots for at least 2m.  In sorted order, hash i
        goes to the first free position from its slot, pos = max(slot_i,
        pos_{i-1} + 1), so every run of taken positions is sorted by hash
        and a probe stops at the first hash not below its own.  The table
        ends one position past the last taken one and never wraps.  Free
        positions hold the hash of n*n, which no pair u < v has.
        """
        hashes = keys.view(np.uint64)
        hashes *= np.uint64(_HASH_MULTIPLIER)
        hashes.sort()
        bits = max(1, (2 * len(keys) - 1).bit_length())
        self._hash_shift = np.uint64(64 - bits)
        self._hash_free = np.uint64(self.n * self.n * _HASH_MULTIPLIER % (1 << 64))
        ranks = np.arange(len(keys), dtype=np.int64)
        pos = (hashes >> self._hash_shift).view(np.int64)
        pos -= ranks
        np.maximum.accumulate(pos, out=pos)
        pos += ranks
        # The table is its own anonymous mapping, not a malloc block: in the
        # heap it splits the space that the build's temporaries free, which
        # later large buffers then cannot reuse, and a mapping is returned
        # whole when the graph is dropped.
        size = max(1 << bits, int(pos[-1]) + 2 if len(pos) else 0)
        self._hash_table = np.frombuffer(mmap.mmap(-1, 8 * size), dtype=np.uint64)
        self._hash_table[:] = self._hash_free
        self._hash_table[pos] = hashes

    def slot_ends(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both ends (u, v) of adjacency slots s, 0 <= s < 2m (unchecked).

        Slot s lies in row u, the last row that starts at or before s, so
        empty rows are skipped, and holds neighbor v of u.
        """
        return np.searchsorted(self._indptr, s, side="right") - 1, self._indices[s]

    @property
    def edge_array(self) -> np.ndarray:
        """(m, 2) int64 edges (u, v), u < v, lexicographically sorted; built on each read."""
        ends = np.stack(self.slot_ends(np.arange(2 * self.edge_count)), axis=1)
        return ends[ends[:, 0] < ends[:, 1]]

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbor labels of u (a view; do not mutate)."""
        return self._indices[self._indptr[u]:self._indptr[u + 1]]

    def degree(self, u: int) -> int:
        return int(self._indptr[u + 1] - self._indptr[u])

    def degrees(self, u: np.ndarray) -> np.ndarray:
        """The degree of each label in u."""
        return self._indptr[u + 1] - self._indptr[u]

    def neighbor(self, u: np.ndarray, i: np.ndarray) -> np.ndarray:
        """The i-th smallest neighbor of each u, for 0 <= i < deg(u) (unchecked)."""
        return self._indices[self._indptr[u] + i]

    def has_edges(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise edge tests between broadcastable label arrays.

        Labels must be in range; nothing is checked.  A pair of equal labels
        tests False, as the host has no self-loops.  Each test probes the
        hashed edge set from its key's slot until it meets its hash, a
        larger one or a free position; each round gathers one position for
        every test still open.  At load 0.45 a test reads 1.42 positions on
        average, hit or miss.
        """
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        keys = np.minimum(a, b) * self.n + np.maximum(a, b)
        hashes = keys.reshape(-1).view(np.uint64) * np.uint64(_HASH_MULTIPLIER)
        pos = (hashes >> self._hash_shift).view(np.int64)
        found = self._hash_table[pos]
        hit = found == hashes
        todo = np.flatnonzero((found < hashes) & (found != self._hash_free))
        pos, hashes = pos[todo], hashes[todo]
        while todo.size:
            pos += 1
            found = self._hash_table[pos]
            hit[todo] = found == hashes
            more = (found < hashes) & (found != self._hash_free)
            todo, pos, hashes = todo[more], pos[more], hashes[more]
        return hit.reshape(keys.shape)


def check_nodes(graph: HostGraph, nodes: Sequence[int]) -> None:
    """Raise ValueError unless nodes are distinct labels of the host."""
    if len(set(nodes)) != len(nodes):
        raise ValueError(f"duplicate node label in {nodes}")
    for u in nodes:
        if not 0 <= u < graph.n:
            raise ValueError(f"node label {u} out of range (n={graph.n})")


def induced_bits(graph: HostGraph, nodes: Sequence[int]) -> Graphette:
    """Graphette induced on an ordered k-tuple of distinct host nodes.

    Position i of `nodes` becomes graphette node i.  Its b(k) edge tests,
    independent of host size, are one HostGraph.has_edges call, and the
    hits are packed into a Python int, so k may reach MAX_K.
    """
    check_nodes(graph, nodes)
    ends = np.asarray(nodes, dtype=np.int64)
    hi, lo = np.array(edge_pairs(len(ends)), dtype=np.int64).reshape(-1, 2).T
    hits = np.packbits(graph.has_edges(ends[hi], ends[lo]), bitorder="little")
    return Graphette(len(ends), int.from_bytes(hits.tobytes(), "little"))


@lru_cache(maxsize=None)
def _bit_layout(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, weight) of every lower-triangle bit of a k-node graphette, in
    bit order: bit p tests edge {i[p], j[p]} and is worth weight[p] = 2^p."""
    hi, lo = np.array(edge_pairs(k), dtype=np.int64).reshape(-1, 2).T.copy()
    weights = np.int64(1) << np.arange(len(hi), dtype=np.int64)
    for a in (hi, lo, weights):  # shared by every call: keep them read-only
        a.flags.writeable = False
    return hi, lo, weights


def induced_bits_batch(graph: HostGraph, nodes: np.ndarray) -> np.ndarray:
    """Bit vectors induced on every row of a (B, k) array of host labels.

    Row r gives the same bits as induced_bits(graph, nodes[r]).  All
    B*k(k-1)/2 edge tests are one HostGraph.has_edges call.  Rows must
    already hold distinct in-range labels; nothing is checked.  Raises
    ValueError when b(k) > 63, which int64 bit vectors cannot hold.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    k = nodes.shape[1]
    if bit_length(k) > 63:
        raise ValueError(f"batched bit vectors are int64: k={k} needs {bit_length(k)} bits")
    hi, lo, weights = _bit_layout(k)
    return graph.has_edges(nodes[:, hi], nodes[:, lo]) @ weights
