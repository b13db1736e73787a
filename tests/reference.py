"""Reference oracles the tests hold the package against.

Brute force, written for clarity rather than speed, and independent of the
table builder and of the batched identify path: nothing here relabels by
the builder's permutation tables or reads its sweep, and nothing probes the
host's hashed edge set or decodes a batch of records.  From
``graphette.canon`` it takes only the ``CanonicalCatalog`` container, whose
orbit labels it can fill.

- Pairwise isomorphism: backtracking over degree-compatible node
  assignments (``are_isomorphic``).
- Automorphisms and orbits: enumerate every automorphism of a graphette,
  split each one into its node cycles, then repeatedly recolor each cycle
  with its minimum current color until stable.  Nodes sharing a final color
  form one orbit, and the color itself is the orbit's minimum node index.
- Degree sequences and complements of graphettes.
- One sample at a time: an edge test by binary search in a host node's
  sorted neighbor row (``has_edge``), the induced graphette from those
  tests (``induced_bits``), and the identify-and-tally of one k-set through
  a single table record read (``accumulate``).

Import it from a test as ``from reference import ...``: pytest puts
``tests/`` on ``sys.path``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from graphette.canon import CanonicalCatalog
from graphette.core import (
    Graphette,
    HostGraph,
    Permutation,
    adjacency_masks,
    bit_length,
    check_nodes,
    decode,
    edge_pairs,
)
from graphette.sampler import SampleAccumulator
from graphette.store import TableSet

MAX_AUTOMORPHISM_K = 10  # brute-force enumeration stays practical up to here


# ---------------------------------------------------------------------------
# structural queries


def degree_sequence(g: Graphette) -> list[int]:
    """Node degrees of g in non-decreasing order."""
    return sorted(degrees(g))


def degrees(g: Graphette) -> list[int]:
    """Per-node degrees of g, indexed by node."""
    deg = [0] * g.k
    for i, j in decode(g):
        deg[i] += 1
        deg[j] += 1
    return deg


def complement(g: Graphette) -> Graphette:
    """Edge-complement within the k-node graphette (no self-loops appear)."""
    full = (1 << bit_length(g.k)) - 1
    return Graphette(g.k, g.bits ^ full)


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
# automorphisms, cycles and orbits


@dataclass(frozen=True)
class OrbitPartition:
    """Orbit label per node; a label is the minimum node index in its orbit."""

    g: Graphette
    orbit_of: tuple[int, ...]
    orbit_count: int

    def groups(self) -> list[tuple[int, ...]]:
        """Orbits as node tuples, ordered by their minimum member."""
        out: dict[int, list[int]] = {}
        for u, label in enumerate(self.orbit_of):
            out.setdefault(label, []).append(u)
        return [tuple(out[label]) for label in sorted(out)]


@dataclass(frozen=True)
class AutomorphismSet:
    """All permutations fixing a graphette, in lexicographic order."""

    g: Graphette
    perms: tuple[Permutation, ...]

    def __len__(self) -> int:
        return len(self.perms)


@dataclass(frozen=True)
class CycleSet:
    """Disjoint cycles of one permutation, covering every node once."""

    cycles: tuple[tuple[int, ...], ...]


def generate_automorphisms(g: Graphette) -> AutomorphismSet:
    """Every permutation that maps g onto itself.

    Only degree-class-preserving assignments are generated, and the search
    runs on whichever of g and its complement has fewer edges (they share
    one automorphism group).
    """
    if g.k > MAX_AUTOMORPHISM_K:
        raise ValueError(
            f"automorphism enumeration supports k <= {MAX_AUTOMORPHISM_K}, got {g.k}"
        )
    base = g if 2 * g.edge_count <= bit_length(g.k) else complement(g)
    perms = tuple(Permutation(m) for m in _iter_isomorphisms(base, base))
    return AutomorphismSet(g=g, perms=perms)


def split_cycles(perm: Permutation) -> CycleSet:
    """Split a permutation into its disjoint cycles (u, perm(u), ...)."""
    visited = [False] * perm.k
    cycles: list[tuple[int, ...]] = []
    for u in range(perm.k):
        if visited[u]:
            continue
        cycle = [u]
        visited[u] = True
        v = perm(u)
        while v != u:
            cycle.append(v)
            visited[v] = True
            v = perm(v)
        cycles.append(tuple(cycle))
    return CycleSet(tuple(cycles))


def enumerate_orbits(g: Graphette, auts: AutomorphismSet) -> OrbitPartition:
    """Merge the cycles of every automorphism into orbits.

    Each node starts with its own index as color; every cycle is recolored
    to its minimum member color, and the sweep repeats until no color
    changes, so the result does not depend on cycle order.
    """
    if auts.g != g:
        raise ValueError("automorphism set was computed for a different graphette")
    color = list(range(g.k))
    cycles = [c for p in auts.perms for c in split_cycles(p).cycles if len(c) > 1]
    changed = True
    while changed:
        changed = False
        for cycle in cycles:
            low = min(color[u] for u in cycle)
            for u in cycle:
                if color[u] != low:
                    color[u] = low
                    changed = True
    return OrbitPartition(g=g, orbit_of=tuple(color), orbit_count=len(set(color)))


def orbit_partition(g: Graphette) -> OrbitPartition:
    """Orbits of g straight from its automorphism group."""
    return enumerate_orbits(g, generate_automorphisms(g))


def compute_orbit_partitions(catalog: CanonicalCatalog) -> None:
    """Fill catalog.orbit_labels with the orbit partition of every canonical.

    The reference for the labels a build already carries, as the same array.
    """
    labels = np.empty((len(catalog), catalog.k), dtype=np.uint8)
    for cid in range(len(catalog)):
        labels[cid] = orbit_partition(catalog.graphette(cid)).orbit_of
    catalog.orbit_labels = labels


# ---------------------------------------------------------------------------
# one sample at a time


def has_edge(graph: HostGraph, u: int, v: int) -> bool:
    """Edge test by binary search in u's sorted neighbor row."""
    row = graph.neighbors(u)
    i = np.searchsorted(row, v)
    return bool(i < len(row) and row[i] == v)


def induced_bits(graph: HostGraph, nodes: Sequence[int]) -> Graphette:
    """Graphette induced on distinct host nodes, one has_edge per node pair;
    position i of `nodes` becomes graphette node i."""
    check_nodes(graph, nodes)
    bits = 0
    for p, (i, j) in enumerate(edge_pairs(len(nodes))):
        if has_edge(graph, nodes[i], nodes[j]):
            bits |= 1 << p
    return Graphette(len(nodes), bits)


def accumulate(acc: SampleAccumulator, graph: HostGraph, nodes: Sequence[int],
               tables: TableSet) -> SampleAccumulator:
    """Identify one k-node sample through one table record and tally it.

    Raises ValueError on a wrong size, a repeated label, a label outside the
    host, or an accumulator made for other tables or another node count.
    """
    if acc.k != tables.k:
        raise ValueError(f"accumulator k={acc.k} does not match table k={tables.k}")
    if acc.host_nodes != graph.n:
        raise ValueError(f"accumulator has {acc.host_nodes} nodes, the graph {graph.n}")
    if len(nodes) != tables.k:
        raise ValueError(f"sample size {len(nodes)} does not match table k={tables.k}")
    cid, orbit_ids = tables.identify(induced_bits(graph, nodes).bits)
    acc.add_batch(np.array([nodes], dtype=np.int64), np.array([cid]), np.array([orbit_ids]))
    return acc
