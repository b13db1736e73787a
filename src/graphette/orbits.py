"""Automorphism groups, permutation cycles, and node orbits of graphettes.

The orbit pipeline: enumerate every automorphism of a graphette, split each
one into its node cycles, then repeatedly recolor each cycle with its
minimum current color until stable.  Nodes sharing a final color form one
orbit, and the color itself is the orbit's minimum node index.

Table builds read their orbit labels off the automorphisms their own sweep
finds (canon.build_canonical_map); this pipeline is the independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canon import CanonicalCatalog, _iter_isomorphisms
from .core import Graphette, Permutation, bit_length, complement

MAX_AUTOMORPHISM_K = 10  # brute-force enumeration stays practical up to here


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
class GlobalOrbitIndex:
    """Consecutive orbit numbering across a whole catalog.

    The global id of a node's orbit is bases[canonical_id] plus the rank of
    its local label among that canonical's sorted labels; node_ids[c, u]
    holds that id for node u of canonical c, so a decode is one gather.
    """

    k: int
    bases: np.ndarray
    total_orbits: int
    node_ids: np.ndarray


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


def assign_global_orbit_ids(catalog: CanonicalCatalog) -> GlobalOrbitIndex:
    """Number all orbits across the catalog consecutively.

    Canonicals are numbered in id order, and within one canonical each orbit
    by its label's rank among the row's distinct labels (minimum node index).
    """
    labels = catalog.orbit_labels
    if labels.shape != (len(catalog), catalog.k):
        raise ValueError(f"orbit labels {labels.shape} do not fit {len(catalog)} canonicals")
    order = np.argsort(labels, axis=1, kind="stable")
    ordered = np.take_along_axis(labels, order, axis=1)
    first = np.ones(labels.shape, dtype=bool)
    first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    counts = first.sum(axis=1)
    bases = np.cumsum(counts) - counts
    node_ids = np.empty(labels.shape, dtype=np.int64)
    np.put_along_axis(node_ids, order, bases[:, None] + np.cumsum(first, axis=1) - 1, axis=1)
    return GlobalOrbitIndex(catalog.k, bases, int(counts.sum()), node_ids)
