import itertools
import math
import random

import numpy as np
import pytest

from graphette.canon import CanonicalCatalog, build_canonical_map
from graphette.core import (
    Graphette,
    Permutation,
    apply_permutation,
    bit_length,
    complement,
    encode,
)
from graphette.orbits import (
    AutomorphismSet,
    assign_global_orbit_ids,
    compute_orbit_partitions,
    enumerate_orbits,
    generate_automorphisms,
    orbit_partition,
    split_cycles,
)

ORBIT_TOTALS = {1: 1, 2: 2, 3: 6, 4: 20, 5: 90}


def path_graphette(k: int) -> Graphette:
    return encode(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graphette(k: int) -> Graphette:
    return encode(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graphette(k: int) -> Graphette:
    return Graphette(k, (1 << bit_length(k)) - 1)


def petersen_graphette() -> Graphette:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return encode(10, outer + spokes + inner)


def oracle_orbits(g: Graphette, auts: AutomorphismSet) -> tuple[int, ...]:
    """Orbit labels straight from the definition: u and v share an orbit iff
    some automorphism maps u to v."""
    label = list(range(g.k))
    for p in auts.perms:
        for u in range(g.k):
            a, b = label[u], label[p(u)]
            if a != b:
                lo, hi = min(a, b), max(a, b)
                label = [lo if x == hi else x for x in label]
    return tuple(label)


# --- generate_automorphisms --------------------------------------------------


def test_triangle_has_six_automorphisms():
    auts = generate_automorphisms(Graphette(3, 7))
    assert len(auts) == 6


def test_one_edge_automorphisms():
    auts = generate_automorphisms(Graphette(3, 1))
    assert {p.mapping for p in auts.perms} == {(0, 1, 2), (1, 0, 2)}


def test_petersen_has_120_automorphisms():
    assert len(generate_automorphisms(petersen_graphette())) == 120


def test_every_automorphism_fixes_g():
    for k in range(1, 7):
        catalog, _ = build_canonical_map(k)
        for cid in range(len(catalog)):
            g = catalog.graphette(cid)
            for p in generate_automorphisms(g).perms:
                assert apply_permutation(g, p) == g


def test_group_axioms_over_canonicals():
    for k in range(1, 7):
        catalog, _ = build_canonical_map(k)
        for cid in range(len(catalog)):
            auts = generate_automorphisms(catalog.graphette(cid))
            members = {p.mapping for p in auts.perms}
            assert tuple(range(k)) in members
            for p in auts.perms:
                assert p.inverse().mapping in members
            # composition closure; sample pairs for the giant groups
            perms = auts.perms
            if len(perms) > 60:
                rng = random.Random(cid)
                pairs = [(rng.choice(perms), rng.choice(perms)) for _ in range(500)]
            else:
                pairs = [(a, b) for a in perms for b in perms]
            for a, b in pairs:
                assert a.compose(b).mapping in members


def test_automorphism_family_sizes():
    for k in range(1, 9):
        assert len(generate_automorphisms(complete_graphette(k))) == math.factorial(k)
    for k in range(2, 9):
        assert len(generate_automorphisms(path_graphette(k))) == 2
    for k in range(3, 9):
        assert len(generate_automorphisms(cycle_graphette(k))) == 2 * k


def test_automorphism_k_bound():
    with pytest.raises(ValueError):
        generate_automorphisms(Graphette(11, 0))


# --- split_cycles ------------------------------------------------------------


def test_split_cycles_worked_example():
    cs = split_cycles(Permutation((2, 0, 1, 3, 5, 4)))
    assert cs.cycles == ((0, 2, 1), (3,), (4, 5))


def test_split_cycles_identity():
    cs = split_cycles(Permutation.identity(4))
    assert cs.cycles == ((0,), (1,), (2,), (3,))


def test_split_cycles_swap():
    assert split_cycles(Permutation((1, 0))).cycles == ((0, 1),)


def test_cycles_partition_nodes():
    rng = random.Random(53)
    for k in range(1, 9):
        for _ in range(30):
            order = list(range(k))
            rng.shuffle(order)
            cs = split_cycles(Permutation(tuple(order)))
            flat = [u for c in cs.cycles for u in c]
            assert sorted(flat) == list(range(k))


def test_power_returns_within_k_steps():
    rng = random.Random(59)
    for k in range(1, 9):
        for _ in range(20):
            order = list(range(k))
            rng.shuffle(order)
            p = Permutation(tuple(order))
            for u in range(k):
                v = p(u)
                steps = 1
                while v != u:
                    v = p(v)
                    steps += 1
                assert steps <= k


# --- enumerate_orbits --------------------------------------------------------


def test_one_edge_orbits():
    g = Graphette(3, 1)
    part = enumerate_orbits(g, generate_automorphisms(g))
    assert part.orbit_of == (0, 0, 2)
    assert part.orbit_count == 2
    assert part.groups() == [(0, 1), (2,)]


def test_triangle_single_orbit():
    part = orbit_partition(Graphette(3, 7))
    assert part.orbit_of == (0, 0, 0)
    assert part.orbit_count == 1


def test_empty_graphette_single_orbit():
    for k in range(1, 7):
        part = orbit_partition(Graphette(k, 0))
        assert part.orbit_count == 1


def test_enumerate_orbits_rejects_mismatched_auts():
    auts = generate_automorphisms(Graphette(3, 1))
    with pytest.raises(ValueError):
        enumerate_orbits(Graphette(3, 3), auts)


def test_orbit_labels_are_minima_and_partition():
    for k in range(1, 7):
        catalog, _ = build_canonical_map(k)
        for cid in range(len(catalog)):
            part = orbit_partition(catalog.graphette(cid))
            for u, label in enumerate(part.orbit_of):
                assert label <= u
                assert part.orbit_of[label] == label
            assert part.orbit_count == len(set(part.orbit_of))


def test_orbits_invariant_under_every_automorphism():
    for k in range(2, 7):
        catalog, _ = build_canonical_map(k)
        for cid in range(len(catalog)):
            g = catalog.graphette(cid)
            auts = generate_automorphisms(g)
            part = enumerate_orbits(g, auts)
            for p in auts.perms:
                for u in range(k):
                    assert part.orbit_of[p(u)] == part.orbit_of[u]


def test_each_cycle_lies_in_one_orbit():
    for k in range(2, 6):
        catalog, _ = build_canonical_map(k)
        for cid in range(len(catalog)):
            g = catalog.graphette(cid)
            auts = generate_automorphisms(g)
            part = enumerate_orbits(g, auts)
            for p in auts.perms:
                for cycle in split_cycles(p).cycles:
                    labels = {part.orbit_of[u] for u in cycle}
                    assert len(labels) == 1


def test_orbits_match_reachability_oracle():
    for k in range(1, 7):
        catalog, _ = build_canonical_map(k)
        for cid in range(len(catalog)):
            g = catalog.graphette(cid)
            auts = generate_automorphisms(g)
            assert enumerate_orbits(g, auts).orbit_of == oracle_orbits(g, auts)


def test_orbits_invariant_under_complement():
    for k in range(1, 6):
        for bits in range(1 << bit_length(k)):
            g = Graphette(k, bits)
            assert orbit_partition(g).orbit_of == orbit_partition(complement(g)).orbit_of


@pytest.mark.parametrize("k,m", [(k, 1) for k in range(1, 8)] + [(6, 7), (6, 16), (7, 9)])
def test_builder_orbit_labels_match_orbit_partition(k, m):
    # the builder reads orbits off the sweep's automorphisms; orbit_partition
    # backtracks over the automorphism group independently
    catalog, _ = build_canonical_map(k, m)
    assert catalog.orbit_labels.shape == (len(catalog), k)
    assert catalog.orbit_labels.dtype == np.uint8
    for cid, labels in enumerate(catalog.orbit_labels.tolist()):
        assert tuple(labels) == orbit_partition(catalog.graphette(cid)).orbit_of


# --- global orbit ids --------------------------------------------------------


def test_global_orbit_totals():
    for k, expected in sorted(ORBIT_TOTALS.items()):
        catalog, _ = build_canonical_map(k)
        compute_orbit_partitions(catalog)
        index = assign_global_orbit_ids(catalog)
        assert index.total_orbits == expected


def test_k3_orbit_breakdown():
    catalog, _ = build_canonical_map(3)
    compute_orbit_partitions(catalog)
    counts = [len(set(labels)) for labels in catalog.orbit_labels]
    assert counts == [1, 2, 2, 1]
    index = assign_global_orbit_ids(catalog)
    assert index.bases.tolist() == [0, 1, 3, 5]
    assert index.total_orbits == 6


def test_global_ids_consecutive():
    catalog, _ = build_canonical_map(5)
    compute_orbit_partitions(catalog)
    index = assign_global_orbit_ids(catalog)
    seen = []
    for cid, labels in enumerate(catalog.orbit_labels):
        for rank in range(len(set(labels))):
            seen.append(int(index.bases[cid]) + rank)
    assert seen == list(range(index.total_orbits))


def test_assign_requires_partitions():
    built, _ = build_canonical_map(3)
    catalog = CanonicalCatalog(3, built.canonicals, built.connected, built.orbit_labels[:-1])
    with pytest.raises(ValueError, match="orbit labels"):  # one label row too few
        assign_global_orbit_ids(catalog)


def reference_numbering(labels_list):
    """Global orbit numbering one canonical at a time: rank of each label
    among its row's sorted distinct labels, offset by the orbits before it."""
    bases, node_ids, total = [], [], 0
    for labels in labels_list:
        rank = {label: r for r, label in enumerate(sorted(set(labels)))}
        bases.append(total)
        node_ids.append([total + rank[label] for label in labels])
        total += len(rank)
    return bases, node_ids, total


@pytest.mark.parametrize("seed", range(20))
def test_numbering_matches_loop_on_random_u8_labels(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 8)
    nc = rng.randint(0, 40)
    top = rng.choice([2, 4, 256])  # few labels force repeats within a row
    labels = [tuple(rng.randrange(top) for _ in range(k)) for _ in range(nc)]
    catalog = CanonicalCatalog(k, np.zeros(nc, dtype=np.int64), np.zeros(nc, dtype=bool),
                               labels)
    index = assign_global_orbit_ids(catalog)
    bases, node_ids, total = reference_numbering(labels)
    assert index.bases.tolist() == bases
    assert index.node_ids.reshape(nc, k).tolist() == node_ids
    assert index.total_orbits == total
