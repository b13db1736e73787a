import itertools
import random
import tracemalloc

import numpy as np
import pytest

from graphette.canon import (
    SLOT_KEY_SHIFT,
    SLOT_TEMP_MASK,
    _perm_tables,
    _relabelings,
    are_isomorphic,
    build_canonical_map_parallel,
    build_canonical_map_sequential,
    merge_siftings,
    pack_record,
    partition_ranges,
    sift_partition,
)
from graphette.core import (
    Graphette,
    Permutation,
    _bit_layout,
    apply_permutation,
    bit_length,
    decode,
)

NC_BY_K = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}


def oracle_canonical_bits(k: int, bits: int) -> int:
    """Minimum bit vector over all relabelings, computed straight from the
    p(i,j) = i(i-1)/2 + j layout; shares no code with the builders."""
    edges = [(i, j) for i in range(1, k) for j in range(i) if bits >> (i * (i - 1) // 2 + j) & 1]
    best = bits
    for order in itertools.permutations(range(k)):
        value = 0
        for i, j in edges:
            a, b = order[i], order[j]
            if a < b:
                a, b = b, a
            value |= 1 << (a * (a - 1) // 2 + b)
        best = min(best, value)
    return best


def random_permutation(rng: random.Random, k: int) -> Permutation:
    order = list(range(k))
    rng.shuffle(order)
    return Permutation(tuple(order))


# --- are_isomorphic ----------------------------------------------------------


def test_are_isomorphic_one_edge_pair():
    g, h = Graphette(3, 1), Graphette(3, 4)
    w = are_isomorphic(g, h)
    assert w is not None
    assert apply_permutation(g, w) == h


def test_are_isomorphic_rejects_path_vs_triangle():
    assert are_isomorphic(Graphette(3, 3), Graphette(3, 7)) is None


def test_are_isomorphic_identity_for_equal():
    g = Graphette(4, 13)
    w = are_isomorphic(g, g)
    assert w is not None
    assert apply_permutation(g, w) == g


def test_are_isomorphic_size_mismatch():
    with pytest.raises(ValueError):
        are_isomorphic(Graphette(3, 1), Graphette(4, 1))


def test_are_isomorphic_symmetric_and_witnesses_verify():
    rng = random.Random(41)
    for k in (3, 4, 5):
        for _ in range(150):
            g = Graphette(k, rng.randrange(1 << bit_length(k)))
            h = Graphette(k, rng.randrange(1 << bit_length(k)))
            w_gh = are_isomorphic(g, h)
            w_hg = are_isomorphic(h, g)
            assert (w_gh is None) == (w_hg is None)
            if w_gh is not None:
                assert apply_permutation(g, w_gh) == h
                assert apply_permutation(h, w_hg) == g


# --- sequential builder ------------------------------------------------------


@pytest.mark.parametrize("k,expected", sorted(NC_BY_K.items()))
def test_canonical_counts(k, expected):
    catalog, _ = build_canonical_map_sequential(k)
    assert len(catalog) == expected


def test_k3_catalog_members():
    catalog, _ = build_canonical_map_sequential(3)
    assert catalog.canonicals.tolist() == [0, 1, 3, 7]


def test_k5_connected_count():
    catalog, _ = build_canonical_map_sequential(5)
    assert int(catalog.connected.sum()) == 21


@pytest.mark.parametrize("k", range(1, 6))
def test_catalog_matches_bruteforce_oracle(k):
    catalog, table = build_canonical_map_sequential(k)
    expected = sorted({oracle_canonical_bits(k, b) for b in range(1 << bit_length(k))})
    assert catalog.canonicals.tolist() == expected
    for bits in range(1 << bit_length(k)):
        cid = int(table.read(bits)[0])
        assert int(catalog.canonicals[cid]) == oracle_canonical_bits(k, bits)


def test_catalog_shape_invariants():
    for k in range(1, 7):
        catalog, _ = build_canonical_map_sequential(k)
        arr = catalog.canonicals
        assert arr[0] == 0
        assert (np.diff(arr) > 0).all()


def test_canonical_idempotence_and_identity_witness():
    for k in range(1, 6):
        catalog, table = build_canonical_map_sequential(k)
        for cid in range(len(catalog)):
            bits = int(catalog.canonicals[cid])
            assert int(table.read(bits)[0]) == cid
            assert Permutation(table.read(bits)[2]).mapping == tuple(range(k))


@pytest.mark.parametrize("k", range(1, 6))
def test_witness_validity_exhaustive(k):
    catalog, table = build_canonical_map_sequential(k)
    for bits in range(1 << bit_length(k)):
        w = Permutation(table.read(bits)[2])
        out = apply_permutation(Graphette(k, bits), w)
        assert out.bits == int(catalog.canonicals[table.read(bits)[0]])


def test_witness_validity_sampled_k6():
    catalog, table = build_canonical_map_sequential(6)
    rng = random.Random(43)
    for _ in range(2000):
        bits = rng.randrange(1 << bit_length(6))
        w = Permutation(table.read(bits)[2])
        out = apply_permutation(Graphette(6, bits), w)
        assert out.bits == int(catalog.canonicals[table.read(bits)[0]])


@pytest.mark.parametrize("k", range(1, 6))
def test_minimality(k):
    catalog, table = build_canonical_map_sequential(k)
    for bits in range(1 << bit_length(k)):
        assert int(catalog.canonicals[table.read(bits)[0]]) <= bits


def test_connected_flags_match_canonical():
    catalog, table = build_canonical_map_sequential(4)
    for bits in range(1 << bit_length(4)):
        assert bool(table.read(bits)[1]) == bool(catalog.connected[table.read(bits)[0]])


def test_lookup_invariant_under_permutation():
    rng = random.Random(47)
    for k in (3, 4):
        _, table = build_canonical_map_sequential(k)
        for bits in range(1 << bit_length(k)):
            for order in itertools.permutations(range(k)):
                image = apply_permutation(Graphette(k, bits), Permutation(order))
                assert table.read(image.bits)[0] == table.read(bits)[0]
    _, table5 = build_canonical_map_sequential(5)
    for _ in range(2000):
        bits = rng.randrange(1 << 10)
        image = apply_permutation(Graphette(5, bits), random_permutation(rng, 5))
        assert table5.read(image.bits)[0] == table5.read(bits)[0]


def test_lookup_invariance_spot_checks_k7():
    catalog, table = build_canonical_map_sequential(7)
    assert len(catalog) == 1044
    canonical_id = table.read_batch(np.arange(len(table)))[0]
    rng = random.Random(73)
    for _ in range(2000):
        bits = rng.randrange(1 << bit_length(7))
        p = random_permutation(rng, 7)
        image = apply_permutation(Graphette(7, bits), p)
        assert canonical_id[image.bits] == canonical_id[bits]
        w = Permutation(table.read(bits)[2])
        out = apply_permutation(Graphette(7, bits), w)
        assert out.bits == int(catalog.canonicals[canonical_id[bits]])


def test_sequential_k_bounds():
    with pytest.raises(ValueError):
        build_canonical_map_sequential(0)
    with pytest.raises(ValueError):
        build_canonical_map_sequential(9)


# --- sifting -----------------------------------------------------------------


def sift_ranges(k, ranges):
    """Sift each (lo, hi) range into its slice of one k-wide slot array."""
    slots = np.empty(1 << bit_length(k), dtype=np.uint64)
    return [sift_partition(k, lo, hi, slots[lo:hi]) for lo, hi in ranges], slots


def test_sift_single_partition_equals_sequential_catalog():
    catalog, _ = build_canonical_map_sequential(4)
    [part], _ = sift_ranges(4, [(0, 1 << bit_length(4))])
    assert part.temp_canonicals.tolist() == catalog.canonicals.tolist()


def test_sift_k3_upper_half():
    [part], slots = sift_ranges(3, [(4, 8)])
    assert part.temp_canonicals.tolist() == [4, 5, 7]
    tc_index = slots[4:8] & SLOT_TEMP_MASK
    # member 6 maps to temp canonical 5
    assert part.temp_canonicals[tc_index[6 - 4]] == 5
    # temp canonicals map to themselves
    for tid, temp in enumerate(part.temp_canonicals.tolist()):
        assert tc_index[temp - 4] == tid


@pytest.mark.parametrize("k, lo, hi", [(4, 16, 64), (5, 300, 700)])
def test_sift_witnesses_point_at_global_canonicals(k, lo, hi):
    [part], slots = sift_ranges(k, [(lo, hi)])
    # the range starts mid-space, so some temps are not canonicals
    assert (part.temp_minima != part.temp_canonicals).any()
    tc_index = slots[lo:hi] & SLOT_TEMP_MASK
    witness_key = slots[lo:hi] >> SLOT_KEY_SHIFT
    perms = _perm_tables(k)[0]
    for b in range(lo, hi):
        witness = Permutation(tuple(perms[witness_key[b - lo]].tolist()))
        canonical = int(part.temp_minima[tc_index[b - lo]])
        assert apply_permutation(Graphette(k, b), witness).bits == canonical
    for temp, low in zip(part.temp_canonicals.tolist(), part.temp_minima.tolist()):
        if temp == low:
            assert witness_key[temp - lo] == 0  # the identity, perms[0]


@pytest.mark.parametrize("k", range(1, 9))
def test_perm_table_column_r_is_undone_by_perms_r(k):
    perms, _, nibbles = _perm_tables(k)
    assert perms[0].tolist() == list(range(k))
    rng = random.Random(k)
    columns = sorted({0, len(perms) - 1, *rng.sample(range(len(perms)), min(len(perms), 64))})
    for _ in range(8):
        bits = rng.getrandbits(bit_length(k))
        images = _relabelings(nibbles, bits)
        assert images[0] == bits
        for r in columns:
            witness = Permutation(tuple(perms[r].tolist()))
            assert apply_permutation(Graphette(k, int(images[r])), witness).bits == bits


def edge_image_rows(k: int) -> np.ndarray:
    """(b(k), k!) int64: row p holds, for every perms[r], the bit that bit
    p's edge (i, j) moves to under perms[r]'s inverse, from core's layout."""
    inverse = np.argsort(_perm_tables(k)[0], axis=1)
    hi, lo, weights = _bit_layout(k)
    weight_at = np.zeros((k, k), dtype=np.int64)
    weight_at[hi, lo] = weight_at[lo, hi] = weights
    return weight_at[inverse[:, hi], inverse[:, lo]].T


def reference_relabelings(rows: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """(len(bits), k!): each bit vector's OR over the edge-image rows of its set bits."""
    out = np.zeros((len(bits), rows.shape[1]), dtype=np.int64)
    for p, row in enumerate(rows):
        out[(bits >> p & 1) == 1] |= row
    return out


def assert_relabelings_exact(k: int, bits: np.ndarray) -> None:
    nibbles = _perm_tables(k)[2]
    got = np.array([_relabelings(nibbles, int(b)) for b in bits])
    assert got.dtype == np.uint32
    assert np.array_equal(got, reference_relabelings(edge_image_rows(k), bits))


@pytest.mark.parametrize("k", range(1, 7))
def test_relabelings_are_exact_for_every_bit_vector(k):
    perms, _, nibbles = _perm_tables(k)
    assert nibbles.shape == (max(1, -(-bit_length(k) // 4)), 16, len(perms))
    size = 1 << bit_length(k)
    for start in range(0, size, 1 << 10):  # chunks bound the (bits, k!) arrays
        assert_relabelings_exact(k, np.arange(start, min(size, start + (1 << 10))))


@pytest.mark.parametrize("k", [7, 8])
def test_relabelings_are_exact_on_seeded_bit_vectors(k):
    rng = np.random.default_rng(k)
    size = 1 << bit_length(k)
    assert_relabelings_exact(k, np.array([0, size - 1, *rng.integers(0, size, 62)]))


@pytest.mark.parametrize("k", range(1, 9))
def test_witness_field_is_the_packed_record_witness(k):
    perms, witness_field, _ = _perm_tables(k)
    assert len(witness_field) == len(perms)
    for r, images in enumerate(perms.tolist()):
        packed = sum(v << 3 * u for u, v in enumerate(images))
        assert int(witness_field[r]) == pack_record(0, False, packed)


def test_sift_rejects_empty_range():
    with pytest.raises(ValueError):
        sift_ranges(3, [(4, 4)])
    with pytest.raises(ValueError):
        sift_ranges(3, [(0, 9)])


def test_merge_single_partition_equals_sequential():
    cat_s, tab_s = build_canonical_map_sequential(4)
    cat_m, tab_m = merge_siftings(*sift_ranges(4, [(0, 64)]))
    assert cat_m.canonicals.tolist() == cat_s.canonicals.tolist()
    assert np.array_equal(tab_m.records, tab_s.records)


@pytest.mark.parametrize("m", [2, 4, 16])
def test_merge_matches_sequential_k5(m):
    cat_s, tab_s = build_canonical_map_sequential(5)
    cat_m, tab_m = merge_siftings(*sift_ranges(5, partition_ranges(5, m)))
    assert cat_m.canonicals.tolist() == cat_s.canonicals.tolist()
    assert cat_m.connected.tolist() == cat_s.connected.tolist()
    assert np.array_equal(tab_m.records, tab_s.records)


def test_merge_witnesses_verify():
    catalog, table = merge_siftings(*sift_ranges(4, partition_ranges(4, 8)))
    for bits in range(64):
        w = Permutation(table.read(bits)[2])
        out = apply_permutation(Graphette(4, bits), w)
        assert out.bits == int(catalog.canonicals[table.read(bits)[0]])


def test_merge_rejects_non_tiling():
    with pytest.raises(ValueError):
        merge_siftings(*sift_ranges(3, [(0, 4)]))  # gap at the top
    with pytest.raises(ValueError):
        merge_siftings(*sift_ranges(3, [(0, 4), (5, 8)]))
    parts3, slots3 = sift_ranges(3, [(0, 8)])
    with pytest.raises(ValueError):
        merge_siftings(parts3 + sift_ranges(4, [(0, 64)])[0], slots3)
    with pytest.raises(ValueError):
        merge_siftings([], slots3)


# --- parallel builder --------------------------------------------------------


def test_parallel_k6_m16():
    catalog, _ = build_canonical_map_parallel(6, 16)
    assert len(catalog) == 156


@pytest.mark.parametrize("step", [1, 2])
def test_every_partitioning_gives_the_one_shot_records(step):
    # step 1 tiles the 64-entry space into equal ranges; step 2 takes the
    # next count up, whose ranges differ in size
    ref_cat, ref_tab = build_canonical_map_sequential(6)
    for m in (2, 4, 16, 64):
        catalog, table = build_canonical_map_parallel(6, m + step - 1)
        assert np.array_equal(table.records, ref_tab.records)
        assert np.array_equal(catalog.orbit_labels, ref_cat.orbit_labels)


def test_partitioned_build_holds_one_slot_array():
    # 8 bytes per entry for the slot array that becomes the records; a
    # build that also holds the ranges' own slot arrays needs 16
    k, entries = 7, 1 << bit_length(7)
    tracemalloc.start()
    try:
        build_canonical_map_parallel(k, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * entries


def test_merge_refuses_a_slot_array_of_the_wrong_size():
    with pytest.raises(ValueError, match="64 entries"):
        merge_siftings(sift_ranges(4, [(0, 64)])[0], np.zeros(32, dtype=np.uint64))
    with pytest.raises(ValueError, match="4 uint64 slots"):
        sift_partition(3, 4, 8, np.zeros(8, dtype=np.uint64))


def test_parallel_m_larger_than_space():
    catalog, table = build_canonical_map_parallel(2, 100)
    assert len(catalog) == 2
    assert len(table) == 2


def test_parallel_rejects_bad_args():
    with pytest.raises(ValueError):
        build_canonical_map_parallel(4, 0)
    with pytest.raises(ValueError):
        build_canonical_map_parallel(9, 4)
