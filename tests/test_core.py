import itertools
import random

import networkx as nx
import numpy as np
import pytest

from graphette.core import (
    Graphette,
    HostGraph,
    Permutation,
    apply_permutation,
    bit_length,
    complement,
    decode,
    degree_sequence,
    MAX_K,
    _bit_layout,
    edge_bit,
    edge_pairs,
    encode,
    induced_bits,
    induced_bits_batch,
    is_connected,
)


def relabeled_oracle(g: Graphette, perm: Permutation) -> Graphette:
    """Relabel by rewriting the edge list directly; independent of the
    bit-shuffling in apply_permutation."""
    return encode(g.k, {(perm(i), perm(j)) for i, j in decode(g)})


def random_permutation(rng: random.Random, k: int) -> Permutation:
    order = list(range(k))
    rng.shuffle(order)
    return Permutation(tuple(order))


# --- encode / decode ---------------------------------------------------------


def test_encode_examples():
    assert encode(3, [(0, 1), (0, 2), (1, 2)]).bits == 7
    assert encode(4, []).bits == 0
    assert encode(3, [(1, 2)]).bits == 4


def test_encode_errors():
    with pytest.raises(ValueError):
        encode(3, [(0, 3)])
    with pytest.raises(ValueError):
        encode(3, [(1, 1)])


def test_decode_examples():
    assert decode(Graphette(3, 7)) == {(1, 0), (2, 0), (2, 1)}
    assert decode(Graphette(3, 0)) == set()
    assert decode(Graphette(3, 4)) == {(2, 1)}


def test_graphette_has_edge():
    g = Graphette(3, 4)  # edge {2, 1}
    assert g.has_edge(2, 1) and g.has_edge(1, 2)
    assert not g.has_edge(0, 1) and not g.has_edge(2, 0)
    with pytest.raises(ValueError, match="self-loop"):
        g.has_edge(1, 1)


@pytest.mark.parametrize("k", range(1, 7))
def test_roundtrip_exhaustive(k):
    for bits in range(1 << bit_length(k)):
        g = Graphette(k, bits)
        assert encode(k, decode(g)) == g


def test_bit_layout_is_normative():
    # p(i, j) = i(i-1)/2 + j for i > j
    assert edge_bit(1, 0) == 0
    assert edge_bit(2, 0) == 1
    assert edge_bit(2, 1) == 2
    assert edge_bit(0, 2) == 1  # order-insensitive
    assert edge_bit(5, 3) == 13


@pytest.mark.parametrize("k", range(1, MAX_K + 1))
def test_edge_pairs_invert_edge_bit(k):
    pairs = edge_pairs(k)
    assert len(pairs) == bit_length(k)
    for i, j in itertools.permutations(range(k), 2):
        assert pairs[edge_bit(i, j)] == (max(i, j), min(i, j))
    hi, lo, _ = _bit_layout(k)
    assert list(zip(hi.tolist(), lo.tolist())) == list(pairs)


def test_graphette_validation():
    with pytest.raises(ValueError):
        Graphette(3, 8)  # bits >= 2^b(3)
    with pytest.raises(ValueError):
        Graphette(0, 0)
    with pytest.raises(ValueError):
        Graphette(13, 0)
    Graphette(12, (1 << 66) - 1)  # largest supported order


# --- permutations ------------------------------------------------------------


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((1, 2, 3))


def test_permutation_compose_inverse():
    rng = random.Random(7)
    for k in range(1, 9):
        for _ in range(20):
            a = random_permutation(rng, k)
            b = random_permutation(rng, k)
            ab = a.compose(b)
            assert ab(0) == a(b(0))
            assert a.compose(a.inverse()).mapping == tuple(range(k))
            assert a.inverse().compose(a).mapping == tuple(range(k))
            assert ab.inverse().mapping == b.inverse().compose(a.inverse()).mapping


def test_apply_permutation_examples():
    g = Graphette(3, 1)  # edge {1,0}
    assert apply_permutation(g, Permutation((2, 1, 0))).bits == 4  # edge {1,2}
    assert apply_permutation(g, Permutation.identity(3)) == g
    full = Graphette(3, 7)
    for order in itertools.permutations(range(3)):
        assert apply_permutation(full, Permutation(order)).bits == 7


def test_apply_permutation_size_mismatch():
    with pytest.raises(ValueError):
        apply_permutation(Graphette(3, 1), Permutation.identity(4))


def test_apply_permutation_matches_relabeling_oracle():
    rng = random.Random(11)
    for k in range(2, 8):
        for _ in range(100):
            g = Graphette(k, rng.randrange(1 << bit_length(k)))
            p = random_permutation(rng, k)
            assert apply_permutation(g, p) == relabeled_oracle(g, p)


def test_permutation_action_is_group_action():
    rng = random.Random(13)
    for k in range(2, 8):
        for _ in range(50):
            g = Graphette(k, rng.randrange(1 << bit_length(k)))
            p = random_permutation(rng, k)
            s = random_permutation(rng, k)
            assert apply_permutation(g, p.compose(s)) == apply_permutation(
                apply_permutation(g, s), p
            )


# --- structural queries ------------------------------------------------------


def test_degree_sequence_examples():
    assert degree_sequence(Graphette(3, 7)) == [2, 2, 2]
    assert degree_sequence(Graphette(3, 1)) == [0, 1, 1]
    assert degree_sequence(Graphette(4, 0)) == [0, 0, 0, 0]


def test_degree_sequence_invariant_under_permutation():
    rng = random.Random(17)
    for k in range(2, 7):
        for _ in range(50):
            g = Graphette(k, rng.randrange(1 << bit_length(k)))
            p = random_permutation(rng, k)
            assert degree_sequence(apply_permutation(g, p)) == degree_sequence(g)


def test_popcount_equals_edge_count():
    rng = random.Random(19)
    for k in range(1, 8):
        for _ in range(40):
            g = Graphette(k, rng.randrange(1 << bit_length(k)) if k > 1 else 0)
            assert g.edge_count == len(decode(g))
            assert sum(degree_sequence(g)) == 2 * g.edge_count


def test_is_connected_examples():
    assert is_connected(Graphette(3, 7))
    assert not is_connected(Graphette(3, 1))  # node 2 isolated
    assert is_connected(Graphette(1, 0))


@pytest.mark.parametrize("k", range(2, 6))
def test_is_connected_matches_networkx(k):
    for bits in range(1 << bit_length(k)):
        g = Graphette(k, bits)
        h = nx.Graph()
        h.add_nodes_from(range(k))
        h.add_edges_from(decode(g))
        assert is_connected(g) == nx.is_connected(h), bits


def test_is_connected_invariant_under_permutation():
    rng = random.Random(23)
    for k in range(2, 7):
        for _ in range(50):
            g = Graphette(k, rng.randrange(1 << bit_length(k)))
            p = random_permutation(rng, k)
            assert is_connected(apply_permutation(g, p)) == is_connected(g)


def test_complement_examples():
    assert complement(Graphette(3, 0)).bits == 7
    assert complement(Graphette(3, 5)).bits == 2
    rng = random.Random(29)
    for k in range(1, 8):
        g = Graphette(k, rng.randrange(max(1, 1 << bit_length(k))))
        assert complement(complement(g)) == g


def test_complement_degree_relation():
    rng = random.Random(31)
    for k in range(2, 8):
        for _ in range(30):
            g = Graphette(k, rng.randrange(1 << bit_length(k)))
            ds = degree_sequence(g)
            expected = [k - 1 - d for d in reversed(ds)]
            assert degree_sequence(complement(g)) == expected


# --- host graphs -------------------------------------------------------------


def test_host_graph_basics():
    g = HostGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.n == 4
    assert g.edge_count == 4
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert list(g.neighbors(1)) == [0, 2]
    assert g.degree(0) == 2
    # neighbor lists consistent with the edge test
    for u in range(4):
        for v in range(4):
            if u != v:
                assert g.has_edge(u, v) == (v in set(int(x) for x in g.neighbors(u)))


def test_host_graph_rejects_self_loops_and_bad_labels():
    with pytest.raises(ValueError):
        HostGraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        HostGraph(3, [(0, 3)])
    with pytest.raises(ValueError, match="names length"):
        HostGraph(3, [(0, 1)], names=["a", "b"])


def test_host_graph_refuses_labels_beyond_int32():
    with pytest.raises(ValueError, match=r"2\^31"):
        HostGraph((1 << 31) + 1, [])
    with pytest.raises(ValueError, match="got 0"):
        HostGraph(0, [])


def test_host_graph_collapses_duplicates():
    g = HostGraph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_host_graph_dedupe_keeps_each_edge_once_and_an_edgeless_host_empty():
    g = HostGraph(5, [(3, 1), (1, 3), (0, 4), (4, 0), (3, 1), (2, 3)])
    assert g.edge_array.tolist() == [[0, 4], [1, 3], [2, 3]]
    assert g.neighbors(3).tolist() == [1, 2]
    a, b = np.meshgrid(np.arange(5), np.arange(5), indexing="ij")
    assert_has_edges_matches(g, host_edge_set([(0, 4), (1, 3), (2, 3)]), a, b)
    empty = HostGraph(5, np.empty((0, 2), dtype=np.int64))
    assert empty.edge_count == 0
    assert empty.edge_array.shape == (0, 2)
    assert not empty.has_edges(a, b).any()


def test_host_graph_list_and_array_inputs_agree():
    pairs = [(3, 1), (0, 4), (1, 3), (2, 0), (4, 0), (1, 2), (3, 1)]
    from_list = HostGraph(6, pairs)
    from_array = HostGraph(6, np.array(pairs, dtype=np.int64))
    assert from_list.edge_array.tolist() == [[0, 2], [0, 4], [1, 2], [1, 3]]
    assert np.array_equal(from_list.edge_array, from_array.edge_array)
    assert np.array_equal(from_list._hash_table, from_array._hash_table)
    for u in range(6):
        assert np.array_equal(from_list.neighbors(u), from_array.neighbors(u))


def test_host_graph_error_names_offending_pair():
    with pytest.raises(ValueError, match=r"\(2, 7\)"):
        HostGraph(5, np.array([[0, 1], [2, 7]]))


def test_induced_bits_examples():
    cycle = HostGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert induced_bits(cycle, (0, 1, 2)).bits == 5  # edges {1,0},{2,1}
    k5 = HostGraph(5, list(itertools.combinations(range(5), 2)))
    for nodes in itertools.permutations(range(5), 3):
        assert induced_bits(k5, nodes).bits == 7
    empty = HostGraph(10, [])
    assert induced_bits(empty, (4, 2, 9, 0)).bits == 0


def test_induced_bits_errors():
    g = HostGraph(4, [(0, 1)])
    with pytest.raises(ValueError):
        induced_bits(g, (0, 0, 1))
    with pytest.raises(ValueError):
        induced_bits(g, (0, 1, 4))


def test_induced_bits_matches_direct_encode():
    rng = random.Random(37)
    host = nx.gnp_random_graph(12, 0.4, seed=5)
    g = HostGraph(12, list(host.edges()))
    for _ in range(100):
        nodes = rng.sample(range(12), 4)
        expected = encode(
            4,
            {
                (i, j)
                for i in range(4)
                for j in range(i)
                if host.has_edge(nodes[i], nodes[j])
            },
        )
        assert induced_bits(g, nodes) == expected


def test_induced_bits_batch_refuses_more_than_63_bits():
    complete = HostGraph(12, list(itertools.combinations(range(12), 2)))
    assert induced_bits(complete, range(12)).bits == (1 << 66) - 1
    assert induced_bits_batch(complete, np.arange(11)[None]).tolist() == [(1 << 55) - 1]
    with pytest.raises(ValueError, match="66 bits"):
        induced_bits_batch(complete, np.arange(12)[None])


def host_edge_set(pairs):
    return {(u, v) for u, v in pairs} | {(v, u) for u, v in pairs}


def assert_has_edges_matches(g, edges, a, b):
    expected = np.vectorize(lambda u, v: (int(u), int(v)) in edges)(a, b)
    got = g.has_edges(a, b)
    assert got.shape == expected.shape and got.dtype == bool
    assert np.array_equal(got, expected)


def test_has_edges_every_pair_next_to_the_sentinel():
    # the last edge key, (n-2, n-1), is the one just below the n*n sentinel
    n = 9
    pairs = [(0, 1), (2, 5), (3, 8), (1, 7), (0, 8), (7, 8)]
    g = HostGraph(n, pairs)
    a, b = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    assert_has_edges_matches(g, host_edge_set(pairs), a, b)
    assert not g.has_edges(np.arange(n), np.arange(n)).any()


def test_has_edges_on_an_edgeless_host():
    g = HostGraph(6, [])
    a, b = np.meshgrid(np.arange(6), np.arange(6), indexing="ij")
    assert not g.has_edges(a, b).any()


def test_has_edges_broadcasts_one_column_against_a_selection():
    rng = np.random.default_rng(3)
    pairs = list(nx.gnp_random_graph(40, 0.2, seed=4).edges())
    g = HostGraph(40, pairs)
    for j in (1, 2, 4):
        v = rng.integers(40, size=(50, 1))
        sel = rng.integers(40, size=(50, j))
        assert_has_edges_matches(g, host_edge_set(pairs), v, sel)


def test_has_edges_on_a_random_large_host():
    rng = np.random.default_rng(5)
    n = 5000
    arr = rng.integers(n, size=(20_000, 2))
    arr = arr[arr[:, 0] != arr[:, 1]]
    g = HostGraph(n, arr)
    edges = host_edge_set(arr.tolist())
    a, b = rng.integers(n, size=(2, 100_000))
    expected = np.array([(u, v) in edges for u, v in zip(a.tolist(), b.tolist())])
    assert np.array_equal(g.has_edges(a, b), expected)
    assert g.has_edges(arr[:, 0], arr[:, 1]).all()
    assert g.has_edges(arr[:, 1], arr[:, 0]).all()


def test_has_edges_on_one_cluster_that_runs_into_the_tail():
    # Every key hashes (key * C mod 2^64, C = 0x9E3779B97F4A7C15) into the top
    # 1/64 of the range: the last of the 16 slots that 8 edges get.  The
    # cluster fills the last slot and the 8 - 1 positions of the tail after it.
    n = 60
    pairs = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if (u * n + v) * 0x9E3779B97F4A7C15 % 2**64 >> 58 == 63][:8]
    assert len(pairs) == 8
    g = HostGraph(n, pairs)
    assert len(g._hash_table) == 16 + 8
    a, b = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    assert_has_edges_matches(g, host_edge_set(pairs), a, b)


def test_host_graph_with_one_node():
    g = HostGraph(1, [])
    assert g.edge_count == 0
    assert g.edge_array.shape == (0, 2)
    assert not g.has_edge(0, 0)
    assert not g.has_edges(np.zeros(3, dtype=np.int64), np.zeros((2, 1), dtype=np.int64)).any()


def test_has_edges_takes_the_int32_labels_of_neighbors():
    n = 100_000  # u*n + v overflows int32
    g = HostGraph(n, [(99_998, 99_999), (70_000, 99_999), (5, 99_999)])
    row = g.neighbors(99_999)
    assert row.tolist() == [5, 70_000, 99_998]
    assert g.has_edges(row, np.full(3, 99_999, dtype=np.int32)).all()
    assert not g.has_edges(row, row).any()


def test_has_edges_matches_the_scalar_search_on_100k_pairs():
    rng = np.random.default_rng(11)
    n = 3000
    arr = rng.integers(n, size=(30_000, 2))
    g = HostGraph(n, arr[arr[:, 0] != arr[:, 1]])
    # half of the pairs are edges, in either orientation; half are uniform
    ends = g.edge_array[rng.integers(g.edge_count, size=50_000)]
    ends = rng.permuted(ends, axis=1)
    a, b = np.concatenate([ends, rng.integers(n, size=(50_000, 2))]).T
    expected = [g.has_edge(u, v) for u, v in zip(a.tolist(), b.tolist())]
    assert 50_000 <= sum(expected) < 51_000
    assert g.has_edges(a, b).tolist() == expected


@pytest.mark.parametrize("n, m", [(1, 0), (9, 0), (20, 400), (60, 200), (3000, 10_000)])
def test_slot_ends_and_edge_array_read_the_rows(n, m):
    # edge draws take the ends of a uniform slot, so slot order pins the bytes
    # of edge-expansion reports; (3000, 10_000) leaves some rows empty
    rng = np.random.default_rng(n + m)
    arr = rng.integers(n, size=(m, 2))
    arr = arr[arr[:, 0] != arr[:, 1]]
    g = HostGraph(n, arr)
    expected = sorted({(min(u, v), max(u, v)) for u, v in arr.tolist()})
    assert g.edge_count == len(expected) and isinstance(g.edge_count, int)
    u, v = g.slot_ends(np.arange(2 * g.edge_count))
    assert list(zip(u.tolist(), v.tolist())) == sorted(expected + [(b, a) for a, b in expected])
    assert g.edge_array.dtype == np.int64
    assert g.edge_array.tolist() == [list(e) for e in expected]
