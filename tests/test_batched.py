"""The batched identification path against the one-sample reference chain.

induced_bits (per-node binary searches) and TableSet.node_orbit (one
record decoded per call) are the references; induced_bits_batch, TableSet.identify_batch and
SampleAccumulator.add_batch must reproduce them exactly.
"""

import itertools
import mmap

import numpy as np
import pytest

from graphette.core import HostGraph, induced_bits, induced_bits_batch
from graphette.sampler import (
    SampleAccumulator,
    _uniform_batch,
    accumulate,
    exhaustive_enumerate,
    sample_distribution,
)
from graphette.store import TableSet


@pytest.fixture(scope="module")
def tables_by_k():
    return {k: TableSet.build(k) for k in range(3, 8)}


@pytest.fixture(scope="module")
def ring_1e6():
    n = 1_000_000
    i = np.arange(n, dtype=np.int64)
    return HostGraph(n, np.concatenate([np.stack([i, (i + 1) % n], axis=1),
                                        np.stack([i, (i + 7) % n], axis=1)]))


def er_host(n: int, p: float, seed: int) -> HostGraph:
    rng = np.random.default_rng(seed)
    return HostGraph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


def random_ksets(rng: np.random.Generator, n: int, k: int, count: int) -> np.ndarray:
    return np.array([rng.choice(n, size=k, replace=False) for _ in range(count)])


@pytest.mark.parametrize("k", range(3, 8))
@pytest.mark.parametrize("host_name", ["er", "ring"])
def test_batch_matches_scalar_chain(tables_by_k, ring_1e6, k, host_name):
    tables = tables_by_k[k]
    rng = np.random.default_rng(k)
    if host_name == "er":
        host = er_host(40, 0.3, seed=k)
        nodes = random_ksets(rng, host.n, k, 300)
    else:  # windows of 16 consecutive labels, so the ring's edges show up
        host = ring_1e6
        nodes = (random_ksets(rng, 16, k, 300) + rng.integers(host.n, size=(300, 1))) % host.n
    bits = induced_bits_batch(host, nodes)
    cids, orbit_ids = tables.identify_batch(bits)
    assert bits.any()
    for row, b, cid, orbits in zip(nodes.tolist(), bits, cids, orbit_ids):
        g = induced_bits(host, row)
        assert g.bits == b
        assert tables.identify(g.bits) == (cid, tuple(orbits.tolist()))
        assert [tables.node_orbit(g, u) for u in range(k)] == orbits.tolist()


@pytest.mark.parametrize("k,host", [(4, "er30"), (7, "host12")])
def test_enumerate_matches_accumulate_loop(tables_by_k, k, host):
    tables = tables_by_k[k]
    graph = er_host(30, 0.2, seed=2026) if host == "er30" else er_host(12, 0.5, seed=12)
    batched = exhaustive_enumerate(graph, tables)
    ref = SampleAccumulator.empty(tables, graph.n)
    for nodes in itertools.combinations(range(graph.n), k):
        accumulate(ref, graph, nodes, tables)
    assert batched.n_samples == ref.n_samples
    assert np.array_equal(batched.graphette_counts, ref.graphette_counts)
    assert np.array_equal(batched.orbit_counts, ref.orbit_counts)
    assert np.array_equal(batched.odv, ref.odv)


def test_accumulate_alternating_with_odv_reads(tables_by_k):
    tables = tables_by_k[4]
    host = er_host(15, 0.4, seed=3)
    acc = SampleAccumulator.empty(tables, host.n)
    expected = np.zeros_like(acc.odv)
    for nodes in random_ksets(np.random.default_rng(3), host.n, 4, 60).tolist():
        accumulate(acc, host, nodes, tables)
        g = induced_bits(host, nodes)
        for u, v in enumerate(nodes):
            expected[v, tables.node_orbit(g, u)] += 1
        assert np.array_equal(acc.odv, expected)
        assert np.array_equal(acc.odv.sum(axis=0), acc.orbit_counts)
    assert acc.n_samples == 60


def test_mapped_odv_tallies_like_a_heap_odv(tables_by_k):
    tables = tables_by_k[5]
    n = 6000  # 6,000 nodes x 90 orbits of int64 is past 4 MiB, so the ODV is mapped
    host = HostGraph(n, [(i, (i + 1) % n) for i in range(n)])
    acc = SampleAccumulator.empty(tables, n)
    assert isinstance(acc.odv.base, mmap.mmap) and not acc.odv.any()
    rng = np.random.default_rng(6)
    nodes = (random_ksets(rng, 16, 5, 2000) + rng.integers(n, size=(2000, 1))) % n
    cids, orbit_ids = tables.identify_batch(induced_bits_batch(host, nodes))
    acc.add_batch(nodes, cids, orbit_ids)
    expected = np.zeros((n, tables.orbits.total_orbits), dtype=np.int64)
    np.add.at(expected, (nodes, orbit_ids), 1)
    assert np.array_equal(acc.odv, expected)
    assert np.array_equal(acc.merge(acc).odv, 2 * expected)


def test_merge_of_sampled_accumulators(tables_by_k):
    tables = tables_by_k[5]
    host = er_host(50, 0.2, seed=5)
    a = sample_distribution(host, tables, 300, seed=1)
    b = sample_distribution(host, tables, 200, seed=2)
    merged = a.merge(b)
    again_a = sample_distribution(host, tables, 300, seed=1)
    again_b = sample_distribution(host, tables, 200, seed=2)
    assert merged.n_samples == 500
    assert np.array_equal(merged.odv, again_a.odv + again_b.odv)
    assert np.array_equal(merged.orbit_counts, again_a.orbit_counts + again_b.orbit_counts)


@pytest.mark.parametrize("nodes", [[0, 0, 1], [0, 1, 6], [-1, 0, 1]])
def test_accumulate_still_rejects_bad_labels(tables_by_k, nodes):
    host = er_host(6, 0.5, seed=7)
    acc = SampleAccumulator.empty(tables_by_k[3], host.n)
    with pytest.raises(ValueError):
        accumulate(acc, host, nodes, tables_by_k[3])
    assert acc.n_samples == 0 and not acc.odv.any()


def test_sample_distribution_rejects_small_host_and_no_workers(tables_by_k):
    with pytest.raises(ValueError):
        sample_distribution(HostGraph(4, [(0, 1)]), tables_by_k[5], 10)
    with pytest.raises(ValueError):
        sample_distribution(HostGraph(8, [(0, 1)]), tables_by_k[3], 10, workers=0)


@pytest.mark.parametrize("n", range(7, 13))
def test_uniform_batch_rows_distinct_when_2k_covers_n(n):
    rows = _uniform_batch(np.random.default_rng(n), n, 7, 2000)
    assert rows.shape == (2000, 7)
    assert ((rows >= 0) & (rows < n)).all()
    assert all(len(set(row)) == 7 for row in rows.tolist())


@pytest.mark.parametrize("n,k", [(4, 2), (7, 2), (9, 3)])
def test_uniform_batch_is_uniform_over_ordered_tuples(n, k):
    """Both branches (permutation prefix for 2k >= n, rejection otherwise)."""
    draws = 60_000
    rows = _uniform_batch(np.random.default_rng(n * k), n, k, draws)
    assert all(len(set(row)) == k for row in rows.tolist())
    _, counts = np.unique(rows, axis=0, return_counts=True)
    tuples = len(list(itertools.permutations(range(n), k)))
    assert len(counts) == tuples
    p = 1 / tuples
    se = np.sqrt(draws * p * (1 - p))
    assert np.abs(counts - draws * p).max() < 5 * se

