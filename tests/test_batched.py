"""The batched identification path against the one-sample reference chain.

induced_bits (per-node binary searches) and TableSet.node_orbit (one record
read by LookupTable.read, independent of the batch decode in
LookupTable.read_batch) are the references; induced_bits_batch,
TableSet.identify_batch and SampleAccumulator.add_batch must reproduce them
exactly.  The sparse ODV pairs are checked against a dense ODV tallied with
np.add.at.
"""

import hashlib
import itertools
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from graphette import sampler
from graphette.core import HostGraph, bit_length, induced_bits_batch
from graphette.sampler import (
    BATCH,
    SampleAccumulator,
    _uniform_batch,
    estimate,
    exhaustive_enumerate,
    report_to_string,
    sample_distribution,
    write_report_tsv,
)
from graphette.store import TableSet
from reference import accumulate, induced_bits


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


def test_scalar_and_batch_readers_agree_on_every_record(tables_by_k):
    for k in range(1, 7):
        tables = tables_by_k[k] if k in tables_by_k else TableSet.build(k)
        cids, orbit_ids = tables.identify_batch(np.arange(1 << bit_length(k)))
        rows = list(zip(cids.tolist(), map(tuple, orbit_ids.tolist())))
        assert [tables.identify(b) for b in range(len(rows))] == rows


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


@pytest.mark.parametrize("k,n", [(1, 40), (2, 15), (5, 9), (4, 4)])
def test_enumerate_matches_accumulate_loop_at_every_batch_edge(monkeypatch, tables_by_k,
                                                              k, n):
    """Batches of one, of a few, one short of every subset and of all of them."""
    tables = tables_by_k[k] if k in tables_by_k else TableSet.build(k)
    graph = er_host(n, 0.4, seed=n)
    ref = SampleAccumulator.empty(tables, graph.n)
    for nodes in itertools.combinations(range(graph.n), k):
        accumulate(ref, graph, nodes, tables)
    total = ref.n_samples
    for batch in sorted({1, 7, max(1, total - 1), total}):
        monkeypatch.setattr(sampler, "BATCH", batch)
        batched = exhaustive_enumerate(graph, tables)
        assert batched.n_samples == total
        assert np.array_equal(batched.graphette_counts, ref.graphette_counts)
        assert np.array_equal(batched.orbit_counts, ref.orbit_counts)
        assert np.array_equal(batched.odv_keys, ref.odv_keys)
        assert np.array_equal(batched.odv_counts, ref.odv_counts)


def test_enumerate_refuses_ranks_past_int64():
    """C(10^6, 8) is about 2.5e43: refused before any table or array is made."""
    graph, tables = SimpleNamespace(n=10**6), SimpleNamespace(k=8)
    with pytest.raises(sampler.EnumerationBoundError, match="int64"):
        exhaustive_enumerate(graph, tables, bound=10**50)


# sha256 of report_to_string(estimate(exhaustive_enumerate(...))), pinned when
# subsets were still enumerated in lexicographic order
ENUMERATE_REPORT_SHA256 = {
    3: "7f5b52aa8deba316377a7e29635b35e66f9be232cb9bb39cb4269a16f3324ec7",
    4: "061f9165b89d5e9d7b2addcbda7c77f5d41928fff160863d603fd853f3cd6f05",
    5: "0a8e59d1763ad4b1b3b2f7bf42004745ffc07a39854981098d892bf6ad860f97",
    7: "afb27bae74a2bc944f37d2b8e72aeaa98ca07a0f2bbd0dc02b1b4e9645bfc51e",
}


@pytest.mark.parametrize("k", sorted(ENUMERATE_REPORT_SHA256))
def test_enumerate_report_bytes_match_pinned_sha256(tables_by_k, k):
    tables = tables_by_k[k]
    graph = er_host(16, 0.4, seed=16) if k == 7 else er_host(30, 0.2, seed=2026)
    report = report_to_string(estimate(exhaustive_enumerate(graph, tables), tables, graph))
    assert hashlib.sha256(report.encode()).hexdigest() == ENUMERATE_REPORT_SHA256[k]


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


def identified(tables, host, nodes):
    """(B, k) nodes -> (cids, orbit ids) through the batched path."""
    return tables.identify_batch(induced_bits_batch(host, nodes))


def dense_reference(tables, host, nodes, orbit_ids):
    expected = np.zeros((host.n, tables.orbits.total_orbits), dtype=np.int64)
    np.add.at(expected, (nodes, orbit_ids), 1)
    return expected


def assert_pairs_match(acc, expected):
    """acc's ODV pairs are strictly increasing, positive, in range, and equal expected."""
    keys, counts = acc.odv_keys, acc.odv_counts
    assert (np.diff(keys) > 0).all() and (counts > 0).all()
    assert keys.size == 0 or 0 <= keys[0] and keys[-1] < expected.size
    assert np.array_equal(keys, np.flatnonzero(expected))
    assert np.array_equal(counts, expected.reshape(-1)[keys])
    assert np.array_equal(acc.odv, expected)


@pytest.mark.parametrize("spread", ["window", "ring"])
def test_sparse_odv_pairs_match_a_dense_reference(tables_by_k, spread):
    # "window" keeps every id within 16 x 90 cells, so the batch is tallied
    # by bincount; "ring" spreads them over 6,000 x 90 cells, so it is sorted
    tables = tables_by_k[5]
    n = 6000
    host = HostGraph(n, [(i, (i + 1) % n) for i in range(n)])
    rng = np.random.default_rng(6)
    nodes = random_ksets(rng, 16, 5, 2000)
    if spread == "ring":
        nodes = (nodes + rng.integers(n, size=(2000, 1))) % n
    cids, orbit_ids = identified(tables, host, nodes)
    acc = SampleAccumulator.empty(tables, n)
    assert acc.odv_keys.size == 0 and not acc.odv.any()
    acc.add_batch(nodes, cids, orbit_ids)
    expected = dense_reference(tables, host, nodes, orbit_ids)
    assert_pairs_match(acc, expected)
    assert_pairs_match(acc.merge(acc), 2 * expected)


@pytest.mark.parametrize("host_name", ["er40", "ring"])
def test_sampling_run_folds_batches_like_a_dense_reference(tables_by_k, ring_1e6, host_name):
    # on 40 nodes every batch outnumbers the folded pairs and is folded at once
    tables = tables_by_k[5]
    host = er_host(40, 0.3, seed=40) if host_name == "er40" else ring_1e6
    samples = 3 * BATCH + 17
    acc = sample_distribution(host, tables, samples, seed=8)
    rng = np.random.default_rng([8, 0])  # replay the draws of sample_distribution
    expected = np.zeros((host.n, tables.orbits.total_orbits), dtype=np.int64)
    for size in (BATCH, BATCH, BATCH, 17):
        nodes = _uniform_batch(rng, host.n, 5, size)
        np.add.at(expected, (nodes, identified(tables, host, nodes)[1]), 1)
    assert acc.n_samples == samples and not acc._pending
    assert_pairs_match(acc, expected)


def test_merge_adds_overlapping_pairs(tables_by_k):
    tables = tables_by_k[5]
    host = er_host(20, 0.3, seed=9)
    rng = np.random.default_rng(9)
    accs, refs = [], []
    for count in (700, 300):
        nodes = random_ksets(rng, host.n, 5, count)
        cids, orbit_ids = identified(tables, host, nodes)
        acc = SampleAccumulator.empty(tables, host.n)
        acc.add_batch(nodes, cids, orbit_ids)
        accs.append(acc)
        refs.append(dense_reference(tables, host, nodes, orbit_ids))
    a, b = accs
    assert np.intersect1d(a.odv_keys, b.odv_keys).size > 0
    merged = a.merge(b)
    assert merged.n_samples == 1000
    assert_pairs_match(merged, refs[0] + refs[1])
    assert_pairs_match(a, refs[0])  # the inputs are left as they were
    with pytest.raises(ValueError):
        a.merge(SampleAccumulator.empty(tables, host.n + 1))


def test_odv_reads_between_accumulates_see_pending_pairs(tables_by_k):
    tables = tables_by_k[5]
    host = er_host(25, 0.3, seed=10)
    acc = SampleAccumulator.empty(tables, host.n)
    expected = np.zeros((host.n, tables.orbits.total_orbits), dtype=np.int64)
    for i, row in enumerate(random_ksets(np.random.default_rng(10), host.n, 5, 80)):
        accumulate(acc, host, row.tolist(), tables)
        np.add.at(expected, (row, identified(tables, host, row[None])[1][0]), 1)
        assert i == 0 or acc._pending  # a row's k pairs never outnumber the folded ones
        assert_pairs_match(acc, expected)


def test_k7_sample_and_estimate_on_a_million_nodes_stay_sparse(tables_by_k, ring_1e6):
    # a dense int64 ODV here would be 10^6 x 5,096 cells, about 41 GB
    tables = tables_by_k[7]
    samples = 3000
    tracemalloc.start()
    try:
        acc = sample_distribution(ring_1e6, tables, samples, seed=11)
        report = estimate(acc, tables, ring_1e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    orbits = tables.orbits.total_orbits
    keys, counts = report.odv_keys, report.odv_counts
    assert 0 < len(keys) <= samples * 7
    assert (np.diff(keys) > 0).all() and (counts > 0).all() and keys[-1] < ring_1e6.n * orbits
    assert np.array_equal(np.bincount(keys % orbits, weights=counts, minlength=orbits),
                          acc.orbit_counts)
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if ring_1e6.n * orbits * 8 > physical // 2:  # true below 82 GB of RAM
        with pytest.raises(ValueError, match="bytes"):
            acc.odv


def dense_report(report, odv):
    """The report as the dense-ODV writer laid it out: every row formatted."""
    head = report_to_string(report).split("# odv\n")[0]
    lines = [head, "# odv\n", "node\t" + "\t".join(map(str, range(odv.shape[1]))) + "\n"]
    lines += [name + "\t" + "\t".join(map(str, row)) + "\n"
              for name, row in zip(report.node_names, odv.tolist())]
    return "".join(lines)


@pytest.mark.parametrize("chunk_cells", [1, 200, sampler.REPORT_CHUNK_CELLS])
def test_report_odv_chunks_match_the_dense_layout(tables_by_k, monkeypatch, chunk_cells):
    # 200 cells are two 90-orbit rows, so rows, gaps and chunks interleave
    tables = tables_by_k[5]
    host = er_host(300, 0.02, seed=12)
    acc = sample_distribution(host, tables, 40, seed=12)
    report = estimate(acc, tables, host)
    assert 10 < np.count_nonzero(acc.odv.any(axis=1)) < host.n - 10
    monkeypatch.setattr(sampler, "REPORT_CHUNK_CELLS", chunk_cells)
    assert report_to_string(report) == dense_report(report, acc.odv)


class _CountingSink:
    def __init__(self):
        self.lines = 0

    def write(self, text):
        self.lines += text.count("\n")


def test_report_writer_holds_no_dense_odv(tables_by_k):
    # a dense int64 ODV of 20,000 nodes x 544 orbits would be 87 MB
    tables = tables_by_k[6]
    n = 20_000
    host = HostGraph(n, [(i, (i + 1) % n) for i in range(n)])
    report = estimate(sample_distribution(host, tables, 30, seed=13), tables, host)
    sink = _CountingSink()
    tracemalloc.start()
    try:
        write_report_tsv(report, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.lines == 2 + len(tables.catalog) + 2 + tables.orbits.total_orbits + 2 + n
    assert peak < n * tables.orbits.total_orbits * 8 // 16


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

