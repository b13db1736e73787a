import io
import itertools

import numpy as np
import pytest

from graphette.core import Graphette, HostGraph, induced_bits, is_connected
from graphette.sampler import (
    EnumerationBoundError,
    GraphFormatError,
    SampleAccumulator,
    SamplingStrategy,
    accumulate,
    draw_sample,
    estimate,
    exhaustive_enumerate,
    load_graph,
    report_to_string,
    sample_distribution,
    write_report_tsv,
)


def complete_host(n: int) -> HostGraph:
    return HostGraph(n, list(itertools.combinations(range(n), 2)))


# --- load_graph --------------------------------------------------------------


def test_load_simple_path():
    g = load_graph(io.StringIO("a b\nb c\n"))
    assert g.n == 3
    assert g.edge_count == 2
    assert g.names == ["a", "b", "c"]
    assert g.has_edge(0, 1) and g.has_edge(1, 2) and not g.has_edge(0, 2)


def test_load_rejects_self_loop_with_line_number():
    with pytest.raises(GraphFormatError, match="line 1"):
        load_graph(io.StringIO("0 0\n"))


def test_load_collapses_duplicate_edges():
    g = load_graph(io.StringIO("x y\ny x\n"))
    assert g.n == 2
    assert g.edge_count == 1


def test_load_skips_comments_and_blanks():
    g = load_graph(io.StringIO("# a comment\n\na b\n# more\nb c\n"))
    assert g.n == 3
    assert g.edge_count == 2


def test_load_rejects_malformed_line():
    with pytest.raises(GraphFormatError, match="line 2"):
        load_graph(io.StringIO("a b\na b c\n"))


def test_load_rejects_empty_input():
    with pytest.raises(GraphFormatError, match="empty graph"):
        load_graph(io.StringIO("# nothing\n"))


def test_load_from_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("u v\nv w\n")
    assert load_graph(path).n == 3


# --- draw_sample -------------------------------------------------------------


@pytest.mark.parametrize("strategy", list(SamplingStrategy))
def test_complete_host_always_yields_triangle(strategy):
    host = complete_host(5)
    rng = np.random.default_rng(1)
    for _ in range(50):
        nodes = draw_sample(host, 3, strategy, rng)
        assert len(set(nodes)) == 3
        assert induced_bits(host, nodes).bits == 7


def test_uniform_on_edgeless_host():
    host = HostGraph(10, [])
    rng = np.random.default_rng(2)
    for _ in range(50):
        nodes = draw_sample(host, 4, SamplingStrategy.UNIFORM, rng)
        assert induced_bits(host, nodes).bits == 0


def test_local_expansion_stays_connected_on_connected_host():
    host = HostGraph(12, [(i, i + 1) for i in range(11)])  # path
    rng = np.random.default_rng(3)
    for _ in range(200):
        nodes = draw_sample(host, 4, SamplingStrategy.LOCAL_EXPANSION, rng)
        assert is_connected(induced_bits(host, nodes))


def test_local_expansion_falls_back_on_disconnected_host():
    # two 2-cliques: growing past a component must still reach k=4
    host = HostGraph(4, [(0, 1), (2, 3)])
    rng = np.random.default_rng(4)
    for _ in range(50):
        nodes = draw_sample(host, 4, SamplingStrategy.LOCAL_EXPANSION, rng)
        assert sorted(nodes) == [0, 1, 2, 3]


def test_edge_expansion_requires_edges():
    with pytest.raises(ValueError):
        draw_sample(HostGraph(5, []), 3, SamplingStrategy.EDGE_EXPANSION,
                    np.random.default_rng(5))


def test_edge_expansion_seeds_with_an_edge():
    host = HostGraph(6, [(0, 1), (2, 3), (4, 5)])
    rng = np.random.default_rng(6)
    for _ in range(50):
        nodes = draw_sample(host, 2, SamplingStrategy.EDGE_EXPANSION, rng)
        assert host.has_edge(nodes[0], nodes[1])


def test_sample_requires_enough_nodes():
    with pytest.raises(ValueError):
        draw_sample(HostGraph(2, [(0, 1)]), 3, SamplingStrategy.UNIFORM,
                    np.random.default_rng(7))


# --- accumulate --------------------------------------------------------------


def test_single_accumulation_on_k5(tables3):
    host = complete_host(5)
    acc = SampleAccumulator.empty(tables3, host.n)
    accumulate(acc, host, [0, 2, 4], tables3)
    triangle_cid = int(tables3.table.canonical_id[7])
    assert acc.n_samples == 1
    assert acc.graphette_counts[triangle_cid] == 1
    assert acc.graphette_counts.sum() == 1
    triangle_orbit = tables3.node_orbit(Graphette(3, 7), 0)
    assert acc.orbit_counts[triangle_orbit] == 3
    for v in (0, 2, 4):
        assert acc.odv[v, triangle_orbit] == 1
    for v in (1, 3):
        assert acc.odv[v].sum() == 0


def test_accumulate_counts_sum_to_kn(tables4):
    host = HostGraph(9, [(i, (i + 1) % 9) for i in range(9)])
    rng = np.random.default_rng(8)
    acc = SampleAccumulator.empty(tables4, host.n)
    for _ in range(300):
        accumulate(acc, host, draw_sample(host, 4, SamplingStrategy.UNIFORM, rng), tables4)
    assert acc.graphette_counts.sum() == 300
    assert acc.orbit_counts.sum() == 4 * 300
    # ODV column sums equal the orbit tallies
    assert np.array_equal(acc.odv.sum(axis=0), acc.orbit_counts)
    # each node's row sums to the number of samples containing it
    assert acc.odv.sum() == 4 * 300


def test_accumulate_path_positions_in_4cycle(tables3):
    host = HostGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    acc = SampleAccumulator.empty(tables3, host.n)
    accumulate(acc, host, [0, 1, 2], tables3)
    path_cid = int(tables3.table.canonical_id[3])
    assert acc.graphette_counts[path_cid] == 1
    # canonical bits=3 has edges {1,0},{2,0}: node 0 is the path center
    center = 3  # global id: base of path canonical + rank of label 0
    ends = 4
    assert acc.odv[1, center] == 1  # host node 1 sits between 0 and 2
    assert acc.odv[0, ends] == 1
    assert acc.odv[2, ends] == 1
    assert acc.odv[3].sum() == 0


def test_accumulate_rejects_wrong_size(tables3):
    host = complete_host(5)
    acc = SampleAccumulator.empty(tables3, host.n)
    with pytest.raises(ValueError):
        accumulate(acc, host, [0, 1, 2, 3], tables3)


# --- exhaustive enumeration --------------------------------------------------


def test_enumerate_k3_host(tables3):
    acc = exhaustive_enumerate(complete_host(3), tables3)
    assert acc.n_samples == 1
    assert acc.graphette_counts[int(tables3.table.canonical_id[7])] == 1


def test_enumerate_path_host_odv(tables3):
    host = load_graph(io.StringIO("a b\nb c\n"))
    acc = exhaustive_enumerate(host, tables3)
    assert acc.n_samples == 1
    path_cid = int(tables3.table.canonical_id[3])
    assert acc.graphette_counts[path_cid] == 1
    center, ends = 3, 4
    assert acc.odv[1, center] == 1  # b
    assert acc.odv[0, ends] == 1 and acc.odv[2, ends] == 1


def test_enumerate_4cycle(tables3):
    host = HostGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    acc = exhaustive_enumerate(host, tables3)
    assert acc.n_samples == 4
    path_cid = int(tables3.table.canonical_id[3])
    triangle_cid = int(tables3.table.canonical_id[7])
    assert acc.graphette_counts[path_cid] == 4
    assert acc.graphette_counts[triangle_cid] == 0


def test_enumerate_bound(tables3):
    host = complete_host(30)
    with pytest.raises(EnumerationBoundError):
        exhaustive_enumerate(host, tables3, bound=100)


# --- estimates and reports ---------------------------------------------------


def test_estimate_empty_host(tables4):
    host = HostGraph(10, [])
    acc = sample_distribution(host, tables4, 100, seed=9)
    report = estimate(acc, tables4, host)
    assert report.graphette_frequencies[0] == 1.0
    assert report.graphette_frequencies[1:].sum() == 0.0


def test_estimate_complete_host(tables4):
    host = complete_host(6)
    acc = sample_distribution(host, tables4, 100, seed=10)
    report = estimate(acc, tables4, host)
    complete_cid = len(tables4.catalog) - 1
    assert report.graphette_frequencies[complete_cid] == 1.0


def test_estimate_requires_samples(tables3):
    acc = SampleAccumulator.empty(tables3, 4)
    with pytest.raises(ValueError):
        estimate(acc, tables3, HostGraph(4, [(0, 1)]))


def test_sampling_converges_to_enumeration(tables3):
    rng = np.random.default_rng(11)
    edges = [(u, v) for u, v in itertools.combinations(range(12), 2) if rng.random() < 0.3]
    host = HostGraph(12, edges)
    exact = exhaustive_enumerate(host, tables3)
    exact_freq = exact.graphette_counts / exact.n_samples
    acc = sample_distribution(host, tables3, 40_000, seed=12)
    sampled_freq = acc.graphette_counts / acc.n_samples
    assert np.abs(exact_freq - sampled_freq).sum() < 0.05


def test_graphlet_view_filters_connected(tables4):
    host = complete_host(6)
    report = estimate(sample_distribution(host, tables4, 50, seed=13), tables4, host)
    ids, counts, freqs = report.graphlet_view()
    assert all(tables4.catalog.connected[i] for i in ids)
    assert len(ids) == 6  # connected 4-node graphettes


def test_reproducibility_and_seed_sensitivity(tables4):
    host = HostGraph(15, [(i, (i + 1) % 15) for i in range(15)] + [(0, 7), (3, 11)])
    a = sample_distribution(host, tables4, 500, strategy=SamplingStrategy.LOCAL_EXPANSION, seed=14)
    b = sample_distribution(host, tables4, 500, strategy=SamplingStrategy.LOCAL_EXPANSION, seed=14)
    c = sample_distribution(host, tables4, 500, strategy=SamplingStrategy.LOCAL_EXPANSION, seed=15)
    assert np.array_equal(a.graphette_counts, b.graphette_counts)
    assert np.array_equal(a.odv, b.odv)
    assert not np.array_equal(a.odv, c.odv)


def test_worker_split_is_deterministic(tables3):
    host = complete_host(8)
    a = sample_distribution(host, tables3, 301, seed=16, workers=3)
    b = sample_distribution(host, tables3, 301, seed=16, workers=3)
    assert a.n_samples == b.n_samples == 301
    assert np.array_equal(a.odv, b.odv)


def test_merge_is_elementwise_sum(tables3):
    host = complete_host(6)
    a = sample_distribution(host, tables3, 40, seed=17)
    b = sample_distribution(host, tables3, 60, seed=18)
    merged = a.merge(b)
    assert merged.n_samples == 100
    assert np.array_equal(merged.odv, a.odv + b.odv)
    assert np.array_equal(merged.orbit_counts, a.orbit_counts + b.orbit_counts)


def test_degree_zero_node_only_gets_isolated_orbits(tables3):
    host = HostGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4)])  # node 5 isolated
    acc = sample_distribution(host, tables3, 2000, seed=19)
    # orbits whose member nodes have degree zero inside their canonical
    from graphette.core import degrees

    allowed = set()
    for cid in range(len(tables3.catalog)):
        g = tables3.catalog.graphette(cid)
        deg = degrees(g)
        labels = tables3.catalog.orbit_labels[cid]
        distinct = sorted(set(labels))
        for u in range(3):
            if deg[u] == 0:
                allowed.add(int(tables3.orbits.bases[cid]) + distinct.index(labels[u]))
    hit = set(np.flatnonzero(acc.odv[5]).tolist())
    assert hit and hit <= allowed


def test_report_tsv_sections(tables3):
    host = load_graph(io.StringIO("a b\nb c\n"))
    report = estimate(exhaustive_enumerate(host, tables3), tables3, host)
    text = report_to_string(report)
    lines = text.splitlines()
    assert lines[0].startswith("# graphettes\tk=3\tsamples=1")
    assert "# orbits" in lines
    assert "# odv" in lines
    # node names survive into the ODV rows
    assert any(line.startswith("a\t") for line in lines)
    buf = io.StringIO()
    write_report_tsv(report, buf)
    assert buf.getvalue() == text


def test_estimate_shares_the_accumulator_arrays(tables4):
    host = complete_host(6)
    acc = sample_distribution(host, tables4, 50, seed=20)
    report = estimate(acc, tables4, host)
    assert np.shares_memory(report.odv_keys, acc.odv_keys)
    assert np.shares_memory(report.odv_counts, acc.odv_counts)
    assert np.shares_memory(report.graphette_counts, acc.graphette_counts)
    assert np.shares_memory(report.orbit_counts, acc.orbit_counts)


def test_report_odv_rows_on_a_sparse_host(tables4):
    # a 2,000-node ring sampled 20 times leaves almost every ODV row zero
    host = load_graph(io.StringIO("".join(f"n{i} n{(i + 1) % 2000}\n" for i in range(2000))))
    acc = sample_distribution(host, tables4, 20, seed=21)
    lines = report_to_string(estimate(acc, tables4, host)).splitlines()
    rows = lines[lines.index("# odv") + 2:]
    assert len(rows) == host.n
    assert 0 < acc.odv.any(axis=1).sum() < host.n // 10
    for v, line in enumerate(rows):
        assert line == host.names[v] + "\t" + "\t".join(str(int(x)) for x in acc.odv[v])
