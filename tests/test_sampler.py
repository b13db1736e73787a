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
    _draw_batch,
    draw_sample,
    estimate,
    exhaustive_enumerate,
    load_graph,
    report_to_string,
    sample_distribution,
    write_report_tsv,
)
from graphette.store import TableSet
from reference import accumulate, has_edge


def complete_host(n: int) -> HostGraph:
    return HostGraph(n, list(itertools.combinations(range(n), 2)))


# --- load_graph --------------------------------------------------------------


def test_load_simple_path():
    g = load_graph(io.StringIO("a b\nb c\n"))
    assert g.n == 3
    assert g.edge_count == 2
    assert g.names == ["a", "b", "c"]
    assert has_edge(g, 0, 1) and has_edge(g, 1, 2) and not has_edge(g, 0, 2)


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


def test_load_crlf_lines_as_lf_lines(tmp_path):
    text = "# hub\na b\n\nb c\nc a\n"
    lf = load_graph(io.StringIO(text))
    path = tmp_path / "crlf.txt"
    path.write_bytes(text.replace("\n", "\r\n").encode())
    for source in (path, io.StringIO(text.replace("\n", "\r\n"))):
        g = load_graph(source)
        assert g.names == lf.names
        assert np.array_equal(g.edge_array, lf.edge_array)
    path.write_bytes(b"a b\r\n\r\nc\r\n")
    with pytest.raises(GraphFormatError, match="line 3"):
        load_graph(path)


def test_load_drops_a_byte_order_mark(tmp_path, tables3):
    """A BOM-prefixed triangle is still a triangle, named a, b, c."""
    text = "a b\nb c\nc a\n"
    plain = load_graph(io.StringIO(text))
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    expected = report_to_string(estimate(exhaustive_enumerate(plain, tables3), tables3, plain))
    for source in (path, io.StringIO("\ufeff" + text)):
        g = load_graph(source)
        assert g.names == plain.names == ["a", "b", "c"]
        assert np.array_equal(g.edge_array, plain.edge_array)
        assert report_to_string(estimate(exhaustive_enumerate(g, tables3), tables3, g)) == expected


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
        assert has_edge(host, nodes[0], nodes[1])


def test_sample_requires_enough_nodes():
    with pytest.raises(ValueError):
        draw_sample(HostGraph(2, [(0, 1)]), 3, SamplingStrategy.UNIFORM,
                    np.random.default_rng(7))


# --- accumulate --------------------------------------------------------------


def test_single_accumulation_on_k5(tables3):
    host = complete_host(5)
    acc = SampleAccumulator.empty(tables3, host.n)
    accumulate(acc, host, [0, 2, 4], tables3)
    triangle_cid = int(tables3.table.read(7)[0])
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
    path_cid = int(tables3.table.read(3)[0])
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


def test_accumulate_refuses_an_accumulator_of_other_tables_or_graph(tables3, tables4):
    acc = SampleAccumulator.empty(tables3, 4)
    with pytest.raises(ValueError, match="accumulator has 4 nodes, the graph 8"):
        accumulate(acc, HostGraph(8, [(5, 6), (6, 7)]), [5, 6, 7], tables3)
    with pytest.raises(ValueError, match="accumulator k=3 does not match table k=4"):
        accumulate(acc, HostGraph(4, []), [0, 1, 2, 3], tables4)
    assert acc.n_samples == 0


# --- exhaustive enumeration --------------------------------------------------


def test_enumerate_k3_host(tables3):
    acc = exhaustive_enumerate(complete_host(3), tables3)
    assert acc.n_samples == 1
    assert acc.graphette_counts[int(tables3.table.read(7)[0])] == 1


def test_enumerate_path_host_odv(tables3):
    host = load_graph(io.StringIO("a b\nb c\n"))
    acc = exhaustive_enumerate(host, tables3)
    assert acc.n_samples == 1
    path_cid = int(tables3.table.read(3)[0])
    assert acc.graphette_counts[path_cid] == 1
    center, ends = 3, 4
    assert acc.odv[1, center] == 1  # b
    assert acc.odv[0, ends] == 1 and acc.odv[2, ends] == 1


def test_enumerate_4cycle(tables3):
    host = HostGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    acc = exhaustive_enumerate(host, tables3)
    assert acc.n_samples == 4
    path_cid = int(tables3.table.read(3)[0])
    triangle_cid = int(tables3.table.read(7)[0])
    assert acc.graphette_counts[path_cid] == 4
    assert acc.graphette_counts[triangle_cid] == 0


def test_enumerate_bound(tables3):
    host = complete_host(30)
    with pytest.raises(EnumerationBoundError):
        exhaustive_enumerate(host, tables3, bound=100)


def test_enumerate_needs_k_nodes(tables4):
    with pytest.raises(ValueError, match="3 nodes, cannot enumerate k=4"):
        exhaustive_enumerate(complete_host(3), tables4)


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


def test_estimate_refuses_an_accumulator_of_other_tables_or_graph(tables3, tables4):
    path = HostGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    acc = sample_distribution(path, tables3, 100, seed=26)
    estimate(acc, tables3, HostGraph(5, []))  # the same node count is enough
    with pytest.raises(ValueError, match=r"\(3, 6, 5\), tables and graph \(3, 6, 8\)"):
        estimate(acc, tables3, HostGraph(8, [(0, 1)]))
    with pytest.raises(ValueError, match=r"\(3, 6, 5\), tables and graph \(4, 20, 5\)"):
        estimate(acc, tables4, path)


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


def test_workers_past_the_sample_count_make_no_streams(tables3, monkeypatch):
    host = HostGraph(30, [(i, (i + 1) % 30) for i in range(30)])
    five = sample_distribution(host, tables3, 5, seed=3, workers=5)
    seeds = []
    default_rng = np.random.default_rng

    def counted_rng(seed):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counted_rng)
    many = sample_distribution(host, tables3, 5, seed=3, workers=10**5)
    assert seeds == [[3, w] for w in range(5)]
    assert np.array_equal(many.graphette_counts, five.graphette_counts)
    assert np.array_equal(many.odv_keys, five.odv_keys)
    assert np.array_equal(many.odv_counts, five.odv_counts)


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
    from reference import degrees

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


# --- batched expansion draws ------------------------------------------------

# a hub (0), a triangle on it (0, 1, 2), a pendant path (4-5-6-7) and a
# separate edge (8-9): frontiers of every size, c(v) of 1 and 2, and rows
# whose component runs out mid-growth
LAW_HOST_EDGES = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (4, 5), (5, 6), (6, 7), (8, 9)]
# the same host on 13 labels with 0, 6 and 12 isolated: empty adjacency rows
# first, in the middle and last, which edge starts must skip
SPREAD = [1, 2, 3, 4, 5, 7, 8, 9, 10, 11]
ISOLATED_HOST_EDGES = [(SPREAD[u], SPREAD[v]) for u, v in LAW_HOST_EDGES]


def frontier_law(host, k, strategy):
    """Exact probability of every ordered k-sequence under the frontier rule:
    each step adds a node uniform over N(S) - S, or uniform over the unselected
    nodes when that frontier is empty."""
    from fractions import Fraction

    adj = [set(host.neighbors(u).tolist()) for u in range(host.n)]
    if strategy is SamplingStrategy.LOCAL_EXPANSION:
        stack = [((u,), Fraction(1, host.n)) for u in range(host.n)]
    else:
        stack = [(tuple(e)[:k], Fraction(1, host.edge_count)) for e in host.edge_array.tolist()]
    law = {}
    while stack:
        seq, p = stack.pop()
        if len(seq) == k:
            law[seq] = law.get(seq, 0) + p
            continue
        pool = set().union(*(adj[u] for u in seq)) - set(seq)
        pool = pool or set(range(host.n)) - set(seq)
        stack.extend((seq + (v,), p / len(pool)) for v in pool)
    return law


@pytest.mark.parametrize("n, edges, k", [
    pytest.param(10, LAW_HOST_EDGES, 3, id="3"),
    pytest.param(10, LAW_HOST_EDGES, 4, id="4"),
    pytest.param(13, ISOLATED_HOST_EDGES, 3, id="isolated-3"),
    pytest.param(13, ISOLATED_HOST_EDGES, 4, id="isolated-4"),
])
@pytest.mark.parametrize("strategy", [SamplingStrategy.LOCAL_EXPANSION,
                                      SamplingStrategy.EDGE_EXPANSION])
def test_expansion_draws_follow_the_frontier_law(strategy, n, edges, k):
    host = HostGraph(n, edges)
    law = frontier_law(host, k, strategy)
    assert sum(law.values()) == 1
    draws = 200_000
    rows = _draw_batch(host, np.random.default_rng([22, k]), k, strategy, draws)
    seqs, counts = np.unique(rows, axis=0, return_counts=True)
    seen = dict(zip(map(tuple, seqs.tolist()), counts.tolist()))
    assert set(seen) <= set(law)  # no impossible sequence
    chi2 = sum((seen.get(seq, 0) - draws * float(p)) ** 2 / (draws * float(p))
               for seq, p in law.items())
    cells = len(law) - 1  # degrees of freedom
    assert chi2 < cells + 6 * np.sqrt(2 * cells)


@pytest.mark.parametrize("strategy", list(SamplingStrategy))
def test_draw_sample_is_the_batch_of_one(strategy):
    host = HostGraph(10, LAW_HOST_EDGES)
    for seed in range(20):
        one = draw_sample(host, 4, strategy, np.random.default_rng(seed))
        assert one == _draw_batch(host, np.random.default_rng(seed), 4, strategy, 1)[0].tolist()


def test_edge_expansion_at_k1_and_k2():
    host = HostGraph(10, LAW_HOST_EDGES)
    rng = np.random.default_rng(23)
    ones = _draw_batch(host, rng, 1, SamplingStrategy.EDGE_EXPANSION, 2000)
    assert ones.shape == (2000, 1)
    # k=1 keeps the lower end of a uniform edge: node 0 ends 4 of 9 edges
    assert set(ones[:, 0].tolist()) == {0, 1, 4, 5, 6, 8}
    assert 0.35 < np.mean(ones[:, 0] == 0) < 0.55
    pairs = _draw_batch(host, rng, 2, SamplingStrategy.EDGE_EXPANSION, 2000)
    assert all(has_edge(host, u, v) for u, v in pairs.tolist())
    tables2 = TableSet.build(2)
    acc = sample_distribution(host, tables2, 500, strategy=SamplingStrategy.EDGE_EXPANSION,
                              seed=24)
    assert acc.graphette_counts[int(tables2.table.read(1)[0])] == 500


def test_expansion_restarts_when_the_component_runs_out():
    host = HostGraph(10, LAW_HOST_EDGES)
    rows = _draw_batch(host, np.random.default_rng(25), 4,
                       SamplingStrategy.LOCAL_EXPANSION, 20_000)
    assert (np.sort(rows, axis=1)[:, 1:] != np.sort(rows, axis=1)[:, :-1]).all()
    stranded = rows[rows[:, 0] == 8]  # {8, 9} runs out after the second node
    assert len(stranded) > 1000
    assert (stranded[:, 1] == 9).all()
    # the restart is uniform over the eight unselected nodes ...
    restarts = np.bincount(stranded[:, 2], minlength=10)
    assert restarts[8:].sum() == 0
    assert (np.abs(restarts[:8] - len(stranded) / 8) < 5 * np.sqrt(len(stranded) / 8)).all()
    # ... and growth then resumes from the restarted node's frontier
    assert all(has_edge(host, u, v) for u, v in stranded[:, 2:].tolist())


def test_sample_distribution_edge_expansion_needs_an_edge(tables3):
    with pytest.raises(ValueError, match="at least one edge"):
        sample_distribution(HostGraph(6, []), tables3, 10,
                            strategy=SamplingStrategy.EDGE_EXPANSION, seed=26)


def test_sample_distribution_needs_a_sample(tables3):
    with pytest.raises(ValueError, match="at least one sample"):
        sample_distribution(complete_host(4), tables3, 0)


# --- report layout -------------------------------------------------------------


@pytest.mark.parametrize("chunk_cells", [1, 6, 1 << 20])
def test_report_odv_rows_with_nonzero_first_last_and_every_cell(tables3, monkeypatch,
                                                                chunk_cells):
    monkeypatch.setattr("graphette.sampler.REPORT_CHUNK_CELLS", chunk_cells)
    host = HostGraph(7, [(0, 1)])
    acc = SampleAccumulator.empty(tables3, host.n)
    orbits = tables3.orbits.total_orbits  # 6 at k=3
    # node 0: first cell only; node 2: last cell only; node 3: every cell;
    # node 5: two inner cells; nodes 1, 4 and 6 stay zero.  144 (node, orbit)
    # hits, laid out as 48 rows of k=3 (the rows need not be samples).
    pairs = [(0, 0, 12), (2, orbits - 1, 1), *((3, w, w + 1) for w in range(orbits)),
             (5, 2, 100), (5, 3, 10)]
    nodes = np.array([v for v, _, times in pairs for _ in range(times)]).reshape(-1, 3)
    orbit_ids = np.array([w for _, w, times in pairs for _ in range(times)]).reshape(-1, 3)
    acc.add_batch(nodes, np.zeros(len(nodes), dtype=np.int64), orbit_ids)
    dense = acc.odv
    assert dense[0, 0] and dense[2, -1] and dense[3].all()
    lines = report_to_string(estimate(acc, tables3, host)).splitlines()
    rows = lines[lines.index("# odv") + 2:]
    assert rows == [host.names[v] + "\t" + "\t".join(map(str, dense[v].tolist()))
                    for v in range(host.n)]
