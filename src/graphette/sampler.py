"""Statistical graphette sampling over large host graphs.

Draw k-node samples by one of three strategies, identify each sample's
canonical graphette and node orbits through the precomputed table, and
accumulate graphette counts, orbit counts, and the per-node orbit degree
vector.  An exhaustive enumerator over all k-subsets doubles as the exact
oracle for small hosts; it unranks each batch of k-subsets from consecutive
colex ranks in numpy, so no subset is ever a Python tuple.

Identification runs in numpy batches of up to BATCH k-sets: one probe of the
host's hashed edge set for every edge test of the batch, one fancy-indexed
table decode, and bincounts into the tallies.  Every strategy draws a whole
block of k-sets at once in _draw_batch, and draw_sample is its batch of one.
Local expansion starts a row at a uniform node, edge expansion at the ends
of a uniform host adjacency slot (a uniform edge); both grow every row of
the block one column at a time: each row draws one of its Σdeg(S) adjacency
slots, which picks a selected node u in proportion to its degree and then a
uniform neighbor v of u; v is rejected if already selected and otherwise
accepted with probability 1 / c(v), c(v) being its number of selected
neighbors, so every frontier node is equally likely.  A row whose cut
Σdeg(S) - 2e(S) is 0 has no frontier and restarts at a uniform unselected
node.  accumulate is the batch-of-one identify.  The orbit degree vector
(ODV) is sparse: each batch's flat (node, orbit) ids are tallied into
sorted (id, count) pairs, which are folded into the accumulator's pairs, so
no n x W array exists from sample to report; SampleAccumulator.odv builds
the dense array only on request.  estimate lays the frequencies over the
accumulator's arrays without copying them, and write_report_tsv formats
only the nonzero counts, slicing every run of zeros from one prebuilt
string.  sample_distribution's `workers` splits the draws into that many
seeded streams, run one after another.
"""

from __future__ import annotations

import io
import math
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from os import PathLike
from typing import IO, Sequence, Union

import numpy as np

from .core import HostGraph, check_memory, check_nodes, induced_bits_batch
from .store import TableSet

DEFAULT_ENUMERATION_BOUND = 10_000_000
BATCH = 4096  # k-sets identified per numpy batch; bounds the batch arrays
EXTEND_TRIES = 256  # candidates per _extend round, shared by the rows still waiting
TALLY_BINCOUNT_SPAN = 4  # _tally bincounts a batch whose ids span under 4x its length
REPORT_CHUNK_CELLS = 1 << 20  # ODV cells formatted, or zero-row cells joined, per report write


class GraphFormatError(ValueError):
    """Malformed edge-list input; carries the offending line number."""

    def __init__(self, line_number: int | None, message: str):
        self.line_number = line_number
        prefix = f"line {line_number}: " if line_number is not None else ""
        super().__init__(prefix + message)


class EnumerationBoundError(ValueError):
    """The host graph has too many k-subsets to enumerate exhaustively."""


class SamplingStrategy(Enum):
    UNIFORM = "uniform"
    LOCAL_EXPANSION = "local"
    EDGE_EXPANSION = "edge"


def load_graph(source: Union[str, PathLike, IO[str]]) -> HostGraph:
    """Parse whitespace-separated edge-list text into a host graph.

    Node names are arbitrary tokens, interned to dense 0-based labels in
    first-appearance order; '#'-prefixed lines are comments; duplicate edges
    collapse; self-loops are rejected with their line number.  A leading
    UTF-8 byte-order mark is dropped, from a path or a text stream alike.
    """
    if not hasattr(source, "read"):
        with open(source, "r", encoding="utf-8-sig") as fh:
            return load_graph(fh)
    labels: dict[str, int] = {}
    ends = array("q")  # interned endpoints, two per edge
    # a stream decoded as plain UTF-8 keeps the mark as U+FEFF on its first line
    lines = chain([source.readline().removeprefix("\ufeff")], source)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphFormatError(
                lineno, f"expected two node tokens, got {len(tokens)}: {line!r}"
            )
        a, b = tokens
        if a == b:
            raise GraphFormatError(lineno, f"self-loop on node {a!r}")
        ends.append(labels.setdefault(a, len(labels)))
        ends.append(labels.setdefault(b, len(labels)))

    if not labels:
        raise GraphFormatError(None, "empty graph: no edges found")
    # labels are assigned in insertion order, so the keys are the names
    return HostGraph(len(labels), np.frombuffer(ends, dtype=np.int64), names=list(labels))


def _uniform_batch(rng: np.random.Generator, n: int, k: int, size: int) -> np.ndarray:
    """(size, k) k-tuples of distinct labels, uniform over all ordered ones.

    Independent uniform rows with a repeated label are rejected and redrawn,
    which leaves every ordered distinct k-tuple equally likely; when 2k >= n
    rejection would waste most draws, so each row is a random permutation's
    prefix instead.
    """
    if 2 * k >= n:
        return rng.permuted(np.tile(np.arange(n), (size, 1)), axis=1)[:, :k]
    kept = []
    while size:
        rows = rng.integers(n, size=(size, k))
        ordered = np.sort(rows, axis=1)
        rows = rows[(ordered[:, 1:] != ordered[:, :-1]).all(axis=1)]
        kept.append(rows)
        size -= len(rows)
    return np.concatenate(kept)


def _extend(graph: HostGraph, rng: np.random.Generator, selected: np.ndarray,
            inner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One more node for every row of a (B, j) selection, uniform over the
    row's frontier N(S) - S, and its number of neighbors in the selection.

    `inner` holds each row's e(S), the edges inside its selection, so the cut
    Σdeg(S) - 2e(S) tells exactly which frontiers are empty.  A row with a
    frontier draws a slot uniform over its Σdeg(S) adjacency slots: a selected
    node u with probability deg(u) / Σdeg(S), then a uniform neighbor v of u.
    That reaches v with probability c(v) / Σdeg(S), where c(v) = |N(v) ∩ S|,
    so v is rejected when it is already selected and otherwise accepted with
    probability 1 / c(v), which leaves every frontier node equally likely.
    Rows draw independent tries until one is accepted, several per round
    when few rows are left waiting (a dense host may reject most tries).  A
    row with an empty frontier (its component is exhausted) takes a uniform
    node not yet selected, whose c(v) is 0.
    """
    degrees = graph.degrees(selected)
    cum = np.cumsum(degrees, axis=1)
    before = cum - degrees  # slots ahead of each selected node in its row
    new = np.empty(len(selected), dtype=np.int64)
    links = np.zeros(len(selected), dtype=np.int64)
    waiting = cum[:, -1] != 2 * inner  # a cut edge: the frontier is not empty
    rows = np.flatnonzero(~waiting)
    while rows.size:
        v = rng.integers(graph.n, size=rows.size)
        taken = (selected[rows] == v[:, None]).any(axis=1)
        new[rows[~taken]] = v[~taken]
        rows = rows[taken]
    rows = np.flatnonzero(waiting)
    while rows.size:
        # A round gives each waiting row an equal share of EXTEND_TRIES
        # candidates (at least one) and keeps its first accepted one.
        tries = np.repeat(rows, max(1, EXTEND_TRIES // len(rows)))
        sel, row_cum = selected[tries], cum[tries]
        slot = rng.integers(row_cum[:, -1])
        pos = (row_cum <= slot[:, None]).sum(axis=1)
        v = graph.neighbor(sel[np.arange(len(tries)), pos], slot - before[tries, pos])
        c = graph.has_edges(v[:, None], sel).sum(axis=1)  # (v, v) tests False
        ok = np.flatnonzero(~(sel == v[:, None]).any(axis=1) & (rng.random(len(tries)) * c < 1))
        ok = ok[np.diff(tries[ok], prepend=-1) != 0]
        new[tries[ok]], links[tries[ok]] = v[ok], c[ok]
        waiting[tries[ok]] = False
        rows = rows[waiting[rows]]
    return new, links


def _draw_batch(graph: HostGraph, rng: np.random.Generator, k: int,
                strategy: SamplingStrategy, size: int) -> np.ndarray:
    """(size, k) int64 rows of distinct host labels, drawn by the strategy.

    Uniform rows come from _uniform_batch.  Local expansion starts each row
    at a uniform node.  Edge expansion draws one of the host's 2m adjacency
    slots; each edge owns two, so the slot's two ends are a uniform edge,
    taken lower end first (the lower end alone when k = 1).  The rows then
    grow one column at a time by _extend, which adds a node uniform over the
    row's frontier, or a uniform unselected node when the frontier is empty.
    """
    if graph.n < k:
        raise ValueError(f"host graph has {graph.n} nodes, cannot sample k={k}")
    if strategy is SamplingStrategy.UNIFORM:
        return _uniform_batch(rng, graph.n, k, size)
    nodes = np.empty((size, k), dtype=np.int64)
    if strategy is SamplingStrategy.LOCAL_EXPANSION:
        start = 1
        nodes[:, 0] = rng.integers(graph.n, size=size)
    elif strategy is SamplingStrategy.EDGE_EXPANSION:
        if graph.edge_count == 0:
            raise ValueError("edge expansion needs at least one edge")
        start = min(2, k)
        u, v = graph.slot_ends(rng.integers(2 * graph.edge_count, size=size))
        nodes[:, :start] = np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1)[:, :start]
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    inner = np.full(size, start - 1, dtype=np.int64)  # e(S): one edge or none
    for j in range(start, k):
        nodes[:, j], links = _extend(graph, rng, nodes[:, :j], inner)
        inner += links
    return nodes


def draw_sample(
    graph: HostGraph,
    k: int,
    strategy: SamplingStrategy,
    rng: np.random.Generator,
) -> list[int]:
    """Draw k distinct node labels by the requested strategy: the batch of one."""
    return _draw_batch(graph, rng, k, strategy, 1)[0].tolist()


def _sum_sorted(keys: np.ndarray, counts: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Sorted keys, some repeated, and their counts (1 each when None) ->
    the unique keys and the summed count of each."""
    last = np.empty(len(keys), dtype=bool)
    last[-1:] = True
    np.not_equal(keys[1:], keys[:-1], out=last[:-1])
    ends = np.flatnonzero(last)
    # running totals at each run's end, differenced; reduceat is ~3x slower
    totals = ends + 1 if counts is None else np.cumsum(counts)[ends]
    sums = np.empty_like(totals)
    sums[:1] = totals[:1]
    np.subtract(totals[1:], totals[:-1], out=sums[1:])
    return keys[ends], sums


def _tally(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted unique values of a batch of non-negative ids and their counts.

    A batch whose ids span less than TALLY_BINCOUNT_SPAN times its length is
    counted by bincount over that span (10k ids over 1,260 cells: ~30 us,
    against ~110 us to sort them); any other batch is sorted.  numpy 2.4's
    1-D np.unique hashes, and argsort of a random batch costs ~8x np.sort,
    so neither is used.
    """
    if ids.size:
        lo = ids.min()
        if ids.max() - lo < TALLY_BINCOUNT_SPAN * ids.size:
            counts = np.bincount(ids - lo)
            keys = np.flatnonzero(counts)
            return keys + lo, counts[keys]
    return _sum_sorted(np.sort(ids))


def _merge_pairs(runs: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Sum runs of sorted unique (keys, counts) into one such run."""
    if len(runs) == 1:
        return runs[0]
    keys = np.concatenate([keys for keys, _ in runs])
    counts = np.concatenate([counts for _, counts in runs])
    # concatenated sorted runs, which the stable sort (timsort) merges run
    # by run: 2M pairs in ~0.1 s, half the time of np.sort plus searchsorted
    order = np.argsort(keys, kind="stable")
    return _sum_sorted(keys[order], counts[order])


class SampleAccumulator:
    """Counts per canonical graphette, per global orbit, and per host node.

    The orbit degree vector (ODV) counts how often host node v landed in
    global orbit w across accumulated samples.  It is held sparse: odv_keys
    are the sorted flat ids v * W + w of its nonzero cells (W global orbits)
    and odv_counts their counts, so its memory is proportional to the smaller
    of samples * k and the nonzero cells, never to host nodes * W.  Each batch's
    sorted pairs wait in a pending list and are folded into the accumulated
    pairs once they outnumber them, so a run of N ids costs O(N log N).
    """

    def __init__(self, k: int, host_nodes: int, graphette_counts: np.ndarray,
                 orbit_counts: np.ndarray, n_samples: int = 0):
        self.k = k
        self.host_nodes = host_nodes
        self.n_samples = n_samples
        self.graphette_counts = graphette_counts
        self.orbit_counts = orbit_counts
        self._keys = self._counts = np.zeros(0, dtype=np.int64)
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        self._pending_pairs = 0

    @classmethod
    def empty(cls, tables: TableSet, host_nodes: int) -> "SampleAccumulator":
        return cls(
            k=tables.k,
            host_nodes=host_nodes,
            graphette_counts=np.zeros(len(tables.catalog), dtype=np.int64),
            orbit_counts=np.zeros(tables.orbits.total_orbits, dtype=np.int64),
        )

    def add_batch(self, nodes: np.ndarray, cids: np.ndarray, orbit_ids: np.ndarray) -> None:
        """Tally B identified samples: (B, k) nodes, (B,) cids, (B, k) orbits."""
        self.n_samples += len(cids)
        self.graphette_counts += np.bincount(cids, minlength=len(self.graphette_counts))
        orbits = len(self.orbit_counts)
        self.orbit_counts += np.bincount(orbit_ids.reshape(-1), minlength=orbits)
        keys, counts = _tally((nodes * orbits + orbit_ids).reshape(-1))
        self._pending.append((keys, counts))
        self._pending_pairs += len(keys)
        if self._pending_pairs > len(self._keys):
            self._fold()

    def _fold(self) -> None:
        """Add every pending batch's pairs into the accumulated pairs."""
        if self._pending:
            folded = [(self._keys, self._counts)] if len(self._keys) else []
            self._keys, self._counts = _merge_pairs(folded + self._pending)
            self._pending, self._pending_pairs = [], 0

    @property
    def odv_keys(self) -> np.ndarray:
        """Sorted flat ids node * W + orbit of the nonzero ODV cells."""
        self._fold()
        return self._keys

    @property
    def odv_counts(self) -> np.ndarray:
        """The int64 count of each odv_keys cell, all positive."""
        self._fold()
        return self._counts

    @property
    def odv(self) -> np.ndarray:
        """The dense (host nodes, W) int64 ODV, built anew on every read.

        Raises ValueError when it would take more than half of physical memory.
        """
        orbits = len(self.orbit_counts)
        check_memory(self.host_nodes * orbits * 8, f"a dense {self.host_nodes} x {orbits} ODV")
        odv = np.zeros((self.host_nodes, orbits), dtype=np.int64)
        odv.reshape(-1)[self.odv_keys] = self.odv_counts
        return odv

    def merge(self, other: "SampleAccumulator") -> "SampleAccumulator":
        """Elementwise sum; associative, so worker order never matters."""
        if (self.k != other.k or self.host_nodes != other.host_nodes
                or len(self.orbit_counts) != len(other.orbit_counts)):
            raise ValueError("accumulators do not match")
        merged = SampleAccumulator(
            k=self.k,
            host_nodes=self.host_nodes,
            graphette_counts=self.graphette_counts + other.graphette_counts,
            orbit_counts=self.orbit_counts + other.orbit_counts,
            n_samples=self.n_samples + other.n_samples,
        )
        merged._keys, merged._counts = _merge_pairs(
            [(self.odv_keys, self.odv_counts), (other.odv_keys, other.odv_counts)])
        return merged


def _identify(acc: SampleAccumulator, graph: HostGraph, nodes: np.ndarray,
              tables: TableSet) -> None:
    """Identify every row of a (B, k) node array and tally it into acc."""
    cids, orbit_ids = tables.identify_batch(induced_bits_batch(graph, nodes))
    acc.add_batch(nodes, cids, orbit_ids)


def accumulate(
    acc: SampleAccumulator,
    graph: HostGraph,
    nodes: Sequence[int],
    tables: TableSet,
) -> SampleAccumulator:
    """Identify one k-node sample and fold it into the accumulator.

    Costs O(k^2) host edge tests plus O(1) table lookups, independent of
    host size.  Raises ValueError on a wrong size, a repeated label or a
    label outside the host.
    """
    if len(nodes) != tables.k or acc.k != tables.k:
        raise ValueError(f"sample size {len(nodes)} does not match table k={tables.k}")
    check_nodes(graph, nodes)
    _identify(acc, graph, np.array([nodes], dtype=np.int64), tables)
    return acc


def sample_distribution(
    graph: HostGraph,
    tables: TableSet,
    n_samples: int,
    strategy: SamplingStrategy = SamplingStrategy.UNIFORM,
    seed: int = 0,
    workers: int = 1,
) -> SampleAccumulator:
    """Draw and accumulate n_samples k-sets; deterministic for fixed inputs.

    The draws are split into `workers` fixed shares, each drawn from its own
    stream seeded by (seed, w); the shares run one after another in this
    process, so the result depends only on (seed, workers).
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    k = tables.k
    acc = SampleAccumulator.empty(tables, graph.n)
    for worker in range(workers):
        rng = np.random.default_rng([seed, worker])
        quota = n_samples // workers + (1 if worker < n_samples % workers else 0)
        while quota:
            size = min(quota, BATCH)
            _identify(acc, graph, _draw_batch(graph, rng, k, strategy, size), tables)
            quota -= size
    acc._fold()
    return acc


def exhaustive_enumerate(
    graph: HostGraph,
    tables: TableSet,
    bound: int = DEFAULT_ENUMERATION_BOUND,
) -> SampleAccumulator:
    """Accumulate every k-subset of the host exactly once (small-host oracle).

    Subsets are visited in colexicographic order, BATCH at a time, each batch
    made in numpy straight from its ranks [lo, hi) by the combinatorial
    number system: rank r is the subset c_0 < ... < c_{k-1} with
    r = C(c_0, 1) + C(c_1, 2) + ... + C(c_{k-1}, k), so for j = k-1 down to 1
    c_j is the largest c with C(c, j+1) <= r, found by one searchsorted in a
    table of binomials, and r -= C(c_j, j+1); then c_0 = r.  Every tally is a
    sum, so the visiting order leaves the accumulator unchanged.  Raises
    EnumerationBoundError when C(n, k) exceeds `bound` or an int64 rank.
    """
    k = tables.k
    if graph.n < k:
        raise ValueError(f"host graph has {graph.n} nodes, cannot enumerate k={k}")
    total = math.comb(graph.n, k)
    if total > bound:
        raise EnumerationBoundError(
            f"C({graph.n}, {k}) = {total} subsets exceeds the bound {bound}"
        )
    if total >= 1 << 63:
        raise EnumerationBoundError(
            f"C({graph.n}, {k}) = {total} subsets do not fit the int64 subset ranks"
        )
    check_memory((k - 1) * graph.n * 8, f"a {k - 1} x {graph.n} binomial table")
    # binom[j - 1, c] = C(c, j + 1); no entry exceeds C(n, k) when k <= n/2,
    # and none exceeds C(15, 7) otherwise, since tables stop at k = 8
    binom = np.empty((k - 1, graph.n), dtype=np.int64)
    column = np.arange(graph.n, dtype=np.int64)  # C(c, 1)
    for row in binom:
        row[0] = 0
        np.cumsum(column[:-1], out=row[1:])
        column = row
    acc = SampleAccumulator.empty(tables, graph.n)
    for lo in range(0, total, BATCH):
        rank = np.arange(lo, min(lo + BATCH, total), dtype=np.int64)
        nodes = np.empty((len(rank), k), dtype=np.int64)
        for j in range(k - 1, 0, -1):  # c_j: the largest c with C(c, j + 1) <= rank
            c = np.searchsorted(binom[j - 1], rank, "right") - 1
            rank -= binom[j - 1, c]
            nodes[:, j] = c
        nodes[:, 0] = rank
        _identify(acc, graph, nodes, tables)
    acc._fold()
    return acc


@dataclass(frozen=True)
class GraphetteReport:
    """Frequencies beside an accumulator's count arrays and ODV pairs, which
    the report shares uncopied; the frequencies are fixed when the report is
    made, so tally nothing more into that accumulator while the report is in
    use."""

    k: int
    n_samples: int
    canonical_bits: np.ndarray
    connected: np.ndarray
    graphette_counts: np.ndarray
    graphette_frequencies: np.ndarray
    orbit_counts: np.ndarray
    orbit_frequencies: np.ndarray
    odv_keys: np.ndarray
    odv_counts: np.ndarray
    node_names: list[str]

    def graphlet_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(canonical ids, counts, frequencies) of connected graphettes only."""
        ids = np.flatnonzero(self.connected)
        return ids, self.graphette_counts[ids], self.graphette_frequencies[ids]


def estimate(acc: SampleAccumulator, tables: TableSet, graph: HostGraph) -> GraphetteReport:
    """Graphette and orbit frequencies over the accumulator's tallies; raises
    ValueError when acc is empty or its k, orbits or nodes differ from the
    tables' or the graph's."""
    if acc.n_samples < 1:
        raise ValueError("no samples accumulated")
    found = (acc.k, len(acc.orbit_counts), acc.host_nodes)
    wanted = (tables.k, tables.orbits.total_orbits, graph.n)
    if found != wanted:
        raise ValueError(f"accumulator has (k, orbits, nodes) {found}, tables and graph {wanted}")
    n = acc.n_samples
    return GraphetteReport(
        k=acc.k,
        n_samples=n,
        canonical_bits=tables.catalog.canonicals,
        connected=tables.catalog.connected,
        graphette_counts=acc.graphette_counts,
        graphette_frequencies=acc.graphette_counts / n,
        orbit_counts=acc.orbit_counts,
        orbit_frequencies=acc.orbit_counts / (acc.k * n),
        odv_keys=acc.odv_keys,
        odv_counts=acc.odv_counts,
        node_names=graph.names,
    )


def write_report_tsv(report: GraphetteReport, out: IO[str]) -> None:
    """Write the three report sections as TSV; identical schema for sampled
    and exhaustive runs so the outputs diff cleanly.

    The ODV section reads the sparse pairs: only the nonzero counts are
    formatted, and every run of zero cells is a slice of one prebuilt
    all-zero row string.  Rows are written REPORT_CHUNK_CELLS cells' worth
    at a time, which bounds the text held at once.
    """
    out.write(f"# graphettes\tk={report.k}\tsamples={report.n_samples}\n")
    out.write("canonical_id\tbits\tconnected\tcount\tfrequency\n")
    for cid in range(len(report.canonical_bits)):
        out.write(
            f"{cid}\t{int(report.canonical_bits[cid])}\t"
            f"{int(report.connected[cid])}\t{int(report.graphette_counts[cid])}\t"
            f"{report.graphette_frequencies[cid]:.10g}\n"
        )
    out.write("# orbits\n")
    out.write("orbit_id\tcount\tfrequency\n")
    for w in range(len(report.orbit_counts)):
        out.write(
            f"{w}\t{int(report.orbit_counts[w])}\t{report.orbit_frequencies[w]:.10g}\n"
        )
    orbits = len(report.orbit_counts)
    names = report.node_names
    out.write("# odv\n")
    out.write("node\t" + "\t".join(str(w) for w in range(orbits)) + "\n")
    zero_tail = "\t0" * orbits + "\n"
    step = max(1, REPORT_CHUNK_CELLS // orbits)  # rows per chunk

    def zero_rows(start: int, stop: int) -> None:
        for lo in range(start, stop, step):
            out.write(zero_tail.join(names[lo:min(lo + step, stop)]) + zero_tail)

    rows, cols = np.divmod(report.odv_keys, orbits)
    firsts = np.flatnonzero(np.diff(rows, prepend=-1))  # each used row's first pair
    used = rows[firsts]
    bounds = np.append(firsts, len(rows))
    # zero_tail[:lead] is the run of zero cells ahead of each pair in its row,
    # zero_tail[trail:] the zero cells and newline after each row's last pair
    lead = 2 * (np.diff(cols, prepend=-1) - 1)
    lead[firsts] = 2 * cols[firsts]
    trail = 2 * (cols[bounds[1:] - 1] + 1)
    done = 0  # rows written so far
    for lo in range(0, len(used), step):
        hi = min(lo + step, len(used))
        a, b = bounds[lo], bounds[hi]
        cells = [zero_tail[:z] + "\t" + str(x)
                 for z, x in zip(lead[a:b].tolist(), report.odv_counts[a:b].tolist())]
        for v, start, stop, t in zip(used[lo:hi].tolist(), (bounds[lo:hi] - a).tolist(),
                                     (bounds[lo + 1:hi + 1] - a).tolist(), trail[lo:hi].tolist()):
            zero_rows(done, v)
            out.write(names[v] + "".join(cells[start:stop]) + zero_tail[t:])
            done = v + 1
    zero_rows(done, len(names))


def report_to_string(report: GraphetteReport) -> str:
    buf = io.StringIO()
    write_report_tsv(report, buf)
    return buf.getvalue()
