"""Statistical graphette sampling over large host graphs.

Draw k-node samples by one of three strategies, identify each sample's
canonical graphette and node orbits through the precomputed table, and
accumulate graphette counts, orbit counts, and the per-node orbit degree
vector.  An exhaustive enumerator over all k-subsets doubles as the exact
oracle for small hosts.

Identification runs in numpy batches of up to BATCH k-sets: one searchsorted
over the host's edge keys for every edge test of the batch, one fancy-indexed
table decode, and bincounts into the tallies.  Uniform k-sets are drawn as a
batch; expansion draws go one at a time through draw_sample and are then
identified together.  accumulate is the batch-of-one case.  Each batch's
(node, orbit) tallies are added in place to the dense int64 ODV.  estimate
lays the frequencies over the accumulator's arrays without copying them, and
write_report_tsv writes every all-zero ODV row from one prebuilt string.
sample_distribution's `workers` splits the draws into that many seeded
streams, run one after another.
"""

from __future__ import annotations

import io
import math
import mmap
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, islice
from os import PathLike
from typing import IO, Sequence, Union

import numpy as np

from .core import HostGraph, check_nodes, induced_bits_batch
from .store import TableSet

DEFAULT_ENUMERATION_BOUND = 10_000_000
BATCH = 4096  # k-sets identified per numpy batch; bounds the batch arrays
_HUGE_PAGE_ADVICE_BYTES = 1 << 22  # numpy advises huge pages from this size up


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
    collapse; self-loops are rejected with their line number.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()

    labels: dict[str, int] = {}
    ends: list[int] = []  # interned endpoints, two per edge
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
    return HostGraph(len(labels), np.array(ends, dtype=np.int64), names=list(labels))


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


def _expand(
    graph: HostGraph, rng: np.random.Generator, selected: list[int], k: int
) -> list[int]:
    """Grow a selection to k nodes by uniform frontier draws.

    The frontier is the union of neighbors of selected nodes minus the
    selection; when it is empty (component exhausted) a uniform unused node
    restarts the growth, so disconnected hosts still yield samples.
    """
    chosen = set(selected)
    while len(selected) < k:
        frontier = sorted(
            {int(v) for u in selected for v in graph.neighbors(u)} - chosen
        )
        if frontier:
            nxt = frontier[int(rng.integers(len(frontier)))]
        else:
            nxt = int(rng.integers(graph.n))
            while nxt in chosen:
                nxt = int(rng.integers(graph.n))
        selected.append(nxt)
        chosen.add(nxt)
    return selected


def draw_sample(
    graph: HostGraph,
    k: int,
    strategy: SamplingStrategy,
    rng: np.random.Generator,
) -> list[int]:
    """Draw k distinct node labels by the requested strategy."""
    if graph.n < k:
        raise ValueError(f"host graph has {graph.n} nodes, cannot sample k={k}")
    if strategy is SamplingStrategy.UNIFORM:
        return _uniform_batch(rng, graph.n, k, 1)[0].tolist()
    if strategy is SamplingStrategy.LOCAL_EXPANSION:
        return _expand(graph, rng, [int(rng.integers(graph.n))], k)
    if strategy is SamplingStrategy.EDGE_EXPANSION:
        if graph.edge_count == 0:
            raise ValueError("edge expansion needs at least one edge")
        u, v = graph.edge_array[int(rng.integers(graph.edge_count))]
        return _expand(graph, rng, [int(u), int(v)][:k], k)
    raise ValueError(f"unknown strategy {strategy!r}")


def _odv_zeros(rows: int, cols: int) -> np.ndarray:
    """(rows, cols) int64 zeros; from 4 MiB up, in an anonymous memory map.

    numpy advises huge pages for buffers of 4 MiB and up, so the kernel
    zeroes 2 MiB for each one a batch first touches, while a map is faulted
    in 4 KiB pages.  A sample batch touches a few thousand scattered ODV
    cells: for 2,500 cells of a 100k x 90 ODV the map takes 6.5 ms against
    13 ms (Xeon, transparent huge pages on madvise, numpy 2.4).  Below
    4 MiB numpy reuses heap memory, which a fresh map per call cannot.
    """
    nbytes = rows * cols * 8
    if nbytes < _HUGE_PAGE_ADVICE_BYTES:
        return np.zeros((rows, cols), dtype=np.int64)
    return np.ndarray((rows, cols), dtype=np.int64, buffer=mmap.mmap(-1, nbytes))


@dataclass
class SampleAccumulator:
    """Counts per canonical graphette, per global orbit, and per host node.

    odv row v column w counts how often host node v landed in global orbit w
    across accumulated samples (the graphette orbit degree vector).
    """

    k: int
    n_samples: int
    graphette_counts: np.ndarray
    orbit_counts: np.ndarray
    odv: np.ndarray

    @classmethod
    def empty(cls, tables: TableSet, host_nodes: int) -> "SampleAccumulator":
        return cls(
            k=tables.k,
            n_samples=0,
            graphette_counts=np.zeros(len(tables.catalog), dtype=np.int64),
            orbit_counts=np.zeros(tables.orbits.total_orbits, dtype=np.int64),
            odv=_odv_zeros(host_nodes, tables.orbits.total_orbits),
        )

    def add_batch(self, nodes: np.ndarray, cids: np.ndarray, orbit_ids: np.ndarray) -> None:
        """Tally B identified samples: (B, k) nodes, (B,) cids, (B, k) orbits."""
        self.n_samples += len(cids)
        self.graphette_counts += np.bincount(cids, minlength=len(self.graphette_counts))
        orbits = len(self.orbit_counts)
        self.orbit_counts += np.bincount(orbit_ids.reshape(-1), minlength=orbits)
        # flat ids: np.add.at is ~5x faster on one index array than on a pair
        np.add.at(self.odv.reshape(-1), (nodes * orbits + orbit_ids).reshape(-1), 1)

    def merge(self, other: "SampleAccumulator") -> "SampleAccumulator":
        """Elementwise sum; associative, so worker order never matters."""
        if self.k != other.k or self.odv.shape != other.odv.shape:
            raise ValueError("accumulators do not match")
        return SampleAccumulator(
            k=self.k,
            n_samples=self.n_samples + other.n_samples,
            graphette_counts=self.graphette_counts + other.graphette_counts,
            orbit_counts=self.orbit_counts + other.orbit_counts,
            odv=self.odv + other.odv,
        )


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
    if graph.n < k:
        raise ValueError(f"host graph has {graph.n} nodes, cannot sample k={k}")
    acc = SampleAccumulator.empty(tables, graph.n)
    for worker in range(workers):
        rng = np.random.default_rng([seed, worker])
        quota = n_samples // workers + (1 if worker < n_samples % workers else 0)
        while quota:
            size = min(quota, BATCH)
            if strategy is SamplingStrategy.UNIFORM:
                nodes = _uniform_batch(rng, graph.n, k, size)
            else:
                nodes = np.array([draw_sample(graph, k, strategy, rng) for _ in range(size)],
                                 dtype=np.int64)
            _identify(acc, graph, nodes, tables)
            quota -= size
    return acc


def exhaustive_enumerate(
    graph: HostGraph,
    tables: TableSet,
    bound: int = DEFAULT_ENUMERATION_BOUND,
) -> SampleAccumulator:
    """Accumulate every k-subset of the host exactly once (small-host oracle)."""
    k = tables.k
    if graph.n < k:
        raise ValueError(f"host graph has {graph.n} nodes, cannot enumerate k={k}")
    total = math.comb(graph.n, k)
    if total > bound:
        raise EnumerationBoundError(
            f"C({graph.n}, {k}) = {total} subsets exceeds the bound {bound}"
        )
    acc = SampleAccumulator.empty(tables, graph.n)
    subsets = combinations(range(graph.n), k)
    while chunk := list(islice(subsets, BATCH)):
        _identify(acc, graph, np.array(chunk, dtype=np.int64), tables)
    return acc


@dataclass(frozen=True)
class GraphetteReport:
    """Frequencies beside an accumulator's count and ODV arrays, which the
    report shares uncopied; the frequencies are fixed when the report is made,
    so tally nothing more into that accumulator while the report is in use."""

    k: int
    n_samples: int
    canonical_bits: np.ndarray
    connected: np.ndarray
    graphette_counts: np.ndarray
    graphette_frequencies: np.ndarray
    orbit_counts: np.ndarray
    orbit_frequencies: np.ndarray
    odv: np.ndarray
    node_names: list[str]

    def graphlet_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(canonical ids, counts, frequencies) of connected graphettes only."""
        ids = np.flatnonzero(self.connected)
        return ids, self.graphette_counts[ids], self.graphette_frequencies[ids]


def estimate(acc: SampleAccumulator, tables: TableSet, graph: HostGraph) -> GraphetteReport:
    """Graphette and orbit frequencies over the accumulator's tallies."""
    if acc.n_samples < 1:
        raise ValueError("no samples accumulated")
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
        odv=acc.odv,
        node_names=graph.names,
    )


def write_report_tsv(report: GraphetteReport, out: IO[str]) -> None:
    """Write the three report sections as TSV; identical schema for sampled
    and exhaustive runs so the outputs diff cleanly."""
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
    out.write("# odv\n")
    out.write("node\t" + "\t".join(str(w) for w in range(report.odv.shape[1])) + "\n")
    zero_tail = "\t0" * report.odv.shape[1] + "\n"
    for v, used in enumerate(report.odv.any(axis=1).tolist()):
        tail = "\t" + "\t".join(map(str, report.odv[v].tolist())) + "\n" if used else zero_tail
        out.write(f"{report.node_names[v]}{tail}")


def report_to_string(report: GraphetteReport) -> str:
    buf = io.StringIO()
    write_report_tsv(report, buf)
    return buf.getvalue()
