"""Seeded host-graph generators and the edge-list writer for the benchmark.

The program under test never sees these arrays: each host is written as a
whitespace-separated edge list with string node tokens ("v<id>"), in shuffled
edge order and with randomly oriented endpoints, and the program reads it back
through ``load_graph``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Host:
    """A generated host: its edges as generator ids plus the facts we record."""

    name: str
    edges: np.ndarray  # (m, 2) int64, u < v, unique, no self-loops
    gen_s: float

    def facts(self) -> dict:
        degree = np.bincount(self.edges.ravel())
        degree = degree[degree > 0]
        return {
            "name": self.name,
            "n": int(len(degree)),
            "m": int(len(self.edges)),
            "max_degree": int(degree.max()),
            "p99_degree": float(np.percentile(degree, 99)),
            "gen_s": self.gen_s,
        }


def erdos_renyi(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Erdos-Renyi G(n, M) with M = round(p * n(n-1)/2) uniformly chosen edges.

    Fixing the edge count (rather than drawing it, as G(n, p) does) keeps the
    work per run the same from seed to seed; the seed picks the wiring.
    """
    rows, cols = np.triu_indices(n, 1)
    pick = np.sort(rng.choice(len(rows), size=round(p * len(rows)), replace=False))
    return np.stack([rows[pick], cols[pick]], axis=1).astype(np.int64)


def configuration_model(n: int, min_degree: int, rng: np.random.Generator) -> np.ndarray:
    """Heavy-tailed configuration model, simplified.

    Target degrees are the Pareto quantiles (tail exponent 2, so density
    exponent 3) above ``min_degree`` at n evenly spaced levels, capped at
    n - 1, dealt to the nodes in random order; stubs are paired uniformly at
    random, then self-loops and repeated pairs are dropped.  The degree
    sequence is the same for every seed, so hub sizes (which set the cost of
    expansion frontiers) do not vary between runs; the seed picks the wiring.
    With n=100,000 and min_degree=5 that gives ~480k edges, a maximum degree
    near 2,000 and a 99th-percentile degree near 50.
    """
    levels = (np.arange(n) + 0.5) / n
    degree = np.floor(min_degree * levels ** -0.5).astype(np.int64)
    degree = rng.permutation(np.minimum(degree, n - 1))
    if degree.sum() % 2:
        degree[int(np.argmax(degree))] -= 1
    stubs = np.repeat(np.arange(n, dtype=np.int64), degree)
    rng.shuffle(stubs)
    pairs = stubs.reshape(-1, 2)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    return np.unique(np.sort(pairs, axis=1), axis=0)


GENERATORS = {
    "er": erdos_renyi,
    "cm": configuration_model,
}


def generate(spec: tuple, seed: int, stream: int) -> Host:
    """Build the host described by ``spec`` = (generator, *params) from the seed."""
    kind, *params = spec
    rng = np.random.default_rng([seed, stream])
    start = time.perf_counter()
    edges = GENERATORS[kind](*params, rng)
    gen_s = time.perf_counter() - start
    return Host(f"{kind}({', '.join(map(str, params))})", edges, gen_s)


def write_edge_list(host: Host, path: str, seed: int, stream: int) -> int:
    """Write the host as a token edge list; returns the file size in bytes."""
    rng = np.random.default_rng([seed, stream, 1])
    edges = host.edges[rng.permutation(len(host.edges))]
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip][:, ::-1]
    text = "# generated host " + host.name + "\n"
    text += "\n".join(f"v{u} v{v}" for u, v in edges.tolist()) + "\n"
    data = text.encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)
