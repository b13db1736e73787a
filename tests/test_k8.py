"""The complete k=8 table, the paper's headline row (2^28 records).

Opt-in, because one build takes 13-25 s and 2 GiB of memory, and
loading it back from a file another 2 GiB.  The table is built both ways:
partitioned (m=2) in a child process, and one-shot in this one.  A uniform
k=8 sample through it must match the census of a 12-node host.

    GRAPHETTE_K8=1 PYTHONPATH=src python -m pytest -q -s tests/test_k8.py
"""

import hashlib
import itertools
import math
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from graphette.core import (Graphette, HostGraph, apply_permutation, bit_length, decode,
                            induced_bits_batch)
from graphette.orbits import orbit_partition
from graphette.sampler import exhaustive_enumerate, sample_distribution
from graphette.store import TableSet

pytestmark = pytest.mark.skipif(
    os.environ.get("GRAPHETTE_K8") != "1", reason="set GRAPHETTE_K8=1 to build the k=8 table"
)

K = 8
# sha256 of the k=8 table file; every builder, one-shot or partitioned, must write it
K8_SHA256 = "e21a7d11424fc12ffa80e9e3ed3769f701352a066b022389199285dcb24a7ec0"


class HashSink:
    """A write-only file that keeps the sha256 of everything written to it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, data) -> None:
        self.digest.update(data)


# first in the file: the child's 2 GiB must not stack on the module's built table
def test_k8_partitioned_build_writes_the_same_file(tmp_path):
    path = tmp_path / "k8-split.table"
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "graphette", "build-table", "-k", "8", "-m", "2",
                    "-o", str(path)], env=env, check=True)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024  # KiB on Linux
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 24), b""):
            digest.update(block)
    path.unlink()
    print(f"\nk=8 partitioned (m=2) build {wall:.1f} s, child peak RSS {peak / 2**20:.0f} MiB")
    assert digest.hexdigest() == K8_SHA256


@pytest.fixture(scope="module")
def k8():
    start = time.perf_counter()
    tables = TableSet.build(K)
    built = time.perf_counter() - start
    sink = HashSink()
    tables.save(sink)
    print(f"\nk=8 one-shot build {built:.1f} s, save {time.perf_counter() - start - built:.1f} s")
    return tables, sink.digest.hexdigest()


def test_k8_counts_and_file_hash(k8):
    tables, sha256 = k8
    assert len(tables.catalog) == 12346
    assert tables.orbits.total_orbits == 79264
    assert int(tables.catalog.connected.sum()) == 11117
    assert sha256 == K8_SHA256


PERMS = np.array(list(itertools.permutations(range(K))), dtype=np.int64)  # lexicographic


def all_images(bits: int) -> np.ndarray:
    """Bits of the graphette under every permutation in PERMS, straight from
    the lower-triangle layout; shares no code with the builder."""
    images = np.zeros(len(PERMS), dtype=np.int64)
    for i, j in decode(Graphette(K, bits)):
        hi = np.maximum(PERMS[:, i], PERMS[:, j])
        lo = np.minimum(PERMS[:, i], PERMS[:, j])
        images |= np.int64(1) << (hi * (hi - 1) // 2 + lo)
    return images


def test_k8_record_spot_checks(k8):
    tables, _ = k8
    rng = random.Random(8)
    for bits in [rng.randrange(1 << bit_length(K)) for _ in range(300)]:
        cid, witness, connected = tables.query(Graphette(K, bits))
        canonical = int(tables.catalog.canonicals[cid])
        assert apply_permutation(Graphette(K, bits), witness).bits == canonical
        images = all_images(bits)
        assert images.min() == canonical
        # the first permutation onto the canonical is the lexicographically least
        assert tuple(PERMS[np.argmax(images == canonical)].tolist()) == witness.mapping
        graph = nx.Graph()
        graph.add_nodes_from(range(K))
        graph.add_edges_from(decode(Graphette(K, bits)))
        assert connected == nx.is_connected(graph)


def test_k8_orbit_labels_match_orbit_partition(k8):
    tables, _ = k8
    catalog = tables.catalog
    assert catalog.orbit_labels.shape == (len(catalog), 8)
    for cid, labels in enumerate(catalog.orbit_labels.tolist()):
        assert tuple(labels) == orbit_partition(catalog.graphette(cid)).orbit_of


def er_12_half() -> HostGraph:
    """ER(12, 0.5), whose C(12, 8) = 495 8-subsets the census enumerates."""
    rng = random.Random(12)
    return HostGraph(12, [e for e in itertools.combinations(range(12), 2) if rng.random() < 0.5])


# A correct sampler fails the gate in at most this share of runs: each class
# is tested at FALSE_ALARM / (number of classes) (Bonferroni), split evenly
# between the two tails.
FALSE_ALARM = 1e-3


def binomial_outliers(counts: np.ndarray, probs: np.ndarray, draws: int) -> np.ndarray:
    """Classes whose count of `draws` samples lies in a tail of Binom(draws, p)
    of mass below FALSE_ALARM / (2 * number of classes with p > 0); a class
    with p = 0 is an outlier as soon as it is seen."""
    from scipy.stats import binom  # only this opt-in module needs scipy

    level = FALSE_ALARM / (2 * np.count_nonzero(probs))
    low = binom.cdf(counts, draws, probs) < level
    high = binom.sf(counts - 1, draws, probs) < level
    return np.flatnonzero(low | high)


def test_k8_uniform_sample_matches_the_census(k8):
    tables, _ = k8
    host = er_12_half()
    exact = exhaustive_enumerate(host, tables).graphette_counts
    assert exact.sum() == math.comb(12, 8)
    probs = exact / exact.sum()
    draws = 20_000
    start = time.perf_counter()
    sampled = sample_distribution(host, tables, draws, seed=8).graphette_counts
    print(f"\nk=8 uniform sample of {draws} 8-sets {time.perf_counter() - start:.2f} s, "
          f"{np.count_nonzero(sampled)} of {np.count_nonzero(probs)} classes seen")
    assert binomial_outliers(sampled, probs, draws).size == 0

    # biased: every 8-set holds node 0, so the C(11, 8) = 165 without it are never drawn
    rows = np.random.default_rng(8).permuted(np.tile(np.arange(1, 12), (draws, 1)), axis=1)
    rows[:, 7] = 0
    cids, _ = tables.identify_batch(induced_bits_batch(host, rows[:, :8]))
    biased = np.bincount(cids, minlength=len(probs))
    assert binomial_outliers(biased, probs, draws).size > 0


def test_k8_peak_rss_under_half_of_memory(k8):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB on Linux
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    print(f"\nk=8 peak RSS {peak / 2**20:.0f} MiB of {physical / 2**20:.0f} MiB physical")
    assert peak < physical // 2


# last in the file: holding the built and the loaded table at once exceeds the peak bound above
def test_k8_load_and_identify_through_the_file(k8, tmp_path):
    tables, _ = k8
    path = tmp_path / "k8.table"
    tables.save(path)
    start = time.perf_counter()
    loaded = TableSet.load(path)
    load_s = time.perf_counter() - start
    sink = HashSink()
    loaded.save(sink)
    assert sink.digest.hexdigest() == K8_SHA256

    host = er_12_half()
    exact = exhaustive_enumerate(host, loaded)
    counts = exact.graphette_counts
    assert counts.sum() == math.comb(12, 8)
    # every host edge lies in C(10, 6) of the 8-subsets
    edges = np.array([Graphette(K, int(c)).edge_count for c in loaded.catalog.canonicals])
    assert int(counts @ edges) == host.edge_count * math.comb(10, 6)
    sampled = sample_distribution(host, loaded, 2000, seed=8)
    assert counts[np.flatnonzero(sampled.graphette_counts)].all()

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    print(f"\nk=8 load {load_s:.1f} s, peak RSS {peak / 2**20:.0f} MiB with the built table alive")
