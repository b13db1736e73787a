"""One benchmark workload, run in a fresh process on pre-generated files.

``run.py`` generates the hosts and starts this script once per workload, so
``ru_maxrss`` at the end describes that workload alone.  The session calls the
package's public functions in the order the command line does: build-table
(one-shot and m=8 partitioned), then table load and graph load, then sample
with each strategy, estimate + write the report, and enumerate.

Set-up (table load + graph load) runs at least three times before the first
timed operation.  Then rounds of the timed operations run until ``--seconds``
have passed (at least two rounds).  A round is a filler, which times short
blocks of sampling and of every cheap operation for a fixed time, then each of
the workload's long operations, one call each, followed by another filler.
Every timing metric is a median over all its samples.  With ``--trace 1`` the
odd rounds run with spans around every layer boundary (see spans.py) and the
even rounds without; the difference of their medians is the tracing overhead.

Correctness checks are untimed; each one counts as attempted, and each one
that does not hold counts as failed.  The result is written as JSON to the
path given by ``--out``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

import spans as tracing

MIN_ROUNDS = 2       # a traced run needs one untraced and one traced round
SETUPS = 3           # least set-up repeats
SETUP_S = 2.0        # set-up repeats until this much is timed (and SETUPS times)
SPLIT_M = 8          # partitions of the partitioned build
NX_DRAWS = 100       # k-sets per strategy re-identified through networkx
SE_LIMIT = 5.0       # uniform-vs-census agreement, in standard errors
BLOCK_S = 0.02       # a timed block of calls lasts at least this long

# k: table size; host: generator spec of the sampling host (hosts.py);
# census_host: the host to enumerate, None for the sampling host itself;
# long: operations timed one call per round each time they are listed,
# between fillers (every other operation is timed in blocks inside the
# fillers); filler_s: how long each filler times blocks of the short
# operations; block: samples per timed sampling block; l1_samples: draws per
# expansion strategy for the graphlet L1 of a traced run.  Why each
# workload: NOTES.md.
WORKLOADS = {
    "tables": {
        "k": 7,
        # G(12, 0.5): uniform 7-sets induce near-uniform random 7-node bit
        # vectors, so identification reads all 16 MiB of k=7 records.
        "host": ("er", 12, 0.5),
        "census_host": None,
        "long": ("split_build_s", "build_s", "build_s"),
        "filler_s": 0.5, "block": 100, "l1_samples": 3000,
    },
    "sample": {
        "k": 5,
        "host": ("cm", 100_000, 5),
        # The host is far too large to enumerate; the census and the bias
        # measure run on a 14-node host from the same degree law.
        "census_host": ("cm", 14, 3),
        "long": ("report_s",),
        "filler_s": 0.6, "block": 500, "l1_samples": 5000,
    },
    "census": {
        "k": 5,
        "host": ("er", 30, 0.2),
        "census_host": None,
        "long": ("subsets_per_s",),
        "filler_s": 0.8, "block": 500, "l1_samples": 5000,
    },
}

STRATEGY_NAMES = ("uniform", "local", "edge")
RATES = {f"{s}_samples_per_s" for s in STRATEGY_NAMES} | {"subsets_per_s"}


class Checks:
    """Untimed correctness gates: every call is attempted, false ones fail."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def summary(values: list[float], rate: bool) -> dict:
    """Median, the slowest percentile with at least ten samples beyond it, count."""
    ordered = sorted(values)
    out = {"median": statistics.median(ordered), "n": len(ordered)}
    if len(ordered) >= 20:
        pct = math.floor(100 * (1 - 10 / len(ordered)))
        tail = 100 - pct if rate else pct
        out[f"p{tail}"] = float(np.percentile(ordered, tail))
    return out


class Session:
    def __init__(self, args):
        import graphette.sampler as sampler
        import graphette.store as store

        self.sampler = sampler
        self.store = store
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.k = self.spec["k"]
        self.work = args.work
        self.checks = Checks()
        self.tracer = tracing.Tracer(f"{args.workload}-s{args.seed}-p{os.getpid()}")
        with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")) as fh:
            self.expected = json.load(fh)[str(self.k)]
        self.strategies = [sampler.SamplingStrategy(s) for s in STRATEGY_NAMES]
        self.seeds = np.random.default_rng([args.seed, 99])
        self.samples = {name: [] for name in (
            "setup_s", "build_s", "split_build_s", "load_s", "report_s", "subsets_per_s",
            *(f"{s}_samples_per_s" for s in STRATEGY_NAMES))}
        self.traced = {name: [] for name in self.samples}  # per sample: in a traced round?
        self.is_traced = False
        self.traced_rounds: list[int] = []
        self.calls: dict[str, int] = {}
        self.checked: set[str] = set()
        self.written: list[str] = []
        self.uniform_counts = None
        self.last_uniform = None
        self.census = None

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def output(self, name: str) -> str:
        """A path no earlier call wrote to.

        Truncating and rewriting an existing file makes ext4 flush it first,
        which costs more, and more erratically, than the write itself; a user
        writing one output file does not pay that.
        """
        self.written.append(self.path(f"out{len(self.written)}-{name}"))
        return self.written[-1]

    def discard_outputs(self) -> None:
        for path in self.written:
            os.remove(path)
        self.written.clear()

    def record(self, metric: str, value: float) -> None:
        self.samples[metric].append(value)
        self.traced[metric].append(self.is_traced)

    # -- set-up ------------------------------------------------------------

    def prepare(self) -> None:
        """Write the table file the session loads (untimed input preparation)."""
        self.store.TableSet.build(self.k).save(self.path("table.bin"))
        with open(self.path("table.bin"), "rb") as fh:
            self.table_bytes = fh.read()

    def setup(self) -> None:
        start = time.perf_counter()
        self.tables = self.store.TableSet.load(self.path("table.bin"))
        self.host = self.sampler.load_graph(self.path("host.txt"))
        if self.spec["census_host"] is not None:
            self.census_host = self.sampler.load_graph(self.path("census_host.txt"))
        else:
            self.census_host = self.host
        self.record("setup_s", time.perf_counter() - start)

    # -- the timed operations ------------------------------------------------

    def operations(self) -> dict:
        """Every timed operation but sampling: metric -> (call, work per call)."""
        store, sampler, k = self.store, self.sampler, self.k

        def build(m: int, name: str):
            built = store.TableSet.build(k, m=m, workers=1)
            built.save(self.output(name))
            return built

        def report():
            result = sampler.estimate(self.last_uniform, self.tables, self.host)
            with open(self.output("report.tsv"), "w", encoding="utf-8") as fh:
                sampler.write_report_tsv(result, fh)
            return result

        return {
            "build_s": (lambda: build(1, "oneshot.bin"), 0),
            "split_build_s": (lambda: build(SPLIT_M, "split.bin"), 0),
            "load_s": (lambda: store.TableSet.load(self.path("table.bin")), 0),
            "report_s": (report, 0),
            "subsets_per_s": (lambda: sampler.exhaustive_enumerate(self.census_host, self.tables),
                              math.comb(self.census_host.n, k)),
        }

    def block(self, metric: str, fn, work: int = 0) -> None:
        """Time one block of calls to fn, enough of them to last BLOCK_S.

        The block is one sample of ``metric``: the mean time per call, or
        ``work`` per call divided by it for a rate.  The first call of every
        operation is checked, untimed.
        """
        calls = self.calls.get(metric, 1)
        with self.tracer.span("bench." + metric):
            start = time.perf_counter()
            for _ in range(calls):
                result = fn()
            dt = time.perf_counter() - start
        self.record(metric, work * calls / dt if work else dt / calls)
        self.calls[metric] = max(1, math.ceil(BLOCK_S * calls / dt))
        if metric not in self.checked:
            self.checked.add(metric)
            self.check_operation(metric, result)

    def sample_blocks(self) -> None:
        """One timed block of ``block`` samples per strategy."""
        block = self.spec["block"]
        for strategy, name in zip(self.strategies, STRATEGY_NAMES):
            seed = int(self.seeds.integers(2**31))
            with self.tracer.span("bench.sample"):
                acc, dt = timed(self.sampler.sample_distribution, self.host, self.tables,
                                block, strategy=strategy, seed=seed, workers=1)
            self.record(f"{name}_samples_per_s", block / dt)
            self.check_accumulator(acc, block, f"{name} block")
            if name == "uniform":
                counts = acc.graphette_counts
                self.uniform_counts = counts if self.uniform_counts is None \
                    else self.uniform_counts + counts
                self.last_uniform = acc

    def filler(self, short: dict) -> None:
        """Blocks of sampling and of every short operation, for ``filler_s``.

        Fillers run between the long operations, so that every metric draws
        its samples from the whole run rather than from one window.
        """
        end = time.perf_counter() + self.spec["filler_s"]
        while True:
            self.sample_blocks()
            for metric, (fn, work) in short.items():
                self.block(metric, fn, work)
            if time.perf_counter() >= end:
                return

    def round(self) -> None:
        """A filler, then each long operation once followed by a filler."""
        ops = self.operations()
        short = {name: op for name, op in ops.items() if name not in self.spec["long"]}
        self.filler(short)
        for name in self.spec["long"]:
            self.block(name, *ops[name])
            self.filler(short)
            self.discard_outputs()

    # -- correctness gates ----------------------------------------------------

    def check_operation(self, metric: str, result) -> None:
        """Gates on the first result of each timed operation."""
        check, k = self.checks, self.k
        if metric in ("build_s", "split_build_s"):
            if metric == "build_s":
                check(len(result.catalog) == self.expected["canonicals"],
                      f"k={k}: {len(result.catalog)} canonicals")
                check(result.orbits.total_orbits == self.expected["orbits"],
                      f"k={k}: {result.orbits.total_orbits} orbits")
                check(sha256_file(self.written[-1]) == self.expected["sha256"],
                      f"k={k}: one-shot table sha256 differs from the pinned value")
            with open(self.written[-1], "rb") as fh:
                check(fh.read() == self.table_bytes, f"{metric}: file differs from the table file")
        elif metric == "load_s":
            again = io.BytesIO()
            result.save(again)
            check(again.getvalue() == self.table_bytes, "loaded table saved again differs")
        elif metric == "report_s":
            self.report_bytes = os.path.getsize(self.written[-1])
            self.check_report(self.written[-1])
        elif metric == "subsets_per_s":
            self.check_census(result)
            self.census = result.graphette_counts.copy()

    def check_accumulator(self, acc, n: int, what: str) -> None:
        check, k = self.checks, self.k
        check(acc.n_samples == n and int(acc.graphette_counts.sum()) == n,
              f"{what}: graphette counts sum to {int(acc.graphette_counts.sum())}, not {n}")
        check(int(acc.orbit_counts.sum()) == k * n and int(acc.odv.sum()) == k * n,
              f"{what}: orbit/ODV sums {int(acc.orbit_counts.sum())}/{int(acc.odv.sum())}, "
              f"not {k * n}")

    def check_report(self, path: str) -> None:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        sections = [i for i, line in enumerate(lines) if line.startswith("# ")]
        self.checks(len(sections) == 3, f"report has {len(sections)} sections, not 3")
        if len(sections) == 3:
            g, o, v = sections
            self.checks(o - g - 2 == len(self.tables.catalog),
                        f"report lists {o - g - 2} graphettes")
            self.checks(v - o - 2 == self.tables.orbits.total_orbits,
                        f"report lists {v - o - 2} orbits")
            self.checks(len(lines) - v - 2 == self.host.n,
                        f"report has {len(lines) - v - 2} ODV rows for {self.host.n} nodes")

    def check_census(self, census) -> None:
        host, k = self.census_host, self.k
        counts = census.graphette_counts
        self.checks(int(counts.sum()) == math.comb(host.n, k),
                    f"census counts sum to {int(counts.sum())}, not C({host.n},{k})")
        edges = np.array([bin(int(b)).count("1") for b in self.tables.catalog.canonicals])
        self.checks(int((counts * edges).sum()) == host.edge_count * math.comb(host.n - 2, k - 2),
                    "census edge total differs from m * C(n-2, k-2)")

    def check_uniform_against_census(self) -> None:
        """Uniform draws on the census host: every class within SE_LIMIT errors."""
        n = int(self.uniform_counts.sum())
        p = self.census / self.census.sum()
        q = self.uniform_counts / n
        se = np.sqrt(p * (1 - p) / n)
        bad = np.flatnonzero(np.abs(q - p) > SE_LIMIT * se)
        self.checks(len(bad) == 0,
                    f"uniform frequency of canonicals {bad[:5].tolist()} beyond "
                    f"{SE_LIMIT} standard errors of the census")

    def check_with_networkx(self) -> None:
        """Re-identify seeded draws through networkx, against generator edges."""
        import networkx as nx
        from graphette.core import decode, induced_bits

        ref = np.load(self.path("host_edges.npy"))
        n = int(ref.max()) + 1
        keys = np.sort(ref[:, 0] * n + ref[:, 1])
        ids = [int(name[1:]) for name in self.host.names]
        rng = np.random.default_rng([self.args.seed, 7])
        for strategy in self.strategies:
            for _ in range(NX_DRAWS):
                nodes = self.sampler.draw_sample(self.host, self.k, strategy, rng)
                cid, _ = self.tables.identify(induced_bits(self.host, nodes).bits)
                gid = [ids[u] for u in nodes]
                sub = nx.Graph()
                sub.add_nodes_from(range(self.k))
                for i in range(self.k):
                    for j in range(i):
                        a, b = min(gid[i], gid[j]), max(gid[i], gid[j])
                        key = a * n + b
                        pos = np.searchsorted(keys, key)
                        if pos < len(keys) and keys[pos] == key:
                            sub.add_edge(i, j)
                canonical = nx.Graph()
                canonical.add_nodes_from(range(self.k))
                canonical.add_edges_from(decode(self.tables.catalog.graphette(cid)))
                self.checks(nx.is_isomorphic(sub, canonical),
                            f"{strategy.value} draw {nodes} is not isomorphic to canonical {cid}")

    # -- per-layer metrics from the spans -------------------------------------

    def graphlet_l1(self) -> dict:
        """L1 distance of expansion samples to the census, connected canonicals only.

        On a connected host, expansion draws only connected shapes, so an L1
        over all graphettes would equal twice the census's disconnected mass
        whatever the strategy did.  Both sides are renormalized over the
        connected canonicals.
        """
        connected = self.tables.catalog.connected
        exact = self.census[connected] / self.census[connected].sum()
        out = {}
        for strategy, name in zip(self.strategies[1:], STRATEGY_NAMES[1:]):
            acc = self.sampler.sample_distribution(
                self.census_host, self.tables, self.spec["l1_samples"], strategy=strategy,
                seed=self.args.seed, workers=1)
            drawn = acc.graphette_counts[connected]
            out[f"{name}_graphlet_l1"] = float(np.abs(drawn / drawn.sum() - exact).sum())
        return out

    def layer_metrics(self) -> dict:
        cols = self.tracer.arrays()
        ids = {name: i for i, name in enumerate(self.tracer.names)}
        dur = cols["duration"] / 1e9
        rounds = cols["round"]
        traced = self.traced_rounds

        def named(name):
            return cols["name"] == ids.get(name, -1)

        def med(name):
            values = dur[named(name)]
            return float(np.median(values)) if len(values) else 0.0

        def pct(name, q):
            values = dur[named(name)]
            return float(np.percentile(values, q)) * 1e6 if len(values) else 0.0

        def per_setup(name):
            sel = named(name) & (rounds < 0)
            sums = [dur[sel & (rounds == r)].sum() for r in np.unique(rounds[sel])]
            return float(np.median(sums)) if sums else 0.0

        def per_parent(name, values):
            sel = named(name)
            parents, values = cols["parent"][sel], values[sel]
            sums = [values[parents == p].sum() for p in np.unique(parents)]
            return float(np.median(sums)) if sums else 0.0

        temps = per_parent("canon.sift", cols["count"])
        m = {
            "canon.sweep_s": med("canon.sweep"),
            "canon.sift_s": per_parent("canon.sift", dur),
            "canon.merge_s": med("canon.merge"),
            "canon.temp_canonicals": temps,
            "canon.sift_yield": len(self.tables.catalog) / temps if temps else 0.0,
            "orbits.partitions_s": med("orbits.partitions"),
            "orbits.global_ids_s": med("orbits.global_ids"),
            "store.serialize_s": med("store.serialize"),
            "store.file_bytes": len(self.table_bytes),
            "store.load_s": med("store.load"),
            "store.identify_us.p50": pct("store.identify", 50),
            "store.identify_us.p99": pct("store.identify", 99),
            "core.host_build_s": per_setup("core.host_build"),
            "core.induced_bits_us.p50": pct("core.induced_bits", 50),
            "core.induced_bits_us.p99": pct("core.induced_bits", 99),
            "sampler.load_graph_s": per_setup("sampler.load_graph"),
            "sampler.input_bytes": sum(os.path.getsize(self.path(f)) for f in os.listdir(self.work)
                                       if f.endswith("host.txt")),
        }
        for name in STRATEGY_NAMES:
            m[f"sampler.draw_us.{name}.p50"] = pct(f"sampler.draw.{name}", 50)
            m[f"sampler.draw_us.{name}.p99"] = pct(f"sampler.draw.{name}", 99)
        m["sampler.accumulate_us.p50"] = pct("sampler.accumulate", 50)
        m["sampler.accumulate_us.p99"] = pct("sampler.accumulate", 99)
        m["sampler.enumerate_s"] = med("sampler.enumerate")
        m["sampler.estimate_s"] = med("sampler.estimate")
        m["sampler.write_tsv_s"] = med("sampler.write_tsv")
        m["sampler.report_bytes"] = self.report_bytes
        for layer in tracing.LAYERS:
            layer_ids = [i for name, i in ids.items() if name.startswith(layer + ".")]
            in_layer = np.isin(cols["name"], layer_ids)
            per_round = [cols["self"][in_layer & (rounds == r)].sum() / 1e9 for r in traced]
            m[f"{layer}.self_s"] = float(np.median(per_round)) if per_round else 0.0
        m["trace.overhead_s"] = self.trace_overhead()
        return m

    def trace_overhead(self) -> float:
        """Traced minus untraced time of one call of every timed operation.

        Per operation, the median time of a call (of a sampling block, for a
        sampling rate) in traced rounds minus that in untraced rounds, summed.
        """
        per_call = {name: self.spec["block"] for name in RATES}
        per_call["subsets_per_s"] = math.comb(self.census_host.n, self.k)
        total = 0.0
        for name, values in self.samples.items():
            if name == "setup_s":
                continue
            times = [per_call[name] / v if name in RATES else v for v in values]
            flags = self.traced[name]
            traced = [t for t, f in zip(times, flags) if f]
            plain = [t for t, f in zip(times, flags) if not f]
            total += statistics.median(traced) - statistics.median(plain)
        return total

    # -- the whole run ----------------------------------------------------------

    def run(self) -> dict:
        args = self.args
        trace_on = args.trace == 1
        self.prepare()
        while len(self.samples["setup_s"]) < SETUPS or sum(self.samples["setup_s"]) < SETUP_S:
            gc.collect()
            self.tracer.round = -1 - len(self.samples["setup_s"])
            if trace_on:
                with tracing.instrument(self.tracer):
                    self.setup()
            else:
                self.setup()

        start = time.perf_counter()
        last = 0.0  # wall time of the latest round: start another only if it fits
        index = 0
        while index < MIN_ROUNDS or time.perf_counter() - start + last <= args.seconds:
            round_start = time.perf_counter()
            gc.collect()
            self.tracer.round = index
            is_traced = self.is_traced = trace_on and index % 2 == 1
            if is_traced:
                with tracing.instrument(self.tracer):
                    self.round()
                self.traced_rounds.append(index)
            else:
                self.round()
            last = time.perf_counter() - round_start
            index += 1
        measured_s = time.perf_counter() - start
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        if self.spec["census_host"] is None:
            self.check_uniform_against_census()
        self.check_with_networkx()

        result = {
            "rounds": index,
            "measured_s": measured_s,
            "timings": {name: summary(values, name in RATES)
                        for name, values in self.samples.items()},
            "samples": self.samples,
            "peak_rss_mib": peak_rss_mib,
            "attempted": self.checks.attempted,
            "failures": self.checks.failures,
        }
        if trace_on:
            layer = self.layer_metrics()
            layer.update(self.graphlet_l1())
            result["per_layer"] = layer
            self.tracer.write(self.path("trace.tsv.gz"))
            result["trace_file"] = self.path("trace.tsv.gz")
            result["spans"] = len(self.tracer.start)
        return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True, help="directory holding the inputs")
    parser.add_argument("--out", required=True, help="result JSON path")
    args = parser.parse_args(argv)
    result = Session(args).run()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
