"""Command-line surface: build-table, orbits, query, sample, enumerate.

Data goes to stdout or the requested output file; human-readable summaries
and progress go to stderr.  Exit codes: 0 success, 2 usage, 3 I/O failure,
4 malformed input or table file, 5 enumeration bound exceeded.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import ExitStack

from . import sampler, store
from .core import Graphette, decode, encode
from .orbits import OrbitPartition

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_FORMAT = 4
EXIT_BOUND = 5


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphette",
        description="Precompute graphette canonization tables and sample large graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-table", help="build the canonical map for one k")
    p.add_argument("-k", type=_positive_int, default=5,
                   help="graphette order, 1..8 (default 5)")
    p.add_argument("-m", "--partitions", type=_positive_int, default=1,
                   help="number of sift partitions (default 1: one-shot scan)")
    p.add_argument("-o", "--out", required=True, help="output table file path")

    p = sub.add_parser("orbits", help="list canonicals with their orbit partitions")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("-k", type=_positive_int,
                     help="build the whole table on the fly, 1..8 (k=8 takes 13-17 s and "
                          "2.1 GiB; --table reads a saved file in about 1 s)")
    src.add_argument("--table", help="read canonicals from a table file")
    p.add_argument("-o", "--out", help="output path (default stdout)")

    p = sub.add_parser("query", help="identify one graphette through a table")
    p.add_argument("--table", required=True, help="table file path")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--bits", type=int, help="bit-vector value to look up")
    what.add_argument("--edges", help="edge list literal like '0-1,1-2'")
    p.add_argument("-o", "--out", help="output path (default stdout)")

    p = sub.add_parser("sample", help="sample k-sets from a host graph")
    p.add_argument("--table", required=True, help="table file path")
    p.add_argument("--graph", required=True, help="edge-list file path")
    p.add_argument("-N", "--samples", type=_positive_int, required=True)
    p.add_argument("--strategy", choices=[s.value for s in sampler.SamplingStrategy],
                   default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="split the draws into this many random streams, seeded by "
                        "(seed, stream) and run one after another; the output "
                        "depends only on seed and this count (default 1)")
    p.add_argument("-o", "--out", help="output TSV path (default stdout)")

    p = sub.add_parser("enumerate", help="exact census of every k-subset")
    p.add_argument("--table", required=True, help="table file path")
    p.add_argument("--graph", required=True, help="edge-list file path")
    p.add_argument("--bound", type=_positive_int, default=sampler.DEFAULT_ENUMERATION_BOUND,
                   help="refuse hosts with more k-subsets than this")
    p.add_argument("-o", "--out", help="output TSV path (default stdout)")

    return parser


def _open_out(stack: ExitStack, path: str | None):
    if path is None:
        return sys.stdout
    return stack.enter_context(open(path, "w", encoding="utf-8"))


def _parse_edges_literal(text: str, k: int) -> Graphette:
    edges = []
    if text.strip():
        for chunk in text.split(","):
            ends = chunk.strip().split("-")
            if len(ends) != 2:
                raise ValueError(f"bad edge literal {chunk!r}; expected 'u-v'")
            edges.append((int(ends[0]), int(ends[1])))
    return encode(k, edges)


def _cmd_build_table(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    tables = store.TableSet.build(args.k, m=args.partitions)
    tables.save(args.out)
    elapsed = time.perf_counter() - start
    print(
        f"k={args.k} NC={len(tables.catalog)} orbits={tables.orbits.total_orbits} "
        f"elapsed={elapsed:.2f}s -> {args.out}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_orbits(args: argparse.Namespace) -> int:
    if args.table is not None:
        tables = store.TableSet.load(args.table)
    else:
        tables = store.TableSet.build(args.k)
    catalog = tables.catalog

    with ExitStack() as stack:
        out = _open_out(stack, args.out)
        lines = []
        for cid, labels in enumerate(catalog.orbit_labels.tolist()):
            g = catalog.graphette(cid)
            part = OrbitPartition(g, tuple(labels), len(set(labels)))
            edges = ",".join(f"{i}-{j}" for i, j in sorted(decode(g)))
            groups = ";".join(" ".join(map(str, grp)) for grp in part.groups())
            lines.append(
                f"{cid}\tbits={g.bits}\tedges={edges or '-'}\t"
                f"connected={int(catalog.connected[cid])}\torbits={groups}"
            )
        out.write(f"# k={tables.k} canonicals={len(catalog)} orbits={tables.orbits.total_orbits}\n")
        out.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_query(args: argparse.Namespace) -> int:
    tables = store.TableSet.load(args.table)
    k = tables.k
    if args.bits is not None:
        g = Graphette(k, args.bits)
    else:
        g = _parse_edges_literal(args.edges, k)
    cid, witness, connected = tables.query(g)
    orbit_ids = tables.orbits.node_ids[cid, list(witness.mapping)].tolist()
    with ExitStack() as stack:
        out = _open_out(stack, args.out)
        out.write(
            f"bits={g.bits}\tcanonical_id={cid}\t"
            f"canonical_bits={int(tables.catalog.canonicals[cid])}\t"
            f"witness={','.join(map(str, witness.mapping))}\t"
            f"connected={int(connected)}\t"
            f"orbits={','.join(map(str, orbit_ids))}\n"
        )
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    tables = store.TableSet.load(args.table)
    graph = sampler.load_graph(args.graph)
    start = time.perf_counter()
    acc = sampler.sample_distribution(
        graph,
        tables,
        args.samples,
        strategy=sampler.SamplingStrategy(args.strategy),
        seed=args.seed,
        workers=args.workers,
    )
    report = sampler.estimate(acc, tables, graph)
    with ExitStack() as stack:
        sampler.write_report_tsv(report, _open_out(stack, args.out))
    print(
        f"sampled {args.samples} {tables.k}-sets ({args.strategy}, seed={args.seed}) "
        f"from {graph.n} nodes in {time.perf_counter() - start:.2f}s",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    tables = store.TableSet.load(args.table)
    graph = sampler.load_graph(args.graph)
    acc = sampler.exhaustive_enumerate(graph, tables, bound=args.bound)
    report = sampler.estimate(acc, tables, graph)
    with ExitStack() as stack:
        sampler.write_report_tsv(report, _open_out(stack, args.out))
    print(
        f"enumerated {acc.n_samples} {tables.k}-subsets of {graph.n} nodes",
        file=sys.stderr,
    )
    return EXIT_OK


_COMMANDS = {
    "build-table": _cmd_build_table,
    "orbits": _cmd_orbits,
    "query": _cmd_query,
    "sample": _cmd_sample,
    "enumerate": _cmd_enumerate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except sampler.EnumerationBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (store.TableFileError, sampler.GraphFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
