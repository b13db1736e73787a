"""Graphette benchmark: seeded workloads through the package's public functions.

    python3 perfbench/run.py --workload sample --seed 1 --seconds 52 --trace 0

Run from the root of a checkout.  For each workload this script generates the
host graphs from ``--seed`` with numpy, writes them as edge-list files, and
starts ``session.py`` in a fresh process that sees only those files (and the
package under ``src/``).  It prints every metric with its unit, then, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``, the
per-layer metrics with ``--trace 1``.

``--workload all --trace both`` (the defaults) runs every workload untraced
and traced and prints everything; its last line nests the metrics by run.
The full record of each run, with machine facts, host facts and percentiles,
is written to ``perfbench/out/``; traced runs also leave their spans there.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

import numpy as np

import hosts
from session import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 170


def read_text(path: str) -> str | None:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def machine_facts() -> dict:
    meminfo = read_text("/proc/meminfo") or ""
    ram_kib = next((int(line.split()[1]) for line in meminfo.splitlines()
                    if line.startswith("MemTotal:")), None)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "graphette", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "ram_gib": round(ram_kib / 2**20, 2) if ram_kib else None,
        "l3": read_text("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "notes": "measured on a 2-core, 7 GiB machine; every call uses workers=1, since the "
                 "thread pool measures slower than one worker and process scaling is not "
                 "measurable on 2 cores",
    }


def prepare_inputs(workload: str, seed: int, work: str) -> list[dict]:
    """Generate the workload's hosts from the seed and write them as files."""
    spec = WORKLOADS[workload]
    facts = []
    for stream, (role, host_spec) in enumerate((("host", spec["host"]),
                                                 ("census_host", spec["census_host"]))):
        if host_spec is None:
            continue
        host = hosts.generate(host_spec, seed, stream)
        size = hosts.write_edge_list(host, os.path.join(work, f"{role}.txt"), seed, stream)
        if role == "host":
            np.save(os.path.join(work, "host_edges.npy"), host.edges)
        facts.append({"role": role, **host.facts(), "file_bytes": size})
    return facts


def run_one(workload: str, seed: int, seconds: float, trace: int, bench: dict) -> dict:
    tag = f"{workload}-s{seed}-t{trace}"
    work = os.path.join(HERE, "work", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    host_facts = prepare_inputs(workload, seed, work)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"  # str hashing, and so dict layout, the same in every run
    # glibc's malloc thresholds fixed where its dynamic ones end up once a
    # process has freed a large buffer (32 MiB to map, twice that to trim),
    # so whether a 16 MiB buffer reuses heap memory no longer depends on the
    # history of the process.
    env["GLIBC_TUNABLES"] = ("glibc.malloc.mmap_threshold=33554432:"
                             "glibc.malloc.trim_threshold=67108864")
    out_path = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "session.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work", work, "--out", out_path]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{tag}: session exited with code {proc.returncode}")
    with open(out_path, encoding="utf-8") as fh:
        result = json.load(fh)

    if trace:
        metrics = {m["name"]: {"value": result["per_layer"][m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        values = {name: t["median"] for name, t in result["timings"].items()}
        values["peak_rss_mib"] = result["peak_rss_mib"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    operations = sum(t["n"] for t in result["timings"].values())
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "wall_s": time.perf_counter() - start,
        "machine": machine_facts(),
        "hosts": host_facts,
        "rounds": result["rounds"],
        "measured_s": result["measured_s"],
        "timings": result["timings"],
        "samples": result["samples"],
        "attempted": result["attempted"] + operations,
        "failed": len(result["failures"]),
        "failures": result["failures"],
        "metrics": metrics,
    }
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    if trace:
        record["spans"] = result["spans"]
        trace_path = os.path.join(HERE, "out", f"{tag}-spans.tsv.gz")
        shutil.move(result["trace_file"], trace_path)
        record["trace_file"] = os.path.relpath(trace_path, ROOT)
    record["failed_ratio"] = record["failed"] / record["attempted"]
    with open(os.path.join(HERE, "out", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(work, ignore_errors=True)
    return record


def print_record(record: dict) -> None:
    kind = "per-layer (traced)" if record["trace"] else "end-to-end (untraced)"
    print(f"== {record['workload']} seed={record['seed']} {kind}: {record['rounds']} rounds, "
          f"{record['wall_s']:.1f} s wall")
    for h in record["hosts"]:
        print(f"   host {h['role']}: {h['name']} n={h['n']} m={h['m']} "
              f"max_degree={h['max_degree']} gen_s={h['gen_s']:.3f} file_bytes={h['file_bytes']}")
    for name, m in record["metrics"].items():
        timing = record["timings"].get(name, {})
        extra = "  ".join(f"{key}={value:.6g}" for key, value in timing.items()
                          if key != "median")
        print(f"   {name:30s} {m['value']:<14.6g} {m['unit']:6s} {extra}")
    print(f"   {'failed_ratio':30s} {record['failed_ratio']:<14.6g} 1      "
          f"failed={record['failed']} attempted={record['attempted']}")
    for failure in record["failures"]:
        print(f"   FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=52)
    parser.add_argument("--trace", default="both", choices=["0", "1", "both"])
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "graphette", "__init__.py")):
        print(f"error: no graphette package under {os.path.join(ROOT, 'src')}; "
              "run from the root of a graphette checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [0, 1] if args.trace == "both" else [int(args.trace)]
    records = []
    try:
        for workload in workloads:
            for trace in traces:
                record = run_one(workload, args.seed, args.seconds, trace, bench)
                print_record(record)
                records.append(record)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.t{r['trace']}": r["metrics"] for r in records}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
