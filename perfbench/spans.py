"""In-memory span tracing around the calls into each graphette layer.

Spans are recorded from the benchmark's own code: ``instrument`` swaps the
module attributes through which one layer calls the next (for instance
``graphette.store.build_canonical_map_sequential``) for wrappers that open a
span, call the original, and close the span.  Nothing in the package changes,
and ``instrument`` restores every attribute when its block exits, so untraced
rounds run the original functions.

Each span has an id, a name, start and end times (ns), its parent span, the
run id and the round of the run it belongs to (negative rounds are set-ups).  Spans stay in memory and are written
out once, when the run ends.  A span's self time is its duration minus the
time covered by its child spans (the code is single-threaded, so children
never overlap).
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module path, attribute, span name): the layer boundaries that get spans.
# A name ending in "." is completed with the sampling strategy of the call.
BOUNDARIES = [
    ("graphette.store", "build_canonical_map_sequential", "canon.sweep"),
    ("graphette.store", "build_canonical_map_parallel", "canon.partitioned"),
    ("graphette.canon", "sift_partition", "canon.sift"),
    ("graphette.canon", "merge_siftings", "canon.merge"),
    ("graphette.store", "compute_orbit_partitions", "orbits.partitions"),
    ("graphette.store", "assign_global_orbit_ids", "orbits.global_ids"),
    ("graphette.store", "serialize", "store.serialize"),
    ("graphette.store", "deserialize", "store.load"),
    ("graphette.store", "TableSet.identify", "store.identify"),
    ("graphette.sampler", "HostGraph", "core.host_build"),
    ("graphette.sampler", "induced_bits", "core.induced_bits"),
    ("graphette.sampler", "load_graph", "sampler.load_graph"),
    ("graphette.sampler", "sample_distribution", "sampler.sample"),
    ("graphette.sampler", "draw_sample", "sampler.draw."),
    ("graphette.sampler", "accumulate", "sampler.accumulate"),
    ("graphette.sampler", "exhaustive_enumerate", "sampler.enumerate"),
    ("graphette.sampler", "estimate", "sampler.estimate"),
    ("graphette.sampler", "write_report_tsv", "sampler.write_tsv"),
]

# Work counted where it happens: the temporary canonicals each sift yields.
COUNTS = {"canon.sift": lambda part: len(part.temp_canonicals)}

LAYERS = ("canon", "orbits", "store", "core", "sampler")


class Tracer:
    """Columnar span store: one entry per span, appended as spans open."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.round = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.rounds = array("i")
        self.start = array("q")
        self.end = array("q")
        self.count = array("q")  # work counted at the boundary, -1 if none
        self._stack: list[int] = []

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.rounds.append(self.round)
        self.end.append(0)
        self.count.append(-1)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.open(self.intern(name))
        try:
            yield sid
        finally:
            self.close(sid)

    def wrap(self, fn, name: str, count=None):
        """fn wrapped in a span; ``count(result)`` is stored with the span."""
        if name.endswith("."):
            ids = {}

            def traced(*args, **kwargs):
                strategy = args[2] if len(args) > 2 else kwargs["strategy"]
                nid = ids.get(strategy)
                if nid is None:
                    nid = ids[strategy] = self.intern(name + strategy.value)
                sid = self.open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(sid)
        else:
            nid = self.intern(name)

            def traced(*args, **kwargs):
                sid = self.open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(sid)
                if count is not None:
                    self.count[sid] = count(result)
                return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy columns, with duration and self time in ns."""
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                              minlength=len(start))
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": parent,
            "round": np.frombuffer(self.rounds, dtype=np.int32),
            "start": start,
            "end": end,
            "duration": duration,
            "self": duration - covered.astype(np.int64),
            "count": np.frombuffer(self.count, dtype=np.int64),
        }

    def write(self, path: str) -> None:
        """Write every span as one gzip'd TSV row."""
        cols = self.arrays()
        header = "run_id\tspan_id\tparent_id\tround\tname\tstart_ns\tend_ns\tself_ns\tcount\n"
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write(header)
            rows = zip(range(len(cols["start"])), cols["parent"].tolist(),
                       cols["round"].tolist(), cols["name"].tolist(),
                       cols["start"].tolist(), cols["end"].tolist(),
                       cols["self"].tolist(), cols["count"].tolist())
            names = self.names
            run_id = self.run_id
            fh.writelines(
                f"{run_id}\t{sid}\t{par}\t{rnd}\t{names[nid]}\t{s}\t{e}\t{own}\t{cnt}\n"
                for sid, par, rnd, nid, s, e, own, cnt in rows
            )


@contextmanager
def instrument(tracer: Tracer):
    """Route every layer boundary in BOUNDARIES through tracer spans."""
    saved = []
    try:
        for module_path, attr_path, name in BOUNDARIES:
            owner = importlib.import_module(module_path)
            *classes, attr = attr_path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = vars(owner).get(attr)
            if original is None:
                continue  # this boundary does not exist in this version of the package
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, COUNTS.get(name)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
