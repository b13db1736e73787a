#!/usr/bin/env python3
# Automorphism group sizes and node orbits, read off canonical lookup tables.
#
# Nodes in the same orbit are topologically interchangeable: some
# automorphism maps one onto the other.  A table build finds each
# canonical's automorphisms in its own sweep and stores every node's orbit
# label (the minimum node index in its orbit); nothing is recomputed here.

from math import factorial

import numpy as np

from graphette import decode, encode
from graphette.store import TableSet

tables = {k: TableSet.build(k) for k in (4, 5)}


def automorphism_counts(t: TableSet) -> np.ndarray:
    """|Aut(c)| for every canonical c: the k! relabelings of c hit each member
    of its class |Aut(c)| times, so |Aut(c)| = k! / (class size)."""
    cids, _ = t.table.read_batch(np.arange(len(t.table)))
    return factorial(t.k) // np.bincount(cids, minlength=len(t.catalog))


def canonical_orbits(t: TableSet, cid: int) -> list[tuple[int, ...]]:
    """Orbits of canonical cid as node tuples: nodes grouped by label, labels ascending."""
    labels = t.catalog.orbit_labels[cid].tolist()
    return [tuple(u for u, x in enumerate(labels) if x == label) for label in sorted(set(labels))]


def describe(name: str, g) -> None:
    t = tables[g.k]
    cid = t.query(g)[0]
    ids = [t.node_orbit(g, u) for u in range(g.k)]  # global orbit id per node of g
    groups = sorted({tuple(u for u in range(g.k) if ids[u] == i) for i in ids})
    print(f"{name}: |Aut| = {automorphism_counts(t)[cid]}, orbits: {groups}")
    print(f"  its canonical bits={t.catalog.canonicals[cid]}:",
          "orbits", canonical_orbits(t, cid))


# A path on 4 nodes: 0-1-2-3. Its only symmetry is the end-for-end flip,
# so the ends {0,3} share one orbit and the middles {1,2} another.
describe("path 0-1-2-3", encode(4, [(0, 1), (1, 2), (2, 3)]))

# A 5-cycle is vertex-transitive: 10 automorphisms, one orbit.
describe("\n5-cycle", encode(5, [(i, (i + 1) % 5) for i in range(5)]))

# Every k=4 class with its group size; the class sizes k!/|Aut| fill 2^6.
t4 = tables[4]
auts = automorphism_counts(t4)
print("\nk=4 canonicals:")
for cid in range(len(t4.catalog)):
    g = t4.catalog.graphette(cid)
    print(f"  {cid:2d}: edges={sorted(decode(g))!s:50} |Aut|={auts[cid]:2d}  "
          f"orbits={canonical_orbits(t4, cid)}")
print("class sizes sum to", int((factorial(4) // auts).sum()), "= 2^6 bit vectors")
print("orbit total:", t4.orbits.total_orbits)
