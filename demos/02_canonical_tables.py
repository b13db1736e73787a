#!/usr/bin/env python3
# Building the canonical lookup table: every bit vector points at the lowest
# isomorphic bit vector (its canonical), with a witness permutation that
# carries the graphette onto it.

import tempfile
from pathlib import Path

from graphette import Graphette, apply_permutation, decode
from graphette.store import TableSet

tables = TableSet.build(4)
catalog = tables.catalog
print(f"k=4: {2**6} bit vectors fall into {len(catalog)} canonical classes")
print(f"total automorphism orbits: {tables.orbits.total_orbits}\n")

for cid in range(len(catalog)):
    g = catalog.graphette(cid)
    members = sum(tables.table.read(b)[0] == cid for b in range(len(tables.table)))
    print(f"  canonical {cid:2d}: bits={g.bits:2d} edges={sorted(decode(g))!s:42} "
          f"connected={bool(catalog.connected[cid])!s:5}  class size={members}")

# Look up an arbitrary bit vector: witness maps it onto its canonical.
g = Graphette(4, 0b100110)
cid, witness, connected = tables.query(g)
print(f"\nquery bits={g.bits}: canonical={int(catalog.canonicals[cid])} "
      f"witness={witness.mapping} connected={connected}")
print("witness verifies:",
      apply_permutation(g, witness).bits == int(catalog.canonicals[cid]))

# Class sizes sum to the whole space, and larger m never changes the bytes.
with tempfile.TemporaryDirectory() as tmp:
    one = Path(tmp) / "one.table"
    four = Path(tmp) / "four.table"
    TableSet.build(4, m=1).save(one)
    TableSet.build(4, m=4).save(four)
    print("\npartitioned build byte-identical:",
          one.read_bytes() == four.read_bytes())
    print("file size:", one.stat().st_size, "bytes")
