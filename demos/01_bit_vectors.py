#!/usr/bin/env python3
# A tour of the graphette representation: small graphs packed into integers.
#
# A k-node graphette stores the lower triangle of its adjacency matrix in a
# bit vector: edge {i,j} with i > j lives at bit i*(i-1)/2 + j, LSB first.

from graphette import (
    Graphette,
    Permutation,
    apply_permutation,
    bit_length,
    decode,
    encode,
    is_connected,
)


def degree_sequence(g: Graphette) -> list[int]:
    """Node degrees in non-decreasing order, counted off the edge set."""
    return sorted(sum(u in edge for edge in decode(g)) for u in range(g.k))


# The triangle on 3 nodes uses all b(3) = 3 bits.
triangle = encode(3, [(0, 1), (0, 2), (1, 2)])
print("triangle:", triangle)                      # bits = 0b111 = 7
print("edges back out:", sorted(decode(triangle)))

# A single edge {1,2} sits at bit position p(2,1) = 2.
one_edge = encode(3, [(1, 2)])
print("\none edge {1,2}:", bin(one_edge.bits), "->", sorted(decode(one_edge)))
print("degrees:", degree_sequence(one_edge), "connected:", is_connected(one_edge))

# Relabeling nodes permutes the bits. Send 0->2, 1->1, 2->0:
swapped = apply_permutation(one_edge, Permutation((2, 1, 0)))
print("after relabeling:", sorted(decode(swapped)), "bits =", swapped.bits)

# The complement flips every possible edge: XOR with all b(k) bits set.
print("\ncomplement of the empty 4-graphette:",
      bin(Graphette(4, 0).bits ^ (1 << bit_length(4)) - 1))

# All 8 bit vectors on 3 nodes, with their structure:
print("\nall 3-node graphettes:")
for bits in range(8):
    g = Graphette(3, bits)
    print(f"  bits={bits}  edges={sorted(decode(g))!s:24} "
          f"degrees={degree_sequence(g)}  connected={is_connected(g)}")
