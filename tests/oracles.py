"""Independent brute-force reference implementations used as test oracles.

Everything here is deliberately naive and stays clear of the library's own
elimination / backtracking code paths, except the layer survivor reference,
which ranks every subset separately with gf2.rank_bits: it is the per-subset
code the one-pass layer scan in construction replaced.
"""

from itertools import combinations, permutations

from qturan.gf2 import rank_bits


def span_bits(vectors):
    """The full GF(2) span of int bitset vectors, as a set of ints."""
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return span


def rank_by_subset_search(vectors):
    """Size of a maximal independent subset, brute-forced over all subsets.

    A subset is independent iff its span has full size 2^k.
    """
    for size in range(len(vectors), 0, -1):
        for subset in combinations(vectors, size):
            if len(span_bits(subset)) == 1 << size:
                return size
    return 0


def is_basis_by_span(vectors, dim):
    return len(vectors) == dim and len(span_bits(vectors)) == 1 << dim


def _edge_set(edges):
    return {(min(x, y), max(x, y)) for x, y in edges}


def has_cycle_naive(vertices, edges, length):
    """Exhaustive simple-cycle existence by enumerating vertex tuples."""
    edge_set = _edge_set(edges)
    verts = sorted(vertices)
    for combo in combinations(verts, length):
        first, rest = combo[0], combo[1:]
        for perm in permutations(rest):
            if perm[0] > perm[-1]:
                continue  # each cycle once per direction
            cycle = (first,) + perm
            ok = True
            for i in range(length):
                a, b = cycle[i], cycle[(i + 1) % length]
                if (min(a, b), max(a, b)) not in edge_set:
                    ok = False
                    break
            if ok:
                return True
    return False


def has_c6_minus_naive(vertices, edges):
    """Exhaustive 5-edge-path search with endpoints at Hamming distance 1."""
    edge_set = _edge_set(edges)
    verts = sorted(vertices)
    for combo in combinations(verts, 6):
        for perm in permutations(combo):
            if perm[0] > perm[-1]:
                continue
            if (perm[0] ^ perm[-1]).bit_count() != 1:
                continue
            if all(
                (min(perm[i], perm[i + 1]), max(perm[i], perm[i + 1])) in edge_set
                for i in range(5)
            ):
                return True
    return False


def induced_cube_edges(n, vertices):
    """All hypercube edges with both endpoints in the vertex set."""
    vert_set = set(vertices)
    out = []
    for x in vertices:
        for j in range(n):
            y = x | (1 << j)
            if y != x and y in vert_set:
                out.append((x, y))
    return out


def survivor_sets(n, r, anchor_bits, vector_bits):
    """Lower and upper survivors of a layer, one rank computation per subset."""
    lower = set()
    for subset in combinations(range(n), r - 1):
        if rank_bits([anchor_bits] + [vector_bits[i] for i in subset]) == r:
            lower.add(sum(1 << i for i in subset))
    upper = set()
    for subset in combinations(range(n), r):
        if rank_bits(vector_bits[i] for i in subset) == r:
            upper.add(sum(1 << i for i in subset))
    return lower, upper


def edge_count_sets(n, lower, upper):
    """Inclusion pairs between the two sides, probing upper once per candidate."""
    total = 0
    for x in lower:
        for j in range(n):
            bit = 1 << j
            if not x & bit and (x | bit) in upper:
                total += 1
    return total
