"""Independent brute-force reference implementations used as test oracles.

Everything here is deliberately naive and stays clear of the library's own
elimination / backtracking code paths, with two exceptions kept as the code
that faster kernels replaced.  The layer survivor reference ranks every
subset separately with gf2.rank_bits, as before the one-pass layer scan.
The DFS references search cycles and C6- paths one vertex per call, as
before the detector's closing sets, and must return the same witnesses.
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


def _index_adjacency(graph):
    """Ascending vertex masks and neighbor sets as index bitmasks, from a CubeSubgraph."""
    masks = list(graph.vertices)
    pos = {m: i for i, m in enumerate(masks)}
    edges = graph.edges if graph.edges is not None else induced_cube_edges(graph.n, masks)
    adj = [0] * len(masks)
    for x, y in edges:
        i, k = pos[x], pos[y]
        adj[i] |= 1 << k
        adj[k] |= 1 << i
    return masks, adj


def first_cycle_dfs(graph, start_lo, start_hi, length):
    """Canonically first cycle of the given length, one DFS call per vertex.

    The generic search before closing sets: starts ascend, every vertex
    lies above the start, the last one lies above the second, and a
    Hamming bound back to the start prunes the second half of the walk.
    """
    masks, adj = _index_adjacency(graph)
    count = len(masks)

    def extend(path, visited, start, above):
        v = path[-1]
        if len(path) == length - 1:
            cand = adj[v] & adj[start] & above & ~visited
            while cand:
                low = cand & -cand
                w = low.bit_length() - 1
                cand ^= low
                if w > path[1]:
                    return path + [w]
            return None
        pos_next = len(path)
        check_dist = 2 * pos_next > length
        start_mask = masks[start]
        budget = length - pos_next
        cand = adj[v] & above & ~visited
        while cand:
            low = cand & -cand
            w = low.bit_length() - 1
            cand ^= low
            if check_dist and (masks[w] ^ start_mask).bit_count() > budget:
                continue
            found = extend(path + [w], visited | low, start, above)
            if found is not None:
                return found
        return None

    for s in range(start_lo, min(start_hi, count)):
        above = -1 << (s + 1)
        found = extend([s], 1 << s, s, above)
        if found is not None:
            return tuple(masks[i] for i in found)
    return None


def first_c6_minus_dfs(graph, start_lo, start_hi):
    """Canonically first 5-edge path whose endpoints differ in one bit.

    The path search before closing sets: the start is the smaller endpoint,
    and every candidate is tested for Hamming distance to it.
    """
    masks, adj = _index_adjacency(graph)
    count = len(masks)

    def extend(path, visited, start_mask, above):
        pos_next = len(path)
        cand = adj[path[-1]] & ~visited
        if pos_next == 5:
            cand &= above
        while cand:
            low = cand & -cand
            w = low.bit_length() - 1
            cand ^= low
            dist = (masks[w] ^ start_mask).bit_count()
            if dist > 6 - pos_next:
                continue
            if pos_next == 5:
                if dist == 1:
                    return path + [w]
                continue
            found = extend(path + [w], visited | low, start_mask, above)
            if found is not None:
                return found
        return None

    for s in range(start_lo, min(start_hi, count)):
        found = extend([s], 1 << s, masks[s], -1 << (s + 1))
        if found is not None:
            return tuple(masks[i] for i in found)
    return None
