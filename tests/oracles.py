"""Independent brute-force reference implementations used as test oracles.

Everything here is deliberately naive and stays clear of the library's own
elimination / backtracking code paths, with three exceptions kept as the
code that faster kernels replaced.  The layer survivor reference ranks every
subset separately with gf2.rank_bits, as before the one-pass layer scan.
The DFS references search cycles and C6- paths one vertex per call, as
before the detector's closing sets, and must return the same witnesses.
The coloring references parse and validate a certificate as a dict keyed
by (base, coord), as before the one-byte-per-edge layout.  The color-class
references split a union through CubeSubgraph.explicit over the set of its
vertices, as before bounds built the class graphs straight from the layers.
The layer-graph references find the edges, write the layer file and scan
for subcube patterns by probing the sets of the two sides, as before a
layer graph carried the edge mask of each lower vertex.
"""

from fractions import Fraction
from itertools import combinations, permutations, product

from qturan.bounds import PipelineOutcome, coloring_problems, edge_slot, make_report
from qturan.cube import CapacityError, cube_edge_count, subsets_of_size
from qturan.detector import CubeSubgraph, SubcubePattern, find_cycle_generic
from qturan.gf2 import rank_bits

EXPECTATION_CAP = 10**7


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


def edge_pairs_by_probe(g):
    """The edges of a layer graph ordered by (lower mask, upper mask),
    probing the upper set once per clear bit of each lower vertex."""
    full, upper = (1 << g.layer.n) - 1, set(g.upper)
    for x in sorted(g.lower):
        free = full ^ x
        while free:
            bit = free & -free
            free ^= bit
            if (x | bit) in upper:
                yield x, x | bit


def format_layer_graph_by_probe(g):
    """The layer file of g, written from edge_pairs_by_probe and both sides sorted."""
    lines = [f"# qn n={g.layer.n}"]
    for x, y in edge_pairs_by_probe(g):
        lines.append(f"{x:x} {y:x}")
    lines.append(f"# layer r={g.layer.r}")
    lines.append("# lower")
    lines.extend(f"{x:x}" for x in sorted(g.lower))
    lines.append("# upper")
    lines.extend(f"{y:x}" for y in sorted(g.upper))
    return "\n".join(lines) + "\n"


def find_c6_structured_by_probe(g):
    """The first subcube pattern of a layer graph whose six vertices lie in
    the sets of its two sides: cores in increasing mask order, axis triples
    lexicographically."""
    n, r = g.layer.n, g.layer.r
    if r < 2 or n - (r - 2) < 3:
        return None
    lower, upper = set(g.lower), set(g.upper)
    for core in subsets_of_size(n, r - 2):
        hits = [i for i in range(n) if not (core >> i) & 1 and (core | (1 << i)) in lower]
        if len(hits) < 3:
            continue
        for a, b, c in combinations(hits, 3):
            if (
                (core | (1 << a) | (1 << b)) in upper
                and (core | (1 << a) | (1 << c)) in upper
                and (core | (1 << b) | (1 << c)) in upper
            ):
                return SubcubePattern(core, (a, b, c))
    return None


def exact_expected_edges(n, r):
    """Mean edge count over all (2^r - 1)^n assignments, as an exact rational.

    Brute-force enumeration with the anchor fixed to e_1, independent of the
    closed-form probability so that the two can cross-check.
    """
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    states = ((1 << r) - 1) ** n
    if states > EXPECTATION_CAP:
        raise CapacityError(f"{states} assignments exceed the enumeration cap {EXPECTATION_CAP}")
    total = 0
    for vector_bits in product(range(1, 1 << r), repeat=n):
        total += edge_count_sets(n, *survivor_sets(n, r, 1, vector_bits))
    return Fraction(total, states)


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


def parse_coloring_dict(text):
    """Coloring text to (n, {(base, coord): color}), one dict entry per line.

    The parser before the one-byte-per-edge certificate; the library's
    parser must accept the same texts, with the same colors, and raise the
    same messages.
    """
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# qn-coloring n="):
        raise ValueError("coloring file must start with '# qn-coloring n=<n>'")
    try:
        n = int(lines[0].split("=", 1)[1])
    except ValueError as exc:
        raise ValueError(f"bad coloring header: {lines[0]!r}") from exc
    if n < 1:
        raise ValueError(f"bad ground-set size in header: {n}")
    colors = {}
    duplicates = []
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected '<hex-mask> <coord> <color>', got {line!r}")
        try:
            base, coord, color = int(parts[0], 16), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad hex mask or number in {line!r}") from exc
        if not 0 <= coord < n or base >> n or (base >> coord) & 1:
            raise ValueError(f"line {lineno}: (0x{base:x}, {coord}) is not an edge of Q_{n}")
        if color not in range(3):
            raise ValueError(f"line {lineno}: color must be 0..2, got {color}")
        if (base, coord) in colors:
            duplicates.append(f"line {lineno}: duplicate edge (0x{base:x}, {coord})")
        colors[(base, coord)] = color
    if duplicates:
        raise ValueError("; ".join(duplicates))
    return n, colors


def coloring_dict_problems(n, colors, limit=10):
    """Defects of a {(base, coord): color} coloring of E(Q_n); empty iff valid.

    The validator before the one-byte-per-edge certificate: non-edge keys
    and bad colors in key order, then the missing edges in (base, coord)
    order.
    """
    problems = []
    covered = 0
    for key, color in colors.items():
        base, coord = key
        if not (0 <= coord < n and 0 <= base and not base >> n and not base >> coord & 1):
            problems.append(f"key {key} is not an edge of Q_{n}")
            continue
        covered += 1
        if color not in range(3):
            problems.append(f"edge {key} has color {color}, expected 0..2")
    if covered < n << (n - 1):
        for base, coord in ((b, j) for b in range(1 << n) for j in range(n)):
            if len(problems) >= limit:
                break
            if not base >> coord & 1 and (base, coord) not in colors:
                problems.append(f"edge (0x{base:x}, coord {coord}) is missing")
    return problems[:limit]


def coloring_bytes(n, colors, unset=0xFF):
    """A {(base, coord): color} map in the certificate's byte layout.

    Slots run coordinate by coordinate; within coordinate j they follow the
    bases with bit j clear in increasing order.  Edges absent from the map
    hold `unset`.
    """
    order = [
        (base, coord) for coord in range(n) for base in range(1 << n) if not base >> coord & 1
    ]
    return bytes(colors.get(key, unset) for key in order)


def color_classes(union, colors):
    """The union's edges split by their certificate color, in edge_pairs order."""
    n = union.n
    classes = [[] for _ in range(3)]
    for g in union.layers.values():
        for x, y in edge_pairs_by_probe(g):
            classes[colors[edge_slot(n, x, (x ^ y).bit_length() - 1)]].append((x, y))
    return classes


def explicit_class_graphs(union, colors):
    """One CubeSubgraph.explicit per color class, over the set of all the
    union's vertices."""
    vertices = set()
    for g in union.layers.values():
        vertices |= set(g.lower) | set(g.upper)
    classes = color_classes(union, colors)
    return [CubeSubgraph.explicit(union.n, vertices, edges) for edges in classes]


def explicit_c10_pipeline(union, cert):
    """bounds.c10_pipeline over explicit_class_graphs, run serially."""
    if cert.n != union.n:
        raise ValueError(f"certificate is for n={cert.n}, union graph has n={union.n}")
    problems = coloring_problems(cert)
    if problems:
        raise ValueError("invalid coloring certificate: " + "; ".join(problems))
    graphs = explicit_class_graphs(union, cert.colors)
    counts = tuple(len(sub.edges) for sub in graphs)
    free = []
    witnesses = {}
    for k, sub in enumerate(graphs):
        witness = find_cycle_generic(sub, 10)
        if witness is None:
            free.append(k)
        else:
            witnesses[k] = witness
    if not free:
        return PipelineOutcome(False, None, counts, (), witnesses, None, None)
    best = min(free, key=lambda k: (-counts[k], k))
    report = make_report(union.n, None, "final", counts[best], cube_edge_count(union.n), "c/12")
    return PipelineOutcome(True, best, counts, tuple(free), witnesses, graphs[best], report)
