"""Independent brute-force reference implementations used as test oracles.

Everything here is deliberately naive and stays clear of the library's own
elimination / backtracking code paths, except for the references kept as
the code that faster kernels replaced.  The layer survivor reference ranks
every subset separately with gf2.rank_bits, as before the one-pass layer
scan.
The DFS references search cycles and C6- paths one vertex per call, as
before the detector's closing sets, and must return the same witnesses.
The closing-set references run those DFSs, with the closing sets, from
every start in turn, as before a meet-in-the-middle test picked the cycle
start, or decided each C6- start whose ends are all joined to it.
The coloring references parse and validate a certificate as a dict keyed
by (base, coord), as before the one-byte-per-edge layout.  The
coordinate-major reference parses into the byte layout the certificate had
before file order, with the any-order bulk path for canonical chunks.
The color-class references split a union through CubeSubgraph.explicit
over the set of its vertices, as before bounds built the class graphs
straight from the layers, or from the union's masks merged into one graph
and searched whole, as before bounds split and searched one layer at a
time.
The neighbor-map reference probes a vertex set or walks a sorted edge list,
as before a CubeSubgraph held the edge mask of each vertex.
The coordinate-probe references find a vertex's ends one bit up by
probing every coordinate some vertex holds, for the edge masks of an
induced graph and for the C6- ends that a start's edges miss, as before
cube.upward_pairs walked the set bits of the vertices above.
The layer-graph references find the edges, write the layer file and scan
for subcube patterns by probing the sets of the two sides, as before a
layer graph carried the edge mask of each lower vertex.
The quotient routine reduces a vector by the fully reduced echelon form
of the basis.  explain_c6_impossibility runs it to recompute the paper's
quotient argument for one subcube pattern: which of the seven basis
conditions an assignment breaks there.
The two-level layer scan is the survivor scan as it was before its last
three levels were emitted inline.
The dependency reference lists the null space of a set of columns by
trying every combination of them.
The rank certificate is the rank rule written out as one color per edge,
the route that bounds' rule split replaces.
"""

import re
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, count, permutations, product
from operator import or_

from qturan import bounds
from qturan.bounds import ColoringCertificate, PipelineOutcome, coloring_problems, edge_slot, make_report
from qturan.cube import (
    CapacityError,
    bit_indices,
    cube_edge_count,
    require_capacity,
    subsets_of_size,
    upward_edges,
)
from qturan.detector import CubeSubgraph, SubcubePattern, _c6_minus_from, _cycle_at, _neighbor_map, find_cycle_generic
from qturan.gf2 import GF2Vec, rank_bits
from qturan.record import Record

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


def column_dependencies(columns):
    """Every combination of the columns that sums to zero, as a set of index
    masks, found by trying all 2^len(columns) of them."""
    found = set()
    for z in range(1 << len(columns)):
        total = 0
        for j in bit_indices(z):
            total ^= columns[j]
        if total == 0:
            found.add(z)
    return found


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


def upper_side_by_bit_loop(lower, masks):
    """The upper side of a generated layer as construction._scanned_graph
    built it: every edge end x | 1 << j added to a set bit by bit, sorted."""
    upper = set()
    for x, m in zip(lower, masks):
        while m:
            bit = m & -m
            m ^= bit
            upper.add(x | bit)
    return tuple(sorted(upper))


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
    adj = [0] * len(masks)
    for i, (x, up) in enumerate(zip(masks, graph.edge_masks)):
        for j in range(graph.n):
            if up >> j & 1:
                k = pos[x | 1 << j]
                adj[i] |= 1 << k
                adj[k] |= 1 << i
    return masks, adj


def neighbor_map_by_probe(n, vertices, edges):
    """Each vertex mapped to its neighbors in ascending order, from sorted
    vertices and an edge list, or None for the subgraph they induce.

    The map builder before a CubeSubgraph held edge masks: induced graphs
    probe the vertex set for x - 2^j by descending j, then x + 2^j by
    ascending j; explicit graphs append over the sorted edges.
    """
    if edges is None:
        vertex = {x: x for x in vertices}.get
        flips = [1 << j for j in range(n)]
        down = flips[::-1]
        return {
            x: tuple(
                [y for b in down if x & b and (y := vertex(x ^ b)) is not None]
                + [y for b in flips if not x & b and (y := vertex(x | b)) is not None]
            )
            for x in vertices
        }
    # In sorted order the edges (w, x) with w < x all come before the edges
    # (x, y) with x < y, so each tuple grows in ascending order.
    nbrs = dict.fromkeys(vertices, ())
    for x, y in sorted(edges):
        nbrs[x] += (y,)
        nbrs[y] += (x,)
    return nbrs


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


def first_cycle_closing_sets(graph, start_lo, start_hi, length):
    """Canonically first cycle of the given length, by the closing-set DFS
    from every start in turn.

    The generic search before the meet-in-the-middle test chose its start:
    the last two levels are tests against the start's closers (its
    neighbors above it, at least two) and their neighbors above it.
    """
    nbrs = _neighbor_map(graph)
    last = length - 2  # the last position chosen by a loop; position length-1 closes
    found = None

    def extend(path, s, closers, reach):
        pos_next = len(path)
        if pos_next == last:
            first = path[1]
            for w in nbrs[path[-1]]:
                if w in reach and w not in path:
                    for c in nbrs[w]:
                        if c > first and c in closers and c not in path:
                            return path + [w, c]
            return None
        check_dist = 2 * pos_next > length
        budget = length - pos_next
        for w in nbrs[path[-1]]:
            if w <= s or w in path:
                continue
            if check_dist and (w ^ s).bit_count() > budget:
                continue
            found = extend(path + [w], s, closers, reach)
            if found is not None:
                return found
        return None

    for s in graph.vertices[start_lo:start_hi]:
        closers = {c for c in nbrs[s] if c > s}
        if len(closers) < 2:
            continue
        reach = {w for c in closers for w in nbrs[c] if w > s}
        found = extend([s], s, closers, reach)
        if found is not None:
            break
    # extend refers to itself through its closure, a reference cycle that
    # would keep nbrs alive until the cyclic collector next runs
    del extend
    return None if found is None else tuple(found)


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


def first_c6_minus_closing_sets(graph, start_lo, start_hi):
    """Canonically first 5-edge path whose endpoints differ in one bit, by
    the closing-set DFS from every start in turn.

    The path search before the meet-in-the-middle test decided the starts
    whose ends are all joined to them: the ends are the vertices above s at
    Hamming distance 1, found by probing every coordinate, and the vertex
    before the end must be a neighbor of one.
    """
    nbrs = _neighbor_map(graph)
    flips = [1 << j for j in range(graph.n)]
    for s in graph.vertices[start_lo:start_hi]:
        ends = {e for b in flips if not s & b and (e := s | b) in nbrs}
        if not ends:
            continue
        reach = {w for e in ends for w in nbrs[e]}
        for v1 in nbrs[s]:
            for v2 in nbrs[v1]:
                if v2 == s:
                    continue
                for v3 in nbrs[v2]:
                    if v3 == s or v3 == v1:
                        continue
                    for v4 in nbrs[v3]:
                        if v4 not in reach or v4 == s or v4 == v1 or v4 == v2:
                            continue
                        for v5 in nbrs[v4]:
                            if v5 in ends and v5 != v1 and v5 != v2 and v5 != v3:
                                return (s, v1, v2, v3, v4, v5)
    return None


def upward_masks_by_probe(vertices, present):
    """For each vertex x, the mask of the coordinates j outside x with
    x | 1 << j in present, probing every coordinate that some member of
    present holds: LayerSubgraph.induced's edge masks before the walk."""
    used, masks = reduce(or_, present, 0), []
    for x in vertices:
        free, m = used & ~x, 0
        while free:
            bit = free & -free
            free ^= bit
            if x | bit in present:
                m |= bit
        masks.append(m)
    return masks


def first_c6_minus_by_probe(graph, start_lo, start_hi):
    """detector._first_c6_minus_in_range before the walk: each start
    probes the used coordinates outside it and its edges upward for the
    ends the graph holds but does not join to it, when some vertex has one
    bit more than it."""
    nbrs = _neighbor_map(graph)
    used = reduce(or_, graph.vertices, 0)
    popcounts = set(map(int.bit_count, graph.vertices))
    starts = slice(start_lo, start_hi)
    for s, up in zip(graph.vertices[starts], graph.edge_masks[starts]):
        joined = nbrs[s][-up.bit_count() :] if up else ()
        unjoined = set()
        free = used & ~(s | up) if s.bit_count() + 1 in popcounts else 0
        while free:
            b = free & -free
            free ^= b
            if (s | b) in nbrs:
                unjoined.add(s | b)
        if unjoined:
            found = _c6_minus_from(nbrs, s, unjoined.union(joined))
            if found is not None:
                return found
        elif len(joined) > 1 and _cycle_at(nbrs, s, joined, 3) is not None:
            return _c6_minus_from(nbrs, s, set(joined))
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

    Slots follow the edges in (base, coord) order, the order of the lines
    of format_coloring.  Edges absent from the map hold `unset`.
    """
    order = [(base, coord) for base in range(1 << n) for coord in range(n) if not base >> coord & 1]
    return bytes(colors.get(key, unset) for key in order)


def edge_slot_by_coordinate(n, base, coord):
    """The slot of edge (base, coord) in the coordinate-major layout, before
    file order: coord * 2^(n-1) + (base with bit coord deleted)."""
    return coord << (n - 1) | (base >> (coord + 1)) << coord | base & ((1 << coord) - 1)


# A chunk is canonical when it starts with a canonical line and every
# newline in it ends the chunk or is followed by another canonical line.
_CANONICAL_LINE = re.compile(r"[0-9a-f]+ [0-9]+ [012]\n")
_NONCANONICAL_NEXT = re.compile(r"\n(?![0-9a-f]+ [0-9]+ [012]\n|\Z)")


def parse_coloring_by_coordinate(text):
    """Coloring text to (n, colors) with colors in the coordinate-major
    layout of edge_slot_by_coordinate: the chunked parser before file order.

    Text is cut into chunks as bounds.parse_coloring cuts it.  A canonical
    chunk, lines '<hex-mask> <coord> <color>' in any order, is split into
    its three columns and stored line by line from them; any other chunk
    goes through the line reader.
    """
    size = bounds.COLORING_CHUNK_CHARS
    chunks = bounds._line_chunks(text[i : i + size] for i in range(0, len(text), size))
    first = next(chunks, "")
    head = first.splitlines(keepends=True)[:1]
    header = head[0].splitlines()[0] if head else ""
    if not header.startswith("# qn-coloring n="):
        raise ValueError("coloring file must start with '# qn-coloring n=<n>'")
    try:
        n = int(header.split("=", 1)[1])
    except ValueError as exc:
        raise ValueError(f"bad coloring header: {header!r}") from exc
    if n < 1:
        raise ValueError(f"bad ground-set size in header: {n}")
    require_capacity(n)
    colors = bytearray([0xFF]) * cube_edge_count(n)
    # slot = top | (base >> 1) & high | base & low for an edge (base, coord)
    low = [(1 << j) - 1 for j in range(n)]
    slot_terms = {str(j): (j << (n - 1), 1 << j, low[j], low[n - 1] ^ low[j]) for j in range(n)}
    duplicates = []
    lineno = 2
    for chunk in chain([first[len(head[0]):]], chunks):
        if _CANONICAL_LINE.match(chunk) and not _NONCANONICAL_NEXT.search(chunk):
            tokens = chunk.split()
            try:
                terms = list(map(slot_terms.__getitem__, tokens[1::3]))
            except KeyError:
                pass
            else:
                shades = [int(c) for c in tokens[2::3]]
                _store_canonical(n, colors, duplicates, lineno, tokens[::3], terms, shades)
                lineno += len(terms)
                continue
        lines = chunk.splitlines()
        _store_lines_by_coordinate(n, colors, duplicates, lineno, lines)
        lineno += len(lines)
    if duplicates:
        raise ValueError("; ".join(duplicates))
    return n, bytes(colors)


def _store_canonical(n, colors, duplicates, lineno, bases, terms, shades):
    for lineno, token, (top, bit, low, high), color in zip(count(lineno), bases, terms, shades):
        base = int(token, 16)
        if base >> n or base & bit:
            coord = bit.bit_length() - 1
            raise ValueError(f"line {lineno}: (0x{base:x}, {coord}) is not an edge of Q_{n}")
        slot = top | (base >> 1) & high | base & low
        if colors[slot] != 0xFF:
            coord = bit.bit_length() - 1
            duplicates.append(f"line {lineno}: duplicate edge (0x{base:x}, {coord})")
        colors[slot] = color


def _store_lines_by_coordinate(n, colors, duplicates, lineno, lines):
    for lineno, line in enumerate(lines, start=lineno):
        entry = bounds._coloring_line(lineno, line)
        if entry is None:
            continue
        base, coord, color = entry
        if not 0 <= coord < n or base >> n or (base >> coord) & 1:
            raise ValueError(f"line {lineno}: (0x{base:x}, {coord}) is not an edge of Q_{n}")
        if color not in range(3):
            raise ValueError(f"line {lineno}: color must be 0..2, got {color}")
        slot = edge_slot_by_coordinate(n, base, coord)
        if colors[slot] != 0xFF:
            duplicates.append(f"line {lineno}: duplicate edge (0x{base:x}, {coord})")
        colors[slot] = color


def edge_key(x, y):
    """Canonical key of a Q_n edge: (smaller endpoint, flipped coordinate)."""
    if (x ^ y).bit_count() != 1:
        raise ValueError(f"(0x{x:x}, 0x{y:x}) is not a Q_n edge")
    return min(x, y), (x ^ y).bit_length() - 1


def rank_certificate(n):
    """The rank rule as a certificate: edge (x, x | 1 << j) gets
    |x & (2^j - 1)| mod 3, the number of elements of x below j, in file
    order."""
    return ColoringCertificate(
        n, bytes((x & ((1 << j) - 1)).bit_count() % 3 for x in range(1 << n) for j in range(n) if not x >> j & 1)
    )


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


def subgraph_of_union(u):
    """The union graph as one CubeSubgraph with its per-layer edges, merged
    from the layers' masks, as the library built it before the pipeline
    took one layer at a time.

    The layers never share a popcount, so a vertex's popcount names its
    side: a lower vertex takes the next mask of its layer, in the same
    increasing order, and an upper vertex has no edge upward.
    """
    layers = list(u.layers.values())
    vertices = tuple(sorted(chain.from_iterable(chain(g.lower, g.upper) for g in layers)))
    lower_masks = {g.layer.r - 1: iter(g.edge_masks) for g in layers}
    no_masks = iter(())
    masks = tuple(next(lower_masks.get(v.bit_count(), no_masks), 0) for v in vertices)
    return CubeSubgraph(u.n, vertices, masks)


def class_graphs(union, colors):
    """The union's edges split by their certificate color, one graph per
    color, each on all of the union's vertices: each edge mask of
    subgraph_of_union split bit by bit, as bounds did before it split one
    layer at a time."""
    n = union.n
    whole = subgraph_of_union(union)
    classes = [[] for _ in range(3)]
    for x, m in zip(whole.vertices, whole.edge_masks):
        parts = [0] * 3
        if m:
            start, free = bounds._first_slot(n, x), ~x
            while m:
                bit = m & -m
                m ^= bit
                parts[colors[start + (free & (bit - 1)).bit_count()]] |= bit
        for masks, part in zip(classes, parts):
            masks.append(part)
    return [CubeSubgraph(n, whole.vertices, tuple(masks)) for masks in classes]


def union_c10_pipeline(union, cert, split=class_graphs):
    """bounds.c10_pipeline over the class graphs of the whole union, each
    searched once, as before the pipeline took one layer at a time."""
    if cert.n != union.n:
        raise ValueError(f"certificate is for n={cert.n}, union graph has n={union.n}")
    problems = coloring_problems(cert)
    if problems:
        raise ValueError("invalid coloring certificate: " + "; ".join(problems))
    graphs = split(union, cert.colors)
    counts = tuple(len(list(upward_edges(sub.vertices, sub.edge_masks))) for sub in graphs)
    free = []
    witnesses = {}
    for k, sub in enumerate(graphs):
        witness = find_cycle_generic(sub, 10)
        if witness is None:
            free.append(k)
        else:
            witnesses[k] = witness
    if not free:
        return PipelineOutcome(False, None, counts, (), witnesses, None)
    best = min(free, key=lambda k: (-counts[k], k))
    report = make_report(union.n, None, "final", counts[best], cube_edge_count(union.n), "c/12")
    return PipelineOutcome(True, best, counts, tuple(free), witnesses, report)


def explicit_c10_pipeline(union, cert):
    """union_c10_pipeline over explicit_class_graphs."""
    return union_c10_pipeline(union, cert, explicit_class_graphs)


def reduced_echelon(basis):
    """Fully reduced echelon rows of GF2Vecs keyed by pivot bit; raises if dependent.

    Invariant: every row has bit 1 at its own pivot and 0 at every other
    pivot, so clearing all pivots from a vector takes one pass in any order.
    """
    rows = {}
    for w in basis:
        cur = w.bits
        for t, row in rows.items():
            if (cur >> t) & 1:
                cur ^= row
        if cur == 0:
            raise ValueError("subspace basis is linearly dependent")
        top = cur.bit_length() - 1
        for t, row in rows.items():
            if (row >> top) & 1:
                rows[t] = row ^ cur
        rows[top] = cur
    return rows


def quotient_image_by_reduced_echelon(v, subspace_basis):
    """Canonical representative of v + Span(subspace_basis), through the
    reduced echelon form of the basis: reduce v by every row, then pack the
    non-pivot coordinates in increasing index order.  Two vectors get equal
    images iff their difference is in the subspace."""
    basis = list(subspace_basis)
    for w in basis:
        if w.dim != v.dim:
            raise ValueError(f"dimension mismatch: expected {v.dim}, got {w.dim}")
    rows = reduced_echelon(basis)
    cur = v.bits
    for top, row in rows.items():
        if (cur >> top) & 1:
            cur ^= row
    out = 0
    j = 0
    for i in range(v.dim):
        if i in rows:
            continue
        if (cur >> i) & 1:
            out |= 1 << j
        j += 1
    return GF2Vec(out, v.dim - len(rows))


class C6Obstruction(Record):
    """Which membership condition of a subcube pattern fails for an assignment.

    failed_conditions is empty only when every condition holds, in which
    case pigeonhole carries the (never expected) contradiction message.
    """

    pattern: SubcubePattern
    failed_conditions: tuple[str, ...]
    images: tuple[GF2Vec, GF2Vec, GF2Vec, GF2Vec] | None
    pigeonhole: str | None


PIGEONHOLE_MESSAGE = (
    "all seven basis conditions hold: four pairwise-distinct nonzero images "
    "in a 2-dimensional quotient, which has only three nonzero vectors"
)


def explain_c6_impossibility(a, pattern):
    """Recompute the quotient by the core's vectors and report what failed.

    The seven conditions are the three upper-side and three lower-side basis
    requirements of the pattern plus the independence of the core's vectors.
    If none fails, the four quotient images would be distinct nonzero
    elements of a 2-dimensional space; the report flags that contradiction,
    which no assignment can reach.
    """
    core_elems = bit_indices(pattern.core)
    if len(core_elems) != a.r - 2:
        raise ValueError(f"core size {len(core_elems)} does not match r - 2 = {a.r - 2}")
    if pattern.core >> a.n or any(i >= a.n for i in pattern.axes):
        raise ValueError(f"pattern does not fit a ground set of size {a.n}")
    core_vecs = [a.vectors[i] for i in core_elems]
    if rank_bits(v.bits for v in core_vecs) != len(core_vecs):
        return C6Obstruction(pattern, ("core",), None, None)
    anchor_img = quotient_image_by_reduced_echelon(a.anchor, core_vecs)
    axis_imgs = [quotient_image_by_reduced_echelon(a.vectors[i], core_vecs) for i in pattern.axes]
    failed = []
    ax = pattern.axes
    for p, q in ((0, 1), (0, 2), (1, 2)):
        xi, xj = axis_imgs[p], axis_imgs[q]
        if not xi or not xj or xi == xj:
            failed.append(f"upper:{ax[p]},{ax[q]}")
    for p in range(3):
        xi = axis_imgs[p]
        if not anchor_img or not xi or anchor_img == xi:
            failed.append(f"lower:{ax[p]}")
    images = (anchor_img, axis_imgs[0], axis_imgs[1], axis_imgs[2])
    if failed:
        return C6Obstruction(pattern, tuple(failed), images, None)
    return C6Obstruction(pattern, (), images, PIGEONHOLE_MESSAGE)


def layer_scan_two_levels(n, r, anchor_bits, vector_bits):
    """The lower survivors of the layer graph in increasing mask order,
    with their edge masks.

    A depth-first walk over the (r-1)-subsets x, choosing indices from the
    highest down, keeps a basis of the functionals that vanish on the
    anchor and on the chosen indices, and one functional g with
    g(anchor) = 1 that vanishes on them.  Each functional h is held as its
    image mask, bit j being h(v_j), so "h is odd on v_i" is bit i and every
    update is a word XOR.  A partial subset dies as soon as no basis
    functional is odd on its newest vector, so the leaves are exactly the
    lower survivors, reached in increasing mask order because every level
    tries its candidates in increasing order.  At a leaf the kernel of g
    is span(x), hence x + {j} is an upper survivor iff g(v_j) = 1: g is
    the leaf's edge mask, and every upper survivor is reached because the
    anchor is nonzero.  For r >= 3 the last two levels are emitted without
    a call per leaf.
    """
    require_capacity(n)
    columns = [0] * r
    for j, v in enumerate(vector_bits):
        for b in bit_indices(v):
            columns[b] |= 1 << j
    pivot_bit = (anchor_bits & -anchor_bits).bit_length() - 1
    g0 = columns[pivot_bit]
    basis0 = [
        columns[b] ^ g0 if anchor_bits >> b & 1 else columns[b] for b in range(r) if b != pivot_bit
    ]
    lower: list[int] = []
    masks: list[int] = []

    def walk(limit: int, mask: int, basis: list[int], g: int) -> None:
        left = len(basis)
        if left == 0:  # a leaf; reached only for r <= 2
            lower.append(mask)
            masks.append(g)
            return
        # index i can be the highest of the rest of the subset only if i >= left - 1
        candidates = 0
        for h in basis:
            candidates |= h
        candidates &= (1 << limit) - (1 << (left - 1))
        if left == 2:
            h1, h2 = basis
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                if h1 & low:
                    pivot, h = h1, h2 ^ h1 if h2 & low else h2
                else:
                    pivot, h = h2, h1
                last, g2 = h & (low - 1), g ^ pivot if g & low else g
                base, odd = mask | low, g2 ^ h
                while last:
                    bit = last & -last
                    last ^= bit
                    lower.append(base | bit)
                    masks.append(odd if g2 & bit else g2)
            return
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            for at, pivot in enumerate(basis):
                if pivot & low:
                    break
            # the functionals before the pivot are even on v_i already
            rest = [h ^ pivot if h & low else h for h in basis[at + 1 :]]
            rest.extend(basis[:at])
            walk(low.bit_length() - 1, mask | low, rest, g ^ pivot if g & low else g)

    walk(n, 0, basis0, g0)
    # walk refers to itself through its closure, a reference cycle that would
    # keep lower and masks alive until the cyclic collector next runs
    del walk
    return lower, masks
