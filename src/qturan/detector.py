"""Forbidden-subgraph detectors for subgraphs of the hypercube.

Two independent routes for 6-cycles inside a layer:

* a structured scan over 3-dimensional subcube patterns (a 6-cycle in a
  layer flips exactly three coordinates, so it is the middle layer of a
  3-cube), and
* a generic exhaustive backtracking search that works on any subgraph of
  Q_n and any even cycle length.

The generic search breaks symmetry canonically (cycles start at their
smallest vertex; the second vertex is smaller than the last) and prunes by
Hamming distance back to the start, which is a lower bound on remaining
graph distance.  It walks a map from each vertex mask to the tuple of its
neighbors in ascending order, at most n of them, so its memory is linear
in the number of vertices.  Its last two levels are tests against closing
sets fixed once per start s: at most n vertices, and at most n^2 in their
neighborhood.  A cycle closes through a neighbor of s above s, and such
closers must number at least two; the C6- path ends at a vertex above s
at Hamming distance 1 from it.  The vertex before the end must be a
neighbor of one of these, so candidates for it are cut to that
neighborhood (which also implies the Hamming bound there), and the end is
the first neighbor of that vertex off the path that lies in the closing
set, and for a cycle above the second vertex.  Pruning only drops
branches that cannot close, and every tuple is walked in ascending order,
the order in which the plain DFS tries candidates, so no cycle is lost and
the first witness is the one the plain DFS finds.  Scans are splittable
over start vertices; the witness with the lowest canonical order always
wins, so results do not depend on the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from . import cube
from .construction import LayerSubgraph, UnionGraph, VectorAssignment, edge_pairs
from .cube import bit_indices
from .gf2 import GF2Vec, quotient_image, rank_bits

__all__ = [
    "CubeSubgraph",
    "CycleWitness",
    "PathWitness",
    "SubcubePattern",
    "C6Obstruction",
    "subgraph_of_layer",
    "subgraph_of_union",
    "find_cycle_generic",
    "find_c6_minus",
    "find_c6_structured",
    "explain_c6_impossibility",
    "witness_line",
]


@dataclass(frozen=True)
class CubeSubgraph:
    """A subgraph of Q_n: a vertex set plus induced or explicit edges.

    vertices is a sorted tuple of masks.  edges is None for the subgraph
    induced by Q_n adjacency, or a sorted tuple of (x, y) pairs (each a
    Q_n edge with both endpoints present) for an explicit edge subset.
    """

    n: int
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...] | None = None

    @classmethod
    def induced(cls, n: int, vertices: Iterable[int]) -> CubeSubgraph:
        verts = tuple(sorted(set(vertices)))
        for v in verts:
            if v < 0 or v >> n:
                raise ValueError(f"vertex 0x{v:x} is outside Q_{n}")
        return cls(n=n, vertices=verts)

    @classmethod
    def explicit(
        cls, n: int, vertices: Iterable[int], edges: Iterable[tuple[int, int]]
    ) -> CubeSubgraph:
        verts = tuple(sorted(set(vertices)))
        vert_set = set(verts)
        for v in verts:
            if v < 0 or v >> n:
                raise ValueError(f"vertex 0x{v:x} is outside Q_{n}")
        norm = set()
        for x, y in edges:
            if x > y:
                x, y = y, x
            if (x ^ y).bit_count() != 1:
                raise ValueError(f"(0x{x:x}, 0x{y:x}) is not a Q_n edge")
            if x not in vert_set or y not in vert_set:
                raise ValueError(f"edge (0x{x:x}, 0x{y:x}) has an endpoint outside the vertex set")
            norm.add((x, y))
        return cls(n=n, vertices=verts, edges=tuple(sorted(norm)))

    def edge_list(self) -> list[tuple[int, int]]:
        if self.edges is not None:
            return list(self.edges)
        vert_set = set(self.vertices)
        out = []
        for x in self.vertices:
            for j in range(self.n):
                y = x | (1 << j)
                if y != x and y in vert_set:
                    out.append((x, y))
        return out


def subgraph_of_layer(g: LayerSubgraph) -> CubeSubgraph:
    """The layer subgraph as an induced subgraph of Q_n (same edges)."""
    return CubeSubgraph.induced(g.layer.n, set(g.lower) | set(g.upper))


def subgraph_of_union(u: UnionGraph) -> CubeSubgraph:
    """The union graph with its explicit per-layer edges."""
    verts: set[int] = set()
    edges: list[tuple[int, int]] = []
    for g in u.layers.values():
        verts |= set(g.lower) | set(g.upper)
        edges.extend(edge_pairs(g))
    return CubeSubgraph.explicit(u.n, verts, edges)


@dataclass(frozen=True)
class CycleWitness:
    """A closed walk through distinct, consecutively adjacent vertices."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        k = len(self.vertices)
        if k < 4:
            raise ValueError(f"a cycle needs at least 4 vertices, got {k}")
        if len(set(self.vertices)) != k:
            raise ValueError("cycle vertices must be distinct")
        for i, v in enumerate(self.vertices):
            w = self.vertices[(i + 1) % k]
            if (v ^ w).bit_count() != 1:
                raise ValueError(f"0x{v:x} and 0x{w:x} are not adjacent in Q_n")

    @property
    def length(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class PathWitness:
    """A 5-edge path whose endpoints sit at Hamming distance 1."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) != 6:
            raise ValueError(f"expected 6 vertices, got {len(self.vertices)}")
        if len(set(self.vertices)) != 6:
            raise ValueError("path vertices must be distinct")
        for v, w in zip(self.vertices, self.vertices[1:]):
            if (v ^ w).bit_count() != 1:
                raise ValueError(f"0x{v:x} and 0x{w:x} are not adjacent in Q_n")
        if (self.vertices[0] ^ self.vertices[-1]).bit_count() != 1:
            raise ValueError("path endpoints must differ in exactly one coordinate")


@dataclass(frozen=True)
class SubcubePattern:
    """Middle layer of a 3-cube: a shared core subset plus three axis elements.

    The six implied vertices are core+{a}, core+{b}, core+{c} on the lower
    side and core+{a,b}, core+{a,c}, core+{b,c} on the upper side.
    """

    core: int
    axes: tuple[int, int, int]

    def __post_init__(self) -> None:
        a, b, c = self.axes
        if not a < b < c:
            raise ValueError(f"axes must be strictly increasing, got {self.axes}")
        if self.core < 0:
            raise ValueError("core mask must be nonnegative")
        for i in self.axes:
            if (self.core >> i) & 1:
                raise ValueError(f"axis {i} overlaps the core mask 0x{self.core:x}")

    def lower_vertices(self) -> tuple[int, int, int]:
        return tuple(self.core | (1 << i) for i in self.axes)  # type: ignore[return-value]

    def upper_vertices(self) -> tuple[int, int, int]:
        a, b, c = self.axes
        return (
            self.core | (1 << a) | (1 << b),
            self.core | (1 << a) | (1 << c),
            self.core | (1 << b) | (1 << c),
        )


@dataclass(frozen=True)
class C6Obstruction:
    """Which membership condition of a subcube pattern fails for an assignment.

    failed_conditions is empty only when every condition holds, in which
    case pigeonhole carries the (never expected) contradiction message.
    """

    pattern: SubcubePattern
    failed_conditions: tuple[str, ...]
    images: tuple[GF2Vec, GF2Vec, GF2Vec, GF2Vec] | None
    pigeonhole: str | None

    def all_conditions_pass(self) -> bool:
        return not self.failed_conditions


# ---------------------------------------------------------------------------
# Generic backtracking searches


def _neighbor_map(graph: CubeSubgraph) -> dict[int, tuple[int, ...]]:
    """Each vertex mask mapped to its neighbors in ascending order.

    In Q_n the neighbors of x below it are x - 2^j for set bits j, which
    ascend as j descends, and those above it are x + 2^j for clear bits j,
    which ascend with j.  The map holds one reference per edge end, so its
    size is O(V n) where a bitset over vertex indices per vertex is O(V^2).
    """
    if graph.edges is None:
        # looking a neighbor up returns the vertex's own int, which the
        # tuples then share instead of holding a copy per edge end
        vertex = {x: x for x in graph.vertices}.get
        flips = [1 << j for j in range(graph.n)]
        down = flips[::-1]
        return {
            x: tuple(
                [y for b in down if x & b and (y := vertex(x ^ b)) is not None]
                + [y for b in flips if not x & b and (y := vertex(x | b)) is not None]
            )
            for x in graph.vertices
        }
    # In sorted order the edges (w, x) with w < x all come before the edges
    # (x, y) with x < y, so each tuple grows in ascending order.
    nbrs = dict.fromkeys(graph.vertices, ())
    for x, y in sorted(graph.edges):
        nbrs[x] += (y,)
        nbrs[y] += (x,)
    return nbrs


def _first_cycle_in_range(
    graph: CubeSubgraph, start_lo: int, start_hi: int, length: int
) -> tuple[int, ...] | None:
    nbrs = _neighbor_map(graph)
    last = length - 2  # the last position chosen by a loop; position length-1 closes

    def extend(
        path: list[int], s: int, closers: set[int], reach: set[int]
    ) -> list[int] | None:
        pos_next = len(path)
        if pos_next == last:
            # the closing vertex is a neighbor of s above path[1], so only
            # neighbors of closers (reach holds those above s) can precede it
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

    found = None
    for s in graph.vertices[start_lo:start_hi]:
        closers = {c for c in nbrs[s] if c > s}
        if len(closers) < 2:  # the cycle needs two closers
            continue
        reach = {w for c in closers for w in nbrs[c] if w > s}
        found = extend([s], s, closers, reach)
        if found is not None:
            break
    # extend refers to itself through its closure, a reference cycle that
    # would keep nbrs alive until the cyclic collector next runs
    del extend
    return None if found is None else tuple(found)


def _cycle_scan_task(args: tuple[CubeSubgraph, int, int, int]) -> tuple[int, ...] | None:
    return _first_cycle_in_range(*args)


def _first_c6_minus_in_range(
    graph: CubeSubgraph, start_lo: int, start_hi: int
) -> tuple[int, ...] | None:
    nbrs = _neighbor_map(graph)
    flips = [1 << j for j in range(graph.n)]
    for s in graph.vertices[start_lo:start_hi]:
        # v5 ends the path: a vertex above s at Hamming distance 1 from it,
        # whether or not the graph joins the two; v4 is a neighbor of one.
        # v1..v3 need no Hamming test: three steps stay within distance 3.
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


def _c6_minus_scan_task(args: tuple[CubeSubgraph, int, int]) -> tuple[int, ...] | None:
    return _first_c6_minus_in_range(*args)


def _split_ranges(count: int, workers: int) -> list[tuple[int, int]]:
    chunk = -(-count // workers)
    return [(lo, min(lo + chunk, count)) for lo in range(0, count, chunk)]


def _first_in_pool(
    task: Callable[[tuple], tuple[int, ...] | None], tasks: list[tuple], workers: int
) -> tuple[int, ...] | None:
    """The first result that is not None, in task order, from a process pool.

    The pool module is imported here, so a one-process run never loads it.
    """
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        for found in pool.map(task, tasks):
            if found is not None:
                return found
    return None


def find_cycle_generic(
    graph: CubeSubgraph, length: int, workers: int = 1
) -> CycleWitness | None:
    """Exhaustive search for a cycle of exactly the given even length.

    Returns the canonically first witness (lowest start vertex, then DFS
    order) or None.  workers > 1 splits the start vertices over processes;
    the answer is identical for every worker count.
    """
    if length < 4 or length % 2:
        raise ValueError(f"cycle length must be even and >= 4, got {length}")
    count = len(graph.vertices)
    if count < length:
        return None
    if workers <= 1:
        found = _first_cycle_in_range(graph, 0, count, length)
    else:
        tasks = [(graph, lo, hi, length) for lo, hi in _split_ranges(count, workers)]
        found = _first_in_pool(_cycle_scan_task, tasks, workers)
    return None if found is None else CycleWitness(found)


def find_c6_minus(graph: CubeSubgraph, workers: int = 1) -> PathWitness | None:
    """Exhaustive search for a 5-edge path with endpoints at Hamming distance 1.

    This is a direct path search, not a 6-cycle search: outside a single
    layer the two are not equivalent, because the closing pair only needs
    to be a Q_n edge, not an edge of the graph.
    """
    count = len(graph.vertices)
    if count < 6:
        return None
    if workers <= 1:
        found = _first_c6_minus_in_range(graph, 0, count)
    else:
        tasks = [(graph, lo, hi) for lo, hi in _split_ranges(count, workers)]
        found = _first_in_pool(_c6_minus_scan_task, tasks, workers)
    return None if found is None else PathWitness(found)


# ---------------------------------------------------------------------------
# Structured scan and its impossibility certificate


def find_c6_structured(g: LayerSubgraph) -> SubcubePattern | None:
    """Scan all subcube patterns whose six vertices survive in the layer graph.

    Pattern (core, a < b < c) is present exactly when core+{a}, core+{b}
    and core+{c} are lower vertices, the edge mask of core+{a} holds b and
    c, and that of core+{b} holds c: the masks stand for the three upper
    vertices.  Cores are visited in increasing mask order and axis triples
    lexicographically, so the first hit is deterministic.
    """
    n, r = g.layer.n, g.layer.r
    if r < 2 or n - (r - 2) < 3:
        return None
    mask_of = dict(zip(g.lower, g.edge_masks))
    full = (1 << n) - 1
    for core in cube.subsets_of_size(n, r - 2):
        hits, hit_bits = [], 0
        free = full ^ core
        while free:
            bit = free & -free
            free ^= bit
            m = mask_of.get(core | bit)
            if m is not None:
                hits.append((bit, m))
                hit_bits |= bit
        if len(hits) < 3:
            continue
        for at, (a, mask_a) in enumerate(hits):
            for b, mask_b in hits[at + 1 :]:
                closing = mask_a & mask_b & hit_bits & -(b << 1)  # the choices of c
                if mask_a & b and closing:
                    c = closing & -closing
                    axes = tuple(bit.bit_length() - 1 for bit in (a, b, c))
                    return SubcubePattern(core, axes)
    return None


PIGEONHOLE_MESSAGE = (
    "all seven basis conditions hold: four pairwise-distinct nonzero images "
    "in a 2-dimensional quotient, which has only three nonzero vectors"
)


def explain_c6_impossibility(a: VectorAssignment, pattern: SubcubePattern) -> C6Obstruction:
    """Recompute the quotient by the core's vectors and report what failed.

    The seven conditions are the three upper-side and three lower-side basis
    requirements of the pattern plus the independence of the core's vectors.
    If none fails, the four quotient images would be distinct nonzero
    elements of a 2-dimensional space; the report flags that contradiction,
    which no assignment can reach.
    """
    core_elems = bit_indices(pattern.core)
    if len(core_elems) != a.r - 2:
        raise ValueError(
            f"core size {len(core_elems)} does not match r - 2 = {a.r - 2}"
        )
    if pattern.core >> a.n or any(i >= a.n for i in pattern.axes):
        raise ValueError(f"pattern does not fit a ground set of size {a.n}")
    core_vecs = [a.vectors[i] for i in core_elems]
    if rank_bits(v.bits for v in core_vecs) != len(core_vecs):
        return C6Obstruction(pattern, ("core",), None, None)
    anchor_img = quotient_image(a.anchor, core_vecs)
    axis_imgs = [quotient_image(a.vectors[i], core_vecs) for i in pattern.axes]
    failed = []
    ax = pattern.axes
    for (p, q) in ((0, 1), (0, 2), (1, 2)):
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


def witness_line(witness: CycleWitness | PathWitness) -> str:
    """One-line text form: 'C6 <hex>...', 'C10 <hex>...' or 'C6- <hex>...'."""
    if isinstance(witness, PathWitness):
        label = "C6-"
    else:
        label = f"C{witness.length}"
    return " ".join([label] + [f"{v:x}" for v in witness.vertices])
