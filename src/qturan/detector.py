"""Forbidden-subgraph detectors for subgraphs of the hypercube.

Two independent routes for 6-cycles inside a layer:

* a structured scan over 3-dimensional subcube patterns (a 6-cycle in a
  layer flips exactly three coordinates, so it is the middle layer of a
  3-cube), and
* a generic exhaustive search, meeting in the middle, that works on any
  subgraph of Q_n and any even cycle length.

The generic searches take one graph form, CubeSubgraph: sorted vertex
masks, each with the mask of its edges upward, as in a layer graph, so a
layer is merged from its two sides and its own masks.

The generic cycle search breaks symmetry canonically: a cycle starts at
its smallest vertex, and its second vertex is smaller than its last.  It
walks a map from each vertex mask to the tuple of its neighbors in
ascending order, at most n of them, read off the edge masks, so its memory
is linear in the number of vertices.  It meets in the middle: a cycle of
length 2k has least vertex s exactly when two simple k-step paths from s
over vertices above s share their end and have disjoint interiors.  For
each s in ascending order it lists those paths, groups them by end and
compares the interiors within each group; only one start's paths are held
at a time.  A start needs two closers, neighbors above s, and a start with
fewer is skipped before any listing.  The paths are listed in ascending
order, so the witness, the first cycle a plain DFS over every start finds,
is read off the groups of the first start that has one.

The C6- path search starts at the smaller endpoint s; its ends are the
vertices of the graph above s at Hamming distance 1 from it.  When the
graph joins every end to s, as an induced graph does, s is the first start
with a path exactly when it is the least vertex of a 6-cycle, so the
meet-in-the-middle test decides it.  Only a start with an end the graph
does not join to it, or the start that has a path, runs the 5-level DFS,
whose last two levels test against the ends and their neighbors.
Scans are splittable over start vertices; the witness with the lowest
canonical order always wins, so results do not depend on the worker count.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable

from . import cube
from .cube import LayerSubgraph, bit_indices, upward_edges, upward_masks
from .gf2 import GF2Vec, quotient_image, rank_bits

if TYPE_CHECKING:
    from .construction import VectorAssignment

__all__ = [
    "CubeSubgraph",
    "CycleWitness",
    "PathWitness",
    "SubcubePattern",
    "C6Obstruction",
    "subgraph_of_layer",
    "find_cycle_generic",
    "find_c6_minus",
    "find_c6_structured",
    "explain_c6_impossibility",
    "witness_line",
]


@dataclass(frozen=True)
class CubeSubgraph:
    """A subgraph of Q_n: sorted vertex masks, each with the mask of the
    coordinates of its edges upward.

    edge_masks is aligned with vertices: bit j of edge_masks[i] is set
    exactly when (vertices[i], vertices[i] | 1 << j) is an edge, the layout
    of LayerSubgraph.edge_masks.  induced and explicit check their input
    and derive the masks once; the dataclass constructor trusts them.
    """

    n: int
    vertices: tuple[int, ...]
    edge_masks: tuple[int, ...]

    @classmethod
    def induced(cls, n: int, vertices: Iterable[int]) -> CubeSubgraph:
        verts = _checked_vertices(n, vertices)
        return cls(n, verts, tuple(upward_masks(n, verts, set(verts))))

    @classmethod
    def explicit(
        cls, n: int, vertices: Iterable[int], edges: Iterable[tuple[int, int]]
    ) -> CubeSubgraph:
        verts = _checked_vertices(n, vertices)
        index = {v: i for i, v in enumerate(verts)}
        masks = [0] * len(verts)
        for x, y in edges:
            if x > y:
                x, y = y, x
            if (x ^ y).bit_count() != 1:
                raise ValueError(f"(0x{x:x}, 0x{y:x}) is not a Q_n edge")
            if x not in index or y not in index:
                raise ValueError(f"edge (0x{x:x}, 0x{y:x}) has an endpoint outside the vertex set")
            masks[index[x]] |= x ^ y
        return cls(n, verts, tuple(masks))

    def edge_list(self) -> list[tuple[int, int]]:
        """The edges (x, y) with x < y, in sorted order."""
        return list(upward_edges(self.vertices, self.edge_masks))


def _checked_vertices(n: int, vertices: Iterable[int]) -> tuple[int, ...]:
    verts = tuple(sorted(set(vertices)))
    for v in verts:
        if v < 0 or v >> n:
            raise ValueError(f"vertex 0x{v:x} is outside Q_{n}")
    return verts


def subgraph_of_layer(g: LayerSubgraph) -> CubeSubgraph:
    """The layer subgraph as a subgraph of Q_n (same edges).

    The layer holds popcounts r-1 and r only, so a vertex's popcount names
    its side: a lower vertex takes the next mask of the layer, in the same
    increasing order, and an upper vertex has no edge upward.
    """
    low = g.layer.r - 1
    vertices = tuple(sorted(chain(g.lower, g.upper)))
    masks = iter(g.edge_masks)
    return CubeSubgraph(
        g.layer.n, vertices, tuple(next(masks) if v.bit_count() == low else 0 for v in vertices)
    )


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

    The edge masks give the edges (x, y), x < y, in sorted order, so the
    edges (w, x) with w < x all come before the edges (x, y) and each tuple
    grows in ascending order.  The map holds one reference per edge end, so
    its size is O(V n) where a bitset over vertex indices per vertex is
    O(V^2).
    """
    nbrs = dict.fromkeys(graph.vertices, ())
    for x, y in upward_edges(graph.vertices, graph.edge_masks):
        nbrs[x] += (y,)
        nbrs[y] += (x,)
    return nbrs


def _cycle_at(
    nbrs: dict[int, tuple[int, ...]], s: int, closers: tuple[int, ...], half: int
) -> tuple[int, ...] | None:
    """The canonically first cycle of 2 * half steps whose least vertex is
    s, given the neighbors of s above it, its closers; or None.

    Such a cycle is two paths of half steps from s over vertices above s,
    with one end and disjoint interiors; so the half paths are listed,
    grouped by their end, and the interiors compared within each group;
    most starts have no end that two paths share.  The paths, and so each
    group, are listed in ascending order: the cycle s, p, t, q backward is
    canonical when p comes before q, and the least one through end t takes
    the first p of t's group with a disjoint q after it, and the least such
    q reversed.  The least of these over all ends is the first cycle of a
    DFS from s.
    """
    paths = [(c,) for c in closers]
    for _ in range(half - 2):
        paths = [p + (w,) for p in paths for w in nbrs[p[-1]] if w > s and w not in p]
        if not paths:
            return None
    ends = [t for p in paths for t in nbrs[p[-1]] if t > s and t not in p]
    if len(set(ends)) == len(ends):  # every end has one path
        return None
    groups: dict[int, list[tuple[int, ...]]] = {}
    for p in paths:
        for t in nbrs[p[-1]]:
            if t > s and t not in p:
                groups.setdefault(t, []).append(p)
    cycles = []
    for t, group in groups.items():
        for at, p in enumerate(group[:-1]):
            seen = set(p)
            backs = [q[::-1] for q in group[at + 1 :] if seen.isdisjoint(q)]
            if backs:
                cycles.append((s, *p, t, *min(backs)))
                break
    return min(cycles, default=None)


def _first_cycle_in_range(
    graph: CubeSubgraph, start_lo: int, start_hi: int, length: int
) -> tuple[int, ...] | None:
    """The canonically first cycle of the given length whose least vertex is
    in graph.vertices[start_lo:start_hi].  The neighbor map is built when
    the first start with two closers is reached, so a range without one
    returns None before any map."""
    nbrs = None
    starts = slice(start_lo, start_hi)
    for s, up in zip(graph.vertices[starts], graph.edge_masks[starts]):
        if up & (up - 1):  # the cycle needs two closers
            if nbrs is None:
                nbrs = _neighbor_map(graph)
            # the neighbors above s are its edges upward, last in its tuple
            found = _cycle_at(nbrs, s, nbrs[s][-up.bit_count() :], length // 2)
            if found is not None:
                return found
    return None


def _c6_minus_from(
    nbrs: dict[int, tuple[int, ...]], s: int, ends: set[int]
) -> tuple[int, ...] | None:
    """The first 5-edge path of a DFS from s, in neighbor order, that ends
    in ends, or None.

    ends are the vertices above s at Hamming distance 1 from it, whether or
    not the graph joins them to s; v4 must be a neighbor of one.  v1..v3
    need no Hamming test: three steps stay within distance 3.
    """
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


def _first_c6_minus_in_range(
    graph: CubeSubgraph, start_lo: int, start_hi: int
) -> tuple[int, ...] | None:
    """The first C6- path, by start and then DFS order, whose start is in
    graph.vertices[start_lo:start_hi], provided no start below start_lo has
    one; otherwise some later start's path, or None.

    The ends of s are the vertices s | b of the graph.  When the graph joins
    every end to s, a C6- path from s and the edge (s, v5) form a 6-cycle.
    Its least vertex m has its two cycle neighbors above it and joined to
    it, so m starts a C6- path too; no start before s has one, so m = s.
    Such an s therefore has a C6- path exactly when it is the least vertex
    of a 6-cycle, which _cycle_at decides by meeting in the middle.  Only
    starts with an end the graph does not join to them, and the start that
    has a path, run the DFS, so the path is the one a DFS from every start
    would find.  An induced graph joins every end, so it runs the DFS only
    from the start that has a path.  Ends are probed for only when the graph
    holds a vertex with one bit more than s; for a layer's upper side it does not.
    """
    nbrs = _neighbor_map(graph)
    full = (1 << graph.n) - 1
    popcounts = set(map(int.bit_count, graph.vertices))
    starts = slice(start_lo, start_hi)
    for s, up in zip(graph.vertices[starts], graph.edge_masks[starts]):
        joined = nbrs[s][-up.bit_count() :] if up else ()  # the neighbors above s
        # the other ends: probe only the clear bits that are not edges upward
        unjoined = set()
        free = full ^ (s | up) if s.bit_count() + 1 in popcounts else 0
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
            # the 6-cycle less its edge (s, q) is a path from s to the end q
            return _c6_minus_from(nbrs, s, set(joined))
    return None


def _first_over_starts(
    scan: Callable[..., tuple[int, ...] | None],
    graph: CubeSubgraph,
    count: int,
    workers: int,
    *args: int,
) -> tuple[int, ...] | None:
    """The first result of scan(graph, lo, hi, *args) that is not None, in
    start order, over the first count start vertices, split into at most
    min(workers, count, CPUs) ranges (one when the CPU count is unknown).
    More than one range is scanned in a pool of one process per range,
    whose module is imported here, so a one-process run never loads it.  A
    range is taken only when every range before it returned None, so a
    scan need only be right when no start below its range has a result.
    """
    if not count:
        return None
    workers = min(workers, count, os.cpu_count() or 1)
    if workers <= 1:
        return scan(graph, 0, count, *args)
    from concurrent.futures import ProcessPoolExecutor

    chunk = -(-count // workers)
    tasks = [(graph, lo, min(lo + chunk, count), *args) for lo in range(0, count, chunk)]
    with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
        # map takes one iterable per parameter of scan
        for found in pool.map(scan, *zip(*tasks)):
            if found is not None:
                return found
    return None


def find_cycle_generic(
    graph: CubeSubgraph, length: int, workers: int = 1, below: int | None = None
) -> CycleWitness | None:
    """Exhaustive search for a cycle of exactly the given even length.

    Returns the canonically first witness (lowest start vertex, then DFS
    order) or None, by meeting in the middle: the first vertex s from which
    two paths of length / 2 steps above s close a cycle, and the first such
    pair in path order.  With below, only cycles whose least vertex is below
    that mask count, and a graph with no vertex below it is not scanned at
    all.  workers > 1 splits the start vertices over processes; the answer
    is identical for every worker count.
    """
    if length < 4 or length % 2:
        raise ValueError(f"cycle length must be even and >= 4, got {length}")
    if len(graph.vertices) < length:
        return None
    count = len(graph.vertices) if below is None else bisect_left(graph.vertices, below)
    found = _first_over_starts(_first_cycle_in_range, graph, count, workers, length)
    return None if found is None else CycleWitness(found)


def find_c6_minus(graph: CubeSubgraph, workers: int = 1) -> PathWitness | None:
    """Exhaustive search for a 5-edge path with endpoints at Hamming distance 1.

    Returns the first path of a DFS from each start in ascending order, the
    start being the smaller endpoint.  This is a path search, not a 6-cycle
    search: outside a single layer the two are not equivalent, because the
    closing pair only needs to be a Q_n edge, not an edge of the graph.
    Where the graph does join every end to its start, the first start with a
    path is the least vertex of a 6-cycle, so starts whose ends are all
    joined are decided by the C6 meet-in-the-middle test, and the DFS runs
    only from the other starts and from the start that has a path.  The
    answer is identical for every worker count.
    """
    if len(graph.vertices) < 6:
        return None
    found = _first_over_starts(_first_c6_minus_in_range, graph, len(graph.vertices), workers)
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
