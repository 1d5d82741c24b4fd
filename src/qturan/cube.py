"""The n-cube as subsets of {0, ..., n-1} packed into bitmasks.

A vertex of Q_n is an int mask; bit i set means element i is in the subset.
Two vertices are adjacent iff their masks differ in exactly one bit.  Layer
r consists of the edges between (r-1)-subsets and r-subsets.

Subset enumeration is capped at n <= 24 by default (binomial(24, 12) is
about 2.7M vertices); the QT_CAPACITY environment variable overrides the
cap.  Membership-style queries work for any n.

Edge-list text format, which verify reads and the layer file begins with:
    # qn n=<n>
    <x-hex> <y-hex>
one edge per line, lowercase hex masks, with popcount(y) = popcount(x) + 1
and x a subset of y.  Bit i of a mask represents element i+1 of the ground
set {1, ..., n}.

A layer graph, LayerSubgraph, is a subgraph of one layer; its file is the
edge list followed by a '# layer r=<r>' line and the '# lower' and
'# upper' vertex sections, one hex mask per line.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from itertools import chain, repeat
from math import comb
from operator import ne, or_
from typing import Container, Iterable, Iterator

from .record import Record

__all__ = [
    "CapacityError",
    "LayerId",
    "enumeration_cap",
    "require_capacity",
    "bit_indices",
    "subsets_of_size",
    "layer_edge_count",
    "cube_edge_count",
    "cube_edges",
    "upward_pairs",
    "upward_edges",
    "parse_edge_list",
    "LayerSubgraph",
    "edge_count",
    "edge_pairs",
    "upper_ends",
    "layer_graph_text",
    "format_layer_graph",
    "parse_layer_graph",
]

DEFAULT_ENUMERATION_CAP = 24
CAPACITY_ENV = "QT_CAPACITY"


class CapacityError(RuntimeError):
    """Raised when an enumeration would exceed the desk-scale cap."""


def enumeration_cap() -> int:
    raw = os.environ.get(CAPACITY_ENV)
    if raw is None:
        return DEFAULT_ENUMERATION_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{CAPACITY_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{CAPACITY_ENV} must be >= 1, got {cap}")
    return cap


def require_capacity(n: int) -> None:
    """Raise CapacityError when enumerating subsets of an n-set exceeds the cap."""
    cap = enumeration_cap()
    if n > cap:
        raise CapacityError(f"enumeration over n={n} exceeds cap {cap}")


class LayerId(Record):
    """Layer r of Q_n: the edges between (r-1)-subsets and r-subsets."""

    n: int
    r: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"ground-set size must be >= 1, got {self.n}")
        if not 1 <= self.r <= self.n:
            raise ValueError(f"layer index must be in [1, {self.n}], got {self.r}")


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def subsets_of_size(n: int, k: int) -> Iterator[int]:
    """All masks of k-subsets of an n-set, in increasing mask order."""
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"invalid subset size {k} for ground set of {n}")
    require_capacity(n)
    if k == 0:
        yield 0
        return
    limit = 1 << n
    mask = (1 << k) - 1
    while mask < limit:
        yield mask
        # Gosper's hack: next k-subset in increasing mask order.
        low = mask & -mask
        ripple = mask + low
        mask = ripple | (((mask ^ ripple) // low) >> 2)


def layer_edge_count(layer: LayerId) -> int:
    """Number of inclusion pairs in the full layer: r * binomial(n, r)."""
    return layer.r * comb(layer.n, layer.r)


def cube_edge_count(n: int) -> int:
    """e(Q_n) = n * 2^(n-1)."""
    if n < 1:
        raise ValueError(f"ground-set size must be >= 1, got {n}")
    return n * (1 << (n - 1))


def cube_edges(n: int) -> Iterator[tuple[int, int]]:
    """All edges of Q_n as (x, x | bit) pairs, ordered by (x, flipped bit)."""
    if n < 1:
        raise ValueError(f"ground-set size must be >= 1, got {n}")
    require_capacity(n)
    for x in range(1 << n):
        for j in range(n):
            if not (x >> j) & 1:
                yield x, x | (1 << j)


def upward_pairs(vertices: Iterable[int], present: Container[int]) -> Iterator[tuple[int, int]]:
    """The pairs (y ^ b, y) for each vertex y and each set bit b of y with
    y ^ b in present: y is an end of y ^ b, one bit above it.  The walk
    costs the sum of the vertices' popcounts, whatever n is."""
    for y in vertices:
        bits = y
        while bits:
            b = bits & -bits
            bits ^= b
            if y ^ b in present:
                yield y ^ b, y


def upward_edges(vertices: Iterable[int], masks: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The edges (x, x | 1 << j) for each vertex x and each bit j of its
    mask, ordered by (x, j)."""
    for x, m in zip(vertices, masks):
        while m:
            bit = m & -m
            m ^= bit
            yield x, x | bit


def parse_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Parse the shared edge-list format; validates masks and inclusions."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# qn n="):
        raise ValueError("edge list must start with a '# qn n=<n>' header")
    try:
        n = int(lines[0].split("=", 1)[1])
    except ValueError as exc:
        raise ValueError(f"bad edge-list header: {lines[0]!r}") from exc
    if n < 1:
        raise ValueError(f"bad ground-set size in header: {n}")
    edges = []
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two hex masks, got {line!r}")
        try:
            x, y = int(parts[0], 16), int(parts[1], 16)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad hex mask in {line!r}") from exc
        if x >> n or y >> n:
            raise ValueError(f"line {lineno}: mask outside ground set of size {n}")
        if x & y != x or y.bit_count() != x.bit_count() + 1:
            raise ValueError(f"line {lineno}: {parts[0]} {parts[1]} is not an inclusion edge")
        edges.append((x, y))
    return n, edges


# ---------------------------------------------------------------------------
# Layer graphs and the layer file


class LayerSubgraph(Record):
    """Induced subgraph of a layer: the surviving lower vertices in
    increasing mask order, each with the mask of its edge coordinates.

    edge_masks[i] holds bit j exactly when (lower[i], lower[i] | 1 << j) is
    an edge, so the edges come straight from the masks in (lower, upper)
    order, with no set lookup.  upper is the surviving upper side in
    increasing order; it may hold vertices without an edge.  induced checks
    the two sides and derives the masks; the Record constructor trusts its
    fields.  A generated layer's upper side is the set of its edge ends,
    upper_ends.
    """

    layer: LayerId
    lower: tuple[int, ...]
    upper: tuple[int, ...]
    edge_masks: tuple[int, ...]

    @classmethod
    def induced(cls, layer: LayerId, lower: Iterable[int], upper: Iterable[int]) -> LayerSubgraph:
        """The subgraph induced on the two sides, given as any iterables of
        masks, with the edge masks from one walk over the upper side's set
        bits, each lower end found by bisection in the sorted lower side."""
        n, r = layer.n, layer.r
        lower, upper = frozenset(lower), frozenset(upper)
        for x in lower:
            if x >> n or x.bit_count() != r - 1:
                raise ValueError(f"lower vertex 0x{x:x} is not an (r-1)-subset of [{n}]")
        for y in upper:
            if y >> n or y.bit_count() != r:
                raise ValueError(f"upper vertex 0x{y:x} is not an r-subset of [{n}]")
        lows = tuple(sorted(lower))
        masks = [0] * len(lows)
        for x, y in upward_pairs(upper, lower):
            masks[bisect_left(lows, x)] |= x ^ y
        return cls(layer, lows, tuple(sorted(upper)), tuple(masks))


def edge_count(g: LayerSubgraph) -> int:
    """Number of inclusion pairs between the surviving sides."""
    return sum(map(int.bit_count, g.edge_masks))


def edge_pairs(g: LayerSubgraph) -> Iterator[tuple[int, int]]:
    """The implicit edges, ordered by (lower mask, upper mask)."""
    return upward_edges(g.lower, g.edge_masks)


def upper_ends(lower: Iterable[int], masks: Iterable[int]) -> tuple[int, ...]:
    """The upper ends x | 1 << j of the edges of lower vertices x with their
    edge masks, in increasing order: the upper side of a generated layer,
    where every upper survivor has a lower neighbour.

    The vertices are grouped by mask, and the ends of a group through one
    coordinate are added to the set in one pass at C speed.  A generated
    layer has few distinct masks: 165 for the 16,957 lower vertices at
    n=18, r=9.  Each group is dropped once added, so the groups and the set
    together peak about where the set alone ends.
    """
    groups: dict[int, list[int]] = {}
    for x, m in zip(lower, masks):
        groups.setdefault(m, []).append(x)
    ends: set[int] = set()
    while groups:
        m, xs = groups.popitem()
        for j in bit_indices(m):
            ends.update(map(or_, xs, repeat(1 << j)))
    upper = sorted(ends)
    del ends  # the set goes before the tuple is made
    return tuple(upper)


# lower vertices per block of layer text; the writer holds one block's
# edge ends and its text at a time, so its peak does not grow with the
# layer.  Larger blocks write a little faster but raise the peak RSS of
# pipeline --out.
_TEXT_BLOCK = 256


def _vertex_lines(vertices: tuple[int, ...]) -> Iterator[str]:
    for at in range(0, len(vertices), _TEXT_BLOCK):
        block = vertices[at : at + _TEXT_BLOCK]
        yield "%x\n" * len(block) % block


def layer_graph_text(g: LayerSubgraph) -> Iterator[str]:
    """The layer file in pieces: the edge-list body in the shared format,
    then the two vertex sections, one str per block of vertices.

    The edge masks are expanded through a table of the tuples of their bits
    1 << j, one per distinct mask, so the work per edge runs at C speed.
    The table is built before the first block; built between the blocks'
    short-lived lists, its tuples raised the peak RSS of pipeline --out.
    """
    yield f"# qn n={g.layer.n}\n"
    lower, masks = g.lower, g.edge_masks
    bits = {m: tuple(1 << j for j in bit_indices(m)) for m in set(masks)}
    for at in range(0, len(lower), _TEXT_BLOCK):
        block = masks[at : at + _TEXT_BLOCK]
        counts = map(int.bit_count, block)
        xs = list(chain.from_iterable(map(repeat, lower[at : at + _TEXT_BLOCK], counts)))
        ends = [0] * (2 * len(xs))
        ends[::2] = xs
        ends[1::2] = map(or_, xs, chain.from_iterable(map(bits.__getitem__, block)))
        yield "%x %x\n" * len(xs) % tuple(ends)
    yield f"# layer r={g.layer.r}\n# lower\n"
    yield from _vertex_lines(lower)
    yield "# upper\n"
    yield from _vertex_lines(g.upper)


def format_layer_graph(g: LayerSubgraph) -> str:
    """The whole layer file as one str."""
    return "".join(layer_graph_text(g))


def _parse_canonical_layer(text: str) -> LayerSubgraph | None:
    """The graph of a layer file exactly as layer_graph_text writes it, or
    None for any other text.

    Only the header and the vertex sections are read; the graph they
    induce is accepted when its own text is the whole of text, so the edge
    lines and every byte of spelling are checked in one compare per piece.
    """
    head, _, rest = text.partition("\n")
    _, _, rest = rest.partition("# layer r=")
    r_text, _, rest = rest.partition("\n# lower\n")
    lower_text, _, upper_text = rest.partition("# upper\n")
    try:
        layer = LayerId(int(head.removeprefix("# qn n=")), int(r_text))
        g = LayerSubgraph.induced(
            layer,
            [int(x, 16) for x in lower_text.split()],
            [int(y, 16) for y in upper_text.split()],
        )
    except ValueError:
        return None
    at = 0
    for piece in layer_graph_text(g):
        if not text.startswith(piece, at):
            return None
        at += len(piece)
    return g if at == len(text) else None


def _parse_layer_lines(text: str) -> LayerSubgraph:
    """Any layer file, read line by line; blank and unknown comment lines
    are skipped, and each error names its line."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# qn n="):
        raise ValueError("layer file must start with a '# qn n=<n>' header")
    try:
        n = int(lines[0].split("=", 1)[1])
    except ValueError as exc:
        raise ValueError(f"bad layer-file header: {lines[0]!r}") from exc
    r = None
    section = "edges"
    ends: list[int] = []  # both masks of every edge line, in file order
    lower: set[int] = set()
    upper: set[int] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped[0] == "#":
            if stripped.startswith("# layer r="):
                try:
                    r = int(stripped.split("=", 1)[1])
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: bad layer line {line!r}") from exc
            elif stripped == "# lower":
                section = "lower"
            elif stripped == "# upper":
                section = "upper"
            continue
        parts = stripped.split()
        if section == "edges" and len(parts) != 2:
            raise ValueError(f"line {lineno}: expected an edge, got {line!r}")
        if section != "edges" and len(parts) != 1:
            raise ValueError(f"line {lineno}: expected a vertex mask, got {line!r}")
        try:
            if section == "edges":
                ends.append(int(parts[0], 16))
                ends.append(int(parts[1], 16))
            else:
                (lower if section == "lower" else upper).add(int(parts[0], 16))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad hex mask in {line!r}") from exc
    if r is None:
        raise ValueError("layer file is missing its '# layer r=<r>' line")
    g = LayerSubgraph.induced(LayerId(n, r), lower, upper)
    if len(ends) != 2 * edge_count(g) or any(map(ne, ends, chain.from_iterable(edge_pairs(g)))):
        raise ValueError("edge lines do not match the inclusion pairs of the vertex sections")
    return g


def parse_layer_graph(text: str) -> LayerSubgraph:
    """The layer graph of a layer file.  Text exactly as layer_graph_text
    writes it takes a fast path; any other text, and every error, goes
    through the line reader."""
    g = _parse_canonical_layer(text)
    return _parse_layer_lines(text) if g is None else g
