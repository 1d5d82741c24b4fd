"""The n-cube as subsets of {0, ..., n-1} packed into bitmasks.

A vertex of Q_n is an int mask; bit i set means element i is in the subset.
Two vertices are adjacent iff their masks differ in exactly one bit.  Layer
r consists of the edges between (r-1)-subsets and r-subsets.

Subset enumeration is capped at n <= 24 by default (binomial(24, 12) is
about 2.7M vertices); the QT_CAPACITY environment variable overrides the
cap.  Membership-style queries work for any n.

Edge-list text format (shared by the exporters in other modules):
    # qn n=<n>
    <x-hex> <y-hex>
one edge per line, lowercase hex masks, with popcount(y) = popcount(x) + 1
and x a subset of y.  Bit i of a mask represents element i+1 of the ground
set {1, ..., n}.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import comb
from typing import Container, Iterable, Iterator

__all__ = [
    "CapacityError",
    "LayerId",
    "enumeration_cap",
    "require_capacity",
    "bit_indices",
    "are_adjacent",
    "subsets_of_size",
    "layer_vertices",
    "layer_edge_count",
    "cube_edge_count",
    "cube_edges",
    "upward_masks",
    "upward_edges",
    "format_edge_list",
    "parse_edge_list",
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


@dataclass(frozen=True)
class LayerId:
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


def are_adjacent(x: int, y: int) -> bool:
    """True iff the two vertices differ in exactly one coordinate."""
    return (x ^ y).bit_count() == 1


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


def layer_vertices(layer: LayerId, side: str) -> Iterator[int]:
    """Vertices on one side of a layer: 'lower' = (r-1)-subsets, 'upper' = r-subsets."""
    if side == "lower":
        return subsets_of_size(layer.n, layer.r - 1)
    if side == "upper":
        return subsets_of_size(layer.n, layer.r)
    raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")


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


def upward_masks(n: int, vertices: Iterable[int], present: Container[int]) -> list[int]:
    """For each vertex x, the mask of the coordinates j outside x with
    x | 1 << j in present."""
    full, masks = (1 << n) - 1, []
    for x in vertices:
        free, m = full ^ x, 0
        while free:
            bit = free & -free
            free ^= bit
            if x | bit in present:
                m |= bit
        masks.append(m)
    return masks


def upward_edges(vertices: Iterable[int], masks: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The edges (x, x | 1 << j) for each vertex x and each bit j of its
    mask, ordered by (x, j)."""
    for x, m in zip(vertices, masks):
        while m:
            bit = m & -m
            m ^= bit
            yield x, x | bit


def format_edge_list(n: int, edges: list[tuple[int, int]]) -> str:
    """Serialize edges in the shared text format, sorted for reproducibility."""
    lines = [f"# qn n={n}"]
    for x, y in sorted(edges):
        lines.append(f"{x:x} {y:x}")
    return "\n".join(lines) + "\n"


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
