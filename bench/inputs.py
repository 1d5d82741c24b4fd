"""Inputs the benchmark writes itself: the coloring certificate and the
positive controls for `verify`.  Nothing here imports qturan; the text
formats follow the README."""

from __future__ import annotations

import random
from pathlib import Path


def rule_color(coord: int) -> int:
    """The certify workload's coloring: an edge's color is its flipped coordinate mod 3."""
    return coord % 3


def write_coloring(path: Path, n: int) -> None:
    """Certificate lines '<base-hex> <coord> <color>', keyed by the smaller
    endpoint, in increasing (base, coord) order."""
    suffixes = [f" {j} {rule_color(j)}\n" for j in range(n)]
    with path.open("w") as f:
        f.write(f"# qn-coloring n={n}\n")
        for x in range(1 << n):
            head = f"{x:x}"
            f.writelines(head + suffixes[j] for j in range(n) if not x >> j & 1)


def layer_text(n: int, r: int, lower, upper) -> str:
    """A layer export: inclusion edges by (lower, upper), then the two sides."""
    upper = set(upper)
    lines = [f"# qn n={n}"]
    for x in sorted(lower):
        lines.extend(f"{x:x} {x | 1 << j:x}" for j in range(n) if not x >> j & 1 and x | 1 << j in upper)
    lines.append(f"# layer r={r}")
    lines.append("# lower")
    lines.extend(f"{x:x}" for x in sorted(lower))
    lines.append("# upper")
    lines.extend(f"{y:x}" for y in sorted(upper))
    return "\n".join(lines) + "\n"


def edge_list_text(n: int, edges) -> str:
    lines = [f"# qn n={n}"]
    lines.extend(f"{x:x} {y:x}" for x, y in sorted({(min(e), max(e)) for e in edges}))
    return "\n".join(lines) + "\n"


def walk(start: int, flips: list[int]) -> list[int]:
    path = [start]
    for j in flips:
        path.append(path[-1] ^ 1 << j)
    return path


def planted_controls(seed: int, n: int = 8, noise: int = 12) -> dict[str, list[tuple[int, int]]]:
    """Edge sets of Q_n with a planted C6, C6- and C10 among random noise
    edges, keyed by the verify target that must find them.

    Each cycle flips k random coordinates in turn, twice around, from a
    random start (k = 3 gives a C6 around a 3-subcube, k = 5 a C10); the C6-
    is such a C6 less one edge.
    """
    rng = random.Random(seed)
    controls = {}
    for target, k in (("c6", 3), ("c6minus", 3), ("c10", 5)):
        axes = rng.sample(range(n), k)
        cycle = walk(rng.getrandbits(n), axes + axes)[:-1]
        edges = [(cycle[i - 1], cycle[i]) for i in range(2 * k)]
        if target == "c6minus":
            edges.pop(rng.randrange(2 * k))
        for _ in range(noise):
            x = rng.getrandbits(n)
            edges.append((x, x ^ 1 << rng.randrange(n)))
        controls[target] = edges
    return controls


def full_layer(n: int, r: int) -> tuple[list[int], list[int]]:
    """Both sides of layer r of Q_n with every vertex kept."""
    return (
        [x for x in range(1 << n) if x.bit_count() == r - 1],
        [y for y in range(1 << n) if y.bit_count() == r],
    )
