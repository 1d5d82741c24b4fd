"""Reference checks for the outputs of the qturan CLI.

Nothing here imports qturan.  The text formats are parsed from their
description in the README, survivors are recounted by a GF(2) elimination
of its own (a depth-first walk over subsets with an incrementally reduced
basis, not the per-subset rank the program uses), the constant c comes from
Euler's pentagonal number series instead of a partial product, and C6 in a
layer is looked for as a triangle of axis pairs over a common core.

Every check raises CheckError with a message that names what is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

CSV_HEADER = "n,r,scope,achieved,ambient,ratio,bound,bound_value,pass"
BOUND_DIVISORS = {"c/2": 2, "c/4": 4, "c/12": 12}
# The program rounds its enclosure of c outward to 18 digits at a width
# below 1e-12; a printed bound further than this from c/div is wrong.
BOUND_SLACK = Fraction(1, 10**12)


class CheckError(AssertionError):
    """An output of the program disagrees with the reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# The constant c = prod_{k>=1} (1 - 2^-k)


def c_enclosure(groups: int = 12) -> tuple[Fraction, Fraction]:
    """Certified [lo, hi] around c from the pentagonal number theorem.

    prod(1 - q^k) = 1 + sum_{m>=1} (-1)^m (q^{m(3m-1)/2} + q^{m(3m+1)/2}).
    At q = 1/2 the grouped terms alternate in sign and shrink, so two
    consecutive partial sums bracket the limit.
    """
    q = Fraction(1, 2)
    partial = Fraction(1)
    sums = [partial]
    for m in range(1, groups + 1):
        partial += (-1) ** m * (q ** (m * (3 * m - 1) // 2) + q ** (m * (3 * m + 1) // 2))
        sums.append(partial)
    lo, hi = sorted(sums[-2:])
    return lo, hi


# ---------------------------------------------------------------------------
# Text formats


@dataclass(frozen=True)
class Assignment:
    n: int
    r: int
    anchor: int
    vectors: tuple[int, ...]


@dataclass(frozen=True)
class Layer:
    n: int
    r: int
    edges: tuple[tuple[int, int], ...]
    lower: frozenset[int]
    upper: frozenset[int]


def _header_fields(line: str, prefix: str) -> dict[str, int]:
    require(line.startswith(prefix), f"expected a {prefix!r} header, got {line!r}")
    try:
        return {k: int(v) for k, v in (f.split("=", 1) for f in line[len(prefix):].split())}
    except ValueError as exc:
        raise CheckError(f"bad header {line!r}") from exc


def parse_assignment(text: str) -> Assignment:
    lines = text.splitlines()
    head = _header_fields(lines[0] if lines else "", "# gf2-assignment ")
    n, r = head["n"], head["r"]
    require(len(lines) == n + 2, f"assignment has {len(lines)} lines, expected {n + 2}")
    values = []
    for i, line in enumerate(lines[1:]):
        name, _, value = line.partition(" ")
        require(name == f"v{i}", f"expected v{i}, got {line!r}")
        v = int(value, 16)
        require(0 < v < 1 << r, f"v{i} = {value} is not a nonzero vector of F_2^{r}")
        values.append(v)
    return Assignment(n, r, values[0], tuple(values[1:]))


def parse_layer(text: str) -> Layer:
    lines = text.splitlines()
    head = _header_fields(lines[0] if lines else "", "# qn ")
    n = head["n"]
    r = None
    section = "edges"
    edges: list[tuple[int, int]] = []
    sides: dict[str, list[int]] = {"lower": [], "upper": []}
    for line in lines[1:]:
        if line.startswith("# layer r="):
            r = int(line.split("=", 1)[1])
        elif line in ("# lower", "# upper"):
            section = line[2:]
        elif section == "edges":
            x, y = (int(f, 16) for f in line.split())
            edges.append((x, y))
        else:
            sides[section].append(int(line, 16))
    require(r is not None, "layer file has no '# layer r=' line")
    for side, width in (("lower", r - 1), ("upper", r)):
        masks = sides[side]
        require(len(set(masks)) == len(masks), f"{side} section repeats a vertex")
        for v in masks:
            require(v >> n == 0 and v.bit_count() == width, f"{side} vertex {v:x} has the wrong size")
    return Layer(n, r, tuple(edges), frozenset(sides["lower"]), frozenset(sides["upper"]))


def parse_csv(text: str) -> list[dict[str, str]]:
    lines = text.splitlines()
    require(bool(lines) and lines[0] == CSV_HEADER, f"bad CSV header: {lines[:1]}")
    keys = CSV_HEADER.split(",")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        require(len(fields) == len(keys), f"bad CSV row {line!r}")
        rows.append(dict(zip(keys, fields)))
    return rows


def parse_fraction(text: str) -> Fraction:
    p, _, q = text.partition("/")
    return Fraction(int(p), int(q))


def parse_witness(line: str, label: str) -> tuple[int, ...]:
    fields = line.split()
    require(bool(fields) and fields[0] == label, f"expected a {label} witness, got {line!r}")
    return tuple(int(f, 16) for f in fields[1:])


# ---------------------------------------------------------------------------
# Survivors, recounted


def _reduce(v: int, basis: list[int]) -> int:
    # basis rows have distinct leading bits, sorted from the highest down
    for row in basis:
        if v ^ row < v:
            v ^= row
    return v


def independent_subsets(vectors: tuple[int, ...], size: int, start: list[int]) -> set[int]:
    """Masks of the size-subsets whose vectors together with start are independent."""
    n = len(vectors)
    found: set[int] = set()

    def walk(first: int, depth: int, mask: int, basis: list[int]) -> None:
        if depth == size:
            found.add(mask)
            return
        for i in range(first, n - (size - depth) + 1):
            v = _reduce(vectors[i], basis)
            if v:
                walk(i + 1, depth + 1, mask | 1 << i, sorted(basis + [v], reverse=True))

    base: list[int] = []
    for v in start:
        v = _reduce(v, base)
        require(v != 0, "anchor is zero")
        base = sorted(base + [v], reverse=True)
    walk(0, 0, 0, base)
    return found


def survivors(a: Assignment) -> tuple[set[int], set[int]]:
    """Lower side: anchor plus an (r-1)-subset is a basis; upper: an r-subset is."""
    return (
        independent_subsets(a.vectors, a.r - 1, [a.anchor]),
        independent_subsets(a.vectors, a.r, []),
    )


def inclusion_pairs(n: int, lower, upper) -> set[tuple[int, int]]:
    upper = set(upper)
    return {
        (x, x | 1 << j)
        for x in lower
        for j in range(n)
        if not x >> j & 1 and x | 1 << j in upper
    }


def check_layer_export(assignment_text: str, layer_text: str, n: int, r: int) -> Layer:
    """The layer file holds exactly the survivors of its assignment and the
    edges between them; returns the parsed layer."""
    a = parse_assignment(assignment_text)
    g = parse_layer(layer_text)
    require((a.n, a.r) == (n, r), f"assignment is for n={a.n}, r={a.r}, expected n={n}, r={r}")
    require((g.n, g.r) == (n, r), f"layer file is for n={g.n}, r={g.r}, expected n={n}, r={r}")
    lower, upper = survivors(a)
    require(g.lower == lower, f"layer {r}: lower side differs from the recount")
    require(g.upper == upper, f"layer {r}: upper side differs from the recount")
    pairs = inclusion_pairs(n, lower, upper)
    require(len(g.edges) == len(set(g.edges)), f"layer {r}: an edge line repeats")
    require(set(g.edges) == pairs, f"layer {r}: edge lines differ from the inclusion pairs")
    return g


# ---------------------------------------------------------------------------
# Density reports


def check_reports(
    csv_text: str, n: int, layer_edges: dict[int, int], union: bool, final: int | None = None
) -> None:
    """One row per exported layer in increasing r, then a union row when
    union is set and a final row with `final` edges when that is given, each
    with the recounted edges, the exact ambient count and ratio, a
    conservative bound and a pass flag that the reference enclosure of c
    confirms.  Every row passes: the search only returns layers above c/2,
    and the chains checked here are known to pass."""
    rows = parse_csv(csv_text)
    lo, hi = c_enclosure()
    expect = [("layer", str(r), e, r * comb(n, r), "c/2") for r, e in sorted(layer_edges.items())]
    if union:
        expect.append(("union", "", sum(layer_edges.values()), n << (n - 1), "c/4"))
    if final is not None:
        expect.append(("final", "", final, n << (n - 1), "c/12"))
    require(len(rows) == len(expect), f"expected {len(expect)} report rows, got {len(rows)}")
    for row, (scope, r, achieved, ambient, bound) in zip(rows, expect):
        where = f"row {row['scope']} r={row['r']}"
        require(row["n"] == str(n), f"{where}: n={row['n']}, expected {n}")
        require((row["scope"], row["r"]) == (scope, r), f"{where}: expected scope {scope} and r {r!r}")
        require(int(row["achieved"]) == achieved, f"{where}: achieved {row['achieved']}, recount {achieved}")
        require(int(row["ambient"]) == ambient, f"{where}: ambient {row['ambient']}, expected {ambient}")
        ratio = parse_fraction(row["ratio"])
        require(
            ratio == Fraction(achieved, ambient), f"{where}: ratio {row['ratio']} is not achieved/ambient"
        )
        require(
            row["ratio"] == f"{ratio.numerator}/{ratio.denominator}", f"{where}: ratio not in lowest terms"
        )
        require(row["bound"] == bound, f"{where}: bound {row['bound']}, expected {bound}")
        divisor = BOUND_DIVISORS[bound]
        value = parse_fraction(row["bound_value"])
        require(value >= hi / divisor, f"{where}: bound_value {row['bound_value']} is below c/{divisor}")
        require(
            value - lo / divisor < BOUND_SLACK, f"{where}: bound_value is not within 1e-12 of c/{divisor}"
        )
        require(row["pass"] == ("true" if ratio > value else "false"), f"{where}: pass flag is wrong")
        require(row["pass"] == "true", f"{where}: does not pass")
        require(ratio > hi / divisor, f"{where}: passes without beating c/{divisor}")


# ---------------------------------------------------------------------------
# Witnesses and freeness


def check_cycle(vertices: tuple[int, ...], length: int, has_edge) -> None:
    require(len(vertices) == length, f"witness has {len(vertices)} vertices, expected {length}")
    require(len(set(vertices)) == length, "witness repeats a vertex")
    for i, v in enumerate(vertices):
        w = vertices[(i + 1) % length]
        require(has_edge(v, w), f"witness step {v:x}-{w:x} is not an edge of the graph")


def check_c6_minus(vertices: tuple[int, ...], has_edge) -> None:
    require(len(vertices) == 6 and len(set(vertices)) == 6, "C6- witness needs 6 distinct vertices")
    for v, w in zip(vertices, vertices[1:]):
        require(has_edge(v, w), f"witness step {v:x}-{w:x} is not an edge of the graph")
    require((vertices[0] ^ vertices[-1]).bit_count() == 1, "C6- endpoints are not adjacent in Q_n")


def edge_test(edges):
    keys = {(min(x, y), max(x, y)) for x, y in edges}
    return lambda v, w: (min(v, w), max(v, w)) in keys


def layer_has_c6(g: Layer) -> bool:
    """A 6-cycle in a layer is the middle of a 3-subcube: upper vertices
    core+ab, core+ac, core+bc whose lower ends core+a, core+b, core+c all
    survive.  Group the surviving (upper, two lower ends) triples by core
    and look for a triangle among their axis pairs."""
    pairs: dict[int, set[tuple[int, int]]] = {}
    for y in g.upper:
        ends = [j for j in range(g.n) if y >> j & 1 and y ^ 1 << j in g.lower]
        for i, a in enumerate(ends):
            for b in ends[i + 1:]:
                pairs.setdefault(y ^ 1 << a ^ 1 << b, set()).add((a, b))
    for axis_pairs in pairs.values():
        for a, b in axis_pairs:
            for c in range(b + 1, g.n):
                if (a, c) in axis_pairs and (b, c) in axis_pairs:
                    return True
    return False


def check_free_layer(g: Layer) -> None:
    """An induced layer graph without a C6 has no C6- either: the closing
    pair of a 5-edge path inside a layer joins two survivors, so it is an
    edge of the induced graph."""
    require(set(g.edges) == inclusion_pairs(g.n, g.lower, g.upper), "layer graph is not induced")
    require(not layer_has_c6(g), "layer graph contains a C6")
