"""Density accounting and the coloring-certificate pipeline.

Per-layer densities are compared against c/2, the odd-layer union against
c/4, and the best C10-free color class against c/12, where c is the
infinite product prod_{k>=1}(1 - 2^-k).  Every comparison is exact: the
constant enters only through a certified rational enclosure of width below
1e-12, and a report passes only when its exact ratio beats the UPPER end
of the enclosure divided by the bound's denominator, so a recorded pass
implies the strict inequality against the true constant.

The 3-coloring of E(Q_n) driving the final bound is an external input.  It
is verified for shape (every edge colored exactly once) and its color
classes are checked for C10-freeness; nothing about it is trusted or
reconstructed here.

In memory a certificate holds one byte per edge of Q_n, n * 2^(n-1) bytes
in all (512 KiB at n=16).  Edge (base, coord) sits in slot
coord * 2^(n-1) + (base with bit coord deleted), so every slot is an edge:
a byte string of the right length that holds only 0, 1 and 2 is a complete
certificate, which three bytes.count() calls check.  UNSET marks an edge
the input left out.

A certificate file is parsed in chunks of about COLORING_CHUNK_CHARS
characters, each cut just after a newline, so that parsing holds the
certificate plus one chunk, never the whole text or a list of its lines.
A chunk whose lines are all canonical, '<hex-mask> <coord> <color>' with
coord and color spelled as format_coloring spells them, takes a bulk path:
one split() yields the three columns, the coords go through one dict and
the colors through one translate(), and what is left per line is int(),
the edge test, the slot and the duplicate test.  Any other chunk is read
line by line.  Both paths make the same checks in line order, and a chunk
boundary is a line boundary of str.splitlines(), so the texts accepted,
the colors stored and every message with its line number are those of
parsing the text line by line in one piece.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count
from typing import Iterator, Mapping, TextIO

from . import cube
from .construction import (
    SearchResult,
    TrialsExhausted,
    UnionGraph,
    VectorAssignment,
    constant_c_enclosure,
    derive_seed,
    find_good_assignment,
)
from .cube import LayerId, cube_edge_count
from .detector import CubeSubgraph, CycleWitness, find_cycle_generic, subgraph_of_union

__all__ = [
    "BOUND_DIVISORS",
    "ColoringCertificate",
    "DensityReport",
    "PipelineOutcome",
    "SuiteResult",
    "SuiteExhausted",
    "edge_key",
    "edge_slot",
    "monochromatic_certificate",
    "coloring_problems",
    "verify_coloring",
    "make_report",
    "c10_pipeline",
    "search_coloring_small_n",
    "density_report_suite",
    "reports_to_csv",
    "format_coloring",
    "parse_coloring",
    "read_coloring",
]

BOUND_DIVISORS = {"c/2": 2, "c/4": 4, "c/12": 12}

COLOR_COUNT = 3

UNSET = 0xFF

# Characters per chunk when a coloring is parsed; a chunk runs on to the
# next newline when its last line is longer.
COLORING_CHUNK_CHARS = 1 << 14


def edge_key(x: int, y: int) -> tuple[int, int]:
    """Canonical key of a Q_n edge: (smaller endpoint, flipped coordinate)."""
    if (x ^ y).bit_count() != 1:
        raise ValueError(f"(0x{x:x}, 0x{y:x}) is not a Q_n edge")
    base = min(x, y)
    return base, (x ^ y).bit_length() - 1


def edge_slot(n: int, base: int, coord: int) -> int:
    """Index of the Q_n edge (base, base | 1 << coord) in ColoringCertificate.colors."""
    return coord << (n - 1) | (base >> (coord + 1)) << coord | base & ((1 << coord) - 1)


@dataclass(frozen=True)
class ColoringCertificate:
    """A 3-coloring of E(Q_n): colors[edge_slot(n, base, coord)] is the color
    of edge (base, coord), or UNSET where the input left that edge out.

    colors is bytes-like: a parsed certificate keeps the bytearray it was
    parsed into rather than copying it.  The library never changes it.
    """

    n: int
    colors: bytes | bytearray


def monochromatic_certificate(n: int, color: int = 0) -> ColoringCertificate:
    if color not in range(COLOR_COUNT):
        raise ValueError(f"color must be in [0, {COLOR_COUNT}), got {color}")
    cube.require_capacity(n)
    return ColoringCertificate(n, bytes([color]) * cube_edge_count(n))


def coloring_problems(cert: ColoringCertificate, limit: int = 10) -> list[str]:
    """Human-readable list of defects; empty iff the certificate is valid.

    A certificate of the right length is valid exactly when every byte is a
    color.  Counting the color bytes checks that without a copy, which
    bytes.translate() would make.  The edges are enumerated only to name the
    unset and out-of-range slots, in (base, coord) order, when there are some.
    """
    size = cube_edge_count(cert.n)
    if len(cert.colors) != size:
        return [f"certificate has {len(cert.colors)} colors, Q_{cert.n} has {size} edges"][:limit]
    if sum(cert.colors.count(color) for color in range(COLOR_COUNT)) == size:
        return []
    problems = []
    for base, top in cube.cube_edges(cert.n):
        if len(problems) >= limit:
            break
        coord = (base ^ top).bit_length() - 1
        color = cert.colors[edge_slot(cert.n, base, coord)]
        if color == UNSET:
            problems.append(f"edge (0x{base:x}, coord {coord}) is missing")
        elif color >= COLOR_COUNT:
            problems.append(f"edge ({base}, {coord}) has color {color}, expected 0..{COLOR_COUNT - 1}")
    return problems


def verify_coloring(cert: ColoringCertificate) -> bool:
    """True iff the map covers E(Q_n) exactly once with colors in {0, 1, 2}."""
    return not coloring_problems(cert, limit=1)


@dataclass(frozen=True)
class DensityReport:
    """Exact density of an achieved subgraph against one of the c-bounds."""

    n: int
    r: int | None
    scope: str
    achieved_edges: int
    ambient_edges: int
    ratio: Fraction
    bound_name: str
    bound_value: Fraction
    passed: bool


def make_report(
    n: int, r: int | None, scope: str, achieved: int, ambient: int, bound_name: str
) -> DensityReport:
    divisor = BOUND_DIVISORS[bound_name]
    _, c_hi = constant_c_enclosure()
    bound_value = c_hi / divisor
    ratio = Fraction(achieved, ambient)
    return DensityReport(
        n=n,
        r=r,
        scope=scope,
        achieved_edges=achieved,
        ambient_edges=ambient,
        ratio=ratio,
        bound_name=bound_name,
        bound_value=bound_value,
        passed=ratio > bound_value,
    )


def reports_to_csv(reports: list[DensityReport]) -> str:
    lines = ["n,r,scope,achieved,ambient,ratio,bound,bound_value,pass"]
    for rep in reports:
        r_field = "" if rep.r is None else str(rep.r)
        ratio = f"{rep.ratio.numerator}/{rep.ratio.denominator}"
        bound = f"{rep.bound_value.numerator}/{rep.bound_value.denominator}"
        passed = "true" if rep.passed else "false"
        lines.append(
            f"{rep.n},{r_field},{rep.scope},{rep.achieved_edges},{rep.ambient_edges},"
            f"{ratio},{rep.bound_name},{bound},{passed}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The C10 pipeline


@dataclass(frozen=True)
class PipelineOutcome:
    """Result of splitting a union graph by certificate color classes.

    success means at least one class is C10-free; best_class is then the
    free class with the most edges (smallest index on ties) and report
    scores it against c/12.  On failure, witnesses holds one C10 per class.
    """

    success: bool
    best_class: int | None
    class_edge_counts: tuple[int, ...]
    free_classes: tuple[int, ...]
    witnesses: Mapping[int, CycleWitness]
    subgraph: CubeSubgraph | None
    report: DensityReport | None


def _class_graphs(union: UnionGraph, colors: bytes | bytearray) -> list[CubeSubgraph]:
    """The union's edges split by their certificate color, one graph per color,
    each on all of the union's vertices.

    Each edge mask of subgraph_of_union is split bit by bit into one mask
    per color, so the classes share its vertex tuple and build no edge list.
    """
    n = union.n
    whole = subgraph_of_union(union)
    classes: list[list[int]] = [[] for _ in range(COLOR_COUNT)]
    for x, m in zip(whole.vertices, whole.edge_masks):
        parts = [0] * COLOR_COUNT
        while m:
            bit = m & -m
            m ^= bit
            parts[colors[edge_slot(n, x, bit.bit_length() - 1)]] |= bit
        for masks, part in zip(classes, parts):
            masks.append(part)
    return [CubeSubgraph(n, whole.vertices, tuple(masks)) for masks in classes]


def c10_pipeline(
    union: UnionGraph, cert: ColoringCertificate, workers: int = 1
) -> PipelineOutcome:
    """Score the densest C10-free color class of the union graph against c/12."""
    if cert.n != union.n:
        raise ValueError(f"certificate is for n={cert.n}, union graph has n={union.n}")
    problems = coloring_problems(cert)
    if problems:
        raise ValueError("invalid coloring certificate: " + "; ".join(problems))
    graphs = _class_graphs(union, cert.colors)
    counts = tuple(sum(map(int.bit_count, sub.edge_masks)) for sub in graphs)
    free = []
    witnesses = {}
    for k, sub in enumerate(graphs):
        witness = find_cycle_generic(sub, 10, workers=workers)
        if witness is None:
            free.append(k)
        else:
            witnesses[k] = witness
    if not free:
        return PipelineOutcome(False, None, counts, (), witnesses, None, None)
    best = min(free, key=lambda k: (-counts[k], k))
    if len(free) == COLOR_COUNT and COLOR_COUNT * counts[best] < sum(counts):
        # Averaging over three classes: the best one carries >= a third.
        raise RuntimeError(f"best class {best} holds under a third of the edges {counts}")
    report = make_report(
        union.n, None, "final", counts[best], cube_edge_count(union.n), "c/12"
    )
    return PipelineOutcome(True, best, counts, tuple(free), witnesses, graphs[best], report)


def _first_c10_in_classes(union: UnionGraph, colors: bytes | bytearray) -> CycleWitness | None:
    """A C10 in the lowest color class that holds one, or None when all are C10-free."""
    for sub in _class_graphs(union, colors):
        witness = find_cycle_generic(sub, 10)
        if witness is not None:
            return witness
    return None


def search_coloring_small_n(
    union: UnionGraph, budget: int, seed: int = 0
) -> ColoringCertificate | None:
    """Look for a certificate whose classes restricted to the union are C10-free.

    Randomized at every n: draw a coloring from seed, then up to budget
    times look for a C10 in the lowest class that holds one and recolor one
    of its edges at random.  For n <= 3, Q_n has no C10, so the first draw
    is returned.  Returns None when the budget runs out.  Experimental
    stand-in for a real external certificate; a success here says nothing
    beyond this graph.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    n = union.n
    # in (base, coord) order, which orders the random draws
    slots = [edge_slot(n, x, (x ^ y).bit_length() - 1) for x, y in cube.cube_edges(n)]
    colors = bytearray(len(slots))
    rng = random.Random(seed)
    for slot in slots:
        colors[slot] = rng.randrange(COLOR_COUNT)
    for _ in range(budget):
        witness = _first_c10_in_classes(union, colors)
        if witness is None:
            return ColoringCertificate(n, bytes(colors))
        cycle = witness.vertices
        i = rng.randrange(len(cycle))
        slot = edge_slot(n, *edge_key(cycle[i], cycle[(i + 1) % len(cycle)]))
        colors[slot] = (colors[slot] + 1 + rng.randrange(COLOR_COUNT - 1)) % COLOR_COUNT
    return None


# ---------------------------------------------------------------------------
# The full report suite


@dataclass(frozen=True)
class SuiteResult:
    reports: tuple[DensityReport, ...]
    union: UnionGraph
    assignments: Mapping[int, VectorAssignment]
    trials: Mapping[int, int]
    pipeline: PipelineOutcome | None


class SuiteExhausted(RuntimeError):
    """A layer search ran out of trials; carries the reports gathered so far."""

    def __init__(self, cause: TrialsExhausted, partial_reports: tuple[DensityReport, ...]):
        super().__init__(str(cause))
        self.cause = cause
        self.partial_reports = partial_reports


def density_report_suite(
    n: int,
    seed: int,
    certificate: ColoringCertificate | None = None,
    max_trials: int = 512,
    workers: int = 1,
) -> SuiteResult:
    """Run the whole chain: per-layer searches, the odd-layer union, and the
    certificate step when a certificate is supplied.

    Layer r uses the derived seed (seed, r).  Per-layer reports are checked
    against c/2, the union against c/4 and the best color class against
    c/12; all ratios are exact.
    """
    reports: list[DensityReport] = []
    searches: dict[int, SearchResult] = {}
    for r in range(1, n + 1, 2):
        try:
            found = find_good_assignment(n, r, derive_seed(seed, r), max_trials)
        except TrialsExhausted as exc:
            raise SuiteExhausted(exc, tuple(reports)) from exc
        searches[r] = found
        reports.append(
            make_report(
                n, r, "layer", found.edges, cube.layer_edge_count(LayerId(n, r)), "c/2"
            )
        )
    union = UnionGraph(n, {r: s.graph for r, s in searches.items()})
    achieved = sum(s.edges for s in searches.values())
    reports.append(make_report(n, None, "union", achieved, cube_edge_count(n), "c/4"))
    pipeline = None
    if certificate is not None:
        pipeline = c10_pipeline(union, certificate, workers=workers)
        if pipeline.report is not None:
            reports.append(pipeline.report)
    return SuiteResult(
        reports=tuple(reports),
        union=union,
        assignments={r: s.assignment for r, s in searches.items()},
        trials={r: s.trials for r, s in searches.items()},
        pipeline=pipeline,
    )


# ---------------------------------------------------------------------------
# Certificate text format


def format_coloring(cert: ColoringCertificate) -> str:
    """The certificate as text, one line per colored edge in (base, coord) order."""
    n = cert.n
    lines = [f"# qn-coloring n={n}"]
    for base, top in cube.cube_edges(n):
        coord = (base ^ top).bit_length() - 1
        color = cert.colors[edge_slot(n, base, coord)]
        if color != UNSET:
            lines.append(f"{base:x} {coord} {color}")
    return "\n".join(lines) + "\n"


# A chunk is canonical when it starts with a canonical line and every
# newline in it ends the chunk or is followed by another canonical line.
# Neither search keeps state per line, unlike a fullmatch of (?:line)*.
_CANONICAL_LINE = re.compile(r"[0-9a-f]+ [0-9]+ [012]\n")
_NONCANONICAL_NEXT = re.compile(r"\n(?![0-9a-f]+ [0-9]+ [012]\n|\Z)")
_COLOR_BYTES = bytes.maketrans(b"012", bytes(range(COLOR_COUNT)))


def _coloring_line(lineno: int, line: str) -> tuple[int, int, int] | None:
    """(base, coord, color) of any data line, or None for a blank or comment line."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    parts = stripped.split()
    if len(parts) != 3:
        raise ValueError(f"line {lineno}: expected '<hex-mask> <coord> <color>', got {line!r}")
    try:
        return int(parts[0], 16), int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"line {lineno}: bad hex mask or number in {line!r}") from exc


def parse_coloring(text: str) -> ColoringCertificate:
    """Read a coloring text, checking every line; edges it leaves out stay UNSET.

    The text is fed to the parser in slices cut just after a newline (see
    the module docstring), so that no list of its lines is built.  The first
    fatal error raises at once; duplicate edges are collected and raised
    together after the last line.
    """
    size = COLORING_CHUNK_CHARS
    blocks = (text[i : i + size] for i in range(0, len(text), size))
    return _parse_coloring_chunks(_line_chunks(blocks))


def read_coloring(stream: TextIO) -> ColoringCertificate:
    """parse_coloring for an open text file, read one chunk at a time, so that
    memory is the certificate plus one chunk.  A decoding error raises as
    the read reaches it, after any error on an earlier line."""
    blocks = iter(lambda: stream.read(COLORING_CHUNK_CHARS), "")
    return _parse_coloring_chunks(_line_chunks(blocks))


def _line_chunks(blocks: Iterator[str]) -> Iterator[str]:
    """The text of blocks re-cut just after the last newline of each block,
    so that every chunk but the last ends in a newline; a line longer than
    a block is joined from several."""
    pending: list[str] = []
    for block in blocks:
        cut = block.rfind("\n") + 1
        if not cut:
            pending.append(block)
            continue
        pending.append(block[:cut])
        yield "".join(pending)
        pending = [block[cut:]]
    tail = "".join(pending)
    if tail:
        yield tail


def _parse_coloring_chunks(chunks: Iterator[str]) -> ColoringCertificate:
    """The parser behind parse_coloring and read_coloring.

    Every chunk but the last ends in a newline, so the chunks' splitlines()
    concatenate to the text's, and a line number is the count of lines in
    the chunks before it plus its place in its own.
    """
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
    cube.require_capacity(n)
    colors = bytearray([UNSET]) * cube_edge_count(n)
    # slot = top | (base >> 1) & high | base & low for an edge (base, coord)
    low = [(1 << j) - 1 for j in range(n)]
    slot_terms = {str(j): (j << (n - 1), 1 << j, low[j], low[n - 1] ^ low[j]) for j in range(n)}
    duplicates: list[str] = []
    lineno = 2
    for chunk in chain([first[len(head[0]):]], chunks):
        if _CANONICAL_LINE.match(chunk) and not _NONCANONICAL_NEXT.search(chunk):
            tokens = chunk.split()
            try:
                terms = list(map(slot_terms.__getitem__, tokens[1::3]))
            except KeyError:
                pass
            else:
                shades = "".join(tokens[2::3]).encode().translate(_COLOR_BYTES)
                _store_canonical(n, colors, duplicates, lineno, tokens[::3], terms, shades)
                lineno += len(terms)
                continue
        lines = chunk.splitlines()
        _store_lines(n, colors, duplicates, lineno, lines)
        lineno += len(lines)
    if duplicates:
        raise ValueError("; ".join(duplicates))
    return ColoringCertificate(n, colors)


def _store_canonical(n, colors, duplicates, lineno, bases, terms, shades) -> None:
    """Store the lines of a canonical chunk, given as its three columns with
    each coord replaced by its slot_terms."""
    seen = None
    for lineno, token, (top, bit, low, high), color in zip(count(lineno), bases, terms, shades):
        if token != seen:  # a file in (base, coord) order repeats each base
            seen, base = token, int(token, 16)
        if base >> n or base & bit:
            coord = bit.bit_length() - 1
            raise ValueError(f"line {lineno}: (0x{base:x}, {coord}) is not an edge of Q_{n}")
        slot = top | (base >> 1) & high | base & low
        if colors[slot] != UNSET:
            coord = bit.bit_length() - 1
            duplicates.append(f"line {lineno}: duplicate edge (0x{base:x}, {coord})")
        colors[slot] = color


def _store_lines(n, colors, duplicates, lineno, lines) -> None:
    """Store any lines, one at a time, each read by _coloring_line."""
    for lineno, line in enumerate(lines, start=lineno):
        entry = _coloring_line(lineno, line)
        if entry is None:
            continue
        base, coord, color = entry
        if not 0 <= coord < n or base >> n or (base >> coord) & 1:
            raise ValueError(f"line {lineno}: (0x{base:x}, {coord}) is not an edge of Q_{n}")
        if color not in range(COLOR_COUNT):
            raise ValueError(f"line {lineno}: color must be 0..{COLOR_COUNT - 1}, got {color}")
        slot = edge_slot(n, base, coord)
        if colors[slot] != UNSET:
            duplicates.append(f"line {lineno}: duplicate edge (0x{base:x}, {coord})")
        colors[slot] = color
