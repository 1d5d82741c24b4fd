"""Density accounting and the coloring-certificate pipeline.

Per-layer densities are compared against c/2, the odd-layer union against
c/4, and the best C10-free color class against c/12, where c is the
infinite product prod_{k>=1}(1 - 2^-k).  Every comparison is exact: the
constant enters only through a certified rational enclosure of width below
1e-12, and a report passes only when its exact ratio beats the UPPER end
of the enclosure divided by the bound's denominator, so a recorded pass
implies the strict inequality against the true constant.

The 3-coloring of E(Q_n) driving the final bound is either an external
certificate or a rule on (x, j) for the edge (x, x | 1 << j).  A
certificate is verified for shape (every edge colored exactly once); a
rule colors every edge once by construction, and reads its colors from a
table of n bytes, so no per-edge array is built.  Both split each layer's
edge masks into its classes through one loop, _split_layer.  Either way
the classes are checked for C10-freeness; nothing about the coloring is
trusted.  detector is imported by the class step alone, so a suite
without a coloring never loads it.

In memory a certificate holds one byte per edge of Q_n, n * 2^(n-1) bytes
in all (512 KiB at n=16), in file order: slot i holds the color of the
i-th edge of cube.cube_edges(n), the (base, coord) order in which the
README states that a coloring file lists its edges.  Every slot is an
edge, so a byte string of the right length that holds only 0, 1 and 2 is
a complete certificate, which three bytes.count() calls check.  UNSET
marks an edge the input left out.

A certificate file is parsed in chunks of about COLORING_CHUNK_CHARS
characters, each cut just after a newline, so that parsing holds the
certificate plus one chunk, never the whole text or a list of its lines.
A chunk that is exactly the canonical text of consecutive edges, one line
'<hex-base> <coord> <color>' per edge in that order, starting at the edge
on its first line, into slots the parse has not yet filled, has its colors
copied in one slice.  To check that, the chunk is XORed, as one int, with
its skeleton: the text of the same edges with each color blanked to NUL.
Any other chunk is read line by line.  A chunk
boundary is a line boundary of str.splitlines(), and an ordered chunk can
hold no error, so the texts accepted, the colors stored and every message
with its line number are those of parsing the text line by line in one
piece.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate, chain
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, TextIO

from . import cube
from .construction import (
    SearchResult,
    TrialsExhausted,
    UnionGraph,
    VectorAssignment,
    constant_c_enclosure,
    derive_seed,
    find_good_assignment,
    fork_layer_helper,
    union_odd_layers,
)
from .cube import LayerId, LayerSubgraph, cube_edge_count
from .record import Record

if TYPE_CHECKING:
    from .detector import CubeSubgraph, CycleWitness

__all__ = [
    "BOUND_DIVISORS",
    "COLORING_RULES",
    "ColoringCertificate",
    "DensityReport",
    "PipelineOutcome",
    "SuiteResult",
    "SuiteExhausted",
    "edge_slot",
    "coloring_problems",
    "verify_coloring",
    "make_report",
    "c10_pipeline",
    "density_report_suite",
    "reports_to_csv",
    "parse_coloring",
    "read_coloring",
]

BOUND_DIVISORS = {"c/2": 2, "c/4": 4, "c/12": 12}

COLOR_COUNT = 3

UNSET = 0xFF

# Characters per chunk when a coloring is parsed; a chunk runs on to the
# next newline when its last line is longer.
COLORING_CHUNK_CHARS = 1 << 14


@cache
def _base_slots(n: int) -> tuple[int, list[int], list[int]]:
    """(h, low, high) with low[lo] = _first_slot(n, lo) for lo < 2^h and
    high[hi] = _first_slot(n, hi << h), where h = ceil(n/2)."""
    h = (n + 1) // 2
    ones = list(accumulate((k.bit_count() for k in range(1 << h)), initial=0))
    low = [n * lo - ones[lo] for lo in range(1 << h)]
    high = [(n * hi - ones[hi] << h) - hi * ones[-1] for hi in range(1 << (n - h))]
    return h, low, high


def _first_slot(n: int, base: int) -> int:
    """The number of Q_n edges whose lower end is below base: n * base less
    the popcounts of 0 .. base-1.  For base = hi << h | lo that is
    high[hi] + low[lo] - lo * popcount(hi) in the tables of _base_slots."""
    h, low, high = _base_slots(n)
    hi, lo = base >> h, base & ((1 << h) - 1)
    return high[hi] + low[lo] - lo * hi.bit_count()


def _rank(base: int, coord: int) -> int:
    """The place of coord among the clear bits of base."""
    return coord - (base & ((1 << coord) - 1)).bit_count()


def edge_slot(n: int, base: int, coord: int) -> int:
    """Index of the Q_n edge (base, base | 1 << coord) in ColoringCertificate.colors:
    its place in cube.cube_edges(n), n * base - sum(popcount(b) for b < base)
    + coord - popcount(base mod 2^coord)."""
    return _first_slot(n, base) + _rank(base, coord)


class ColoringCertificate(Record):
    """A 3-coloring of E(Q_n): colors[i] is the color of the i-th edge of
    cube.cube_edges(n), which edge_slot numbers, or UNSET where the input
    left that edge out.

    colors is bytes-like: a parsed certificate keeps the bytearray it was
    parsed into rather than copying it.  The library never changes it.
    """

    n: int
    colors: bytes | bytearray


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
    for (base, top), color in zip(cube.cube_edges(cert.n), cert.colors):
        if len(problems) >= limit:
            break
        coord = (base ^ top).bit_length() - 1
        if color == UNSET:
            problems.append(f"edge (0x{base:x}, coord {coord}) is missing")
        elif color >= COLOR_COUNT:
            problems.append(f"edge ({base}, {coord}) has color {color}, expected 0..{COLOR_COUNT - 1}")
    return problems


def verify_coloring(cert: ColoringCertificate) -> bool:
    """True iff the map covers E(Q_n) exactly once with colors in {0, 1, 2}."""
    return not coloring_problems(cert, limit=1)


class DensityReport(Record):
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


class PipelineOutcome(Record):
    """Result of splitting a union graph into its color classes.

    success means at least one class is C10-free; best_class is then the
    free class with the most edges (smallest index on ties) and report
    scores it against c/12.  On failure, witnesses holds one C10 per class.
    """

    success: bool
    best_class: int | None
    class_edge_counts: tuple[int, ...]
    free_classes: tuple[int, ...]
    witnesses: Mapping[int, CycleWitness]
    report: DensityReport | None


# A coloring as the class step reads it: a table of colors and, for each
# lower vertex x, an offset (start, y).  The edge (x, x | bit) has color
# colors[start + popcount(y & (bit - 1))].
Coloring = tuple[bytes | bytearray, Callable[[int], tuple[int, int]]]


def _certificate_coloring(cert: ColoringCertificate, n: int) -> Coloring:
    """cert as a Coloring, once it is checked to be a whole coloring of
    E(Q_n).  The edges of a lower vertex x sit from slot _first_slot(n, x)
    on, one per clear bit of x in increasing order."""
    if cert.n != n:
        raise ValueError(f"certificate is for n={cert.n}, union graph has n={n}")
    problems = coloring_problems(cert)
    if problems:
        raise ValueError("invalid coloring certificate: " + "; ".join(problems))
    return cert.colors, lambda x: (_first_slot(n, x), ~x)


def _rank_coloring(n: int) -> Coloring:
    """The rank rule as a Coloring: edge (x, x | 1 << j) has color
    |x & (2^j - 1)| mod 3, read from a table of i mod 3 for i < n, so no
    per-edge array is built."""
    return bytes(i % COLOR_COUNT for i in range(n)), lambda x: (0, x)


# The coloring rules by name, each giving the Coloring of E(Q_n) for n.
COLORING_RULES = {"rank": _rank_coloring}


def _split_layer(g: LayerSubgraph, coloring: Coloring) -> list[CubeSubgraph]:
    """The layer's edges split by the coloring, one graph per color, each on
    all of the layer's vertices.

    Each edge mask of subgraph_of_layer is split bit by bit into one mask
    per color, so the classes share its vertex tuple and build no edge list.
    The color is read from the edge bit and the lower vertex's offset alone.
    Walking the set bits of x instead, and taking the edge bits between two
    of them at once, measured a third slower for the rank rule on the seeded
    unions at n = 14..18, whose lower vertices have fewer edges than set
    bits.
    """
    from .detector import CubeSubgraph, subgraph_of_layer

    colors, offset = coloring
    whole = subgraph_of_layer(g)
    classes: list[list[int]] = [[] for _ in range(COLOR_COUNT)]
    for x, m in zip(whole.vertices, whole.edge_masks):
        parts = [0] * COLOR_COUNT
        if m:
            start, y = offset(x)
            while m:
                bit = m & -m
                m ^= bit
                parts[colors[start + (y & (bit - 1)).bit_count()]] |= bit
        for masks, part in zip(classes, parts):
            masks.append(part)
    return [CubeSubgraph(g.layer.n, whole.vertices, tuple(masks)) for masks in classes]


class _ClassSearch:
    """The color classes of a union searched for a C10 one layer at a time.

    _split_layer gives a layer's class graphs under coloring.  Odd layers
    share no vertex and no union edge joins two of them, so every cycle of a
    class lies in one layer, and the union's first C10 in a class is the
    first one of a layer with the least start.  A class keeps the best
    witness seen so far, and a later layer is scanned only for starts below
    it, in any order of the layers.

    layer scans one layer below the bounds kept, and merge takes a layer's
    counts and witnesses in, keeping each class's witness of least start.
    A process that has stepped only some of the earlier layers has looser
    bounds, so its step finds the witness this one would, or one that merge
    drops.
    """

    def __init__(self, coloring: Coloring, workers: int = 1):
        self.coloring = coloring
        self.workers = workers
        self.counts = [0] * COLOR_COUNT
        self.witnesses: dict[int, CycleWitness] = {}

    def layer(self, g: LayerSubgraph) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The layer's edge count in each class, and each class's first C10
        in it below the class's best witness, as its vertices, or ()."""
        from .detector import find_cycle_generic

        counts, firsts = [], []
        for k, sub in enumerate(_split_layer(g, self.coloring)):
            counts.append(sum(map(int.bit_count, sub.edge_masks)))
            best = self.witnesses.get(k)
            below = None if best is None else best.vertices[0]
            witness = find_cycle_generic(sub, 10, self.workers, below)
            firsts.append(() if witness is None else witness.vertices)
        return tuple(counts), tuple(firsts)

    def merge(self, counts: tuple[int, ...], firsts: tuple[tuple[int, ...], ...]) -> None:
        """Add a layer's counts, and keep each class's witness of least start."""
        from .detector import CycleWitness

        for k, (count, first) in enumerate(zip(counts, firsts)):
            self.counts[k] += count
            best = self.witnesses.get(k)
            if first and (best is None or first[0] < best.vertices[0]):
                self.witnesses[k] = CycleWitness(first)

    def add(self, g: LayerSubgraph) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """layer(g), merged in and returned."""
        found = self.layer(g)
        self.merge(*found)
        return found

    def outcome(self, n: int) -> PipelineOutcome:
        counts = tuple(self.counts)
        witnesses = dict(sorted(self.witnesses.items()))
        free = tuple(k for k in range(COLOR_COUNT) if k not in witnesses)
        if not free:
            return PipelineOutcome(False, None, counts, (), witnesses, None)
        best = min(free, key=lambda k: (-counts[k], k))
        if len(free) == COLOR_COUNT and COLOR_COUNT * counts[best] < sum(counts):
            # Averaging over three classes: the best one carries >= a third.
            raise RuntimeError(f"best class {best} holds under a third of the edges {counts}")
        report = make_report(n, None, "final", counts[best], cube_edge_count(n), "c/12")
        return PipelineOutcome(True, best, counts, free, witnesses, report)


def c10_pipeline(
    union: UnionGraph, cert: ColoringCertificate, workers: int = 1
) -> PipelineOutcome:
    """Score the densest C10-free color class of the union graph against
    c/12, splitting and searching one layer at a time."""
    classes = _ClassSearch(_certificate_coloring(cert, union.n), workers)
    for g in union.layers.values():
        classes.add(g)
    return classes.outcome(union.n)


# ---------------------------------------------------------------------------
# The full report suite


class SuiteResult(Record):
    """What density_report_suite keeps: the reports, and each layer's
    assignment and trials.  union is rebuilt from the assignments on each
    access, since each process of the suite holds one layer graph at a
    time."""

    n: int
    reports: tuple[DensityReport, ...]
    assignments: Mapping[int, VectorAssignment]
    trials: Mapping[int, int]
    pipeline: PipelineOutcome | None

    @property
    def union(self) -> UnionGraph:
        return union_odd_layers(self.n, self.assignments)


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
    on_layer: Callable[[int, SearchResult], None] | None = None,
    coloring_rule: str | None = None,
) -> SuiteResult:
    """Run the whole chain: per-layer searches, the odd-layer union, and the
    color-class step when a certificate or a rule of COLORING_RULES is
    named; not both.

    Layer r uses the derived seed (seed, r).  Per-layer reports are checked
    against c/2, the union against c/4 and the best color class against
    c/12; all ratios are exact.

    The layers are taken one at a time: each is found, handed to
    on_layer(r, result) when given, split into its color classes and the
    classes searched for a C10, then dropped, so each process holds one
    layer graph at a time.  The coloring is checked before the first layer.

    When fork_layer_helper forks, its helper finds the layers with 2r >= n
    and does their class step, while this process does the layers below.
    This process still takes every layer in order, merges the helper's
    class counts and witnesses, and finds any layer the helper does not
    deliver itself, so no result depends on the helper.
    """
    classes = None
    if certificate is not None and coloring_rule is not None:
        raise ValueError("give a coloring certificate or a coloring rule, not both")
    if certificate is not None:
        classes = _ClassSearch(_certificate_coloring(certificate, n))
    elif coloring_rule is not None:
        if coloring_rule not in COLORING_RULES:
            raise ValueError(f"unknown coloring rule {coloring_rule!r}")
        classes = _ClassSearch(COLORING_RULES[coloring_rule](n))
    reports: list[DensityReport] = []
    assignments: dict[int, VectorAssignment] = {}
    trials: dict[int, int] = {}
    upper = [r for r in range(1, n + 1, 2) if 2 * r >= n]
    helper = fork_layer_helper(n, seed, upper, max_trials, None if classes is None else classes.add)
    try:
        for r in range(1, n + 1, 2):
            shipped = helper.take(r) if helper is not None and r in upper else None
            if shipped is None:
                try:
                    found = find_good_assignment(n, r, derive_seed(seed, r), max_trials)
                except TrialsExhausted as exc:
                    raise SuiteExhausted(exc, tuple(reports)) from exc
                stepped = None
            else:
                found, stepped = shipped
                del shipped  # else it keeps the layer past del found
            assignments[r], trials[r] = found.assignment, found.trials
            reports.append(
                make_report(
                    n, r, "layer", found.edges, cube.layer_edge_count(LayerId(n, r)), "c/2"
                )
            )
            if on_layer is not None:
                on_layer(r, found)
            if classes is not None:
                if stepped is None:
                    classes.add(found.graph)
                else:
                    classes.merge(*stepped)
            del found  # the layer goes before the next one is searched
    finally:
        if helper is not None:
            helper.close()
    achieved = sum(rep.achieved_edges for rep in reports)
    reports.append(make_report(n, None, "union", achieved, cube_edge_count(n), "c/4"))
    pipeline = None
    if classes is not None:
        pipeline = classes.outcome(n)
        if pipeline.report is not None:
            reports.append(pipeline.report)
    return SuiteResult(
        n=n,
        reports=tuple(reports),
        assignments=assignments,
        trials=trials,
        pipeline=pipeline,
    )


# ---------------------------------------------------------------------------
# Certificate text format


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
    tables = _skeleton_tables(n)
    duplicates: list[str] = []
    lineno = 2
    for chunk in chain([first[len(head[0]):]], chunks):
        ordered = _ordered_colors(n, tables, chunk)
        if ordered is not None:
            slot, shades = ordered
            if colors.count(UNSET, slot, slot + len(shades)) == len(shades):
                colors[slot : slot + len(shades)] = shades
                lineno += len(shades)
                continue
        lines = chunk.splitlines()
        _store_lines(n, colors, duplicates, lineno, lines)
        lineno += len(lines)
    if duplicates:
        raise ValueError("; ".join(duplicates))
    return ColoringCertificate(n, colors)


def _skeleton_tables(n: int) -> tuple[int, list[list[str]], list[list[str]]]:
    """(h, low, high): the line ends ' <coord> NUL\\n' of the clear bits of
    base & (2^h - 1) in low, after one empty str, and of base >> h in high.
    All the lists share one str per coordinate."""
    h = (n + 1) // 2
    ends = [f" {j} \0\n" for j in range(n)]
    low = [[""] + [ends[j] for j in range(h) if not lo >> j & 1] for lo in range(1 << h)]
    high = [[ends[j] for j in range(h, n) if not hi >> (j - h) & 1] for hi in range(1 << (n - h))]
    return h, low, high


def _skeleton(tables, first: tuple[int, int], last: tuple[int, int]) -> str:
    """The canonical text of the edges from first to last, both
    (base, coord), with each color blanked to NUL.  Base x contributes
    f"{x:x}".join(["", *its line ends])."""
    h, low, high = tables
    mask = (1 << h) - 1
    (b0, c0), (b1, c1) = first, last
    head = (low[b0 & mask] + high[b0 >> h])[1 + _rank(b0, c0) :]
    if b0 == b1:
        return f"{b0:x}".join(["", *head[: _rank(b1, c1) - _rank(b0, c0) + 1]])
    tail = (low[b1 & mask] + high[b1 >> h])[: 2 + _rank(b1, c1)]
    body = [f"{x:x}".join(low[x & mask] + high[x >> h]) for x in range(b0 + 1, b1)]
    return "".join([f"{b0:x}".join(["", *head]), *body, f"{b1:x}".join(tail)])


def _chunk_edge(n: int, line: str) -> tuple[int, int] | None:
    """(base, coord) of a line '<hex> <coord> <color>' naming an edge of Q_n, else None."""
    parts = line.split(" ")
    if len(parts) != 3:
        return None
    try:
        base, coord = int(parts[0], 16), int(parts[1])
    except ValueError:
        return None
    if 0 <= coord < n and 0 <= base < 1 << n and not base >> coord & 1:
        return base, coord
    return None


def _ordered_colors(n: int, tables, chunk: str) -> tuple[int, bytes] | None:
    """(slot, colors) when chunk is the canonical text of consecutive
    edges from the edge on its first line, whose colors then go to slots
    slot, slot + 1, ...; None for any other chunk.

    The chunk XORed with its skeleton must leave one color byte per line and
    nothing else.  A chunk without NUL leaves a nonzero byte at every blanked
    color, so a count of the nonzero bytes finds any other difference.
    """
    if not chunk.endswith("\n") or not chunk.isascii() or "\0" in chunk:
        return None
    first = _chunk_edge(n, chunk[: chunk.index("\n")])
    last = _chunk_edge(n, chunk[chunk.rfind("\n", 0, -1) + 1 : -1])
    if first is None or last is None:
        return None
    slot = edge_slot(n, *first)
    lines = chunk.count("\n")
    if edge_slot(n, *last) - slot + 1 != lines:
        return None
    skeleton = _skeleton(tables, first, last)
    if len(skeleton) != len(chunk):
        return None
    diff = int.from_bytes(chunk.encode(), "big") ^ int.from_bytes(skeleton.encode(), "big")
    shades = diff.to_bytes(len(chunk), "big").translate(None, b"\0")
    if len(shades) != lines or shades.translate(None, b"012"):
        return None
    return slot, shades.translate(_COLOR_BYTES)


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
