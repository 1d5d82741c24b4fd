"""Random GF(2) vector assignments and the induced layer subgraphs they define.

Every hypercube coordinate i gets a uniform nonzero vector in F_2^r, plus a
fixed nonzero anchor vector.  A vertex S of the upper side of layer r
survives when its coordinate vectors form a basis of F_2^r; a lower-side
vertex survives when the anchor joined to its vectors does.  The induced
subgraph on the survivors is C6-free for every draw, and a single edge of
the layer survives with probability

    p(r) = (prod_{k=1}^{r-1} (2^r - 2^k) / (2^r - 1)) * (2^r - 2^(r-1)) / (2^r - 1),

which stays above half of the infinite product prod_{k>=1}(1 - 2^-k).
All closed-form probabilities and expectations here are exact rationals;
floats appear only in Monte Carlo summaries.
"""

from __future__ import annotations

import gc
import marshal
import os
import random
import sys
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor
from typing import Any, BinaryIO, Callable, Mapping

from . import cube
from .cube import (
    LayerId,
    LayerSubgraph,
    bit_indices,
    edge_count,
    edge_pairs,
    format_layer_graph,
    parse_layer_graph,
)
from .gf2 import GF2Vec, parity_check_columns, rank_bits, sample_nonzero
from .record import Record

__all__ = [
    "VectorAssignment",
    "UnionGraph",
    "SearchResult",
    "TrialsExhausted",
    "derive_seed",
    "member_upper",
    "member_lower",
    "sample_assignment",
    "build_layer_graph",
    "union_odd_layers",
    "edge_probability_closed_form",
    "constant_c_enclosure",
    "find_good_assignment",
    "LayerHelper",
    "fork_layer_helper",
    "format_assignment",
    # cube's names, re-exported only because bench/tracing.py reads them
    # here; they go with the benchmark change that reads them from cube
    "edge_count",
    "edge_pairs",
    "format_layer_graph",
    "parse_layer_graph",
]

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, index: int) -> int:
    """Deterministic per-index seed derivation (splitmix64 finalizer).

    Python's built-in hash() is salted per process, so it cannot serve as a
    reproducible mixer; this keeps every trial a pure function of (seed, index).
    """
    x = (seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9 + 0x94D049BB133111EB) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


class VectorAssignment(Record):
    """One vector per hypercube coordinate, plus the fixed lower-side anchor.

    All vectors are nonzero elements of F_2^r.  The anchor is the extra
    vector adjoined to every lower-side basis test.
    """

    n: int
    r: int
    anchor: GF2Vec
    vectors: tuple[GF2Vec, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.r <= self.n:
            raise ValueError(f"need 1 <= r <= n, got r={self.r}, n={self.n}")
        if self.anchor.dim != self.r or not self.anchor:
            raise ValueError("anchor must be a nonzero vector of dimension r")
        if len(self.vectors) != self.n:
            raise ValueError(f"expected {self.n} coordinate vectors, got {len(self.vectors)}")
        for i, v in enumerate(self.vectors):
            if v.dim != self.r or not v:
                raise ValueError(f"coordinate vector {i} must be nonzero of dimension {self.r}")


def _scanned_graph(layer: LayerId, lower: list[int], masks: list[int]) -> LayerSubgraph:
    """The graph of increasing lower vertices with their edge masks, as
    _layer_scan produces them; the upper side is every endpoint of an edge,
    found before the tuples are made, so that its set and theirs are not
    held at once."""
    upper = cube.upper_ends(lower, masks)
    return LayerSubgraph(layer, tuple(lower), upper, tuple(masks))


def _dual_graph(layer: LayerId, dual_lower: list[int], dual_masks: list[int]) -> LayerSubgraph:
    """The graph of the dual scan's lists, which it empties: the increasing
    complements of the upper side, each with its downward edge mask.

    Taken from the end, the complements give the upper side in increasing
    order; the lower side and its upward masks come from one pass over the
    edges.  The upward mask of x is the set of coordinates outside the
    hyperplane span(x), so the masks, and the parts of them the pass
    builds, take few distinct values: equal ones share one int.
    """
    full = (1 << layer.n) - 1
    upper = tuple(full ^ y for y in reversed(dual_lower))
    dual_lower.clear()
    up: dict[int, int] = {}
    get = up.get
    share = {}.setdefault
    for y in upper:
        m = dual_masks.pop()
        while m:
            bit = m & -m
            m ^= bit
            x = y ^ bit
            mask = get(x, 0) | bit
            up[x] = share(mask, mask)
    lower = sorted(up)
    masks = tuple(map(up.__getitem__, lower))
    del up, get  # the table goes before the lower tuple is made
    return LayerSubgraph(layer, tuple(lower), upper, masks)


class UnionGraph(Record):
    """Disjoint union of layer subgraphs over odd layer indices."""

    n: int
    layers: Mapping[int, LayerSubgraph]

    def __post_init__(self) -> None:
        for r, g in self.layers.items():
            if r % 2 == 0 or not 1 <= r <= self.n:
                raise ValueError(f"layer keys must be odd and in [1, {self.n}], got {r}")
            if g.layer.n != self.n or g.layer.r != r:
                raise ValueError(f"layer {r} does not match its subgraph id {g.layer}")


def member_upper(a: VectorAssignment, subset: int) -> bool:
    """True iff the r-subset's vectors form a basis of F_2^r."""
    if subset >> a.n:
        raise ValueError(f"subset 0x{subset:x} is not within a ground set of size {a.n}")
    if subset.bit_count() != a.r:
        raise ValueError(f"upper membership needs |S| = {a.r}, got {subset.bit_count()}")
    return rank_bits(a.vectors[i].bits for i in bit_indices(subset)) == a.r


def member_lower(a: VectorAssignment, subset: int) -> bool:
    """True iff the anchor plus the (r-1)-subset's vectors form a basis."""
    if subset >> a.n:
        raise ValueError(f"subset 0x{subset:x} is not within a ground set of size {a.n}")
    if subset.bit_count() != a.r - 1:
        raise ValueError(f"lower membership needs |S| = {a.r - 1}, got {subset.bit_count()}")
    rows = [a.anchor.bits]
    rows.extend(a.vectors[i].bits for i in bit_indices(subset))
    return rank_bits(rows) == a.r


def sample_assignment(n: int, r: int, seed: int) -> VectorAssignment:
    """Independent uniform nonzero vectors per coordinate, anchor fixed to e_0.

    The anchor only needs to be nonzero and the construction's distribution
    is invariant under its choice, so pinning it to the first standard basis
    vector keeps runs reproducible.
    """
    rng = random.Random(seed)
    anchor = GF2Vec.unit(0, r)
    vectors = tuple(sample_nonzero(rng, r) for _ in range(n))
    return VectorAssignment(n=n, r=r, anchor=anchor, vectors=vectors)


def _layer_scan(
    n: int, r: int, anchor_bits: int, vector_bits: list[int]
) -> tuple[list[int], list[int]]:
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
    anchor is nonzero.  For r >= 4 the last three levels are emitted
    without a call per node.
    """
    cube.require_capacity(n)
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
        if left == 0:  # a leaf; reached only for r <= 3
            lower.append(mask)
            masks.append(g)
            return
        # index i can be the highest of the rest of the subset only if i >= left - 1
        candidates = 0
        for h in basis:
            candidates |= h
        candidates &= (1 << limit) - (1 << (left - 1))
        if left == 3:
            h1, h2, h3 = basis
            while candidates:
                top = candidates & -candidates
                candidates ^= top
                # the generic level's pivot, and the two functionals it keeps in its order
                if h1 & top:
                    pivot, a, b = h1, h2 ^ h1 if h2 & top else h2, h3 ^ h1 if h3 & top else h3
                elif h2 & top:
                    pivot, a, b = h2, h3 ^ h2 if h3 & top else h3, h1
                else:
                    pivot, a, b = h3, h1, h2
                g1, base1 = g ^ pivot if g & top else g, mask | top
                # the next index lies in [1, top): the last one needs index 0 below it
                pairs = (a | b) & (top - 2)
                while pairs:
                    low = pairs & -pairs
                    pairs ^= low
                    if a & low:
                        pivot, h = a, b ^ a if b & low else b
                    else:
                        pivot, h = b, a
                    last, g2 = h & (low - 1), g1 ^ pivot if g1 & low else g1
                    base, odd = base1 | low, g2 ^ h
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


def _scan(
    a: VectorAssignment,
) -> tuple[list[int], list[int], Callable[[LayerId, list[int], list[int]], LayerSubgraph]]:
    """The two lists of a's layer scan by the shallower walk, and the
    function that makes them the layer graph.

    Complements of bases are bases of the dual matroid: {anchor} + x is an
    information set of the code spanned by [anchor | v] exactly when
    [n] - x is one of the dual code.  So the scan of the parity-check
    columns, at dimension d = n + 1 - r, lists the complements of the upper
    side with their downward edge masks, in a walk of depth n - r rather
    than r - 1; the edge count is the same.  It is taken when 2r > n + 2,
    the rank is r and the anchor lies in span(v), which makes its column
    h_a nonzero.
    """
    n, r = a.n, a.r
    vector_bits = [v.bits for v in a.vectors]
    if 2 * r > n + 2:
        h = parity_check_columns([*vector_bits, a.anchor.bits], r)
        if h is not None and h[n]:
            anchor_column = h.pop()
            return (*_layer_scan(n, n + 1 - r, anchor_column, h), _dual_graph)
    return (*_layer_scan(n, r, a.anchor.bits, vector_bits), _scanned_graph)


def build_layer_graph(a: VectorAssignment) -> LayerSubgraph:
    """Materialize the induced subgraph on the surviving vertex sets."""
    vertices, masks, graph_of = _scan(a)
    return graph_of(LayerId(a.n, a.r), vertices, masks)


def union_odd_layers(n: int, assignments: Mapping[int, VectorAssignment]) -> UnionGraph:
    """Build each odd layer from its own assignment and take the disjoint union."""
    layers = {}
    for r in sorted(assignments):
        a = assignments[r]
        if r % 2 == 0 or not 1 <= r <= n:
            raise ValueError(f"layer keys must be odd and in [1, {n}], got {r}")
        if a.n != n:
            raise ValueError(f"assignment for layer {r} has n={a.n}, expected {n}")
        if a.r != r:
            raise ValueError(f"assignment for layer {r} has r={a.r}")
        layers[r] = build_layer_graph(a)
    return UnionGraph(n=n, layers=layers)


def edge_probability_closed_form(r: int) -> Fraction:
    """Exact probability that a fixed layer edge survives the random draw."""
    if r < 1:
        raise ValueError(f"dimension must be >= 1, got {r}")
    top = 1 << r
    p = Fraction(1)
    for k in range(1, r):
        p *= Fraction(top - (1 << k), top - 1)
    p *= Fraction(top - (1 << (r - 1)), top - 1)
    return p


@lru_cache(maxsize=None)
def _partial_products(tolerance: Fraction) -> tuple[Fraction, Fraction, int]:
    """Partial product of prod(1 - 2^-k) with a certified tail bound.

    Returns (lo, hi, k) with lo <= prod_{k>=1}(1 - 2^-k) <= hi and
    hi - lo < tolerance.  The tail beyond k shrinks the product by a factor
    of at least 1 - 2^-k, which gives the lower end.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    partial = Fraction(1)
    k = 0
    while True:
        k += 1
        partial *= 1 - Fraction(1, 1 << k)
        width = partial * Fraction(1, 1 << k)
        if width < tolerance:
            return partial - width, partial, k


def constant_c_enclosure(
    tolerance: float | Fraction = Fraction(1, 10**12),
) -> tuple[Fraction, Fraction]:
    """Certified rational enclosure [lo, hi] of the constant, hi - lo < tolerance.

    The raw partial products carry enormous denominators, so both ends are
    rounded outward to 18 decimal digits; the extra width is accounted for
    in the tolerance budget.
    """
    tol = Fraction(tolerance)
    scale = 10**18
    rounding = Fraction(2, scale)
    if tol <= rounding:
        raise ValueError(f"tolerance must exceed {float(rounding)}")
    lo_raw, hi_raw, _ = _partial_products(tol - rounding)
    lo = Fraction(floor(lo_raw * scale), scale)
    hi = Fraction(ceil(hi_raw * scale), scale)
    return lo, hi


class SearchResult(Record):
    """A sampled assignment whose graph beat the density threshold."""

    assignment: VectorAssignment
    graph: LayerSubgraph
    edges: int
    trials: int
    threshold: Fraction


class TrialsExhausted(RuntimeError):
    """Raised when no sampled assignment beat the threshold; carries the best seen."""

    def __init__(self, n: int, r: int, trials: int, best: SearchResult):
        super().__init__(
            f"no assignment with n={n}, r={r} beat the threshold after {trials} trials "
            f"(best: {best.edges} edges vs threshold {best.threshold})"
        )
        self.n = n
        self.r = r
        self.trials = trials
        self.best = best


def _threshold(n: int, r: int) -> Fraction:
    """(c/2) * e(L_r(n)), with c the upper end of its certified enclosure."""
    _, c_hi = constant_c_enclosure()
    return c_hi / 2 * cube.layer_edge_count(LayerId(n, r))


def find_good_assignment(n: int, r: int, seed: int, max_trials: int = 512) -> SearchResult:
    """Resample until the graph's edge count strictly beats (c/2) * e(L_r(n)).

    The threshold uses the upper end of the certified enclosure of the
    constant at tolerance 1e-12, so a success implies the strict inequality
    against the true constant.  Trial i uses the derived seed (seed, i).
    """
    if max_trials < 1:
        raise ValueError(f"max_trials must be >= 1, got {max_trials}")
    threshold = _threshold(n, r)
    best_edges, best_trial, best = -1, 0, None
    for trial in range(max_trials):
        a = sample_assignment(n, r, derive_seed(seed, trial))
        vertices, masks, graph_of = _scan(a)
        e = sum(map(int.bit_count, masks))
        if Fraction(e) > threshold:
            graph = graph_of(LayerId(n, r), vertices, masks)
            return SearchResult(a, graph, e, trial + 1, threshold)
        # a losing trial keeps only its assignment; its lists go before the
        # next scan, so two trials' lists are never alive at once
        del vertices, masks
        if e > best_edges:
            best_edges, best_trial, best = e, trial + 1, a
    if best is None:
        raise RuntimeError("the trial loop ran no trial")
    result = SearchResult(best, build_layer_graph(best), best_edges, best_trial, threshold)
    raise TrialsExhausted(n, r, max_trials, result)


# ---------------------------------------------------------------------------
# The layer helper

# The least n at which fork_layer_helper forks.  The fork, the pages that
# both processes copy as they write after it, and the reaping cost a few
# ms.  On a 2-core x86-64 machine, pipeline --n N --out DIR with the helper
# against one CPU (30 alternating pairs at each of seeds 0 and 1) was
# 1.0-3.2 ms slower at N = 13 (faster in 6 and 7 of 30), even at N = 14
# (13 and 15 of 30), and faster at N = 15 (2.6-8.8 ms, 18 and 27 of 30) and
# N = 16 (6.5-8.5 ms, 22 and 23 of 30), so smaller runs keep to one process.
HELPER_MIN_N = 15


class LayerHelper:
    """A forked process that shares the layers of Q_n with its parent: it
    takes the first layer itself, then the two claim the others from one
    queue, and each process runs the layers it takes through the same
    take.

    The queue is a pipe that holds one byte per layer left, its r, written
    whole before the fork; no process holds its write end.  A claim is one
    os.read of one byte, so two readers never split a claim, and an empty
    queue reads as its end.  For each layer it takes, the helper writes a
    record to a second pipe: a marshal tuple of r, the trials, the edges,
    the anchor's bits, the vectors' bits and the class step that take
    returned, never the graph.  The helper stops at a layer whose take
    raises, and sends nothing for that layer.

    inbox is the write end of a third pipe, from this process to the
    helper, when the helper waits for bytes that send writes.
    """

    def __init__(self, n: int, pid: int, queue: int, stream: BinaryIO, inbox: int | None = None):
        self.n = n
        self.pid = pid
        self.queue: int | None = queue
        self.stream: BinaryIO | None = stream
        self.inbox = inbox

    def claim(self) -> int | None:
        """The next layer of the queue, or None once it is empty or the
        helper is closed."""
        return None if self.queue is None else _claim(self.queue)

    def send(self, data: memoryview) -> bool:
        """Write data whole to the helper's inbox, then close the inbox.
        False, and the helper is closed, when the helper is gone and the
        pipe is broken: the queue then ends and records answers no layer,
        as for any helper death."""
        fd, self.inbox = self.inbox, None
        try:
            _send(fd, data)
        except OSError:
            self.close()
            return False
        finally:
            os.close(fd)
        return True

    def records(self) -> dict[int, tuple[VectorAssignment, int, int, Any]]:
        """The layers the helper finished, each as its assignment, trials,
        edges and class step, read until the helper ends; the helper is
        then reaped.  A record cut short by the helper's death is dropped."""
        finished = {}
        if self.stream is not None:
            try:
                while True:
                    r, trials, edges, anchor, vectors, stepped = marshal.load(self.stream)
                    assignment = VectorAssignment(
                        self.n, r, GF2Vec(anchor, r), tuple(GF2Vec(bits, r) for bits in vectors)
                    )
                    finished[r] = assignment, trials, edges, stepped
            except (OSError, EOFError, ValueError, TypeError):
                pass  # the end of the pipe, or of the helper
        self.close()
        return finished

    def close(self) -> None:
        """Stop the helper, if it still runs, and reap it."""
        _close(self.inbox, self.queue)
        self.inbox = self.queue = None
        if self.stream is None:
            return
        self.stream.close()
        self.stream = None
        try:
            os.kill(self.pid, 9)  # SIGKILL; importing signal costs 0.8 ms
            os.waitpid(self.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # something else reaped it


def fork_layer_helper(
    n: int, layers: list[int], take: Callable[..., tuple[VectorAssignment, int, int, Any]], inbox: int = 0
) -> LayerHelper | None:
    """A LayerHelper that takes layers[0] and whose queue holds the rest of
    layers, claimed in the order given.  For each layer r it takes, the
    helper calls take(r, ready) and sends the record of what it returns;
    the class step must be a marshal-able value.  None, and no process,
    unless HELPER_MIN_N <= n <= 255, the process may run on two CPUs or
    more, it runs one thread, and os.fork exists.

    take calls ready() between its search and anything that it hands the
    layer to.  ready ends the helper when this process is no longer its
    parent.  With inbox > 0, the caller sends the helper inbox bytes with
    LayerHelper.send, and the first ready() call, which may come before
    they do, returns them, read into one bytearray; every other call
    returns None.  The helper's copy of the inbox's write end is closed,
    so when this process dies before sending, the helper reads the end of
    the pipe and stops.

    The helper also checks that this process is its parent before its
    first take and each claim.  It ends by os._exit on every path, so it
    never returns into its caller's frames nor flushes the stdio it
    inherited.  It freezes the objects it inherits, so its collector never
    runs their finalizers nor copies the pages of their headers.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    threading = sys.modules.get("threading")
    if (
        n < HELPER_MIN_N
        or n > 0xFF  # a claim is one byte
        or not layers
        or affinity is None
        or len(affinity(0)) < 2
        or not hasattr(os, "fork")
        or (threading is not None and threading.active_count() > 1)
    ):
        return None
    # The helper takes the first layer, the largest when the caller orders
    # them so: a forked process's RSS leaves out the file-backed pages, code
    # and libraries, that it has not touched since the fork.  At n = 18 the
    # helper started 3.3 MB below this process, and pipeline's peak RSS was
    # 17.6 MB against 18.2 MB with this process taking the largest layer,
    # at the same wall time.
    queue, queue_write = os.pipe()
    os.write(queue_write, bytes(layers[1:]))  # a few bytes into an empty pipe: one whole write
    os.close(queue_write)
    read_fd, write_fd = os.pipe()
    inbox_read, inbox_write = os.pipe() if inbox else (None, None)
    parent = os.getpid()
    try:
        pid = os.fork()
    except OSError:
        _close(queue, read_fd, write_fd, inbox_read, inbox_write)
        return None
    if pid == 0:
        try:
            gc.freeze()
            _close(read_fd, inbox_write)
            _serve(queue, write_fd, parent, layers[0], take, None if inbox_read is None else (inbox_read, inbox))
        finally:
            os._exit(0)
    _close(write_fd, inbox_read)
    return LayerHelper(n, pid, queue, os.fdopen(read_fd, "rb"), inbox_write)


def _close(*fds: int | None) -> None:
    for fd in fds:
        if fd is not None:
            os.close(fd)


def _serve(
    queue: int, fd: int, parent: int, r: int, take: Callable[..., tuple], pending: tuple[int, int] | None = None
) -> None:
    """The helper's loop: take layer r, write the record of what take
    returns whole to fd, and claim the next layer from queue, while parent
    is this process's parent.  ready returns, on its first call, the size
    bytes read from pending's fd, when pending is (fd, size)."""

    def ready() -> bytearray | None:
        nonlocal pending
        data, pending = None if pending is None else _receive(*pending), None
        if os.getppid() != parent:
            os._exit(0)
        return data

    while r is not None and os.getppid() == parent:
        a, trials, edges, stepped = take(r, ready)
        _send(fd, marshal.dumps((r, trials, edges, a.anchor.bits, tuple(v.bits for v in a.vectors), stepped)))
        r = _claim(queue) if os.getppid() == parent else None


def _claim(queue: int) -> int | None:
    """The next layer of queue, one byte read whole, or None at its end."""
    token = os.read(queue, 1)
    return token[0] if token else None


def _receive(fd: int, size: int) -> bytearray:
    """size bytes read from fd into one bytearray; EOFError when the pipe
    ends first."""
    data = bytearray(size)
    with memoryview(data) as view:
        got = 0
        while got < size:
            read = os.readv(fd, [view[got:]])
            if not read:
                raise EOFError("the parent's pipe ended")
            got += read
    return data


def _send(fd: int, data: bytes | memoryview) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


# ---------------------------------------------------------------------------
# The assignment file


def format_assignment(a: VectorAssignment) -> str:
    lines = [f"# gf2-assignment n={a.n} r={a.r}", f"v0 {a.anchor.bits:x}"]
    for i, v in enumerate(a.vectors, start=1):
        lines.append(f"v{i} {v.bits:x}")
    return "\n".join(lines) + "\n"
