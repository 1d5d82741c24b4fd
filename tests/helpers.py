"""Functions that only the tests call, kept out of the library, which runs
none of them: the coloring writer and a one-color certificate, the float
value of c, a union's edge count, the vectors of a subset, and gf2's rank,
basis and span tests on GF2Vec lists of one dimension.

format_coloring writes a certificate's edges in (base, coord) order, the
order the README states and the parser's fast path reads.
"""

from fractions import Fraction

from qturan import cube
from qturan.bounds import COLOR_COUNT, UNSET, ColoringCertificate
from qturan.construction import VectorAssignment, UnionGraph, _partial_products
from qturan.cube import bit_indices, cube_edge_count, edge_count
from qturan.gf2 import GF2Vec, _check_dims, _pivots, _reduce, rank_bits


def monochromatic_certificate(n: int, color: int = 0) -> ColoringCertificate:
    if color not in range(COLOR_COUNT):
        raise ValueError(f"color must be in [0, {COLOR_COUNT}), got {color}")
    cube.require_capacity(n)
    return ColoringCertificate(n, bytes([color]) * cube_edge_count(n))


def format_coloring(cert: ColoringCertificate) -> str:
    """The certificate as text, one line per colored edge in (base, coord) order."""
    n = cert.n
    lines = [f"# qn-coloring n={n}"]
    for (base, top), color in zip(cube.cube_edges(n), cert.colors):
        coord = (base ^ top).bit_length() - 1
        if color != UNSET:
            lines.append(f"{base:x} {coord} {color}")
    return "\n".join(lines) + "\n"


def multiset_of(a: VectorAssignment, subset: int) -> list[GF2Vec]:
    """The coordinate vectors selected by a subset mask (with multiplicity)."""
    if subset >> a.n:
        raise ValueError(f"subset 0x{subset:x} is not within a ground set of size {a.n}")
    return [a.vectors[i] for i in bit_indices(subset)]


def union_edge_count(u: UnionGraph) -> int:
    return sum(edge_count(g) for g in u.layers.values())


def constant_c(tolerance: float | Fraction = 1e-12) -> float:
    """Partial product of prod_{k>=1}(1 - 2^-k), with tail below tolerance."""
    _, hi, _ = _partial_products(Fraction(tolerance))
    return float(hi)


def rank(vs, dim: int) -> int:
    """dim(Span(vs)); order of the input never matters."""
    vec_list = list(vs)
    _check_dims(vec_list, dim)
    return rank_bits(v.bits for v in vec_list)


def is_basis(vs, dim: int) -> bool:
    """True iff vs has exactly dim vectors and they span F_2^dim."""
    vec_list = list(vs)
    _check_dims(vec_list, dim)
    return len(vec_list) == dim and rank_bits(v.bits for v in vec_list) == dim


def in_span(v: GF2Vec, vs) -> bool:
    """True iff v lies in Span(vs): v reduces to zero."""
    vec_list = list(vs)
    _check_dims(vec_list, v.dim)
    return _reduce(v.bits, _pivots(w.bits for w in vec_list)) == 0
