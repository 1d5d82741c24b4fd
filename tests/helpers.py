"""Functions that only the tests call, kept out of the library, which runs
none of them: the coloring writer and a one-color certificate, the
edge-list writer, the induced subgraph of Q_n on a vertex set, the
assignment reader, the float value of c, a union's edge count, the vectors
of a subset, and the rank, basis and span tests on GF2Vec lists of one
dimension.

format_coloring writes a certificate's edges in (base, coord) order, the
order the README states and the parser's fast path reads.
"""

from fractions import Fraction

from qturan import cube
from qturan.bounds import COLOR_COUNT, UNSET, ColoringCertificate
from qturan.construction import VectorAssignment, UnionGraph, _partial_products
from qturan.cube import bit_indices, cube_edge_count, edge_count, upward_pairs
from qturan.detector import CubeSubgraph
from qturan.gf2 import GF2Vec, rank_bits


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


def format_edge_list(n: int, edges: list[tuple[int, int]]) -> str:
    """Edges in cube's edge-list format, sorted."""
    lines = [f"# qn n={n}"]
    for x, y in sorted(edges):
        lines.append(f"{x:x} {y:x}")
    return "\n".join(lines) + "\n"


def induced_subgraph(n: int, vertices) -> CubeSubgraph:
    """The subgraph of Q_n induced on vertices; a vertex outside Q_n is a
    ValueError, as for CubeSubgraph.explicit."""
    verts = CubeSubgraph.explicit(n, vertices, ()).vertices
    masks = dict.fromkeys(verts, 0)
    for x, y in upward_pairs(verts, masks):
        masks[x] |= x ^ y
    return CubeSubgraph(n, verts, tuple(masks.values()))


def parse_assignment(text: str) -> VectorAssignment:
    """The assignment of a file that construction.format_assignment wrote."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# gf2-assignment "):
        raise ValueError("assignment file must start with '# gf2-assignment n=<n> r=<r>'")
    fields = dict(part.split("=", 1) for part in lines[0].split()[2:])
    try:
        n, r = int(fields["n"]), int(fields["r"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad assignment header: {lines[0]!r}") from exc
    if n < 1:
        raise ValueError(f"bad ground-set size in header: {n}")
    if len(lines) != n + 2:
        raise ValueError(f"expected v0 plus {n} vector lines, got {len(lines) - 1}")
    vectors = []
    for expect_idx, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != 2 or parts[0] != f"v{expect_idx}":
            raise ValueError(f"expected 'v{expect_idx} <hex>', got {line!r}")
        vectors.append(GF2Vec(int(parts[1], 16), r))
    return VectorAssignment(n=n, r=r, anchor=vectors[0], vectors=tuple(vectors[1:]))


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


def _bits(vs, dim: int) -> list[int]:
    """The bits of GF2Vecs that all have dimension dim."""
    vec_list = list(vs)
    for v in vec_list:
        if v.dim != dim:
            raise ValueError(f"dimension mismatch: expected {dim}, got {v.dim}")
    return [v.bits for v in vec_list]


def rank(vs, dim: int) -> int:
    """dim(Span(vs)); order of the input never matters."""
    return rank_bits(_bits(vs, dim))


def is_basis(vs, dim: int) -> bool:
    """True iff vs has exactly dim vectors and they span F_2^dim."""
    bits = _bits(vs, dim)
    return len(bits) == dim and rank_bits(bits) == dim


def in_span(v: GF2Vec, vs) -> bool:
    """True iff v lies in Span(vs): adding it does not raise the rank."""
    bits = _bits(vs, v.dim)
    return rank_bits(bits + [v.bits]) == rank_bits(bits)
