"""GF(2) linear algebra on bit-packed vectors.

A vector in F_2^dim is stored as an int whose bit i is coordinate i.  The
dimension is capped at 64 so a vector is one machine word and elimination
is plain word XOR.
"""

from __future__ import annotations

import random
from typing import Iterable

from .record import Record

MAX_DIM = 64

__all__ = [
    "MAX_DIM",
    "GF2Vec",
    "rank_bits",
    "parity_check_columns",
    "sample_nonzero",
]


class GF2Vec(Record):
    """An element of F_2^dim.  Bits at positions >= dim must be zero."""

    bits: int
    dim: int

    def __post_init__(self) -> None:
        if not 0 <= self.dim <= MAX_DIM:
            raise ValueError(f"dimension must be in [0, {MAX_DIM}], got {self.dim}")
        if self.bits < 0 or self.bits >> self.dim:
            raise ValueError(f"bits 0x{self.bits:x} do not fit in dimension {self.dim}")

    @classmethod
    def unit(cls, index: int, dim: int) -> GF2Vec:
        """Standard basis vector e_index (0-based)."""
        if not 0 <= index < dim:
            raise ValueError(f"unit index {index} out of range for dimension {dim}")
        return cls(1 << index, dim)

    def __bool__(self) -> bool:
        return self.bits != 0


def _pivots(rows: Iterable[int]) -> dict[int, int]:
    """Top-bit pivots of the span of int bitset rows, by word-level Gaussian
    elimination: each row is reduced by the pivots of its top bit until its
    top bit is new, or it vanishes.  The keys are the leading bits of the
    span, one per dimension."""
    pivots: dict[int, int] = {}
    for v in rows:
        while v:
            top = v.bit_length() - 1
            p = pivots.get(top)
            if p is None:
                pivots[top] = v
                break
            v ^= p
    return pivots


def rank_bits(rows: Iterable[int]) -> int:
    """Rank over GF(2) of int bitset rows."""
    return len(_pivots(rows))


def parity_check_columns(columns: list[int], dim: int) -> list[int] | None:
    """The columns of a parity-check matrix of the code spanned by the rows
    of the dim x k matrix with these k int bitset columns, or None when
    they span less than F_2^dim.

    Column j's row is (column_j << k) | 1 << j.  Elimination keys rank-many
    pivots at or above bit k; the others have a zero high part, so their
    low parts are k - rank independent dependencies of the columns: the
    rows of a parity-check matrix, whose column j is returned as the int
    with bit i set when row i holds j.
    """
    k = len(columns)
    rows = [c << k | 1 << j for j, c in enumerate(columns)]
    checks = [p for top, p in _pivots(rows).items() if top < k]
    if len(checks) != k - dim:
        return None
    out = [0] * k
    for i, z in enumerate(checks):
        while z:
            low = z & -z
            z ^= low
            out[low.bit_length() - 1] |= 1 << i
    return out


def sample_nonzero(rng: random.Random, dim: int) -> GF2Vec:
    """Uniform over the 2^dim - 1 nonzero vectors, by rejection sampling."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1 to sample a nonzero vector, got {dim}")
    while True:
        bits = rng.getrandbits(dim)
        if bits:
            return GF2Vec(bits, dim)
