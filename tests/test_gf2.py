import random
from itertools import product

import pytest

from qturan.gf2 import (
    GF2Vec,
    parity_check_columns,
    quotient_image,
    rank_bits,
    sample_nonzero,
)

from helpers import in_span, is_basis, rank
from oracles import (
    column_dependencies,
    is_basis_by_span,
    quotient_image_by_reduced_echelon,
    rank_by_subset_search,
    span_bits,
)


def vecs(bits_list, dim):
    return [GF2Vec(b, dim) for b in bits_list]


class TestGF2Vec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GF2Vec(0b100, 2)  # bit above the dimension
        with pytest.raises(ValueError):
            GF2Vec(-1, 3)
        with pytest.raises(ValueError):
            GF2Vec(0, 65)
        assert GF2Vec.zero(4).bits == 0
        assert GF2Vec.unit(2, 4).bits == 0b100

    def test_unit_range(self):
        with pytest.raises(ValueError):
            GF2Vec.unit(4, 4)

    def test_xor_and_bool(self):
        a = GF2Vec(0b101, 3)
        b = GF2Vec(0b011, 3)
        assert (a ^ b).bits == 0b110
        assert not GF2Vec.zero(3)
        assert a
        with pytest.raises(ValueError):
            a ^ GF2Vec(1, 2)


class TestRank:
    def test_empty(self):
        assert rank([], 3) == 0

    def test_dependent_triple(self):
        assert rank(vecs([0b001, 0b010, 0b011], 3), 3) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rank([GF2Vec(1, 2), GF2Vec(1, 3)], 3)

    def test_matches_subset_search_oracle(self):
        rng = random.Random(12345)
        for _ in range(1000):
            r = rng.randint(1, 6)
            k = rng.randint(0, 6)
            bits = [rng.randrange(1 << r) for _ in range(k)]
            assert rank(vecs(bits, r), r) == rank_by_subset_search(bits)

    def test_order_invariant(self):
        rng = random.Random(7)
        for _ in range(200):
            r = rng.randint(1, 6)
            bits = [rng.randrange(1 << r) for _ in range(rng.randint(0, 6))]
            base = rank(vecs(bits, r), r)
            shuffled = bits[:]
            rng.shuffle(shuffled)
            assert rank(vecs(shuffled, r), r) == base

    def test_adding_one_vector_changes_rank_by_at_most_one(self):
        rng = random.Random(99)
        for _ in range(300):
            r = rng.randint(1, 6)
            bits = [rng.randrange(1 << r) for _ in range(rng.randint(0, 5))]
            extra = rng.randrange(1 << r)
            before = rank_bits(bits)
            after = rank_bits(bits + [extra])
            assert after in (before, before + 1)


class TestIsBasis:
    def test_standard_basis(self):
        for r in range(1, 7):
            assert is_basis([GF2Vec.unit(i, r) for i in range(r)], r)

    def test_repeated_vector(self):
        e1 = GF2Vec.unit(0, 2)
        assert not is_basis([e1, e1], 2)

    def test_all_small_multisets_against_span_enumeration(self):
        r = 3
        from itertools import product

        for size in range(5):
            for bits in product(range(1 << r), repeat=size):
                expected = is_basis_by_span(list(bits), r)
                assert is_basis(vecs(bits, r), r) == expected

    def test_basis_spans_everything(self):
        rng = random.Random(4)
        for r in range(1, 5):
            found = 0
            while found < 5:
                bits = [rng.randrange(1, 1 << r) for _ in range(r)]
                if not is_basis(vecs(bits, r), r):
                    continue
                found += 1
                basis = vecs(bits, r)
                for v in range(1 << r):
                    assert in_span(GF2Vec(v, r), basis)


class TestInSpan:
    def test_zero_in_empty_span(self):
        assert in_span(GF2Vec.zero(3), [])

    def test_unit_not_in_other_unit_span(self):
        assert not in_span(GF2Vec.unit(0, 2), [GF2Vec.unit(1, 2)])

    def test_matches_span_enumeration(self):
        rng = random.Random(2024)
        r = 4
        for _ in range(500):
            bits = [rng.randrange(1 << r) for _ in range(rng.randint(0, 4))]
            v = rng.randrange(1 << r)
            assert in_span(GF2Vec(v, r), vecs(bits, r)) == (v in span_bits(bits))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            in_span(GF2Vec(1, 3), [GF2Vec(1, 2)])


class TestQuotientImage:
    def test_quotient_by_nothing_is_identity(self):
        v = GF2Vec(0b1011, 4)
        assert quotient_image(v, []) == v

    def test_coset_invariance(self):
        rng = random.Random(31)
        for _ in range(300):
            r = rng.randint(2, 6)
            k = rng.randint(1, r - 1)
            basis = []
            while len(basis) < k:
                cand = rng.randrange(1, 1 << r)
                if rank_bits(basis + [cand]) == len(basis) + 1:
                    basis.append(cand)
            basis_vecs = vecs(basis, r)
            u = GF2Vec(rng.randrange(1 << r), r)
            for b in basis_vecs:
                assert quotient_image(u, basis_vecs) == quotient_image(u ^ b, basis_vecs)

    def test_specific_three_dim_example(self):
        sub = [GF2Vec(0b111, 3)]
        assert quotient_image(GF2Vec(0b001, 3), sub) == quotient_image(GF2Vec(0b110, 3), sub)
        # and their difference really is in the subspace
        assert in_span(GF2Vec(0b001 ^ 0b110, 3), sub)

    def test_linearity(self):
        rng = random.Random(8)
        for _ in range(200):
            r = rng.randint(2, 6)
            basis = [GF2Vec.unit(0, r)]
            u = GF2Vec(rng.randrange(1 << r), r)
            v = GF2Vec(rng.randrange(1 << r), r)
            left = quotient_image(u ^ v, basis)
            right = quotient_image(u, basis) ^ quotient_image(v, basis)
            assert left == right

    def test_images_equal_iff_difference_in_subspace(self):
        rng = random.Random(77)
        for _ in range(300):
            r = rng.randint(2, 5)
            k = rng.randint(0, r)
            basis = []
            while len(basis) < k:
                cand = rng.randrange(1, 1 << r)
                if rank_bits(basis + [cand]) == len(basis) + 1:
                    basis.append(cand)
            basis_vecs = vecs(basis, r)
            u = rng.randrange(1 << r)
            v = rng.randrange(1 << r)
            same = quotient_image(GF2Vec(u, r), basis_vecs) == quotient_image(GF2Vec(v, r), basis_vecs)
            assert same == (u ^ v in span_bits(basis))

    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError):
            quotient_image(GF2Vec(1, 3), vecs([0b011, 0b011], 3))

    def test_image_dimension(self):
        img = quotient_image(GF2Vec(0b1010, 4), vecs([0b0001, 0b0110], 4))
        assert img.dim == 2


def quotient_outcome(quotient, v, basis):
    try:
        return quotient(v, basis)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestQuotientImageAgainstReducedEchelon:
    """quotient_image against the reduced echelon route it replaced: the same
    image, or the same error message."""

    def assert_agree(self, v, basis):
        expected = quotient_outcome(quotient_image_by_reduced_echelon, v, basis)
        assert quotient_outcome(quotient_image, v, basis) == expected

    def test_every_basis_and_vector_to_dim_4(self):
        # every list of at most dim vectors, the zero vector and dependent
        # lists included, with every vector; the 65536 lists of four at
        # dimension 4 each take one vector, every vector in turn
        for dim in range(5):
            space = vecs(range(1 << dim), dim)
            for k in range(dim + 1):
                for at, basis in enumerate(product(space, repeat=k)):
                    if k < 4:
                        for v in space:
                            self.assert_agree(v, basis)
                    else:
                        self.assert_agree(space[at % 16], basis)

    def test_seeded_to_dim_64(self):
        rng = random.Random(64)
        for _ in range(3000):
            dim = rng.randint(1, 64)
            # sparse rows, and the sum of two rows now and then, make about
            # half of the lists dependent
            density = rng.choice((3, dim))
            basis = []
            for _ in range(rng.randint(0, dim)):
                bits = 0
                for _ in range(density):
                    bits |= 1 << rng.randrange(dim)
                if basis and rng.random() < 0.05:
                    bits = rng.choice(basis) ^ rng.choice(basis)
                basis.append(bits)
            self.assert_agree(GF2Vec(rng.getrandbits(dim), dim), vecs(basis, dim))


class TestParityCheckColumns:
    """The parity-check columns against the null space of the columns,
    found by trying every combination of them."""

    def assert_matches_null_space(self, columns, dim):
        h = parity_check_columns(columns, dim)
        assert (h is None) == (len(span_bits(columns)) < 1 << dim), (columns, dim)
        if h is None:
            return
        d = len(columns) - dim
        assert len(h) == len(columns) and all(c >> d == 0 for c in h)
        checks = [sum(1 << j for j, c in enumerate(h) if c >> i & 1) for i in range(d)]
        # d checks that span all 2^d dependencies are a basis of them
        deps = column_dependencies(columns)
        assert len(deps) == 1 << d and span_bits(checks) == deps, (columns, dim)
        # a column no check involves is one outside the span of the others
        for j, c in enumerate(h):
            others = columns[:j] + columns[j + 1 :]
            assert (c == 0) == (columns[j] not in span_bits(others)), (columns, dim, j)

    @pytest.mark.parametrize("dim,k", [(1, 6), (2, 6), (3, 4)])
    def test_every_small_matrix(self, dim, k):
        for size in range(k + 1):
            for columns in product(range(1 << dim), repeat=size):
                self.assert_matches_null_space(list(columns), dim)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_seeded_matrices(self, k):
        """Up to 8 columns, as many as a layer of Q_7 and its anchor; half of
        them drawn from a subspace, so rank-deficient sets come up."""
        rng = random.Random(k)
        for dim in range(1, k + 1):
            for trial in range(20):
                sub = [rng.getrandbits(dim) for _ in range(rng.randint(1, dim))]
                columns = []
                for _ in range(k):
                    if trial % 2:
                        c = 0
                        for v in sub:
                            c ^= v * rng.getrandbits(1)
                    else:
                        c = rng.getrandbits(dim)
                    columns.append(c)
                self.assert_matches_null_space(columns, dim)


class TestSampleNonzero:
    def test_dim_one_is_always_one(self):
        rng = random.Random(5)
        for _ in range(50):
            assert sample_nonzero(rng, 1).bits == 1

    def test_uniform_over_three_values(self):
        rng = random.Random(0)
        counts = {1: 0, 2: 0, 3: 0}
        trials = 30000
        for _ in range(trials):
            counts[sample_nonzero(rng, 2).bits] += 1
        # 4 sigma band for Binomial(30000, 1/3)
        sigma = (trials * (1 / 3) * (2 / 3)) ** 0.5
        for bits in (1, 2, 3):
            assert abs(counts[bits] - trials / 3) <= 4 * sigma

    def test_deterministic_per_seed(self):
        rng1, rng2 = random.Random(42), random.Random(42)
        s1 = [sample_nonzero(rng1, 6).bits for _ in range(100)]
        s2 = [sample_nonzero(rng2, 6).bits for _ in range(100)]
        assert s1 == s2

    def test_rejects_dim_zero(self):
        with pytest.raises(ValueError):
            sample_nonzero(random.Random(1), 0)
