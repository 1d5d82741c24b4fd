import random
import statistics
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qturan import bounds, cli
from qturan import construction as con
from qturan import cube
from qturan.construction import (
    TrialsExhausted,
    UnionGraph,
    VectorAssignment,
    build_layer_graph,
    constant_c_enclosure,
    derive_seed,
    edge_probability_closed_form,
    find_good_assignment,
    format_assignment,
    member_lower,
    member_upper,
    parse_assignment,
    sample_assignment,
    union_odd_layers,
)
from qturan.cube import (
    CapacityError,
    LayerId,
    LayerSubgraph,
    bit_indices,
    cube_edge_count,
    edge_count,
    edge_pairs,
    format_layer_graph,
    layer_edge_count,
    layer_graph_text,
    layer_vertices,
    parse_layer_graph,
)
from qturan.gf2 import GF2Vec, parity_check_columns

from helpers import constant_c, multiset_of, union_edge_count
from oracles import (
    edge_count_sets,
    edge_pairs_by_probe,
    exact_expected_edges,
    format_layer_graph_by_probe,
    is_basis_by_span,
    layer_scan_two_levels,
    span_bits,
    survivor_sets,
    upper_side_by_bit_loop,
)
from text_strategies import edited_text

# High-precision value of prod_{k>=1}(1 - 2^-k), frozen from a 60-digit
# partial-product run with 200 factors.
C_REFERENCE = Fraction("0.288788095086602421278899721929")


class TestAssignment:
    def test_multiset_sizes(self):
        a = sample_assignment(6, 3, 1)
        assert multiset_of(a, 0) == []
        assert multiset_of(a, 0b000001) == [a.vectors[0]]
        rng = random.Random(3)
        for _ in range(50):
            s = rng.randrange(1 << 6)
            assert len(multiset_of(a, s)) == s.bit_count()

    def test_dim_one_vectors_are_all_one(self):
        a = sample_assignment(5, 1, 9)
        assert all(v.bits == 1 for v in a.vectors)

    def test_same_seed_same_assignment(self):
        assert sample_assignment(7, 3, 123) == sample_assignment(7, 3, 123)
        assert sample_assignment(7, 3, 123) != sample_assignment(7, 3, 124)

    def test_anchor_is_first_unit(self):
        a = sample_assignment(4, 3, 0)
        assert a.anchor == GF2Vec.unit(0, 3)

    def test_marginal_uniformity(self):
        counts = {1: 0, 2: 0, 3: 0}
        trials = 30000
        for seed in range(trials):
            counts[sample_assignment(2, 2, seed).vectors[0].bits] += 1
        sigma = (trials * (1 / 3) * (2 / 3)) ** 0.5
        for bits in counts:
            assert abs(counts[bits] - trials / 3) <= 4 * sigma

    def test_validation(self):
        with pytest.raises(ValueError):
            VectorAssignment(2, 3, GF2Vec.unit(0, 3), (GF2Vec(1, 3), GF2Vec(1, 3)))
        with pytest.raises(ValueError):
            VectorAssignment(2, 2, GF2Vec.zero(2), (GF2Vec(1, 2), GF2Vec(1, 2)))
        with pytest.raises(ValueError):
            VectorAssignment(2, 2, GF2Vec.unit(0, 2), (GF2Vec(1, 2),))


class TestMembership:
    def test_dim_one(self):
        a = sample_assignment(3, 1, 5)
        assert member_lower(a, 0)
        for i in range(3):
            assert member_upper(a, 1 << i)

    def test_repeated_vector_kills_upper(self):
        a = VectorAssignment(2, 2, GF2Vec.unit(0, 2), (GF2Vec(0b11, 2), GF2Vec(0b11, 2)))
        assert not member_upper(a, 0b11)

    def test_anchor_collision_kills_lower(self):
        a = VectorAssignment(2, 2, GF2Vec.unit(0, 2), (GF2Vec.unit(0, 2), GF2Vec(0b10, 2)))
        assert not member_lower(a, 0b01)
        assert member_lower(a, 0b10)

    def test_wrong_cardinality(self):
        a = sample_assignment(4, 2, 0)
        with pytest.raises(ValueError):
            member_upper(a, 0b111)
        with pytest.raises(ValueError):
            member_lower(a, 0b11)

    def test_against_span_enumeration_oracle(self):
        n, r = 6, 3
        for seed in range(20):
            a = sample_assignment(n, r, seed)
            bits = [v.bits for v in a.vectors]
            for s in range(1 << n):
                chosen = [bits[i] for i in range(n) if (s >> i) & 1]
                if s.bit_count() == r:
                    assert member_upper(a, s) == is_basis_by_span(chosen, r)
                elif s.bit_count() == r - 1:
                    assert member_lower(a, s) == is_basis_by_span([a.anchor.bits] + chosen, r)


class TestLayerGraph:
    def test_dim_one_graph_is_the_full_layer(self):
        for n in (1, 3, 6):
            a = sample_assignment(n, 1, n)
            g = build_layer_graph(a)
            assert g.lower == (0,)
            assert g.upper == tuple(1 << i for i in range(n))
            assert edge_count(g) == n == layer_edge_count(LayerId(n, 1))

    def test_collision_gives_empty_upper(self):
        a = VectorAssignment(2, 2, GF2Vec.unit(0, 2), (GF2Vec(0b11, 2), GF2Vec(0b11, 2)))
        g = build_layer_graph(a)
        assert g.upper == ()
        assert edge_count(g) == 0

    def test_graph_matches_membership_ops(self):
        a = sample_assignment(6, 3, 77)
        g = build_layer_graph(a)
        for s in range(1 << 6):
            if s.bit_count() == 3:
                assert (s in g.upper) == member_upper(a, s)
            elif s.bit_count() == 2:
                assert (s in g.lower) == member_lower(a, s)

    def test_determinism(self):
        g1 = build_layer_graph(sample_assignment(9, 4, 31))
        g2 = build_layer_graph(sample_assignment(9, 4, 31))
        assert g1 == g2

    def test_edge_count_against_naive_double_loop(self):
        for seed in range(30):
            a = sample_assignment(7, 3, seed)
            g = build_layer_graph(a)
            naive = sum(
                1
                for x in g.lower
                for y in g.upper
                if x & y == x and y.bit_count() == x.bit_count() + 1
            )
            assert edge_count(g) == naive
            assert len(list(edge_pairs(g))) == naive

    def test_monte_carlo_mean_matches_closed_form(self):
        n, r = 8, 3
        expected = float(edge_probability_closed_form(r) * layer_edge_count(LayerId(n, r)))
        counts = [
            edge_count(build_layer_graph(sample_assignment(n, r, derive_seed(11, t))))
            for t in range(1000)
        ]
        mean = statistics.mean(counts)
        stderr = statistics.stdev(counts) / len(counts) ** 0.5
        assert abs(mean - expected) <= 3 * stderr

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^lower vertex 0x3 is not an \(r-1\)-subset of \[3\]$"):
            LayerSubgraph.induced(LayerId(3, 2), frozenset({0b11}), frozenset())
        with pytest.raises(ValueError, match=r"^upper vertex 0x1 is not an r-subset of \[3\]$"):
            LayerSubgraph.induced(LayerId(3, 2), frozenset(), frozenset({0b1}))


def _spanning_and_degenerate(n, r, seed):
    """A seeded assignment, and one whose vectors lie in a subspace of F_2^r
    of dimension about r/2 that may or may not contain the anchor."""
    a = sample_assignment(n, r, seed)
    rng = random.Random(seed)
    dim = max(1, r // 2)
    subspace = [v.bits for v in a.vectors[:dim]]
    vectors = []
    for _ in range(n):
        bits = 0
        while not bits:
            bits = 0
            for v in subspace:
                if rng.getrandbits(1):
                    bits ^= v
        vectors.append(GF2Vec(bits, r))
    return a, VectorAssignment(n, r, a.anchor, tuple(vectors))


# Mean edge counts over all (2^r - 1)^n assignments with anchor e_1, frozen
# from an independent pre-build enumeration script.
FROZEN_EXPECTATIONS = {
    (2, 1): Fraction(2),
    (3, 1): Fraction(3),
    (3, 2): Fraction(8, 3),
    (4, 2): Fraction(16, 3),
    (2, 2): Fraction(8, 9),
    (4, 3): Fraction(1152, 343),
}


class TestLayerScan:
    """The one-pass layer scan against the per-subset rank reference."""

    def assert_matches_oracle(self, a):
        bits = [v.bits for v in a.vectors]
        lower, upper = survivor_sets(a.n, a.r, a.anchor.bits, bits)
        edges = edge_count_sets(a.n, lower, upper)
        scan_lower, scan_masks = con._layer_scan(a.n, a.r, a.anchor.bits, bits)
        assert sum(map(int.bit_count, scan_masks)) == edges, (a.n, a.r)
        assert scan_lower == sorted(lower), (a.n, a.r)
        scan_upper = {x | 1 << j for x, m in zip(scan_lower, scan_masks) for j in bit_indices(m)}
        assert scan_upper == upper, (a.n, a.r)
        g = build_layer_graph(a)
        assert (g.lower, g.upper) == (tuple(sorted(lower)), tuple(sorted(upper)))

    def test_every_small_layer(self):
        for n in range(1, 11):
            for r in range(1, n + 1):
                for seed in range(3):
                    for a in _spanning_and_degenerate(n, r, derive_seed(n * 100 + r, seed)):
                        self.assert_matches_oracle(a)

    @pytest.mark.parametrize("n,r", sorted(FROZEN_EXPECTATIONS))
    def test_every_assignment_of_the_frozen_layers(self, n, r):
        total = 0
        for bits in product(range(1, 1 << r), repeat=n):
            _, masks = con._layer_scan(n, r, 1, list(bits))
            count = sum(map(int.bit_count, masks))
            assert count == edge_count_sets(n, *survivor_sets(n, r, 1, bits)), (n, r, bits)
            total += count
        assert Fraction(total, ((1 << r) - 1) ** n) == FROZEN_EXPECTATIONS[(n, r)]

    def test_anchor_outside_the_span(self):
        # every vector lies in span(e1, e2), which misses the anchor e0
        vectors = tuple(GF2Vec(bits, 3) for bits in (0b010, 0b100, 0b110, 0b010, 0b100))
        a = VectorAssignment(5, 3, GF2Vec.unit(0, 3), vectors)
        self.assert_matches_oracle(a)
        assert build_layer_graph(a).upper == ()

    def test_other_anchor(self):
        for seed in range(20):
            a = sample_assignment(8, 4, seed)
            anchor = GF2Vec(random.Random(seed).randrange(1, 16), 4)
            self.assert_matches_oracle(VectorAssignment(8, 4, anchor, a.vectors))

    @pytest.mark.parametrize("n", [14, 16])
    def test_large_odd_layers(self, n):
        for r in range(1, n + 1, 2):
            a = sample_assignment(n, r, derive_seed(n, r))
            bits = [v.bits for v in a.vectors]
            lower, upper = survivor_sets(n, r, a.anchor.bits, bits)
            _, masks = con._layer_scan(n, r, a.anchor.bits, bits)
            assert sum(map(int.bit_count, masks)) == edge_count_sets(n, lower, upper), (n, r)

    def test_capacity(self, monkeypatch):
        monkeypatch.setenv("QT_CAPACITY", "5")
        a = sample_assignment(6, 3, 0)
        with pytest.raises(CapacityError):
            con._layer_scan(6, 3, a.anchor.bits, [v.bits for v in a.vectors])
        with pytest.raises(CapacityError):
            build_layer_graph(a)
        with pytest.raises(CapacityError):
            find_good_assignment(6, 3, 0)


class TestLayerScanAgainstTwoLevels:
    """The scan with its last three levels inline against the scan that
    emitted only its last two levels without a call per node.  r = 4 enters
    the inline level at the root; the frozen layers above stop at r = 3."""

    def assert_same_scan(self, n, r, anchor_bits, bits):
        assert con._layer_scan(n, r, anchor_bits, bits) == layer_scan_two_levels(
            n, r, anchor_bits, bits
        ), (n, r, anchor_bits, bits)

    @pytest.mark.parametrize("anchor_bits", [0b0001, 0b1010])
    def test_every_assignment_at_n4_r4(self, anchor_bits):
        for bits in product(range(1, 16), repeat=4):
            self.assert_same_scan(4, 4, anchor_bits, list(bits))

    @pytest.mark.parametrize("n", range(4, 17))
    def test_spanning_and_degenerate_layers(self, n):
        for r in range(1, n + 1):
            for a in _spanning_and_degenerate(n, r, derive_seed(n * 1000 + r, 13)):
                self.assert_same_scan(n, r, a.anchor.bits, [v.bits for v in a.vectors])


class TestDualRoute:
    """The layer graph from the scan of the parity-check columns against the
    graph of the scan of the vectors, on every layer, not only the upper
    ones the route is taken for."""

    def assert_same_graph(self, n, r, anchor_bits, bits):
        """Compare the routes; returns False when the dual route does not apply."""
        layer = LayerId(n, r)
        lower, masks = con._layer_scan(n, r, anchor_bits, bits)
        primal = con._scanned_graph(layer, lower, masks)
        h = parity_check_columns([*bits, anchor_bits], r)
        if h is None or not h[n]:
            return False
        dual_lower, dual_masks = con._layer_scan(n, n + 1 - r, h[n], h[:n])
        edges = sum(map(int.bit_count, masks))
        assert sum(map(int.bit_count, dual_masks)) == edges, (n, r, anchor_bits, bits)
        g = con._dual_graph(layer, dual_lower, dual_masks)
        assert g == primal, (n, r, anchor_bits, bits)
        assert (dual_lower, dual_masks) == ([], [])
        return True

    @pytest.mark.parametrize("n,r", [(3, 2), (3, 3), (4, 2), (4, 3), (4, 4)])
    def test_every_assignment(self, n, r):
        routes = set()
        for anchor_bits in (1, (1 << r) - 1):
            for bits in product(range(1, 1 << r), repeat=n):
                routes.add(self.assert_same_graph(n, r, anchor_bits, list(bits)))
        assert routes == {False, True}

    @pytest.mark.parametrize("n", range(1, 13))
    def test_seeded_layers(self, n):
        """The route applies exactly when the vectors span F_2^r."""
        for r in range(1, n + 1):
            for seed in range(4):
                for a in _spanning_and_degenerate(n, r, derive_seed(n * 1000 + r, seed)):
                    bits = [v.bits for v in a.vectors]
                    spans = len(span_bits(bits)) == 1 << r
                    assert self.assert_same_graph(n, r, a.anchor.bits, bits) == spans

    def test_fallbacks(self):
        # 2r > n + 2, but the vectors span the hyperplane of e1, e2 and e3:
        # rank 3 with the anchor e1 in their span, h_a = 0 with e0 outside it
        n, r = 5, 4
        bits = [0b0010, 0b0100, 0b1000, 0b0110, 0b1010]
        assert parity_check_columns([*bits, 0b0010], r) is None
        assert parity_check_columns([*bits, 0b0001], r)[n] == 0
        for anchor_bits in (0b0010, 0b0001):
            assert not self.assert_same_graph(n, r, anchor_bits, bits)
            a = VectorAssignment(n, r, GF2Vec(anchor_bits, r), tuple(GF2Vec(b, r) for b in bits))
            assert con._scan(a)[2] is con._scanned_graph
            sides = survivor_sets(n, r, anchor_bits, bits)
            assert build_layer_graph(a) == LayerSubgraph.induced(LayerId(n, r), *sides)

    @pytest.mark.parametrize("n", range(4, 17))
    def test_spanning_and_degenerate_layers(self, n):
        for r in range(1, n + 1):
            for a in _spanning_and_degenerate(n, r, derive_seed(n * 1000 + r, 13)):
                self.assert_same_graph(n, r, a.anchor.bits, [v.bits for v in a.vectors])

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_routing(self, n):
        """Layers with 2r > n + 2 take the dual route when the vectors span
        F_2^r, and find_good_assignment builds the graph build_layer_graph
        builds."""
        for r in range(1, n + 1):
            found = find_good_assignment(n, r, derive_seed(0, r))
            a = found.assignment
            spans = len(span_bits([v.bits for v in a.vectors])) == 1 << r
            dual = con._scan(a)[2] is con._dual_graph
            assert dual == (2 * r > n + 2 and spans), (n, r)
            assert build_layer_graph(a) == found.graph


class TestEdgeMasks:
    """Layer graphs built from the scan's edge masks against the graph of the
    per-subset survivor sets and the set-probing edges and writer."""

    def assert_matches_sets(self, a):
        g = build_layer_graph(a)
        lower, upper = survivor_sets(a.n, a.r, a.anchor.bits, [v.bits for v in a.vectors])
        ref = LayerSubgraph.induced(g.layer, lower, upper)
        assert (g.lower, g.upper, g.edge_masks) == (ref.lower, ref.upper, ref.edge_masks)
        assert g == ref
        assert edge_count(g) == edge_count_sets(a.n, lower, upper)
        assert list(edge_pairs(g)) == list(edge_pairs_by_probe(ref))
        assert format_layer_graph(g) == format_layer_graph_by_probe(ref)

    @pytest.mark.parametrize("n,r", sorted(FROZEN_EXPECTATIONS))
    def test_every_assignment_of_the_frozen_layers(self, n, r):
        anchor = GF2Vec.unit(0, r)
        for bits in product(range(1, 1 << r), repeat=n):
            vectors = tuple(GF2Vec(b, r) for b in bits)
            self.assert_matches_sets(VectorAssignment(n, r, anchor, vectors))

    @pytest.mark.parametrize("n", range(4, 15))
    def test_seeded_layers(self, n):
        for r in range(1, n + 1):
            for a in _spanning_and_degenerate(n, r, derive_seed(n * 1000 + r, 7)):
                self.assert_matches_sets(a)

    def test_public_constructor_derives_the_masks(self):
        # 0b001 reaches 0b011 only; 0b110 is an upper vertex without an edge,
        # which only the stored upper side keeps
        g = LayerSubgraph.induced(LayerId(3, 2), [0b001], frozenset({0b110, 0b011}))
        assert (g.lower, g.upper, g.edge_masks) == ((0b001,), (0b011, 0b110), (0b010,))
        assert list(edge_pairs(g)) == [(0b001, 0b011)]
        assert parse_layer_graph(format_layer_graph(g)) == g

    def test_mask_constructor_checks(self):
        layer = LayerId(4, 2)
        assert con._scanned_graph(layer, [0b1, 0b10], [0b10, 0b1]).upper == (0b11,)

    @pytest.mark.parametrize("n,r", [(14, 7), (16, 9), (18, 13)])
    def test_build_memory_per_lower_vertex(self, n, r):
        """Two tuples of ints and the sorted upper side, with no frozenset:
        about 180 bytes per lower vertex at the peak on the two middle
        layers, against about 240 for the two frozensets of survivors.  The
        dual route of (18, 13) holds the dict of the lower side's masks, which
        share their ints: about 120 bytes."""
        a = find_good_assignment(n, r, 0).assignment
        tracemalloc.start()
        try:
            g = build_layer_graph(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 200 * len(g.lower)


    @pytest.mark.parametrize("n,r", [(14, 7), (16, 9)])
    def test_writer_memory_per_edge(self, n, r):
        """The joined blocks and the whole text: about 25 to 37 bytes per
        edge at the peak on these layers, for a text of about 12, against
        about 120 with one str per line."""
        g = find_good_assignment(n, r, 0).graph
        tracemalloc.start()
        try:
            format_layer_graph(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * edge_count(g)

    def test_streamed_writer_memory_is_bounded(self):
        """The pieces of the layer text, each dropped once counted, hold one
        block of edges at a time: the peak stays under one bound while the
        text grows more than fourfold."""
        graphs = [find_good_assignment(n, 9, 0).graph for n in (16, 18)]
        assert edge_count(graphs[1]) > 4 * edge_count(graphs[0])
        for g in graphs:
            chars = 0
            tracemalloc.start()
            try:
                for piece in layer_graph_text(g):
                    chars += len(piece)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 512 * 1024, (g.layer, peak)
            assert chars == len(format_layer_graph(g))


class TestLayerWriter:
    """layer_graph_text, which expands the edge masks of each block through
    a table of bit tuples, against the writer that probes the upper set."""

    def assert_writes_as_probe(self, g):
        assert format_layer_graph(g) == format_layer_graph_by_probe(g), g.layer

    @pytest.mark.parametrize("n", range(4, 17))
    def test_seeded_layers_on_both_routes(self, n):
        routes = set()
        for r in range(1, n + 1):
            layer = LayerId(n, r)
            for a in _spanning_and_degenerate(n, r, derive_seed(n * 1000 + r, 5)):
                bits = [v.bits for v in a.vectors]
                lower, masks = con._layer_scan(n, r, a.anchor.bits, bits)
                self.assert_writes_as_probe(con._scanned_graph(layer, lower, masks))
                h = parity_check_columns([*bits, a.anchor.bits], r)
                if h is not None and h[n]:
                    dual = con._dual_graph(layer, *con._layer_scan(n, n + 1 - r, h[n], h[:n]))
                    self.assert_writes_as_probe(dual)
                    routes.add("dual")
                routes.add("scanned")
        assert routes == {"scanned", "dual"}

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_full_layers(self, n):
        for r in range(1, n + 1):
            layer = LayerId(n, r)
            lower, upper = layer_vertices(layer, "lower"), layer_vertices(layer, "upper")
            self.assert_writes_as_probe(LayerSubgraph.induced(layer, lower, upper))

    def test_induced_graphs_with_isolated_vertices(self):
        rng = random.Random(11)
        isolated_lower = isolated_upper = 0
        for n in range(2, 10):
            for r in range(1, n + 1):
                layer = LayerId(n, r)
                lower = [x for x in layer_vertices(layer, "lower") if rng.random() < 0.4]
                upper = [y for y in layer_vertices(layer, "upper") if rng.random() < 0.4]
                g = LayerSubgraph.induced(layer, lower, upper)
                self.assert_writes_as_probe(g)
                ends = {y for _, y in edge_pairs(g)}
                isolated_lower += g.edge_masks.count(0)
                isolated_upper += sum(y not in ends for y in g.upper)
        assert isolated_lower > 0 and isolated_upper > 0

    def test_masks_of_zero_and_the_empty_graph(self):
        layer = LayerId(4, 2)
        g = LayerSubgraph.induced(layer, [0b0001, 0b0010, 0b1000], [0b0011])
        assert g.edge_masks == (0b0010, 0b0001, 0)
        self.assert_writes_as_probe(g)
        g = LayerSubgraph.induced(layer, [0b0100, 0b1000], [])
        assert g.edge_masks == (0, 0)
        assert format_layer_graph(g) == "# qn n=4\n# layer r=2\n# lower\n4\n8\n# upper\n"
        self.assert_writes_as_probe(g)
        empty = LayerSubgraph.induced(layer, [], [])
        assert format_layer_graph(empty) == "# qn n=4\n# layer r=2\n# lower\n# upper\n"
        self.assert_writes_as_probe(empty)

    @pytest.mark.parametrize("count", [255, 256, 257, 512, 513, 792])
    def test_lower_sides_across_blocks(self, count):
        """Lower sides of up to four blocks of 256 vertices, two of them an
        exact multiple of the block: one edge piece per block."""
        assert cube._TEXT_BLOCK == 256
        layer = LayerId(12, 6)
        lower = list(layer_vertices(layer, "lower"))[:count]
        g = LayerSubgraph.induced(layer, lower, layer_vertices(layer, "upper"))
        self.assert_writes_as_probe(g)
        pieces = list(layer_graph_text(g))
        blocks = -(-count // 256)
        assert pieces[1 + blocks].startswith("# layer r=6\n")
        assert all(piece.count("\n") == 7 * 256 for piece in pieces[1:blocks])

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_small_blocks(self, monkeypatch, block):
        monkeypatch.setattr(cube, "_TEXT_BLOCK", block)
        for n in range(4, 11):
            for r in range(1, n + 1):
                self.assert_writes_as_probe(find_good_assignment(n, r, derive_seed(1, r)).graph)


class TestUpperEnds:
    """cube.upper_ends, which groups the lower vertices by edge mask, against
    the bit loop into a set that construction._scanned_graph ran before."""

    @pytest.mark.parametrize("n", range(1, 15))
    def test_seeded_layers(self, n):
        for r in range(1, n + 1):
            for a in _spanning_and_degenerate(n, r, derive_seed(n * 1000 + r, 3)):
                lower, masks = con._layer_scan(n, r, a.anchor.bits, [v.bits for v in a.vectors])
                assert cube.upper_ends(lower, masks) == upper_side_by_bit_loop(lower, masks)

    def test_rank_deficient_draws(self):
        """Vectors in a proper subspace of F_2^r: no upper survivor and no
        edge, although lower survivors remain when the anchor lies outside
        the subspace."""
        kept_lower = 0
        for n in range(2, 13):
            for r in range(2, n + 1):
                _, a = _spanning_and_degenerate(n, r, derive_seed(n * 1000 + r, 3))
                lower, masks = con._layer_scan(n, r, a.anchor.bits, [v.bits for v in a.vectors])
                assert cube.upper_ends(lower, masks) == upper_side_by_bit_loop(lower, masks) == ()
                assert build_layer_graph(a).upper == ()
                kept_lower += len(lower)
        assert kept_lower > 0

    def test_two_lower_vertices_share_their_upper_end(self):
        lower, masks = [0b1, 0b10], [0b10, 0b1]
        assert cube.upper_ends(lower, masks) == upper_side_by_bit_loop(lower, masks) == (0b11,)

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_layer_files_read_back_as_the_graph(self, n):
        routes = set()
        for r in range(1, n + 1):
            found = find_good_assignment(n, r, derive_seed(0, r))
            routes.add(con._scan(found.assignment)[2])
            g = found.graph
            back = parse_layer_graph(format_layer_graph(g))
            assert back == g and hash(back) == hash(g), (n, r)
        assert routes == {con._scanned_graph, con._dual_graph}

    def test_each_scanned_layer_derives_its_upper_side_once(self, monkeypatch, tmp_path):
        """The suite derives the upper side of each layer whose winning trial
        takes the direct scan, and writing the layers derives none."""
        n = 12
        scanned = 0
        for r in range(1, n + 1, 2):
            a = find_good_assignment(n, r, derive_seed(0, r)).assignment
            scanned += con._scan(a)[2] is con._scanned_graph
        calls = []

        def counted(lower, masks):
            calls.append(len(lower))
            return upper_ends(lower, masks)

        upper_ends = cube.upper_ends
        monkeypatch.setattr(cube, "upper_ends", counted)
        bounds.density_report_suite(n, 0)
        assert len(calls) == scanned > 0
        calls.clear()
        assert cli.main(["pipeline", "--n", str(n), "--out", str(tmp_path)]) == 0
        assert len(calls) == scanned


class TestUnionGraph:
    def test_single_coordinate(self):
        u = union_odd_layers(1, {1: sample_assignment(1, 1, 0)})
        assert set(u.layers) == {1}
        assert union_edge_count(u) == 1

    def test_disjoint_vertex_sets(self):
        u = union_odd_layers(3, {1: sample_assignment(3, 1, 0), 3: sample_assignment(3, 3, 1)})
        seen = set()
        for g in u.layers.values():
            for v in set(g.lower) | set(g.upper):
                assert v not in seen
                seen.add(v)

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            union_odd_layers(4, {3: sample_assignment(3, 3, 0)})
        with pytest.raises(ValueError):
            union_odd_layers(4, {2: sample_assignment(4, 2, 0)})
        with pytest.raises(ValueError):
            union_odd_layers(4, {1: sample_assignment(4, 3, 0)})

    def test_union_never_beats_half_the_cube(self):
        for seed in range(5):
            n = 6
            u = union_odd_layers(
                n, {r: sample_assignment(n, r, derive_seed(seed, r)) for r in range(1, n + 1, 2)}
            )
            assert union_edge_count(u) <= cube_edge_count(n) // 2

    def test_union_hits_half_when_layers_are_complete(self):
        # at n=2 the only odd layer is r=1, which survives in full
        u = union_odd_layers(2, {1: sample_assignment(2, 1, 0)})
        assert union_edge_count(u) == cube_edge_count(2) // 2

    def test_expected_union_density_beats_quarter(self):
        # exact expectation of the union's edge count, layer by layer
        _, c_hi = constant_c_enclosure()
        for n in range(1, 11):
            expected = sum(
                edge_probability_closed_form(r) * layer_edge_count(LayerId(n, r))
                for r in range(1, n + 1, 2)
            )
            assert expected > c_hi / 4 * cube_edge_count(n)

    def test_union_validation(self):
        g = build_layer_graph(sample_assignment(3, 3, 0))
        with pytest.raises(ValueError):
            UnionGraph(3, {1: g})  # key does not match the layer id


class TestClosedForm:
    def test_known_values(self):
        assert edge_probability_closed_form(1) == 1
        assert edge_probability_closed_form(2) == Fraction(4, 9)
        assert edge_probability_closed_form(3) == Fraction(96, 343)
        assert edge_probability_closed_form(4) == Fraction(3584, 16875)

    def test_brute_force_oracle(self):
        # enumerate every choice of edge vectors and count survivals via spans
        for r in (2, 3):
            nonzero = range(1, 1 << r)
            good = 0
            total = 0
            for tup in product(nonzero, repeat=r):
                total += 1
                lower_ok = is_basis_by_span([1] + list(tup[: r - 1]), r)
                upper_ok = is_basis_by_span(list(tup), r)
                if lower_ok and upper_ok:
                    good += 1
            assert edge_probability_closed_form(r) == Fraction(good, total)

    def test_strictly_decreasing_and_above_half_constant(self):
        _, c_hi = constant_c_enclosure()
        prev = None
        for r in range(1, 31):
            p = edge_probability_closed_form(r)
            assert p > c_hi / 2
            if prev is not None:
                assert p < prev
            prev = p

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            edge_probability_closed_form(0)


class TestConstant:
    def test_loose_tolerance_gives_first_partial(self):
        assert constant_c(0.3) == 0.5

    def test_in_paper_window(self):
        value = constant_c(1e-12)
        assert 0.288 < value < 0.289

    def test_matches_frozen_reference_to_ten_digits(self):
        value = constant_c(1e-12)
        assert abs(value - float(C_REFERENCE)) < 1e-10
        assert round(value, 10) == 0.2887880951

    def test_enclosure_brackets_reference(self):
        lo, hi = constant_c_enclosure()
        assert lo < C_REFERENCE < hi
        assert hi - lo < Fraction(1, 10**12)

    def test_enclosure_rejects_tiny_tolerance(self):
        with pytest.raises(ValueError):
            constant_c_enclosure(Fraction(1, 10**19))


class TestExactExpectation:
    FROZEN = FROZEN_EXPECTATIONS

    @pytest.mark.parametrize("n,r", sorted(FROZEN))
    def test_frozen_values(self, n, r):
        assert exact_expected_edges(n, r) == self.FROZEN[(n, r)]

    @pytest.mark.parametrize("n,r", sorted(FROZEN))
    def test_matches_closed_form_times_layer_count(self, n, r):
        expected = edge_probability_closed_form(r) * layer_edge_count(LayerId(n, r))
        assert exact_expected_edges(n, r) == expected

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            exact_expected_edges(20, 5)


class TestGoodAssignment:
    def test_dim_one_succeeds_immediately(self):
        result = find_good_assignment(5, 1, 0)
        assert result.trials == 1
        assert result.edges == 5

    def test_threshold_value(self):
        result = find_good_assignment(10, 3, 0)
        bound = 0.1443940475 * layer_edge_count(LayerId(10, 3))
        assert result.edges > bound
        assert Fraction(result.edges) > result.threshold
        assert result.graph == build_layer_graph(result.assignment)
        assert result.edges == edge_count(result.graph)

    def test_exhaustion_carries_best(self):
        # seed 0, trial 0 draws two equal vectors at n=2, r=2: zero edges
        with pytest.raises(TrialsExhausted) as info:
            find_good_assignment(2, 2, 0, max_trials=1)
        err = info.value
        assert err.trials == 1
        assert err.best.edges == 0

    @pytest.mark.parametrize(
        "n,r,seed,counts", [(6, 4, 2, [5, 6, 8]), (5, 4, 25, [0, 2, 2])]
    )
    def test_exhaustion_materializes_the_first_best_trial(self, n, r, seed, counts):
        with pytest.raises(TrialsExhausted) as info:
            find_good_assignment(n, r, seed, max_trials=3)
        best = info.value.best
        assert counts == [
            edge_count(build_layer_graph(sample_assignment(n, r, derive_seed(seed, t))))
            for t in range(3)
        ]
        assert best.edges == max(counts) == edge_count(best.graph)
        assert best.trials == counts.index(max(counts)) + 1
        assert best.graph == build_layer_graph(best.assignment)

    def test_bad_trials(self):
        with pytest.raises(ValueError):
            find_good_assignment(3, 1, 0, max_trials=0)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(5, 9) == derive_seed(5, 9)
        assert derive_seed(5, 9) != derive_seed(5, 10)
        assert derive_seed(5, 9) != derive_seed(6, 9)

    def test_spread(self):
        values = {derive_seed(0, i) for i in range(1000)}
        assert len(values) == 1000


class TestTextFormats:
    def test_assignment_round_trip(self):
        a = sample_assignment(5, 3, 99)
        text = format_assignment(a)
        assert parse_assignment(text) == a
        assert format_assignment(parse_assignment(text)) == text
        assert text.splitlines()[0] == "# gf2-assignment n=5 r=3"
        assert text.splitlines()[1] == f"v0 {a.anchor.bits:x}"

    def test_assignment_parse_errors(self):
        with pytest.raises(ValueError):
            parse_assignment("v0 1\n")
        with pytest.raises(ValueError):
            parse_assignment("# gf2-assignment n=2 r=2\nv0 1\nv1 1\n")  # missing v2
        with pytest.raises(ValueError):
            parse_assignment("# gf2-assignment n=1 r=1\nv9 1\nv1 1\n")
        with pytest.raises(ValueError):
            parse_assignment("# gf2-assignment n=-1 r=1\n")  # no v0 line

    def test_layer_graph_round_trip(self):
        g = build_layer_graph(sample_assignment(6, 3, 4))
        text = format_layer_graph(g)
        assert parse_layer_graph(text) == g
        assert format_layer_graph(parse_layer_graph(text)) == text

    def test_layer_graph_round_trip_empty(self):
        a = VectorAssignment(2, 2, GF2Vec.unit(0, 2), (GF2Vec(1, 2), GF2Vec(1, 2)))
        g = build_layer_graph(a)
        text = format_layer_graph(g)
        assert parse_layer_graph(text) == g

    def test_layer_graph_rejects_inconsistent_edges(self):
        g = build_layer_graph(sample_assignment(4, 2, 1))
        text = format_layer_graph(g)
        broken = text.replace("# layer", "0 1\n# layer", 1)
        with pytest.raises(ValueError):
            parse_layer_graph(broken)


def layer_read(parse, text):
    """The graph parse reads from text, or the message of its ValueError."""
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


def layer_variants(text):
    """Spellings of a layer file other than the canonical one, each of which
    the line reader either reads as the same graph or rejects."""
    lines = text.splitlines(keepends=True)
    vertex_at = lines.index("# lower\n")
    upper_at = lines.index("# upper\n")
    edge_lines = [i for i, line in enumerate(lines) if " " in line and line[0] != "#"]
    hex_lines = [line if line[0] == "#" else line.upper() for line in lines]
    middle = len(lines) // 2
    yield text.replace("\n", "\r\n")
    yield text.replace("\n", " \n")
    yield text + "\n \n"
    yield "".join(lines[:middle] + ["\n", "# a comment\n"] + lines[middle:])
    yield "".join(hex_lines)
    yield "".join(line if line[0] == "#" else "0" + line for line in lines)
    yield text[:-1]
    if edge_lines:
        yield "".join(lines[: edge_lines[0]] + lines[edge_lines[0] + 1 :])
    if len(edge_lines) > 1:
        a, b = edge_lines[:2]
        yield "".join(lines[:a] + [lines[b], lines[a]] + lines[b + 1 :])
    if upper_at > vertex_at + 1:  # the first lower vertex moved to the upper side
        moved = lines[vertex_at + 1]
        yield "".join(lines[: vertex_at + 1] + lines[vertex_at + 2 :] + [moved])
    if upper_at + 1 < len(lines):  # the first upper vertex moved to the lower side
        moved = [lines[upper_at + 1]]
        at = vertex_at + 1
        yield "".join(lines[:at] + moved + lines[at : upper_at + 1] + lines[upper_at + 2 :])


class TestCanonicalLayerRead:
    """The fast path for canonical layer files gives the line reader's
    graph, and leaves every other spelling and every error to it."""

    @pytest.mark.parametrize("n", range(4, 15))
    def test_every_layer_and_its_variants(self, n):
        outcomes = set()
        for r in range(1, n + 1):
            g = build_layer_graph(sample_assignment(n, r, derive_seed(n, r)))
            text = format_layer_graph(g)
            assert cube._parse_canonical_layer(text) == cube._parse_layer_lines(text) == g
            for variant in layer_variants(text):
                if variant == text:  # uppercase hex without a letter
                    continue
                assert cube._parse_canonical_layer(variant) is None
                expected = layer_read(cube._parse_layer_lines, variant)
                assert layer_read(parse_layer_graph, variant) == expected
                outcomes.add(type(expected))
        # some variants read as the graph, and some are rejected
        assert outcomes == {LayerSubgraph, str}


@st.composite
def assignment_texts(draw):
    n = draw(st.integers(1, 5))
    a = sample_assignment(n, draw(st.integers(1, n)), draw(st.integers(0, 99)))
    plausible = ["v0 1", f"v{n} 1", "v1 0", "v1 g", "v1 1 1", "# gf2-assignment n=2 r=1", "x=1", ""]
    return draw(edited_text(format_assignment(a).splitlines(), plausible))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(assignment_texts())
def test_assignment_parse_is_total_and_round_trips(text):
    """Any text parses to an assignment that round-trips, or raises ValueError (exit 2)."""
    try:
        a = parse_assignment(text)
    except ValueError:
        return
    canonical = format_assignment(a)
    assert parse_assignment(canonical) == a
    assert format_assignment(parse_assignment(canonical)) == canonical


@st.composite
def layer_texts(draw):
    n = draw(st.integers(1, 5))
    layer = LayerId(n, draw(st.integers(1, n)))
    lower = draw(st.sets(st.sampled_from(list(layer_vertices(layer, "lower")))))
    upper = draw(st.sets(st.sampled_from(list(layer_vertices(layer, "upper")))))
    g = LayerSubgraph.induced(layer, frozenset(lower), frozenset(upper))
    plausible = ["# lower", "# upper", "# layer r=2", "# layer r=x", "# qn n=3", "1 3", "3", "0", "-1", ""]
    return draw(edited_text(format_layer_graph(g).splitlines(), plausible))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(layer_texts())
def test_layer_graph_parse_matches_the_line_reader(text):
    """On edited layer texts, the fast path accepts only canonical text and
    the reader gives the line reader's graph or message."""
    expected = layer_read(cube._parse_layer_lines, text)
    assert layer_read(parse_layer_graph, text) == expected
    fast = cube._parse_canonical_layer(text)
    assert fast is None or (fast == expected and format_layer_graph(fast) == text)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(layer_texts())
def test_layer_graph_parse_is_total_and_round_trips(text):
    """Any text parses to a layer graph that round-trips, or raises ValueError (exit 2)."""
    try:
        g = parse_layer_graph(text)
    except ValueError:
        return
    canonical = format_layer_graph(g)
    assert parse_layer_graph(canonical) == g
    assert format_layer_graph(parse_layer_graph(canonical)) == canonical
