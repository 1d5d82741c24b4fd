import random
import tracemalloc

import pytest

from qturan import cube
from qturan.bounds import density_report_suite
from qturan.construction import (
    LayerSubgraph,
    VectorAssignment,
    build_layer_graph,
    derive_seed,
    edge_pairs,
    sample_assignment,
    union_odd_layers,
)
from qturan.cube import LayerId
from qturan.detector import (
    C6Obstruction,
    CubeSubgraph,
    CycleWitness,
    PathWitness,
    SubcubePattern,
    explain_c6_impossibility,
    find_c6_minus,
    find_c6_structured,
    find_cycle_generic,
    subgraph_of_layer,
    subgraph_of_union,
    witness_line,
)
from qturan.detector import _first_c6_minus_in_range, _first_cycle_in_range, _neighbor_map
from qturan.gf2 import GF2Vec

from oracles import (
    find_c6_structured_by_probe,
    first_c6_minus_dfs,
    first_cycle_dfs,
    has_c6_minus_naive,
    has_cycle_naive,
    induced_cube_edges,
)


def full_layer(n, r):
    layer = LayerId(n, r)
    return LayerSubgraph(
        layer,
        frozenset(cube.layer_vertices(layer, "lower")),
        frozenset(cube.layer_vertices(layer, "upper")),
    )


def random_layer_subgraph(n, r, rng):
    layer = LayerId(n, r)
    lower = frozenset(v for v in cube.layer_vertices(layer, "lower") if rng.random() < 0.5)
    upper = frozenset(v for v in cube.layer_vertices(layer, "upper") if rng.random() < 0.5)
    return LayerSubgraph(layer, lower, upper)


def random_cube_subgraph(rng):
    """An induced or explicit subgraph of Q_3..Q_7 with varied density."""
    n = rng.randint(3, 7)
    density = rng.choice([0.3, 0.5, 0.7, 0.9])
    verts = [v for v in range(1 << n) if rng.random() < density]
    if rng.random() < 0.5:
        return CubeSubgraph.induced(n, verts)
    keep = rng.choice([0.5, 0.8, 1.0])
    edges = [e for e in induced_cube_edges(n, verts) if rng.random() < keep]
    return CubeSubgraph.explicit(n, verts, edges)


def ring(base, flips):
    """The walk from base that flips the given coordinates in turn."""
    out = [base]
    for j in flips[:-1]:
        out.append(out[-1] ^ (1 << j))
    assert out[-1] ^ (1 << flips[-1]) == base
    return out


def planted_graph(walks, closed, n=10):
    """Low filler (a straight path and isolated vertices) plus the given walks.

    The filler holds no cycle and no 5-edge path with endpoints at Hamming
    distance 1, so every witness lies among the planted, higher vertices.
    The walks are closed into cycles, or left open as C6- paths.
    """
    filler = [0, 1, 3, 7, 15, 31, 63]
    verts = set(filler) | set(range(64, 64 + 13))
    edges = list(zip(filler, filler[1:]))
    for walk in walks:
        verts |= set(walk)
        edges += list(zip(walk, walk[1:]))
        if closed:
            edges.append((walk[-1], walk[0]))
    return CubeSubgraph.explicit(n, verts, edges)


class TestCubeSubgraph:
    def test_induced_edges_match_oracle(self):
        rng = random.Random(10)
        for _ in range(50):
            verts = [v for v in range(16) if rng.random() < 0.5]
            g = CubeSubgraph.induced(4, verts)
            assert sorted(g.edge_list()) == sorted(induced_cube_edges(4, verts))

    def test_explicit_validation(self):
        with pytest.raises(ValueError):
            CubeSubgraph.explicit(3, [0, 3], [(0, 3)])  # not a Q_n edge
        with pytest.raises(ValueError):
            CubeSubgraph.explicit(3, [0], [(0, 1)])  # endpoint missing
        with pytest.raises(ValueError):
            CubeSubgraph.induced(2, [7])  # vertex outside Q_2

    def test_explicit_normalizes_orientation(self):
        g = CubeSubgraph.explicit(3, [0, 1], [(1, 0)])
        assert g.edges == ((0, 1),)

    def test_subgraph_of_layer(self):
        g = build_layer_graph(sample_assignment(6, 3, 2))
        sub = subgraph_of_layer(g)
        assert set(sub.vertices) == set(g.lower) | set(g.upper)
        # induced edges inside a layer are exactly the inclusion pairs
        from qturan.construction import edge_pairs

        assert sorted(sub.edge_list()) == sorted(edge_pairs(g))

    def test_subgraph_of_union(self):
        from qturan.construction import edge_pairs

        u = union_odd_layers(
            5, {r: sample_assignment(5, r, derive_seed(3, r)) for r in (1, 3, 5)}
        )
        sub = subgraph_of_union(u)
        total = sum(len(list(edge_pairs(g))) for g in u.layers.values())
        assert len(sub.edge_list()) == total


class TestWitnessTypes:
    def test_cycle_witness_validation(self):
        CycleWitness((0, 1, 3, 2))
        with pytest.raises(ValueError):
            CycleWitness((0, 1, 3))  # too short
        with pytest.raises(ValueError):
            CycleWitness((0, 1, 3, 7))  # does not close
        with pytest.raises(ValueError):
            CycleWitness((0, 1, 0, 2))  # repeated vertex

    def test_path_witness_validation(self):
        PathWitness((0b001, 0b011, 0b010, 0b110, 0b100, 0b101))
        with pytest.raises(ValueError):
            PathWitness((0, 1, 3, 7, 15, 31))  # endpoints too far apart
        with pytest.raises(ValueError):
            PathWitness((0, 1, 3, 7, 15))  # wrong length
        with pytest.raises(ValueError):
            PathWitness((0, 1, 3, 7, 6, 14))  # endpoints at distance 3

    def test_witness_lines(self):
        assert witness_line(CycleWitness((0, 1, 3, 2))) == "C4 0 1 3 2"
        path = PathWitness((0b001, 0b011, 0b010, 0b110, 0b100, 0b101))
        assert witness_line(path) == "C6- 1 3 2 6 4 5"


class TestFindCycleGeneric:
    def test_square_in_q2(self):
        g = CubeSubgraph.induced(2, range(4))
        w = find_cycle_generic(g, 4)
        assert w is not None and w.length == 4

    def test_full_layer_contains_c6(self):
        sub = subgraph_of_layer(full_layer(4, 2))
        w = find_cycle_generic(sub, 6)
        assert w is not None and w.length == 6

    def test_constructed_graph_is_c6_free(self):
        for seed in range(10):
            g = build_layer_graph(sample_assignment(8, 3, seed))
            assert find_cycle_generic(subgraph_of_layer(g), 6) is None

    def test_single_layers_have_no_c4(self):
        for n in range(2, 7):
            for r in range(1, n + 1):
                sub = subgraph_of_layer(full_layer(n, r))
                assert find_cycle_generic(sub, 4) is None

    def test_planted_c10_in_q5(self):
        cycle = [0]
        for j in list(range(5)) + list(range(4)):
            cycle.append(cycle[-1] ^ (1 << j))
        assert len(cycle) == 10
        rng = random.Random(6)
        extras = rng.sample(sorted(set(range(32)) - set(cycle)), 20)
        g = CubeSubgraph.induced(5, cycle + extras)
        w = find_cycle_generic(g, 10)
        assert w is not None and w.length == 10

    def test_length_validation(self):
        g = CubeSubgraph.induced(2, range(4))
        with pytest.raises(ValueError):
            find_cycle_generic(g, 5)
        with pytest.raises(ValueError):
            find_cycle_generic(g, 2)

    def test_agreement_with_naive_enumerator(self):
        rng = random.Random(2718)
        for _ in range(120):
            verts = [v for v in range(16) if rng.random() < 0.5]
            g = CubeSubgraph.induced(4, verts)
            edges = induced_cube_edges(4, verts)
            for length in (4, 6):
                expected = has_cycle_naive(verts, edges, length)
                assert (find_cycle_generic(g, length) is not None) == expected

    def test_witness_flips_each_direction_evenly(self):
        instances = [
            (subgraph_of_layer(full_layer(4, 2)), 6),
            (CubeSubgraph.induced(3, range(8)), 4),
            (CubeSubgraph.induced(3, range(8)), 6),
        ]
        for g, length in instances:
            w = find_cycle_generic(g, length)
            assert w is not None
            steps = [
                w.vertices[i] ^ w.vertices[(i + 1) % length] for i in range(length)
            ]
            for b in range(g.n):
                assert sum((s >> b) & 1 for s in steps) % 2 == 0

    def test_worker_split_is_invisible(self):
        g1 = subgraph_of_layer(full_layer(4, 2))
        g2 = subgraph_of_layer(build_layer_graph(sample_assignment(7, 3, 1)))
        assert find_cycle_generic(g1, 6, workers=2) == find_cycle_generic(g1, 6)
        assert find_cycle_generic(g2, 6, workers=3) == find_cycle_generic(g2, 6)


class TestClosingSets:
    """The closing-set searches return exactly the plain DFS's first witness."""

    def test_random_subgraphs_match_the_dfs(self):
        rng = random.Random(8000)
        outcomes = set()
        for _ in range(400):
            g = random_cube_subgraph(rng)
            count = len(g.vertices)
            lo = rng.randint(0, count)
            hi = rng.randint(lo, count + 2)
            for length in (4, 6, 8, 10):
                w = find_cycle_generic(g, length)
                expected = first_cycle_dfs(g, 0, count, length)
                assert (None if w is None else w.vertices) == expected
                assert _first_cycle_in_range(g, lo, hi, length) == first_cycle_dfs(
                    g, lo, hi, length
                )
                outcomes.add((length, expected is None))
            w = find_c6_minus(g)
            expected = first_c6_minus_dfs(g, 0, count)
            assert (None if w is None else w.vertices) == expected
            assert _first_c6_minus_in_range(g, lo, hi) == first_c6_minus_dfs(g, lo, hi)
            outcomes.add(("c6minus", expected is None))
        # both free and non-free graphs were checked for every search
        assert len(outcomes) == 10

    @pytest.mark.parametrize("n", [12, 14])
    def test_seeded_odd_layers_match_the_dfs(self, n):
        for r in range(1, n + 1, 2):
            a = sample_assignment(n, r, derive_seed(n, r))
            sub = subgraph_of_layer(build_layer_graph(a))
            count = len(sub.vertices)
            for length in (6, 10):
                w = find_cycle_generic(sub, length)
                expected = first_cycle_dfs(sub, 0, count, length)
                assert (None if w is None else w.vertices) == expected
            w = find_c6_minus(sub)
            assert (None if w is None else w.vertices) == first_c6_minus_dfs(sub, 0, count)


class TestNeighborMap:
    def test_tuples_are_the_sorted_neighbors(self):
        rng = random.Random(77)
        for _ in range(100):
            g = random_cube_subgraph(rng)
            expected = {v: [] for v in g.vertices}
            for x, y in g.edge_list():
                expected[x].append(y)
                expected[y].append(x)
            assert _neighbor_map(g) == {v: tuple(sorted(ys)) for v, ys in expected.items()}

    @pytest.mark.parametrize("kind", ["class", "layer"])
    def test_memory_is_linear_in_the_vertices(self, kind):
        """Over the n=14 union: class 0 of the coordinate-mod-3 coloring
        (explicit edges), or the induced layer r=7.  A bitset over all
        vertex indices per vertex peaks at about 450 and 290 bytes per
        vertex on these graphs, and grows with the vertex count."""
        n = 14
        union = density_report_suite(n, 0).union
        if kind == "layer":
            sub = subgraph_of_layer(union.layers[7])
        else:
            vertices = set()
            edges = []
            for g in union.layers.values():
                vertices |= set(g.lower) | set(g.upper)
                edges += [e for e in edge_pairs(g) if ((e[0] ^ e[1]).bit_length() - 1) % 3 == 0]
            sub = CubeSubgraph.explicit(n, vertices, edges)
        tracemalloc.start()
        try:
            nbrs = _neighbor_map(sub)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 200 * len(sub.vertices)
        assert sum(map(len, nbrs.values())) == 2 * len(sub.edge_list())


class TestWorkerSplit:
    @pytest.mark.parametrize("target", ["c6", "c6minus", "c10"])
    def test_first_witness_starts_in_a_later_range(self, target):
        flips = (0, 1, 2, 3, 4) * 2 if target == "c10" else (4, 5, 6) * 2
        first, second = ring(1 << 9, flips), ring(3 << 8, flips)
        g = planted_graph([first, second], closed=target != "c6minus")
        count = len(g.vertices)
        index = {v: i for i, v in enumerate(g.vertices)}
        # the first witness starts past the first range for 2 and 3 workers,
        # and a later one starts in the third range
        assert index[first[0]] >= -(-count // 2)
        assert -(-count // 3) <= index[first[0]] < 2 * -(-count // 3) <= index[second[0]]
        if target == "c6minus":
            assert find_cycle_generic(g, 6) is None
            expected = first_c6_minus_dfs(g, 0, count)
            witnesses = [find_c6_minus(g, workers=w) for w in (1, 2, 3)]
        else:
            length = int(target[1:])
            expected = first_cycle_dfs(g, 0, count, length)
            witnesses = [find_cycle_generic(g, length, workers=w) for w in (1, 2, 3)]
        assert expected[0] == first[0]
        assert [w.vertices for w in witnesses] == [expected] * 3


class TestFindC6Minus:
    def test_cycle_minus_edge(self):
        ring = [0b001, 0b011, 0b010, 0b110, 0b100, 0b101]
        edges = [(ring[i], ring[i + 1]) for i in range(5)]  # drop the closing edge
        g = CubeSubgraph.explicit(3, ring, edges)
        w = find_c6_minus(g)
        assert w is not None
        assert (w.vertices[0] ^ w.vertices[-1]).bit_count() == 1

    def test_straight_path_is_not_one(self):
        path = [0]
        for j in range(5):
            path.append(path[-1] ^ (1 << j))
        edges = [(path[i], path[i + 1]) for i in range(5)]
        g = CubeSubgraph.explicit(5, path, edges)
        assert find_c6_minus(g) is None

    def test_matches_naive_path_oracle(self):
        rng = random.Random(62)
        for _ in range(30):
            verts = rng.sample(range(16), 9)
            g = CubeSubgraph.induced(4, verts)
            edges = induced_cube_edges(4, verts)
            expected = has_c6_minus_naive(verts, edges)
            assert (find_c6_minus(g) is not None) == expected

    def test_equivalent_to_c6_inside_one_layer(self):
        rng = random.Random(1234)
        for _ in range(100):
            g = random_layer_subgraph(7, 3, rng)
            sub = subgraph_of_layer(g)
            has_c6 = find_cycle_generic(sub, 6) is not None
            has_minus = find_c6_minus(sub) is not None
            assert has_c6 == has_minus

    def test_worker_split_is_invisible(self):
        sub = subgraph_of_layer(full_layer(4, 2))
        assert find_c6_minus(sub, workers=2) == find_c6_minus(sub)


class TestFindC6Structured:
    def test_full_layer_golden_pattern(self):
        pattern = find_c6_structured(full_layer(4, 2))
        assert pattern == SubcubePattern(core=0, axes=(0, 1, 2))

    def test_pattern_vertices(self):
        p = SubcubePattern(core=0b1000, axes=(0, 1, 2))
        assert p.lower_vertices() == (0b1001, 0b1010, 0b1100)
        assert p.upper_vertices() == (0b1011, 0b1101, 0b1110)

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            SubcubePattern(core=0b1, axes=(0, 1, 2))  # axis overlaps core
        with pytest.raises(ValueError):
            SubcubePattern(core=0, axes=(2, 1, 0))  # not increasing

    def test_constructed_graphs_are_pattern_free(self):
        for seed in range(10):
            g = build_layer_graph(sample_assignment(9, 4, seed))
            assert find_c6_structured(g) is None

    def test_trivial_layers(self):
        assert find_c6_structured(full_layer(5, 1)) is None
        assert find_c6_structured(full_layer(3, 3)) is None

    def test_agreement_with_generic_detector(self):
        rng = random.Random(55)
        for _ in range(100):
            g = random_layer_subgraph(7, 3, rng)
            structured = find_c6_structured(g)
            generic = find_cycle_generic(subgraph_of_layer(g), 6)
            assert (structured is None) == (generic is None)
            if structured is not None:
                assert set(structured.lower_vertices()) <= set(g.lower)
                assert set(structured.upper_vertices()) <= set(g.upper)

    def test_same_pattern_as_the_probing_scan(self):
        rng = random.Random(57)
        graphs = [full_layer(n, r) for n in range(1, 8) for r in range(1, n + 1)]
        for n in range(3, 10):
            for r in range(1, n + 1):
                graphs += [random_layer_subgraph(n, r, rng) for _ in range(12)]
                graphs.append(build_layer_graph(sample_assignment(n, r, derive_seed(n, r))))
        found = 0
        for g in graphs:
            pattern = find_c6_structured(g)
            assert pattern == find_c6_structured_by_probe(g), g.layer
            found += pattern is not None
        assert 0 < found < len(graphs)


class TestExplainImpossibility:
    def test_equal_axis_vectors(self):
        a = VectorAssignment(
            3, 2, GF2Vec.unit(0, 2), (GF2Vec(0b11, 2), GF2Vec(0b11, 2), GF2Vec(0b10, 2))
        )
        report = explain_c6_impossibility(a, SubcubePattern(0, (0, 1, 2)))
        assert "upper:0,1" in report.failed_conditions
        assert report.pigeonhole is None

    def test_anchor_collision(self):
        a = VectorAssignment(
            3, 2, GF2Vec.unit(0, 2), (GF2Vec.unit(0, 2), GF2Vec(0b10, 2), GF2Vec(0b11, 2))
        )
        report = explain_c6_impossibility(a, SubcubePattern(0, (0, 1, 2)))
        assert "lower:0" in report.failed_conditions
        # the three upper pair conditions hold: 1, 2, 3 are pairwise distinct nonzero
        assert not any(c.startswith("upper") for c in report.failed_conditions)

    def test_dependent_core(self):
        a = VectorAssignment(
            5,
            4,
            GF2Vec.unit(0, 4),
            (
                GF2Vec(0b0110, 4),
                GF2Vec(0b0110, 4),
                GF2Vec(0b0001, 4),
                GF2Vec(0b0010, 4),
                GF2Vec(0b0100, 4),
            ),
        )
        report = explain_c6_impossibility(a, SubcubePattern(0b00011, (2, 3, 4)))
        assert report.failed_conditions == ("core",)
        assert report.images is None

    def test_never_all_pass(self):
        rng = random.Random(4096)
        n, r = 8, 4
        for trial in range(10000):
            a = sample_assignment(n, r, derive_seed(13, trial))
            elems = rng.sample(range(n), r - 2 + 3)
            core = 0
            for i in elems[: r - 2]:
                core |= 1 << i
            axes = tuple(sorted(elems[r - 2 :]))
            report = explain_c6_impossibility(a, SubcubePattern(core, axes))
            assert not report.all_conditions_pass()
            assert report.pigeonhole is None

    def test_report_type(self):
        a = sample_assignment(4, 2, 3)
        report = explain_c6_impossibility(a, SubcubePattern(0, (0, 1, 2)))
        assert isinstance(report, C6Obstruction)
        assert report.images is not None or report.failed_conditions == ("core",)

    def test_core_size_mismatch(self):
        a = sample_assignment(5, 4, 0)
        with pytest.raises(ValueError):
            explain_c6_impossibility(a, SubcubePattern(0, (0, 1, 2)))

    def test_pattern_outside_ground_set(self):
        a = sample_assignment(3, 2, 0)
        with pytest.raises(ValueError):
            explain_c6_impossibility(a, SubcubePattern(0, (0, 1, 5)))
