import concurrent.futures
import os
import random
import time
import tracemalloc
from collections import Counter
from functools import lru_cache
from itertools import combinations, product

import pytest

from qturan import cube
from qturan.bounds import COLORING_RULES, density_report_suite
from qturan.construction import (
    VectorAssignment,
    build_layer_graph,
    derive_seed,
    sample_assignment,
    union_odd_layers,
)
from qturan.cube import LayerId, LayerSubgraph, edge_pairs, subsets_of_size, upward_edges
from qturan.detector import (
    CubeSubgraph,
    CycleWitness,
    PathWitness,
    SubcubePattern,
    find_c6_minus,
    find_c6_structured,
    find_cycle_generic,
    subgraph_of_layer,
    witness_line,
)
from qturan.detector import (
    _cycle_at,
    _first_c6_minus_in_range,
    _first_cycle_in_range,
    _first_over_starts,
    _neighbor_map,
)
from qturan.gf2 import GF2Vec, rank_bits

from helpers import induced_subgraph
from oracles import (
    C6Obstruction,
    class_graphs,
    color_classes,
    coloring_bytes,
    explain_c6_impossibility,
    find_c6_structured_by_probe,
    first_c6_minus_by_probe,
    first_c6_minus_closing_sets,
    first_c6_minus_dfs,
    first_cycle_closing_sets,
    first_cycle_dfs,
    has_c6_minus_naive,
    has_cycle_naive,
    induced_cube_edges,
    neighbor_map_by_probe,
    rank_certificate,
    subgraph_of_union,
    upward_masks_by_probe,
)


def full_layer(n, r):
    return LayerSubgraph.induced(LayerId(n, r), subsets_of_size(n, r - 1), subsets_of_size(n, r))


def random_layer_subgraph(n, r, rng):
    layer = LayerId(n, r)
    lower = frozenset(v for v in subsets_of_size(n, r - 1) if rng.random() < 0.5)
    upper = frozenset(v for v in subsets_of_size(n, r) if rng.random() < 0.5)
    return LayerSubgraph.induced(layer, lower, upper)


def random_cube_graph_and_edges(rng):
    """An induced or explicit subgraph of Q_3..Q_7 with varied density, with
    the edge list it was built from, or None for an induced one."""
    n = rng.randint(3, 7)
    density = rng.choice([0.3, 0.5, 0.7, 0.9])
    verts = [v for v in range(1 << n) if rng.random() < density]
    if rng.random() < 0.5:
        return induced_subgraph(n, verts), None
    keep = rng.choice([0.5, 0.8, 1.0])
    edges = [e for e in induced_cube_edges(n, verts) if rng.random() < keep]
    return CubeSubgraph.explicit(n, verts, edges), edges


def random_cube_subgraph(rng):
    return random_cube_graph_and_edges(rng)[0]


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
            g = induced_subgraph(4, verts)
            assert sorted(upward_edges(g.vertices, g.edge_masks)) == sorted(induced_cube_edges(4, verts))

    def test_explicit_validation(self):
        with pytest.raises(ValueError):
            CubeSubgraph.explicit(3, [0, 3], [(0, 3)])  # not a Q_n edge
        with pytest.raises(ValueError):
            CubeSubgraph.explicit(3, [0], [(0, 1)])  # endpoint missing
        with pytest.raises(ValueError):
            induced_subgraph(2, [7])  # vertex outside Q_2

    def test_explicit_normalizes_orientation(self):
        g = CubeSubgraph.explicit(3, [0, 1], [(1, 0)])
        assert g.edge_masks == (1, 0)
        assert list(upward_edges(g.vertices, g.edge_masks)) == [(0, 1)]

    def test_subgraph_of_layer(self):
        g = build_layer_graph(sample_assignment(6, 3, 2))
        sub = subgraph_of_layer(g)
        assert set(sub.vertices) == set(g.lower) | set(g.upper)
        # induced edges inside a layer are exactly the inclusion pairs
        assert sorted(upward_edges(sub.vertices, sub.edge_masks)) == sorted(edge_pairs(g))

    def test_subgraph_of_union(self):
        u = union_odd_layers(
            5, {r: sample_assignment(5, r, derive_seed(3, r)) for r in (1, 3, 5)}
        )
        sub = subgraph_of_union(u)
        total = sum(len(list(edge_pairs(g))) for g in u.layers.values())
        assert len(list(upward_edges(sub.vertices, sub.edge_masks))) == total
        vertices = [v for g in u.layers.values() for v in g.lower + g.upper]
        edges = [e for g in u.layers.values() for e in edge_pairs(g)]
        assert sub == CubeSubgraph.explicit(5, vertices, edges)


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
        g = induced_subgraph(2, range(4))
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
        g = induced_subgraph(5, cycle + extras)
        w = find_cycle_generic(g, 10)
        assert w is not None and w.length == 10

    def test_length_validation(self):
        g = induced_subgraph(2, range(4))
        with pytest.raises(ValueError):
            find_cycle_generic(g, 5)
        with pytest.raises(ValueError):
            find_cycle_generic(g, 2)

    def test_agreement_with_naive_enumerator(self):
        rng = random.Random(2718)
        for _ in range(120):
            verts = [v for v in range(16) if rng.random() < 0.5]
            g = induced_subgraph(4, verts)
            edges = induced_cube_edges(4, verts)
            for length in (4, 6):
                expected = has_cycle_naive(verts, edges, length)
                assert (find_cycle_generic(g, length) is not None) == expected

    def test_witness_flips_each_direction_evenly(self):
        instances = [
            (subgraph_of_layer(full_layer(4, 2)), 6),
            (induced_subgraph(3, range(8)), 4),
            (induced_subgraph(3, range(8)), 6),
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
            # a C6- range scan is exact only when no earlier start has a path
            if first_c6_minus_dfs(g, 0, lo) is None:
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


# the coordinate rule and the rank rule as the colors of E(Q_n) in file
# order: edge (x, x | 1 << j) gets j mod 3, or the number of elements of x
# below j, mod 3
COLOR_RULES = {
    "coordinate": lambda n: bytes(j % 3 for x in range(1 << n) for j in range(n) if not x >> j & 1),
    "rank": lambda n: rank_certificate(n).colors,
}


@lru_cache(maxsize=None)
def rule_colors(n, name):
    """The colors of E(Q_n) under a named rule, in file order."""
    return COLOR_RULES[name](n)


def rule_classes(union, name):
    """The union's color classes under a named rule, each on all of the
    union's vertices."""
    return class_graphs(union, rule_colors(union.n, name))


class TestMeetInTheMiddle:
    """The scan that meets in the middle returns the witness of the
    closing-set DFS over every start, which it replaced."""

    LENGTHS = (4, 6, 8, 10)

    def first_cycles(self, graphs, ranges=None):
        """Checks every graph at every length; returns the set of (length,
        found) outcomes seen."""
        outcomes = set()
        for at, g in enumerate(graphs):
            lo, hi = (0, len(g.vertices)) if ranges is None else ranges[at]
            for length in self.LENGTHS:
                expected = first_cycle_closing_sets(g, lo, hi, length)
                assert _first_cycle_in_range(g, lo, hi, length) == expected, (length, lo, hi)
                outcomes.add((length, expected is not None))
        return outcomes

    def test_every_edge_subset_of_q3(self):
        edges = list(cube.cube_edges(3))
        graphs = [
            CubeSubgraph.explicit(3, range(8), [e for i, e in enumerate(edges) if bits >> i & 1])
            for bits in range(1 << len(edges))
        ]
        # Q_3 holds C4, C6 and C8, and no C10
        assert self.first_cycles(graphs) == {
            (4, False), (4, True), (6, False), (6, True), (8, False), (8, True), (10, False)
        }

    def test_each_start_of_every_edge_subset_of_q3(self):
        """_cycle_at returns, for each start s with two closers on its own,
        the closing-set DFS's first cycle from s: the same witness, or None
        exactly when no cycle of the length has least vertex s.

        At length 6 some start has two 3-step paths to one end and still no
        6-cycle: a 4-cycle s, c, w, c' with one more edge (w, t), t > s.
        Such a start passes the step that lists the ends and goes on to the
        grouping, so both ways out of that step are compared."""
        edges = list(cube.cube_edges(3))
        outcomes = set()
        for bits in range(1 << len(edges)):
            g = CubeSubgraph.explicit(3, range(8), [e for i, e in enumerate(edges) if bits >> i & 1])
            nbrs = _neighbor_map(g)
            for i, (s, up) in enumerate(zip(g.vertices, g.edge_masks)):
                if up & (up - 1):
                    closers = nbrs[s][-up.bit_count() :]
                    found = {length: _cycle_at(nbrs, s, closers, length // 2) for length in (4, 6, 8)}
                    for length, cycle in found.items():
                        assert cycle == first_cycle_closing_sets(g, i, i + 1, length), (bits, length, s)
                        outcomes.add((length, cycle is not None))
                    # the ends of the 3-step paths above s, one per path
                    ends = Counter(
                        t
                        for c in closers
                        for w in nbrs[c]
                        if w > s
                        for t in nbrs[w]
                        if t > s and t not in (c, w)
                    )
                    if max(ends.values(), default=0) > 1:
                        outcomes.add(("repeated end", found[6] is not None))
        assert outcomes == {
            (length, hit) for length in (4, 6, 8, "repeated end") for hit in (False, True)
        }

    @pytest.mark.parametrize("n", range(4, 15))
    def test_odd_layers(self, n):
        """The pipeline's odd layers at seed 0, and the full odd layers."""
        graphs = [subgraph_of_layer(g) for g in density_report_suite(n, 0).union.layers.values()]
        graphs += [subgraph_of_layer(full_layer(n, r)) for r in range(1, n + 1, 2)]
        assert (6, False) in self.first_cycles(graphs)

    @pytest.mark.parametrize("n", range(10, 17))
    def test_color_classes(self, n):
        """The three classes of each rule over the union, seeds 0-2.  The
        rank rule leaves no C10 in any class, so the C10 scan runs over
        every start, and from n = 13 the coordinate rule leaves one."""
        outcomes = set()
        for seed in range(3):
            union = density_report_suite(n, seed).union
            for name in COLOR_RULES:
                outcomes |= self.first_cycles(rule_classes(union, name))
        assert {(8, True), (10, False), (10, n >= 13)} <= outcomes

    def test_random_induced_subgraphs(self):
        rng = random.Random(1616)
        graphs, ranges = [], []
        for _ in range(300):
            n = rng.randint(5, 8)
            density = rng.choice([0.2, 0.35, 0.5, 0.7])
            g = induced_subgraph(n, [v for v in range(1 << n) if rng.random() < density])
            count = len(g.vertices)
            lo = rng.choice([0, rng.randint(0, count)])
            graphs.append(g)
            ranges.append((lo, rng.choice([count, rng.randint(lo, count)])))
        outcomes = self.first_cycles(graphs, ranges)
        assert outcomes == {(length, found) for length in self.LENGTHS for found in (False, True)}

    def test_start_bound(self):
        """find_cycle_generic(..., below=b) returns the first cycle whose
        least vertex is below the mask b, on random induced subgraphs with
        b a vertex, a mask between vertices, or past every vertex."""
        rng = random.Random(1617)
        seen = set()
        for _ in range(200):
            n = rng.randint(5, 8)
            g = induced_subgraph(n, [v for v in range(1 << n) if rng.random() < 0.5])
            below = rng.choice([rng.choice(g.vertices or (0,)), rng.randrange(1 << n), 1 << n])
            hi = sum(1 for v in g.vertices if v < below)
            for length in self.LENGTHS:
                expected = first_cycle_closing_sets(g, 0, hi, length)
                found = find_cycle_generic(g, length, below=below)
                assert (None if found is None else found.vertices) == expected, (length, below)
                seen.add((length, expected is not None))
        assert seen == {(length, found) for length in self.LENGTHS for found in (False, True)}

    def test_per_start_memory_on_a_c10_free_class(self):
        """The C10 scan holds the half paths of one start at a time beyond
        the neighbor map.  On the largest rank class at n = 14 (5,636
        vertices), which is C10-free, the peak over all starts measured
        below 4 KB; holding every start's paths at once would grow with the
        vertex count."""
        classes = rule_classes(density_report_suite(14, 0).union, "rank")
        sub = max(classes, key=lambda c: sum(m.bit_count() for m in c.edge_masks))
        assert find_cycle_generic(sub, 10) is None
        nbrs = _neighbor_map(sub)
        tracemalloc.start()
        try:
            for s, up in zip(sub.vertices, sub.edge_masks):
                if up & (up - 1):
                    assert _cycle_at(nbrs, s, nbrs[s][-up.bit_count() :], 5) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024


class TestNeighborMap:
    def test_a_range_without_two_closers_builds_no_map(self, monkeypatch):
        """A path has no start with two neighbors above it, so the cycle scan
        returns None before any map; a graph with a cycle builds one."""
        import qturan.detector as det

        def no_map(graph):
            raise AssertionError("a neighbor map was built")

        monkeypatch.setattr(det, "_neighbor_map", no_map)
        path = [0, 1, 3, 7, 15, 31, 63]
        g = CubeSubgraph.explicit(6, path, list(zip(path, path[1:])))
        for length in (4, 6, 10):
            assert _first_cycle_in_range(g, 0, len(path), length) is None
        square = induced_subgraph(2, range(4))
        with pytest.raises(AssertionError, match="neighbor map"):
            _first_cycle_in_range(square, 0, 4, 4)

    def test_tuples_are_the_sorted_neighbors(self):
        rng = random.Random(77)
        for _ in range(100):
            g, edges = random_cube_graph_and_edges(rng)
            if edges is None:
                edges = induced_cube_edges(g.n, g.vertices)
            expected = {v: [] for v in g.vertices}
            for x, y in edges:
                expected[x].append(y)
                expected[y].append(x)
            assert _neighbor_map(g) == {v: tuple(sorted(ys)) for v, ys in expected.items()}

    def test_matches_the_probing_builder_on_random_graphs(self):
        rng = random.Random(78)
        for _ in range(200):
            g, edges = random_cube_graph_and_edges(rng)
            assert _neighbor_map(g) == neighbor_map_by_probe(g.n, g.vertices, edges)

    @pytest.mark.parametrize("n", [12, 14])
    def test_matches_the_probing_builder_on_layers_and_classes(self, n):
        union = density_report_suite(n, 0).union
        for g in union.layers.values():
            sub = subgraph_of_layer(g)
            assert _neighbor_map(sub) == neighbor_map_by_probe(n, sub.vertices, None)
        vertices = sorted(v for g in union.layers.values() for v in g.lower + g.upper)
        edges = [(b, j) for b in range(1 << n) for j in range(n) if not b >> j & 1]
        # the flipped coordinate mod 3, and the lower end's popcount mod 3
        for rule in (lambda b, j: j % 3, lambda b, j: b.bit_count() % 3):
            colors = coloring_bytes(n, {(b, j): rule(b, j) for b, j in edges})
            classes = color_classes(union, colors)
            for sub, class_edges in zip(class_graphs(union, colors), classes):
                assert _neighbor_map(sub) == neighbor_map_by_probe(n, vertices, class_edges)

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
        assert sum(map(len, nbrs.values())) == 2 * len(list(upward_edges(sub.vertices, sub.edge_masks)))


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
            g = induced_subgraph(4, verts)
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


class TestHugeHeader:
    """A header n far above the coordinates of the vertices costs no more
    than a small one: the edges upward and the C6- ends are found by a walk
    over the vertices' set bits, whatever n is."""

    BODIES = {
        "a 4-cycle and a path": [(0, 1), (1, 3), (2, 3), (0, 2), (4, 5), (5, 7)],
        "Q_3": list(cube.cube_edges(3)),
    }

    def answers(self, n, edges):
        start = time.perf_counter()
        text = f"# qn n={n}\n" + "".join(f"{x:x} {y:x}\n" for x, y in edges)
        n, edges = cube.parse_edge_list(text)
        vertices = {v for edge in edges for v in edge}
        g = CubeSubgraph.explicit(n, vertices, edges)
        layer = cube.parse_layer_graph(f"# qn n={n}\n0 1\n# layer r=1\n# lower\n0\n# upper\n1\n")
        found = (
            find_c6_minus(g),
            find_cycle_generic(g, 4),
            find_cycle_generic(g, 6),
            induced_subgraph(n, vertices).edge_masks,
            layer.edge_masks,
        )
        assert time.perf_counter() - start < 0.5, n
        return found

    @pytest.mark.parametrize("body", BODIES)
    def test_same_answer_as_a_small_header(self, body):
        small = self.answers(8, self.BODIES[body])
        assert self.answers(100_000, self.BODIES[body]) == small
        assert (small[2] is None) == (body == "a 4-cycle and a path")  # the 6-cycle


@pytest.fixture
def pools(monkeypatch):
    """Replaces ProcessPoolExecutor by a pool that maps in this process, so
    no worker starts; returns the list of (max_workers, ranges mapped), one
    pair per pool."""
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            tasks = list(zip(*iterables))
            started.append((self.max_workers, len(tasks)))
            return (fn(*task) for task in tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return started


def q3_edge_subsets():
    """Every edge subset of Q_3, on all 8 vertices and on the edge ends."""
    edges = list(cube.cube_edges(3))
    for bits in range(1 << len(edges)):
        chosen = [e for i, e in enumerate(edges) if bits >> i & 1]
        yield CubeSubgraph.explicit(3, range(8), chosen)
        yield CubeSubgraph.explicit(3, {v for e in chosen for v in e}, chosen)


def layer_graphs():
    """Every layer of a seeded assignment for n = 4..12, which holds no C6,
    then every full layer of Q_n for n = 2..7."""
    for n in range(4, 13):
        for r in range(1, n + 1):
            yield subgraph_of_layer(build_layer_graph(sample_assignment(n, r, derive_seed(n, r))))
    for n in range(2, 8):
        for r in range(1, n + 1):
            yield subgraph_of_layer(full_layer(n, r))


class TestC6MinusReduction:
    """A start whose ends are all joined to it is decided by the C6 test;
    the C6- scan still returns the DFS's first path."""

    def test_ranges_folded_in_order_match_the_dfs(self, pools, monkeypatch):
        """The starts split into k = 1..4 ranges, scanned in order and the
        first result taken, as _first_over_starts does."""
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        rng = random.Random(8019)
        graphs = list(q3_edge_subsets())
        graphs += [random_cube_subgraph(rng) for _ in range(300)]
        outcomes = set()
        for g in graphs:
            count = len(g.vertices)
            expected = first_c6_minus_dfs(g, 0, count)
            for k in range(1, 5):
                assert _first_over_starts(_first_c6_minus_in_range, g, count, k) == expected
            outcomes.add(expected is None)
        assert outcomes == {False, True}
        assert {ranges for _, ranges in pools} == {2, 3, 4}

    def test_induced_graphs_have_a_path_exactly_when_they_have_a_c6(self):
        """Seeded layers n <= 12, full layers of Q_n n <= 7 and every induced
        subgraph of Q_3."""
        graphs = list(layer_graphs())
        graphs += [
            induced_subgraph(3, [v for v in range(8) if bits >> v & 1]) for bits in range(256)
        ]
        outcomes = set()
        for g in graphs:
            has_c6 = find_cycle_generic(g, 6) is not None
            assert (find_c6_minus(g) is not None) == has_c6
            outcomes.add(has_c6)
        assert outcomes == {False, True}

    def test_layers_match_the_closing_set_dfs(self):
        outcomes = set()
        for g in layer_graphs():
            count = len(g.vertices)
            expected = first_c6_minus_closing_sets(g, 0, count)
            assert _first_c6_minus_in_range(g, 0, count) == expected
            outcomes.add(expected is None)
        assert outcomes == {False, True}

    def test_probe_skip_matches_the_closing_set_dfs(self):
        """Only a start with an end the graph does not join to it runs the
        DFS.  In an induced layer every end is joined; with edges dropped
        from a layer, the lower side has unjoined ends.  Seeded layers
        n = 4..10 and full layers of Q_n n = 4..7, each whole and with a
        fifth of its edges dropped."""
        rng = random.Random(2111)
        layers = [
            build_layer_graph(sample_assignment(n, r, derive_seed(n, r)))
            for n in range(4, 11)
            for r in range(2, n)
        ]
        layers += [full_layer(n, r) for n in range(4, 8) for r in range(2, n)]
        outcomes = set()
        for layer in layers:
            g = subgraph_of_layer(layer)
            kept = [e for e in upward_edges(g.vertices, g.edge_masks) if rng.random() < 0.8]
            dropped = CubeSubgraph.explicit(g.n, g.vertices, kept)
            for graph in (g, dropped):
                count = len(graph.vertices)
                expected = first_c6_minus_closing_sets(graph, 0, count)
                assert _first_c6_minus_in_range(graph, 0, count) == expected
                outcomes.add((graph is g, expected is None))
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}

    def test_pool_has_at_most_one_process_per_range(self, pools, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        g = induced_subgraph(3, [0, 1, 2, 3, 4, 5])
        expected = find_c6_minus(g)
        assert find_c6_minus(g, workers=64) == expected
        assert find_cycle_generic(g, 4, workers=64) == find_cycle_generic(g, 4)
        assert pools == [(6, 6), (6, 6)]

    @pytest.mark.parametrize("cpus", [2, 8, None], ids=["two CPUs", "eight CPUs", "unknown"])
    def test_pool_has_at_most_one_process_per_cpu(self, pools, monkeypatch, cpus):
        """Four workers cut the starts into min(4, CPUs) ranges, one process
        per range, and still fold in order; with the CPU count unknown no
        pool starts."""
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        rng = random.Random(2205)
        for g in [random_cube_subgraph(rng) for _ in range(100)]:
            count = len(g.vertices)
            expected = first_c6_minus_dfs(g, 0, count)
            assert _first_over_starts(_first_c6_minus_in_range, g, count, 4) == expected
        if cpus is None:
            assert pools == []
        else:
            assert pools and all(size == ranges for size, ranges in pools)
            assert max(ranges for _, ranges in pools) == min(4, cpus)


class TestSetBitWalk:
    """cube.upward_pairs, one walk over the set bits of the vertices above,
    against the coordinate probes it replaced, kept in oracles: the edge
    masks of an induced graph, and the C6- witness of each start range."""

    @staticmethod
    def layers():
        """Seeded layers n = 4..14 and the full layers of Q_5..Q_7."""
        for n in range(4, 15):
            for r in range(1, n + 1):
                yield build_layer_graph(sample_assignment(n, r, derive_seed(n, r)))
        for n in range(5, 8):
            for r in range(1, n + 1):
                yield full_layer(n, r)

    def test_induced_masks_match_the_probes(self):
        """The layers above, random halves of their sides, the spread r=2
        layer (lower 1<<i, upper 1<<i | 1<<(i+1)) and random induced
        subgraphs of Q_3..Q_7."""
        rng = random.Random(3101)
        sides = []
        for g in self.layers():
            sides.append((g.layer, g.lower, g.upper))
            sides.append((g.layer, rng.sample(g.lower, len(g.lower) // 2), rng.sample(g.upper, len(g.upper) // 2)))
        sides.append((LayerId(301, 2), [1 << i for i in range(300)], [3 << i for i in range(300)]))
        for layer, lower, upper in sides:
            g = LayerSubgraph.induced(layer, lower, upper)
            assert g.edge_masks == tuple(upward_masks_by_probe(g.lower, frozenset(upper)))
        for _ in range(200):
            n = rng.randint(3, 7)
            verts = [v for v in range(1 << n) if rng.random() < 0.5]
            g = induced_subgraph(n, verts)
            assert g.edge_masks == tuple(upward_masks_by_probe(g.vertices, set(verts)))

    def test_each_start_of_every_edge_subset_of_q3(self):
        outcomes = set()
        for g in q3_edge_subsets():
            for i in range(len(g.vertices)):
                found = _first_c6_minus_in_range(g, i, i + 1)
                assert found == first_c6_minus_by_probe(g, i, i + 1)
                outcomes.add(found is None)
        assert outcomes == {False, True}

    def test_start_ranges_of_layers_and_their_edge_subsets(self):
        """Each layer whole and with a fifth of its edges dropped, over each
        start of a graph of at most 70 vertices (the full layers of Q_7
        included), and over the whole graph and five random ranges of a
        larger one."""
        rng = random.Random(3107)
        outcomes = set()
        for layer in self.layers():
            g = subgraph_of_layer(layer)
            kept = [e for e in upward_edges(g.vertices, g.edge_masks) if rng.random() < 0.8]
            count = len(g.vertices)
            if count <= 70:
                ranges = [(i, i + 1) for i in range(count)]
            else:
                ranges = [(0, count)] + [sorted(rng.sample(range(count + 1), 2)) for _ in range(5)]
            for graph in (g, CubeSubgraph.explicit(g.n, g.vertices, kept)):
                for lo, hi in ranges:
                    found = _first_c6_minus_in_range(graph, lo, hi)
                    assert found == first_c6_minus_by_probe(graph, lo, hi), (g.n, g.layer.r, lo, hi)
                    outcomes.add((graph is g, found is None))
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}

    def test_each_start_of_graphs_over_three_or_more_popcounts(self):
        """Random edge-list graphs of Q_5..Q_7 on three or more popcounts,
        with a gap among them ({1, 2, 4} and others) or none, with every
        edge of Q_n between their vertices or some dropped, so that ends
        the graph does not join exist: each start's witness is the probes'
        one, though the search walks only the vertices one popcount above
        another's."""
        rng = random.Random(3301)
        outcomes = set()
        for trial in range(90):
            n = 5 + trial % 3
            if trial % 5 == 0:
                popcounts = {1, 2, 4}
            else:
                popcounts = set(rng.sample(range(n + 1), rng.randint(3, 4)))
            density = rng.choice([0.5, 0.8, 1.0])
            verts = [v for v in range(1 << n) if v.bit_count() in popcounts and rng.random() < density]
            keep = rng.choice([0.6, 0.85, 1.0])
            edges = [e for e in induced_cube_edges(n, verts) if rng.random() < keep]
            g = CubeSubgraph.explicit(n, verts, edges)
            gap = any(k - 1 not in popcounts and k - 2 in popcounts for k in popcounts)
            for i in range(len(g.vertices)):
                found = _first_c6_minus_in_range(g, i, i + 1)
                assert found == first_c6_minus_by_probe(g, i, i + 1), (n, sorted(popcounts), i)
                outcomes.add((gap, len(edges) < len(induced_cube_edges(n, verts)), found is None))
        assert outcomes == set(product([False, True], repeat=3))


class TestFindC6Structured:
    def test_full_layer_golden_pattern(self):
        pattern = find_c6_structured(full_layer(4, 2))
        assert pattern == SubcubePattern(core=0, axes=(0, 1, 2))

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
                lower = {structured.core | 1 << i for i in structured.axes}
                assert lower <= set(g.lower)
                assert {x | y for x, y in combinations(lower, 2)} <= set(g.upper)

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
            assert report.failed_conditions
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


def test_c10_of_an_uncolored_layer_has_the_reduced_shape():
    """The first C10 that find_cycle_generic finds in an odd layer of the
    seeded unions, n = 6..12 and seeds 0-3, with no coloring, has the shape
    a finite C10 check of a coloring rule can rest on.

    The reduction:
    - odd layers share no vertex, so every cycle of the union lies in one
      layer;
    - a C10 flips each coordinate an even number of times, 10 flips in all;
      two adjacent levels of Q_4 hold at most 4 and 6 vertices, so a C10 in
      a layer flips exactly 5 coordinates S, each twice;
    - its vertices are K + T with T a subset of S and K fixed, and |T|
      takes the values t and t + 1, t in {1, 2, 3};
    - if the vectors of K are dependent no vertex of the pattern survives;
      otherwise survival depends only on the images of the anchor and of
      the vectors of S in F_2^r / span(K), which is F_2^(t+1);
    - with t = 1, each lower vertex K + {a} needs v'_a outside {0, anchor'},
      two values of F_2^2, and each upper K + {a, b} needs v'_a != v'_b, so
      the five lower vertices would properly 2-color a 5-cycle; with t = 3
      the five upper vertices make v'_S a circuit of F_2^4, and the anchor
      avoids the span of each lower vertex only if the coefficients of
      anchor' = sum of alpha_i v'_i properly 2-color a 5-cycle (README);
    - so a C10 that a layer keeps has t = 2, and the rank color of
      (K + T, j) is (|K & [0, j)| + |T & [0, j)|) mod 3: K enters only as
      one offset in Z_3 per coordinate of S.

    Both outcomes occur: 59 of the 132 layers hold a C10 and 73 are
    C10-free."""
    shapes, found = set(), 0
    layers = [
        g
        for n in range(6, 13)
        for seed in range(4)
        for g in density_report_suite(n, seed).union.layers.values()
    ]
    for g in layers:
        witness = find_cycle_generic(subgraph_of_layer(g), 10)
        if witness is None:
            continue
        found += 1
        v = witness.vertices
        flips = [(a ^ b).bit_length() - 1 for a, b in zip(v, v[1:] + v[:1])]
        s = sum(1 << j for j in set(flips))
        shapes.add((
            tuple(sorted(flips.count(j) for j in set(flips))),
            len({x & ~s for x in v}),
            frozenset((x & s).bit_count() for x in v),
        ))
    assert shapes == {((2, 2, 2, 2, 2), 1, frozenset({2, 3}))}
    assert (found, len(layers) - found) == (59, 73)


# The vertices of levels 2 and 3 of Q_5 as masks over the coordinates
# {0..4} of S: the ten 2-subsets, then the ten 3-subsets.
Q5_LEVELS = [sum(1 << i for i in c) for size in (2, 3) for c in combinations(range(5), size)]


@lru_cache(maxsize=None)
def c10_shapes():
    """Every C10 of levels 2-3 of Q_5, as the sorted tuple of its ten
    edges (T, j): the lower vertex T and the coordinate j that lifts it."""
    cycles = set()

    def extend(path):
        if len(path) == 10:
            if (path[0] ^ path[-1]).bit_count() == 1:
                ends = zip(path, path[1:] + path[:1])
                cycles.add(tuple(sorted((min(e), (e[0] ^ e[1]).bit_length() - 1) for e in ends)))
            return
        for w in Q5_LEVELS:
            if (w ^ path[-1]).bit_count() == 1 and w > path[0] and w not in path:
                extend(path + [w])

    for v in Q5_LEVELS:
        extend([v])
    return sorted(cycles)


@lru_cache(maxsize=None)
def surviving_vertices():
    """The draws of nonzero images v'_0..v'_4 in F_2^3, with the anchor's
    image e_0, counted by the mask of the Q5_LEVELS vertices that survive:
    an upper T needs v'_T to be a basis, a lower T needs e_0 and v'_T to be
    one.  A zero image would kill every vertex that holds its coordinate."""
    basis = {vs: rank_bits(vs) == 3 for vs in product(range(8), repeat=3)}
    coordinates = [(1 << b, tuple(cube.bit_indices(t))) for b, t in enumerate(Q5_LEVELS)]
    counts = Counter()
    for v in product(range(1, 8), repeat=5):
        alive = 0
        for bit, at in coordinates:
            images = tuple(v[i] for i in at)
            if basis[images if len(images) == 3 else (1, *images)]:
                alive |= bit
        counts[alive] += 1
    return counts


def one_color_shapes(coloring_of):
    """The shapes of c10_shapes() whose ten edges get one color under at
    least one of the 3^5 offsets.  Offset o is realized by a concrete K:
    c_i = o_i + 3i elements of K below the i-th coordinate s_i of S and
    none above s_4, so s_i = o_i + 4i.  coloring_of(n) is a bounds Coloring
    of E(Q_n)."""
    shapes = c10_shapes()
    found = set()
    for o in product(range(3), repeat=5):
        s = [o_i + 4 * i for i, o_i in enumerate(o)]
        n = s[-1] + 1
        k = (1 << n) - 1 - sum(1 << p for p in s)
        colors, offset = coloring_of(n)
        edge_color = {}
        for t in Q5_LEVELS[:10]:
            start, y = offset(k | sum(1 << s[i] for i in cube.bit_indices(t)))
            for j in set(range(5)) - set(cube.bit_indices(t)):
                edge_color[t, j] = colors[start + (y & ((1 << s[j]) - 1)).bit_count()]
        found.update(shape for shape in shapes if len({edge_color[e] for e in shape}) == 1)
    return found


def draws_keeping_one(shapes):
    """How many draws keep all ten vertices of at least one of the shapes."""
    masks = [
        sum(1 << Q5_LEVELS.index(w) for w in {u for t, j in shape for u in (t, t | 1 << j)})
        for shape in shapes
    ]
    return sum(count for alive, count in surviving_vertices().items() if any(m & ~alive == 0 for m in masks))


# Two rules that fail, as Colorings: edge (x, x | 1 << j) gets j mod 3 and
# |x| mod 3.
CONTROL_RULES = {
    "j mod 3": lambda n: (bytes(i % 3 for i in range(n + 1)), lambda x: (0, -1)),
    "|x| mod 3": lambda n: (bytes(i % 3 for i in range(n + 1)), lambda x: (x.bit_count(), 0)),
}


class TestRankRuleC10Obstruction:
    """The finite half of the rank rule's proof.  By the reduction of
    test_c10_of_an_uncolored_layer_has_the_reduced_shape, a C10 that a layer
    keeps has t = 2: it is one of the C10s of levels 2-3 of Q_5 on S, K
    enters its colors only as one offset in Z_3 per coordinate of S, and
    its survival only through the images of the anchor and of v_S in
    F_2^r / span(v_K) = F_2^3, where the anchor's image can be taken as
    e_0.  So no rank class of any layer of any draw holds a C10 once no
    shape that is one color under some offset survives any draw."""

    def test_no_one_color_c10_survives_a_draw(self):
        shapes = one_color_shapes(COLORING_RULES["rank"])
        assert (len(c10_shapes()), len(shapes), draws_keeping_one(shapes)) == (132, 4, 0)

    @pytest.mark.parametrize("rule", CONTROL_RULES)
    def test_a_failing_rule_keeps_one(self, rule):
        shapes = one_color_shapes(CONTROL_RULES[rule])
        assert (len(shapes), draws_keeping_one(shapes)) == (132, 720)
