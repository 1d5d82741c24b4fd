from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qturan.cube import (
    CapacityError,
    LayerId,
    bit_indices,
    cube_edge_count,
    cube_edges,
    layer_edge_count,
    parse_edge_list,
    subsets_of_size,
)

from helpers import format_edge_list, induced_subgraph
from text_strategies import edited_text


class TestAdjacency:
    def test_q3_has_twelve_up_pairs(self):
        """The up pairs of Q_3, the pairs x < y at Hamming distance 1, are
        the edges cube_edges lists."""
        pairs = [(x, y) for x in range(8) for y in range(8) if x < y and (x ^ y).bit_count() == 1]
        assert len(pairs) == 12
        assert sorted(cube_edges(3)) == pairs


class TestSubsetEnumeration:
    def test_bit_indices(self):
        assert bit_indices(0) == []
        assert bit_indices(0b10110) == [1, 2, 4]

    def test_small_layer(self):
        assert list(subsets_of_size(3, 2)) == [0b011, 0b101, 0b110]
        assert list(subsets_of_size(3, 1)) == [0b001, 0b010, 0b100]

    def test_counts(self):
        assert sum(1 for _ in subsets_of_size(10, 4)) == 210
        for n in range(1, 9):
            for k in range(n + 1):
                assert sum(1 for _ in subsets_of_size(n, k)) == comb(n, k)

    def test_strictly_increasing(self):
        for n, k in ((6, 3), (8, 1), (7, 7), (5, 0)):
            masks = list(subsets_of_size(n, k))
            assert masks == sorted(set(masks))
            assert all(m.bit_count() == k for m in masks)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            list(subsets_of_size(25, 3))

    def test_capacity_override(self, monkeypatch):
        monkeypatch.setenv("QT_CAPACITY", "26")
        assert sum(1 for _ in subsets_of_size(25, 1)) == 25
        monkeypatch.setenv("QT_CAPACITY", "10")
        with pytest.raises(CapacityError):
            list(subsets_of_size(12, 2))


class TestLayerId:
    def test_validation(self):
        with pytest.raises(ValueError):
            LayerId(3, 0)
        with pytest.raises(ValueError):
            LayerId(3, 4)
        with pytest.raises(ValueError):
            LayerId(0, 1)


class TestEdgeCounts:
    def test_layer_edge_count_examples(self):
        assert layer_edge_count(LayerId(3, 2)) == 6
        assert layer_edge_count(LayerId(1, 1)) == 1

    def test_layer_edge_count_matches_enumeration(self):
        for n in range(1, 7):
            for r in range(1, n + 1):
                uppers = list(subsets_of_size(n, r))
                count = sum(y.bit_count() for y in uppers)  # lower neighbors per upper vertex
                assert layer_edge_count(LayerId(n, r)) == count

    def test_cube_edge_count(self):
        assert cube_edge_count(3) == 12
        assert cube_edge_count(1) == 1

    def test_layers_partition_all_edges(self):
        for n in range(1, 13):
            assert sum(layer_edge_count(LayerId(n, r)) for r in range(1, n + 1)) == cube_edge_count(n)

    def test_every_edge_in_exactly_one_layer(self):
        # explicit partition check at small n
        for n in range(1, 7):
            by_layer = {}
            for x, y in cube_edges(n):
                r = y.bit_count()
                by_layer.setdefault(r, set()).add((x, y))
            assert sum(len(s) for s in by_layer.values()) == cube_edge_count(n)
            for r, edges in by_layer.items():
                assert len(edges) == layer_edge_count(LayerId(n, r))

    def test_odd_layers_carry_half_the_edges(self):
        for n in range(2, 15):
            odd_sum = sum(layer_edge_count(LayerId(n, r)) for r in range(1, n + 1, 2))
            assert odd_sum * 2 == cube_edge_count(n)

    def test_bipartite_part_sizes(self):
        """Q_n induced on the (r-1)- and r-subsets is the full layer r: its
        two sides hold C(n, r-1) and C(n, r) vertices, every edge goes up
        from the lower side, and there are layer_edge_count edges."""
        for n in range(1, 9):
            for r in range(1, n + 1):
                g = induced_subgraph(n, [*subsets_of_size(n, r - 1), *subsets_of_size(n, r)])
                assert Counter(v.bit_count() for v in g.vertices) == {r - 1: comb(n, r - 1), r: comb(n, r)}
                assert not any(m for v, m in zip(g.vertices, g.edge_masks) if v.bit_count() == r)
                assert sum(map(int.bit_count, g.edge_masks)) == layer_edge_count(LayerId(n, r))


class TestEdgeListFormat:
    def test_round_trip(self):
        edges = [(0b001, 0b011), (0b010, 0b011), (0b001, 0b101)]
        text = format_edge_list(3, edges)
        n, parsed = parse_edge_list(text)
        assert n == 3
        assert parsed == sorted(edges)
        assert format_edge_list(n, parsed) == text

    def test_header_and_hex(self):
        text = format_edge_list(5, [(0b1000, 0b11000)])
        assert text.splitlines()[0] == "# qn n=5"
        assert text.splitlines()[1] == "8 18"

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_edge_list("1 3\n")
        with pytest.raises(ValueError):
            parse_edge_list("# qn n=3\n1\n")
        with pytest.raises(ValueError):
            parse_edge_list("# qn n=3\n1 2\n")  # not an inclusion
        with pytest.raises(ValueError):
            parse_edge_list("# qn n=2\n1 5\n")  # outside the ground set
        with pytest.raises(ValueError):
            parse_edge_list("# qn n=3\nzz 3\n")


@st.composite
def edge_list_texts(draw):
    n = draw(st.integers(1, 5))
    edges = []
    for x, j in draw(st.lists(st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, n - 1)), max_size=8)):
        edges.append((x & ~(1 << j), x | 1 << j))
    plausible = ["# qn n=3", "# comment", "1 3", "3 1", "0 1 2", "1 11", "-1 1", "01 3", "zz 3", ""]
    return draw(edited_text(format_edge_list(n, edges).splitlines(), plausible))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(edge_list_texts())
def test_edge_list_parse_is_total_and_round_trips(text):
    """Any text parses to edges that round-trip, or raises ValueError (exit 2)."""
    try:
        n, edges = parse_edge_list(text)
    except ValueError:
        return
    canonical = format_edge_list(n, edges)
    assert parse_edge_list(canonical) == (n, sorted(edges))
    assert format_edge_list(*parse_edge_list(canonical)) == canonical
