import random
from fractions import Fraction

import pytest

from qturan import bounds as bnd
from qturan.bounds import (
    ColoringCertificate,
    SuiteExhausted,
    c10_pipeline,
    coloring_problems,
    density_report_suite,
    edge_key,
    format_coloring,
    make_report,
    monochromatic_certificate,
    parse_coloring,
    reports_to_csv,
    search_coloring_small_n,
    verify_coloring,
)
from qturan.construction import (
    LayerSubgraph,
    UnionGraph,
    constant_c_enclosure,
    derive_seed,
    sample_assignment,
    union_odd_layers,
)
from qturan.cube import LayerId, cube_edge_count, cube_edges, layer_vertices
from qturan.detector import find_cycle_generic, subgraph_of_union


def constructed_union(n, seed=0):
    return union_odd_layers(
        n, {r: sample_assignment(n, r, derive_seed(seed, r)) for r in range(1, n + 1, 2)}
    )


def full_layer_union(n, r):
    layer = LayerId(n, r)
    g = LayerSubgraph(
        layer,
        frozenset(layer_vertices(layer, "lower")),
        frozenset(layer_vertices(layer, "upper")),
    )
    return UnionGraph(n, {r: g})


class TestEdgeKey:
    def test_canonical(self):
        assert edge_key(0b010, 0b011) == (0b010, 0)
        assert edge_key(0b011, 0b010) == (0b010, 0)

    def test_rejects_non_edges(self):
        with pytest.raises(ValueError):
            edge_key(0b001, 0b110)


class TestColoringValidation:
    def test_single_edge_cube(self):
        cert = ColoringCertificate(1, {(0, 0): 0})
        assert verify_coloring(cert)

    def test_missing_edge_is_named(self):
        colors = {edge_key(x, y): 0 for x, y in cube_edges(2)}
        del colors[(0, 1)]
        cert = ColoringCertificate(2, colors)
        assert not verify_coloring(cert)
        problems = coloring_problems(cert)
        assert any("coord 1" in p and "0x0" in p for p in problems)

    def test_random_full_coloring_is_valid(self):
        rng = random.Random(5)
        cert = ColoringCertificate(
            4, {edge_key(x, y): rng.randrange(3) for x, y in cube_edges(4)}
        )
        assert verify_coloring(cert)

    def test_bad_color(self):
        colors = {edge_key(x, y): 0 for x, y in cube_edges(2)}
        colors[(0, 0)] = 7
        assert not verify_coloring(ColoringCertificate(2, colors))

    def test_junk_key(self):
        colors = {edge_key(x, y): 0 for x, y in cube_edges(2)}
        colors[(3, 0)] = 1  # bit 0 already set in 3
        assert not verify_coloring(ColoringCertificate(2, colors))

    def test_messages_and_their_order(self):
        colors = {(4, 0): 1, (0, 0): 5, (3, 1): 0, (0, 3): 2, (2, 2): 0, "x": 0}
        colors.update({edge_key(x, y): 0 for x, y in cube_edges(3) if x >= 4})
        problems = coloring_problems(ColoringCertificate(3, colors))
        assert problems == [
            "edge (0, 0) has color 5, expected 0..2",
            "key (3, 1) is not an edge of Q_3",
            "key (0, 3) is not an edge of Q_3",
            "key x is not an edge of Q_3",
            "edge (0x0, coord 1) is missing",
            "edge (0x0, coord 2) is missing",
            "edge (0x1, coord 1) is missing",
            "edge (0x1, coord 2) is missing",
            "edge (0x2, coord 0) is missing",
            "edge (0x3, coord 2) is missing",
        ]
        assert coloring_problems(ColoringCertificate(3, colors), limit=3) == problems[:3]

    def test_full_coverage_needs_no_edge_enumeration(self, monkeypatch):
        cert = monochromatic_certificate(5)

        def unused(n):
            raise AssertionError("cube_edges called for a complete certificate")

        monkeypatch.setattr(bnd.cube, "cube_edges", unused)
        assert coloring_problems(cert) == []
        cert.colors[(1, 0)] = 0  # not an edge: bit 0 is set in the base
        assert coloring_problems(cert) == ["key (1, 0) is not an edge of Q_5"]

    def test_monochromatic_is_valid(self):
        assert verify_coloring(monochromatic_certificate(3))
        with pytest.raises(ValueError):
            monochromatic_certificate(3, color=5)


class TestReports:
    def test_exact_ratio_and_strictness(self):
        rep = make_report(4, 2, "layer", 6, 12, "c/2")
        assert rep.ratio == Fraction(1, 2)
        assert rep.passed
        _, c_hi = constant_c_enclosure()
        # a ratio exactly at the bound must fail (strict inequality)
        rep2 = make_report(4, 2, "layer", 0, 12, "c/2")
        assert not rep2.passed
        assert rep.bound_value == c_hi / 2

    def test_csv_shape(self):
        rep = make_report(4, None, "union", 8, 32, "c/4")
        text = reports_to_csv([rep])
        lines = text.splitlines()
        assert lines[0] == "n,r,scope,achieved,ambient,ratio,bound,bound_value,pass"
        fields = lines[1].split(",")
        assert fields[:6] == ["4", "", "union", "8", "32", "1/4"]
        assert fields[6] == "c/4"
        assert "/" in fields[7]
        assert fields[8] == "true"


class TestPipeline:
    def test_monochromatic_on_c10_free_union(self):
        union = constructed_union(4)
        cert = monochromatic_certificate(4)
        outcome = c10_pipeline(union, cert)
        # components have at most 8 vertices, so every class is C10-free
        assert outcome.success
        assert outcome.best_class == 0
        assert outcome.class_edge_counts[0] == sum(
            1 for _ in subgraph_of_union(union).edge_list()
        )
        assert outcome.report is not None and outcome.report.scope == "final"
        assert outcome.report.ratio <= Fraction(1, 2)

    def test_failure_lists_witness_per_class(self):
        union = full_layer_union(5, 3)  # the full layer contains a C10
        cert = monochromatic_certificate(5)
        outcome = c10_pipeline(union, cert)
        # classes 1 and 2 are empty, hence trivially free; class 0 is not
        assert outcome.success
        assert outcome.best_class in (1, 2)
        assert 0 in outcome.witnesses
        assert outcome.witnesses[0].length == 10

    def test_all_classes_free_implies_averaging_bound(self):
        rng = random.Random(17)
        union = constructed_union(6, seed=2)
        cert = ColoringCertificate(
            6, {edge_key(x, y): rng.randrange(3) for x, y in cube_edges(6)}
        )
        outcome = c10_pipeline(union, cert)
        if outcome.success and len(outcome.free_classes) == 3:
            total = sum(outcome.class_edge_counts)
            assert 3 * outcome.class_edge_counts[outcome.best_class] >= total

    def test_input_validation(self):
        union = constructed_union(4)
        with pytest.raises(ValueError):
            c10_pipeline(union, monochromatic_certificate(5))
        colors = {edge_key(x, y): 0 for x, y in cube_edges(4)}
        del colors[(0, 0)]
        with pytest.raises(ValueError):
            c10_pipeline(union, ColoringCertificate(4, colors))

    def test_soundness_against_independent_detector(self):
        for n in (4, 6):
            union = constructed_union(n, seed=n)
            outcome = c10_pipeline(union, monochromatic_certificate(n))
            free = find_cycle_generic(subgraph_of_union(union), 10) is None
            assert (outcome.best_class == 0) == free


class TestSearchColoring:
    def test_exhaustive_small_cubes(self):
        for n in (1, 2, 3):
            union = constructed_union(n)
            cert = search_coloring_small_n(union, budget=10)
            assert cert is not None
            # lexicographically first candidate: everything color 0
            assert set(cert.colors.values()) == {0}
            assert verify_coloring(cert)

    def test_randomized_mode_returns_valid_certificate(self):
        union = constructed_union(5, seed=4)
        cert = search_coloring_small_n(union, budget=50, seed=9)
        if cert is not None:
            assert verify_coloring(cert)
            outcome = c10_pipeline(union, cert)
            assert len(outcome.free_classes) == 3

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            search_coloring_small_n(constructed_union(2), budget=0)


class TestSuite:
    def test_single_coordinate(self):
        suite = density_report_suite(1, 0)
        assert [rep.scope for rep in suite.reports] == ["layer", "union"]
        assert all(rep.passed for rep in suite.reports)
        assert suite.reports[0].ratio == 1

    def test_report_algebra(self):
        suite = density_report_suite(6, 1)
        layer_reports = [rep for rep in suite.reports if rep.scope == "layer"]
        union_report = next(rep for rep in suite.reports if rep.scope == "union")
        assert union_report.achieved_edges == sum(r.achieved_edges for r in layer_reports)
        assert union_report.ambient_edges == cube_edge_count(6)
        assert all(rep.passed for rep in suite.reports)
        assert set(suite.trials) == {1, 3, 5}

    def test_certificate_adds_final_row(self):
        suite = density_report_suite(4, 0, certificate=monochromatic_certificate(4))
        scopes = [rep.scope for rep in suite.reports]
        assert scopes == ["layer", "layer", "union", "final"]
        assert suite.pipeline is not None and suite.pipeline.success

    def test_exhaustion_carries_partial_reports(self):
        with pytest.raises(SuiteExhausted) as info:
            density_report_suite(3, 1, max_trials=1)
        err = info.value
        assert err.cause.r == 3
        assert len(err.partial_reports) == 1
        assert err.partial_reports[0].scope == "layer"


class TestColoringFormat:
    def test_round_trip(self):
        rng = random.Random(3)
        cert = ColoringCertificate(
            3, {edge_key(x, y): rng.randrange(3) for x, y in cube_edges(3)}
        )
        text = format_coloring(cert)
        parsed = parse_coloring(text)
        assert parsed == cert
        assert format_coloring(parsed) == text

    def test_header(self):
        text = format_coloring(monochromatic_certificate(2))
        assert text.splitlines()[0] == "# qn-coloring n=2"

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_coloring("0 0 0\n")
        with pytest.raises(ValueError):
            parse_coloring("# qn-coloring n=2\n0 0\n")
        with pytest.raises(ValueError):
            parse_coloring("# qn-coloring n=2\n0 0 5\n")
        with pytest.raises(ValueError):
            parse_coloring("# qn-coloring n=2\n1 0 1\n")  # bit 0 set in base
        with pytest.raises(ValueError):
            parse_coloring("# qn-coloring n=2\n0 0 1\n0 0 2\n")  # duplicate
