"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Everything is seeded and
deterministic; the statistical checks use 4-sigma binomial bands.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import sqrt

import pytest

from qturan.bounds import c10_pipeline, density_report_suite
from qturan.construction import (
    build_layer_graph,
    constant_c_enclosure,
    derive_seed,
    edge_probability_closed_form,
    member_lower,
    member_upper,
    sample_assignment,
)
from qturan.cube import LayerId, LayerSubgraph, cube_edge_count, layer_edge_count, subsets_of_size
from qturan.detector import (
    find_c6_minus,
    find_c6_structured,
    find_cycle_generic,
    subgraph_of_layer,
)

from helpers import constant_c, induced_subgraph, monochromatic_certificate
from oracles import exact_expected_edges, find_c6_structured_by_probe, subgraph_of_union

# prod_{k>=1}(1 - 2^-k), frozen from an independent high-precision
# partial-product computation (60 decimal digits, 200 factors).
C_REFERENCE_10_DIGITS = 0.2887880951
C_REFERENCE = Fraction("0.288788095086602421278899721929")


def announce(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


@pytest.fixture(scope="module")
def suites():
    """Full report suites for every n up to 14 (criteria 6 and 7)."""
    return {n: density_report_suite(n, seed=0) for n in range(1, 15)}


@pytest.fixture(scope="module")
def layer_instances():
    """Shared instances for criteria 5 and 9.

    500 random induced subgraphs of L_3(7) plus every induced subgraph of
    L_2(4) (all 2^10 subsets of its 10 vertices).
    """
    rng = random.Random(501)
    instances = []
    layer73 = LayerId(7, 3)
    lows73 = list(subsets_of_size(7, 2))
    ups73 = list(subsets_of_size(7, 3))
    for _ in range(500):
        lower = frozenset(v for v in lows73 if rng.random() < 0.5)
        upper = frozenset(v for v in ups73 if rng.random() < 0.5)
        instances.append(LayerSubgraph.induced(layer73, lower, upper))
    layer42 = LayerId(4, 2)
    lows42 = list(subsets_of_size(4, 1))
    ups42 = list(subsets_of_size(4, 2))
    verts = lows42 + ups42
    assert len(verts) == 10
    for mask in range(1 << 10):
        chosen = {v for i, v in enumerate(verts) if (mask >> i) & 1}
        instances.append(
            LayerSubgraph.induced(
                layer42,
                frozenset(chosen & set(lows42)),
                frozenset(chosen & set(ups42)),
            )
        )
    return instances


def test_criterion_1_constant():
    value = constant_c(1e-12)
    assert 0.288 < value < 0.289
    assert abs(value - C_REFERENCE_10_DIGITS) < 1e-10
    assert round(value, 10) == C_REFERENCE_10_DIGITS
    lo, hi = constant_c_enclosure()
    assert lo < C_REFERENCE < hi and hi - lo < Fraction(1, 10**12)
    announce(1, f"constant_c(1e-12) = {value:.12f}, 10-digit match to the oracle")


def test_criterion_2_closed_form_vs_exhaustive():
    pairs = [(2, 1), (3, 1), (3, 2), (4, 2), (2, 2), (4, 3)]
    for n, r in pairs:
        enumerated = exact_expected_edges(n, r)
        formula = edge_probability_closed_form(r) * layer_edge_count(LayerId(n, r))
        assert enumerated == formula, (n, r)
    _, c_hi = constant_c_enclosure()
    for r in range(1, 31):
        assert edge_probability_closed_form(r) > c_hi / 2
    announce(2, f"exact means match the closed form on {len(pairs)} instances; "
                "edge survival stays above c/2 through r=30")


def test_criterion_3_monte_carlo():
    trials = 100_000
    for r in (2, 3, 4, 5):
        n = 2 * r
        x = (1 << (r - 1)) - 1
        y = (1 << r) - 1
        hits = 0
        for t in range(trials):
            a = sample_assignment(n, r, derive_seed(1000 + r, t))
            if member_lower(a, x) and member_upper(a, y):
                hits += 1
        p = float(edge_probability_closed_form(r))
        sigma = sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) <= 4 * sigma, (r, hits)
    announce(3, f"per-edge survival within 4 sigma of the closed form over {trials} seeds, r=2..5")


def test_criterion_4_c6_freeness_of_constructions():
    cells = [(n, r) for n in range(4, 13) for r in range(1, n + 1)]
    per_cell = -(-10_000 // len(cells))  # ceil: 139 assignments per (n, r)
    total = 0
    for idx, (n, r) in enumerate(cells):
        cell_seed = derive_seed(42, idx)
        for t in range(per_cell):
            a = sample_assignment(n, r, derive_seed(cell_seed, t))
            g = build_layer_graph(a)
            assert find_c6_structured(g) is None, (n, r, t)
            assert find_cycle_generic(subgraph_of_layer(g), 6) is None, (n, r, t)
            total += 1
    assert total >= 10_000
    announce(4, f"{total} constructed graphs over n=4..12, every r: all C6-free by both detectors")


def test_criterion_5_detector_cross_validation(layer_instances):
    agreements = 0
    witnesses = 0
    for g in layer_instances:
        structured = find_c6_structured(g)
        generic = find_cycle_generic(subgraph_of_layer(g), 6)
        assert (structured is None) == (generic is None)
        if structured is not None:
            lower = {structured.core | 1 << i for i in structured.axes}
            assert lower <= set(g.lower)
            assert {x | y for x, y in combinations(lower, 2)} <= set(g.upper)
            witnesses += 1
        agreements += 1
    announce(5, f"structured and generic detectors agree on {agreements} induced subgraphs "
                f"({witnesses} with a C6)")


def test_structured_scan_matches_the_probing_scan(layer_instances):
    """The mask-reading structured scan returns the pattern that probing the
    two vertex sets finds, on every cross-validation instance."""
    for g in layer_instances:
        assert find_c6_structured(g) == find_c6_structured_by_probe(g)


def test_criterion_6_layer_density(suites):
    for n in range(1, 15):
        suite = suites[n]
        layer_reports = [rep for rep in suite.reports if rep.scope == "layer"]
        assert len(layer_reports) == (n + 1) // 2
        for rep in layer_reports:
            assert rep.passed, (n, rep.r)
        for r, trials in suite.trials.items():
            assert trials <= 512, (n, r)
    worst = max(t for s in suites.values() for t in s.trials.values())
    announce(6, f"every layer up to n=14 beat c/2 within 512 trials (worst case {worst})")


def test_criterion_7_chain_arithmetic(suites):
    for n in range(1, 15):
        suite = suites[n]
        layer_reports = [rep for rep in suite.reports if rep.scope == "layer"]
        union_report = next(rep for rep in suite.reports if rep.scope == "union")
        if all(rep.passed for rep in layer_reports):
            assert union_report.passed, n
        assert union_report.achieved_edges == sum(r.achieved_edges for r in layer_reports)
    for n in range(2, 21):
        odd_total = sum(layer_edge_count(LayerId(n, r)) for r in range(1, n + 1, 2))
        assert 2 * odd_total == cube_edge_count(n), n
    announce(7, "union ratio beats c/4 whenever layers pass (n<=14); "
                "odd layers carry exactly half of e(Q_n) for n<=20")


def test_criterion_8_layers_have_no_c4():
    checked = 0
    for n in range(1, 9):
        for r in range(1, n + 1):
            g = induced_subgraph(n, [*subsets_of_size(n, r - 1), *subsets_of_size(n, r)])
            assert find_cycle_generic(g, 4) is None, (n, r)
            checked += 1
    announce(8, f"no C4 in any of the {checked} full layers with n<=8")


def test_criterion_9_c6_minus_equivalence(layer_instances):
    both = neither = 0
    for g in layer_instances:
        sub = subgraph_of_layer(g)
        has_c6 = find_cycle_generic(sub, 6) is not None
        has_minus = find_c6_minus(sub) is not None
        assert has_c6 == has_minus
        if has_c6:
            both += 1
        else:
            neither += 1
    announce(9, f"C6- present iff C6 present on all {both + neither} layer instances "
                f"({both} with, {neither} without)")


def test_criterion_10_pipeline_soundness(suites):
    # monochromatic certificate: the pipeline returns class 0 iff an
    # independent detector run (different worker split) confirms freeness
    for n in range(1, 9):
        union = suites[n].union
        outcome = c10_pipeline(union, monochromatic_certificate(n))
        independent = find_cycle_generic(subgraph_of_union(union), 10, workers=2)
        assert outcome.success  # classes 1 and 2 are empty, hence free
        assert (outcome.best_class == 0) == (independent is None), n
        if outcome.best_class == 0:
            assert outcome.report is not None
            assert outcome.report.bound_name == "c/12"
    # planted 10-cycles in Q_5 are always found
    cycle = [0]
    for j in list(range(5)) + list(range(4)):
        cycle.append(cycle[-1] ^ (1 << j))
    rng = random.Random(99)
    for trial in range(25):
        extras = rng.sample(sorted(set(range(32)) - set(cycle)), 20)
        g = induced_subgraph(5, cycle + extras)
        witness = find_cycle_generic(g, 10)
        assert witness is not None and witness.length == 10
        assert set(witness.vertices) <= set(g.vertices)
    announce(10, "pipeline matches the independent C10 detector for n<=8; "
                 "25/25 planted C10s detected (c/12 bound is conditional on a "
                 "supplied external certificate)")
