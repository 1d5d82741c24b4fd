import io
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qturan import bounds as bnd
from qturan.bounds import (
    BOUND_DIVISORS,
    UNSET,
    ColoringCertificate,
    SuiteExhausted,
    c10_pipeline,
    coloring_problems,
    density_report_suite,
    edge_slot,
    make_report,
    parse_coloring,
    read_coloring,
    reports_to_csv,
    verify_coloring,
)
from qturan.construction import (
    UnionGraph,
    constant_c_enclosure,
    derive_seed,
    sample_assignment,
    union_odd_layers,
)
from qturan.cube import (
    CapacityError,
    LayerId,
    LayerSubgraph,
    cube_edge_count,
    cube_edges,
    edge_count,
    layer_vertices,
)
from qturan.detector import find_cycle_generic

from helpers import format_coloring, monochromatic_certificate
from oracles import (
    class_graphs,
    coloring_bytes,
    coloring_dict_problems,
    edge_key,
    edge_slot_by_coordinate,
    explicit_c10_pipeline,
    explicit_class_graphs,
    parse_coloring_by_coordinate,
    parse_coloring_dict,
    rank_certificate,
    subgraph_of_union,
    union_c10_pipeline,
)


def constructed_union(n, seed=0):
    return union_odd_layers(
        n, {r: sample_assignment(n, r, derive_seed(seed, r)) for r in range(1, n + 1, 2)}
    )


def full_layer_union(n, r):
    layer = LayerId(n, r)
    g = LayerSubgraph.induced(
        layer,
        frozenset(layer_vertices(layer, "lower")),
        frozenset(layer_vertices(layer, "upper")),
    )
    return UnionGraph(n, {r: g})


def certificate(n, color):
    """The certificate that gives edge (base, coord) the color color(base, coord),
    with the calls made in (base, coord) order."""
    colors = bytearray(cube_edge_count(n))
    for x, y in cube_edges(n):
        base, coord = edge_key(x, y)
        colors[edge_slot(n, base, coord)] = color(base, coord)
    return ColoringCertificate(n, bytes(colors))


def recolored(cert, changes):
    """cert with edge (base, coord) set to each given byte, UNSET included."""
    colors = bytearray(cert.colors)
    for (base, coord), color in changes.items():
        colors[edge_slot(cert.n, base, coord)] = color
    return ColoringCertificate(cert.n, bytes(colors))


class TestEdgeKey:
    """The edge key the certificates of these tests are built through."""

    def test_canonical(self):
        assert edge_key(0b010, 0b011) == (0b010, 0)
        assert edge_key(0b011, 0b010) == (0b010, 0)

    def test_rejects_non_edges(self):
        with pytest.raises(ValueError):
            edge_key(0b001, 0b110)


class TestEdgeSlot:
    def test_layout_matches_the_reference_order(self):
        for n in range(1, 7):
            slots = [edge_slot(n, *edge_key(x, y)) for x, y in cube_edges(n)]
            assert slots == list(range(cube_edge_count(n)))
            colors = {edge_key(x, y): i % 3 for i, (x, y) in enumerate(cube_edges(n))}
            expected = coloring_bytes(n, colors)
            assert certificate(n, lambda b, c: colors[(b, c)]).colors == expected


class TestColoringValidation:
    def test_single_edge_cube(self):
        cert = ColoringCertificate(1, b"\0")
        assert verify_coloring(cert)

    def test_missing_edge_is_named(self):
        cert = recolored(monochromatic_certificate(2), {(0, 1): UNSET})
        assert not verify_coloring(cert)
        problems = coloring_problems(cert)
        assert any("coord 1" in p and "0x0" in p for p in problems)

    def test_random_full_coloring_is_valid(self):
        rng = random.Random(5)
        cert = certificate(4, lambda base, coord: rng.randrange(3))
        assert verify_coloring(cert)

    def test_bad_color(self):
        assert not verify_coloring(recolored(monochromatic_certificate(2), {(0, 0): 7}))

    def test_wrong_length(self):
        colors = monochromatic_certificate(2).colors
        for wrong in (colors[:-1], colors + b"\0", b""):
            cert = ColoringCertificate(2, wrong)
            assert not verify_coloring(cert)
            assert coloring_problems(cert) == [f"certificate has {len(wrong)} colors, Q_2 has 4 edges"]
            assert coloring_problems(cert, limit=0) == []

    def test_messages_and_their_order(self):
        # edges with base >= 4 colored, two bad colors, one more edge colored
        cert = certificate(3, lambda base, coord: 0 if base >= 4 else UNSET)
        cert = recolored(cert, {(4, 0): 1, (0, 0): 5, (6, 0): 9, (2, 2): 0})
        problems = coloring_problems(cert)
        assert problems == [
            "edge (0, 0) has color 5, expected 0..2",
            "edge (0x0, coord 1) is missing",
            "edge (0x0, coord 2) is missing",
            "edge (0x1, coord 1) is missing",
            "edge (0x1, coord 2) is missing",
            "edge (0x2, coord 0) is missing",
            "edge (0x3, coord 2) is missing",
            "edge (6, 0) has color 9, expected 0..2",
        ]
        assert coloring_problems(cert, limit=3) == problems[:3]

    def test_full_coverage_needs_no_edge_enumeration(self, monkeypatch):
        cert = certificate(5, lambda base, coord: (base + coord) % 3)

        def unused(n):
            raise AssertionError("cube_edges called for a complete certificate")

        monkeypatch.setattr(bnd.cube, "cube_edges", unused)
        assert coloring_problems(cert) == []
        long = ColoringCertificate(5, cert.colors + b"\0")
        assert coloring_problems(long) == ["certificate has 81 colors, Q_5 has 80 edges"]

    def test_monochromatic_is_valid(self):
        assert verify_coloring(monochromatic_certificate(3))
        with pytest.raises(ValueError):
            monochromatic_certificate(3, color=5)

    def test_capacity_is_checked_before_allocating(self, monkeypatch):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                monochromatic_certificate(40)
            with pytest.raises(CapacityError):
                parse_coloring("# qn-coloring n=40\n")
            monkeypatch.setenv("QT_CAPACITY", "3")
            with pytest.raises(CapacityError):
                parse_coloring(format_coloring(certificate(4, lambda base, coord: 0)))
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()


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
        cert = certificate(6, lambda base, coord: rng.randrange(3))
        outcome = c10_pipeline(union, cert)
        if outcome.success and len(outcome.free_classes) == 3:
            total = sum(outcome.class_edge_counts)
            assert 3 * outcome.class_edge_counts[outcome.best_class] >= total

    def test_input_validation(self):
        union = constructed_union(4)
        with pytest.raises(ValueError):
            c10_pipeline(union, monochromatic_certificate(5))
        with pytest.raises(ValueError, match=r"edge \(0x0, coord 0\) is missing"):
            c10_pipeline(union, recolored(monochromatic_certificate(4), {(0, 0): UNSET}))

    def test_soundness_against_independent_detector(self):
        for n in (4, 6):
            union = constructed_union(n, seed=n)
            outcome = c10_pipeline(union, monochromatic_certificate(n))
            free = find_cycle_generic(subgraph_of_union(union), 10) is None
            assert (outcome.best_class == 0) == free


class TestClassGraphs:
    """The class graphs split straight from each layer equal the explicit
    ones of that layer alone, the merged union split of the reference
    equals the explicit one of the union, and the pipeline outcomes built on
    them agree."""

    def test_seeded_corpus(self):
        outcomes = []
        for n in range(4, 11):
            for seed in range(3):
                union = density_report_suite(n, seed).union
                rng = random.Random(n * 10 + seed)
                random_cert = certificate(n, lambda base, coord: rng.randrange(3))
                for cert in (random_cert, monochromatic_certificate(n)):
                    coloring = bnd._certificate_coloring(cert, n)
                    for r, g in union.layers.items():
                        alone = UnionGraph(n, {r: g})
                        assert bnd._split_layer(g, coloring) == explicit_class_graphs(alone, cert.colors)
                    expected = explicit_class_graphs(union, cert.colors)
                    assert class_graphs(union, cert.colors) == expected
                    outcome = c10_pipeline(union, cert)
                    assert outcome == explicit_c10_pipeline(union, cert)
                    outcomes.append(outcome)
        assert any(outcome.witnesses for outcome in outcomes)
        assert any(outcome.free_classes for outcome in outcomes)

    def test_memory_per_union_edge(self):
        """Over each layer of the n=14 union with the coordinate-mod-3
        coloring: one mask per vertex and class takes about 50 bytes per
        edge of the big layers at the peak of the split, plus a few KB on
        any layer, against about 110 bytes for one (x, y) tuple per edge.
        Each layer is split once before it is measured, so that the slot
        tables are cached."""
        n = 14
        union = density_report_suite(n, 0).union
        coloring = bnd._certificate_coloring(certificate(n, lambda base, coord: coord % 3), n)
        for g in union.layers.values():
            bnd._split_layer(g, coloring)
            tracemalloc.start()
            try:
                graphs = bnd._split_layer(g, coloring)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            edges = sum(len(sub.edge_list()) for sub in graphs)
            assert edges == edge_count(g)
            assert peak < 64 * edges + 8192, g.layer


def rule_certificates(n, seed):
    """The certificates the layer fold is checked on: the coordinate-mod-3
    and rank rules, one color, and a seeded random coloring."""
    rng = random.Random(n * 10 + seed)
    return {
        "mod3": certificate(n, lambda base, coord: coord % 3),
        "rank": rank_certificate(n),
        "mono": monochromatic_certificate(n),
        "random": certificate(n, lambda base, coord: rng.randrange(3)),
    }


class TestLayerFold:
    """The suite and c10_pipeline split and search the classes one layer at
    a time, scanning a later layer only for starts below a class's best
    witness so far.  Their outcome equals the search of each class over the
    whole union that they replaced: witnesses, class counts, free classes
    and best class."""

    @pytest.mark.parametrize("n", range(4, 15))
    def test_matches_the_union_route(self, n):
        for seed in range(3):
            for cert in rule_certificates(n, seed).values():
                suite = density_report_suite(n, seed, certificate=cert)
                union = suite.union
                expected = union_c10_pipeline(union, cert)
                assert suite.pipeline == expected
                assert c10_pipeline(union, cert) == expected
                # taken from the top layer down, a later layer often holds
                # the smaller start
                downward = UnionGraph(n, dict(reversed(union.layers.items())))
                assert c10_pipeline(downward, cert) == expected

    def test_a_later_layer_holds_the_first_witness(self):
        """At n=14, seed 1, class 0 of the mod-3 rule has a C10 in layer 5
        starting at 0x200b and one in layer 7 starting at 0xe7: the suite
        meets layer 5 first, and the bound must still let layer 7's
        smaller start through."""
        n = 14
        cert = rule_certificates(n, 1)["mod3"]
        union = density_report_suite(n, 1).union
        firsts = {}
        for r, g in union.layers.items():
            witness = find_cycle_generic(bnd._split_layer(g, bnd._certificate_coloring(cert, n))[0], 10)
            if witness is not None:
                firsts[r] = witness.vertices
        assert firsts[5][0] == 0x200B and firsts[7][0] == 0xE7
        assert min(firsts) == 5 and min(firsts.values()) == firsts[7]
        outcome = density_report_suite(n, 1, certificate=cert).pipeline
        assert outcome.witnesses[0].vertices == firsts[7]
        assert outcome == union_c10_pipeline(union, cert)

    def test_invalid_certificate_fails_before_the_first_layer(self):
        calls = []
        bad = {
            r"edge \(0x0, coord 0\) is missing": recolored(monochromatic_certificate(6), {(0, 0): UNSET}),
            "certificate is for n=4, union graph has n=6": monochromatic_certificate(4),
        }
        for message, cert in bad.items():
            with pytest.raises(ValueError, match=message):
                density_report_suite(6, 0, certificate=cert, on_layer=lambda r, found: calls.append(r))
        assert calls == []

    def test_on_layer_sees_each_layer_in_order(self):
        seen = []
        suite = density_report_suite(9, 2, on_layer=lambda r, found: seen.append((r, found)))
        assert [r for r, _ in seen] == [1, 3, 5, 7, 9]
        assert {r: found.assignment for r, found in seen} == suite.assignments
        assert {r: found.trials for r, found in seen} == suite.trials
        assert {r: found.graph for r, found in seen} == dict(suite.union.layers)


class TestRankRule:
    """pipeline --coloring-rule rank splits each layer through the rule's
    table of n colors, where a certificate route splits it through the rank
    certificate's bytes."""

    @pytest.mark.parametrize("n", range(4, 17))
    def test_split_matches_the_certificate_split(self, n):
        """The rule split equals the split of the rank certificate, and, on
        seed 0, the explicit class graphs of the oracle, which share no loop
        with the library."""
        cert = rank_certificate(n)
        by_rule, by_cert = bnd.COLORING_RULES["rank"](n), bnd._certificate_coloring(cert, n)
        for seed in range(3):
            for r, g in density_report_suite(n, seed).union.layers.items():
                split = bnd._split_layer(g, by_rule)
                assert split == bnd._split_layer(g, by_cert), (seed, g.layer)
                if seed == 0:
                    assert split == explicit_class_graphs(UnionGraph(n, {r: g}), cert.colors), g.layer

    def test_suite_matches_the_certificate_suite(self):
        for n in (6, 9, 12):
            for seed in range(2):
                by_rule = density_report_suite(n, seed, coloring_rule="rank")
                assert by_rule == density_report_suite(n, seed, certificate=rank_certificate(n))
                assert by_rule.pipeline.success

    def test_one_coloring_at_a_time(self):
        with pytest.raises(ValueError, match="not both"):
            density_report_suite(4, 0, certificate=rank_certificate(4), coloring_rule="rank")
        with pytest.raises(ValueError, match="unknown coloring rule 'mod3'"):
            density_report_suite(4, 0, coloring_rule="mod3")


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

    def test_passed_is_the_exact_comparison(self):
        """Every pass flag is ratio > (upper end of c) / divisor, in exact rationals."""
        _, c_hi = constant_c_enclosure()
        mod3 = certificate(4, lambda base, coord: coord % 3)
        scopes = []
        for n in range(4, 11):
            suite = density_report_suite(n, 0, certificate=mod3 if n == 4 else None)
            for rep in suite.reports:
                ratio = Fraction(rep.achieved_edges, rep.ambient_edges)
                assert rep.ratio == ratio
                assert rep.passed == (ratio > c_hi / BOUND_DIVISORS[rep.bound_name])
                scopes.append(rep.scope)
        assert scopes.count("final") == 1

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
        cert = certificate(3, lambda base, coord: rng.randrange(3))
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


def coloring_corpus(seed, count):
    """Seeded coloring texts for n <= 6, most near-canonical with a few defects.

    The defects: shuffled, missing, duplicate and out-of-range lines,
    non-edges, negative masks, the other spellings int() accepts, comments,
    blank lines, malformed lines and bad headers.
    """
    rng = random.Random(seed)
    odd_lines = [
        "-1 0 0", "-2 0 1", "-8 2 2", "-0 0 0", "0 -1 0", "0 0 -1", "0 0 3", "0 0 10", "0 99 0",
        "01 0 0", "0 00 1", "0 +0 2", "+1 1 0", "0x1 1 0", "0X2 0 1", "1_0 0 0",
        "0 1_0 0", "0 0 0_1", "0 0 +1", "A 0 0", "a 0 0", "0 0", "0 0 0 0", "zz 1 0",
        "0 a 0", "0 0 x", "# comment", "#1 2 0", "  # indented comment", "", "   ",
        "\t0\t0\t1", "  0  1  2  ", "١ 0 0", "0 ١ 0", "0 0 ٢",
        "fffffff 0 0", "0\x0c1 0",
    ]
    headers = ["# qn-coloring n=0", "# qn-coloring n=x", "# qn-coloring n=-2", "# qn n=3", ""]
    texts = []
    for _ in range(count):
        n = rng.randrange(1, 7)
        lines = [f"{b:x} {j} {rng.randrange(3)}" for b in range(1 << n) for j in range(n) if not b >> j & 1]
        for _ in range(rng.choice((0, 0, 1, 1, 2, 4))):
            kind = rng.randrange(6)
            if kind == 0:
                rng.shuffle(lines)
            elif kind == 1 and lines:
                del lines[rng.randrange(len(lines))]
            elif kind == 2 and lines:
                lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
            elif kind == 3:
                b, j = rng.randrange(1 << (n + 1)), rng.randrange(n + 2)
                lines.insert(rng.randrange(len(lines) + 1), f"{b:x} {j} {rng.randrange(4)}")
            else:
                lines.insert(rng.randrange(len(lines) + 1), rng.choice(odd_lines))
        header = f"# qn-coloring n={rng.choice((n, n, n, f'0{n}', f'+{n}', f' {n} '))}"
        if rng.random() < 0.03:
            header = rng.choice(headers)
        sep = rng.choice(("\n", "\n", "\r\n"))
        texts.append(sep.join([header] + lines) + rng.choice((sep, "")))
    return texts


def parse_outcome(parse, text):
    try:
        return "ok", parse(text)
    except ValueError as exc:
        return "error", str(exc)


class TestParseAgainstReference:
    def test_seeded_corpus(self):
        verdicts = []
        for text in coloring_corpus(seed=11, count=1500):
            got, ref = parse_outcome(parse_coloring, text), parse_outcome(parse_coloring_dict, text)
            assert got[0] == ref[0], text
            if got[0] == "error":
                assert got[1] == ref[1], text
                verdicts.append("error")
                continue
            n, colors = ref[1]
            cert = got[1]
            assert cert.n == n and cert.colors == coloring_bytes(n, colors), text
            assert coloring_problems(cert) == coloring_dict_problems(n, colors), text
            verdicts.append(verify_coloring(cert))
        # every outcome occurs often enough to count
        assert min(verdicts.count(v) for v in ("error", True, False)) >= 100


def stream_of(text):
    """text as an open file would give it, newline translation already done."""
    return io.StringIO(text, newline="")


class TestChunkedParse:
    """Both entry points parse in chunks cut just after a newline; the chunk
    size must not change what a text parses to, nor any message."""

    @pytest.mark.parametrize("size", [1, 2, 7, 64, bnd.COLORING_CHUNK_CHARS])
    def test_seeded_corpus_at_every_chunk_size(self, monkeypatch, size):
        monkeypatch.setattr(bnd, "COLORING_CHUNK_CHARS", size)
        for text in coloring_corpus(seed=11, count=1500):
            ref = parse_outcome(parse_coloring_dict, text)
            if ref[0] == "ok":
                n, colors = ref[1]
                ref = ("ok", ColoringCertificate(n, coloring_bytes(n, colors)))
            assert parse_outcome(parse_coloring, text) == ref, text
            assert parse_outcome(read_coloring, stream_of(text)) == ref, text

    # Each defect sits at line DEFECT_LINE of the Q_12 text, about 120 KB
    # and seven chunks in.  Any defect, canonical spelling or not, breaks
    # the edge order of its chunk and sends that chunk line by line.
    DEFECT_LINE = 15000

    @pytest.mark.parametrize(
        "defect, message",
        [
            ("1 0 2", "(0x1, 0) is not an edge of Q_12"),
            ("1 0 2 ", "(0x1, 0) is not an edge of Q_12"),
            ("{dup}", "duplicate edge (0x{base:x}, {coord})"),
            ("{dup} ", "duplicate edge (0x{base:x}, {coord})"),
        ],
    )
    def test_defect_several_chunks_in(self, monkeypatch, defect, message):
        n = 12
        lines = format_coloring(certificate(n, lambda base, coord: (base + coord) % 3)).splitlines()
        base, coord, _ = lines[20].split()  # line 21 of the file
        base, coord = int(base, 16), int(coord)
        defect = defect.format(dup=lines[20])
        lines.insert(self.DEFECT_LINE - 1, defect)
        assert sum(map(len, lines[: self.DEFECT_LINE])) > 4 * bnd.COLORING_CHUNK_CHARS
        text = "\n".join(lines) + "\n"
        per_line = []
        store_lines = bnd._store_lines

        def spy(n, colors, duplicates, lineno, chunk_lines):
            per_line.extend(range(lineno, lineno + len(chunk_lines)))
            store_lines(n, colors, duplicates, lineno, chunk_lines)

        monkeypatch.setattr(bnd, "_store_lines", spy)
        expected = f"line {self.DEFECT_LINE}: " + message.format(base=base, coord=coord)
        ref = parse_outcome(parse_coloring_dict, text)
        assert ref == ("error", expected)
        assert parse_outcome(parse_coloring, text) == ref
        assert self.DEFECT_LINE in per_line
        # only the defect's own chunk, if any, was read line by line
        chunk_lines = bnd.COLORING_CHUNK_CHARS // (min(map(len, lines)) + 1)
        assert all(abs(lineno - self.DEFECT_LINE) < chunk_lines for lineno in per_line)
        assert parse_outcome(read_coloring, stream_of(text)) == ref

    def test_reading_a_file_holds_one_chunk(self, tmp_path):
        n = 14
        path = tmp_path / "coloring.txt"
        path.write_text(format_coloring(certificate(n, lambda base, coord: coord % 3)))
        tracemalloc.start()
        try:
            with path.open() as stream:
                cert = read_coloring(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verify_coloring(cert)
        # the byte array plus one chunk and its tokens
        assert peak < 2 * cube_edge_count(n) + (1 << 20)

    def test_parse_keeps_one_copy_of_the_array(self):
        tracemalloc.start()
        try:
            cert = parse_coloring("# qn-coloring n=20\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cert.colors) == cube_edge_count(20)
        assert peak < 1.25 * cube_edge_count(20)


def chunk_starts(text):
    """The numbers of the lines that begin a chunk when text is parsed."""
    size = bnd.COLORING_CHUNK_CHARS
    starts, lineno = [], 1
    for chunk in bnd._line_chunks(text[i : i + size] for i in range(0, len(text), size)):
        starts.append(lineno)
        lineno += len(chunk.splitlines())
    return starts


# Each defect changes the data lines at index i, which is line i + 2 of the
# file, so that the line there is the defect (or, for "missing", the line
# after the gap); None where it does not apply.
BOUNDARY_DEFECTS = {
    "missing": lambda lines, i: lines[:i] + lines[i + 1 :],
    "duplicate": lambda lines, i: lines[:i] + [lines[i // 2]] + lines[i:],
    "non-edge": lambda lines, i: lines[:i] + ["1 0 2"] + lines[i:],
    "comment": lambda lines, i: lines[:i] + ["# comment"] + lines[i:],
    "uppercase": lambda lines, i: (
        lines[:i] + [lines[i].upper()] + lines[i + 1 :] if lines[i] != lines[i].upper() else None
    ),
    "trailing space": lambda lines, i: lines[:i] + [lines[i] + " "] + lines[i + 1 :],
}


@pytest.mark.parametrize("size", [1, 7, 64, bnd.COLORING_CHUNK_CHARS])
class TestFileOrderAgainstCoordinateMajor:
    """The file-order parser stores, through the layout permutation, the
    colors that the coordinate-major parser with its any-order bulk path
    stored, and raises the same messages, which are parse_coloring_dict's."""

    def check(self, text):
        got = parse_outcome(parse_coloring, text)
        old = parse_outcome(parse_coloring_by_coordinate, text)
        ref = parse_outcome(parse_coloring_dict, text)
        assert got[0] == old[0] == ref[0], text
        assert parse_outcome(read_coloring, stream_of(text)) == got, text
        if got[0] == "error":
            assert got[1] == old[1] == ref[1], text
            return got[1]
        (n, old_colors), (_, ref_colors) = old[1], ref[1]
        permuted = bytes(old_colors[edge_slot_by_coordinate(n, *edge_key(x, y))] for x, y in cube_edges(n))
        assert got[1] == ColoringCertificate(n, permuted), text
        assert permuted == coloring_bytes(n, ref_colors), text
        return got[1]

    def test_seeded_corpus(self, monkeypatch, size):
        monkeypatch.setattr(bnd, "COLORING_CHUNK_CHARS", size)
        for text in coloring_corpus(seed=12, count=400):
            self.check(text)

    def test_ordered_texts(self, monkeypatch, size):
        monkeypatch.setattr(bnd, "COLORING_CHUNK_CHARS", size)
        rng = random.Random(size)
        for n in range(1, 13):
            cert = certificate(n, lambda base, coord: rng.randrange(3))
            assert self.check(format_coloring(cert)) == cert

    def test_bytes_that_xor_to_a_color(self, monkeypatch, size):
        """Within a chunk, a NUL where a color belongs and a byte that XORs
        with its skeleton byte to a color digit elsewhere ('\\x11' ^ ' ' is
        '1', 'Q' ^ 'a' is '0') must not pass for an ordered chunk."""
        monkeypatch.setattr(bnd, "COLORING_CHUNK_CHARS", size)
        header, *lines = format_coloring(certificate(4, lambda base, coord: coord % 3)).splitlines()
        assert lines[1] == "0 1 1"
        for i, line in ((1, "0\x111 \0"), (lines.index("a 0 0"), "Q 0 0")):
            text = "\n".join([header, *lines[:i], line, *lines[i + 1 :]]) + "\n"
            assert self.check(text) == f"line {i + 2}: " + (
                f"expected '<hex-mask> <coord> <color>', got {line!r}"
                if "\0" in line
                else f"bad hex mask or number in {line!r}"
            )

    @pytest.mark.parametrize("defect", list(BOUNDARY_DEFECTS))
    def test_defect_at_a_chunk_boundary(self, monkeypatch, size, defect):
        monkeypatch.setattr(bnd, "COLORING_CHUNK_CHARS", size)
        n = 11
        header, *lines = format_coloring(certificate(n, lambda base, coord: (base + coord) % 3)).splitlines()
        starts = chunk_starts("\n".join([header] + lines) + "\n")
        # a clean chunk start past the first chunk, moved by at most a line
        for i in (s - 2 + shift for s in starts[len(starts) // 2 :] for shift in (0, -1, 1)):
            changed = BOUNDARY_DEFECTS[defect](lines, i)
            if changed is None:
                continue
            text = "\n".join([header] + changed) + "\n"
            if i + 2 in chunk_starts(text):
                break
        else:
            pytest.fail(f"no chunk boundary for the {defect} defect")
        outcome = self.check(text)
        assert isinstance(outcome, str) == (defect in ("duplicate", "non-edge"))


coloring_line = st.one_of(
    st.tuples(st.integers(-2, 70), st.integers(-1, 7), st.integers(-1, 3)).map(
        lambda t: f"{t[0]:x} {t[1]} {t[2]}" if t[0] >= 0 else f"-{-t[0]:x} {t[1]} {t[2]}"
    ),
    st.text(alphabet="0123456789abfx+-_# \t", max_size=10),
    st.text(max_size=6),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(-1, 7), st.lists(coloring_line, max_size=40))
def test_parse_is_total_and_round_trips(n, lines):
    text = "\n".join([f"# qn-coloring n={n}"] + lines) + "\n"
    try:
        cert = parse_coloring(text)
    except ValueError:
        return
    canonical = format_coloring(cert)
    assert parse_coloring(canonical) == cert
    assert format_coloring(parse_coloring(canonical)) == canonical
