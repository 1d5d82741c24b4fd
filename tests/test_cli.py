import hashlib
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qturan import bounds, cli, construction, cube
from qturan.cube import LayerId, LayerSubgraph, format_layer_graph, layer_vertices

from helpers import format_coloring, monochromatic_certificate
from oracles import rank_certificate
from test_detector import planted_graph, ring


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def full_layer_text(n, r):
    layer = LayerId(n, r)
    g = LayerSubgraph.induced(
        layer,
        frozenset(layer_vertices(layer, "lower")),
        frozenset(layer_vertices(layer, "upper")),
    )
    return format_layer_graph(g)


class TestConstruct:
    def test_reports_and_artifacts(self, tmp_path, capsys):
        code, out, err = run(
            ["construct", "--n", "6", "--r", "3", "--seed", "0", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("n,r,scope")
        assert lines[1].split(",")[:3] == ["6", "3", "layer"]
        assert lines[1].endswith("true")
        assert (tmp_path / "assignment_n6_r3.txt").exists()
        assert (tmp_path / "layer_n6_r3.txt").exists()

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        stdout = []
        for out in (out1, out2):
            code, text, _ = run(
                ["construct", "--n", "10", "--r", "3", "--seed", "0", "--out", str(out)],
                capsys,
            )
            assert code == 0
            stdout.append(text)
        assert stdout[0] == stdout[1]
        for name in ("assignment_n10_r3.txt", "layer_n10_r3.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_capacity_exit_code(self, tmp_path, capsys):
        code, _, err = run(
            ["construct", "--n", "30", "--r", "3", "--out", str(tmp_path)], capsys
        )
        assert code == 3
        assert "cap" in err

    def test_capacity_override_below_n(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QT_CAPACITY", "10")
        code, _, err = run(
            ["construct", "--n", "12", "--r", "5", "--out", str(tmp_path)], capsys
        )
        assert code == 3
        assert "exceeds cap 10" in err
        code, out, _ = run(["pipeline", "--n", "12"], capsys)
        assert code == 3
        assert out == ""

    def test_exhaustion_exit_code(self, tmp_path, capsys):
        # seed 0, trial 0 draws equal vectors at n=2, r=2
        code, out, err = run(
            ["construct", "--n", "2", "--r", "2", "--seed", "0", "--trials", "1",
             "--out", str(tmp_path)],
            capsys,
        )
        assert (code, out) == (4, "")
        assert err == (
            "error: no assignment with n=2, r=2 beat the threshold after 1 trials "
            "(best: 0 edges vs threshold 72197023771781931/250000000000000000)\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_text_format(self, tmp_path, capsys):
        code, out, _ = run(
            ["construct", "--n", "4", "--r", "2", "--out", str(tmp_path), "--format", "text"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0].split()[:3] == ["n", "r", "scope"]

    def test_smallest_instance(self, tmp_path, capsys):
        code, out, _ = run(
            ["construct", "--n", "1", "--r", "1", "--out", str(tmp_path)], capsys
        )
        assert code == 0
        fields = out.splitlines()[1].split(",")
        assert fields[5] == "1/1"
        assert fields[8] == "true"


class TestVerify:
    def test_constructed_layer_is_free(self, tmp_path, capsys):
        code, _, _ = run(
            ["construct", "--n", "8", "--r", "3", "--seed", "1", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        layer_file = str(tmp_path / "layer_n8_r3.txt")
        for target in ("c4", "c6", "c6minus"):
            code, out, _ = run(["verify", layer_file, "--target", target], capsys)
            assert code == 0
            assert out.strip() == f"{target}-free"

    def test_full_layer_has_c6(self, tmp_path, capsys):
        path = tmp_path / "full.txt"
        path.write_text(full_layer_text(4, 2))
        code, out, _ = run(["verify", str(path), "--target", "c6"], capsys)
        assert code == 1
        assert out.startswith("C6 ")
        assert len(out.split()) == 7

    def test_plain_edge_list_square(self, tmp_path, capsys):
        text = cube.format_edge_list(2, [(0, 1), (0, 2), (1, 3), (2, 3)])
        path = tmp_path / "square.txt"
        path.write_text(text)
        code, out, _ = run(["verify", str(path), "--target", "c4"], capsys)
        assert code == 1
        assert out.startswith("C4 ")
        code, out, _ = run(["verify", str(path), "--target", "c10"], capsys)
        assert code == 0

    def test_workers_flag(self, tmp_path, capsys):
        path = tmp_path / "full.txt"
        path.write_text(full_layer_text(4, 2))
        code1, out1, _ = run(["verify", str(path), "--target", "c6", "--workers", "2"], capsys)
        code2, out2, _ = run(["verify", str(path), "--target", "c6"], capsys)
        assert (code1, out1) == (code2, out2)

    def test_comment_mentioning_lower_is_an_edge_list(self, tmp_path, capsys):
        path = tmp_path / "path.txt"
        path.write_text("# qn n=3\n# lower bound check\n0 1\n1 3\n")
        code, out, err = run(["verify", str(path), "--target", "c4"], capsys)
        assert (code, out, err) == (0, "c4-free\n", "")

    def test_marker_in_mid_line_is_an_edge_list(self, tmp_path, capsys):
        path = tmp_path / "path.txt"
        path.write_text("# qn n=3\n# not a # layer r=3 line\n0 1\n1 3\n")
        code, out, err = run(["verify", str(path), "--target", "c4"], capsys)
        assert (code, out, err) == (0, "c4-free\n", "")

    def test_bad_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "junk.txt"
        path.write_text("not a graph\n")
        code, _, err = run(["verify", str(path), "--target", "c6"], capsys)
        assert code == 2
        assert "error" in err

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run(["verify", str(tmp_path / "nope.txt"), "--target", "c6"], capsys)
        assert code == 2


class TestPipeline:
    def test_layer_and_union_rows(self, capsys):
        code, out, _ = run(["pipeline", "--n", "6", "--seed", "1"], capsys)
        assert code == 0
        lines = out.splitlines()
        scopes = [line.split(",")[2] for line in lines[1:]]
        assert scopes == ["layer", "layer", "layer", "union"]
        assert all(line.endswith("true") for line in lines[1:])

    def test_certificate_gives_final_row(self, tmp_path, capsys):
        coloring = tmp_path / "mono.txt"
        coloring.write_text(format_coloring(monochromatic_certificate(4)))
        code, out, _ = run(
            ["pipeline", "--n", "4", "--seed", "0", "--coloring", str(coloring)], capsys
        )
        assert code == 0
        scopes = [line.split(",")[2] for line in out.splitlines()[1:]]
        assert scopes == ["layer", "layer", "union", "final"]

    def test_artifacts_written(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        code, _, _ = run(
            ["pipeline", "--n", "4", "--seed", "0", "--out", str(out_dir)], capsys
        )
        assert code == 0
        assert (out_dir / "assignment_n4_r1.txt").exists()
        assert (out_dir / "layer_n4_r3.txt").exists()

    def test_exhaustion_prints_partial(self, capsys):
        code, out, err = run(["pipeline", "--n", "3", "--seed", "1", "--trials", "1"], capsys)
        assert code == 4
        lines = out.splitlines()
        assert lines[0].startswith("n,r,scope")
        assert len(lines) == 2  # only the r=1 layer row survived
        assert "error" in err

    def test_exhaustion_keeps_the_layers_written(self, tmp_path, capsys):
        """Layers are written as the suite passes them, so a run that
        exhausts its trials at r=3 leaves the files of r=1 and no others."""
        out_dir = tmp_path / "artifacts"
        argv = ["pipeline", "--n", "3", "--seed", "1", "--trials", "1", "--out", str(out_dir)]
        code, out, err = run(argv, capsys)
        assert code == 4
        assert out.splitlines()[1:] == ["3,1,layer,3,3,1/1,c/2,72197023771781931/500000000000000000,true"]
        assert err.startswith("error: no assignment with n=3, r=3 beat the threshold after 1 trials")
        assert sorted(p.name for p in out_dir.iterdir()) == ["assignment_n3_r1.txt", "layer_n3_r1.txt"]

    def test_invalid_certificate_writes_no_layer(self, tmp_path, capsys):
        coloring = tmp_path / "partial.txt"
        coloring.write_text(format_coloring(monochromatic_certificate(4)).replace("\n0 0 0\n", "\n"))
        out_dir = tmp_path / "artifacts"
        argv = ["pipeline", "--n", "4", "--coloring", str(coloring), "--out", str(out_dir)]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err == "error: invalid coloring certificate: edge (0x0, coord 0) is missing\n"
        assert not out_dir.exists()

    def test_coloring_header_beyond_cap_exits_3(self, tmp_path, capsys):
        coloring = tmp_path / "big.txt"
        coloring.write_text("# qn-coloring n=40\n")
        for n in ("4", "40"):
            code, out, err = run(["pipeline", "--n", n, "--coloring", str(coloring)], capsys)
            assert (code, out, err) == (3, "", "error: enumeration over n=40 exceeds cap 24\n")

    def test_capacity_override_with_coloring_exits_3(self, tmp_path, capsys, monkeypatch):
        coloring = tmp_path / "mono.txt"
        coloring.write_text(format_coloring(monochromatic_certificate(4)))
        monkeypatch.setenv(cube.CAPACITY_ENV, "3")
        code, out, err = run(["pipeline", "--n", "4", "--coloring", str(coloring)], capsys)
        assert (code, out, err) == (3, "", "error: enumeration over n=4 exceeds cap 3\n")

    def test_certificate_for_another_n_fails_before_search(self, tmp_path, capsys, monkeypatch):
        coloring = tmp_path / "mono.txt"
        coloring.write_text(format_coloring(monochromatic_certificate(4)))

        def no_search(*args, **kwargs):
            raise AssertionError("a layer search ran")

        monkeypatch.setattr(bounds, "find_good_assignment", no_search)
        monkeypatch.setattr(construction, "find_good_assignment", no_search)
        code, out, err = run(["pipeline", "--n", "16", "--coloring", str(coloring)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: certificate is for n=4, union graph has n=16\n"

    @pytest.mark.parametrize(
        "extra, message",
        [
            (
                ["--coloring", "c.txt", "--coloring-rule", "rank"],
                "qturan pipeline: error: argument --coloring-rule: not allowed with argument --coloring\n",
            ),
            (["--budget", "10"], "qturan: error: unrecognized arguments: --budget 10\n"),
            (["--coloring-rule", "mod3"], "qturan pipeline: error: argument --coloring-rule: invalid choice: 'mod3'"),
            (["--workers", "2"], "qturan: error: unrecognized arguments: --workers 2\n"),
        ],
        ids=["coloring and rule", "budget", "unknown rule", "workers"],
    )
    def test_coloring_usage_errors(self, capsys, extra, message):
        with pytest.raises(SystemExit) as info:
            cli.main(["pipeline", "--n", "4", *extra])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestRankRule:
    """pipeline --coloring-rule rank runs as pipeline --coloring with the
    rank certificate written out, and passes."""

    def test_the_flag_offers_the_library_rules(self):
        """The flag's choices are named in cli, so that parsing loads no
        bounds; they are the rules bounds knows."""
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        rule = next(a for a in sub.choices["pipeline"]._actions if a.dest == "coloring_rule")
        assert list(rule.choices) == sorted(bounds.COLORING_RULES)

    @staticmethod
    def call(argv, out, capsys):
        code, stdout, stderr = run([*argv, "--out", str(out)], capsys)
        return code, stdout, stderr, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    @pytest.mark.parametrize("n", range(4, 17))
    def test_matches_the_certificate_and_passes(self, tmp_path, capsys, n):
        coloring = tmp_path / "rank.txt"
        coloring.write_text(format_coloring(rank_certificate(n)))
        base = ["pipeline", "--n", str(n), "--seed", "0"]
        by_rule = self.call([*base, "--coloring-rule", "rank"], tmp_path / "rule", capsys)
        by_file = self.call([*base, "--coloring", str(coloring)], tmp_path / "file", capsys)
        assert by_rule == by_file
        code, stdout, stderr, _ = by_rule
        assert (code, stderr) == (0, "")
        final = stdout.splitlines()[-1].split(",")
        assert final[2] == "final" and final[-1] == "true"


class TestStreamedColoring:
    """pipeline --coloring reads the file chunk by chunk: line numbers run on
    across chunks, and a bad file still ends in exit 2 with one error line."""

    N = 12
    BAD_LINE = 15000  # about 120 KB into the file, several chunks in

    # sha256 of the stdout of `pipeline --n 12 --seed 0 --coloring` with the
    # coordinate-mod-3 coloring, pinned before the certificate's bytes were
    # laid out in file order
    MOD3_STDOUT_SHA256 = "30811710fbfc58f5dad8db301c08ecb4fc10db4133724144f1c493e34a033795"

    def lines(self):
        n = self.N
        colors = bytes(j % 3 for x in range(1 << n) for j in range(n) if not x >> j & 1)
        return format_coloring(bounds.ColoringCertificate(n, colors)).splitlines()

    def test_line_order_and_newlines_do_not_change_the_run(self, tmp_path, capsys):
        """The ordered file takes the slice path, its shuffled copy the line
        path, and a CRLF copy reads as the ordered file once the newlines
        are translated: all three runs are the same."""
        header, *lines = self.lines()
        shuffled = lines[:]
        random.Random(0).shuffle(shuffled)
        texts = {
            "ordered": "\n".join([header] + lines) + "\n",
            "shuffled": "\n".join([header] + shuffled) + "\n",
            "crlf": "\r\n".join([header] + lines) + "\r\n",
        }
        runs = []
        for name, text in texts.items():
            path = tmp_path / f"{name}.txt"
            path.write_bytes(text.encode())
            argv = ["pipeline", "--n", str(self.N), "--seed", "0", "--coloring", str(path)]
            runs.append(run(argv, capsys))
        assert runs[0] == runs[1] == runs[2]
        code, out, err = runs[0]
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.MOD3_STDOUT_SHA256

    def fails(self, path, capsys):
        code, out, err = run(["pipeline", "--n", str(self.N), "--coloring", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        return err

    def test_error_past_the_first_chunk_keeps_its_line(self, tmp_path, capsys):
        lines = self.lines()
        lines.insert(self.BAD_LINE - 1, "zz 1 0")
        path = tmp_path / "coloring.txt"
        path.write_text("\n".join(lines) + "\n")
        err = self.fails(path, capsys)
        assert err == f"error: line {self.BAD_LINE}: bad hex mask or number in 'zz 1 0'\n"

    def test_no_trailing_newline(self, tmp_path, capsys):
        lines = self.lines()
        lines.append(lines[1])
        path = tmp_path / "coloring.txt"
        path.write_text("\n".join(lines))
        err = self.fails(path, capsys)
        base, coord, _ = lines[1].split()
        assert err == f"error: line {len(lines)}: duplicate edge (0x{base}, {coord})\n"

    def test_crlf(self, tmp_path, capsys):
        lines = self.lines()
        lines.insert(self.BAD_LINE - 1, "zz 1 0")
        path = tmp_path / "coloring.txt"
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        err = self.fails(path, capsys)
        assert err == f"error: line {self.BAD_LINE}: bad hex mask or number in 'zz 1 0'\n"

    def test_undecodable_byte_past_the_first_chunk(self, tmp_path, capsys):
        text = ("\n".join(self.lines()) + "\n").encode()
        path = tmp_path / "coloring.txt"
        path.write_bytes(text[:100_000] + b"\xff" + text[100_000:])
        self.fails(path, capsys)

    def test_missing_file(self, tmp_path, capsys):
        err = self.fails(tmp_path / "nope.txt", capsys)
        assert "nope.txt" in err


class TestStats:
    def test_dim_one_is_exact(self, capsys):
        code, out, _ = run(["stats", "--r", "1", "--trials", "50"], capsys)
        assert code == 0
        fields = out.splitlines()[1].split(",")
        assert fields[0] == "1"
        assert fields[4] == "1.000000"
        assert fields[5] == "1/1"

    def test_small_r_within_four_sigma(self, capsys):
        code, out, _ = run(["stats", "--r", "2:3", "--trials", "4000", "--seed", "7"], capsys)
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 2
        assert all(row.endswith("true") for row in rows)
        assert rows[0].split(",")[5] == "4/9"
        assert rows[1].split(",")[5] == "96/343"

    def test_bad_spec(self, capsys):
        for spec in ("0", "1:0"):
            code, out, err = run(["stats", "--r", spec], capsys)
            assert (code, out) == (2, "")
            assert err == f"error: bad dimension spec {spec!r}\n"

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_is_usage_error(self, capsys, trials):
        code, out, err = run(["stats", "--r", "3", "--trials", trials], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --trials must be >= 1, got {trials}\n"


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("command", ["verify"])
def test_workers_below_one_is_usage_error(tmp_path, capsys, command, workers):
    path = tmp_path / "layer.txt"
    path.write_text(full_layer_text(4, 1))
    code, out, err = run([command, str(path), "--target", "c6", "--workers", workers], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: --workers must be >= 1, got {workers}\n"


@pytest.mark.parametrize("trials", ["0", "-5"])
@pytest.mark.parametrize("command", ["construct", "pipeline"])
def test_trials_below_one_is_usage_error(tmp_path, capsys, command, trials):
    """Named by its flag, as stats names it, before any search or file."""
    out_dir = tmp_path / "out"
    argv = [command, "--n", "4", "--r", "2"] if command == "construct" else [command, "--n", "4"]
    code, out, err = run([*argv, "--trials", trials, "--out", str(out_dir)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: --trials must be >= 1, got {trials}\n"
    assert not out_dir.exists()


class TestWorkersDefault:
    """verify runs in one process by default: at n=16 a whole search is
    shorter than a pool's start-up."""

    def workers(self):
        return cli.build_parser().parse_args(["verify", "x", "--target", "c6"]).workers

    def test_ignores_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert self.workers() == 1

    def test_ignores_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert self.workers() == 1


class TestDeterminism:
    """Outputs are a function of the flags and the seed alone."""

    def test_pipeline_repeats_byte_for_byte(self, tmp_path, capsys):
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code, text, err = run(
                ["pipeline", "--n", "8", "--seed", "0", "--out", str(out)], capsys
            )
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            runs.append((code, text, err, files))
        assert runs[0] == runs[1]
        assert len(runs[0][3]) == 8  # an assignment and a layer file per odd layer

    @pytest.mark.parametrize("target", ["c6", "c6minus", "c10"])
    def test_verify_ignores_the_worker_count(self, tmp_path, capsys, target):
        flips = (0, 1, 2, 3, 4) * 2 if target == "c10" else (4, 5, 6) * 2
        first, second = ring(1 << 9, flips), ring(3 << 8, flips)
        g = planted_graph([first, second], closed=target != "c6minus")
        # an edge list holds no isolated vertex, so the filler 64..76 is paired up
        edges = g.edge_list() + [(v, v + 1) for v in range(64, 78, 2)]
        path = tmp_path / "planted.txt"
        path.write_text(cube.format_edge_list(g.n, edges))
        verts = cli._load_graph(path).vertices
        third = -(-len(verts) // 3)
        # with three workers the first witness starts in the second range
        # and a later one in the third
        assert third <= verts.index(first[0]) < 2 * third <= verts.index(second[0])
        outcomes = [
            run(["verify", str(path), "--target", target, "--workers", w], capsys)
            for w in ("1", "3")
        ]
        assert outcomes[0] == outcomes[1]
        code, out, _ = outcomes[0]
        assert code == 1 and out.split()[1] == f"{first[0]:x}"


# sha256 of every file these calls write, frozen from the code before the
# change under test: the first two from the writer that joined one str per
# lower vertex, before the layer text came in blocks, and the n=10 r=7 layer
# (a losing trial, then the winner) from the scan of the vectors, before the
# upper layers were scanned through the dual code
PINNED_ARTIFACTS = {
    ("pipeline", "--n", "12", "--seed", "0"): {
        "assignment_n12_r1.txt": "9d3ea856b576b3f72ab342aa5b1fc0409fcbad123ce7f0d8cd262bd3e58b4a39",
        "assignment_n12_r3.txt": "aa5e9f920794c6520f2bf2d201ebc38bfc542d368785751d3bd6af8722662748",
        "assignment_n12_r5.txt": "6fb00c4a7f2d2a277acb22ca50fb5e291fd6498ebb26ab1bda77d380f7356e89",
        "assignment_n12_r7.txt": "0e8a7f9755d098e098de5e4e34191161927d95a85b395ab63d1f6a67a83572bb",
        "assignment_n12_r9.txt": "ad951e2dd06d8c30c000ad4c419d2f2c8396e1812d2922c4cf368f641ca9fd67",
        "assignment_n12_r11.txt": "33503fdec707f3cb09f63262aba519a72920f79237a8cd2263138681ff7b0ee8",
        "layer_n12_r1.txt": "9d33272e702961f2a750feccdaa5a672673892e52a97d2a0afc12414be25cf49",
        "layer_n12_r3.txt": "780d64fa3308ec7a828bbfa0a7478de1c8042138d7fe8863078c556251364233",
        "layer_n12_r5.txt": "a8a4fca5f8e0f55d1d7817b5c38376ef54efdcacfb672e8de8f53cd4aa293ce8",
        "layer_n12_r7.txt": "4a9fd6b6dd2fca744b017722093fe3a049c51691e519fd0bc8a4304d4192d8f7",
        "layer_n12_r9.txt": "675d63cdd327353cec3cfc10a807a675d16364045d5ab4f94d23ae1cd809a992",
        "layer_n12_r11.txt": "51129c7df46c4ebf354f4cc7e09b678dd4256bfaf0607bb53e517a7891555b05",
    },
    ("construct", "--n", "9", "--r", "4", "--seed", "0"): {
        "assignment_n9_r4.txt": "c938ac022f166bd0c8c3be4fa88ea363215f9e1e6fcf9ffe0f8d74ac1df3b0a2",
        "layer_n9_r4.txt": "113f0f6df541a3df70c7e11949b1230c2c7fdb0952124bd16d9955eaa33b2353",
    },
    ("construct", "--n", "10", "--r", "7", "--seed", "0"): {
        "assignment_n10_r7.txt": "ee8b9b7a9013134b775e658a1408ad890a106b2afcad5eeaa486ed1e142f9099",
        "layer_n10_r7.txt": "a3c089fc29a54f3a39ae9298b71e0a0081871f32d00602f7e3382761417e475d",
    },
}


@pytest.mark.parametrize("argv", list(PINNED_ARTIFACTS), ids=" ".join)
def test_artifacts_are_pinned(tmp_path, capsys, argv):
    code, _, _ = run([*argv, "--out", str(tmp_path)], capsys)
    assert code == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == PINNED_ARTIFACTS[argv]


# `pipeline --n 12 --seed 0 --coloring <mod-3> --out`, frozen from the code
# that held every layer and split the merged union before it wrote any
# file: the exit code, stderr, the sha256 of stdout and of every file.  The
# layer files are those of the same call without a coloring.
PINNED_CERTIFIED_RUN = {
    "code": 0,
    "stderr": "",
    "stdout": "30811710fbfc58f5dad8db301c08ecb4fc10db4133724144f1c493e34a033795",
    "files": PINNED_ARTIFACTS[("pipeline", "--n", "12", "--seed", "0")],
}


def test_certified_run_is_pinned(tmp_path, capsys):
    n = 12
    coloring = tmp_path / "mod3.txt"
    colors = bytes(j % 3 for x in range(1 << n) for j in range(n) if not x >> j & 1)
    coloring.write_text(format_coloring(bounds.ColoringCertificate(n, colors)))
    out = tmp_path / "out"
    argv = ["pipeline", "--n", str(n), "--seed", "0", "--coloring", str(coloring), "--out", str(out)]
    code, stdout, stderr = run(argv, capsys)
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    got = {"code": code, "stderr": stderr, "stdout": hashlib.sha256(stdout.encode()).hexdigest(), "files": files}
    assert got == PINNED_CERTIFIED_RUN


class TestUsage:
    def test_unknown_target(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify", "x", "--target", "c8"])
        assert info.value.code == 2

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main([])
        assert info.value.code == 2


class TestParseErrors:
    """A bad number in an input file names its line and exits 2."""

    LAYER = "# qn n=2\n1 3\n# layer r={r}\n# lower\n1\n# upper\n{upper}\n"

    def test_bad_coloring_mask(self, tmp_path, capsys):
        path = tmp_path / "coloring.txt"
        path.write_text("# qn-coloring n=2\nzz 1 0\n")
        code, out, err = run(["pipeline", "--n", "2", "--coloring", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: line 2: bad hex mask or number in 'zz 1 0'\n"

    def test_bad_layer_line(self, tmp_path, capsys):
        path = tmp_path / "layer.txt"
        path.write_text(self.LAYER.format(r="x", upper="3"))
        code, out, err = run(["verify", str(path), "--target", "c6"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: line 3: bad layer line '# layer r=x'\n"

    def test_bad_upper_mask(self, tmp_path, capsys):
        path = tmp_path / "layer.txt"
        path.write_text(self.LAYER.format(r="2", upper="3g"))
        code, out, err = run(["verify", str(path), "--target", "c6"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: line 7: bad hex mask in '3g'\n"

    def test_good_layer_still_parses(self, tmp_path, capsys):
        path = tmp_path / "layer.txt"
        path.write_text(self.LAYER.format(r="2", upper="3"))
        assert run(["verify", str(path), "--target", "c6"], capsys) == (0, "c6-free\n", "")


# Lines of text around the layer marker, joined by every line boundary
# that str.splitlines() knows, behind whitespace that is none (tab, \x1f,
# no-break and ideographic spaces), with near misses of the marker and a
# marker in mid-line.
LINE_BOUNDARIES = [
    "\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"
]
LINE_BODIES = ["# layer r=3", "# layer r=", "# layer r", "#  layer r=3", "x # layer r=3", "0 1", ""]
MARKER_LINES = st.tuples(
    st.sampled_from(LINE_BOUNDARIES),
    st.text(alphabet=" \t\x1f\xa0\u3000", max_size=2),
    st.sampled_from(LINE_BODIES),
).map("".join)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(st.lists(MARKER_LINES, max_size=4).map("".join), st.booleans())
def test_layer_marker_is_found_on_the_lines_of_splitlines(text, drop_first_boundary):
    if drop_first_boundary:
        text = text[1:]
    expected = any(line.strip().startswith("# layer r=") for line in text.splitlines())
    assert cli._is_layer_text(text) == expected


class CountingText(str):
    """A str that counts the characters its rfind calls look at."""

    def rfind(self, sub, start=0, end=None):
        self.scanned = getattr(self, "scanned", 0) + (len(self) if end is None else end) - start
        return super().rfind(sub, start, end)


@pytest.mark.parametrize("lines", [1000, 4000])
def test_layer_marker_search_is_linear_in_the_text(lines):
    """A marker in mid-line on every line: each search for a line start
    stops at the previous marker, so the characters looked at grow with
    the text, not with its square."""
    body = "# qn n=3\n" + "1 3 x# layer r=\n" * lines
    text = CountingText(body)
    assert not cli._is_layer_text(text)
    assert text.scanned <= len(cli._LINE_BREAKS) * len(text)
    text = CountingText(body + " # layer r=2\n")
    assert cli._is_layer_text(text)
    assert text.scanned <= len(cli._LINE_BREAKS) * len(text)


def test_many_markers_in_mid_line_exit_2(tmp_path, capsys):
    """Half a megabyte of edge lines with a marker in each is an edge list
    with bad lines, reported on its first one."""
    path = tmp_path / "edges.txt"
    path.write_text("# qn n=3\n" + "1 3 x# layer r=\n" * 32768)
    code, out, err = run(["verify", str(path), "--target", "c6"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: line 2: expected two hex masks, got '1 3 x# layer r='\n"
