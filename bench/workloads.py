"""The three workloads: the qturan CLI calls each one times, its inputs, and
the checks of its outputs against the reference.

The qturan seeds of the timed calls are fixed.  The resampling search draws
a geometric number of trials per layer, so one `pipeline --n 16` call took
from 0.49 s to 1.41 s over qturan seeds 0..11 (interquartile range 26% of
the median) while repeats of one seed spread 5%.  With seed-dependent
inputs, wall_s would measure the seed rather than the code.  The
benchmark's --seed instead picks the inputs of the controls: small calls,
untimed, whose outputs the same reference checks, so that each run also
checks inputs it has not seen before.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs
import reference as R
from reference import require

OUT = "{out}"  # stands for a fresh artifact directory in a call's arguments


@dataclass(frozen=True)
class Call:
    key: str
    argv: tuple[str, ...]
    exit_code: int


@dataclass(frozen=True)
class Result:
    call: Call
    wall: float
    rss_kb: int
    code: int
    stdout: str
    stderr: str
    out: Path | None


def check_exports(out: Path, n: int) -> dict[int, R.Layer]:
    """Every odd layer's assignment and layer file, recounted."""
    layers = list(range(1, n + 1, 2))
    names = sorted(p.name for p in out.iterdir())
    expect = sorted(f"{kind}_n{n}_r{r}.txt" for kind in ("assignment", "layer") for r in layers)
    require(names == expect, f"artifacts {names}, expected {expect}")
    return {
        r: R.check_layer_export(
            (out / f"assignment_n{n}_r{r}.txt").read_text(),
            (out / f"layer_n{n}_r{r}.txt").read_text(),
            n,
            r,
        )
        for r in layers
    }


def check_witness(res: Result, target: str, edges) -> None:
    """verify found a valid witness for target in the graph with these edges."""
    lines = res.stdout.splitlines()
    require(len(lines) == 1, f"{res.call.key}: expected one witness line, got {lines}")
    has_edge = R.edge_test(edges)
    if target == "c6minus":
        R.check_c6_minus(R.parse_witness(lines[0], "C6-"), has_edge)
    else:
        length = int(target[1:])
        R.check_cycle(R.parse_witness(lines[0], f"C{length}"), length, has_edge)


def class_edge_test(edges, k: int):
    """Edges of the graph that the mod-3 rule gives color k."""
    in_graph = R.edge_test(edges)
    return lambda v, w: in_graph(v, w) and inputs.rule_color((v ^ w).bit_length() - 1) == k


def check_pipeline(res: Result, n: int, final_class: bool = False) -> dict[int, R.Layer]:
    """Exports recounted and reports checked; with final_class, the final
    row scores the class of the mod-3 rule with the most union edges.
    Returns the exported layers."""
    layers = check_exports(res.out, n)
    edges = {r: len(g.edges) for r, g in layers.items()}
    final = None
    if final_class:
        counts = [0, 0, 0]
        for g in layers.values():
            for x, y in g.edges:
                counts[inputs.rule_color((x ^ y).bit_length() - 1)] += 1
        final = max(counts)
    R.check_reports(res.stdout, n, edges, union=True, final=final)
    return layers


class PipelineN18:
    name = "pipeline-n18"
    n, seed = 18, 0

    def calls(self, work: Path) -> list[Call]:
        return [Call("pipeline", ("pipeline", "--n", str(self.n), "--seed", str(self.seed), "--out", OUT), 0)]

    def check(self, results: dict[str, Result], work: Path) -> None:
        res = results["pipeline"]
        require(res.stderr == "", f"unexpected stderr {res.stderr!r}")
        check_pipeline(res, self.n)

    def controls(self, work: Path, seed: int) -> list[tuple[Call, Callable[[Result], None]]]:
        """The same chain at n = 10 on the run's seed."""
        call = Call("control-n10", ("pipeline", "--n", "10", "--seed", str(seed), "--out", OUT), 0)
        return [(call, lambda res: check_pipeline(res, 10))]


class VerifyN16:
    name = "verify-n16"
    n, r, seed = 16, 9, 0
    targets = (("c6", 0), ("c6minus", 0), ("c10", 1))

    def layer(self, work: Path) -> Path:
        return work / f"layer_n{self.n}_r{self.r}.txt"

    def calls(self, work: Path) -> list[Call]:
        path = str(self.layer(work))
        return [Call(t, ("verify", path, "--target", t), code) for t, code in self.targets]

    def check(self, results: dict[str, Result], work: Path) -> None:
        g = R.check_layer_export(
            (work / f"assignment_n{self.n}_r{self.r}.txt").read_text(),
            self.layer(work).read_text(),
            self.n,
            self.r,
        )
        R.check_reports((work / "construct.csv").read_text(), self.n, {self.r: len(g.edges)}, union=False)
        R.check_free_layer(g)
        for t in ("c6", "c6minus"):
            got = results[t].stdout
            require(got == f"{t}-free\n", f"{t}: expected '{t}-free', got {got!r}")
        check_witness(results["c10"], "c10", g.edges)

    def controls(self, work: Path, seed: int) -> list[tuple[Call, Callable[[Result], None]]]:
        """Graphs that hold the target, so that verify must answer with a
        witness: planted cycles on the run's seed, and a full layer of Q_6."""
        graphs = [
            (f"planted_{t}", t, edges, inputs.edge_list_text(8, edges))
            for t, edges in inputs.planted_controls(seed).items()
        ]
        lower, upper = inputs.full_layer(6, 3)
        edges = sorted(R.inclusion_pairs(6, lower, upper))
        text = inputs.layer_text(6, 3, lower, upper)
        graphs += [(f"full_layer_{t}", t, edges, text) for t in ("c6", "c6minus", "c10")]
        out = []
        for stem, target, edges, text in graphs:
            path = work / f"{stem}.txt"
            path.write_text(text)
            call = Call(stem, ("verify", str(path), "--target", target), 1)
            out.append((call, lambda res, target=target, edges=edges: check_witness(res, target, edges)))
        return out


class CertifyN16:
    name = "certify-n16"
    n, seed = 16, 0

    def coloring(self, work: Path, n: int) -> Path:
        return work / f"coloring_n{n}.txt"

    def calls(self, work: Path) -> list[Call]:
        argv = ("pipeline", "--n", str(self.n), "--seed", str(self.seed))
        return [Call("certify", argv + ("--coloring", str(self.coloring(work, self.n)), "--out", OUT), 1)]

    def check(self, results: dict[str, Result], work: Path) -> None:
        """Every class of the mod-3 rule holds a C10 at n = 16, so the run
        ends in exit 1 with no final row and one witness per class."""
        res = results["certify"]
        layers = check_pipeline(res, self.n)
        union = [e for g in layers.values() for e in g.edges]
        lines = res.stderr.splitlines()
        require(len(lines) == 3, f"expected one witness per class, got {lines}")
        for k, line in enumerate(lines):
            prefix = f"class {k}: "
            require(line.startswith(prefix), f"expected {prefix!r}, got {line!r}")
            R.check_cycle(R.parse_witness(line[len(prefix):], "C10"), 10, class_edge_test(union, k))

    def controls(self, work: Path, seed: int) -> list[tuple[Call, Callable[[Result], None]]]:
        """The same chain at n = 4 on the run's seed.  Each class of the
        mod-3 rule then uses at most two coordinates, so its cycles are
        squares: every class is C10-free and the best one is scored."""
        path = self.coloring(work, 4)
        inputs.write_coloring(path, 4)
        argv = ("pipeline", "--n", "4", "--seed", str(seed), "--coloring", str(path), "--out", OUT)

        def check(res: Result) -> None:
            require(res.stderr == "", f"unexpected stderr {res.stderr!r}")
            check_pipeline(res, 4, final_class=True)

        return [(Call("control-n4", argv, 0), check)]


WORKLOADS = {w.name: w for w in (PipelineN18(), VerifyN16(), CertifyN16())}
