"""Command-line front end.

Exit codes encode outcomes: 0 = free/pass, 1 = witness found or a failed
bound, 2 = usage or input error, 3 = capacity exceeded or out of memory,
4 = trial budget exhausted.  Every output is a deterministic function of
the subcommand, its flags and the seed.

Each subcommand imports the modules it runs, so that verify never loads
the sampler and the density code, nor an uncolored pipeline the detectors.
"""

from __future__ import annotations

import argparse
import os
import sys
from math import sqrt
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

from . import cube

if TYPE_CHECKING:
    from .construction import SearchResult
    from .detector import CubeSubgraph

EXIT_FREE = 0
EXIT_WITNESS = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_EXHAUSTED = 4

# the names of bounds.COLORING_RULES, so that parsing the flags loads no bounds
COLORING_RULES = ("rank",)


def _report_lines(reports, fmt: str) -> str:
    from . import bounds

    if fmt == "csv":
        return bounds.reports_to_csv(list(reports))
    rows = [("n", "r", "scope", "achieved", "ambient", "ratio", "bound", "pass")]
    for rep in reports:
        rows.append(
            (
                str(rep.n),
                "" if rep.r is None else str(rep.r),
                rep.scope,
                str(rep.achieved_edges),
                str(rep.ambient_edges),
                f"{float(rep.ratio):.6f}",
                rep.bound_name,
                "pass" if rep.passed else "FAIL",
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(f"{c:<{w}}" for c, w in zip(row, widths)) for row in rows) + "\n"


def _cmd_construct(args) -> int:
    from . import bounds, construction

    _require_positive("--trials", args.trials)
    try:
        result = construction.find_good_assignment(args.n, args.r, args.seed, args.trials)
    except construction.TrialsExhausted as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_EXHAUSTED
    assignment_path, layer_path = _LayerWriter(Path(args.out), args.n)(args.r, result)
    layer = cube.LayerId(args.n, args.r)
    report = bounds.make_report(
        args.n, args.r, "layer", result.edges, cube.layer_edge_count(layer), "c/2"
    )
    sys.stdout.write(_report_lines([report], args.format))
    sys.stderr.write(f"wrote {assignment_path} and {layer_path} after {result.trials} trial(s)\n")
    return EXIT_FREE if report.passed else EXIT_WITNESS


_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # where str.splitlines() cuts


def _is_layer_text(text: str) -> bool:
    """True when a line of text starts with '# layer r=' once stripped.

    The search for a marker's line start reaches back only to the previous
    marker: a line that starts before it holds that marker's '#', so it is
    not blank up to this one.  The whole check is thus linear in the text.
    """
    prev, at = 0, text.find("# layer r=")
    while at >= 0:
        brk = max(text.rfind(c, prev, at) for c in _LINE_BREAKS)
        # prev is 0 only for the first marker, whose line may start the text
        if (brk >= 0 or prev == 0) and not text[brk + 1 : at].strip():
            return True
        prev, at = at, text.find("# layer r=", at + 1)
    return False


def _load_graph(path: Path) -> CubeSubgraph:
    from . import detector

    text = path.read_text()
    if _is_layer_text(text):
        return detector.subgraph_of_layer(cube.parse_layer_graph(text))
    n, edges = cube.parse_edge_list(text)
    vertices = {v for edge in edges for v in edge}
    return detector.CubeSubgraph.explicit(n, vertices, edges)


def _require_positive(flag: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{flag} must be >= 1, got {value}")


def _cmd_verify(args) -> int:
    from . import detector

    _require_positive("--workers", args.workers)
    graph = _load_graph(Path(args.path))
    if args.target == "c6minus":
        witness = detector.find_c6_minus(graph, workers=args.workers)
    else:
        length = int(args.target[1:])
        witness = detector.find_cycle_generic(graph, length, workers=args.workers)
    if witness is None:
        sys.stdout.write(f"{args.target}-free\n")
        return EXIT_FREE
    sys.stdout.write(detector.witness_line(witness) + "\n")
    return EXIT_WITNESS


class _LayerWriter:
    """Writes a layer's files into out."""

    def __init__(self, out: Path, n: int):
        self.out = out
        self.n = n

    def paths(self, r: int) -> tuple[Path, Path]:
        return self.out / f"assignment_n{self.n}_r{r}.txt", self.out / f"layer_n{self.n}_r{r}.txt"

    def __call__(self, r: int, found: SearchResult) -> tuple[Path, Path]:
        from .construction import format_assignment

        assignment_path, layer_path = self.paths(r)
        self.out.mkdir(parents=True, exist_ok=True)
        assignment_path.write_text(format_assignment(found.assignment))
        with layer_path.open("w") as stream:
            stream.writelines(cube.layer_graph_text(found.graph))
        return assignment_path, layer_path

    def discard_above(self, r: int) -> None:
        """Remove the files of every odd layer above r: a suite that fails
        at layer r may have written them in either of its processes."""
        for above in range(r + 2, self.n + 1, 2):
            for path in self.paths(above):
                if path.is_file():
                    path.unlink()


def _cmd_pipeline(args) -> int:
    _require_positive("--trials", args.trials)
    if args.coloring is None:
        return _pipeline(args, None)
    # opened here, so that a missing file exits 2 before the suite forks;
    # the suite reads it
    with Path(args.coloring).open() as stream:
        return _pipeline(args, stream)


def _pipeline(args, coloring: TextIO | None) -> int:
    from . import bounds

    writer = None if args.out is None else _LayerWriter(Path(args.out), args.n)
    try:
        suite = bounds.density_report_suite(
            args.n,
            args.seed,
            certificate=coloring,
            max_trials=args.trials,
            on_layer=writer,
            coloring_rule=args.coloring_rule,
        )
    except bounds.SuiteExhausted as exc:
        if writer is not None:
            writer.discard_above(exc.cause.r)
        sys.stdout.write(_report_lines(exc.partial_reports, args.format))
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_EXHAUSTED
    except MemoryError as exc:
        failed = getattr(exc, "layer", None)  # the handler's end lets the layer's frames go
    except Exception as exc:
        if writer is not None and hasattr(exc, "layer"):
            writer.discard_above(exc.layer)
        raise
    else:
        sys.stdout.write(_report_lines(suite.reports, args.format))
        pipeline = suite.pipeline
        if pipeline is not None and not pipeline.success:
            from .detector import witness_line

            for k, witness in sorted(pipeline.witnesses.items()):
                sys.stderr.write(f"class {k}: {witness_line(witness)}\n")
            return EXIT_WITNESS
        return EXIT_FREE if all(rep.passed for rep in suite.reports) else EXIT_WITNESS
    if writer is not None and failed is not None:
        writer.discard_above(failed)
    raise MemoryError


def _parse_r_spec(spec: str) -> list[int]:
    """The dimensions of spec.  An empty range is refused wherever it sits,
    and a part that holds an r above gf2.MAX_DIM before it is expanded, so
    a huge range costs no memory."""
    from .gf2 import MAX_DIM

    values = []
    for part in spec.split(","):
        if ":" in part:
            lo, hi = map(int, part.split(":", 1))
        else:
            lo = hi = int(part)
        if lo > hi:
            raise ValueError(f"bad dimension spec {spec!r}")
        if hi > MAX_DIM:
            raise ValueError(f"bad dimension spec {spec!r}: r must be at most {MAX_DIM}")
        values.extend(range(lo, hi + 1))
    if min(values) < 1:
        raise ValueError(f"bad dimension spec {spec!r}")
    return values


def _cmd_stats(args) -> int:
    from . import construction

    _require_positive("--trials", args.trials)
    rs = _parse_r_spec(args.r)
    sys.stdout.write("r,n,trials,successes,empirical,exact,exact_float,z,within_4_sigma\n")
    for r in rs:
        n = 2 * r
        x = (1 << (r - 1)) - 1
        y = (1 << r) - 1
        hits = 0
        for t in range(args.trials):
            a = construction.sample_assignment(n, r, construction.derive_seed(args.seed, t))
            if construction.member_lower(a, x) and construction.member_upper(a, y):
                hits += 1
        exact = construction.edge_probability_closed_form(r)
        p = float(exact)
        freq = hits / args.trials
        sigma = sqrt(p * (1 - p) / args.trials)
        z = 0.0 if sigma == 0 else (freq - p) / sigma
        ok = "true" if abs(z) <= 4 else "false"
        sys.stdout.write(
            f"{r},{n},{args.trials},{hits},{freq:.6f},"
            f"{exact.numerator}/{exact.denominator},{p:.6f},{z:+.3f},{ok}\n"
        )
    return EXIT_FREE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qturan",
        description="Dense C6-free layer subgraphs of the hypercube: "
        "construction, verification and density reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="sample one layer graph beating the c/2 bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=512)
    p.add_argument("--out", default=".")
    p.add_argument("--format", choices=("text", "csv"), default="csv")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="search an exported graph for a forbidden subgraph")
    p.add_argument("path")
    p.add_argument("--target", choices=("c4", "c6", "c6minus", "c10"), required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("pipeline", help="layer + union (+ color class) density reports")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    coloring = p.add_mutually_exclusive_group()
    coloring.add_argument("--coloring", help="path to a 3-coloring certificate of E(Q_n)")
    coloring.add_argument(
        "--coloring-rule",
        choices=COLORING_RULES,
        help="color edge (x, x | 1<<j) by a rule; rank: |x & (2^j - 1)| mod 3",
    )
    p.add_argument("--trials", type=int, default=512)
    p.add_argument("--out", help="directory for assignment and layer artifacts")
    p.add_argument("--format", choices=("text", "csv"), default="csv")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("stats", help="Monte Carlo edge survival vs the closed form")
    p.add_argument("--r", default="2:5", help="dimension spec, e.g. '3', '2:5' or '2,4'")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except cube.CapacityError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAPACITY
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except MemoryError:
        pass  # out of the handler, the traceback and the graph its frames hold are freed
    os.write(2, b"error: out of memory\n")
    return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
