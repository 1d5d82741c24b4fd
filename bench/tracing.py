"""The traced run: per-layer metrics from timed calls into the public
functions of qturan's modules, in this process.

Spans are kept in memory and written as JSON lines to
bench/out/trace-s<seed>.jsonl when the run ends.  tracemalloc is on only
around the calls whose peak is reported, in a second call apart from the
timed one.  The inputs are those of the three workloads, whatever the
workload named on the command line, so every traced run reports every
per-layer metric.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from itertools import combinations
from math import comb
from pathlib import Path

import inputs
import reference as R
from reference import require
from workloads import CertifyN16, PipelineN18, VerifyN16

# spans whose summed time is reported as "<name>_s"
TIMED_SPANS = (
    "construction.search",
    "construction.build_layer_graph",
    "construction.edge_count",
    "construction.format_layer",
    "construction.parse_layer",
    "gf2.rank_bits",
    "cube.subsets",
    "cube.cube_edges",
    "detector.c6",
    "detector.c6minus",
    "detector.c10",
    "detector.c6_structured",
    "detector.c10_classes",
    "bounds.suite",
    "bounds.parse_coloring",
    "bounds.verify_coloring",
    "bounds.c10_pipeline",
)
CLI_REPEATS = 5
CLI_PROBE = ("pipeline", "--n", "10", "--seed", "0")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        span = {"id": len(self.spans), "name": name, "parent": self.stack[-1] if self.stack else None}
        span.update(attrs)
        self.spans.append(span)
        self.stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self.stack.pop()

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def write(self, path: Path) -> None:
        with path.open("w") as f:
            f.writelines(json.dumps(s) + "\n" for s in self.spans)


def peak_mb(fn, *args, **kwargs) -> float:
    """Peak of the memory fn allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run(root: Path, work: Path, seed: int) -> dict:
    sys.path.insert(0, str(root / "src"))
    from qturan import bounds, cli, construction, cube, detector, gf2

    workers = cli.build_parser().parse_args(["verify", "x", "--target", "c6"]).workers
    t = Tracer()
    m: dict[str, float] = {}
    correct = True
    try:
        # cli, first, while this process is still small: a small pipeline
        # call in a fresh process and as library calls
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        n_probe, s_probe = int(CLI_PROBE[2]), int(CLI_PROBE[4])
        for _ in range(CLI_REPEATS):
            with t.span("cli.process", argv=list(CLI_PROBE)):
                proc = subprocess.run(
                    [sys.executable, "-m", "qturan.cli", *CLI_PROBE], env=env, capture_output=True, text=True
                )
            with t.span("cli.library"):
                csv = bounds.reports_to_csv(list(bounds.density_report_suite(n_probe, s_probe).reports))
            require(
                proc.returncode == 0 and proc.stdout == csv, "the CLI prints other reports than the library"
            )
        cli_s = [sp["end"] - sp["start"] for sp in t.spans if sp["name"] == "cli.process"]
        lib_s = [sp["end"] - sp["start"] for sp in t.spans if sp["name"] == "cli.library"]
        m["cli.overhead_s"] = statistics.median(cli_s) - statistics.median(lib_s)

        # pipeline-n18: the resampling loop and its parts
        n, s = PipelineN18.n, PipelineN18.seed
        with t.span("pipeline-n18", n=n, seed=s):
            found = {}
            for r in range(1, n + 1, 2):
                with t.span("construction.search", r=r) as sp:
                    found[r] = construction.find_good_assignment(n, r, construction.derive_seed(s, r))
                sp["trials"] = found[r].trials
            graphs, edges = {}, {}
            for r, res in found.items():
                with t.span("construction.build_layer_graph", r=r):
                    graphs[r] = construction.build_layer_graph(res.assignment)
            for r, g in graphs.items():
                with t.span("construction.edge_count", r=r):
                    edges[r] = construction.edge_count(g)
            with t.span("construction.format_layer"):
                texts = {r: construction.format_layer_graph(g) for r, g in graphs.items()}
            mid = max(found, key=lambda r: comb(n, r))
            vectors = [v.bits for v in found[mid].assignment.vectors]
            rows = [[vectors[i] for i in c] for c in combinations(range(n), mid)]
            with t.span("gf2.rank_bits", r=mid, calls=len(rows)):
                full = sum(1 for row in rows if gf2.rank_bits(row) == mid)
            with t.span("cube.subsets"):
                subsets = sum(1 for r in found for k in (r - 1, r) for _ in cube.subsets_of_size(n, k))
            with t.span("bounds.suite", n=n, seed=s):
                suite = bounds.density_report_suite(n, s)
        for r, res in found.items():
            layer = R.check_layer_export(construction.format_assignment(res.assignment), texts[r], n, r)
            require(res.edges == edges[r] == len(layer.edges), f"layer {r}: edge counts disagree")
            require(suite.trials[r] == res.trials, f"layer {r}: the suite used other trials than the search")
        require(full == len(graphs[mid].upper), "rank_bits disagrees with the upper side")
        require(subsets == sum(comb(n, k) for r in found for k in (r - 1, r)), "subset count is wrong")
        trials = sum(res.trials for res in found.values())
        m["construction.trials"] = trials
        m["construction.survivors"] = sum(len(g.lower) + len(g.upper) for g in graphs.values())
        m["construction.edges"] = sum(edges.values())

        # verify-n16: the detectors on the workload's layer
        v = VerifyN16()
        text = construction.format_layer_graph(construction.find_good_assignment(v.n, v.r, v.seed).graph)
        with t.span("verify-n16", n=v.n, r=v.r):
            with t.span("construction.parse_layer"):
                g = construction.parse_layer_graph(text)
            sub = detector.subgraph_of_layer(g)
            with t.span("detector.c6"):
                c6 = detector.find_cycle_generic(sub, 6)
            with t.span("detector.c6minus"):
                c6minus = detector.find_c6_minus(sub)
            with t.span("detector.c10"):
                c10 = detector.find_cycle_generic(sub, 10)
            with t.span("detector.c6minus_pool", workers=workers):
                pooled = detector.find_c6_minus(sub, workers=workers)
        layer = R.parse_layer(text)
        R.check_free_layer(layer)
        require(
            c6 is None and c6minus is None and pooled is None, "a detector found a C6 or C6- in a free layer"
        )
        require(c10 is not None, "no C10 found in the verify layer")
        R.check_cycle(c10.vertices, 10, R.edge_test(layer.edges))

        # certify-n16: the certificate and the class split
        c = CertifyN16()
        union = bounds.density_report_suite(c.n, c.seed).union
        inputs.write_coloring(c.coloring(work, c.n), c.n)
        coloring = c.coloring(work, c.n).read_text()
        with t.span("certify-n16", n=c.n):
            for r, lg in union.layers.items():
                with t.span("detector.c6_structured", r=r):
                    require(detector.find_c6_structured(lg) is None, f"layer {r} of Q_{c.n} holds a C6")
            with t.span("cube.cube_edges"):
                cube_edges = sum(1 for _ in cube.cube_edges(c.n))
            with t.span("bounds.parse_coloring"):
                cert = bounds.parse_coloring(coloring)
            with t.span("bounds.verify_coloring"):
                valid = bounds.verify_coloring(cert)
            with t.span("bounds.c10_pipeline", workers=workers):
                outcome = bounds.c10_pipeline(union, cert, workers=workers)
            vertices = set().union(*(set(lg.lower) | set(lg.upper) for lg in union.layers.values()))
            classes = [[] for _ in range(3)]
            for lg in union.layers.values():
                for x, y in construction.edge_pairs(lg):
                    classes[inputs.rule_color((x ^ y).bit_length() - 1)].append((x, y))
            witnesses = []
            for k, class_edges in enumerate(classes):
                class_graph = detector.CubeSubgraph.explicit(c.n, vertices, class_edges)
                with t.span("detector.c10_classes", color=k):
                    witnesses.append(detector.find_cycle_generic(class_graph, 10))
        m["bounds.parse_coloring_peak_mb"] = peak_mb(bounds.parse_coloring, coloring)
        m["bounds.verify_coloring_peak_mb"] = peak_mb(bounds.verify_coloring, cert)
        m["bounds.c10_pipeline_peak_mb"] = peak_mb(bounds.c10_pipeline, union, cert, workers=workers)
        require(cube_edges == c.n << (c.n - 1), "cube_edges yields the wrong number of edges")
        require(valid, "verify_coloring rejects the mod-3 certificate")
        require(
            not outcome.success and sorted(outcome.witnesses) == [0, 1, 2], "expected a C10 in every class"
        )
        for k, class_edges in enumerate(classes):
            for w in (outcome.witnesses[k], witnesses[k]):
                require(w is not None, f"class {k}: no C10 found")
                R.check_cycle(w.vertices, 10, R.edge_test(class_edges))
        m.update({f"{name}_s": t.seconds(name) for name in TIMED_SPANS})
        m["construction.trial_s"] = m["construction.search_s"] / trials
        m["detector.c6minus_pool_ratio"] = m["detector.c6minus_s"] / t.seconds("detector.c6minus_pool")
    except R.CheckError as exc:
        print(f"trace: {exc}", file=sys.stderr)
        correct = False
    finally:
        t.write(root / "bench" / "out" / f"trace-s{seed}.jsonl")

    metrics = {k: {"value": val, "unit": unit(k)} for k, val in m.items()}
    calls = sum(1 for s in t.spans if "." in s["name"])
    return {"correct": correct, "attempted": calls, "failed": 0, "metrics": metrics}


def unit(metric: str) -> str:
    for suffix, name in (("_s", "s"), ("_mb", "MB"), ("_ratio", "x")):
        if metric.endswith(suffix):
            return name
    return "count"
