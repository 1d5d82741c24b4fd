"""No public entry point leaves reference cycles behind, and the report
suite holds one layer at a time.

Ints are not tracked by the cyclic collector, so allocating them never
triggers it.  A cycle left by a call, such as a nested function that
refers to itself, then keeps everything it reaches alive, lists of
survivors or a neighbor map, until some later allocation of tracked
objects runs the collector.  Each entry point is called once to warm up
caches, then again with the collector off; afterwards a collection must
find nothing to free.

Every test here sees the process on one CPU, where the suite forks no
layer helper, so the calls and peaks measured are those of a process that
runs every layer step itself.  tests/test_helper.py checks the helper's
own loop for one layer at a time, and the parent for garbage cycles.
"""

import gc
import io
import os
import tracemalloc

import pytest

from qturan.bounds import (
    COLORING_RULES,
    ColoringCertificate,
    _certificate_coloring,
    _split_layer,
    c10_pipeline,
    density_report_suite,
    read_coloring,
)
from qturan.construction import build_layer_graph, find_good_assignment, sample_assignment
from qturan.cube import edge_count, format_layer_graph, layer_graph_text, parse_layer_graph
from qturan.detector import find_c6_minus, find_cycle_generic

from helpers import format_coloring
from oracles import subgraph_of_union

N = 10

CALLS = {
    "build_layer_graph": lambda d: build_layer_graph(sample_assignment(N, 5, 0)),
    "find_good_assignment": lambda d: find_good_assignment(N, 5, 0),
    "density_report_suite": lambda d: density_report_suite(N, 0),
    "density_report_suite_on_layer": lambda d: density_report_suite(
        N, 0, certificate=d["cert"], on_layer=lambda r, found: "".join(layer_graph_text(found.graph))
    ),
    "find_cycle_generic_6": lambda d: find_cycle_generic(d["graph"], 6),
    "find_cycle_generic_10": lambda d: find_cycle_generic(d["graph"], 10),
    "find_c6_minus": lambda d: find_c6_minus(d["graph"]),
    "c10_pipeline": lambda d: c10_pipeline(d["union"], d["cert"]),
    "density_report_suite_rank": lambda d: density_report_suite(N, 0, coloring_rule="rank"),
    "layer_graph_text": lambda d: "".join(layer_graph_text(d["union"].layers[5])),
    "parse_layer_graph": lambda d: parse_layer_graph(d["layer_text"]),
    "read_coloring": lambda d: read_coloring(io.StringIO(d["coloring_text"])),
}


@pytest.fixture(autouse=True)
def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def mod3_certificate(n):
    # slots follow the edges in (base, coord) order: color each coord mod 3
    return ColoringCertificate(n, bytes(j % 3 for x in range(1 << n) for j in range(n) if not x >> j & 1))


@pytest.fixture(scope="module")
def inputs():
    union = density_report_suite(N, 0).union
    cert = mod3_certificate(N)
    return {
        "union": union,
        "graph": subgraph_of_union(union),
        "cert": cert,
        "layer_text": format_layer_graph(union.layers[5]),
        "coloring_text": format_coloring(cert),
    }


@pytest.mark.parametrize("name", list(CALLS))
def test_no_garbage_cycles(inputs, name):
    call = CALLS[name]
    call(inputs)
    gc.collect()
    gc.disable()
    try:
        call(inputs)
        assert gc.collect() == 0
    finally:
        gc.enable()


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_layer_sets_the_peak():
    """At n=14 with the mod-3 certificate, and again with the rank rule,
    the suite's tracemalloc peak stays within 1.25 times the peak of its
    largest layer alone: built from its assignment, split into its classes
    and each class searched for a C10.  Both measured 1.17 times (364
    against 312 KB; the certificate is made before either is traced); the
    suite that held every layer, their merged union and three class graphs
    over all of its vertices peaked at 1065 KB with the certificate, 3.0
    times its layer then.  A first run fills the caches."""
    n = 14
    cert = mod3_certificate(n)
    routes = {
        "mod-3 certificate": (_certificate_coloring(cert, n), {"certificate": cert}),
        "rank rule": (COLORING_RULES["rank"](n), {"coloring_rule": "rank"}),
    }
    for name, (split_by, coloring) in routes.items():
        suite = density_report_suite(n, 0, **coloring)
        largest = max(suite.assignments.values(), key=lambda a: edge_count(build_layer_graph(a)))

        def one_layer():
            for sub in _split_layer(build_layer_graph(largest), split_by):
                find_cycle_generic(sub, 10)

        one_layer()
        layer_peak = traced_peak(one_layer)
        suite_peak = traced_peak(lambda: density_report_suite(n, 0, **coloring))
        assert suite_peak < 1.25 * layer_peak, (name, suite_peak, layer_peak)
