"""No public entry point leaves reference cycles behind.

Ints are not tracked by the cyclic collector, so allocating them never
triggers it.  A cycle left by a call, such as a nested function that
refers to itself, then keeps everything it reaches alive, lists of
survivors or a neighbor map, until some later allocation of tracked
objects runs the collector.  Each entry point is called once to warm up
caches, then again with the collector off; afterwards a collection must
find nothing to free.
"""

import gc
import io

import pytest

from qturan.bounds import (
    ColoringCertificate,
    c10_pipeline,
    density_report_suite,
    format_coloring,
    read_coloring,
    search_coloring_small_n,
)
from qturan.construction import (
    build_layer_graph,
    find_good_assignment,
    format_layer_graph,
    parse_layer_graph,
    sample_assignment,
)
from qturan.detector import find_c6_minus, find_cycle_generic, subgraph_of_union

N = 10

CALLS = {
    "build_layer_graph": lambda d: build_layer_graph(sample_assignment(N, 5, 0)),
    "find_good_assignment": lambda d: find_good_assignment(N, 5, 0),
    "density_report_suite": lambda d: density_report_suite(N, 0),
    "find_cycle_generic_6": lambda d: find_cycle_generic(d["graph"], 6),
    "find_cycle_generic_10": lambda d: find_cycle_generic(d["graph"], 10),
    "find_c6_minus": lambda d: find_c6_minus(d["graph"]),
    "c10_pipeline": lambda d: c10_pipeline(d["union"], d["cert"]),
    "search_coloring_small_n": lambda d: search_coloring_small_n(d["union"], 5, 0),
    "parse_layer_graph": lambda d: parse_layer_graph(d["layer_text"]),
    "read_coloring": lambda d: read_coloring(io.StringIO(d["coloring_text"])),
}


@pytest.fixture(scope="module")
def inputs():
    union = density_report_suite(N, 0).union
    # the coordinate of the edge in slot s is s >> (N - 1): color it mod 3
    cert = ColoringCertificate(N, bytes((s >> (N - 1)) % 3 for s in range(N << (N - 1))))
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
