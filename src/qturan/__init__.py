"""Dense C6-free layer subgraphs of the hypercube.

Random GF(2) vector assignments carve induced subgraphs out of hypercube
layers that are C6-free for every draw while keeping more than a constant
fraction of the layer's edges.  This package builds them, verifies their
freeness with independent detectors, and accounts for the densities of the
per-layer graphs, their odd-layer union and the best color class of an
externally supplied 3-coloring, all in exact rational arithmetic.

The public names are loaded from their modules on first access (PEP 562),
so importing the package loads no submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name, by the module that defines it
_HOMES = {
    "gf2": ("GF2Vec", "rank", "is_basis", "in_span", "quotient_image", "sample_nonzero"),
    "cube": (
        "CapacityError", "LayerId", "LayerSubgraph", "edge_count", "layer_edge_count", "cube_edge_count",
    ),
    "construction": (
        "VectorAssignment", "UnionGraph", "SearchResult", "TrialsExhausted", "sample_assignment",
        "build_layer_graph", "union_odd_layers", "edge_probability_closed_form", "constant_c",
        "constant_c_enclosure", "find_good_assignment",
    ),
    "detector": (
        "CubeSubgraph", "CycleWitness", "PathWitness", "SubcubePattern", "C6Obstruction",
        "find_cycle_generic", "find_c6_minus", "find_c6_structured", "explain_c6_impossibility",
    ),
    "bounds": (
        "ColoringCertificate", "DensityReport", "PipelineOutcome", "SuiteResult", "verify_coloring",
        "monochromatic_certificate", "c10_pipeline", "density_report_suite",
    ),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
