"""Dense C6-free layer subgraphs of the hypercube.

Random GF(2) vector assignments carve induced subgraphs out of hypercube
layers that are C6-free for every draw while keeping more than a constant
fraction of the layer's edges.  This package builds them, verifies their
freeness with independent detectors, and accounts for the densities of the
per-layer graphs, their odd-layer union and the best color class of an
externally supplied 3-coloring, all in exact rational arithmetic.
"""

from .bounds import (
    ColoringCertificate,
    DensityReport,
    PipelineOutcome,
    SuiteResult,
    c10_pipeline,
    density_report_suite,
    monochromatic_certificate,
    verify_coloring,
)
from .construction import (
    LayerSubgraph,
    SearchResult,
    TrialsExhausted,
    UnionGraph,
    VectorAssignment,
    build_layer_graph,
    constant_c,
    constant_c_enclosure,
    edge_count,
    edge_probability_closed_form,
    find_good_assignment,
    sample_assignment,
    union_odd_layers,
)
from .cube import CapacityError, LayerId, cube_edge_count, layer_edge_count
from .detector import (
    C6Obstruction,
    CubeSubgraph,
    CycleWitness,
    PathWitness,
    SubcubePattern,
    explain_c6_impossibility,
    find_c6_minus,
    find_c6_structured,
    find_cycle_generic,
)
from .gf2 import GF2Vec, in_span, is_basis, quotient_image, rank, sample_nonzero

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "GF2Vec",
    "rank",
    "is_basis",
    "in_span",
    "quotient_image",
    "sample_nonzero",
    "CapacityError",
    "LayerId",
    "layer_edge_count",
    "cube_edge_count",
    "VectorAssignment",
    "LayerSubgraph",
    "UnionGraph",
    "SearchResult",
    "TrialsExhausted",
    "sample_assignment",
    "build_layer_graph",
    "edge_count",
    "union_odd_layers",
    "edge_probability_closed_form",
    "constant_c",
    "constant_c_enclosure",
    "find_good_assignment",
    "CubeSubgraph",
    "CycleWitness",
    "PathWitness",
    "SubcubePattern",
    "C6Obstruction",
    "find_cycle_generic",
    "find_c6_minus",
    "find_c6_structured",
    "explain_c6_impossibility",
    "ColoringCertificate",
    "DensityReport",
    "PipelineOutcome",
    "SuiteResult",
    "verify_coloring",
    "monochromatic_certificate",
    "c10_pipeline",
    "density_report_suite",
]
