"""Dense C6-free layer subgraphs of the hypercube.

Random GF(2) vector assignments carve induced subgraphs out of hypercube
layers that are C6-free for every draw while keeping more than a constant
fraction of the layer's edges.  This package builds them, verifies their
freeness with independent detectors, and accounts for the densities of the
per-layer graphs, their odd-layer union and the best color class of an
externally supplied 3-coloring, all in exact rational arithmetic.

Import each name from the module that defines it (gf2, cube,
construction, detector, bounds, cli); importing the package loads no
submodule.
"""

__version__ = "0.1.0"
