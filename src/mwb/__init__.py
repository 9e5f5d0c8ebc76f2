"""mwb: a workbench for small triangulated manifolds.

The package re-exports the main functions.  One of them shadows its
module: ``mwb.homology`` is the function ``mwb.homology.homology``, not the
module.  Reach the module with ``from mwb.homology import betti`` or
``importlib.import_module("mwb.homology")``.
"""

from .core import (Complex, FVector, ManifoldVerdict, f_vector, from_facets,
                   is_combinatorial_manifold, is_k_neighborly,
                   is_pseudomanifold, link, relabeled, star)
from .homology import (BettiVector, HomologyVector, betti, boundary_matrix,
                       homology, orientability, smith_normal_form)

__all__ = [
    "Complex", "FVector", "ManifoldVerdict", "from_facets", "f_vector",
    "link", "star", "is_pseudomanifold", "is_combinatorial_manifold",
    "is_k_neighborly", "relabeled",
    "HomologyVector", "BettiVector", "homology", "betti", "boundary_matrix",
    "smith_normal_form", "orientability",
]

__version__ = "0.1.0"
