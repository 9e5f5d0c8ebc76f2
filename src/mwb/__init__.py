"""mwb: a workbench for small triangulated manifolds.

The package re-exports the main functions.  Each submodule keeps its own
name: ``mwb.homology`` is the module, and the function is
``mwb.homology.homology``.
"""

from .core import (Complex, FVector, ManifoldVerdict, f_vector, from_facets,
                   is_combinatorial_manifold, is_k_neighborly,
                   is_pseudomanifold, link, relabeled, star)
from .homology import (BettiVector, HomologyVector, betti, boundary_matrix,
                       orientability, smith_normal_form)

__all__ = [
    "Complex", "FVector", "ManifoldVerdict", "from_facets", "f_vector",
    "link", "star", "is_pseudomanifold", "is_combinatorial_manifold",
    "is_k_neighborly", "relabeled",
    "HomologyVector", "BettiVector", "betti", "boundary_matrix",
    "smith_normal_form", "orientability",
]

__version__ = "0.1.0"
