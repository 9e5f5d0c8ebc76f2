"""Exception types shared across the workbench."""


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class NotPure(WorkbenchError):
    """Facet list mixes dimensions."""


class UnsupportedDimension(WorkbenchError):
    """Empty or 0-dimensional complexes are rejected."""


class NotAFace(WorkbenchError):
    """The given vertex set is not a face of the complex."""


class NotAFacet(WorkbenchError):
    """The given face is not a facet of the complex."""


class NotPseudomanifold(WorkbenchError):
    """Operation requires a pseudomanifold input."""


class IllegalMove(WorkbenchError):
    """Bistellar move fails a legality condition."""


class InvalidArgument(WorkbenchError, ValueError):
    """A numeric argument lies outside its documented range."""


class BudgetZero(WorkbenchError):
    """Search invoked with no move budget."""


class IncompatibleGluing(WorkbenchError):
    """Gluing map is not an isomorphism of the boundary spheres."""


class CapExceeded(WorkbenchError):
    """A census size or a complex's face count exceeds its cap."""


class ParseError(WorkbenchError):
    """Malformed facet file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class IncompleteEmbedding(WorkbenchError):
    """Coordinate map does not cover every vertex."""


class NotASurface(WorkbenchError):
    """Complex is not a closed 2-manifold."""
