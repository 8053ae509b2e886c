"""Exception types shared across the package."""

__all__ = ["BraggTrapError", "DegenerateStateError", "FlatSlopeError", "QuadratureError",
           "ResourceLimitError", "InternalError"]


class BraggTrapError(Exception):
    """Base class for numerical and physical-domain failures."""


class DegenerateStateError(BraggTrapError):
    """Mean spin or output variance too small to define the requested quantity."""


class FlatSlopeError(BraggTrapError):
    """Signal slope vanishes at the working point; the phase is not resolvable."""


class QuadratureError(BraggTrapError):
    """The chi(t) quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float, requested: float):
        super().__init__(message)
        self.achieved = achieved
        self.requested = requested


class ResourceLimitError(BraggTrapError):
    """A size whose arrays would exceed a fixed memory limit; raised before
    anything is allocated."""


class InternalError(BraggTrapError):
    """A kernel broke an invariant it guarantees, such as a real expectation
    value of a Hermitian operator; a bug in braggtrap, not in the input."""
