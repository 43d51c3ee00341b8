"""Exception types shared across the library."""


class IceLabError(Exception):
    """Base class for all icelab errors."""


class OutOfRange(IceLabError):
    """Parameter outside the admissible window."""


class TooLarge(IceLabError):
    """Requested exact computation exceeds the desk-scale cap."""


class DimensionMismatch(IceLabError):
    """Operands live on incompatible index spaces."""


class Inconsistent(IceLabError):
    """Input data violates a structural invariant."""


class NegativeWeight(IceLabError):
    """A weight that must be nonnegative came out negative."""


class NotTrivalent(IceLabError):
    """Graph operation requires all internal vertices to be 3-valent."""


class SingularLocus(IceLabError):
    """The integrand vanished on a quadrature node."""


class SingularBranch(IceLabError):
    """The requested branch of the spectral curve degenerates."""


class BranchAmbiguous(IceLabError):
    """More than one branch matches the probe point."""


class BranchCut(IceLabError):
    """Evaluation requested on a branch cut."""


class DomainBoundary(IceLabError):
    """Argument on or outside the boundary of the analytic domain."""


class Unbounded(IceLabError):
    """The requested transform has no finite maximizer."""


class SlopeOutOfDomain(IceLabError):
    """A discrete slope left the inset slope polygon."""


class NonConvergence(IceLabError):
    """Iteration failed to meet its tolerance; carries the best iterate."""

    def __init__(self, message, best=None, diagnostics=None):
        super().__init__(message)
        self.best = best
        self.diagnostics = dict(diagnostics or {})


class ShockDetected(IceLabError):
    """Characteristics crossed (or are about to cross)."""

    def __init__(self, message, x=None, diagnostics=None):
        super().__init__(message)
        self.x = x
        self.diagnostics = dict(diagnostics or {})


class StepFailure(IceLabError):
    """An integrator step produced non-finite values."""
