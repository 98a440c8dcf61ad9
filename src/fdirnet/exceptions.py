"""Exception hierarchy shared across the package."""


class FdirError(Exception):
    """Base class for all package-specific errors."""


class DomainViolation(FdirError):
    """A configuration left the domain of a measurement model.

    Raised e.g. when two referenced positions are (numerically) coincident,
    or when the subtended-angle model hits the arccos derivative singularity.
    """

    def __init__(self, msg, edge=None):
        super().__init__(msg)
        self.edge = edge


class ProtocolViolation(FdirError):
    """An agent used data it should not have, or data that never arrived."""


class ConvergenceFailure(FdirError):
    """An iterative solve exhausted its budget before reaching tolerance.

    Carries the best iterate found and its residual so callers can fail soft.
    """

    def __init__(self, msg, best=None, residual=None, iterations=None):
        super().__init__(msg)
        self.best = best
        self.residual = residual
        self.iterations = iterations


class NumericalOverflow(FdirError):
    """A computation would leave the floating-point range, e.g. the prox
    subproblem of a huge rho."""


class InfeasibleError(FdirError):
    """A constraint system has no solution within tolerance."""
