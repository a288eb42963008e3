"""Exception hierarchy for the lattice IST library."""


class IstError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(IstError):
    """Parameter outside the admissible range of the selected background case."""


class SingularPoint(IstError):
    """Spectral map evaluated inside the guard radius of a pole or branch point."""


class SingularProduct(IstError):
    """A factor 1 - q_k*r_k of the window product is numerically zero."""


class SingularTransfer(IstError):
    """Transfer-matrix entry became non-finite during a lattice recursion."""


class NearBranchPoint(IstError):
    """Wronskian normalization zeta + 1/zeta - 2r is numerically zero."""


class Inadmissible(IstError):
    """Requested discrete-eigenvalue configuration is excluded for this case."""


class DegenerateEigenvalues(IstError):
    """Members of a complex eigenvalue family coincide (real-axis collapse)."""


class SingularSolution(IstError):
    """Reflectionless linear system is singular at this (n, t); amplitude diverges."""


class BlowupDetected(IstError):
    """Simulated field magnitude exceeded the blow-up threshold."""

    def __init__(self, message, step=None, t=None):
        super().__init__(message)
        self.step = step
        self.t = t


class ConfigError(IstError):
    """Run configuration failed schema validation."""
