"""Lattice windows over an exact phase-rotating background, and the lattice equation.

A window stores q_n on n in [-N, N]; every operation treats |n| > N as the
exact background of the configured case.  The nonlocal partner field
r_n = sigma * conj(q_{-n}) is always derived (`partner`), never stored, and
`al_rhs` is the one place the lattice equation is written.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularProduct
from .spectral import CaseConfig

PRODUCT_GUARD = 1e-12


@dataclass(frozen=True)
class PotentialWindow:
    cfg: CaseConfig
    N: int
    t: float
    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=complex)
        if q.shape != (2 * self.N + 1,):
            raise ValueError(f"field must have length 2N+1 = {2 * self.N + 1}")
        object.__setattr__(self, "q", q)
        q.flags.writeable = False


def background_field(cfg: CaseConfig, t: float, N: int) -> PotentialWindow:
    """Pure background window; the delta_theta = pi step sits at n = 0."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return PotentialWindow(cfg, N, t, cfg.background(np.arange(-N, N + 1), t))


def partner(window: PotentialWindow) -> np.ndarray:
    """The nonlocal partner r_n = sigma * conj(q_{-n}) on every window site."""
    return window.cfg.sigma * np.conj(window.q[::-1])


@dataclass(frozen=True)
class ThetaProduct:
    """Tail products Theta_n = prod_{k>=n} (1 - q_k r_k) / r**2 on n in [-N, N+1]."""

    theta_n: np.ndarray
    theta_minus_inf: complex
    N: int

    def at(self, n: int) -> complex:
        if n > self.N + 1:
            return 1.0 + 0.0j
        if n < -self.N:
            return complex(self.theta_minus_inf)
        return complex(self.theta_n[n + self.N])


def theta_products(window: PotentialWindow) -> ThetaProduct:
    """Finite product over the window; tail factors are exactly 1."""
    cfg = window.cfg
    N = window.N
    with np.errstate(all="ignore"):  # a product that is not finite raises below
        factors = 1.0 - window.q * partner(window)
        theta = np.ones(2 * N + 2, dtype=complex)
        theta[:-1] = np.cumprod((factors / (cfg.r * cfg.r))[::-1])[::-1]
    bad = np.flatnonzero(np.abs(factors) < PRODUCT_GUARD)
    if bad.size:
        raise SingularProduct(f"1 - q_n r_n vanishes at n = {int(bad[0]) - N}")
    bad = np.flatnonzero(~np.isfinite(theta))
    if bad.size:
        raise SingularProduct(f"Theta_n is not finite at n = {int(bad[-1]) - N}")
    return ThetaProduct(theta, complex(theta[0]), N)


def al_rhs(q, q_next, q_prev, q_mirror, sigma: float, out=None):
    """dq_n/dt from the nonlocal lattice equation, elementwise over arrays of sites.

    i dq_n/dt = q_{n+1} - 2 q_n + q_{n-1} - sigma q_n conj(q_{-n}) (q_{n+1} + q_{n-1}),
    with q, q_next, q_prev and q_mirror holding q_n, q_{n+1}, q_{n-1} and q_{-n}.
    The result goes to out if given (a complex array of the sites' shape that
    overlaps no input), else to a new array; either way it takes two
    temporaries, and each operation is the one the formula reads, in its order.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(*map(np.shape, (q, q_next, q_prev, q_mirror))),
                       dtype=complex)
    # no operation writes over one of its inputs: NumPy can round such a one
    # differently (the sign of a NaN, or a one-site product)
    cubic = np.multiply(sigma, q)
    work = np.conj(q_mirror)
    np.multiply(cubic, work, out=out)
    np.multiply(out, np.add(q_next, q_prev, out=work), out=cubic)
    np.multiply(2.0, q, out=out)
    np.subtract(q_next, out, out=work)
    np.add(work, q_prev, out=out)
    np.subtract(out, cubic, out=work)
    return np.multiply(-1j, work, out=out)
