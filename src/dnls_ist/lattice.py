"""Truncated lattice fields over an exact phase-rotating background.

A window stores q_n on n in [-N, N]; every operation treats |n| > N as the
exact background of the configured case.  The nonlocal partner field
r_n = sigma * conj(q_{-n}) is always derived, never stored.
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

    def site(self, n: int) -> complex:
        """q_n, with the exact background substituted for |n| > N."""
        if -self.N <= n <= self.N:
            return complex(self.q[n + self.N])
        return self.cfg.background(n, self.t)

    def partner_field(self) -> np.ndarray:
        """r_n = sigma * conj(q_{-n}) on every window site."""
        return self.cfg.sigma * np.conj(self.q[::-1])


def background_field(cfg: CaseConfig, t: float, N: int) -> PotentialWindow:
    """Pure background window; the delta_theta = pi step sits at n = 0."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return PotentialWindow(cfg, N, t, cfg.background(np.arange(-N, N + 1), t))


def partner(window: PotentialWindow, n: int) -> complex:
    """Nonlocal partner r_n = sigma * conj(q_{-n})."""
    return window.cfg.sigma * np.conj(window.site(-n))


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
    factors = 1.0 - window.q * window.partner_field()
    bad = np.flatnonzero(np.abs(factors) < PRODUCT_GUARD)
    if bad.size:
        raise SingularProduct(f"1 - q_n r_n vanishes at n = {int(bad[0]) - N}")
    theta = np.ones(2 * N + 2, dtype=complex)
    theta[:-1] = np.cumprod((factors / (cfg.r * cfg.r))[::-1])[::-1]
    return ThetaProduct(theta, complex(theta[0]), N)


def al_rhs(window: PotentialWindow, n: int) -> complex:
    """Time derivative of q_n implied by the nonlocal lattice equation."""
    qp = window.site(n + 1)
    qm = window.site(n - 1)
    qn = window.site(n)
    rn = partner(window, n)
    return -1j * (qp - 2.0 * qn + qm - qn * rn * (qp + qm))
