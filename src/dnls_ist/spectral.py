"""Background-case parameterization and the uniformized spectral plane.

The four cases are indexed by the sign sigma of the nonlocal reduction
r_n = sigma * conj(q_{-n}) and by the phase difference (0 or pi) between the
two lattice infinities.  Spectral quantities are expressed through the
uniformization variable zeta; the square roots z and lam are pinned to the
principal branch, which is canonical here because every downstream formula
depends only on sheet-even combinations (z**2, lam**2, z*lam, lam**(2n)).
"""
from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularPoint

SINGULAR_GUARD = 1e-10
REGION_TOL = 1e-9


class Case(enum.Enum):
    I = 1
    II = 2
    III = 3
    IV = 4


@dataclass(frozen=True)
class CaseConfig:
    """One background case with all derived constants.

    r**2 = 1 - sigma*delta, where delta = q0**2 * cos(delta_theta) is the
    (signed) background intensity entering the boundary phase rotation
    theta_pm(t) = theta_pm + 2*sigma*delta*t.
    """

    case_id: Case
    q0: float
    theta_minus: float
    sigma: int
    delta_theta: float
    delta: float
    r: float
    branch_points: tuple[complex, ...]

    @property
    def theta_plus(self) -> float:
        return self.theta_minus + self.delta_theta

    @property
    def branch_sign(self) -> float:
        """Sign of t11 at 1/r and of t22 at r: +1 for cases I/III, -1 for II/IV."""
        return 1.0 if self.case_id in (Case.I, Case.III) else -1.0

    @property
    def rotation(self) -> float:
        """Angular velocity 2*sigma*delta of the background phase."""
        return 2.0 * self.sigma * self.delta

    # The boundary values take a scalar t or an array of times.
    def q_plus(self, t):
        return self.q0 * np.exp(1j * (self.theta_plus + self.rotation * np.asarray(t)))

    def q_minus(self, t):
        return self.q0 * np.exp(1j * (self.theta_minus + self.rotation * np.asarray(t)))

    def r_plus(self, t):
        return self.sigma * np.conj(self.q_minus(t))

    def r_minus(self, t):
        return self.sigma * np.conj(self.q_plus(t))

    def background(self, ns, ts):
        """q_plus(t) on n >= 0 and q_minus(t) on n < 0, over broadcast (ns, ts) cells."""
        return np.where(np.asarray(ns) >= 0, self.q_plus(ts), self.q_minus(ts))[()]


def make_case(case_id: int | Case, q0: float, theta_minus: float = 0.0) -> CaseConfig:
    """Build a CaseConfig; cases I/IV require 0 < q0 < 1, cases II/III q0 > 0 and a finite r."""
    case = Case(case_id)
    if not q0 > 0.0:
        raise DomainError(f"q0 must be positive, got {q0}")
    sigma = 1 if case in (Case.I, Case.II) else -1
    delta_theta = 0.0 if case in (Case.I, Case.III) else math.pi
    delta = q0 * q0 * math.cos(delta_theta)
    if case in (Case.I, Case.IV):
        if not q0 < 1.0:
            raise DomainError(f"case {case.name} requires 0 < q0 < 1, got {q0}")
    r = math.sqrt(1.0 - sigma * delta)
    if not math.isfinite(r):  # q0 * q0 overflows from q0 ~ 1.34e154 on
        raise DomainError(f"q0 = {q0} is too large: r = sqrt(1 + q0**2) overflows")
    if case in (Case.I, Case.IV):
        branch = (complex(r, q0), complex(r, -q0))
    else:
        branch = (complex(r - q0), complex(r + q0))
    return CaseConfig(case, float(q0), float(theta_minus), sigma, delta_theta,
                      delta, r, branch)


@dataclass(frozen=True)
class SpectralPoint:
    """Consistent triple (zeta, z, lam) with z principal and lam = zeta*z."""

    zeta: complex
    z: complex
    lam: complex


def guard_singular(cfg: CaseConfig, zeta, include_branch: bool = True) -> None:
    """SingularPoint for the first zeta (a scalar or an array) near 0, r, 1/r or a branch point."""
    poles = (0.0, cfg.r, 1.0 / cfg.r) + (cfg.branch_points if include_branch else ())
    near = np.abs(np.reshape(zeta, (-1, 1)) - np.array(poles)) < SINGULAR_GUARD
    if near.any():  # the first zeta that fails, at its first pole
        i, p = np.unravel_index(np.argmax(near), near.shape)
        raise SingularPoint(f"zeta={complex(np.ravel(zeta)[i])} within guard radius of {poles[p]}")


def lam_squared(cfg: CaseConfig, zeta: complex) -> complex:
    """lam**2 = zeta*(zeta - r)/(zeta*r - 1), single-valued in zeta."""
    return zeta * (zeta - cfg.r) / (zeta * cfg.r - 1.0)


def point_from_zeta(cfg: CaseConfig, zeta: complex) -> SpectralPoint:
    """Map zeta to (zeta, z, lam) with z**2 = (zeta-r)/(zeta*(zeta*r-1))."""
    zeta = complex(zeta)
    guard_singular(cfg, zeta)
    z = cmath.sqrt((zeta - cfg.r) / (zeta * (zeta * cfg.r - 1.0)))
    return SpectralPoint(zeta, z, zeta * z)


def zeta_bar(cfg: CaseConfig, zeta):
    """Involution (r*zeta - 1)/(zeta - r), i.e. lam -> 1/lam at fixed z.

    Takes a scalar (and returns a complex) or an array of zeta.  Each
    quotient is Python's complex division (dtype=object): NumPy's complex
    division rounds differently, and an array call must give the bits of
    one scalar call per element.
    """
    zeta = np.asarray(zeta, dtype=complex)
    if (np.abs(zeta - cfg.r) < SINGULAR_GUARD).any():
        raise SingularPoint(f"zeta_bar has a pole at zeta = r = {cfg.r}")
    out = np.divide(cfg.r * zeta - 1.0, zeta - cfg.r, dtype=object)
    return out.astype(complex) if zeta.ndim else complex(out)


class Region(enum.Enum):
    DPlus = "D+"
    DMinus = "D-"
    Continuum = "continuum"


def classify(cfg: CaseConfig, zeta):
    """Region of zeta: D+ where |lam| < 1, D- where |lam| > 1, else continuum.

    Returns the Region, or an array of them for an array of zeta.
    """
    zeta = np.asarray(zeta, dtype=complex)
    s = np.hypot(zeta.real, zeta.imag) - 1.0  # hypot: the bits of abs(complex)
    if cfg.case_id in (Case.II, Case.III):
        w = zeta - cfg.r
        s = s * (np.hypot(w.real, w.imag) - cfg.q0)
    return np.where(s < -REGION_TOL, Region.DPlus,
                    np.where(s > REGION_TOL, Region.DMinus, Region.Continuum))[()]


def gamma(cfg: CaseConfig, zeta: complex) -> complex:
    """Exponent r*(lam - 1/lam)*(z - 1/z) driving off-diagonal time evolution.

    Evaluated through its rational form in zeta, which is invariant under
    zeta -> 1/zeta and needs no square-root branch.
    """
    zeta = complex(zeta)
    guard_singular(cfg, zeta, include_branch=False)
    r = cfg.r
    return (r * r * (zeta - 2.0 / r + 1.0 / zeta) * (zeta - 2.0 * r + 1.0 / zeta)
            / ((zeta - r) * (1.0 / zeta - r)))
