"""Background-case parameterization and the uniformized spectral plane.

The four cases are indexed by the sign sigma of the nonlocal reduction
r_n = sigma * conj(q_{-n}) and by the phase difference (0 or pi) between the
two lattice infinities; CASES holds both, and every other per-case constant
here follows from them.  Spectral quantities are expressed through the
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


# (sigma, Delta theta) of each case.  The exact sign sigma * cos(Delta theta) sets the rest:
# +1 (I, IV) r**2 = 1 - q0**2, q0 < 1, complex branch points; -1 (II, III) real ones.
CASES = {Case.I: (1, 0.0), Case.II: (1, math.pi), Case.III: (-1, 0.0), Case.IV: (-1, math.pi)}


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
        """Sign of t11 at 1/r and of t22 at r, cos(Delta theta): +1 in cases I/III, -1 in II/IV."""
        return math.cos(self.delta_theta)

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
    sigma, delta_theta = CASES[case]
    bounded = sigma * math.cos(delta_theta) > 0  # r**2 = 1 - q0**2
    if bounded and not q0 < 1.0:
        raise DomainError(f"case {case.name} requires 0 < q0 < 1, got {q0}")
    delta = q0 * q0 * math.cos(delta_theta)
    r = math.sqrt(1.0 - sigma * delta)
    if not math.isfinite(r):  # q0 * q0 overflows from q0 ~ 1.34e154 on
        raise DomainError(f"q0 = {q0} is too large: r = sqrt(1 + q0**2) overflows")
    branch = ((complex(r, q0), complex(r, -q0)) if bounded
              else (complex(r - q0), complex(r + q0)))
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
    if cfg.sigma * cfg.branch_sign < 0:  # cases II/III: also |zeta - r| = q0
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


def gamma_rounding(cfg: CaseConfig, zeta: complex) -> float:
    """How far from 0 gamma(cfg, zeta) may round where one of its factors vanishes.

    gamma = r**2 a b / ((zeta - r) (1/zeta - r)), a = zeta - 2/r + 1/zeta and
    b = zeta - 2r + 1/zeta.  zeta and r carry the rounding of their own
    derivation, r relatively about eps (1 + |delta|/r**2) where 1 - sigma
    delta cancels, so a and b are off by at most u (|zeta| + |1/zeta| + 2/r)
    and u (|zeta| + |1/zeta| + 2r), u = 4 eps (1 + |delta|/r**2), and gamma
    by at most r**2 (da (|b| + db) + db (|a| + da)) / |(zeta - r) (1/zeta - r)|.
    Case-IV pairs (a = 0) lie within 1/8 of it over 400 admissible q0 from
    1e-8 to 1 - 1e-9; case-I quartets and case-III pairs 170 times past it.
    """
    zeta, r = complex(zeta), cfg.r
    inv = 1.0 / zeta
    a, b = abs(zeta - 2.0 / r + inv), abs(zeta - 2.0 * r + inv)
    u = 4.0 * 2.0 ** -52 * (1.0 + abs(cfg.delta) / (r * r))
    da, db = u * (abs(zeta) + abs(inv) + 2.0 / r), u * (abs(zeta) + abs(inv) + 2.0 * r)
    return r * r * (da * (b + db) + db * (a + da)) / abs((zeta - r) * (inv - r))
