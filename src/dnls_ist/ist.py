"""Discrete eigenvalues, norming constants, and reflectionless reconstruction.

Admissible spectra are fixed per case by the trace-formula asymptotics:
case I carries one complex quartet on |zeta - 1/r| = q0/r, case II carries
nothing (case2_trace_infima bounds each candidate family's violation of the
trace limits away from 0 in closed form), case III two real pairs linked by
the spectral involution, case IV one real pair.  The reflectionless
inverse problem collapses to a (4J+1)-dimensional linear system per
lattice site and time, block lower triangular in the unknown order (N2,
Nbar2 | 1/Theta_n | N1, Nbar1) with the 2J x 2J diagonal block
P = [[I, -kbar], [-k, I]] twice.  reconstruct_grid is the one entry point
to its solve, dq/dt included: it fills the far field of a whole (n, t)
grid of cells with the background to first order in the lam**(2n)
couplings, screened by bounds on them, solves the rest by one batched,
pivoted solve of P per fixed-size block, a scalar border for 1/Theta_n
and back-substitution, and returns both q_n and r_n; a nonempty stationary
spectrum (every gamma(zbar_j) = 0) takes that path once per site at t = 0,
turned by the background's phase at every other time.  reconstruct is its
one-cell view; NormingData holds the factors that depend on the spectrum
alone.  build_system (one cell's dense B and Y, from the same blocks)
stays only because the benchmark's tracer wraps it (ROADMAP item 18).
"""
from __future__ import annotations

import cmath
import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateEigenvalues, DomainError, Inadmissible,
                     SingularSolution)
from .spectral import (Case, CaseConfig, Region, SINGULAR_GUARD, classify,
                       gamma, gamma_rounding, lam_squared, point_from_zeta, zeta_bar)

CONSTRAINT_TOL = 1e-8
DET_GUARD = 1e-13


@dataclass(frozen=True)
class Quartet:
    """Complex family {zeta, zeta*, zeta_bar, zeta_bar*}; first pair in D-."""

    zeta: complex
    zeta_conj: complex
    zbar: complex
    zbar_conj: complex


@dataclass(frozen=True)
class RealPair:
    """Real family {zeta_hat in D-, zeta_bar_hat in D+}."""

    zeta: complex
    zbar: complex


@dataclass(frozen=True)
class EigenSet:
    case_id: Case
    quartets: tuple[Quartet, ...]
    pairs: tuple[RealPair, ...]

    @property
    def J1(self) -> int:
        return len(self.quartets)

    @property
    def J2(self) -> int:
        return len(self.pairs)

    @property
    def J(self) -> int:
        return 2 * self.J1 + self.J2

    @property
    def zeros_t11(self) -> tuple[complex, ...]:
        out = []
        for q in self.quartets:
            out.extend([q.zeta, q.zeta_conj])
        out.extend(p.zeta for p in self.pairs)
        return tuple(out)

    @property
    def zeros_t22(self) -> tuple[complex, ...]:
        out = []
        for q in self.quartets:
            out.extend([q.zbar, q.zbar_conj])
        out.extend(p.zbar for p in self.pairs)
        return tuple(out)

    def is_empty(self) -> bool:
        return self.J == 0


def empty_eigenset(cfg: CaseConfig) -> EigenSet:
    return EigenSet(cfg.case_id, (), ())


def trace_product(zeros, partners, zeta):
    """prod_j (zeta - zeros_j)/(zeta - partners_j), the reflectionless t11(zeta).

    zeros and partners are (..., J): one spectrum or a batch of candidate
    spectra; zeta broadcasts against the batch shape.  theta_-inf = t11(0),
    and t22 is theta_-inf times the product with the roles swapped.
    """
    zeta = np.asarray(zeta, dtype=complex)[..., None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.prod((zeta - zeros) / (zeta - partners), axis=-1)


def theta_minus_inf_constraint(eigenset: EigenSet) -> complex:
    """Theta_-inf = t11(0), forced by the zero-argument limit of the trace formula."""
    return complex(trace_product(eigenset.zeros_t11, eigenset.zeros_t22, 0.0))


def trace_formula(cfg: CaseConfig, eigen_data: EigenSet, zeta):
    """Reflectionless predictions (t11, t22) at zeta (a scalar or an array).

    t22 has poles at the zeros of t11, where it comes out non-finite.
    """
    zs, zbs = eigen_data.zeros_t11, eigen_data.zeros_t22
    with np.errstate(invalid="ignore"):
        return (trace_product(zs, zbs, zeta),
                theta_minus_inf_constraint(eigen_data) * trace_product(zbs, zs, zeta))


def admissibility_residuals(cfg: CaseConfig, eigenset: EigenSet,
                            theta_inf: complex | None = None) -> dict[str, float]:
    """Residuals of the three trace-formula limits for this case's spectrum.

    The right-hand sides follow the case-dependent branch-point signs of
    t11 near 1/r and t22 near r (+1 for cases I/III, -1 for cases II/IV).
    An empty spectrum meets them only for cases I/III: for II/IV both
    branch-point limits miss by 2.
    """
    zeros, partners, sign = eigenset.zeros_t11, eigenset.zeros_t22, cfg.branch_sign
    if theta_inf is None:
        theta_inf = trace_product(zeros, partners, 0.0)
    return {
        "t11_at_rinv": float(np.abs(trace_product(zeros, partners, 1.0 / cfg.r) - sign)),
        "t22_at_zero": float(np.abs(theta_inf * trace_product(partners, zeros, 0.0) - 1.0)),
        "t22_at_r": float(np.abs(theta_inf * trace_product(partners, zeros, cfg.r) - sign)),
    }


def case2_trace_infima(cfg: CaseConfig) -> dict[str, float]:
    """Least violation of the case-II trace limits by each spectrum family, over all of D-.

    The violation is max(|t11(1/r) + 1|, |t22(r) + 1|) (branch sign -1).  With
    f(zeta) = (1/r - zeta)/(1/r - zeta_bar(zeta)), the t11(1/r) of a lone zero:
    - one real pair: f + 1 = (r (zeta + 1/zeta) - 2)/q0**2 and t22(r) = 1/f, and
      |zeta + 1/zeta| >= 2, so the infimum is min(2, 2 (r + 1)/q0**2), approached,
      never attained, at zeta -> +-1 or at the branch points;
    - one quartet: t11(1/r) = |f(zeta)|**2, so |t11(1/r) + 1| alone is at least
      1, approached as zeta -> 1/r off the axis;
    - two real pairs linked by zeta_2 = 1/zeta_bar(zeta_1): t11(1/r) = t22(r) = 1.
    Each is positive for every q0: case II has no discrete spectrum.
    """
    if cfg.case_id is not Case.II:
        raise DomainError("the trace-limit infima are derived for case II")
    # /q0/q0: where q0**2 underflows to 0 the quotient overflows to inf instead
    return {"J2=1 real pair": 2.0 * min(1.0, (cfg.r + 1.0) / cfg.q0 / cfg.q0),
            "J1=1 quartet": 1.0, "J2=2 real pairs": 2.0}


def eigenvalues_case1(cfg: CaseConfig, eta1: float, J: int = 2) -> EigenSet:
    """One quartet on |zeta - 1/r| = q0/r, parametrized by the real angle eta1."""
    if cfg.case_id is not Case.I:
        raise DomainError("eigenvalues_case1 requires a case I configuration")
    if J != 2:
        raise Inadmissible(f"case I admits only J = 2 (one quartet); J = {J} requested")
    bound = math.atan2(cfg.r, cfg.q0)
    if not abs(math.pi - eta1) < bound:
        raise Inadmissible(
            f"eta1 = {eta1} violates |pi - eta1| < arctan(r/q0) = {bound:.6f}")
    zb1 = (1.0 + cfg.q0 * cmath.exp(1j * eta1)) / cfg.r
    z1 = cfg.r / (1.0 + cfg.q0 * cmath.exp(-1j * eta1))
    if abs(zeta_bar(cfg, z1) - zb1) > 1e-10 * max(1.0, abs(zb1)):
        raise Inadmissible("zeta_bar pairing failed for the constructed quartet")
    if abs(abs(zb1 - 1.0 / cfg.r) - cfg.q0 / cfg.r) > 1e-12:
        raise Inadmissible("zbar_1 is off the circle |zeta - 1/r| = q0/r")
    if classify(cfg, zb1) is not Region.DPlus or classify(cfg, z1) is not Region.DMinus:
        raise Inadmissible("quartet landed outside its required regions")
    return EigenSet(cfg.case_id, (Quartet(z1, z1.conjugate(), zb1, zb1.conjugate()),), ())


def eigenvalues_case2(cfg: CaseConfig, J: int = 2) -> EigenSet:
    """Case II has no admissible discrete spectrum (case2_trace_infima); the empty set."""
    if cfg.case_id is not Case.II:
        raise DomainError("eigenvalues_case2 requires a case II configuration")
    if J not in (0, 1, 2):
        raise Inadmissible(f"J = {J} not covered by the admissibility analysis")
    return empty_eigenset(cfg)


def eigenvalues_case3(cfg: CaseConfig, zeta_hat_1: float, J: int = 2) -> EigenSet:
    """Two real pairs {zh1, zbar(zh1)} and {1/zbar(zh1), 1/zh1} for case III."""
    if cfg.case_id is not Case.III:
        raise DomainError("eigenvalues_case3 requires a case III configuration")
    if J != 2:
        raise Inadmissible(f"case III admits only J = 2 (two real pairs); J = {J} requested")
    zh1 = complex(zeta_hat_1)
    if abs(zh1.imag) > 1e-12:
        raise Inadmissible("zeta_hat_1 must be real")
    for bp in cfg.branch_points:
        if abs(zh1 - bp) < SINGULAR_GUARD * 1e6:
            raise Inadmissible(f"zeta_hat_1 = {zeta_hat_1} is a branch point")
    if abs(zh1 - 1.0 / cfg.r) < SINGULAR_GUARD * 1e6:  # in D-, and zeta_bar(1/r) = 0
        raise Inadmissible(f"zeta_hat_1 = {zeta_hat_1} is the pole 1/r of lam")
    if classify(cfg, zh1) is not Region.DMinus:
        raise Inadmissible(f"zeta_hat_1 = {zeta_hat_1} is not in D- (continuum or D+)")
    zbh1 = zeta_bar(cfg, zh1)
    zh2 = 1.0 / zbh1
    zbh2 = zeta_bar(cfg, zh2)
    eigenset = EigenSet(cfg.case_id, (), (RealPair(zh1, zbh1), RealPair(zh2, zbh2)))
    for p in eigenset.pairs:
        if classify(cfg, p.zeta) is not Region.DMinus:
            raise Inadmissible(f"derived eigenvalue {p.zeta} left D-")
        if classify(cfg, p.zbar) is not Region.DPlus:
            raise Inadmissible(f"derived eigenvalue {p.zbar} left D+")
    theta_inf = theta_minus_inf_from_system(cfg, eigenset, unit_norming(cfg, eigenset))
    res = admissibility_residuals(cfg, eigenset, theta_inf)
    if max(res.values()) > CONSTRAINT_TOL:
        raise Inadmissible(f"trace-formula constraints violated: {res}")
    return eigenset


def eigenvalues_case4(cfg: CaseConfig, J: int = 1) -> EigenSet:
    """The single real pair zbar_1 = (1-q0)/r, zeta_1 = r/(1-q0) of case IV."""
    if cfg.case_id is not Case.IV:
        raise DomainError("eigenvalues_case4 requires a case IV configuration")
    if J != 1:
        raise Inadmissible(f"case IV admits only J = 1 (one real pair); J = {J} requested")
    zb1 = complex((1.0 - cfg.q0) / cfg.r)
    z1 = complex(cfg.r / (1.0 - cfg.q0))
    if abs(zeta_bar(cfg, z1) - zb1) > 1e-12:
        raise Inadmissible("zeta_bar pairing failed for the case IV pair")
    return EigenSet(cfg.case_id, (), (RealPair(z1, zb1),))


@dataclass(frozen=True)
class NormingData:
    """Norming constants at t = 0 plus their time evolution.

    cbar0 is aligned with EigenSet.zeros_t22; C_j always follows from the
    symmetry C_j = -q_plus(t)**2 / (zbar_j - r)**2 * Cbar_j.  Both evolve by
    exponentials, Cbar_j(t) = Cbar_j(0) exp(cbar_rate[j] t) and C_j likewise
    with c_rate.  cbar(j, t) and c(j, t) broadcast the index j against the
    times t.  spectrum holds the reflectionless system's per-spectrum factors.
    """

    cfg: CaseConfig
    eigenset: EigenSet
    cbar0: tuple[complex, ...]
    gammas: tuple[complex, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # gamma(zbar_j) depends only on the eigenvalues: evaluate it once.  A gamma
        # within its rounding of 0 (spectral.gamma_rounding) is stored as 0.
        cfg = self.cfg
        gammas = ((gamma(cfg, zb), zb) for zb in self.eigenset.zeros_t22)
        object.__setattr__(self, "gammas", tuple(0j if abs(g) <= gamma_rounding(cfg, zb) else g
                                                 for g, zb in gammas))

    @functools.cached_property
    def spectrum(self) -> _Spectrum:
        """The factors of the reflectionless system that depend on the spectrum alone.

        Built on the first solve and kept: soliton_closed_form_case4 reads only
        cbar and c, so its NormingData never builds them (nor _far_field's bounds).
        """
        cfg, r, rinv = self.cfg, self.cfg.r, 1.0 / self.cfg.r
        zs, zbs = np.array(self.eigenset.zeros_t11), np.array(self.eigenset.zeros_t22)
        y0, y3, cbar_rate = r - 1.0 / zs, zbs - r, self.cbar_rate
        s = _Spectrum(
            np.array(self.cbar0, dtype=complex)[:, None], cbar_rate[:, None],
            (cbar_rate + 2j * cfg.rotation)[:, None], lam_squared(cfg, zs)[:, None],
            lam_squared(cfg, zbs)[:, None],
            ((zbs - r) ** 2)[:, None],
            (zs - rinv)[:, None, None], ((zbs - rinv) * (zs[:, None] - zbs))[..., None],
            (zbs - r)[:, None, None], ((zs - r) * (zbs[:, None] - zs))[..., None],
            (zs * (zs - r))[:, None], (zbs - rinv)[:, None],
            y0, y3, np.abs(np.concatenate([y0, y3])).max(initial=1.0), *(None,) * 8)
        return s._replace(**_far_field(cfg, s, self.gammas))

    @property
    def stationary(self) -> bool:
        """Every gamma(zbar_j) is 0 (the empty spectrum too): it turns with the gauge.

        Then q_n(t) = u q_n(0), r_n(t) = r_n(0) / u and 1/Theta_n(t) = 1/Theta_n(0)
        with u = exp(i rotation t), which reconstruct_grid and singularity_scan use.
        """
        return not any(self.gammas)

    @property
    def cbar_rate(self) -> np.ndarray:
        """d(log Cbar_j)/dt = -i (rotation + gamma(zbar_j)), per eigenvalue."""
        return -1j * (self.cfg.rotation + np.array(self.gammas, dtype=complex))

    @property
    def c_rate(self) -> np.ndarray:
        """d(log C_j)/dt = i (rotation - gamma(zbar_j)): C_j carries q_plus(t)**2."""
        return self.cbar_rate + 2j * self.cfg.rotation

    # Complex products go through ufuncs, not *: on NumPy scalars * can
    # round them differently from the array loop, and a scalar call must
    # give the bits of the array path.
    def cbar(self, j, t):
        phase = np.take(self.cbar_rate, j) * np.asarray(t)
        return np.multiply(np.take(self.cbar0, j), np.exp(phase))

    def c(self, j, t):
        qp = self.cfg.q_plus(t)
        zb = np.take(self.eigenset.zeros_t22, j)
        return np.multiply(np.divide(-np.multiply(qp, qp), np.square(zb - self.cfg.r)),
                           self.cbar(j, t))


def norming_case1(cfg: CaseConfig, eigenset: EigenSet, kappa1: float,
                  thbar1: float, thbar2: float) -> NormingData:
    """Quartet norming constants pinned to the nonlocal reduction.

    The pair below is the unique choice (given Cbar_1) for which the
    reconstructed field satisfies r_n = sigma * conj(q_{-n}) at every time;
    it carries lam**-3 in Cbar_2 and a fixed relative phase of pi between
    the two constants, split so that thbar1 = 0 yields the symmetric
    dark-dark profile at theta = 0.  Cbar_2 has no phase of its own: thbar2
    must be thbar1 (mod 2pi) to 1e-12 * max(1, |thbar1|, |thbar2|), else
    DomainError.  lam(zbar_1) is real and positive on the admissible circle
    |zeta - 1/r| = q0/r.
    """
    if kappa1 == 0.0:
        raise DomainError("kappa1 must be nonzero")
    if abs(math.remainder(thbar2 - thbar1, 2.0 * math.pi)) > \
            1e-12 * max(1.0, abs(thbar1), abs(thbar2)):
        raise DomainError(f"thbar2 = {thbar2!r} must equal thbar1 = {thbar1!r} (mod 2pi): "
                          "the nonlocal reduction fixes Cbar_2's phase")
    if eigenset.J1 != 1 or eigenset.J2 != 0:
        raise DomainError("case I norming needs exactly one quartet")
    qt = eigenset.quartets[0]
    zb1, z1 = qt.zbar, qt.zeta
    if abs(zb1.imag) < 1e-12:
        raise DegenerateEigenvalues("zbar_1 is real; the quartet collapses")
    lam_b = point_from_zeta(cfg, zb1).lam
    zb2 = zb1.conjugate()
    cbar1 = (kappa1 * lam_b ** 3 * (zb1 - z1) * (zb1 - z1.conjugate())
             / (zb1 - zb2) * cmath.exp(1j * (thbar1 - math.pi / 2.0)))
    cbar2 = ((1.0 / kappa1) * lam_b ** -3 * (zb2 - z1) * (zb2 - z1.conjugate())
             / (zb2 - zb1) * cmath.exp(1j * (thbar1 + math.pi / 2.0)))
    return NormingData(cfg, eigenset, (cbar1, cbar2))


def norming_case4(cfg: CaseConfig, eigenset: EigenSet, thbar1: float) -> NormingData:
    """Single-pair norming constant pinned to the nonlocal reduction.

    The modulus lam**-1 * |zbar_1 - zeta_1| is forced (it centers the
    soliton at the reduction's mirror point); the phase thbar1 is the one
    free parameter of the family.  The profile is bright or dark according
    to theta_plus + thbar1, with an amplitude singularity on the member
    theta_plus + thbar1 = 0 (mod 2pi).
    """
    if eigenset.J1 != 0 or eigenset.J2 != 1:
        raise DomainError("case IV norming needs exactly one real pair")
    pair = eigenset.pairs[0]
    zb1, z1 = pair.zbar, pair.zeta
    lam_b = point_from_zeta(cfg, zb1).lam
    cbar1 = lam_b ** -1 * (zb1 - z1) * cmath.exp(1j * thbar1)
    return NormingData(cfg, eigenset, (cbar1,))


def unit_norming(cfg: CaseConfig, eigenset: EigenSet) -> NormingData:
    """Placeholder constants (position-only) for limit computations."""
    return NormingData(cfg, eigenset, (1.0 + 0.0j,) * eigenset.J)


# Per-cell outcome of reconstruct_grid: the first check a cell fails, in the
# order the checks run (OK when it passes them all).
OK, OVERFLOW, EXACTLY_SINGULAR, BACKWARD_ERROR, THETA_DIVERGENCE, AMPLITUDE = range(6)
REASONS = ("ok", "overflow", "exactly singular", "backward error",
           "Theta_n divergence", "non-finite amplitude")
_SOLVE_FAILED = (OVERFLOW, EXACTLY_SINGULAR, BACKWARD_ERROR)
# Cells per batched solve in reconstruct_grid: bounds the block arrays
# (512 cells of J = 2 are 0.2 MB of kbar, k and P) whatever the grid size.
_BLOCK = 512
# Newton steps at most in singularity_scan's refinement of its deepest coarse dip.
_NEWTON_STEPS = 8


class _Blocks(NamedTuple):
    """The reflectionless systems over a block of M cells, by block, cell axis last.

    With unknowns N1(zeta_j), N2(zeta_j), Nbar1(zbar_j), Nbar2(zbar_j) and
    1/Theta_n, the (4J+1) equations of a cell are
        N1 - kbar Nbar1 = y0,    N2 - kbar Nbar2 + r_plus/Theta_n = 0,
        Nbar1 - k N1 - q_plus/Theta_n = 0,    Nbar2 - k N2 = y3,
        1/Theta_n + row.N2 = 1.
    kbar and k are (J, J, M); row (the multiplier of N2 here and of N1 in
    the q sum) and row_r (of Nbar2 in the r sum) are (J, M); q_plus and
    r_plus are (M,); y0 = r - 1/zeta_j and y3 = zbar_j - r are (J,).
    Overflowing entries come out non-finite, not as an exception.
    """

    kbar: np.ndarray
    k: np.ndarray
    row: np.ndarray
    row_r: np.ndarray
    qp: np.ndarray
    rp: np.ndarray
    y0: np.ndarray
    y3: np.ndarray


# The factors of _Blocks that depend on the spectrum alone, per NormingData,
# shaped to broadcast against the cell axis: Cbar_j(0), both rates and lam**2
# at zeta_j and zbar_j are (J, 1); kbar = kbar_num Cbar_j lam(zbar_j)**(2n) /
# kbar_den and k = k_num C_j lam(zeta_j)**(-2n) / k_den, with C_j = -q_plus**2
# Cbar_j / c_den; row and row_r divide by their dens; ymax = max(1, |y0|, |y3|).
# The far-field screen's constants (_far_field) close it.
_Spectrum = namedtuple("_Spectrum", "cbar0 cbar_rate c_rate lam2 lam2_bar c_den kbar_num "
                       "kbar_den k_num k_den row_den row_r_den y0 y3 ymax "
                       "log_e0 rate log_lam right left theta_inv_minus first_order first_bound")
# What a far-field fill may neglect.
_FAR_TOL = 2.0 ** -53


def _far_field(cfg: CaseConfig, s: _Spectrum, gammas) -> dict:
    """The far-field screen's fields of _Spectrum (see _solve_screened), and their bounds.

    The 2J couplings E_l (cpow, then cbarpow) enter as kbar = A Ebar, k = B E
    column by column (A, B constant J x J), row = E / row_den and row_r =
    Ebar / row_r_den; log E_l = log_e0 + rate t + log_lam n.  A fill takes
    X0 + X1: the limiting solution X0 and its first-order term X1 in the
    small couplings.  In max norms:
    - right: the system is B0 + D, B0 the J = 0 system (|B0^-1| = 1 + q0) and
      |D| <= S = sum_l |E_l| m_l, m_l the largest modulus in E_l's column of
      B and 1/row_den (A and 1/row_r_den for Ebar_l).  X1 = -B0^-1 D X0 gives
      q_plus + r row.y0, r_plus - row_r.y3 and 1/Theta_n = 1 + r_plus sum(row),
      and |X - X0 - X1| <= ((1 + q0) S)**2 |X0| / (1 - (1 + q0) S).  Since
      q - q_plus = r row.N1 Theta_n, q and r miss their first-order fills by
      at most 2 max(1, r) (1 + q0) S**2 |X0| (1 + O(S)): K0 = max(2 max(1, r)
      (1 + q0), (1 + q0)**2) |X0|;
    - left: in the unknowns E N1, E N2, Ebar Nbar1, Ebar Nbar2, 1/Theta_n it
      is L0 + diag(1/E, 1/E, 1/Ebar, 1/Ebar, 0), L0 the limiting system, whose
      blocks give 1/Theta_-inf = th0 = 1 + row_den^-1.B^-1 y3, q_plus (1 - r
      row_den^-1.B^-1 1) and r_plus (1 - row_r_den^-1.A^-1 1).  Its X1 =
      -L0^-1 diag(1/E, ...) X0 adds -(r / th0) sum_l (row_den^-1.B^-1)_l
      (A^-1 y0)_l / Ebar_l to q, (1 / th0) sum_l (row_r_den^-1.A^-1)_l
      (B^-1 y3)_l / E_l to r and -th0 r_plus sum_l (row_den^-1.B^-1)_l
      (A^-1 1)_l / Ebar_l to 1/Theta_n.  With S = max_l 1/|E_l|, |X - X0| <=
      |L0^-1| S |X0| (1 + O(S)) and |X - X0 - X1| <= (|L0^-1| S)**2 |X0| (1 +
      O(S)), so q = q_plus + r row_den^-1.(E N1) Theta_n misses its fill by at
      most |L0^-1|**2 S**2 |X0| (1 + |X0| / th) (r nu + |q_inf - q_plus|) / th,
      th = |th0| and nu the sum of 1/|row_den| (r alike): K0 = |L0^-1|**2 |X0|
      (1 + |X0| / th) max(1, (r nu + |q_inf - q_plus|) / th, ...).
    The gauge (q_plus, E_l, Ebar_l) -> (e^ia q_plus, e^ia E_l, e^-ia Ebar_l)
    maps q to e^ia q and keeps 1/Theta_n and every norm here, so dq/dt - i
    rotation q is the derivative along E_l -> E_l e^(-i gamma_l s), which
    Cauchy's estimate on |s| = 1/max|gamma|, where S grows by e at most,
    bounds by e**2 max|gamma| times the remainder's bound.  So with K = 2 K0
    max(1, |rotation| + e**2 max|gamma|) a fill neglects less than K S**2 in
    q, r, 1/Theta_n and dq/dt: right holds log|E_l(0, 0)| + log(2J m_l
    sqrt(K_R / _FAR_TOL)) and left log|E_l(0, 0)| - log sqrt(K_L /
    _FAR_TOL), which is -inf (never left far) when L0 is singular or q_inf,
    r_inf miss cfg.q_minus, cfg.r_minus by more than CONSTRAINT_TOL max(1,
    q0), the tolerance that admits a spectrum: left far cells take those as
    X0, the limit that the trace formulas fix.  first_order holds the fills'
    first-order coefficients, per side (right, left), of q, r, (1/Theta_n) /
    r_plus and dq/dt on each E_l (right) or 1/E_l (left), and first_bound
    log(2J max_k |first_order_kl| / _FAR_TOL), the 1/Theta_n row weighed by
    |r_plus| = q0, plus log|E_l(0, 0)| (minus it on the left): a cell whose
    log|E_l / E_l(0, 0)| (its negative on the left) stays below -first_bound
    for every l has no first-order term past _FAR_TOL (_screen's live mask).
    """
    J, q0, r = s.y0.size, cfg.q0, cfg.r
    time = max(1.0, abs(cfg.rotation) + math.e ** 2 * max(map(abs, gammas), default=0.0))
    # A and B, each with the dens of the sum it feeds (row_r_den, row_den)
    AB = np.array([s.kbar_num / s.kbar_den, s.k_num / s.k_den])[..., 0]
    dens = np.array([s.row_r_den, s.row_den])[..., 0]
    first = np.zeros((2, 4, 2 * J), dtype=complex)
    with np.errstate(all="ignore"):
        qp0 = cfg.q0 * cmath.exp(1j * cfg.theta_plus)  # q_plus(0)
        log_e0 = np.log(np.concatenate([-(qp0 * qp0) / s.c_den * s.cbar0, s.cbar0]))
        m = np.maximum(np.abs(AB).max(axis=1, initial=0.0), 1.0 / np.abs(dens))[::-1]
        k_r = (2.0 * max(2.0 * max(1.0, r) * (1.0 + q0), (1.0 + q0) ** 2) * max(s.ymax, q0)
               * time)
        right = log_e0.real + np.log(2.0 * J * math.sqrt(k_r / _FAR_TOL) * m).reshape(-1, 1)
        first[0, 0, :J], first[0, 2, :J] = r * s.y0 / s.row_den[:, 0], 1.0 / s.row_den[:, 0]
        first[0, 1, J:] = -s.y3 / s.row_r_den[:, 0]
        try:
            inv = np.linalg.inv(AB)
        except np.linalg.LinAlgError:
            inv = np.full_like(AB, np.nan)
        ones = inv.sum(axis=2)  # A^-1 1 and B^-1 1
        a_y0, b_y3 = (inv[0] * s.y0).sum(axis=1), (inv[1] * s.y3).sum(axis=1)
        theta_inv = complex(1.0 + (b_y3 / dens[1]).sum())
        lam_r, lam_q = 1.0 - (ones / dens).sum(axis=1) * (1.0, r)
        th, nus = abs(theta_inv), (1.0 / np.abs(dens)).sum(axis=1)
        row_inv = (inv / dens[..., None]).sum(axis=1)  # row_r_den^-1.A^-1, row_den^-1.B^-1
        first[1, 0, J:] = -r / theta_inv * row_inv[1] * a_y0
        first[1, 1, :J] = row_inv[0] * b_y3 / theta_inv
        first[1, 2, J:] = -theta_inv * row_inv[1] * ones[0]
        rate = np.concatenate([s.c_rate, s.cbar_rate])[:, 0]
        first[:, 3] = first[:, 0] * rate * [[1.0], [-1.0]]  # E_l and 1/E_l at their rates
        bound = np.log(2.0 * J / _FAR_TOL * (np.abs(first) * [[1.0], [1.0], [q0], [1.0]]).max(
            axis=1)) + log_e0.real[:, 0] * [[1.0], [-1.0]]
        # |L0^-1| row by row: E N2 = -B^-1 f, then 1/Theta_n (row 1 + |row_den^-1.B^-1|),
        # E N1 = -B^-1 (f + q_plus Theta_n 1), and Ebar Nbar1, Ebar Nbar2 alike with A
        theta_row = 1.0 + np.abs(row_inv[1]).sum()
        l0_inv = max(theta_row, (np.abs(inv).sum(axis=2) + q0 * theta_row * np.abs(ones)).max(
            initial=0.0))
        x0 = max(th, np.abs(np.concatenate([a_y0, b_y3, q0 * th * ones.ravel()])).max(
            initial=0.0))
        k_l = (2.0 * l0_inv ** 2 * x0 * (1.0 + x0 / th) * time
               * max(1.0, (r * nus[1] + q0 * abs(lam_q - 1.0)) / th,
                     (nus[0] + q0 * abs(lam_r - 1.0)) / th))
        # q_minus / q_plus = r_minus / r_plus = e^(-i Delta theta)
        ratio = cmath.exp(-1j * cfg.delta_theta)
        exact = q0 * max(abs(lam_q - ratio), abs(lam_r - ratio)) <= CONSTRAINT_TOL * max(1.0, q0)
        left = (log_e0.real - 0.5 * np.log(k_l / _FAR_TOL) if exact and math.isfinite(k_l)
                else np.full(log_e0.shape, -np.inf))
        log_lam = np.log(np.concatenate([1.0 / s.lam2, s.lam2_bar]))
    return {"log_e0": log_e0, "rate": rate[:, None], "log_lam": log_lam, "right": right,
            "left": left, "theta_inv_minus": theta_inv, "first_order": first,
            "first_bound": bound[..., None]}


def _assemble(cfg: CaseConfig, eigenset: EigenSet, norming: NormingData,
              ns: np.ndarray, ts: np.ndarray) -> _Blocks:
    """The blocks of the reflectionless systems over the cells (ns[i], ts[i])."""
    s = norming.spectrum
    qp, rp = cfg.q_plus(ts), cfg.r_plus(ts)
    with np.errstate(all="ignore"):
        cbar = np.multiply(s.cbar0, np.exp(s.cbar_rate * ts))  # NormingData.cbar
        # NormingData.c's symmetry, on the q_plus and Cbar_j already at hand
        c = -(qp * qp) / s.c_den * cbar
        cpow = c * s.lam2 ** -ns
        cbarpow = cbar * s.lam2_bar ** ns
        kbar = s.kbar_num * cbarpow / s.kbar_den
        k = s.k_num * cpow / s.k_den
        row = cpow / s.row_den
        row_r = cbarpow / s.row_r_den
    return _Blocks(kbar, k, row, row_r, qp, rp, s.y0, s.y3)


def build_system(cfg: CaseConfig, eigenset: EigenSet, norming: NormingData,
                 n: int, t: float) -> tuple[np.ndarray, np.ndarray]:
    """The dense (4J+1)-dimensional system B X = Y at site n, time t.

    Unknown ordering: N1(zeta_j), N2(zeta_j), Nbar1(zbar_j), Nbar2(zbar_j),
    1/Theta_n.  A view of _assemble's blocks, off the CLI path:
    reconstruct_grid solves the blocks without forming B.
    """
    b = _assemble(cfg, eigenset, norming, np.array([n]), np.array([float(t)]))
    J = b.row.shape[0]
    B = np.eye(4 * J + 1, dtype=complex)
    B[J:2 * J, -1] = b.rp[0]
    B[2 * J:3 * J, -1] = -b.qp[0]
    B[:J, 2 * J:3 * J] = B[J:2 * J, 3 * J:4 * J] = -b.kbar[..., 0]
    B[2 * J:3 * J, :J] = B[3 * J:4 * J, J:2 * J] = -b.k[..., 0]
    B[-1, J:2 * J] = b.row[:, 0]
    return B, np.concatenate([b.y0, np.zeros(2 * J), b.y3, [1.0]]).astype(complex)


@dataclass(frozen=True)
class ReconstructionGrid:
    """Reflectionless solution over a batch of cells (ns[i], ts[i]).

    q and r are NaN on singular cells; reason holds the codes OK ...
    AMPLITUDE (names in REASONS).  backward is the solve's backward error:
    0 on the far cells, which are filled without one, NaN where the entries
    overflowed (no solve was made) and inf where the solve gave no finite
    solution; theta_inv is 1/Theta_n wherever it did.  qdot and theta_inv_dot
    (dq/dt, d(1/Theta_n)/dt) are None unless derivative was set, and NaN
    across a _BLOCK that holds a singular cell.
    """

    ns: np.ndarray
    ts: np.ndarray
    q: np.ndarray
    r: np.ndarray
    backward: np.ndarray
    theta_inv: np.ndarray
    reason: np.ndarray
    qdot: np.ndarray | None = None
    theta_inv_dot: np.ndarray | None = None

    @property
    def singular(self) -> np.ndarray:
        return self.reason != OK

    def error(self, i: int) -> SingularSolution:
        """The SingularSolution that the one-cell API raises for cell i."""
        where = f"n={int(self.ns[i])}, t={float(self.ts[i])}"
        why = self.reason[i]
        if why == OVERFLOW:
            what = "system entries" if np.isnan(self.backward[i]) else "solution"
            return SingularSolution(f"{what} overflowed at {where}")
        if why == EXACTLY_SINGULAR:
            return SingularSolution(f"exactly singular system at {where}")
        if why == BACKWARD_ERROR:
            return SingularSolution(f"solve backward error {self.backward[i]:.2e} at {where}")
        if why == THETA_DIVERGENCE:
            return SingularSolution(f"Theta_n diverges at {where}")
        return SingularSolution(f"amplitude diverges at {where}")

    def require(self) -> np.ndarray:
        """q over every cell; raises SingularSolution for the first singular cell."""
        bad = np.flatnonzero(self.reason)
        if bad.size:
            raise self.error(int(bad[0]))
        return self.q


def _flat_cells(ns, ts):
    """The broadcast cells of (ns, ts), flat, with their broadcast shape."""
    ns, ts = np.broadcast_arrays(np.asarray(ns, dtype=np.int64), np.asarray(ts, dtype=float))
    return ns.ravel(), ts.ravel(), ns.shape


def reconstruct_grid(cfg: CaseConfig, eigenset: EigenSet, norming: NormingData,
                     ns, ts, derivative: bool = False) -> ReconstructionGrid:
    """Reflectionless (q_n(t), r_n(t)) over the cells (ns[i], ts[i]); dq/dt too if derivative.

    ns and ts broadcast against each other (a scalar t gives a time row,
    sites[None, :] and ts[:, None] a time-major grid); the result is flat in
    that broadcast order.  Far cells, whose lam**(2n) couplings all lie past
    their bounds, take the background to first order with no solve, within
    1e-15 max(1, |x|) of the exact one, and backward error 0 (_solve_screened).
    The others are solved in blocks of _BLOCK: each block's 2J x 2J diagonal
    blocks P are stacked and solved by one batched LAPACK call with four
    right-hand sides, 1/Theta_n follows from the border row and the rest by
    back-substitution (_solve_block), and each cell is then judged on its
    own: finite entries and solution, backward error of the full (4J+1)
    equations at most 1e-8 * |B| |X| + |Y| (B is never formed), |1/Theta_n| at least
    DET_GUARD * max(1, |X|), and a finite amplitude.  The system is badly
    scaled but well posed at large |n| (lam**(2n) entries), so singularity
    is judged by these checks rather than by a determinant.  An empty
    spectrum is the J = 0 system B = [1]: q_plus(t), r_plus(t) at every cell.
    With derivative set the grid also holds qdot and theta_inv_dot, every
    other field bit for bit as without: time enters only through
    exponentials, so the exact derivative of the computed solution is
    X' = -B^-1 (dB/dt) X, a second solve of the same P through the same
    border.  A nonempty stationary spectrum (NormingData.stationary) turns with
    the background's gauge: its distinct sites go through _solve_screened once
    each, at t = 0, and every cell, near or far, takes its site's q u and r
    conj(u), u = exp(i rotation t), 1/Theta_n, backward error and reason,
    dq/dt = i rotation q and d(1/Theta_n)/dt = 0; a t = 0 cell keeps the
    solve's bits.  Such a cell lies within 4 eps (1 + |rotation t|) max(1,
    |x|) / (min(1, d) r**3) of _solve_screened at its own time, d the
    distance of theta_plus + thbar1 from 0 and pi (mod 2 pi), near which
    both lose digits, and r**3 the solve's conditioning as q0 nears 1 (at
    most 2.2 of those units over 2,200 members; tests/test_ist.py, TestGauge).
    The solve never raises; require() raises for a singular cell.
    """
    ns, ts, _ = _flat_cells(ns, ts)
    if not (norming.stationary and norming.gammas):
        return _solve_screened(cfg, eigenset, norming, ns, ts, derivative)
    sites, at = np.unique(ns, return_inverse=True)
    by_site = _solve_screened(cfg, eigenset, norming, sites, np.zeros(sites.size))
    q, r = by_site.q[at], by_site.r[at]
    with np.errstate(all="ignore"):
        u = np.exp(1j * cfg.rotation * ts)
        # t = 0 keeps the solve's bits (q * (1 + 0j) can flip the sign of a zero);
        # no where= here: NumPy's masked loop rounds a one-cell product differently
        moving = ts != 0.0
        q, r = np.where(moving, q * u, q), np.where(moving, r * u.conj(), r)
        dots = (1j * cfg.rotation * q, np.zeros(ns.size, complex)) if derivative else ()
    return ReconstructionGrid(ns, ts, q, r, by_site.backward[at], by_site.theta_inv[at],
                              by_site.reason[at], *dots)


def _solve_screened(cfg: CaseConfig, eigenset: EigenSet, norming: NormingData,
                    ns: np.ndarray, ts: np.ndarray, derivative: bool = False
                    ) -> ReconstructionGrid:
    """Every cell at its own time: far fills, and _solve_block on the rest.

    The screen (_screen) first takes out the far cells, from their 2J
    couplings E_l = C_l(t) lam(zeta_l)**(-2n) and Ebar_l = Cbar_l(t)
    lam(zbar_l)**(2n), whose logs are affine in (n, t):
    - right far field, every |E_l| m_l <= sqrt(2**-53 / K_R) / 2J: the J = 0
      system to first order, q_plus + r sum_j row_j y0_j, r_plus - sum_j
      row_r_j y3_j and 1/Theta_n = 1 + r_plus sum_j row_j;
    - left far field, every |E_l| >= sqrt(K_L / 2**-53): the limiting system,
      q_minus(t), r_minus(t) and 1/Theta_-inf, to first order in the 1/E_l,
      for a spectrum whose limiting system reaches that background to
      CONSTRAINT_TOL (none is left far otherwise).
    _far_field derives m_l, K_R, K_L and the first-order coefficients from
    the spectrum so that a fill's second-order remainder is below 2**-53
    (_FAR_TOL) in q, r, 1/Theta_n and dq/dt.  A first-order term below
    2**-53 is left out, and none is formed off _screen's live mask, where
    first_bound shows that none can pass it, so that deeper cells keep the
    limit's bytes; a fill stays within 1e-15 max(1, |x|) of the exact
    solve, plus on the left about the limiting system's miss of the
    background (tests/test_ist.py, _limit_miss).  Far cells are OK
    (AMPLITUDE where |q| is not finite), never overflow, and have backward
    error 0 and the fill's exact dq/dt (i rotation on the limit, each
    coupling's rate on its term); d(1/Theta_n)/dt is left 0, off by its
    first-order term, which only singularity_scan's Newton step would read,
    and a far cell stops that step either way.  _solve_block solves the
    rest in _BLOCK chunks.
    """
    s = norming.spectrum
    out = [np.empty(ns.size, dtype) for dtype in
           (complex, complex, float, complex, np.int8, complex, complex)[:5 + 2 * derivative]]
    # the screen before the solves: its temporaries go before out's pages are touched
    right, left, live = _screen(s, ns, ts)
    near, far = np.flatnonzero(~(right | left)), np.flatnonzero(right | left)
    live = np.flatnonzero(live[far])
    for start in range(0, near.size, _BLOCK):
        block = near[start:start + _BLOCK]
        for whole, part in zip(out, _solve_block(cfg, eigenset, norming, ns[block], ts[block],
                                                 derivative)):
            whole[block] = part
    if far.size:
        t, plus = ts[far], right[far]
        with np.errstate(all="ignore"):
            qp, qm = cfg.q_plus(t), cfg.q_minus(t)
            # the limits of q, r (r_plus = sigma conj(q_minus), r_minus = sigma conj(q_plus)),
            # 1/Theta_n and, with derivative set, dq/dt
            fills = np.empty((3 + derivative, far.size), dtype=complex)
            fills[0] = np.where(plus, qp, qm)
            fills[1] = cfg.sigma * np.conj(np.where(plus, qm, qp))
            fills[2] = np.where(plus, 1.0, s.theta_inv_minus)
            if derivative:
                fills[3] = 1j * cfg.rotation * fills[0]
            if live.size:  # their first-order terms on E_l (right) or 1/E_l (left)
                minus = ~plus[live]
                log = s.log_e0 + s.rate * t[live] + s.log_lam * ns[far[live]]  # log E_l
                e = np.exp(np.where(minus, -log, log))
                terms = np.zeros((len(fills), live.size), dtype=complex)
                for l, (right_l, left_l) in enumerate(zip(*s.first_order.transpose(0, 2, 1))):
                    terms += np.where(minus, left_l[:len(fills), None],
                                      right_l[:len(fills), None]) * e[l]
                # times r_plus; not *=, which rounds a one-cell product differently
                terms[2] = terms[2] * (cfg.sigma * np.conj(qm[live]))
                # a term below _FAR_TOL is left out, so that the limit keeps its bytes
                limits = fills[:, live]
                fills[:, live] = np.where(np.abs(terms) <= _FAR_TOL, limits, limits + terms)
            q, r, theta_inv, *qdot = fills
            reason = OK
            huge = ~np.isfinite(np.abs(q))  # a finite q whose modulus overflows
            if huge.any():
                fills[:2, huge] = fills[3:, huge] = complex(np.nan, np.nan)
                reason = np.where(huge, AMPLITUDE, OK)
        for whole, fill in zip(out, [q, r, 0.0, theta_inv, reason, *qdot, 0.0]):
            whole[far] = fill
    return ReconstructionGrid(ns, ts, *out)


def _screen(s: _Spectrum, ns: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Masks of the right and of the left far field (_solve_screened), and of their live cells.

    A live cell's first-order term, at most 2J max_l |coef_l| |E_l|**(+-1)
    (first_bound), can pass _FAR_TOL; the other far cells keep the limit.
    """
    with np.errstate(invalid="ignore"):  # inf - inf on unbounded cells, which stay near
        log = s.rate.real * ts
        log += s.log_lam.real * ns  # log|E_l / E_l(0, 0)|, affine in (n, t)
        right = np.maximum.reduce(log + s.right, axis=0, initial=-np.inf) <= 0.0
        left = np.minimum.reduce(log + s.left, axis=0, initial=np.inf) >= 0.0
        left &= ~right
        live = right & (np.maximum.reduce(log + s.first_bound[0], axis=0, initial=-1.0) > 0.0)
        live |= left & (np.maximum.reduce(s.first_bound[1] - log, axis=0, initial=-1.0) > 0.0)
    return right, left, live


def _solve_block(cfg: CaseConfig, eigenset: EigenSet, norming: NormingData,
                 ns: np.ndarray, ts: np.ndarray, derivative: bool = False):
    """q, r, backward error, 1/Theta_n and reason code over one block of cells.

    In the unknown order (N2, Nbar2 | 1/Theta_n | N1, Nbar1) the system of
    _Blocks is block lower triangular, and both diagonal blocks are the
    2J x 2J matrix P = [[I, -kbar], [-k, I]], so det B = det(P)**2 (1 + row.z2).
    One pivoted solve of P with four right-hand sides gives z1 = P^-1 (0, y3),
    z2 = P^-1 (-r_plus, 0), z3 = P^-1 (y0, 0) and z4 = P^-1 (0, q_plus); the
    border then gives 1/Theta_n = (1 - row.z1) / (1 + row.z2) (row against
    the N2 half), and back-substitution (N2, Nbar2) = z1 + z2/Theta_n,
    (N1, Nbar1) = z3 + z4/Theta_n.  The backward error is the largest
    residual of the full equations, and max|B| = max(1, |kbar|, |k|, |row|,
    |q_plus|, |r_plus|), so B is never formed.  Past the solve every array
    keeps the cell axis last, where NumPy's reductions are fast.  Reasons
    and the NaN and inf fills are made only when some cell fails a check.

    With derivative set, dq/dt and d(1/Theta_n)/dt follow as a sixth and a
    seventh array when every cell of the block is regular (all NaN otherwise):
    time enters only through exponentials, so -(dB/dt) X is X's blocks
    scaled by the rates, and X' is a second solve of P through the same border.
    """
    b = _assemble(cfg, eigenset, norming, ns, ts)
    kbar, k, row, qp, rp = b.kbar, b.k, b.row, b.qp, b.rp
    s = norming.spectrum
    J, M = row.shape
    singular = np.zeros(M, dtype=bool)  # cells whose P LAPACK finds exactly singular
    with np.errstate(all="ignore"):
        bmax = np.maximum(np.abs(qp), np.abs(rp))  # max|B| per cell, NaN or inf on overflow
        for a in (kbar, k, row):
            np.maximum(bmax, np.abs(a).reshape(-1, M).max(axis=0, initial=1.0), out=bmax)
        entries_ok = np.isfinite(bmax)
        if not entries_ok.all():  # zeroed entries are never reported
            kbar[..., ~entries_ok] = k[..., ~entries_ok] = row[:, ~entries_ok] = 0.0
        P = np.zeros((M, 2 * J, 2 * J), dtype=complex)
        P.reshape(M, 4 * J * J)[:, ::2 * J + 1] = 1.0
        P[:, :J, J:] = -kbar.transpose(2, 0, 1)
        P[:, J:, :J] = -k.transpose(2, 0, 1)
        rhs = np.zeros((2 * J, 4, M), dtype=complex)
        rhs[J:, 0], rhs[:J, 1], rhs[:J, 2], rhs[J:, 3] = s.y3[:, None], -rp, s.y0[:, None], qp
        try:
            z = np.linalg.solve(P, rhs.transpose(2, 0, 1))
        except np.linalg.LinAlgError:
            z = np.full((M, 2 * J, 4), np.nan, dtype=complex)
            for i in range(M):
                try:
                    z[i] = np.linalg.solve(P[i:i + 1], rhs[None, ..., i])[0]
                except np.linalg.LinAlgError:
                    singular[i] = True  # entries were finite
        z = z.transpose(1, 2, 0).copy()
        border = 1.0 + (row * z[:J, 1]).sum(axis=0)
        theta_inv = (1.0 - (row * z[:J, 0]).sum(axis=0)) / border
        X = z[:, 0::2] + theta_inv * z[:, 1::2]  # columns (N2, Nbar2) and (N1, Nbar1)
        abs_theta_inv = np.abs(theta_inv)
        xmax = np.maximum(np.abs(X).reshape(-1, M).max(axis=0, initial=0.0), abs_theta_inv)
        solved = np.isfinite(xmax)
        # P X - (right-hand sides), with P = I - [[0, kbar], [k, 0]]
        residual = X - (rhs[:, 0::2] + theta_inv * rhs[:, 1::2])
        residual[:J] -= _times(kbar, X[J:])
        residual[J:] -= _times(k, X[:J])
        backward = np.maximum(np.abs(residual).reshape(-1, M).max(axis=0, initial=0.0),
                              np.abs(theta_inv + (row * X[:J, 0]).sum(axis=0) - 1.0))
        sum_q = (row * X[:J, 1]).sum(axis=0)
        q = qp + cfg.r * sum_q / theta_inv
        rn = rp - (b.row_r * X[J:, 0]).sum(axis=0) / theta_inv
        # The checks in REASONS order (a finite q can have an infinite |q|);
        # a cell's reason is the first check it fails.
        checks = [~entries_ok, singular, ~solved,
                  backward > 1e-8 * (bmax * np.maximum(xmax, 1e-300) + s.ymax),
                  abs_theta_inv < DET_GUARD * np.maximum(1.0, xmax), ~np.isfinite(np.abs(q))]
    reason = np.zeros(M, dtype=np.int8)
    if np.any(checks):
        reason = np.select(checks, [OVERFLOW, EXACTLY_SINGULAR, OVERFLOW, BACKWARD_ERROR,
                                    THETA_DIVERGENCE, AMPLITUDE], OK).astype(np.int8)
        backward[~solved] = np.inf
        backward[~entries_ok] = np.nan
        q[reason != OK] = rn[reason != OK] = complex(np.nan, np.nan)
    if not derivative:
        return q, rn, backward, theta_inv, reason
    qdot = theta_inv_dot = np.full(M, complex(np.nan, np.nan))
    if not reason.any():
        with np.errstate(all="ignore"):
            # -(dB/dt) X: kbar's columns carry Cbar_j(t), k's columns and the
            # border row C_j(t), and r_plus, q_plus rotate at -+i rotation.
            c_X = s.c_rate[..., None] * X[:J]
            spin = 1j * cfg.rotation * theta_inv
            drhs = np.empty_like(X)
            drhs[:J] = _times(kbar, s.cbar_rate[..., None] * X[J:])
            drhs[J:] = _times(k, c_X)
            drhs[:J, 0] += spin * rp
            drhs[J:, 1] += spin * qp
            dX = np.linalg.solve(P, drhs.transpose(2, 0, 1)).transpose(1, 2, 0)
            theta_inv_dot = -(row * (c_X[:, 0] + dX[:J, 0])).sum(axis=0) / border
            n1_dot = dX[:J, 1] + theta_inv_dot * z[:J, 3]
            dsum_q = (row * (c_X[:, 1] + n1_dot)).sum(axis=0)
            qdot = (1j * cfg.rotation * qp
                    + cfg.r * (dsum_q - sum_q * theta_inv_dot / theta_inv) / theta_inv)
    return q, rn, backward, theta_inv, reason, qdot, theta_inv_dot


def _times(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The matrix product a x per cell, for a (J, J, M) and x (J, K, M).

    J products of whole rows of cells: on stacks of tiny matrices this is
    several times faster than matmul.
    """
    out = np.zeros(x.shape, dtype=complex)
    for j in range(a.shape[1]):
        out += a[:, j, None] * x[j]
    return out


def reconstruct(cfg: CaseConfig, eigenset: EigenSet, norming: NormingData,
                n: int, t: float) -> complex:
    """Reflectionless potential q_n(t); equals q_plus(t) for an empty spectrum."""
    return complex(reconstruct_grid(cfg, eigenset, norming, [n], [t]).require()[0])


def make_evaluator(cfg: CaseConfig, eigenset: EigenSet, norming: NormingData):
    """Evaluator ev(ns, ts) -> q_n(t) over the reflectionless reconstruction.

    ns and ts broadcast against each other; the cells are solved in one
    reconstruct_grid call and q comes back in their broadcast shape (a
    complex scalar for one scalar cell).  SingularSolution is raised for
    the first singular cell in flattened order.
    """

    def evaluator(ns, ts):
        q = reconstruct_grid(cfg, eigenset, norming, ns, ts).require()
        return q.reshape(np.broadcast_shapes(np.shape(ns), np.shape(ts)))[()]

    return evaluator


@dataclass(frozen=True)
class SingularityScan:
    """Minimum of |1/Theta_n| over a coarse (n, t) sweep and its Newton refinement.

    A vanishing minimum marks a real-time amplitude pole of the family
    member (Theta_n -> infinity somewhere on the lattice).
    """

    min_theta_inv: float
    at_site: int
    at_time: float
    singular: bool


def singularity_scan(cfg: CaseConfig, eigenset: EigenSet, norming: NormingData,
                     n_range: tuple[int, int] = (-25, 25),
                     t_span: tuple[float, float] = (-10.0, 10.0),
                     coarse_dt: float = 0.1, solved=None) -> SingularityScan:
    """Locate the deepest dip of |1/Theta_n| and refine it in time by Newton.

    A cell whose solve fails scores 0; the coarse sweep covers every
    (site, time) cell and keeps the first minimum in site-major order.  It
    reads each cell that solved holds (any ReconstructionGrid of the member,
    in any order: `ist verify` passes its residual cells) and solves the
    rest, if any, in one reconstruct_grid call; a cell's solve does not
    depend on its block, so the scan is the same bit for bit with or
    without solved.  At the dip's site, Gauss-Newton steps on f =
    1/Theta_n(t) with the exact df/dt (theta_inv_dot) move t towards a
    real-time zero of f, each a one-cell reconstruct_grid call but the
    first when solved holds the dip with a finite df/dt (none without
    derivative, NaN where its block held a singular cell); they stop when
    the step is a few ulps, longer than coarse_dt, or predicts no halving
    of |f| (no zero ahead), when the cell is singular, or after
    _NEWTON_STEPS.  A stationary spectrum (NormingData.stationary, every
    gamma(zbar_j) = 0: the empty one, and the case-IV pair zbar_1 = (1 -
    q0)/r, where zbar_1 + 1/zbar_1 = 2/r) has the same 1/Theta_n at every
    time: it sweeps t = 0 alone, clamped into t_span, and takes no step.
    The member is flagged singular when the least |f| seen is below 1e-6.
    """
    if not (coarse_dt > 0.0 and n_range[0] <= n_range[1]
            and -math.inf < t_span[0] <= t_span[1] < math.inf):
        raise DomainError(f"empty or unbounded scan: n_range={n_range}, "
                          f"t_span={t_span}, coarse_dt={coarse_dt}")
    sites = np.arange(n_range[0], n_range[1] + 1)
    if norming.stationary:  # 1/Theta_n is the same at every time
        times = [min(max(0.0, t_span[0]), t_span[1])]
    else:
        times = [t_span[0]]
        while times[-1] + coarse_dt <= t_span[1]:
            times.append(times[-1] + coarse_dt)
    ns, ts = np.broadcast_arrays(sites[:, None], np.array(times))
    at = _solved_at(solved, sites, ts[0])
    rest, vals = at < 0, np.empty(at.shape)
    if rest.any():
        vals[rest] = _scores(reconstruct_grid(cfg, eigenset, norming, ns[rest], ts[rest]))
    if not rest.all():
        vals[~rest] = _scores(solved, at[~rest])
    i, j = divmod(int(np.argmin(vals)), len(times))
    least, n_star, t, k, cell = float(vals.min()), int(sites[i]), times[j], at[i, j], solved
    for _ in range(0 if norming.stationary else _NEWTON_STEPS):  # stationary: the sweep is all
        if k < 0 or cell.theta_inv_dot is None or not np.isfinite(cell.theta_inv_dot[k]):
            cell, k = reconstruct_grid(cfg, eigenset, norming, n_star, t, derivative=True), 0
        f, fdot = complex(cell.theta_inv[k]), cell.theta_inv_dot[k]  # NaN on a singular cell
        least = min(least, 0.0 if cell.reason[k] in _SOLVE_FAILED else abs(f))
        k = -1  # every later step is at a time of its own
        with np.errstate(all="ignore"):  # df/dt = 0 gives a NaN step, which stops
            step = float(-(f.conjugate() * fdot).real / abs(fdot) ** 2)
        if not (4.0 * math.ulp(t) < abs(step) <= coarse_dt
                and abs(f + fdot * step) < 0.5 * abs(f)):
            break
        t += step
    return SingularityScan(least, n_star, t, least < 1e-6)


def _scores(grid: ReconstructionGrid, cells=slice(None)) -> np.ndarray:
    """|1/Theta_n| on the cells of grid, 0 where the solve failed (singularity_scan)."""
    return np.where(np.isin(grid.reason[cells], _SOLVE_FAILED), 0.0,
                    np.abs(grid.theta_inv[cells]))


def _solved_at(solved, sites: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The flat index in solved of each cell (sites[i], times[j]), -1 where it holds none.

    A cell's key is its site and the rank of its time's bits among solved's
    (so -0.0 and 0.0 stay apart); the wanted keys are searchsorted among
    solved's, whatever their order.
    """
    if solved is None or not solved.ns.size:
        return np.full((sites.size, times.size), -1)
    bits, rank = np.unique(solved.ts.view(np.int64), return_inverse=True)
    rows = np.searchsorted(bits, times.view(np.int64))
    rows[bits[np.minimum(rows, bits.size - 1)] != times.view(np.int64)] = bits.size  # no cell's
    keys, wanted = solved.ns * (bits.size + 1) + rank, sites[:, None] * (bits.size + 1) + rows
    order = np.argsort(keys)
    found = order[np.minimum(np.searchsorted(keys, wanted, sorter=order), keys.size - 1)]
    return np.where(keys[found] == wanted, found, -1)


def soliton_closed_form_case4(cfg: CaseConfig, thbar1: float, ns, ts):
    """First-order closed form for case IV, independent of the linear solve.

    Uses the explicit elimination of the 5x5 system: with v_n**2 = R1*R2,
    1/Theta_n and N1(zeta_1) have rational closed forms, and
    q_n = q_plus + r*R3*N1/( 1/Theta_n ).  ns and ts broadcast against each
    other; q comes back in their broadcast shape (a complex scalar for one
    scalar cell).  SingularSolution is raised for the first failing cell in
    flattened order: far from the soliton the lam**(2n) factors overflow,
    and on a pole a denominator or 1/Theta_n vanishes.
    """
    if cfg.case_id is not Case.IV:
        raise DomainError("closed form defined for case IV only")
    ns, ts, shape = _flat_cells(ns, ts)  # 1-D, so that one cell rounds as in a grid
    eigenset = eigenvalues_case4(cfg)
    zb1, z1 = eigenset.pairs[0].zbar, eigenset.pairs[0].zeta
    norming = norming_case4(cfg, eigenset, thbar1)
    r = cfg.r
    qp, rp = cfg.q_plus(ts), cfg.r_plus(ts)
    cbar1, c1 = norming.cbar(0, ts), norming.c(0, ts)
    lam_b = point_from_zeta(cfg, zb1).lam
    with np.errstate(all="ignore"):
        lam2n_b = lam_squared(cfg, zb1) ** ns
        r3 = c1 * lam_squared(cfg, z1) ** (-ns) / (z1 * (z1 - r))
        v = qp * cbar1 * lam_b * lam2n_b / (zb1 * zb1 - 2.0 * r * zb1 + 1.0)
        v2 = v * v
        r1 = -(z1 - 1.0 / r) * cbar1 * lam2n_b / ((zb1 - 1.0 / r) * (z1 - zb1))
        den1 = v2 - 1.0
        den2 = v2 + r3 * rp - 1.0
        theta_inv = (v2 * zb1 / z1 - 1.0) / den2
        n1 = (cfg.q0 ** 2 * zb1 / (r * zb1 - 1.0) + qp * r1 * theta_inv) / den1
        q = qp + r * r3 * n1 / theta_inv
    checks = ((~(np.isfinite(v2) & np.isfinite(r3)), "closed form overflows"),
              ((np.abs(den1) < DET_GUARD) | (np.abs(den2) < DET_GUARD),
               "closed-form denominator vanishes"),
              (np.abs(theta_inv) < DET_GUARD, "Theta_n diverges"))
    bad = np.flatnonzero(np.logical_or.reduce([failed for failed, _ in checks]))
    if bad.size:
        i = int(bad[0])
        what = next(what for failed, what in checks if failed[i])
        raise SingularSolution(f"{what} at n={int(ns[i])}, t={float(ts[i])}")
    return q.reshape(shape)[()]


def theta_minus_inf_from_system(cfg: CaseConfig, eigenset: EigenSet,
                                norming: NormingData) -> complex:
    """Theta_n as n -> -inf, from the limiting system that left far cells take.

    Its J x J blocks are constant (_far_field), so 1/Theta_-inf = 1 +
    row_den^-1 . B^-1 y3 at every time; it is derived from the system, not
    from the trace formula, so that the two can check each other.
    """
    theta_inv = norming.spectrum.theta_inv_minus
    if not abs(theta_inv) >= DET_GUARD:  # NaN too: A or B is singular
        raise SingularSolution("Theta_n diverged in the minus-infinity limit")
    return complex(1.0 / theta_inv)
