"""Discrete eigenvalues, norming constants, and reflectionless reconstruction.

Admissible spectra are fixed per case by the trace-formula asymptotics:
case I carries one complex quartet on |zeta - 1/r| = q0/r, case II carries
nothing (case2_trace_infima bounds each candidate family's violation of the
trace limits away from 0 in closed form), case III two real pairs linked by
the spectral involution, case IV one real pair.  The reflectionless inverse problem collapses to a
(4J+1)-dimensional linear system per lattice site and time, block lower
triangular in the unknown order (N2, Nbar2 | 1/Theta_n | N1, Nbar1) with
the 2J x 2J diagonal block P = [[I, -kbar], [-k, I]] twice;
reconstruct_grid solves it for a whole (n, t) grid of cells by one batched,
pivoted solve of P per fixed-size block, a scalar border for 1/Theta_n and
back-substitution, and returns both q_n and r_n; reconstruct is its
one-cell view; NormingData holds the factors that depend on the spectrum
alone.  build_system (one cell's dense B and Y, built from the same
blocks) stays only because the benchmark's tracer wraps it, until ROADMAP
item 2 re-points the benchmark.
"""
from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateEigenvalues, DomainError, Inadmissible,
                     SingularSolution)
from .spectral import (Case, CaseConfig, Region, SINGULAR_GUARD, classify,
                       gamma, lam_squared, point_from_zeta, zeta_bar)

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
    spectrum: _Spectrum = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # gamma(zbar_j) and the spectrum's factors depend only on the eigenvalues
        # and Cbar_j(0): evaluate them once.
        cfg, r, rinv = self.cfg, self.cfg.r, 1.0 / self.cfg.r
        zs, zbs = np.array(self.eigenset.zeros_t11), np.array(self.eigenset.zeros_t22)
        object.__setattr__(self, "gammas", tuple(gamma(cfg, zb)
                                                 for zb in self.eigenset.zeros_t22))
        y0, y3 = r - 1.0 / zs, zbs - r
        object.__setattr__(self, "spectrum", _Spectrum(
            np.array(self.cbar0, dtype=complex)[:, None], self.cbar_rate[:, None],
            self.c_rate[:, None], lam_squared(cfg, zs)[:, None], lam_squared(cfg, zbs)[:, None],
            ((zbs - r) ** 2)[:, None],
            (zs - rinv)[:, None, None], ((zbs - rinv) * (zs[:, None] - zbs))[..., None],
            (zbs - r)[:, None, None], ((zs - r) * (zbs[:, None] - zs))[..., None],
            (zs * (zs - r))[:, None], (zbs - rinv)[:, None],
            y0, y3, np.abs(np.concatenate([y0, y3])).max(initial=1.0)))

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
_Spectrum = namedtuple("_Spectrum", "cbar0 cbar_rate c_rate lam2 lam2_bar c_den kbar_num "
                       "kbar_den k_num k_den row_den row_r_den y0 y3 ymax")


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
    NaN where the entries overflowed (no solve was made) and inf where the
    solve gave no finite solution; theta_inv is 1/Theta_n wherever it did.
    """

    ns: np.ndarray
    ts: np.ndarray
    q: np.ndarray
    r: np.ndarray
    backward: np.ndarray
    theta_inv: np.ndarray
    reason: np.ndarray

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
                     ns, ts) -> ReconstructionGrid:
    """Reflectionless (q_n(t), r_n(t)) over the cells (ns[i], ts[i]).

    ns and ts broadcast against each other (a scalar t gives a time row,
    sites[None, :] and ts[:, None] a time-major grid); the result is flat in
    that broadcast order.  The cells are solved in blocks of _BLOCK: each
    block's 2J x 2J diagonal blocks P are stacked and solved by one batched
    LAPACK call with four right-hand sides, 1/Theta_n follows from the
    border row and the rest by back-substitution (_solve_block), and each
    cell is then judged on its own: finite entries and solution, backward
    error of the full (4J+1) equations at most 1e-8 * |B| |X| + |Y| (B is
    never formed), |1/Theta_n| at least DET_GUARD * max(1, |X|), and a
    finite amplitude.  The system is badly scaled but well posed at large
    |n| (lam**(2n) entries), so singularity is judged by these checks rather
    than by a determinant.  An empty spectrum is the J = 0 system B = [1]:
    q_plus(t), r_plus(t) at every cell.
    """
    ns, ts, _ = _flat_cells(ns, ts)
    return _solve_cells(cfg, eigenset, norming, ns, ts)[0]


def reconstruct_with_derivative(cfg: CaseConfig, eigenset: EigenSet,
                                norming: NormingData, ns, ts):
    """(q_n(t), dq_n/dt) over the cells (ns[i], ts[i]), both in their broadcast shape.

    q is reconstruct_grid's q bit for bit (the same blocks, solves and
    checks).  Time enters the system only through exponentials, so each
    block of dB/dt is that block times a constant rate, and the exact
    derivative of the computed solution is X' = -B^-1 (dB/dt) X, a second
    solve of the same P through the same border.  Raises SingularSolution
    for the first singular cell in flattened order, as make_evaluator does.
    """
    ns, ts, shape = _flat_cells(ns, ts)
    grid, (qdot, _) = _solve_cells(cfg, eigenset, norming, ns, ts, derivative=True)
    return grid.require().reshape(shape)[()], qdot.reshape(shape)[()]


def _solve_cells(cfg: CaseConfig, eigenset: EigenSet, norming: NormingData,
                 ns: np.ndarray, ts: np.ndarray, derivative: bool = False):
    """The ReconstructionGrid over flat cells; [dq/dt, d(1/Theta_n)/dt] if derivative is set.

    The one block loop of reconstruct_grid and reconstruct_with_derivative.
    """
    out = [np.empty(ns.size, dtype) for dtype in
           (complex, complex, float, complex, np.int8, complex, complex)[:5 + 2 * derivative]]
    for start in range(0, ns.size, _BLOCK):
        cells = slice(start, start + _BLOCK)
        for whole, part in zip(out, _solve_block(cfg, eigenset, norming, ns[cells], ts[cells],
                                                 derivative)):
            whole[cells] = part
    return ReconstructionGrid(ns, ts, *out[:5]), out[5:]


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
                     coarse_dt: float = 0.1) -> SingularityScan:
    """Locate the deepest dip of |1/Theta_n| and refine it in time by Newton.

    A cell whose solve fails scores 0; the coarse sweep is one
    reconstruct_grid call over every (site, time) cell and keeps the first
    minimum in site-major order.  Case IV sweeps t_span[0] alone: its pair
    has zbar_1 = (1 - q0)/r with r**2 = 1 - q0**2, so zbar_1 + 1/zbar_1 = 2/r,
    gamma(zbar_1) = 0, and 1/Theta_n does not depend on t.  At that site, Gauss-Newton steps on
    f = 1/Theta_n(t) with the exact df/dt of the derivative solve move t
    towards a real-time zero of f; they stop when the step is a few ulps,
    longer than coarse_dt, or predicts no halving of |f| (no zero ahead),
    when the cell is singular, or after _NEWTON_STEPS.  The member is
    flagged singular when the least |f| seen is below 1e-6.
    """
    if not (coarse_dt > 0.0 and n_range[0] <= n_range[1]
            and -math.inf < t_span[0] <= t_span[1] < math.inf):
        raise DomainError(f"empty or unbounded scan: n_range={n_range}, "
                          f"t_span={t_span}, coarse_dt={coarse_dt}")
    sites = np.arange(n_range[0], n_range[1] + 1)
    times = [t_span[0]]
    while cfg.case_id is not Case.IV and times[-1] + coarse_dt <= t_span[1]:
        times.append(times[-1] + coarse_dt)
    grid = reconstruct_grid(cfg, eigenset, norming, sites[:, None], np.array(times)[None, :])
    vals = np.where(np.isin(grid.reason, _SOLVE_FAILED), 0.0, np.abs(grid.theta_inv))
    i, j = divmod(int(np.argmin(vals)), len(times))
    least, n_star, t = float(vals.min()), int(sites[i]), times[j]
    for _ in range(_NEWTON_STEPS):
        cell, (_, fdot) = _solve_cells(cfg, eigenset, norming, np.array([n_star]),
                                       np.array([t]), derivative=True)
        f, fdot = complex(cell.theta_inv[0]), fdot[0]  # fdot is NaN on a singular cell
        least = min(least, 0.0 if cell.reason[0] in _SOLVE_FAILED else abs(f))
        with np.errstate(all="ignore"):
            step = float(-(f.conjugate() * fdot).real / abs(fdot) ** 2)
        if not (4.0 * math.ulp(t) < abs(step) <= coarse_dt
                and abs(f + fdot * step) < 0.5 * abs(f)):
            break
        t += step
    return SingularityScan(least, n_star, t, least < 1e-6)


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
    """Theta_n from the solved system at t = 0 and a deeply negative site.

    The site (at most 200 out) is capped so that the lam**(2n) system entries
    stay finite in double precision; the limit is machine-converged long before the cap.
    """
    max_log = 1e-6
    for z in (*eigenset.zeros_t11, *eigenset.zeros_t22):
        max_log = max(max_log, abs(math.log10(abs(lam_squared(cfg, z)))))
    n_eff = min(200, max(8, int(140.0 / max_log)))
    grid = reconstruct_grid(cfg, eigenset, norming, [-n_eff], [0.0])
    if grid.reason[0] in _SOLVE_FAILED:
        raise grid.error(0)
    if abs(grid.theta_inv[0]) < DET_GUARD:
        raise SingularSolution("Theta_n diverged in the minus-infinity limit")
    return complex(1.0 / grid.theta_inv[0])
