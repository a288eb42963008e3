"""Discrete eigenvalues, norming constants, and reflectionless reconstruction.

Admissible spectra are fixed per case by the trace-formula asymptotics:
case I carries one complex quartet on |zeta - 1/r| = q0/r, case II carries
nothing, case III two real pairs linked by the spectral involution, case IV
one real pair.  The reflectionless inverse problem collapses to a dense
(4J+1)-dimensional linear system per lattice site and time; reconstruct_grid
solves those systems for a whole (n, t) grid of cells, one batched call per
fixed-size block, and the one-cell functions (build_system, reconstruct,
reconstruct_pair) are views over it.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

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
    with np.errstate(divide="ignore", invalid="ignore"):
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


def _trace_limits(cfg: CaseConfig, zeros, partners, theta_inf=None) -> dict:
    """The three trace-limit residuals over spectra (..., J), as arrays."""
    sign = cfg.branch_sign
    if theta_inf is None:
        theta_inf = trace_product(zeros, partners, 0.0)
    return {
        "t11_at_rinv": np.abs(trace_product(zeros, partners, 1.0 / cfg.r) - sign),
        "t22_at_zero": np.abs(theta_inf * trace_product(partners, zeros, 0.0) - 1.0),
        "t22_at_r": np.abs(theta_inf * trace_product(partners, zeros, cfg.r) - sign),
    }


def admissibility_residuals(cfg: CaseConfig, eigenset: EigenSet,
                            theta_inf: complex | None = None) -> dict[str, float]:
    """Residuals of the three trace-formula limits for this case's spectrum.

    The right-hand sides follow the case-dependent branch-point signs of
    t11 near 1/r and t22 near r (+1 for cases I/III, -1 for cases II/IV).
    An empty spectrum meets them only for cases I/III: for II/IV both
    branch-point limits miss by 2.
    """
    res = _trace_limits(cfg, eigenset.zeros_t11, eigenset.zeros_t22, theta_inf)
    return {name: float(value) for name, value in res.items()}


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


@dataclass(frozen=True)
class FeasibilityScan:
    """Result of the no-soliton grid scan: min over candidates of the violation."""

    min_violation: float
    argmin: complex
    family: str
    candidates: int


def case2_feasibility_scan(cfg: CaseConfig, samples: int = 10_000,
                           seed: int = 0) -> FeasibilityScan:
    """Scan the three structured spectra of case II against its trace limits.

    Families scanned: a single real pair (J=1), one complex quartet (J=2),
    and two involution-linked real pairs (J=2).  The violation of a
    candidate is the distance of the trace-formula limits from their
    required values; strict positivity over the grid means no admissible
    discrete spectrum exists.  Each family's candidates are scored as one
    batch of spectra; the first least violation wins, in family order.
    """
    if cfg.case_id is not Case.II:
        raise DomainError("the feasibility scan is defined for case II")
    rng = np.random.default_rng(seed)
    r, q0 = cfg.r, cfg.q0
    n_each = max(1, samples // 3)

    def uniform(low, high, size):  # an empty range (q0 < 0.0448 or > 3.937) draws nothing
        return rng.uniform(low, high, size) if low < high else np.empty(0)

    # J = 1: one real zero zeta_hat in D-, partner zeta_bar_hat = involution image.
    reals = np.concatenate([
        rng.uniform(-6.0, -1.0 - 1e-3, n_each // 3),
        uniform(1.0 / r * (1 + 1e-6), 0.999, n_each // 3),
        uniform(r + q0 + 1e-3, 8.0, n_each - 2 * (n_each // 3)),
    ])
    zh = reals[classify(cfg, reals) == Region.DMinus]
    zbh = zeta_bar(cfg, zh)

    # J = 2 with one quartet: the 1/r limit is a positive modulus ratio, so
    # its distance from -1 is at least 1 for every complex candidate.  Each
    # candidate takes two consecutive draws, real part first.
    zeta = rng.uniform(-4, 4, (n_each, 2)).view(complex)[:, 0]
    zeta = zeta[(classify(cfg, zeta) == Region.DMinus) & (np.abs(zeta.imag) >= 1e-3)]
    zb = zeta_bar(cfg, zeta)

    # J = 2 with two real pairs linked by zeta_hat_2 = 1/zeta_bar_hat_1.
    nonzero = np.abs(zbh) >= 1e-12
    zh1, zbh1 = zh[nonzero], zbh[nonzero]
    zh2 = 1.0 / zbh1
    linked = classify(cfg, zh2) == Region.DMinus
    zh1, zbh1, zh2 = zh1[linked], zbh1[linked], zh2[linked]

    families = (  # (name, zeros with the candidate first, partners, scored limits)
        ("J2=1 real pair", zh[:, None], zbh[:, None], ("t11_at_rinv", "t22_at_r")),
        ("J1=1 quartet", np.stack([zeta, zeta.conj()], 1), np.stack([zb, zb.conj()], 1),
         ("t11_at_rinv",)),
        ("J2=2 real pairs", np.stack([zh1, zh2], 1), np.stack([zbh1, zeta_bar(cfg, zh2)], 1),
         ("t11_at_rinv", "t22_at_r")),
    )
    best = FeasibilityScan(math.inf, 0.0 + 0.0j, "", sum(len(f[1]) for f in families))
    for family, zeros, partners, scored in families:
        if len(zeros):
            res = _trace_limits(cfg, zeros, partners)
            violation = np.max([res[name] for name in scored], axis=0)
            i = int(np.argmin(violation))
            if violation[i] < best.min_violation:
                best = FeasibilityScan(float(violation[i]), complex(zeros[i, 0]), family,
                                       best.candidates)
    return best


def eigenvalues_case2(cfg: CaseConfig, J: int = 2, scan_samples: int = 3000) -> EigenSet:
    """Case II has no admissible discrete spectrum; returns the empty set."""
    if cfg.case_id is not Case.II:
        raise DomainError("eigenvalues_case2 requires a case II configuration")
    if J not in (0, 1, 2):
        raise Inadmissible(f"J = {J} not covered by the admissibility analysis")
    if J > 0:
        scan = case2_feasibility_scan(cfg, samples=scan_samples)
        if not scan.min_violation > 0.0:
            raise Inadmissible("feasibility scan unexpectedly reached zero violation")
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
    times t.
    """

    cfg: CaseConfig
    eigenset: EigenSet
    cbar0: tuple[complex, ...]
    gammas: tuple[complex, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # gamma(zbar_j) depends only on the eigenvalues: evaluate it once.
        object.__setattr__(self, "gammas", tuple(gamma(self.cfg, zb)
                                                 for zb in self.eigenset.zeros_t22))

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
    it requires thbar2 = thbar1 (mod 2pi) and carries lam**-3 in Cbar_2
    together with a fixed relative phase of pi between the two constants,
    split symmetrically so that thbar1 = thbar2 = 0 yields the symmetric
    dark-dark profile at theta = 0.  lam(zbar_1) is real and positive on
    the admissible circle |zeta - 1/r| = q0/r.
    """
    if kappa1 == 0.0:
        raise DomainError("kappa1 must be nonzero")
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
             / (zb2 - zb1) * cmath.exp(1j * (thbar2 + math.pi / 2.0)))
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


@dataclass(frozen=True)
class ReflectionlessSystem:
    """Dense system B X = Y of dimension 4J+1 at one lattice site and time.

    Unknown ordering: N1(zeta_j), N2(zeta_j), Nbar1(zbar_j), Nbar2(zbar_j),
    1/Theta_n.
    """

    B: np.ndarray
    Y: np.ndarray


# Per-cell outcome of reconstruct_grid: the first check a cell fails, in the
# order the checks run (OK when it passes them all).
OK, OVERFLOW, EXACTLY_SINGULAR, BACKWARD_ERROR, THETA_DIVERGENCE, AMPLITUDE = range(6)
REASONS = ("ok", "overflow", "exactly singular", "backward error",
           "Theta_n divergence", "non-finite amplitude")
_SOLVE_FAILED = (OVERFLOW, EXACTLY_SINGULAR, BACKWARD_ERROR)
# Cells per batched solve in reconstruct_grid: bounds the system stack
# (512 cells of 9x9 complex entries are 0.7 MB) whatever the grid size.
_BLOCK = 512
# Newton steps at most in singularity_scan's refinement of its deepest coarse dip.
_NEWTON_STEPS = 8


def _assemble(cfg: CaseConfig, eigenset: EigenSet, norming: NormingData,
              ns: np.ndarray, ts: np.ndarray):
    """Stack of reflectionless systems over the cells (ns[i], ts[i]).

    Returns B (M, 4J+1, 4J+1), the shared right-hand side Y, the
    multipliers of N1(zeta_j) in the q sum and of Nbar2(zbar_j) in the r
    sum (both (M, J)), and the boundary values q_plus, r_plus per cell.
    Overflowing entries come out non-finite, not as an exception.
    """
    zs = np.array(eigenset.zeros_t11)
    zbs = np.array(eigenset.zeros_t22)
    J = zs.size
    r = cfg.r
    rinv = 1.0 / r
    qp, rp = cfg.q_plus(ts), cfg.r_plus(ts)
    with np.errstate(all="ignore"):
        cbar = norming.cbar(np.arange(J), ts[:, None])
        # NormingData.c's symmetry, on the q_plus and Cbar_j already at hand
        c = (-(qp * qp))[:, None] / (zbs - r) ** 2 * cbar
        cpow = c * lam_squared(cfg, zs) ** -ns[:, None]
        cbarpow = cbar * lam_squared(cfg, zbs) ** ns[:, None]
        kbar = ((zs - rinv)[:, None] * cbarpow[:, None, :]
                / ((zbs - rinv)[None, :] * (zs[:, None] - zbs[None, :])))
        k = ((zbs - r)[:, None] * cpow[:, None, :]
             / ((zs - r)[None, :] * (zbs[:, None] - zs[None, :])))
        row = cpow / (zs * (zs - r))
        row_r = cbarpow / (zbs - rinv)
    dim = 4 * J + 1
    B = np.zeros((ns.size, dim, dim), dtype=complex)
    B[:, np.arange(dim), np.arange(dim)] = 1.0
    B[:, J:2 * J, -1] = rp[:, None]
    B[:, 2 * J:3 * J, -1] = -qp[:, None]
    B[:, :J, 2 * J:3 * J] = -kbar
    B[:, J:2 * J, 3 * J:4 * J] = -kbar
    B[:, 2 * J:3 * J, :J] = -k
    B[:, 3 * J:4 * J, J:2 * J] = -k
    B[:, -1, J:2 * J] = row
    Y = np.zeros(dim, dtype=complex)
    Y[:J] = r - 1.0 / zs
    Y[3 * J:4 * J] = zbs - r
    Y[-1] = 1.0
    return B, Y, row, row_r, qp, rp


def build_system(cfg: CaseConfig, eigenset: EigenSet, norming: NormingData,
                 n: int, t: float) -> ReflectionlessSystem:
    """Assemble the (4J+1)-dimensional reflectionless system at site n, time t."""
    B, Y, *_ = _assemble(cfg, eigenset, norming, np.array([n]), np.array([float(t)]))
    return ReflectionlessSystem(B[0], Y)


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


def reconstruct_grid(cfg: CaseConfig, eigenset: EigenSet, norming: NormingData | None,
                     ns, ts) -> ReconstructionGrid:
    """Reflectionless (q_n(t), r_n(t)) over the cells (ns[i], ts[i]).

    ns and ts broadcast against each other (a scalar t gives a time row,
    sites[None, :] and ts[:, None] a time-major grid); the result is flat in
    that broadcast order.  The cells are solved in blocks of _BLOCK: each
    block's systems are stacked and solved by one batched LAPACK call, and
    each cell is then judged on its own: finite entries and solution,
    backward error at most 1e-8 * |B| |X| + |Y|, |1/Theta_n| at least
    DET_GUARD * max(1, |X|), and a finite amplitude.  The system is badly
    scaled but well posed at large |n| (lam**(2n) entries), so singularity
    is judged by these checks rather than by a determinant.  An empty
    spectrum is the J = 0 system B = [1]: q_plus(t), r_plus(t) at every cell.
    """
    ns, ts, _ = _flat_cells(ns, ts)
    return _solve_cells(cfg, eigenset, norming, ns, ts)[0]


def reconstruct_with_derivative(cfg: CaseConfig, eigenset: EigenSet,
                                norming: NormingData | None, ns, ts):
    """(q_n(t), dq_n/dt) over the cells (ns[i], ts[i]), both in their broadcast shape.

    q is reconstruct_grid's q bit for bit (the same blocks, solves and
    checks).  Time enters the system only through exponentials, so
    dB/dt is B times a constant rate matrix elementwise and the exact
    derivative of the computed solution is X' = -B^-1 (dB/dt) X, a second
    solve on the same stack.  Raises SingularSolution for the first
    singular cell in flattened order, as make_evaluator does.
    """
    ns, ts, shape = _flat_cells(ns, ts)
    grid, (qdot, _) = _solve_cells(cfg, eigenset, norming, ns, ts, derivative=True)
    return grid.require().reshape(shape)[()], qdot.reshape(shape)[()]


def _solve_cells(cfg: CaseConfig, eigenset: EigenSet, norming: NormingData | None,
                 ns: np.ndarray, ts: np.ndarray, derivative: bool = False):
    """The ReconstructionGrid over flat cells; [dq/dt, d(1/Theta_n)/dt] if derivative is set.

    The one block loop of reconstruct_grid and reconstruct_with_derivative;
    norming may be None only for an empty spectrum.
    """
    if norming is None:
        if not eigenset.is_empty():
            raise DomainError("nonempty eigenset requires norming data")
        norming = unit_norming(cfg, eigenset)
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

    With derivative set, dq/dt and d(1/Theta_n)/dt follow as a sixth and a
    seventh array when every cell of the block is regular (all NaN otherwise).
    """
    B, Y, row, row_r, qp, rp = _assemble(cfg, eigenset, norming, ns, ts)
    M = ns.size
    J = row.shape[1]
    reason = np.full(M, OK, dtype=np.int8)

    def flag(bad, code):
        reason[(reason == OK) & bad] = code

    entries_ok = np.isfinite(B).all(axis=(1, 2))
    flag(~entries_ok, OVERFLOW)
    B[~entries_ok] = np.eye(B.shape[1])  # placeholder, never reported
    rhs = np.broadcast_to(Y[:, None], B.shape[:2] + (1,))
    with np.errstate(all="ignore"):
        try:
            X = np.linalg.solve(B, rhs)[..., 0]
        except np.linalg.LinAlgError:
            X = np.full(B.shape[:2], np.nan, dtype=complex)
            for i in range(M):
                try:
                    X[i] = np.linalg.solve(B[i:i + 1], rhs[i:i + 1])[0, :, 0]
                except np.linalg.LinAlgError:
                    reason[i] = EXACTLY_SINGULAR  # entries were finite
        solved = np.isfinite(X).all(axis=1)
        flag(~solved, OVERFLOW)
        backward = np.abs((B @ X[..., None])[..., 0] - Y).max(axis=1)
        xmax = np.abs(X).max(axis=1)
        scale = np.abs(B).max(axis=(1, 2)) * np.maximum(xmax, 1e-300) + np.abs(Y).max()
        flag(backward > 1e-8 * scale, BACKWARD_ERROR)
        theta_inv = X[:, -1]
        flag(np.abs(theta_inv) < DET_GUARD * np.maximum(1.0, xmax), THETA_DIVERGENCE)
        sum_q = (row * X[:, :J]).sum(axis=1)
        q = qp + cfg.r * sum_q / theta_inv
        rn = rp - (row_r * X[:, 3 * J:4 * J]).sum(axis=1) / theta_inv
    flag(~np.isfinite(q), AMPLITUDE)
    backward[~solved] = np.inf
    backward[~entries_ok] = np.nan
    q[reason != OK] = rn[reason != OK] = complex(np.nan, np.nan)
    if not derivative:
        return q, rn, backward, theta_inv, reason
    qdot = theta_inv_dot = np.full(M, complex(np.nan, np.nan))
    if not reason.any():
        with np.errstate(all="ignore"):
            dX = np.linalg.solve(B, -((B * _rate_matrix(cfg, norming)) @ X[..., None]))[..., 0]
            theta_inv_dot = dX[:, -1]
            dsum_q = (row * (norming.c_rate * X[:, :J] + dX[:, :J])).sum(axis=1)
            qdot = (1j * cfg.rotation * qp
                    + cfg.r * (dsum_q - sum_q * theta_inv_dot / theta_inv) / theta_inv)
    return q, rn, backward, theta_inv, reason, qdot, theta_inv_dot


def _rate_matrix(cfg: CaseConfig, norming: NormingData) -> np.ndarray:
    """R with dB/dt = B * R elementwise, the same for every cell.

    Column j of the N1/N2 blocks carries C_j(t) (in k and in the 1/Theta_n
    row), column j of the Nbar1/Nbar2 blocks Cbar_j(t) (in kbar), and the
    last column r_plus(t) and -q_plus(t); the unit diagonal is constant.
    """
    J = len(norming.cbar0)
    dim = 4 * J + 1
    R = np.zeros((dim, dim), dtype=complex)
    R[:, :2 * J] = np.tile(norming.c_rate, 2)
    R[:, 2 * J:4 * J] = np.tile(norming.cbar_rate, 2)
    R[J:2 * J, -1] = -1j * cfg.rotation
    R[2 * J:3 * J, -1] = 1j * cfg.rotation
    R[np.arange(dim), np.arange(dim)] = 0.0
    return R


def reconstruct(cfg: CaseConfig, eigenset: EigenSet, norming: NormingData | None,
                n: int, t: float) -> complex:
    """Reflectionless potential q_n(t); equals q_plus(t) for an empty spectrum."""
    q, _r = reconstruct_pair(cfg, eigenset, norming, n, t)
    return q


def reconstruct_pair(cfg: CaseConfig, eigenset: EigenSet,
                     norming: NormingData | None, n: int,
                     t: float) -> tuple[complex, complex]:
    """Both reconstructed fields (q_n, r_n) from one solve.

    r_n follows from the large-argument limit of the second components and
    must coincide with sigma * conj(q_{-n}) for admissible data; the pair
    is exposed so that the reduction can be verified independently.
    """
    grid = reconstruct_grid(cfg, eigenset, norming, [n], [t])
    grid.require()
    return complex(grid.q[0]), complex(grid.r[0])


def make_evaluator(cfg: CaseConfig, eigenset: EigenSet, norming: NormingData | None):
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
    minimum in site-major order.  At that site, Gauss-Newton steps on
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
    times = []
    t = t_span[0]
    while t <= t_span[1]:
        times.append(t)
        t += coarse_dt
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
