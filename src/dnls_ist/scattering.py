"""Direct scattering on a truncated window.

Modified Jost columns are propagated by 2x2 transfer recursions written
entirely in the uniformization variable (no square-root branch enters).
Scattering coefficients come from Wronskians evaluated at a single site;
their site-independence is a test, not an assumption.  Each column is
integrated from the edge where its boundary vector is exactly stationary,
which is also the direction in which its recursion is contractive inside
the column's analyticity region.

The recursion is batched over zeta: one sequential sweep over n advances
all four columns at every requested spectral point with elementwise array
arithmetic, and a sweep for one site stops at its last recorded step (N + 1
of the 2N + 1 at n = 0).  `scattering_report` evaluates each zeta it needs
(samples, their zeta_bar partners, eigenvalues) once, over one Theta
product; `scattering_coefficients` is its one-zeta view.  `jost` (one
column at one zeta) stays only because the benchmark's layer timings call
it, until ROADMAP item 2 re-points the benchmark.
"""
from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NearBranchPoint, SingularTransfer
from .ist import EigenSet, trace_formula
from .lattice import PotentialWindow, ThetaProduct, partner, theta_products
from .spectral import (CaseConfig, SINGULAR_GUARD, SpectralPoint, guard_singular,
                       lam_squared, zeta_bar)

RENORM_THRESHOLD = 1e50
BRANCH_GUARD = 1e-10
_CHECK_BLOCK = 8192  # (step, column, zeta) entries of step factors held at once


class ColumnKind(enum.Enum):
    M = "M"
    MBAR = "Mbar"
    N = "N"
    NBAR = "Nbar"


# Which of the two difference equations each column satisfies, and the
# window edge where its boundary vector is imposed.
_FORWARD = {ColumnKind.M: True, ColumnKind.MBAR: True,
            ColumnKind.N: False, ColumnKind.NBAR: False}
_EQUATION_A = {ColumnKind.M: True, ColumnKind.NBAR: True,
               ColumnKind.MBAR: False, ColumnKind.N: False}


@dataclass(frozen=True)
class EigenfunctionColumn:
    """Column values on n in [-N, N+1] with per-site log renormalization."""

    N: int
    values: np.ndarray
    log_scale: np.ndarray

    def value(self, n: int) -> np.ndarray:
        _check_site(self.N, n)
        return self.values[n + self.N] * math.exp(self.log_scale[n + self.N])


def _check_site(N: int, n: int) -> None:
    if not -N <= n <= N + 1:
        raise ValueError(f"site n={n} outside the columns' range [{-N}, {N + 1}]")


def _step_constants(cfg: CaseConfig, zeta: np.ndarray,
                    kind: ColumnKind) -> tuple[np.ndarray, ...]:
    """(X00, X01, X10, X11) over zeta for one column's step.

    Each column steps by [[X00, X01 q_n], [X10 r_n, X11]] / det: a forward
    column by its step matrix (det = 1), a backward one by the inverse,
    whose adjugate has this form and whose det is X00 X11 - X01 X10 q_n r_n.
    """
    r = cfg.r
    one = np.ones_like(zeta)
    if _EQUATION_A[kind]:
        s00, s01, s10, s11 = (1.0 / zeta / r, (zeta * r - 1.0) / (zeta * (zeta - r)) / r,
                              one / r, (zeta * r - 1.0) / (zeta - r) / r)
    else:
        s00, s01, s10, s11 = ((zeta - r) / (zeta * r - 1.0) / r, one / r,
                              zeta * (zeta - r) / (zeta * r - 1.0) / r, zeta / r)
    if _FORWARD[kind]:
        return s00, s01, s10, s11
    return s11, -s01, -s10, s00


def _boundary_vector(cfg: CaseConfig, t: float, zeta: np.ndarray,
                     kind: ColumnKind) -> tuple[np.ndarray, np.ndarray]:
    one = np.ones_like(zeta)
    if kind is ColumnKind.M:
        return cfg.q_minus(t) * one, zeta - cfg.r
    if kind is ColumnKind.MBAR:
        return cfg.r - 1.0 / zeta, -cfg.r_minus(t) * one
    if kind is ColumnKind.NBAR:
        return cfg.q_plus(t) * one, zeta - cfg.r
    return cfg.r - 1.0 / zeta, -cfg.r_plus(t) * one


def _step_index(kind: ColumnKind, N: int, n: int) -> int:
    """Step after which a column holds site n (0 is its boundary vector)."""
    return n + N if _FORWARD[kind] else N + 1 - n


@dataclass(frozen=True)
class _Sweep:
    """Columns of one batched propagation at the recorded steps.

    `values` is (recorded steps, 2, columns, K) and `logs` drops the
    component axis; `slots` maps a step index to its row.
    """

    kinds: tuple[ColumnKind, ...]
    N: int
    slots: dict
    values: np.ndarray
    logs: np.ndarray

    def at(self, kind: ColumnKind, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Scaled (2, K) values and (K,) log scales of one column at site n."""
        i = self.slots[_step_index(kind, self.N, n)]
        c = self.kinds.index(kind)
        return self.values[i, :, c], self.logs[i, c]

    def column(self, kind: ColumnKind, k: int) -> EigenfunctionColumn:
        """The whole column at point k of a sweep that recorded every step."""
        c = self.kinds.index(kind)
        order = slice(None) if _FORWARD[kind] else slice(None, None, -1)
        return EigenfunctionColumn(self.N, self.values[order, :, c, k], self.logs[order, c, k])


def _propagate(window: PotentialWindow, zetas,
               kinds: tuple[ColumnKind, ...] = tuple(ColumnKind),
               site: int | None = None) -> _Sweep:
    """Propagate the given columns at every zeta in one sequential sweep over n.

    Each step advances all K points and all columns with elementwise
    arithmetic on (columns, K) arrays; a column whose magnitude leaves
    [1/RENORM_THRESHOLD, RENORM_THRESHOLD] is divided by it and the log of
    the factor accumulated.  The sweep stops at the last step that `site`
    needs (None records every site).  Every step matrix is checked before
    the sweep; the first failure in (zeta, column, step) order is raised.
    """
    cfg = window.cfg
    N = window.N
    if site is not None:
        _check_site(N, site)
    steps = 2 * N + 1
    zeta = np.asarray(zetas, dtype=complex)
    K, C = zeta.size, len(kinds)
    forward = np.array([_FORWARD[kind] for kind in kinds])
    # Site fields in each column's step order, shape (steps, C, 1).
    q_f, r_f = window.q, partner(window)
    q_s = np.where(forward, q_f[:, None], q_f[::-1, None])[:, :, None]
    r_s = np.where(forward, r_f[:, None], r_f[::-1, None])[:, :, None]
    g_s = q_s * r_s
    with np.errstate(all="ignore"):
        x00, x01, x10, x11 = (np.stack(x) for x in zip(
            *(_step_constants(cfg, zeta, kind) for kind in kinds)))
        # det = det0 - det1 * q_n r_n, identically 1 for a forward column.
        det0 = np.where(forward[:, None], 1.0, x00 * x11)
        det1 = np.where(forward[:, None], 0.0, x01 * x10)
        block = max(1, _CHECK_BLOCK // max(1, 3 * C * K))  # steps per block of factors

        def factors(j):  # x01 q_n, x10 r_n and det_n over the block of steps from j
            return x01 * q_s[j:j + block], x10 * r_s[j:j + block], det0 - det1 * g_s[j:j + block]

        failures = np.empty((steps, C, K), dtype=np.int8)
        for j in range(0, steps, block):
            a01, a10, det = factors(j)
            finite = np.isfinite(x00) & np.isfinite(x11) & np.isfinite(a01) & np.isfinite(a10)
            invertible = forward[:, None] | ((det != 0) & np.isfinite(det))
            failures[j:j + block] = np.where(finite, np.where(invertible, 0, 2), 1)
        if failures.any():
            k, c, j = np.unravel_index(int(np.argmax(failures.transpose(2, 1, 0) != 0)),
                                       (K, C, steps))
            if failures[j, c, k] == 2:
                raise SingularTransfer("transfer matrix not invertible")
            n = j - N if forward[c] else N - j
            raise SingularTransfer(f"non-finite transfer entry at n={n}, zeta={complex(zeta[k])}")

        keep = range(steps + 1) if site is None else sorted(
            {_step_index(kind, N, site) for kind in kinds})
        slots = {j: i for i, j in enumerate(keep)}
        values = np.empty((len(keep), 2, C, K), dtype=complex)
        logs = np.empty((len(keep), C, K))
        v0, v1 = (np.stack(x) for x in zip(
            *(_boundary_vector(cfg, window.t, zeta, kind) for kind in kinds)))
        log = np.zeros((C, K))

        def record(j):
            i = slots.get(j)
            if i is not None:
                values[i, 0], values[i, 1], logs[i] = v0, v1, log

        record(0)
        for j in range(keep[-1]):  # N + 1 of the 2N + 1 steps for site 0
            i = j % block
            if i == 0:
                a01, a10, det = factors(j)
            v0, v1 = ((x00 * v0 + a01[i] * v1) / det[i], (a10[i] * v0 + x11 * v1) / det[i])
            m = np.maximum(np.abs(v0), np.abs(v1))
            rescale = (m > RENORM_THRESHOLD) | ((m > 0.0) & (m < 1.0 / RENORM_THRESHOLD))
            if rescale.any():
                m = np.where(rescale, m, 1.0)
                v0, v1, log = v0 / m, v1 / m, log + np.log(m)
            record(j + 1)
    return _Sweep(tuple(kinds), N, slots, values, logs)


def jost(window: PotentialWindow, point: SpectralPoint,
         kind: ColumnKind) -> EigenfunctionColumn:
    """Propagate one modified Jost column across the window."""
    return _propagate(window, [point.zeta], (kind,)).column(kind, 0)


@dataclass(frozen=True)
class Coefficients:
    """Modified scattering entries (t21/t12 carry the lam-factors).

    Fields are complex at one zeta, or arrays over a batch of zeta.
    """

    t11: complex
    t22: complex
    t21_mod: complex
    t12_mod: complex

    @property
    def det(self) -> complex:
        return self.t11 * self.t22 - self.t21_mod * self.t12_mod


def _descale(value: np.ndarray, log: np.ndarray) -> np.ndarray:
    """value * exp(log), overflowing to inf (columns evaluated far outside
    their analyticity region produce meaningless huge coefficients)."""
    with np.errstate(all="ignore"):
        exponent = log + np.log(np.abs(value))
        out = value * np.exp(log)
    out = np.where(exponent > 700.0, complex(math.inf, 0.0), out)
    return np.where(value == 0, 0.0j, out)


def _guard(cfg: CaseConfig, zetas) -> None:
    """Raise NearBranchPoint or SingularPoint for the first unusable zeta of a list.

    Each zeta meets the branch test before point_from_zeta's pole guard;
    1/zeta is Python's complex division, as in zeta_bar.
    """
    zeta = np.asarray(zetas, dtype=complex)
    far = np.abs(zeta) > SINGULAR_GUARD
    inv = np.divide(1.0, np.where(far, zeta, 1.0), dtype=object).astype(complex)
    branch = np.flatnonzero(far & (np.abs(zeta + inv - 2.0 * cfg.r) < BRANCH_GUARD))
    guard_singular(cfg, zeta[:branch[0] if branch.size else zeta.size])
    if branch.size:
        raise NearBranchPoint(f"zeta + 1/zeta - 2r vanishes at zeta={zetas[branch[0]]}")


def _evaluate(window: PotentialWindow, theta: ThetaProduct, zetas,
              n: int = 0) -> Coefficients:
    """Wronskian coefficients at site n for guarded zetas, from one sweep."""
    cfg = window.cfg
    sweep = _propagate(window, zetas, site=n)
    theta_n = theta.at(n)
    zeta = np.asarray(zetas, dtype=complex)

    def wr(a: ColumnKind, b: ColumnKind) -> np.ndarray:
        (va, sa), (vb, sb) = sweep.at(a, n), sweep.at(b, n)
        return _descale(va[0] * vb[1] - va[1] * vb[0], sa + sb)

    with np.errstate(all="ignore"):
        denom = cfg.r * (zeta + 1.0 / zeta - 2.0 * cfg.r)
        lam2 = lam_squared(cfg, zeta)
        t11 = -theta_n * wr(ColumnKind.M, ColumnKind.N) / denom
        t22 = theta_n * wr(ColumnKind.MBAR, ColumnKind.NBAR) / denom
        t21 = theta_n * lam2 ** n * wr(ColumnKind.M, ColumnKind.NBAR) / denom
        t12 = -theta_n * lam2 ** (-n) * wr(ColumnKind.MBAR, ColumnKind.N) / denom
    return Coefficients(t11, t22, t21, t12)


def scattering_coefficients(window: PotentialWindow, zeta: complex,
                            n: int = 0) -> Coefficients:
    """Wronskian representation of the scattering coefficients at site n."""
    _guard(window.cfg, [zeta])
    c = _evaluate(window, theta_products(window), [zeta], n)
    return Coefficients(complex(c.t11[0]), complex(c.t22[0]),
                        complex(c.t21_mod[0]), complex(c.t12_mod[0]))


@dataclass(frozen=True)
class SymmetryReport:
    """Max residuals of the involution and conjugation symmetries."""

    first_diag: float
    first_offdiag: float
    second: float


def _symmetries(window: PotentialWindow, c: Coefficients, samples) -> SymmetryReport:
    """Residuals of t11(z) = s*t22(zbar(z)) and its conjugated companion.

    The coefficients are laid out as in `scattering_report`.  Both diagonal
    symmetries carry the case sign s = q0**2/delta (+ for I/III, - for
    II/IV); the sign follows from (r*lam - z)(r/lam - z) = r**2 - 1 together
    with q_plus*r_minus = sigma*q0**2.  The off-diagonal relation is
    evaluated in modified variables, t21_mod(z) = -(q_plus/r_minus)
    t12_mod(zbar(z)), which is equivalent on the spectral surface and free
    of the square-root branch.
    """
    cfg = window.cfg
    sign = cfg.branch_sign
    qp = cfg.q_plus(window.t)
    rm = cfg.r_minus(window.t)
    K = len(samples)
    here, bar, star = slice(0, K), slice(K, 3 * K, 2), slice(K + 1, 3 * K, 2)
    d1 = _max_abs(c.t11[here] - sign * c.t22[bar])
    d2 = _max_abs(c.t21_mod[here] + (qp / rm) * c.t12_mod[bar])
    d3 = _max_abs(c.t11[here] - sign * np.conj(c.t22[star]))
    return SymmetryReport(d1, d2, d3)


def _max_abs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x), initial=0.0))


def continuum_samples(cfg: CaseConfig, count: int, seed: int = 0) -> list[complex]:
    """Points just off the continuum, suitable for coefficient evaluation; a sample
    within 0.05 of a branch point moves by +0.1 rad until it clears all of them."""
    rng = np.random.default_rng(seed)
    out = []
    angles = rng.uniform(0.0, 2.0 * math.pi, count)
    for i, a in enumerate(angles):
        radius = 1.0 + 1e-6 if i % 2 == 0 else 1.0 - 1e-6
        z = radius * cmath.exp(1j * a)
        while any(abs(z - bp) < 0.05 for bp in cfg.branch_points):
            a += 0.1
            z = radius * cmath.exp(1j * a)
        out.append(z)
    return out


@dataclass(frozen=True)
class ScatteringReport:
    """Per-zeta records with invariant residuals for one window."""

    zeta_grid: tuple[complex, ...]
    t11: tuple[complex, ...]
    t22: tuple[complex, ...]
    t21_mod: tuple[complex, ...]
    t12_mod: tuple[complex, ...]
    rho: tuple[complex, ...]
    rho_bar: tuple[complex, ...]
    det_t: tuple[complex, ...]
    theta_minus_inf: complex
    det_residual: float
    symmetry: SymmetryReport
    trace_residual: float | None
    eigenvalue_residuals: tuple[float, ...]


def scattering_report(window: PotentialWindow, zetas,
                      eigen_data: EigenSet | None = None) -> ScatteringReport:
    """Assemble the full direct-scattering report on a zeta grid.

    The samples, their zeta_bar partners and the eigenvalues are evaluated
    in one sweep over one Theta product.
    """
    cfg = window.cfg
    theta = theta_products(window)
    samples = list(zetas)
    K = len(samples)
    eigs = [] if eigen_data is None or eigen_data.is_empty() else list(eigen_data.zeros_t11)
    _guard(cfg, samples)
    zb = zeta_bar(cfg, samples)  # the samples, then zeta_bar and its conjugate per sample
    points = samples + np.stack([zb, zb.conj()], axis=1).ravel().tolist()
    _guard(cfg, points[K:] + eigs)
    c = _evaluate(window, theta, points + eigs)
    t11, t22, t21, t12 = (x[:K] for x in (c.t11, c.t22, c.t21_mod, c.t12_mod))
    det_t = t11 * t22 - t21 * t12
    with np.errstate(all="ignore"):
        ok = (np.abs(t11) > 1e-13) & (np.abs(t22) > 1e-13)
        rho = np.where(ok, t21 / t11, complex("nan"))
        rho_bar = np.where(ok, t12 / t22, complex("nan"))
    trace_res = None
    eig_res = ()
    if eigs:
        trace_res = _max_abs(trace_formula(cfg, eigen_data, samples)[0] - t11)
        eig_res = tuple(float(x) for x in np.abs(c.t11[len(points):]))

    def cplx(x):
        return tuple(complex(v) for v in x)

    return ScatteringReport(
        cplx(samples), cplx(t11), cplx(t22), cplx(t21), cplx(t12), cplx(rho),
        cplx(rho_bar), cplx(det_t), complex(theta.theta_minus_inf),
        _max_abs(det_t - theta.theta_minus_inf), _symmetries(window, c, samples),
        trace_res, eig_res)
