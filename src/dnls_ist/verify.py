"""Independent validation: lattice-equation residuals and time-domain RK4.

The residual oracle never touches the scattering machinery; it only needs a
(n, t) -> q evaluator and a 4th-order finite-difference time derivative.
The simulator integrates the truncated lattice as a complex ODE with the
outermost two sites on each side pinned to the exact background rotation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowupDetected, GridMismatch
from .lattice import PotentialWindow
from .spectral import CaseConfig

BLOWUP_THRESHOLD = 1e6


@dataclass(frozen=True)
class ResidualReport:
    """Max deviation from the lattice equation over a site range at one time."""

    max_abs_residual: float
    argmax_site: int
    t: float
    per_site: np.ndarray
    h: float
    stencil_order: int = 4


def evaluate_cells(solution_evaluator, ns, ts) -> np.ndarray:
    """q over the cells (ns[i], ts[i]); ns and ts broadcast against each other.

    An evaluator with a grid(ns, ts) method (ist.make_evaluator) answers in
    one batched call; a plain (n, t) callable is called cell by cell.
    """
    ns, ts = np.broadcast_arrays(np.asarray(ns, dtype=int), np.asarray(ts, dtype=float))
    grid = getattr(solution_evaluator, "grid", None)
    if grid is not None:
        return np.asarray(grid(ns, ts))
    return np.array([solution_evaluator(int(n), float(t)) for n, t in zip(ns, ts)],
                    dtype=complex)


def equation_residual(solution_evaluator, cfg: CaseConfig, n_range,
                      t: float, h: float = 1e-3) -> ResidualReport:
    """|i q_dot - (q_{n+1} - 2 q_n + q_{n-1}) + sigma q_n q*_{-n} (q_{n+1}+q_{n-1})|.

    q_dot uses the 4th-order central stencil over t +/- h, t +/- 2h; the
    nonlocal partner is evaluated at the same time.  Each distinct cell of
    the stencil set is evaluated once, all in one evaluate_cells call.
    """
    sites = np.array(list(n_range), dtype=int)
    K = sites.size
    at_t = np.unique(np.concatenate([sites - 1, sites, sites + 1, -sites]))
    q = evaluate_cells(solution_evaluator,
                       np.concatenate([np.tile(sites, 4), at_t]),
                       np.concatenate([np.repeat([t + 2 * h, t + h, t - h, t - 2 * h], K),
                                       np.full(at_t.size, t)]))
    q2p, q1p, q1m, q2m = q[:4 * K].reshape(4, K)

    def at(ns):
        return q[4 * K + np.searchsorted(at_t, ns)]

    qp, qm, qn, qmir = at(sites + 1), at(sites - 1), at(sites), at(-sites)
    qdot = (-q2p + 8.0 * q1p - 8.0 * q1m + q2m) / (12.0 * h)
    res = np.abs(1j * qdot - (qp - 2.0 * qn + qm)
                 + cfg.sigma * qn * np.conj(qmir) * (qp + qm))
    k = int(np.argmax(res))
    return ResidualReport(float(res[k]), int(sites[k]), t, res, h)


@dataclass(frozen=True)
class Trajectory:
    """RK4 snapshots of the window field; boundary sites follow the background."""

    cfg: CaseConfig
    N: int
    times: np.ndarray
    states: np.ndarray
    dt: float
    boundary_policy: str = "pinned-background"

    def window(self, step: int) -> PotentialWindow:
        return PotentialWindow(self.cfg, self.N, float(self.times[step]),
                               self.states[step].copy())


def _background_array(cfg: CaseConfig, N: int, t: float) -> np.ndarray:
    n = np.arange(-N, N + 1)
    return np.where(n >= 0, cfg.q_plus(t), cfg.q_minus(t)).astype(complex)


def _rhs(cfg: CaseConfig, N: int, y: np.ndarray, t: float,
         pinned: np.ndarray) -> np.ndarray:
    q = y.copy()
    bg = _background_array(cfg, N, t)
    q[pinned] = bg[pinned]
    qp = np.empty_like(q)
    qm = np.empty_like(q)
    qp[:-1] = q[1:]
    qp[-1] = cfg.q_plus(t)
    qm[1:] = q[:-1]
    qm[0] = cfg.q_minus(t)
    qmir = np.conj(q[::-1])
    deriv = -1j * (qp - 2.0 * q + qm - cfg.sigma * q * qmir * (qp + qm))
    deriv[pinned] = 1j * cfg.rotation * bg[pinned]
    return deriv


def simulate(initial_window: PotentialWindow, cfg: CaseConfig, t_end: float,
             dt: float) -> Trajectory:
    """Classical RK4 on the window field from the window's time to t_end.

    dt <= 0.05 keeps RK4 stable for unit-scale backgrounds; the two
    outermost sites per side are reset to the exact background after every
    step (and seen as exact background by every stage).
    """
    N = initial_window.N
    sign = 1.0 if t_end >= initial_window.t else -1.0
    step = sign * abs(dt)
    n_steps = int(round(abs(t_end - initial_window.t) / abs(dt)))
    times = initial_window.t + step * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1, 2 * N + 1), dtype=complex)
    states[0] = initial_window.q
    idx = np.arange(-N, N + 1)
    pinned = (np.abs(idx) >= N - 1)
    y = states[0].copy()
    for k in range(n_steps):
        t = float(times[k])
        k1 = _rhs(cfg, N, y, t, pinned)
        k2 = _rhs(cfg, N, y + 0.5 * step * k1, t + 0.5 * step, pinned)
        k3 = _rhs(cfg, N, y + 0.5 * step * k2, t + 0.5 * step, pinned)
        k4 = _rhs(cfg, N, y + step * k3, t + step, pinned)
        y = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        bg = _background_array(cfg, N, float(times[k + 1]))
        y[pinned] = bg[pinned]
        peak = float(np.max(np.abs(y)))
        if not np.isfinite(peak) or peak > BLOWUP_THRESHOLD:
            raise BlowupDetected(
                f"|q| reached {peak:.3e} at step {k + 1}, t = {times[k + 1]:.4f}",
                step=k + 1, t=float(times[k + 1]))
        states[k + 1] = y
    return Trajectory(cfg, N, times, states, step)


def compare(trajectory: Trajectory, solution_evaluator) -> float:
    """Max |simulated - analytic| over the trajectory's (site, time) grid.

    Accepts either an (n, t) evaluator, evaluated one time row per call,
    or a second Trajectory on the same grid.
    """
    if isinstance(solution_evaluator, Trajectory):
        other = solution_evaluator
        if (other.N != trajectory.N or other.states.shape != trajectory.states.shape
                or not np.allclose(other.times, trajectory.times, atol=1e-12)):
            raise GridMismatch("trajectories are on different (n, t) grids")
        return float(np.max(np.abs(trajectory.states - other.states)))
    sites = np.arange(-trajectory.N, trajectory.N + 1)
    worst = 0.0
    for k, t in enumerate(trajectory.times):
        q = evaluate_cells(solution_evaluator, sites, float(t))
        worst = max(worst, float(np.max(np.abs(trajectory.states[k] - q))))
    return worst
