"""Independent validation: lattice-equation residuals and time-domain RK4.

The residual oracle never touches the scattering machinery.  It needs the
field q over the sites, their neighbours and their mirror sites at each
time, and dq/dt at the sites.  For the reflectionless solution, dq/dt is
exact: ist.reconstruct_with_derivative differentiates the solve itself
(equation_residuals_exact, which `ist verify` uses).  Any other evaluator
ev(ns, ts) -> q over broadcast (n, t) cells (ist.make_evaluator,
CaseConfig.background, a np.vectorize'd function) gets dq/dt from a
4th-order finite-difference stencil (equation_residuals), which also stays
as the cross-check of the exact derivative.
The simulator integrates the truncated lattice as a complex ODE with the
outermost two sites on each side pinned to the exact background rotation.
Both take the lattice equation from lattice.al_rhs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowupDetected
from .lattice import PotentialWindow, al_rhs
from .spectral import CaseConfig

BLOWUP_THRESHOLD = 1e6


@dataclass(frozen=True)
class ResidualReport:
    """Max deviation from the lattice equation over a site range at one time.

    h and stencil_order describe the finite-difference q_dot; both are 0
    when q_dot is exact.
    """

    max_abs_residual: float
    argmax_site: int
    t: float
    per_site: np.ndarray
    h: float
    stencil_order: int = 4


def _residual_cells(n_range):
    """The sites, and the sorted cells their residual reads at one time."""
    sites = np.array(list(n_range), dtype=int)
    return sites, np.unique(np.concatenate([sites - 1, sites, sites + 1, -sites]))


def _reports(cfg: CaseConfig, sites, cells, ts, q, qdot, h, order) -> list[ResidualReport]:
    """|q_dot - lattice.al_rhs| at the sites, per t.

    q holds one row per t over the cells, qdot one row per t over the sites.
    """
    def at(ns):
        return q[:, np.searchsorted(cells, ns)]

    res = np.abs(qdot - al_rhs(at(sites), at(sites + 1), at(sites - 1), at(-sites), cfg.sigma))
    reports = []
    for t, res_t in zip(ts, res):
        i = int(np.argmax(res_t))
        reports.append(ResidualReport(float(res_t[i]), int(sites[i]), t, res_t, h, order))
    return reports


def equation_residuals(solution_evaluator, cfg: CaseConfig, n_range, ts,
                       h: float = 1e-3) -> list[ResidualReport]:
    """Lattice-equation residuals per t, with q_dot from a finite-difference stencil.

    q_dot uses the 4th-order central stencil over t +/- h, t +/- 2h; the
    nonlocal partner is evaluated at the same time.  Each distinct cell of
    a time's stencil set is evaluated once, and the stencil sets of every
    t in ts are evaluated together in one evaluator call; the result holds
    one report per t, in the order of ts.
    """
    sites, cells = _residual_cells(n_range)
    K = sites.size
    ts = [float(t) for t in ts]
    stencil_ns = np.concatenate([np.tile(sites, 4), cells])
    stencil_ts = np.array([np.concatenate([np.repeat([t + 2 * h, t + h, t - h, t - 2 * h], K),
                                           np.full(cells.size, t)]) for t in ts])
    q = solution_evaluator(stencil_ns,  # reshape: an empty ts stays 2-D
                           stencil_ts.reshape(len(ts), stencil_ns.size))
    q2p, q1p, q1m, q2m = (q[:, k * K:(k + 1) * K] for k in range(4))
    qdot = (-q2p + 8.0 * q1p - 8.0 * q1m + q2m) / (12.0 * h)
    return _reports(cfg, sites, cells, ts, q[:, 4 * K:], qdot, h, 4)


def equation_residuals_exact(solution_and_derivative, cfg: CaseConfig, n_range,
                             ts) -> list[ResidualReport]:
    """Lattice-equation residuals per t, with the exact q_dot.

    solution_and_derivative(ns, ts) -> (q, dq/dt) over broadcast cells, as
    ist.reconstruct_with_derivative with its first three arguments bound.
    It is called once, at the residual cells of every t in ts and at no
    other time; the reports have h = 0 and stencil_order = 0.
    """
    sites, cells = _residual_cells(n_range)
    ts = [float(t) for t in ts]
    q, qdot = solution_and_derivative(cells[None, :], np.reshape(ts, (len(ts), 1)))
    return _reports(cfg, sites, cells, ts, q, qdot[:, np.searchsorted(cells, sites)], 0.0, 0)


def equation_residual(solution_evaluator, cfg: CaseConfig, n_range,
                      t: float, h: float = 1e-3) -> ResidualReport:
    """The lattice-equation residual at one time t (see equation_residuals).

    No command calls it; the benchmark's layer timings do (ROADMAP item 2).
    """
    return equation_residuals(solution_evaluator, cfg, n_range, [t], h)[0]


@dataclass(frozen=True)
class Trajectory:
    """RK4 snapshots of the window field; boundary sites follow the background."""

    N: int
    times: np.ndarray
    states: np.ndarray


def simulate(initial_window: PotentialWindow, cfg: CaseConfig, t_end: float,
             dt: float) -> Trajectory:
    """Classical RK4 on the window field from the window's time to t_end.

    dt <= 0.05 keeps RK4 stable for unit-scale backgrounds; the two
    outermost sites per side are reset to the exact background after every
    step (and seen as exact background by every stage).  Stages read one
    buffer over the sites -N - 1 .. N + 1, whose views are q_{n+1}, q_{n-1}
    and q_{-n}.  Its end sites neighbour only pinned sites, whose stage
    derivatives never reach a state, so they stay 0.
    """
    N = initial_window.N
    sign = 1.0 if t_end >= initial_window.t else -1.0
    step = sign * abs(dt)
    n_steps = int(round(abs(t_end - initial_window.t) / abs(dt)))
    times = initial_window.t + step * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1, 2 * N + 1), dtype=complex)
    states[0] = initial_window.q
    idx = np.arange(-N, N + 1)
    pinned = np.flatnonzero(np.abs(idx) >= N - 1)
    # The pinned sites' background at every step time and stage time, in one
    # call each: the stage times are t, t + step/2 and t + step of each step.
    bg_at, bg_half, bg_full = (cfg.background(idx[pinned], ts[:, None]) for ts in (
        times, times[:-1] + 0.5 * step, times[:-1] + step))
    u = np.zeros(2 * N + 3, dtype=complex)
    q, q_next, q_prev, q_mirror = u[1:-1], u[2:], u[:-2], u[-2:0:-1]

    def rhs(bg):  # dq/dt of the buffer's field, its pinned sites set to bg
        q[pinned] = bg
        return al_rhs(q, q_next, q_prev, q_mirror, cfg.sigma)

    y = states[0]
    # A stage that overflows gives inf or NaN, which the peak check reports as a blow-up.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            q[:] = y
            k1 = rhs(bg_at[k])
            np.add(y, 0.5 * step * k1, out=q)
            k2 = rhs(bg_half[k])
            np.add(y, 0.5 * step * k2, out=q)
            k3 = rhs(bg_half[k])
            np.add(y, step * k3, out=q)
            k4 = rhs(bg_full[k])
            y = states[k + 1]
            np.add(states[k], (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), out=y)
            y[pinned] = bg_at[k + 1]
            peak = float(np.max(np.abs(y)))
            if not np.isfinite(peak) or peak > BLOWUP_THRESHOLD:
                raise BlowupDetected(
                    f"|q| reached {peak:.3e} at step {k + 1}, t = {times[k + 1]:.4f}",
                    step=k + 1, t=float(times[k + 1]))
    return Trajectory(N, times, states)


def compare(trajectory: Trajectory, solution_evaluator) -> float:
    """Max |simulated - analytic| over the trajectory's (site, time) grid.

    The evaluator ev(ns, ts) is called once over the whole grid.
    """
    sites = np.arange(-trajectory.N, trajectory.N + 1)
    q = solution_evaluator(sites[None, :], trajectory.times[:, None])
    return float(np.max(np.abs(trajectory.states - q)))
