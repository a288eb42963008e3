"""Independent validation: lattice-equation residuals and time-domain RK4.

The residual oracle never touches the scattering machinery.  It needs the
field q over the sites, their neighbours and their mirror sites at each
time (residual_cells), and dq/dt at the sites.  equation_residuals_exact
takes both as arrays, with dq/dt exact for the reflectionless solution
(ist.reconstruct_grid with derivative set, the solve `ist verify` shares
with its singularity scan).  Any evaluator ev(ns, ts) -> q over broadcast
(n, t) cells (ist.make_evaluator, CaseConfig.background, a np.vectorize'd
function) gets dq/dt from a 4th-order finite-difference stencil
(equation_residuals), the cross-check of the exact derivative.
The simulator integrates the truncated lattice as a complex ODE with the
outermost two sites on each side pinned to the exact background rotation.
Both take the lattice equation from lattice.al_rhs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowupDetected, DomainError
from .lattice import PotentialWindow, al_rhs
from .spectral import CaseConfig

BLOWUP_THRESHOLD = 1e6
# Stored RK4 rows per blow-up check in simulate.
_PEAK_ROWS = 32


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


def residual_cells(n_range):
    """The sites, and the sorted cells their residual reads at one time."""
    sites = np.array(list(n_range), dtype=int)
    return sites, np.unique(np.concatenate([sites - 1, sites, sites + 1, -sites]))


def _reports(cfg: CaseConfig, sites, cells, ts, q, qdot, h, order) -> list[ResidualReport]:
    """|q_dot - lattice.al_rhs| at the sites, per t.

    q holds one row per t over the cells, qdot one row per t over the sites.
    """
    def at(ns):
        return q[:, np.searchsorted(cells, ns)]

    # A field whose cubic term overflows gets a NaN or inf residual, which fails
    # any tolerance; it is reported, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        res = np.abs(qdot - al_rhs(at(sites), at(sites + 1), at(sites - 1), at(-sites),
                                   cfg.sigma))
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
    sites, cells = residual_cells(n_range)
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


def equation_residuals_exact(q, qdot, cfg: CaseConfig, n_range, ts) -> list[ResidualReport]:
    """Lattice-equation residuals per t, with the exact q_dot.

    q and qdot hold q and dq/dt at residual_cells(n_range), one row per t
    in ts (ist.reconstruct_grid's q and qdot over cells[None, :] and
    ts[:, None], reshaped); any other shape is a DomainError.  The reports
    have h = 0 and stencil_order = 0.
    """
    sites, cells = residual_cells(n_range)
    ts = [float(t) for t in ts]
    if not np.shape(q) == np.shape(qdot) == (len(ts), cells.size):
        raise DomainError(f"q and dq/dt must be {(len(ts), cells.size)}: (times, residual cells)")
    return _reports(cfg, sites, cells, ts, q, qdot[:, np.searchsorted(cells, sites)], 0.0, 0)


def equation_residual(solution_evaluator, cfg: CaseConfig, n_range,
                      t: float, h: float = 1e-3) -> ResidualReport:
    """The lattice-equation residual at one time t (see equation_residuals).

    No command calls it; the benchmark's layer timings do (ROADMAP item 18).
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
    derivatives never reach a state, so they stay 0.  The stages and their
    weighted sum are computed into buffers made once (lattice.al_rhs's out),
    operation by operation as the formulas read, so every state keeps the
    bits of the stepper that allocates each one.  The peak |q| is checked
    once per _PEAK_ROWS stored rows and after the last: the first row past
    BLOWUP_THRESHOLD (or not finite) raises BlowupDetected with its step and
    t, as a check after every step would.
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
    k1, k2, k3, k4, dy = np.empty((5, 2 * N + 1), dtype=complex)

    def rhs(bg, out):  # dq/dt of the buffer's field, its pinned sites set to bg, into out
        q[pinned] = bg
        al_rhs(q, q_next, q_prev, q_mirror, cfg.sigma, out)

    checked = 0  # rows 1 .. checked are below the threshold
    # A stage that overflows gives inf or NaN, which the peak check reports as a blow-up.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            y = states[k]
            q[:] = y
            rhs(bg_at[k], k1)
            np.add(y, np.multiply(0.5 * step, k1, out=dy), out=q)
            rhs(bg_half[k], k2)
            np.add(y, np.multiply(0.5 * step, k2, out=dy), out=q)
            rhs(bg_half[k], k3)
            np.add(y, np.multiply(step, k3, out=dy), out=q)
            rhs(bg_full[k], k4)
            # (step / 6) (k1 + 2 k2 + 2 k3 + k4); no operation writes over its inputs
            np.add(k1, np.multiply(2.0, k2, out=dy), out=k2)
            np.add(k2, np.multiply(2.0, k3, out=dy), out=k1)
            np.multiply(step / 6.0, np.add(k1, k4, out=k2), out=k1)
            np.add(y, k1, out=states[k + 1])
            states[k + 1, pinned] = bg_at[k + 1]
            if k + 1 - checked == _PEAK_ROWS or k + 1 == n_steps:
                peaks = np.abs(states[checked + 1:k + 2]).max(axis=1)
                bad = np.flatnonzero(~np.isfinite(peaks) | (peaks > BLOWUP_THRESHOLD))
                if bad.size:
                    row = checked + 1 + int(bad[0])
                    raise BlowupDetected(
                        f"|q| reached {peaks[bad[0]]:.3e} at step {row}, t = {times[row]:.4f}",
                        step=row, t=float(times[row]))
                checked = k + 1
    return Trajectory(N, times, states)


def compare(trajectory: Trajectory, solution_evaluator) -> float:
    """Max |simulated - analytic| over the trajectory's (site, time) grid.

    The evaluator ev(ns, ts) is called once over the whole grid.
    """
    sites = np.arange(-trajectory.N, trajectory.N + 1)
    q = solution_evaluator(sites[None, :], trajectory.times[:, None])
    return float(np.max(np.abs(trajectory.states - q)))
