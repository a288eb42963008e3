import math

import mpmath
import numpy as np
import pytest

from dnls_ist import ist, lattice, scattering, spectral

CASE1_ETA1 = math.pi + math.pi / 7  # zbar_1 = (1 - q0 exp(i pi/7))/r


@pytest.fixture(scope="session")
def case1_soliton():
    """Case I two-eigenvalue configuration with the figure parameters."""
    cfg = spectral.make_case(1, 2.0 / 3.0, 0.0)
    eigenset = ist.eigenvalues_case1(cfg, CASE1_ETA1)
    norming = ist.norming_case1(cfg, eigenset, 1.0, 0.0, 0.0)
    return cfg, eigenset, norming


@pytest.fixture(scope="session")
def case1_window(case1_soliton):
    cfg, eigenset, norming = case1_soliton
    N = 60
    q = np.array([ist.reconstruct(cfg, eigenset, norming, n, 0.0)
                  for n in range(-N, N + 1)])
    return lattice.PotentialWindow(cfg, N, 0.0, q)


@pytest.fixture(scope="session")
def case4_soliton():
    """Case IV single-eigenvalue configuration (theta_plus = 0, thbar1 = pi/3)."""
    cfg = spectral.make_case(4, 2.0 / 3.0, -math.pi)
    eigenset = ist.eigenvalues_case4(cfg)
    norming = ist.norming_case4(cfg, eigenset, math.pi / 3.0)
    return cfg, eigenset, norming


def reconstruct_grid_sizes(monkeypatch):
    """Record the cell count of every ist.reconstruct_grid call made through the module."""
    sizes = []
    grid = ist.reconstruct_grid

    def counted(cfg, eigenset, norming, ns, ts):
        sizes.append(np.broadcast(ns, ts).size)
        return grid(cfg, eigenset, norming, ns, ts)

    monkeypatch.setattr(ist, "reconstruct_grid", counted)
    return sizes


def perturbed_background(cfg, N=25, t=0.0, seed=0, amplitude=0.04):
    """Background window with a compact random bump (PT partner is derived)."""
    rng = np.random.default_rng(seed)
    base = lattice.background_field(cfg, t, N)
    ns = np.arange(-N, N + 1)
    bump = amplitude * (rng.standard_normal(2 * N + 1)
                        + 1j * rng.standard_normal(2 * N + 1)) * np.exp(-(ns / 4.0) ** 2)
    return lattice.PotentialWindow(cfg, N, t, np.array(base.q) + bump)


def case_configs():
    return [
        spectral.make_case(1, 2.0 / 3.0, 0.0),
        spectral.make_case(2, 1.0, 0.0),
        spectral.make_case(3, 1.0, 0.0),
        spectral.make_case(4, 2.0 / 3.0, -math.pi),
    ]


# Test-side references for one-point views the package no longer carries.

def site(window, n):
    """q_n of a window, with the exact background substituted for |n| > N."""
    if -window.N <= n <= window.N:
        return complex(window.q[n + window.N])
    return complex(window.cfg.background(n, window.t))


def al_rhs_at(window, n):
    """The scalar window stencil: dq_n/dt from the lattice equation at one site."""
    qp, qm, qn = site(window, n + 1), site(window, n - 1), site(window, n)
    rn = window.cfg.sigma * np.conj(site(window, -n))
    return -1j * (qp - 2.0 * qn + qm - qn * rn * (qp + qm))


def wronskian(col_a, col_b, n):
    """2x2 determinant of two Jost columns at site n, de-scaled."""
    i = n + col_a.N
    va, vb = col_a.values[i], col_b.values[i]
    det = va[0] * vb[1] - va[1] * vb[0]
    return complex(det * math.exp(col_a.log_scale[i] + col_b.log_scale[i]))


# The per-line trajectory writer that cli's streamed row templates replaced.

def trajectory_csv_lines(traj):
    """The trajectory CSV of traj, one format call per line."""
    lines = ["step,t,n,re_q,im_q"]
    sites = range(-traj.N, traj.N + 1)
    for k, (t, row) in enumerate(zip(traj.times.tolist(), traj.states.tolist())):
        for n, z in zip(sites, row):
            lines.append("%d,%.17g,%d,%.17g,%.17g" % (k, t, n, z.real, z.imag))
    return "\n".join(lines) + "\n"


def check_symmetries(window, zeta_samples):
    """The symmetry residuals of scattering_report over zeta_samples."""
    return scattering.scattering_report(window, zeta_samples).symmetry


# The dense reflectionless solve that reconstruct_grid's block form replaced:
# every cell's (4J+1) system stacked and solved by LAPACK, with the same checks.

def dense_reconstruct(cfg, eigenset, norming, ns, ts):
    """(q, r, reason) per cell from the dense solve, checked as reconstruct_grid checks.

    Unknown ordering: N1(zeta_j), N2(zeta_j), Nbar1(zbar_j), Nbar2(zbar_j), 1/Theta_n.
    """
    b = ist._assemble(cfg, eigenset, norming, np.asarray(ns), np.asarray(ts, dtype=float))
    J, M = b.row.shape
    dim = 4 * J + 1
    B = np.zeros((M, dim, dim), dtype=complex)
    B[:, np.arange(dim), np.arange(dim)] = 1.0
    B[:, J:2 * J, -1] = b.rp[:, None]
    B[:, 2 * J:3 * J, -1] = -b.qp[:, None]
    B[:, :J, 2 * J:3 * J] = B[:, J:2 * J, 3 * J:4 * J] = -b.kbar.transpose(2, 0, 1)
    B[:, 2 * J:3 * J, :J] = B[:, 3 * J:4 * J, J:2 * J] = -b.k.transpose(2, 0, 1)
    B[:, -1, J:2 * J] = b.row.T
    Y = np.concatenate([b.y0, np.zeros(2 * J), b.y3, [1.0]]).astype(complex)
    reason = np.full(M, ist.OK, dtype=np.int8)

    def flag(bad, code):
        reason[(reason == ist.OK) & bad] = code

    entries_ok = np.isfinite(B).all(axis=(1, 2))
    flag(~entries_ok, ist.OVERFLOW)
    B[~entries_ok] = np.eye(B.shape[1])
    X = np.full(B.shape[:2], np.nan, dtype=complex)
    with np.errstate(all="ignore"):
        for i in range(M):  # cell by cell, so that a zero pivot flags that cell alone
            try:
                X[i] = np.linalg.solve(B[i], Y)
            except np.linalg.LinAlgError:
                reason[i] = ist.EXACTLY_SINGULAR
        flag(~np.isfinite(X).all(axis=1), ist.OVERFLOW)
        backward = np.abs((B @ X[..., None])[..., 0] - Y).max(axis=1)
        xmax = np.abs(X).max(axis=1)
        scale = np.abs(B).max(axis=(1, 2)) * np.maximum(xmax, 1e-300) + np.abs(Y).max()
        flag(backward > 1e-8 * scale, ist.BACKWARD_ERROR)
        theta_inv = X[:, -1]
        flag(np.abs(theta_inv) < ist.DET_GUARD * np.maximum(1.0, xmax), ist.THETA_DIVERGENCE)
        q = b.qp + cfg.r * (b.row.T * X[:, :J]).sum(axis=1) / theta_inv
        rn = b.rp - (b.row_r.T * X[:, 3 * J:4 * J]).sum(axis=1) / theta_inv
    flag(~np.isfinite(q), ist.AMPLITUDE)
    return q, rn, reason


def mp_reconstruct(cfg, eigenset, norming, n, t):
    """q_n(t) from the (4J+1) system assembled and solved in mpmath at 50 digits.

    The inputs are the double eigenvalues, Cbar_j(0) and the background
    constants; the lam powers, gamma, the time factors and the solve are
    all carried at 50 digits.
    """
    with mpmath.workdps(50):
        r, t = mpmath.mpf(cfg.r), mpmath.mpf(t)
        zs = [mpmath.mpc(z) for z in eigenset.zeros_t11]
        zbs = [mpmath.mpc(z) for z in eigenset.zeros_t22]
        J = len(zs)
        rotation = mpmath.mpf(cfg.rotation)
        qp = cfg.q0 * mpmath.expj(cfg.theta_plus + rotation * t)
        rp = cfg.sigma * mpmath.conj(cfg.q0 * mpmath.expj(cfg.theta_minus + rotation * t))

        def lam2(z):
            return z * (z - r) / (z * r - 1)

        def gamma(z):
            return r * r * (z - 2 / r + 1 / z) * (z - 2 * r + 1 / z) / ((z - r) * (1 / z - r))

        cbar = [mpmath.mpc(c0) * mpmath.exp(-1j * (rotation + gamma(zb)) * t)
                for c0, zb in zip(norming.cbar0, zbs)]
        cpow = [-qp ** 2 / (zb - r) ** 2 * cb * lam2(z) ** (-n)
                for z, zb, cb in zip(zs, zbs, cbar)]
        cbarpow = [cb * lam2(zb) ** n for zb, cb in zip(zbs, cbar)]
        row = [cp / (z * (z - r)) for z, cp in zip(zs, cpow)]
        dim = 4 * J + 1
        B = [[mpmath.mpc(i == j) for j in range(dim)] for i in range(dim)]
        Y = [mpmath.mpc(0)] * dim
        for i in range(J):
            Y[i], Y[3 * J + i], Y[4 * J] = r - 1 / zs[i], zbs[i] - r, 1
            B[J + i][4 * J], B[2 * J + i][4 * J], B[4 * J][J + i] = rp, -qp, row[i]
            for j in range(J):
                kbar = (zs[i] - 1 / r) * cbarpow[j] / ((zbs[j] - 1 / r) * (zs[i] - zbs[j]))
                k = (zbs[i] - r) * cpow[j] / ((zs[j] - r) * (zbs[i] - zs[j]))
                B[i][2 * J + j] = B[J + i][3 * J + j] = -kbar
                B[2 * J + i][j] = B[3 * J + i][J + j] = -k
        X = _mp_solve(B, Y)
        return complex(qp + r * mpmath.fsum(row[j] * X[j] for j in range(J)) / X[4 * J])


def _mp_solve(B, Y):
    """Gaussian elimination with partial pivoting on lists of mpmath numbers.

    mpmath.lu_solve calls a far-field system singular: its pivot test is
    relative to the norm of B, which the lam**(2n) entries make huge.
    """
    A = [row[:] + [y] for row, y in zip(B, Y)]
    dim = len(A)
    for c in range(dim):
        p = max(range(c, dim), key=lambda i: abs(A[i][c]))
        A[c], A[p] = A[p], A[c]
        for i in range(c + 1, dim):
            f = A[i][c] / A[c][c]
            A[i] = [a - f * b for a, b in zip(A[i], A[c])]
    X = [mpmath.mpc(0)] * dim
    for i in reversed(range(dim)):
        X[i] = (A[i][dim] - mpmath.fsum(A[i][j] * X[j] for j in range(i + 1, dim))) / A[i][i]
    return X
