import math

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


def check_symmetries(window, zeta_samples):
    """The symmetry residuals of scattering_report over zeta_samples."""
    return scattering.scattering_report(window, zeta_samples).symmetry
