import math

import numpy as np
import pytest

from dnls_ist import ist, lattice, spectral

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
