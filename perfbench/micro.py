"""Layer microbenchmarks: each layer function timed on its own, untraced.

Inputs are the c1 and c4 configs of workloads.py at the sizes ROADMAP aim 1
names.  Each figure is the median per-call time over batches, where a batch
repeats the call until it takes at least a millisecond.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from workloads import C1, C4

BATCH_S = 1e-3
BUDGET_S = 0.15
MIN_BATCHES = 3


def per_call_seconds(fn) -> float:
    reps = 1
    while True:
        start = perf_counter()
        for _ in range(reps):
            fn()
        elapsed = perf_counter() - start
        if elapsed >= BATCH_S:
            break
        reps *= 4
    samples = [elapsed / reps]
    end = perf_counter() + BUDGET_S
    while len(samples) < MIN_BATCHES or perf_counter() < end:
        start = perf_counter()
        for _ in range(reps):
            fn()
        samples.append((perf_counter() - start) / reps)
    return statistics.median(samples)


def _scatter_doc(zetas) -> dict:
    """A document shaped like the one `ist scatter` writes for these zeta."""
    rng = np.random.default_rng(0)

    def values():
        return [complex(a, b) for a, b in rng.normal(size=(len(zetas), 2))]

    return {
        "zeta_grid": list(zetas), "t11": values(), "t22": values(),
        "t21_mod": values(), "t12_mod": values(), "rho": values(),
        "rho_bar": values(), "det_t": values(), "theta_minus_inf": 5.0 + 0j,
        "residuals": {"det_vs_theta": 1e-13, "symmetry_first_diag": 1e-13,
                      "symmetry_first_offdiag": 1e-14, "symmetry_second": 1e-13,
                      "t11_at_eigenvalues": [1e-15, 1e-15],
                      "trace_formula": 1e-13},
        "tolerance": 1e-5,
        "failures": {},
    }


def run() -> dict[str, float]:
    """Per-call seconds of each microbenchmark, keyed by metric name."""
    from dnls_ist import cli, ist, lattice, scattering, spectral, verify

    c1 = cli.parse_config(C1)
    c4 = cli.parse_config(C4)
    cfg1 = spectral.make_case(1, c1.q0, c1.theta_minus)
    cfg4 = spectral.make_case(4, c4.q0, c4.theta_minus)
    eig1 = ist.eigenvalues_case1(cfg1, c1.eta1)
    norm1 = ist.norming_case1(cfg1, eig1, c1.kappa1, c1.thbar1, c1.thbar2)
    eig4 = ist.eigenvalues_case4(cfg4)
    norm4 = ist.norming_case4(cfg4, eig4, c4.thbar1)
    N = 60
    window1 = lattice.PotentialWindow(
        cfg1, N, 0.0,
        np.array([ist.reconstruct(cfg1, eig1, norm1, n, 0.0) for n in range(-N, N + 1)]))
    N4 = 40
    window4 = lattice.PotentialWindow(
        cfg4, N4, 0.0,
        np.array([ist.reconstruct(cfg4, eig4, norm4, n, 0.0) for n in range(-N4, N4 + 1)]))
    zetas = scattering.continuum_samples(cfg1, 20, seed=0)
    zeta = zetas[0]
    point = spectral.point_from_zeta(cfg1, zeta)
    zbar1 = eig1.zeros_t22[0]
    evaluator = ist.make_evaluator(cfg1, eig1, norm1)
    doc = _scatter_doc(zetas)

    cases = {
        "micro.spectral.gamma_s": lambda: spectral.gamma(cfg1, zbar1),
        "micro.spectral.point_from_zeta_s": lambda: spectral.point_from_zeta(cfg1, zeta),
        "micro.lattice.theta_products_s": lambda: lattice.theta_products(window1),
        "micro.scattering.jost_column_s":
            lambda: scattering.jost(window1, point, scattering.ColumnKind.M),
        "micro.scattering.scattering_coefficients_s":
            lambda: scattering.scattering_coefficients(window1, zeta),
        "micro.ist.reconstruct_c1_s": lambda: ist.reconstruct(cfg1, eig1, norm1, 3, 0.5),
        "micro.ist.reconstruct_c4_s": lambda: ist.reconstruct(cfg4, eig4, norm4, 3, 0.5),
        "micro.ist.soliton_closed_form_case4_s":
            lambda: ist.soliton_closed_form_case4(cfg4, c4.thbar1, 3, 0.5),
        "micro.ist.singularity_scan_s":
            lambda: ist.singularity_scan(cfg1, eig1, norm1, n_range=(-12, 12),
                                         t_span=(-6.0, 6.0), coarse_dt=0.25),
        "micro.verify.simulate_s": lambda: verify.simulate(window4, cfg4, 1.0, 0.01),
        "micro.verify.equation_residual_s":
            lambda: verify.equation_residual(evaluator, cfg1, range(-15, 16), 0.0),
        "micro.cli.dump_json_s": lambda: cli.dump_json(doc),
    }
    return {name: per_call_seconds(fn) for name, fn in cases.items()}

