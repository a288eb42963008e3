"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Criterion 3d (singularity flag at theta = pi/2) fails by design.  The
norming constants here are pinned by enforcing the nonlocal reduction
r_n = sigma * conj(q_{-n}) exactly (tests/test_ist.py asserts this to
machine precision), and under that pinning the case-1 family's unique
singular member sits at theta + thbar1 = pi while the theta = pi/2 member
is globally regular (|1/Theta_n| >= 0.19 over wide (n, t) sweeps).  The
test states the criterion faithfully and is expected red; the singularity
machinery itself is asserted green on the true singular member in
criterion 3's companion line.
"""
import cmath
import math
import time

import numpy as np
import pytest

from dnls_ist import ist, lattice, spectral, verify
from dnls_ist.lattice import background_field, theta_products
from dnls_ist.scattering import (continuum_samples, scattering_coefficients,
                                 trace_formula, jost, ColumnKind)
from dnls_ist.spectral import Region, classify, point_from_zeta

from conftest import (CASE1_ETA1, case2_feasibility_scan, case_configs, check_symmetries,
                      perturbed_background, wronskian)


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def test_criterion_1_spectral_identities():
    start = time.perf_counter()
    worst_map = 0.0
    worst_table = 0.0
    for cfg in case_configs():
        rng = np.random.default_rng(cfg.case_id.value)
        count = 0
        while count < 1000:
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(z) < 1e-2 or any(abs(z - p) < 1e-2 for p in
                                    (0.0, cfg.r, 1.0 / cfg.r, *cfg.branch_points)):
                continue
            pt = point_from_zeta(cfg, z)
            r = cfg.r
            worst_map = max(
                worst_map,
                abs(pt.z ** 2 - (z - r) / (z * (z * r - 1.0))) / abs(pt.z ** 2),
                abs(pt.lam ** 2 - z * (z - r) / (z * r - 1.0)) / abs(pt.lam ** 2),
                abs(pt.z * pt.lam - (z - r) / (z * r - 1.0)) / abs(pt.z * pt.lam),
                abs(r * (pt.lam + 1 / pt.lam) - (pt.z + 1 / pt.z))
                / max(abs(pt.z + 1 / pt.z), 1e-2))
            count += 1
        for mag in (1e6, 1e-6):
            z = mag * cmath.exp(0.37j)
            pt = point_from_zeta(cfg, z)
            if mag > 1:
                checks = (pt.z ** 2 * cfg.r * z - 1.0,
                          pt.lam ** 2 * cfg.r / z - 1.0,
                          pt.z * pt.lam * cfg.r - 1.0)
            else:
                checks = (pt.z ** 2 * z / cfg.r - 1.0,
                          pt.lam ** 2 / (cfg.r * z) - 1.0,
                          pt.z * pt.lam / cfg.r - 1.0)
            worst_table = max(worst_table, *(abs(c) for c in checks))
    elapsed = time.perf_counter() - start
    ok = worst_map < 1e-12 and worst_table < 1e-5 and elapsed < 1.0
    assert report("criterion 1 (spectral identities)", ok,
                  f"map {worst_map:.2e}, limits {worst_table:.2e}, {elapsed:.2f}s")


def test_criterion_2_background_sanity():
    worst_t = worst_theta = worst_sym = worst_res = 0.0
    for case_id, q0 in ((1, 2.0 / 3.0), (3, 0.8)):
        cfg = spectral.make_case(case_id, q0, 0.2)
        w = background_field(cfg, 0.0, 25)
        th = theta_products(w)
        worst_theta = max(worst_theta, float(np.max(np.abs(th.theta_n - 1.0))))
        for z in continuum_samples(cfg, 4, seed=1):
            c = scattering_coefficients(w, z)
            worst_t = max(worst_t, abs(c.t11 - 1), abs(c.t22 - 1),
                          abs(c.t21_mod), abs(c.t12_mod))
        rep = check_symmetries(w, continuum_samples(cfg, 4, seed=2))
        worst_sym = max(worst_sym, rep.first_diag, rep.first_offdiag, rep.second)
        worst_res = max(worst_res, verify.equation_residual(
            cfg.background, cfg, range(-10, 11), 0.4).max_abs_residual)
    ok = worst_t < 1e-12 and worst_theta < 1e-12 and worst_sym < 1e-12 and worst_res < 1e-10
    assert report("criterion 2 (background sanity)", ok,
                  f"T-I {worst_t:.2e}, Theta-1 {worst_theta:.2e}, "
                  f"sym {worst_sym:.2e}, residual {worst_res:.2e}")


def test_criterion_3_case1_soliton(case1_soliton):
    start = time.perf_counter()
    cfg, eigenset, norming = case1_soliton
    ev = ist.make_evaluator(cfg, eigenset, norming)
    worst_res = 0.0
    for t in (-5.0, 0.0, 5.0):
        rep = verify.equation_residual(ev, cfg, range(-30, 31), t)
        worst_res = max(worst_res, rep.max_abs_residual)
    ok_a = worst_res < 1e-6
    worst_bc = max(abs(abs(ev(n, t)) - cfg.q0)
                   for n in (-60, 60) for t in (-5.0, 0.0, 5.0))
    ok_b = worst_bc < 1e-6
    prof0 = np.array([abs(ev(n, 10.0)) for n in range(-40, 41)])
    dips = [i for i in range(1, 80) if prof0[i] < prof0[i - 1]
            and prof0[i] < prof0[i + 1] and prof0[i] < cfg.q0 - 1e-3]
    cfg_pi = spectral.make_case(1, cfg.q0, math.pi)
    es_pi = ist.eigenvalues_case1(cfg_pi, CASE1_ETA1)
    nm_pi = ist.norming_case1(cfg_pi, es_pi, 1.0, 0.0, 0.0)
    ev_pi = ist.make_evaluator(cfg_pi, es_pi, nm_pi)
    prof_pi = np.array([abs(ev_pi(n, 10.0)) for n in range(-40, 41)])
    humps = [i for i in range(1, 80) if prof_pi[i] > prof_pi[i - 1]
             and prof_pi[i] > prof_pi[i + 1] and prof_pi[i] > cfg.q0 + 1e-3]
    ok_c = len(dips) == 2 and len(humps) == 2
    scan_pi = ist.singularity_scan(cfg_pi, es_pi, nm_pi, n_range=(-8, 8),
                                   t_span=(0.0, 5.0), coarse_dt=0.25)
    elapsed = time.perf_counter() - start
    ok = ok_a and ok_b and ok_c and scan_pi.singular and elapsed < 10.0
    assert report("criterion 3a-c (case I soliton)", ok,
                  f"residual {worst_res:.2e}, boundary {worst_bc:.2e}, "
                  f"dips {len(dips)}, humps {len(humps)}, "
                  f"singular member flagged at theta=pi: {scan_pi.singular}, "
                  f"{elapsed:.1f}s")


def test_criterion_3d_singularity_flag_at_half_pi(case1_soliton):
    # Stated criterion: theta = pi/2 (kappa1 = 1, thbar1 = thbar2 = 0)
    # triggers the singularity flag.  With reduction-consistent norming
    # data this member is regular (|1/Theta_n| >= 0.19 over the scan), so
    # this test is expected to fail; see the module docstring.
    cfg = spectral.make_case(1, 2.0 / 3.0, math.pi / 2.0)
    eigenset = ist.eigenvalues_case1(cfg, CASE1_ETA1)
    norming = ist.norming_case1(cfg, eigenset, 1.0, 0.0, 0.0)
    scan = ist.singularity_scan(cfg, eigenset, norming, n_range=(-12, 12),
                                t_span=(-8.0, 8.0), coarse_dt=0.25)
    assert report("criterion 3d (singularity flag at theta=pi/2)", scan.singular,
                  f"min|1/Theta| = {scan.min_theta_inv:.3e} "
                  f"(singular member of the corrected family is at theta+thbar1=pi)")


def test_criterion_4_roundtrip_ist(case1_soliton, case1_window):
    cfg, eigenset, _ = case1_soliton
    worst_zero = max(abs(scattering_coefficients(case1_window, zj).t11)
                     for zj in eigenset.zeros_t11)
    worst_rho = 0.0
    for z in continuum_samples(cfg, 20, seed=4):
        c = scattering_coefficients(case1_window, z)
        worst_rho = max(worst_rho, abs(c.t21_mod / c.t11), abs(c.t12_mod / c.t22))
    theta_inf = theta_products(case1_window).theta_minus_inf
    worst_det = max(abs(scattering_coefficients(case1_window, z).det - theta_inf)
                    for z in continuum_samples(cfg, 6, seed=5))
    rng = np.random.default_rng(6)
    worst_trace = 0.0
    count = 0
    while count < 10:
        z = complex(rng.uniform(-0.85, 0.85), rng.uniform(-0.85, 0.85))
        if not 0.1 < abs(z) < 0.85 or classify(cfg, z) is not Region.DPlus:
            continue
        if abs(z - cfg.r) < 0.05:
            continue
        _, pred22 = trace_formula(cfg, eigenset, z)
        worst_trace = max(worst_trace, abs(pred22 - scattering_coefficients(case1_window, z).t22))
        count += 1
    ok = worst_zero < 1e-5 and worst_rho < 1e-5 and worst_det < 1e-6 and worst_trace < 1e-4
    assert report("criterion 4 (round-trip IST)", ok,
                  f"t11 zeros {worst_zero:.2e}, rho {worst_rho:.2e}, "
                  f"detT {worst_det:.2e}, trace {worst_trace:.2e}")


def test_criterion_5_case2_no_solitons():
    start = time.perf_counter()
    cfg = spectral.make_case(2, 1.0, 0.0)
    empty = all(ist.eigenvalues_case2(cfg, J=J).is_empty()
                for J in (1, 2))
    scan = case2_feasibility_scan(cfg, samples=10_000, seed=0)
    elapsed = time.perf_counter() - start
    assert min(ist.case2_trace_infima(cfg).values()) > 0
    ok = empty and scan.min_violation > 0.0 and elapsed < 5.0
    assert report("criterion 5 (case II no solitons)", ok,
                  f"empty {empty}, min violation {scan.min_violation:.3f} "
                  f"over {scan.candidates} candidates, {elapsed:.2f}s")


def test_criterion_6_case4_soliton(case4_soliton):
    cfg, eigenset, norming = case4_soliton
    ev = ist.make_evaluator(cfg, eigenset, norming)
    worst_cf = 0.0
    for t in np.linspace(0.0, 1.0, 11):
        for n in range(-30, 31):
            worst_cf = max(worst_cf, abs(ev(n, float(t))
                                         - ist.soliton_closed_form_case4(cfg, math.pi / 3.0, n, float(t))))
    prof_bright = [abs(ev(n, 0.0)) for n in range(-30, 31)]
    cfg_dark = spectral.make_case(4, cfg.q0, -math.pi + math.pi / 3.0)  # theta_plus = pi/3
    prof_dark = [abs(ist.soliton_closed_form_case4(cfg_dark, math.pi / 3.0, n, 0.0))
                 for n in range(-30, 31)]
    worst_res = verify.equation_residual(ev, cfg, range(-20, 21), 0.0).max_abs_residual
    ok = (worst_cf < 1e-10 and max(prof_bright) > cfg.q0
          and min(prof_dark) < cfg.q0 and worst_res < 1e-6)
    assert report("criterion 6 (case IV soliton)", ok,
                  f"closed-form {worst_cf:.2e}, bright max {max(prof_bright):.3f}, "
                  f"dark min {min(prof_dark):.3f}, residual {worst_res:.2e}")


def test_criterion_7_simulator_cross_check(case4_soliton):
    cfg, eigenset, norming = case4_soliton
    ev = ist.make_evaluator(cfg, eigenset, norming)
    N = 40
    w0 = lattice.PotentialWindow(cfg, N, 0.0,
                                 np.array([ev(n, 0.0) for n in range(-N, N + 1)]))
    traj = verify.simulate(w0, cfg, 1.0, 0.01)
    dev_soliton = verify.compare(traj, ev)
    cfg_bg = spectral.make_case(1, 2.0 / 3.0, 0.3)
    traj_bg = verify.simulate(background_field(cfg_bg, 0.0, N), cfg_bg, 1.0, 0.002)
    dev_bg = verify.compare(traj_bg, cfg_bg.background)
    ok = dev_soliton < 1e-4 and dev_bg < 1e-10
    assert report("criterion 7 (simulator cross-check)", ok,
                  f"soliton {dev_soliton:.2e}, background {dev_bg:.2e}")


def test_criterion_8_time_invariance(case1_soliton):
    cfg, eigenset, norming = case1_soliton
    N = 45
    coeffs = {}
    for t in (0.0, 1.0):
        q = np.array([ist.reconstruct(cfg, eigenset, norming, n, t)
                      for n in range(-N, N + 1)])
        w = lattice.PotentialWindow(cfg, N, t, q)
        coeffs[t] = [scattering_coefficients(w, z)
                     for z in continuum_samples(cfg, 5, seed=7)]
    worst = max(max(abs(a.t11 - b.t11), abs(a.t22 - b.t22))
                for a, b in zip(coeffs[0.0], coeffs[1.0]))
    ok = worst < 1e-5
    assert report("criterion 8 (t11/t22 time invariance)", ok, f"max drift {worst:.2e}")


def test_criterion_9_wronskian_and_site_independence():
    worst_w = worst_site = 0.0
    for cfg in case_configs():
        for seed in range(50):
            w = perturbed_background(cfg, N=15, seed=seed)
            z = (1.0 + (1e-6 if seed % 2 else -1e-6)) * cmath.exp(1j * (0.2 + 0.11 * seed))
            pt = point_from_zeta(cfg, z)
            th = theta_products(w)
            n_col = jost(w, pt, ColumnKind.N)
            nbar_col = jost(w, pt, ColumnKind.NBAR)
            base = cfg.r * (z + 1.0 / z - 2.0 * cfg.r)
            for n in range(-15, 17):
                worst_w = max(worst_w, abs(wronskian(n_col, nbar_col, n) * th.at(n) - base))
            ref = scattering_coefficients(w, z, n=0)
            for n in (-5, 5):
                c = scattering_coefficients(w, z, n=n)
                worst_site = max(worst_site, abs(c.t11 - ref.t11), abs(c.t22 - ref.t22),
                                 abs(c.t21_mod - ref.t21_mod), abs(c.t12_mod - ref.t12_mod))
    ok = worst_w < 1e-8 and worst_site < 1e-8
    assert report("criterion 9 (Wronskian identity, site independence)", ok,
                  f"wronskian {worst_w:.2e}, site drift {worst_site:.2e}")
