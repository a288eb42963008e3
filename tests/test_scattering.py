import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dnls_ist import ist, lattice, scattering, spectral
from dnls_ist.errors import NearBranchPoint, SingularPoint, SingularTransfer
from dnls_ist.lattice import background_field, theta_products
from dnls_ist.scattering import (ColumnKind, continuum_samples, jost,
                                 scattering_coefficients, scattering_report,
                                 trace_formula)
from dnls_ist.spectral import Region, classify, point_from_zeta, zeta_bar

from conftest import (case_configs, check_symmetries, perturbed_background, propagate_reference,
                      wronskian)


def _guard_by_loop(cfg, zetas):
    """scattering._guard as one Python check and one point_from_zeta call per zeta."""
    for zeta in zetas:
        if abs(zeta) > spectral.SINGULAR_GUARD and \
                abs(zeta + 1.0 / zeta - 2.0 * cfg.r) < scattering.BRANCH_GUARD:
            raise NearBranchPoint(f"zeta + 1/zeta - 2r vanishes at zeta={zeta}")
        point_from_zeta(cfg, zeta)


def test_jost_background_stationarity():
    # the boundary vectors are exact eigensolutions of the constant background
    cfg = spectral.make_case(1, 2.0 / 3.0, 0.0)
    w = background_field(cfg, 0.0, 30)
    pt = point_from_zeta(cfg, 1.000001 * cmath.exp(0.5j))
    col = jost(w, pt, ColumnKind.M)
    bv = np.array([cfg.q_minus(0.0), pt.zeta - cfg.r])
    for n in range(-30, 32):
        assert np.max(np.abs(col.value(n) - bv)) < 1e-10


def test_jost_n_boundary_vector():
    cfg = spectral.make_case(1, 2.0 / 3.0, 0.0)
    w = background_field(cfg, 0.0, 20)
    pt = point_from_zeta(cfg, 0.999999 * cmath.exp(1.1j))
    col = jost(w, pt, ColumnKind.N)
    bv = np.array([cfg.r - 1.0 / pt.zeta, -cfg.r_plus(0.0)])
    assert np.max(np.abs(col.value(20) - bv)) < 1e-12


@pytest.mark.parametrize("n", [-11, 12])
def test_sites_outside_the_columns_raise(n):
    cfg = spectral.make_case(1, 2.0 / 3.0, 0.0)
    w = background_field(cfg, 0.0, 10)
    col = jost(w, point_from_zeta(cfg, 1.1j), ColumnKind.M)
    with pytest.raises(ValueError, match=f"site n={n} outside"):
        col.value(n)
    with pytest.raises(ValueError, match=f"site n={n} outside"):
        scattering_coefficients(w, 1.1j, n=n)


def test_wronskian_of_identical_columns_is_zero():
    cfg = spectral.make_case(1, 2.0 / 3.0, 0.0)
    w = background_field(cfg, 0.0, 10)
    pt = point_from_zeta(cfg, 1.2 + 0.4j)
    col = jost(w, pt, ColumnKind.M)
    assert wronskian(col, col, 3) == 0


def test_wronskian_identity_background():
    # Det(N, Nbar) = r (zeta + 1/zeta - 2r) / Theta_n with Theta = 1
    cfg = spectral.make_case(1, 2.0 / 3.0, 0.0)
    w = background_field(cfg, 0.0, 15)
    z = 1.000001 * cmath.exp(0.9j)
    pt = point_from_zeta(cfg, z)
    n_col = jost(w, pt, ColumnKind.N)
    nbar_col = jost(w, pt, ColumnKind.NBAR)
    expected = cfg.r * (z + 1.0 / z - 2.0 * cfg.r)
    for n in (-10, 0, 7):
        assert wronskian(n_col, nbar_col, n) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("cfg", case_configs(), ids=lambda c: c.case_id.name)
def test_wronskian_identity_perturbed(cfg):
    # identity (with numeric Theta_n) at every site, several windows per case
    for seed in range(4):
        w = perturbed_background(cfg, N=20, seed=seed)
        th = theta_products(w)
        z = (1.0 + 1e-6) * cmath.exp(1j * (0.8 + 0.3 * seed))
        pt = point_from_zeta(cfg, z)
        n_col = jost(w, pt, ColumnKind.N)
        nbar_col = jost(w, pt, ColumnKind.NBAR)
        base = cfg.r * (z + 1.0 / z - 2.0 * cfg.r)
        for n in range(-20, 22):
            lhs = wronskian(n_col, nbar_col, n) * th.at(n)
            assert lhs == pytest.approx(base, rel=1e-8)


def test_soliton_wronskian_identity(case1_window):
    cfg = case1_window.cfg
    z = (1.0 + 1e-6) * cmath.exp(0.4j)
    pt = point_from_zeta(cfg, z)
    th = theta_products(case1_window)
    n_col = jost(case1_window, pt, ColumnKind.N)
    nbar_col = jost(case1_window, pt, ColumnKind.NBAR)
    base = cfg.r * (z + 1.0 / z - 2.0 * cfg.r)
    ratio = wronskian(n_col, nbar_col, 0) * th.at(0) / base
    assert ratio == pytest.approx(1.0, abs=1e-6)


class TestCoefficients:
    def test_background_is_identity(self):
        for case_id, q0 in ((1, 2.0 / 3.0), (3, 0.8)):
            cfg = spectral.make_case(case_id, q0, 0.2)
            w = background_field(cfg, 0.0, 25)
            for z in (1.05 * cmath.exp(0.3j), 0.93 * cmath.exp(2.0j)):
                c = scattering_coefficients(w, z)
                assert abs(c.t11 - 1.0) < 1e-12
                assert abs(c.t22 - 1.0) < 1e-12
                assert abs(c.t21_mod) < 1e-12
                assert abs(c.t12_mod) < 1e-12

    def test_near_branch_point_guard(self):
        cfg = spectral.make_case(1, 2.0 / 3.0, 0.0)
        w = background_field(cfg, 0.0, 10)
        with pytest.raises(NearBranchPoint):
            scattering_coefficients(w, cfg.branch_points[0] + 1e-12)

    @pytest.mark.parametrize("cfg", case_configs(), ids=lambda c: c.case_id.name)
    def test_array_guard_raises_as_the_loop_did(self, cfg):
        bp = cfg.branch_points
        for zetas in ([1.1j, 0.0, bp[0]], [1.1j, bp[0] + 1e-12, 0j], [2j, cfg.r + 1e-11, bp[1]],
                      [bp[1], bp[0]], [0.5 + 0.5j, 1.0 / cfg.r - 3e-11j], [1e-11 + 0j],
                      [0.5 + 0.5j, 1.5j], []):
            errors = []
            for guard in (_guard_by_loop, scattering._guard):
                try:
                    guard(cfg, zetas)
                    errors.append(None)
                except (NearBranchPoint, SingularPoint) as exc:
                    errors.append((type(exc), str(exc)))
            assert errors[0] == errors[1], zetas
            assert (errors[0] is None) == (zetas in ([0.5 + 0.5j, 1.5j], []))

    @pytest.mark.parametrize("cfg", case_configs(), ids=lambda c: c.case_id.name)
    def test_site_independence(self, cfg):
        for seed in range(3):
            w = perturbed_background(cfg, N=20, seed=10 + seed)
            z = (1.0 - 1e-6) * cmath.exp(1j * (0.5 + 0.4 * seed))
            ref = scattering_coefficients(w, z, n=0)
            for n in (-5, 5):
                c = scattering_coefficients(w, z, n=n)
                assert c.t11 == pytest.approx(ref.t11, rel=1e-8, abs=1e-8)
                assert c.t22 == pytest.approx(ref.t22, rel=1e-8, abs=1e-8)
                assert c.t21_mod == pytest.approx(ref.t21_mod, rel=1e-8, abs=1e-8)
                assert c.t12_mod == pytest.approx(ref.t12_mod, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("cfg", case_configs(), ids=lambda c: c.case_id.name)
    def test_det_equals_theta(self, cfg):
        w = perturbed_background(cfg, N=20, seed=2)
        theta_inf = theta_products(w).theta_minus_inf
        for z in continuum_samples(cfg, 4, seed=5):
            c = scattering_coefficients(w, z)
            assert abs(c.det - theta_inf) < 1e-6

    def test_zeros_at_planted_eigenvalues(self, case1_window, case1_soliton):
        _, eigenset, _ = case1_soliton
        for zj in eigenset.zeros_t11:
            assert abs(scattering_coefficients(case1_window, zj).t11) < 1e-5


def reflection(window, zeta):
    """(rho, rho_bar) at one zeta, from scattering_report."""
    rep = scattering_report(window, [zeta])
    return rep.rho[0], rep.rho_bar[0]


class TestReflection:
    def test_background_zero(self):
        cfg = spectral.make_case(1, 2.0 / 3.0, 0.0)
        w = background_field(cfg, 0.0, 20)
        rho, rho_bar = reflection(w, 1.01 * cmath.exp(0.8j))
        assert abs(rho) < 1e-12 and abs(rho_bar) < 1e-12

    def test_soliton_reflectionless(self, case1_window):
        cfg = case1_window.cfg
        for z in continuum_samples(cfg, 8, seed=9):
            rho, rho_bar = reflection(case1_window, z)
            assert abs(rho) < 1e-5 and abs(rho_bar) < 1e-5

    def test_consistency_identity(self):
        # t11 t22 (1 - rho rho_bar) = Theta_-inf for a reflective window
        cfg = spectral.make_case(1, 2.0 / 3.0, 0.0)
        w = perturbed_background(cfg, N=20, seed=6, amplitude=0.1)
        theta_inf = theta_products(w).theta_minus_inf
        z = 1.000001 * cmath.exp(0.7j)
        c = scattering_coefficients(w, z)
        rho, rho_bar = reflection(w, z)
        assert abs(rho) > 1e-4  # genuinely reflective
        assert c.t11 * c.t22 * (1.0 - rho * rho_bar) == pytest.approx(theta_inf, rel=1e-10)


class TestSymmetries:
    def test_background_residuals_vanish(self):
        for case_id, q0 in ((1, 2.0 / 3.0), (3, 0.8)):
            cfg = spectral.make_case(case_id, q0, 0.0)
            w = background_field(cfg, 0.0, 20)
            rep = check_symmetries(w, continuum_samples(cfg, 4, seed=1))
            assert rep.first_diag < 1e-12
            assert rep.first_offdiag < 1e-12
            assert rep.second < 1e-12

    @pytest.mark.parametrize("cfg", case_configs(), ids=lambda c: c.case_id.name)
    def test_perturbed_residuals(self, cfg):
        for seed in range(5):
            w = perturbed_background(cfg, N=20, seed=seed)
            rep = check_symmetries(w, continuum_samples(cfg, 4, seed=seed + 1))
            assert rep.first_diag < 1e-8
            assert rep.first_offdiag < 1e-8
            assert rep.second < 1e-8

    def test_case2_sign_flip(self):
        # |t11 + t22*(zbar*)| vanishes for the pi-step cases, not |t11 - ...|
        cfg = spectral.make_case(2, 0.9, 0.3)
        w = perturbed_background(cfg, N=20, seed=3)
        z = 1.000001 * cmath.exp(0.6j)
        c = scattering_coefficients(w, z)
        c_star = scattering_coefficients(w, np.conj(zeta_bar(cfg, z)))
        assert abs(c.t11 + np.conj(c_star.t22)) < 1e-10
        assert abs(c.t11 - np.conj(c_star.t22)) > 1e-2


def test_eigenfunction_symmetry_proportionality():
    # phi(z, 1/lam) = (r/lam - z)/(-r_minus) phi_bar(z, lam) restated through
    # the modified columns with only sheet-even factors:
    #   M1(zbar) (-r_minus) = (r - z lam) Mbar1(zeta)
    #   M2(zbar) (-r_minus) lam^2 = (r - z lam) Mbar2(zeta)
    # and the psi-type analogue with q_plus.
    cfg = spectral.make_case(1, 2.0 / 3.0, 0.0)
    w = perturbed_background(cfg, N=18, seed=12)
    z = 1.000001 * cmath.exp(0.9j)
    zb = zeta_bar(cfg, z)
    pt = point_from_zeta(cfg, z)
    pt_b = point_from_zeta(cfg, zb)
    zlam = pt.z * pt.lam
    lam2 = pt.lam ** 2
    rm = cfg.r_minus(0.0)
    qp = cfg.q_plus(0.0)
    m_at_bar = jost(w, pt_b, ColumnKind.M)
    mbar = jost(w, pt, ColumnKind.MBAR)
    n_at_bar = jost(w, pt_b, ColumnKind.N)
    nbar = jost(w, pt, ColumnKind.NBAR)
    for n in (-6, 0, 5):
        lhs = m_at_bar.value(n)
        rhs = mbar.value(n)
        assert lhs[0] * (-rm) == pytest.approx((cfg.r - zlam) * rhs[0], rel=1e-8)
        assert lhs[1] * (-rm) * lam2 == pytest.approx((cfg.r - zlam) * rhs[1], rel=1e-8)
        lhs2 = n_at_bar.value(n)
        rhs2 = nbar.value(n)
        assert lhs2[0] * qp == pytest.approx((cfg.r - zlam) * rhs2[0], rel=1e-8)
        assert lhs2[1] * qp * lam2 == pytest.approx((cfg.r - zlam) * rhs2[1], rel=1e-8)


class TestTraceFormula:
    def test_tends_to_one_at_infinity(self, case1_soliton):
        cfg, eigenset, _ = case1_soliton
        t11, _ = trace_formula(cfg, eigenset, 1e8)
        assert t11 == pytest.approx(1.0, abs=1e-6)

    def test_zero_at_planted_eigenvalues(self, case1_soliton):
        cfg, eigenset, _ = case1_soliton
        for zj in eigenset.zeros_t11:
            t11, _ = trace_formula(cfg, eigenset, zj)
            assert abs(t11) < 1e-14

    def test_matches_numeric_t22(self, case1_window, case1_soliton):
        cfg, eigenset, _ = case1_soliton
        rng = np.random.default_rng(0)
        count = 0
        while count < 10:
            z = complex(rng.uniform(-0.85, 0.85), rng.uniform(-0.85, 0.85))
            if not 0.1 < abs(z) < 0.85 or classify(cfg, z) is not Region.DPlus:
                continue
            if abs(z - cfg.r) < 0.05:
                continue
            _, pred22 = trace_formula(cfg, eigenset, z)
            c = scattering_coefficients(case1_window, z)
            assert pred22 == pytest.approx(c.t22, abs=1e-4)
            count += 1


def asymptotic_checks(window):
    """Errors of the leading-order limits of the columns (site 0) and coefficients."""
    cfg, sign = window.cfg, window.cfg.branch_sign
    big, small = 1e4, 1e-4
    mv = jost(window, point_from_zeta(cfg, big), ColumnKind.M).value(0)
    nv = jost(window, point_from_zeta(cfg, small), ColumnKind.NBAR).value(0) * theta_products(
        window).at(0)
    c = [scattering_coefficients(window, z) for z in (big, small, 1 / cfg.r + 1e-4, cfg.r + 1e-4)]
    return {"m_first": abs(mv[0] - window.q[window.N - 1]), "m_second": abs(mv[1] / big - 1.0),
            "nbar_first": abs(nv[0] - window.q[window.N]), "nbar_second": abs(nv[1] + cfg.r),
            "t11_large": abs(c[0].t11 - 1.0), "t22_zero": abs(c[1].t22 - 1.0),
            "t11_branch": abs(c[2].t11 - sign), "t22_branch": abs(c[3].t22 - sign),
            "branch_sign": sign}


class TestAsymptotics:
    def test_background_case1(self):
        cfg = spectral.make_case(1, 2.0 / 3.0, 0.0)
        rep = asymptotic_checks(background_field(cfg, 0.0, 25))
        assert rep["branch_sign"] == 1.0
        assert rep["t22_zero"] < 1e-3
        assert rep["t11_large"] < 1e-3
        assert rep["t11_branch"] < 1e-3
        assert rep["t22_branch"] < 1e-3
        assert rep["m_first"] < 1e-3 and rep["m_second"] < 1e-3
        assert rep["nbar_first"] < 1e-3 and rep["nbar_second"] < 1e-3

    def test_background_case2_signs(self):
        cfg = spectral.make_case(2, 0.8, 0.0)
        rep = asymptotic_checks(background_field(cfg, 0.0, 25))
        assert rep["branch_sign"] == -1.0
        assert rep["t22_branch"] < 1e-3  # i.e. t22 -> -1 near zeta = r
        assert rep["t11_branch"] < 1e-3

    def test_soliton_m_leading_term(self, case1_window):
        rep = asymptotic_checks(case1_window)
        assert rep["m_first"] < 1e-3
        assert rep["m_second"] < 1e-3


def test_scattering_report_roundtrip(case1_window, case1_soliton):
    cfg, eigenset, _ = case1_soliton
    zetas = continuum_samples(cfg, 6, seed=2)
    rep = scattering_report(case1_window, zetas, eigenset)
    assert rep.det_residual < 1e-6
    assert max(rep.eigenvalue_residuals) < 1e-5
    assert rep.trace_residual < 1e-4
    assert rep.theta_minus_inf == pytest.approx(
        ist.theta_minus_inf_constraint(eigenset), rel=1e-6)


def test_t11_time_invariance(case1_soliton):
    cfg, eigenset, norming = case1_soliton
    N = 45
    windows = {}
    for t in (0.0, 1.0):
        q = np.array([ist.reconstruct(cfg, eigenset, norming, n, t)
                      for n in range(-N, N + 1)])
        windows[t] = lattice.PotentialWindow(cfg, N, t, q)
    for z in continuum_samples(cfg, 4, seed=8):
        c0 = scattering_coefficients(windows[0.0], z)
        c1 = scattering_coefficients(windows[1.0], z)
        assert abs(c0.t11 - c1.t11) < 1e-5
        assert abs(c0.t22 - c1.t22) < 1e-5


def _mp_coefficients(window, zeta):
    """50-digit Wronskian coefficients at n = 0 and the four columns at every site.

    The step matrices are applied (forward) or inverted (backward) directly,
    with no renormalization, from the window's double-precision inputs.
    """
    cfg = window.cfg
    N = window.N
    with mpmath.workdps(50):
        r = mpmath.mpf(cfg.r)
        z = mpmath.mpc(zeta)

        def step(eq_a, n):
            q = mpmath.mpc(window.q[n + N])
            rn = mpmath.mpc(lattice.partner(window)[n + N])
            if eq_a:
                m = [[1 / z, q * (z * r - 1) / (z * (z - r))], [rn, (z * r - 1) / (z - r)]]
            else:
                m = [[(z - r) / (z * r - 1), q], [z * (z - r) / (z * r - 1) * rn, z]]
            return mpmath.matrix(m) / r

        t = window.t
        starts = {
            ColumnKind.M: [cfg.q_minus(t), z - r],
            ColumnKind.MBAR: [r - 1 / z, -cfg.r_minus(t)],
            ColumnKind.NBAR: [cfg.q_plus(t), z - r],
            ColumnKind.N: [r - 1 / z, -cfg.r_plus(t)],
        }
        cols = {}
        for kind, start in starts.items():
            eq_a = kind in (ColumnKind.M, ColumnKind.NBAR)
            vec = mpmath.matrix([mpmath.mpc(x) for x in start])
            sites = {}
            if kind in (ColumnKind.M, ColumnKind.MBAR):
                sites[-N] = vec
                for n in range(-N, N + 1):
                    vec = step(eq_a, n) * vec
                    sites[n + 1] = vec
            else:
                sites[N + 1] = vec
                for n in range(N, -N - 1, -1):
                    vec = mpmath.inverse(step(eq_a, n)) * vec
                    sites[n] = vec
            cols[kind] = sites
        theta0 = mpmath.mpc(1)
        for n in range(0, N + 1):
            theta0 *= (1 - mpmath.mpc(window.q[n + N])
                       * mpmath.mpc(lattice.partner(window)[n + N])) / r**2
        denom = r * (z + 1 / z - 2 * r)

        def wr(a, b):
            va, vb = cols[a][0], cols[b][0]
            return va[0] * vb[1] - va[1] * vb[0]

        coeffs = (-theta0 * wr(ColumnKind.M, ColumnKind.N) / denom,
                  theta0 * wr(ColumnKind.MBAR, ColumnKind.NBAR) / denom,
                  theta0 * wr(ColumnKind.M, ColumnKind.NBAR) / denom,
                  -theta0 * wr(ColumnKind.MBAR, ColumnKind.N) / denom)
        columns = {kind: {n: (complex(v[0]), complex(v[1])) for n, v in sites.items()}
                   for kind, sites in cols.items()}
        return tuple(complex(c) for c in coeffs), columns


def _windows_n8(cfg):
    return {"background": background_field(cfg, 0.0, 8),
            "perturbed": perturbed_background(cfg, N=8, seed=21)}


# Case II at q0 = 0.9: at q0 = 1 its background has 1 - q_0 r_0 = 0.
MP_CASES = [spectral.make_case(1, 2.0 / 3.0, 0.0), spectral.make_case(2, 0.9, 0.3),
            spectral.make_case(3, 1.0, 0.0), spectral.make_case(4, 2.0 / 3.0, -math.pi)]


@pytest.mark.parametrize("cfg", MP_CASES, ids=lambda c: c.case_id.name)
def test_transfer_recursion_matches_mpmath(cfg):
    for name, w in _windows_n8(cfg).items():
        for z in continuum_samples(cfg, 3, seed=4):
            ref, ref_cols = _mp_coefficients(w, z)
            c = scattering_coefficients(w, z)
            got = (c.t11, c.t22, c.t21_mod, c.t12_mod)
            for g, e in zip(got, ref):
                assert abs(g - e) <= 1e-12 * max(1.0, abs(e)), (name, z, got, ref)
            pt = point_from_zeta(cfg, z)
            for kind, sites in ref_cols.items():
                col = jost(w, pt, kind)
                for n, e in sites.items():
                    assert np.max(np.abs(col.value(n) - e)) <= 1e-12 * max(1.0, abs(e[0]), abs(e[1]))


_samples = st.lists(
    st.tuples(st.floats(0.0, 2.0 * math.pi, allow_nan=False),
              st.sampled_from([1.0 - 1e-6, 1.0 + 1e-6, 0.7, 1.3])),
    min_size=1, max_size=6)


@settings(max_examples=30, deadline=None)
@given(case=st.integers(0, 3), seed=st.integers(0, 50), polar=_samples)
def test_batched_coefficients_equal_each_zeta_alone(case, seed, polar):
    cfg = case_configs()[case]
    w = perturbed_background(cfg, N=12, seed=seed)
    zetas = [radius * cmath.exp(1j * angle) for angle, radius in polar]
    poles = [0.0, cfg.r, 1.0 / cfg.r, *cfg.branch_points]
    assume(all(min(abs(z - p) for p in poles) > 1e-3 for z in zetas))
    assume(all(abs(zeta_bar(cfg, z) - p) > 1e-3 for z in zetas for p in poles))
    rep = scattering_report(w, zetas)
    for i, z in enumerate(zetas):
        alone = scattering_coefficients(w, z)
        for batched, single in ((rep.t11[i], alone.t11), (rep.t22[i], alone.t22),
                                (rep.t21_mod[i], alone.t21_mod),
                                (rep.t12_mod[i], alone.t12_mod)):
            assert abs(batched - single) <= 1e-14 * max(1.0, abs(single))


def test_report_builds_theta_once_and_propagates_once(case1_window, case1_soliton,
                                                      monkeypatch):
    from dnls_ist import scattering
    cfg, eigenset, _ = case1_soliton
    counts = {"theta_products": 0, "_propagate": 0}

    def counting(name):
        original = getattr(scattering, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(scattering, name, counting(name))
    monkeypatch.setattr(scattering, "jost", None)
    monkeypatch.setattr(scattering, "scattering_coefficients", None)
    rep = scattering_report(case1_window, continuum_samples(cfg, 20, seed=3), eigenset)
    assert counts == {"theta_products": 1, "_propagate": 1}
    assert rep.det_residual < 1e-6 and max(rep.eigenvalue_residuals) < 1e-5


def _report_points(window, eigenset, count, monkeypatch, seed=0):
    """The zetas scattering_report hands to its one sweep: samples, partners, eigenvalues."""
    seen = []
    sweep = scattering._propagate

    def recording(w, zetas, *args, **kwargs):
        seen.append(list(zetas))
        return sweep(w, zetas, *args, **kwargs)

    monkeypatch.setattr(scattering, "_propagate", recording)
    scattering_report(window, continuum_samples(window.cfg, count, seed=seed), eigenset)
    monkeypatch.undo()
    return seen[0]


@pytest.fixture(scope="module")
def bench_c4_window(case4_soliton):
    cfg, eigenset, norming = case4_soliton
    q = ist.make_evaluator(cfg, eigenset, norming)(np.arange(-400, 401), 0.0)
    return lattice.PotentialWindow(cfg, 400, 0.0, q)


@pytest.mark.parametrize("check_block", [None, 40])
@pytest.mark.parametrize("window_name, soliton_name, count, points", [
    ("case1_window", "case1_soliton", 20, 62),
    ("bench_c4_window", "case4_soliton", 4, 13),
])
def test_site_sweep_is_bit_identical_to_the_full_sweep(request, monkeypatch, window_name,
                                                       soliton_name, count, points,
                                                       check_block):
    # A site sweep stops at its last recorded step (N + 1 of 2N + 1 at n = 0);
    # what it records must be the full sweep's bits, renormalization included.
    window = request.getfixturevalue(window_name)
    _, eigenset, _ = request.getfixturevalue(soliton_name)
    zetas = _report_points(window, eigenset, count, monkeypatch)
    assert len(zetas) == points
    if check_block is not None:  # check blocks that end before and after the last step
        monkeypatch.setattr(scattering, "_CHECK_BLOCK", check_block)
    full = scattering._propagate(window, zetas)
    N = window.N
    for n in (-N, -1, 0, 1, N, N + 1):
        sweep = scattering._propagate(window, zetas, site=n)
        for kind in ColumnKind:
            (values, logs), (full_values, full_logs) = sweep.at(kind, n), full.at(kind, n)
            assert values.tobytes() == full_values.tobytes(), (n, kind)
            assert logs.tobytes() == full_logs.tobytes(), (n, kind)
        # the log path is exercised: every sweep of this window starts at step
        # 374 (its far field is the exact background), and the one to N + 1
        # takes 427 steps where the one to n = 0 takes 27
        if window_name == "bench_c4_window" and n == N + 1:
            assert np.count_nonzero(sweep.logs) > 0


# (record site, columns, site of the non-finite q, n in the message).  The
# partner r_n = sigma conj(q_{-n}) is non-finite at -n too.  With one column
# the sweep stops at step N - 3 (M at -3) or N - 2 (N at 3), before the first
# bad step; with all four at n = 0 the bad site 5 lies beyond the recorded one.
@pytest.mark.parametrize("site, kinds, bad, n", [
    (0, tuple(ColumnKind), 5, -5),
    (0, tuple(ColumnKind), 12, -12),
    (-3, (ColumnKind.M,), 2, -2),
    (3, (ColumnKind.N,), -1, 1),
    (None, tuple(ColumnKind), 5, -5),
])
@pytest.mark.parametrize("value", [math.inf, math.nan, complex(0.0, math.inf)])
@pytest.mark.parametrize("check_block", [None, 8])
def test_non_finite_entries_beyond_the_sweep_still_raise(monkeypatch, site, kinds, bad, n,
                                                         value, check_block):
    if check_block is not None:
        monkeypatch.setattr(scattering, "_CHECK_BLOCK", check_block)
    cfg = spectral.make_case(4, 2.0 / 3.0, -math.pi)
    w = perturbed_background(cfg, N=12, seed=3)
    q = np.array(w.q)
    q[bad + 12] = value
    with np.errstate(invalid="ignore"):
        w = lattice.PotentialWindow(cfg, 12, 0.0, q)
        zetas = [1.000001 * cmath.exp(0.5j), 0.999999 * cmath.exp(2.0j)]
        message = f"non-finite transfer entry at n={n}, zeta={complex(zetas[0])}"
        with pytest.raises(SingularTransfer) as err:
            scattering._propagate(w, zetas, kinds, site=site)
    assert str(err.value) == message


def _report_zetas(window, eigenset, count, seed=0):
    """The zetas that scattering_report over `count` samples hands to its sweep."""
    with pytest.MonkeyPatch.context() as mp:
        return _report_points(window, eigenset, count, mp, seed)


@pytest.fixture(scope="module")
def sweep_windows(case1_window, case1_soliton, bench_c4_window, case4_soliton):
    """(window, zetas) by name: the benchmark's and verify's sweeps, a case-3 q0 = 1
    background (|q_n r_n| = 1 at every site) and a case-4 soliton whose columns
    all renormalize at zeta = 0.5 and 2."""
    cfg4, eig4, norm4 = case4_soliton
    evaluate = ist.make_evaluator(cfg4, eig4, norm4)
    verify_c4 = lattice.PotentialWindow(cfg4, 40, 0.0, evaluate(np.arange(-40, 41), 0.0))
    c3 = background_field(spectral.make_case(3, 1.0, 0.0), 0.0, 60)
    renormalizing = lattice.PotentialWindow(cfg4, 100, 0.0, evaluate(np.arange(-100, 101), 0.0))
    return {
        "c1": (case1_window, _report_zetas(case1_window, case1_soliton[1], 20)),
        "bench-c4": (bench_c4_window, _report_zetas(bench_c4_window, eig4, 4)),
        "verify-c4": (verify_c4, _report_zetas(verify_c4, eig4, 8, seed=1)),
        "c3-q0-1-background": (c3, _report_zetas(c3, None, 20)),
        "renormalizing": (renormalizing, [0.5, 2.0]),
    }


def _certified(monkeypatch):
    """Record whether each _propagate call's window was certified by its bounds."""
    seen = []
    bounds = scattering._step_bounds

    def recording(*args):
        result = bounds(*args)
        seen.append(result is not None)
        return result

    monkeypatch.setattr(scattering, "_step_bounds", recording)
    return seen


@pytest.mark.parametrize("check_block", [None, 8])
@pytest.mark.parametrize("kinds", [tuple(ColumnKind), (ColumnKind.M,), (ColumnKind.NBAR,)])
@pytest.mark.parametrize("site", [None, 0])
@pytest.mark.parametrize("name", ["c1", "bench-c4", "verify-c4", "c3-q0-1-background",
                                  "renormalizing"])
def test_sweep_is_byte_identical_to_the_reference(sweep_windows, monkeypatch, name, site,
                                                  kinds, check_block):
    window, zetas = sweep_windows[name]
    if check_block is not None:
        monkeypatch.setattr(scattering, "_CHECK_BLOCK", check_block)
    certified = _certified(monkeypatch)
    sweep = scattering._propagate(window, zetas, kinds, site=site)
    reference = propagate_reference(window, zetas, kinds, site=site)
    # every one is certified, the case-3 q0 = 1 background (|q_n r_n| = 1) included
    assert certified == [True]
    assert sweep.slots == reference.slots
    assert sweep.values.tobytes() == reference.values.tobytes()
    assert sweep.logs.tobytes() == reference.logs.tobytes()
    if name == "renormalizing" and site is None:
        assert (np.count_nonzero(sweep.logs, axis=(0, 2)) > 0).all()


def test_the_certificate_accepts_the_benchmark_windows(sweep_windows, monkeypatch):
    # so scatter on c1 and bench c4 builds no step factor ahead of its sweep
    certified = _certified(monkeypatch)
    for name in ("c1", "bench-c4"):
        window, zetas = sweep_windows[name]
        scattering._propagate(window, zetas, site=0)
    assert certified == [True, True]
    # |q_n r_n| = 1 at every site, and |q_0|**2 = 1 - 1.5e-12 (a relative 1e-12 clear of 1)
    c3, c3_zetas = sweep_windows["c3-q0-1-background"]
    cfg = spectral.make_case(1, 2.0 / 3.0, 0.0)
    q = np.array(background_field(cfg, 0.0, 12).q)
    q[12] = math.sqrt(1.0 - 1.5e-12)
    near = lattice.PotentialWindow(cfg, 12, 0.0, q)
    for window, zetas in ((c3, c3_zetas), (near, continuum_samples(cfg, 20))):
        scattering._propagate(window, zetas, site=0)
    assert certified == [True] * 4


def _declined_window(case, q0, theta, values):
    """A perturbed 25-site background with q_n set to each of values {n: q_n}."""
    cfg = spectral.make_case(case, q0, theta)
    q = np.array(perturbed_background(cfg, N=12, seed=4).q)
    for n, value in values.items():
        q[n + 12] = value
    return lattice.PotentialWindow(cfg, 12, 0.0, q)


@pytest.mark.parametrize("window, zetas, message", [
    # finite q_5 = 1e200: x01 q_5 overflows at zeta = 1e-110
    (_declined_window(4, 2.0 / 3.0, -math.pi, {5: 1e200}), [1.000001 * cmath.exp(0.5j), 1e-110],
     "non-finite transfer entry at n=5, zeta=(1e-110+0j)"),
    # q_0 r_0 = |q_0|**2 = 1 exactly in case 1, where det0 = det1 at zeta = 0.45 + 0.893j
    (_declined_window(1, 2.0 / 3.0, 0.0, {0: 1.0}), [0.999999 * cmath.exp(2.0j), 0.45 + 0.893j],
     "transfer matrix not invertible"),
])
@pytest.mark.parametrize("check_block", [None, 8])
def test_declined_windows_raise_the_reference_error(monkeypatch, window, zetas, message,
                                                    check_block):
    if check_block is not None:
        monkeypatch.setattr(scattering, "_CHECK_BLOCK", check_block)
    certified = _certified(monkeypatch)
    with pytest.raises(SingularTransfer) as reference:
        propagate_reference(window, zetas, site=0)
    with pytest.raises(SingularTransfer) as err:
        scattering._propagate(window, zetas, site=0)
    assert str(err.value) == str(reference.value) == message
    assert certified == [False]


# (window, zetas, message): the first failure in (zeta, column, step) order.
# At zeta = 1e-110, x01 q_n overflows only where |q_n| = 1e200 (n = 5); at
# 1e-160 also where it is 1e150 (n = -5), ten steps earlier in column M.  At
# 0.45 + 0.893j, q_0 r_0 = 1 makes the backward columns' det_0 vanish, five
# steps later than column M's overflow at n = -5 and 1e-110.
_ORDER_C4 = _declined_window(4, 2.0 / 3.0, -math.pi, {-5: 1e150, 5: 1e200})
_ORDER_C1 = _declined_window(1, 2.0 / 3.0, 0.0, {0: 1.0, -5: 1e200})


@pytest.mark.parametrize("window, zetas, message", [
    (_ORDER_C4, [1e-110, 1e-160], "non-finite transfer entry at n=5, zeta=(1e-110+0j)"),
    (_ORDER_C4, [1e-160, 1e-110], "non-finite transfer entry at n=-5, zeta=(1e-160+0j)"),
    (_ORDER_C1, [0.45 + 0.893j, 1e-110], "transfer matrix not invertible"),
    (_ORDER_C1, [1e-110, 0.45 + 0.893j], "non-finite transfer entry at n=-5, zeta=(1e-110+0j)"),
])
@pytest.mark.parametrize("check_block", [None, 8])
def test_the_first_failure_is_taken_in_zeta_column_step_order(monkeypatch, window, zetas,
                                                              message, check_block):
    if check_block is not None:  # one step a block, so the failures lie in different blocks
        monkeypatch.setattr(scattering, "_CHECK_BLOCK", check_block)
    with np.errstate(over="ignore"):  # q_5 r_5 = 1e350 in _ORDER_C4
        with pytest.raises(SingularTransfer) as reference:
            propagate_reference(window, zetas, site=0)
        with pytest.raises(SingularTransfer) as err:
            scattering._propagate(window, zetas, site=0)
    assert str(err.value) == str(reference.value) == message


def test_an_overflowing_q_r_product_raises_without_a_warning():
    # q_-5 = 1e150 and q_5 = 1e200 make q_n r_n overflow at n = +-5; the
    # suite turns any RuntimeWarning into an error, so none may come first
    with pytest.raises(SingularTransfer, match="non-finite transfer entry at n=5"):
        scattering._propagate(_ORDER_C4, [1e-110, 1e-160], site=0)
    with pytest.raises(SingularTransfer, match="non-finite transfer entry at n=5"):
        propagate_reference(_ORDER_C4, [1e-110, 1e-160], site=0)


def test_the_bench_c4_sweep_starts_where_its_window_leaves_the_background(sweep_windows,
                                                                         monkeypatch):
    # bench c4's window is the exact background q_minus on n <= -24 and q_plus
    # on n >= 24, so every column is stationary for its first 377 steps: the
    # site-0 sweep takes 24 of its 401 steps, and the skipped slots hold the
    # boundary vectors with log 0
    window, zetas = sweep_windows["bench-c4"]
    starts = []
    stationary = scattering._stationary_steps
    monkeypatch.setattr(scattering, "_stationary_steps",
                        lambda *args: starts.append(stationary(*args)) or starts[-1])
    sweep = scattering._propagate(window, zetas, site=0)
    full = scattering._propagate(window, zetas)
    assert starts == [377, 377] and max(sweep.slots) - starts[0] == 24
    zeta = np.asarray(zetas, dtype=complex)
    for c, kind in enumerate(full.kinds):
        boundary = np.stack(scattering._boundary_vector(window.cfg, 0.0, zeta, kind))
        assert (full.values[:378, :, c] == boundary).all() and not full.logs[:378].any()
    for kind in ColumnKind:
        assert sweep.at(kind, 0)[0].tobytes() == full.at(kind, 0)[0].tobytes()


def test_a_declined_sweep_holds_nothing_per_site_and_sample(monkeypatch):
    # A declined window checks every step factor, in blocks of _CHECK_BLOCK
    # entries: what it keeps grows with the points, not with sites x points.
    monkeypatch.setattr(scattering, "_step_bounds", lambda *args: None)
    window = background_field(spectral.make_case(3, 1.0, 0.0), 0.0, 1000)

    def peak(count):
        zetas = continuum_samples(window.cfg, count)
        tracemalloc.start()
        try:
            scattering._propagate(window, zetas, site=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # less than 1 B per site and point added
    assert peak(100) - peak(10) < (2 * window.N + 1) * 90


def test_a_certified_sweep_holds_no_more_than_a_declined_one(monkeypatch):
    # The case-3 q0 = 1 background at N = 10,000: _step_bounds reads the steps
    # in blocks and keeps the schedule only from the sweep's start (here its
    # end); it held 12.0 MB against the declined window's 4.6 MB when it built
    # whole (2, steps, C) arrays and returned a list.
    window = background_field(spectral.make_case(3, 1.0, 0.0), 0.0, 10_000)
    zetas = continuum_samples(window.cfg, 20)

    def peak():
        tracemalloc.start()
        try:
            scattering_report(window, zetas)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    scattering_report(window, zetas)
    certified = _certified(monkeypatch)
    held = peak()
    assert certified == [True]
    monkeypatch.setattr(scattering, "_step_bounds", lambda *args: None)
    assert held <= peak()


def _step_norms(window, zetas):
    """log of the largest ||T_n||inf and ||T_n^-1||inf over columns and points, per step."""
    zeta = np.asarray(zetas, dtype=complex)
    q, r = window.q, lattice.partner(window)
    norms = []
    for kind in ColumnKind:
        x00, x01, x10, x11 = scattering._step_constants(window.cfg, zeta, kind)
        order = slice(None) if scattering._FORWARD[kind] else slice(None, None, -1)
        qs, rs = q[order, None], r[order, None]
        det = 1.0 if scattering._FORWARD[kind] else x00 * x11 - x01 * x10 * qs * rs
        t00, t01, t10, t11 = np.broadcast_arrays(x00 / det, x01 * qs / det, x10 * rs / det,
                                                 x11 / det)
        det_t = np.abs(t00 * t11 - t01 * t10)
        norms.append([np.maximum(abs(t00) + abs(t01), abs(t10) + abs(t11)).max(axis=1),
                      (np.maximum(abs(t11) + abs(t01), abs(t10) + abs(t00)) / det_t).max(axis=1)])
    return np.log(np.max(norms, axis=0))


@pytest.mark.parametrize("name", ["c1", "zero field"])
def test_step_bounds_exceed_each_step_norm_by_the_slack(sweep_windows, monkeypatch, name):
    # In a zero field every step is diagonal and the bounds are attained, so a
    # smaller growth bound or no per-step slack shows here.
    window, zetas = sweep_windows["c1"]
    if name == "zero field":
        window = lattice.PotentialWindow(window.cfg, 30, 0.0, np.zeros(61, dtype=complex))
        zetas = zetas + [0.5, 2.0, 0.3j]
    bounds = []
    step_bounds = scattering._step_bounds
    monkeypatch.setattr(scattering, "_step_bounds",
                        lambda *args: bounds.append(step_bounds(*args)) or bounds[-1])
    scattering._propagate(window, zetas)
    growth, shrink = np.diff(bounds[0])  # from the step the sweep starts at
    exact = _step_norms(window, zetas)[:, len(window.q) - growth.size:]
    assert (growth >= np.minimum(exact[0] + 1e-10 - 1e-13, 1e3)).all()
    assert (shrink >= np.minimum(exact[1] + 1e-10 - 1e-13, 1e3)).all()
    if name == "zero field":
        assert np.abs(growth - exact[0] - 1e-10).max() < 1e-12


def test_continuum_samples_clear_every_branch_point():
    # At q0 = 0.04 the case-4 branch points are 0.08 rad apart, so one move
    # of +0.1 rad off one can land next to the other (seed 60 did, 2.5e-4
    # away, and det_vs_theta rose from 1e-14 to 3e-11).
    cfg = spectral.make_case(4, 0.04, -math.pi)
    for seed in range(3000):
        for z in continuum_samples(cfg, 4, seed=seed):
            assert min(abs(z - bp) for bp in cfg.branch_points) >= 0.05, seed
    eigenset = ist.eigenvalues_case4(cfg)
    norming = ist.norming_case4(cfg, eigenset, math.pi / 3.0)
    q = ist.make_evaluator(cfg, eigenset, norming)(np.arange(-40, 41), 0.0)
    rep = scattering_report(lattice.PotentialWindow(cfg, 40, 0.0, q),
                            continuum_samples(cfg, 4, seed=60), eigenset)
    assert rep.det_residual < 1e-13
