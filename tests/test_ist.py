import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnls_ist import cli, ist, lattice, spectral
from dnls_ist.errors import (DegenerateEigenvalues, DomainError, Inadmissible,
                             SingularSolution)
from dnls_ist.ist import (build_system, case2_feasibility_scan,
                          eigenvalues_case1, eigenvalues_case2,
                          eigenvalues_case3, eigenvalues_case4,
                          norming_case1, norming_case4, reconstruct,
                          singularity_scan,
                          soliton_closed_form_case4,
                          theta_minus_inf_constraint,
                          theta_minus_inf_from_system, unit_norming)
from dnls_ist.spectral import (Region, classify, gamma, lam_squared,
                               point_from_zeta, zeta_bar)

from conftest import (CASE1_ETA1, dense_reconstruct, mp_reconstruct,
                      reconstruct_grid_sizes)


def cramer_solve(B, Y):
    """Cramer's rule; oracle for the small reflectionless systems."""
    det = np.linalg.det(B)
    X = np.empty(len(Y), dtype=complex)
    for j in range(len(Y)):
        Bj = B.copy()
        Bj[:, j] = Y
        X[j] = np.linalg.det(Bj) / det
    return X


class TestEigenvaluesCase1:
    def test_case1_quartet(self, case1_soliton):
        cfg, eigenset, _ = case1_soliton
        q = eigenset.quartets[0]
        zb_direct = (1.0 - (2.0 / 3.0) * cmath.exp(1j * math.pi / 7)) / cfg.r
        assert q.zbar == pytest.approx(zb_direct, rel=1e-14)
        assert q.zeta == pytest.approx(cfg.r / (1.0 + (2.0 / 3.0) * cmath.exp(-1j * CASE1_ETA1)),
                                       rel=1e-14)
        assert zeta_bar(cfg, q.zeta) == pytest.approx(q.zbar, rel=1e-12)
        assert classify(cfg, q.zbar) is Region.DPlus
        assert classify(cfg, q.zeta) is Region.DMinus

    def test_quartet_on_circle(self, case1_soliton):
        # |zbar - 1/r| = q0/r exactly, hence the modulus constraint at 1/r
        cfg, eigenset, _ = case1_soliton
        q = eigenset.quartets[0]
        assert abs(q.zbar - 1.0 / cfg.r) == pytest.approx(cfg.q0 / cfg.r, abs=1e-12)
        prod = (abs(1.0 / cfg.r - q.zeta) ** 2 / abs(1.0 / cfg.r - q.zbar) ** 2)
        assert prod == pytest.approx(1.0, abs=1e-12)

    def test_eta1_at_pi(self):
        cfg = spectral.make_case(1, 2.0 / 3.0)
        eigenset = eigenvalues_case1(cfg, math.pi)
        assert eigenset.quartets[0].zbar == pytest.approx((1.0 - 2.0 / 3.0) / cfg.r)
        assert abs(eigenset.quartets[0].zbar) == pytest.approx(1.0 / math.sqrt(5.0))

    def test_eta1_bound(self):
        cfg = spectral.make_case(1, 2.0 / 3.0)
        # |pi - eta1| = pi/2 exceeds arctan(r/q0) ~ 0.841
        with pytest.raises(Inadmissible):
            eigenvalues_case1(cfg, math.pi / 2)

    def test_single_eigenvalue_rejected(self):
        cfg = spectral.make_case(1, 2.0 / 3.0)
        with pytest.raises(Inadmissible):
            eigenvalues_case1(cfg, CASE1_ETA1, J=1)


class TestEigenvaluesCase2:
    def test_empty_for_all_j(self):
        cfg = spectral.make_case(2, 1.0)
        for J in (0, 1, 2):
            eigenset = eigenvalues_case2(cfg, J=J, scan_samples=500)
            assert eigenset.is_empty()

    def test_scan_strictly_positive(self):
        cfg = spectral.make_case(2, 1.0)
        scan = case2_feasibility_scan(cfg, samples=2000, seed=0)
        assert scan.min_violation > 0.5
        assert scan.candidates > 500

    @pytest.mark.parametrize("q0", [0.01, 5.0])
    def test_empty_real_range_draws_nothing(self, q0):
        # (1/r, 0.999) is empty below q0 = 0.0448 and (r + q0, 8) above 3.937
        scan = case2_feasibility_scan(spectral.make_case(2, q0), samples=300, seed=0)
        assert scan.min_violation > 0.0 and scan.candidates > 0


def _scalar_feasibility_scan(cfg, samples, seed):
    """The case-II scan scored one candidate at a time: the reference for the batched scan."""
    rng = np.random.default_rng(seed)
    r, q0 = cfg.r, cfg.q0
    rinv = 1.0 / r

    def ratio_at(point, z, zb):
        return (point - z) / (point - zb)

    best = (math.inf, 0.0 + 0.0j, "")
    n_each = max(1, samples // 3)
    total = 0

    reals = np.concatenate([
        rng.uniform(-6.0, -1.0 - 1e-3, n_each // 3),
        rng.uniform(rinv * (1 + 1e-6), 0.999, n_each // 3),
        rng.uniform(r + q0 + 1e-3, 8.0, n_each - 2 * (n_each // 3)),
    ])
    for zh in reals:
        if classify(cfg, zh) is not Region.DMinus:
            continue
        total += 1
        zbh = zeta_bar(cfg, zh)
        v1 = abs(ratio_at(rinv, zh, zbh) + 1.0)
        theta = zh / zbh
        v2 = abs(theta * ratio_at(r, zbh, zh) + 1.0)
        v = max(v1, v2)
        if v < best[0]:
            best = (v, complex(zh), "J2=1 real pair")

    for _ in range(n_each):
        zeta = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if classify(cfg, zeta) is not Region.DMinus or abs(zeta.imag) < 1e-3:
            continue
        total += 1
        zb = zeta_bar(cfg, zeta)
        lhs = abs(rinv - zeta) ** 2 / abs(rinv - zb) ** 2
        v = abs(lhs + 1.0)
        if v < best[0]:
            best = (v, zeta, "J1=1 quartet")

    for zh1 in reals[: n_each]:
        if classify(cfg, zh1) is not Region.DMinus:
            continue
        zbh1 = zeta_bar(cfg, zh1)
        if abs(zbh1) < 1e-12:
            continue
        zh2 = 1.0 / zbh1
        if classify(cfg, zh2) is not Region.DMinus:
            continue
        total += 1
        zbh2 = zeta_bar(cfg, zh2)
        prod = ratio_at(rinv, zh1, zbh1) * ratio_at(rinv, zh2, zbh2)
        theta = (zh1 / zbh1) * (zh2 / zbh2)
        v = max(abs(prod + 1.0),
                abs(theta * ratio_at(r, zbh1, zh1) * ratio_at(r, zbh2, zh2) + 1.0))
        if v < best[0]:
            best = (v, complex(zh1), "J2=2 real pairs")

    return ist.FeasibilityScan(best[0], best[1], best[2], total)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("samples", [1, 3, 300, 3000])
@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("q0", [0.1, 0.5, 1.0, 2.0])
def test_batched_scan_matches_the_scalar_scan(q0, theta, samples, seed):
    cfg = spectral.make_case(2, q0, theta)
    scan = case2_feasibility_scan(cfg, samples=samples, seed=seed)
    ref = _scalar_feasibility_scan(cfg, samples, seed)
    assert scan.candidates == ref.candidates
    assert scan.family == ref.family
    if math.isinf(ref.min_violation):
        assert scan.min_violation == ref.min_violation
    else:
        assert abs(scan.min_violation - ref.min_violation) <= 1e-12


_zeros = st.complex_numbers(max_magnitude=8.0, allow_nan=False, allow_infinity=False)
_spectra = st.integers(0, 4).flatmap(lambda J: st.lists(
    st.lists(_zeros, min_size=2 * J, max_size=2 * J), min_size=1, max_size=9))


class TestTraceProduct:
    @settings(max_examples=40, deadline=None)
    @given(spectra=_spectra, at=_zeros)
    def test_batch_equals_one_spectrum_calls(self, spectra, at):
        batch = np.array(spectra, dtype=complex)
        J = batch.shape[1] // 2
        zeros, partners = batch[:, :J], batch[:, J:]
        points = at + np.arange(len(spectra))  # one point per spectrum, then one shared
        for zeta, per_spectrum in ((points, points), (at, [at] * len(spectra))):
            together = ist.trace_product(zeros, partners, zeta)
            alone = [ist.trace_product(z, zb, p) for z, zb, p in
                     zip(zeros, partners, per_spectrum)]
            assert together.shape == (len(spectra),)
            assert np.array_equal(_bits(together), _bits(np.array(alone, dtype=complex)))

    def test_empty_spectrum_is_one(self):
        assert ist.trace_product((), (), np.array([0.0, 2.0, 1j])).tolist() == [1, 1, 1]


class TestEigenvaluesCase3:
    def test_pair_structure(self):
        cfg = spectral.make_case(3, 1.0)
        eigenset = eigenvalues_case3(cfg, 3.0)
        r = cfg.r
        zbh1 = (3.0 * r - 1.0) / (3.0 - r)
        assert eigenset.pairs[0].zbar == pytest.approx(zbh1, rel=1e-14)
        assert eigenset.pairs[1].zeta == pytest.approx(1.0 / zbh1, rel=1e-14)
        assert eigenset.pairs[1].zbar == pytest.approx(1.0 / 3.0, rel=1e-12)
        for p in eigenset.pairs:
            assert classify(cfg, p.zeta) is Region.DMinus
            assert classify(cfg, p.zbar) is Region.DPlus

    def test_branch_point_rejected(self):
        cfg = spectral.make_case(3, 1.0)
        with pytest.raises(Inadmissible):
            eigenvalues_case3(cfg, cfg.r + cfg.q0)

    def test_pole_rejected(self):
        # 1/r lies in D- but is a pole of lam, and zeta_bar(1/r) = 0
        cfg = spectral.make_case(3, 1.0)
        with pytest.raises(Inadmissible, match="pole 1/r"):
            eigenvalues_case3(cfg, 1.0 / cfg.r)

    def test_continuum_rejected(self):
        cfg = spectral.make_case(3, 1.0)
        # |zeta - r| = q0 is part of the continuum
        with pytest.raises(Inadmissible):
            eigenvalues_case3(cfg, cfg.r + cfg.q0 * 0.9999999999)

    def test_constraints_satisfied(self):
        cfg = spectral.make_case(3, 1.0)
        eigenset = eigenvalues_case3(cfg, 3.0)
        theta_inf = theta_minus_inf_from_system(cfg, eigenset, unit_norming(cfg, eigenset))
        res = ist.admissibility_residuals(cfg, eigenset, theta_inf)
        assert max(res.values()) < 1e-8


class TestEigenvaluesCase4:
    def test_case4_pair(self, case4_soliton):
        cfg, eigenset, _ = case4_soliton
        p = eigenset.pairs[0]
        assert p.zbar == pytest.approx(1.0 / math.sqrt(5.0), rel=1e-14)
        assert zeta_bar(cfg, p.zeta) == pytest.approx(p.zbar, rel=1e-12)
        assert classify(cfg, p.zbar) is Region.DPlus
        assert classify(cfg, p.zeta) is Region.DMinus

    def test_two_eigenvalues_rejected(self):
        cfg = spectral.make_case(4, 2.0 / 3.0)
        with pytest.raises(Inadmissible):
            eigenvalues_case4(cfg, J=2)


class TestNorming:
    def test_symmetry_invariant(self, case1_soliton):
        cfg, eigenset, norming = case1_soliton
        for t in (0.0, 0.4, 1.7):
            for j in range(2):
                zb = eigenset.zeros_t22[j]
                lhs = norming.c(j, t)
                rhs = -cfg.q_plus(t) ** 2 / (zb - cfg.r) ** 2 * norming.cbar(j, t)
                assert abs(lhs - rhs) < 1e-14 * max(1.0, abs(lhs))

    def test_time_factor_consistency(self, case1_soliton):
        # C_j(t) = C_j(0) exp(i (rotation + gamma(zeta_j)) t) requires
        # gamma(zbar_j) = -gamma(zeta_j)
        cfg, eigenset, norming = case1_soliton
        t = 1.3
        for j in range(2):
            zj = eigenset.zeros_t11[j]
            c_factor = cmath.exp(1j * (cfg.rotation + gamma(cfg, zj)) * t)
            assert norming.c(j, t) == pytest.approx(norming.c(j, 0.0) * c_factor,
                                                    rel=1e-12)
            assert norming.c_rate[j] == pytest.approx(1j * (cfg.rotation + gamma(cfg, zj)),
                                                      rel=1e-12)

    def test_time_factors_basics(self, case1_soliton):
        cfg, eigenset, norming = case1_soliton
        for j, zb in enumerate(eigenset.zeros_t22):
            assert norming.cbar_rate[j] == -1j * (cfg.rotation + gamma(cfg, zb))
            assert norming.cbar(j, 0.0) == norming.cbar0[j]
            t = 0.9
            g = gamma(cfg, zb)
            assert abs(norming.cbar(j, t)) == pytest.approx(
                abs(norming.cbar0[j]) * math.exp(g.imag * t), rel=1e-12)
            # C_j Cbar_j evolves by exp(-2 i gamma(zbar_j) t)
            assert norming.c(j, t) * norming.cbar(j, t) == pytest.approx(
                norming.c(j, 0.0) * norming.cbar(j, 0.0) * cmath.exp(-2j * g * t), rel=1e-12)

    def test_cbar_product_modulus_time_invariant(self, case1_soliton):
        # |Cbar_1 Cbar_2| is conserved because gamma at conjugate points
        # has opposite imaginary parts
        cfg, eigenset, norming = case1_soliton
        zb = eigenset.zeros_t22
        assert gamma(cfg, zb[1]).imag == pytest.approx(-gamma(cfg, zb[0]).imag, abs=1e-13)
        p0 = abs(norming.cbar(0, 0.0) * norming.cbar(1, 0.0))
        p1 = abs(norming.cbar(0, 2.3) * norming.cbar(1, 2.3))
        assert p0 == pytest.approx(p1, rel=1e-12)

    def test_degenerate_quartet_rejected(self):
        cfg = spectral.make_case(1, 2.0 / 3.0)
        eigenset = eigenvalues_case1(cfg, math.pi)  # zbar_1 real
        with pytest.raises(DegenerateEigenvalues):
            norming_case1(cfg, eigenset, 1.0, 0.0, 0.0)

    def test_zero_kappa_rejected(self, case1_soliton):
        cfg, eigenset, _ = case1_soliton
        with pytest.raises(DomainError):
            norming_case1(cfg, eigenset, 0.0, 0.0, 0.0)

    def test_case4_phase(self, case4_soliton):
        # real pair, lam real positive: arg Cbar_1(0) = thbar1 + arg(zbar - zeta)
        cfg, eigenset, norming = case4_soliton
        p = eigenset.pairs[0]
        lam = point_from_zeta(cfg, p.zbar).lam
        assert abs(lam.imag) < 1e-14 and lam.real > 0
        expected = math.pi / 3.0 + cmath.phase(p.zbar - p.zeta)
        diff = (cmath.phase(norming.cbar(0, 0.0)) - expected) % (2.0 * math.pi)
        assert min(diff, 2.0 * math.pi - diff) < 1e-12

    @pytest.mark.parametrize("fixture", ["case1_soliton", "case4_soliton"])
    def test_arrays_equal_scalars_bit_for_bit(self, fixture, request):
        _, eigenset, norming = request.getfixturevalue(fixture)
        ts = np.array([-4.2, 0.0, 0.4, 1.7, 9.5])
        js = np.arange(eigenset.J)
        for f in (norming.cbar, norming.c):
            scalars = np.array([[f(j, t) for j in js.tolist()] for t in ts.tolist()])
            for j in js.tolist():
                assert np.array_equal(_bits(f(j, ts)), _bits(scalars[:, j]))
            assert np.array_equal(_bits(f(js, ts[:, None])), _bits(scalars))

    def test_case4_time_phase_velocity(self, case4_soliton):
        cfg, eigenset, norming = case4_soliton
        zb = eigenset.pairs[0].zbar
        ratio = norming.cbar(0, 1.0) / norming.cbar(0, 0.0)
        expected = cmath.exp(-1j * (cfg.rotation + gamma(cfg, zb)) * 1.0)
        assert ratio == pytest.approx(expected, rel=1e-12)


class TestBuildSystem:
    def test_matches_literal_nine_by_nine(self, case1_soliton):
        # independent transcription of the explicit J = 2 block matrix
        cfg, eigenset, norming = case1_soliton
        n, t = 3, 0.7
        sys_B, sys_Y = build_system(cfg, eigenset, norming, n, t)
        q = eigenset.quartets[0]
        z1, z2, zb1, zb2 = q.zeta, q.zeta_conj, q.zbar, q.zbar_conj
        r = cfg.r
        c1, c2 = norming.c(0, t), norming.c(1, t)
        cb1, cb2 = norming.cbar(0, t), norming.cbar(1, t)
        l2z1, l2z2 = lam_squared(cfg, z1), lam_squared(cfg, z2)
        l2b1, l2b2 = lam_squared(cfg, zb1), lam_squared(cfg, zb2)
        R1 = -(z1 - 1 / r) * cb1 * l2b1 ** n / ((zb1 - 1 / r) * (z1 - zb1))
        R2 = -(z1 - 1 / r) * cb2 * l2b2 ** n / ((zb2 - 1 / r) * (z1 - zb2))
        R3 = -(z2 - 1 / r) * cb1 * l2b1 ** n / ((zb1 - 1 / r) * (z2 - zb1))
        R4 = -(z2 - 1 / r) * cb2 * l2b2 ** n / ((zb2 - 1 / r) * (z2 - zb2))
        R5 = -(zb1 - r) * c1 * l2z1 ** (-n) / ((z1 - r) * (zb1 - z1))
        R6 = -(zb1 - r) * c2 * l2z2 ** (-n) / ((z2 - r) * (zb1 - z2))
        R7 = -(zb2 - r) * c1 * l2z1 ** (-n) / ((z1 - r) * (zb2 - z1))
        R8 = -(zb2 - r) * c2 * l2z2 ** (-n) / ((z2 - r) * (zb2 - z2))
        R9 = c1 * l2z1 ** (-n) / (z1 * (z1 - r))
        R10 = c2 * l2z2 ** (-n) / (z2 * (z2 - r))
        qp, rp = cfg.q_plus(t), cfg.r_plus(t)
        B = np.array([
            [1, 0, 0, 0, R1, R2, 0, 0, 0],
            [0, 1, 0, 0, R3, R4, 0, 0, 0],
            [0, 0, 1, 0, 0, 0, R1, R2, rp],
            [0, 0, 0, 1, 0, 0, R3, R4, rp],
            [R5, R6, 0, 0, 1, 0, 0, 0, -qp],
            [R7, R8, 0, 0, 0, 1, 0, 0, -qp],
            [0, 0, R5, R6, 0, 0, 1, 0, 0],
            [0, 0, R7, R8, 0, 0, 0, 1, 0],
            [0, 0, R9, R10, 0, 0, 0, 0, 1],
        ], dtype=complex)
        Y = np.array([r - 1 / z1, r - 1 / z2, 0, 0, 0, 0, zb1 - r, zb2 - r, 1],
                     dtype=complex)
        assert np.max(np.abs(sys_B - B)) < 1e-14 * np.max(np.abs(B))
        assert np.max(np.abs(sys_Y - Y)) < 1e-14

    def test_matches_literal_five_by_five(self, case4_soliton):
        cfg, eigenset, norming = case4_soliton
        n, t = -2, 0.3
        sys_B, sys_Y = build_system(cfg, eigenset, norming, n, t)
        p = eigenset.pairs[0]
        z1, zb1 = p.zeta, p.zbar
        r = cfg.r
        c1 = norming.c(0, t)
        cb1 = norming.cbar(0, t)
        R1 = -(z1 - 1 / r) * cb1 * lam_squared(cfg, zb1) ** n / ((zb1 - 1 / r) * (z1 - zb1))
        R2 = -(zb1 - r) * c1 * lam_squared(cfg, z1) ** (-n) / ((z1 - r) * (zb1 - z1))
        R3 = c1 * lam_squared(cfg, z1) ** (-n) / (z1 * (z1 - r))
        qp, rp = cfg.q_plus(t), cfg.r_plus(t)
        B = np.array([
            [1, 0, R1, 0, 0],
            [0, 1, 0, R1, rp],
            [R2, 0, 1, 0, -qp],
            [0, R2, 0, 1, 0],
            [0, R3, 0, 0, 1],
        ], dtype=complex)
        Y = np.array([r - 1 / z1, 0, 0, zb1 - r, 1], dtype=complex)
        assert np.max(np.abs(sys_B - B)) < 1e-14 * np.max(np.abs(B))
        assert np.max(np.abs(sys_Y - Y)) < 1e-14

    def test_zero_constants_give_background_solution(self, case4_soliton):
        cfg, eigenset, _ = case4_soliton
        zero = ist.NormingData(cfg, eigenset, (0.0 + 0.0j,))
        X = np.linalg.solve(*build_system(cfg, eigenset, zero, 0, 0.0))
        z1, zb1 = eigenset.pairs[0].zeta, eigenset.pairs[0].zbar
        assert X[0] == pytest.approx(cfg.r - 1.0 / z1)
        assert X[1] == pytest.approx(-cfg.r_plus(0.0))
        assert X[2] == pytest.approx(cfg.q_plus(0.0))
        assert X[3] == pytest.approx(zb1 - cfg.r)
        assert X[4] == pytest.approx(1.0)

    def test_cramer_oracle(self, case1_soliton):
        cfg, eigenset, norming = case1_soliton
        for (n, t) in ((0, 0.0), (4, 1.1)):
            B, Y = build_system(cfg, eigenset, norming, n, t)
            lu = np.linalg.solve(B, Y)
            cr = cramer_solve(B, Y)
            assert np.max(np.abs(lu - cr)) < 1e-10 * max(1.0, np.max(np.abs(lu)))


class TestReconstruct:
    def test_empty_set_gives_background(self):
        cfg = spectral.make_case(2, 1.0, 0.0)
        eigenset = ist.empty_eigenset(cfg)
        assert reconstruct(cfg, eigenset, None, 5, 0.7) == pytest.approx(cfg.q_plus(0.7))

    def test_far_field_limit(self, case1_soliton):
        cfg, eigenset, norming = case1_soliton
        for n in (-80, 80):
            q = reconstruct(cfg, eigenset, norming, n, 0.0)
            assert abs(q - cfg.q_plus(0.0)) < 1e-8

    def test_nonlocal_reduction_holds(self, case1_soliton):
        cfg, eigenset, norming = case1_soliton
        for t in (0.0, 0.9):
            for n in range(-8, 9):
                rn = ist.reconstruct_grid(cfg, eigenset, norming, n, t).r[0]
                qmn = reconstruct(cfg, eigenset, norming, -n, t)
                assert abs(rn - cfg.sigma * np.conj(qmn)) < 1e-12

    def test_nonlocal_reduction_case4(self, case4_soliton):
        cfg, eigenset, norming = case4_soliton
        for n in range(-6, 7):
            rn = ist.reconstruct_grid(cfg, eigenset, norming, n, 0.4).r[0]
            qmn = reconstruct(cfg, eigenset, norming, -n, 0.4)
            assert abs(rn - cfg.sigma * np.conj(qmn)) < 1e-12

    def test_dark_dark_profile(self, case1_soliton):
        cfg, eigenset, norming = case1_soliton
        prof = np.array([abs(reconstruct(cfg, eigenset, norming, n, 10.0))
                         for n in range(-40, 41)])
        dips = [i for i in range(1, 80)
                if prof[i] < prof[i - 1] and prof[i] < prof[i + 1]
                and prof[i] < cfg.q0 - 1e-3]
        assert len(dips) == 2
        assert np.max(np.abs(prof - prof[::-1])) < 1e-9  # symmetric pattern


class TestClosedFormCase4:
    def test_equals_linear_system(self, case4_soliton):
        cfg, eigenset, norming = case4_soliton
        worst = 0.0
        for t in (0.0, 0.5, 1.0):
            for n in range(-30, 31):
                a = reconstruct(cfg, eigenset, norming, n, t)
                b = soliton_closed_form_case4(cfg, math.pi / 3.0, n, t)
                worst = max(worst, abs(a - b))
        assert worst < 1e-10

    def test_bright_profile(self, case4_soliton):
        cfg, _, _ = case4_soliton
        prof = [abs(soliton_closed_form_case4(cfg, math.pi / 3.0, n, 0.0))
                for n in range(-30, 31)]
        assert max(prof) > cfg.q0 + 0.1

    def test_dark_profile(self):
        cfg = spectral.make_case(4, 2.0 / 3.0, -math.pi + math.pi / 3.0)  # theta_plus = pi/3
        prof = [abs(soliton_closed_form_case4(cfg, math.pi / 3.0, n, 0.0))
                for n in range(-30, 31)]
        assert min(prof) < cfg.q0 - 0.1
        assert max(prof) < cfg.q0 + 1e-6

    def test_wrong_case_rejected(self, case1_soliton):
        cfg, _, _ = case1_soliton
        with pytest.raises(DomainError):
            soliton_closed_form_case4(cfg, 0.0, 0, 0.0)

    @pytest.mark.parametrize("n", [-300, -600])
    def test_overflow_raises_instead_of_nan(self, case4_soliton, n):
        cfg, _, _ = case4_soliton
        with pytest.raises(SingularSolution):
            soliton_closed_form_case4(cfg, math.pi / 3.0, n, 0.0)

    def test_broadcast_shapes(self, case4_soliton):
        cfg, _, _ = case4_soliton
        sites = np.arange(-5, 6)
        ts = np.array([0.0, 0.5, 1.0])
        one = soliton_closed_form_case4(cfg, math.pi / 3.0, 2, 0.5)
        assert isinstance(one, complex) and np.ndim(one) == 0
        grid = soliton_closed_form_case4(cfg, math.pi / 3.0, sites[None, :], ts[:, None])
        assert grid.shape == (3, 11) and grid[1, 7] == one
        assert soliton_closed_form_case4(cfg, math.pi / 3.0, sites, 0.5).shape == (11,)
        assert soliton_closed_form_case4(cfg, math.pi / 3.0, 2, ts[:, None]).shape == (3, 1)

    def test_first_overflowing_cell_is_named(self, case4_soliton):
        cfg, _, _ = case4_soliton
        ns = np.array([0, 5, -300, -600])[None, :]
        ts = np.array([0.25, 0.5])[:, None]
        with pytest.raises(SingularSolution) as info:
            soliton_closed_form_case4(cfg, math.pi / 3.0, ns, ts)
        assert str(info.value) == "closed form overflows at n=-300, t=0.25"

    def test_first_vanishing_denominator_is_named(self):
        # theta_plus + thbar1 = pi: the denominator vanishes at n = 0, t = 0
        # while the cells before it in time-major order are regular.
        cfg = spectral.make_case(4, 0.5, 0.0)
        sites = np.arange(-20, 21)
        for n in range(-20, 0):
            soliton_closed_form_case4(cfg, 0.0, n, 0.0)
        with pytest.raises(SingularSolution) as one:
            soliton_closed_form_case4(cfg, 0.0, 0, 0.0)
        with pytest.raises(SingularSolution) as info:
            soliton_closed_form_case4(cfg, 0.0, sites[None, :], np.array([0.0, 0.5])[:, None])
        assert str(info.value) == str(one.value) == (
            "closed-form denominator vanishes at n=0, t=0.0")


class TestThetaMinusInf:
    def test_background(self):
        cfg = spectral.make_case(1, 2.0 / 3.0)
        assert theta_minus_inf_from_system(cfg, ist.empty_eigenset(cfg),
                                           unit_norming(cfg, ist.empty_eigenset(cfg))) == 1.0

    def test_case1_cross_check(self, case1_soliton):
        cfg, eigenset, norming = case1_soliton
        val = theta_minus_inf_from_system(cfg, eigenset, norming)
        assert val == pytest.approx(theta_minus_inf_constraint(eigenset), rel=1e-8)

    def test_case4_cross_check(self, case4_soliton):
        cfg, eigenset, norming = case4_soliton
        val = theta_minus_inf_from_system(cfg, eigenset, norming)
        assert val == pytest.approx(5.0, rel=1e-8)


class TestSingularity:
    def test_singular_member_flagged(self):
        # the family member at theta + thbar = pi has a real-time pole
        cfg = spectral.make_case(1, 2.0 / 3.0, math.pi)
        eigenset = eigenvalues_case1(cfg, CASE1_ETA1)
        norming = norming_case1(cfg, eigenset, 1.0, 0.0, 0.0)
        scan = singularity_scan(cfg, eigenset, norming, n_range=(-8, 8),
                                t_span=(0.0, 5.0), coarse_dt=0.25)
        assert scan.singular
        assert scan.min_theta_inv < 1e-8

    def test_regular_members_not_flagged(self, case1_soliton):
        cfg, eigenset, norming = case1_soliton
        scan = singularity_scan(cfg, eigenset, norming, n_range=(-8, 8),
                                t_span=(0.0, 5.0), coarse_dt=0.5)
        assert not scan.singular
        assert scan.min_theta_inv > 0.1

    def test_reconstruct_raises_at_pole(self):
        cfg = spectral.make_case(1, 2.0 / 3.0, math.pi)
        eigenset = eigenvalues_case1(cfg, CASE1_ETA1)
        norming = norming_case1(cfg, eigenset, 1.0, 0.0, 0.0)
        scan = singularity_scan(cfg, eigenset, norming, n_range=(-8, 8),
                                t_span=(0.0, 5.0), coarse_dt=0.25)
        with pytest.raises(SingularSolution):
            # huge but finite amplitudes nearby still succeed; the refined
            # pole time itself must raise
            for dt in (0.0, 1e-9, -1e-9):
                reconstruct(cfg, eigenset, norming, scan.at_site, scan.at_time + dt)


def _pole_member():
    """The singular case-I member (theta + thbar1 = pi) and its refined pole."""
    cfg = spectral.make_case(1, 2.0 / 3.0, math.pi)
    eigenset = eigenvalues_case1(cfg, CASE1_ETA1)
    norming = norming_case1(cfg, eigenset, 1.0, 0.0, 0.0)
    scan = singularity_scan(cfg, eigenset, norming, n_range=(-8, 8),
                            t_span=(0.0, 5.0), coarse_dt=0.25)
    return cfg, eigenset, norming, scan


POLE = _pole_member()

_cells = st.lists(st.tuples(st.integers(-40, 40),
                            st.floats(-5.0, 5.0, allow_nan=False)),
                  min_size=1, max_size=12)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestReconstructGrid:
    def _assert_cells_independent(self, cfg, eigenset, norming, ns, ts):
        grid = ist.reconstruct_grid(cfg, eigenset, norming, ns, ts)
        for i, (n, t) in enumerate(zip(ns, ts)):
            alone = ist.reconstruct_grid(cfg, eigenset, norming, [n], [t])
            assert alone.reason[0] == grid.reason[i]
            assert np.array_equal(_bits(alone.q), _bits(grid.q[i:i + 1]))
            assert np.array_equal(_bits(alone.r), _bits(grid.r[i:i + 1]))
            assert np.array_equal(_bits(alone.theta_inv), _bits(grid.theta_inv[i:i + 1]))
            assert np.array_equal(_bits(alone.backward), _bits(grid.backward[i:i + 1]))
        return grid

    @settings(max_examples=20, deadline=None)
    @given(cells=_cells)
    def test_batching_never_couples_cells_case1(self, case1_soliton, cells):
        ns, ts = zip(*cells)
        self._assert_cells_independent(*case1_soliton, ns, ts)

    @settings(max_examples=20, deadline=None)
    @given(cells=_cells)
    def test_batching_never_couples_cells_case4(self, case4_soliton, cells):
        ns, ts = zip(*cells)
        self._assert_cells_independent(*case4_soliton, ns, ts)

    @settings(max_examples=20, deadline=None)
    @given(cells=_cells)
    def test_batching_never_couples_cells_at_pole(self, cells):
        cfg, eigenset, norming, scan = POLE
        pole = [(scan.at_site, scan.at_time + dt) for dt in (0.0, 1e-9, -1e-9)]
        ns, ts = zip(*(list(cells) + pole))
        grid = self._assert_cells_independent(cfg, eigenset, norming, ns, ts)
        assert grid.singular[-3:].any()

    def test_matches_closed_form_case4(self, case4_soliton):
        cfg, eigenset, norming = case4_soliton
        sites = np.arange(-40, 41)[None, :]
        ts = np.array([0.0, 0.5, 1.0])[:, None]
        q = ist.reconstruct_grid(cfg, eigenset, norming, sites, ts).require()
        cf = soliton_closed_form_case4(cfg, math.pi / 3.0, sites, ts)
        assert cf.shape == (3, 81)
        assert np.max(np.abs(q - cf.ravel())) < 1e-10

    def test_evaluator_shapes(self, case1_soliton):
        cfg, eigenset, norming = case1_soliton
        ev = ist.make_evaluator(cfg, eigenset, norming)
        sites = np.arange(-3, 4)
        ts = np.array([0.0, 0.5, 1.0])
        one = ev(2, 0.5)
        assert isinstance(one, complex) and np.ndim(one) == 0
        assert one == reconstruct(cfg, eigenset, norming, 2, 0.5)
        assert ev(sites, 0.5).shape == (7,)
        assert ev(sites[:, None], 0.5).shape == (7, 1)
        assert ev(2, ts[:, None]).shape == (3, 1)
        grid = ev(sites[None, :], ts[:, None])
        assert grid.shape == (3, 7) and grid[1, 5] == one
        assert np.array_equal(grid[1], ev(sites, 0.5))
        assert not hasattr(ev, "grid")

    def test_one_cell_views_agree(self, case1_soliton):
        cfg, eigenset, norming = case1_soliton
        sites = np.arange(-6, 7)
        grid = ist.reconstruct_grid(cfg, eigenset, norming, sites, 0.7)
        for i, n in enumerate(sites):
            one = ist.reconstruct_grid(cfg, eigenset, norming, int(n), 0.7)
            assert reconstruct(cfg, eigenset, norming, int(n), 0.7) == grid.q[i]
            assert one.q[0] == grid.q[i] and one.r[0] == grid.r[i]
            X = np.linalg.solve(*build_system(cfg, eigenset, norming, int(n), 0.7))
            assert abs(X[-1] - grid.theta_inv[i]) < 1e-12 * max(1.0, abs(X[-1]))

    def test_wide_window_flags_overflow_quietly(self, case4_soliton):
        cfg, eigenset, norming = case4_soliton
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = ist.reconstruct_grid(cfg, eigenset, norming, [-700, 0, 700], 0.0)
        assert list(grid.reason) == [ist.OVERFLOW, ist.OK, ist.OK]
        assert np.isnan(grid.q[0]) and abs(grid.q[2] - cfg.q_plus(0.0)) < 1e-12
        with pytest.raises(SingularSolution, match="overflowed at n=-700"):
            reconstruct(cfg, eigenset, norming, -700, 0.0)

    def test_pole_reason_and_message(self):
        cfg, eigenset, norming, scan = POLE
        grid = ist.reconstruct_grid(cfg, eigenset, norming, scan.at_site, scan.at_time)
        assert grid.singular[0]
        assert ist.REASONS[grid.reason[0]] != "ok"
        with pytest.raises(SingularSolution, match=f"at n={scan.at_site}"):
            grid.require()

    def test_exactly_singular_cell_is_isolated(self, case4_soliton, monkeypatch):
        # LAPACK rejects the whole batch when one matrix has a zero pivot;
        # only that cell may be flagged, the others keep their batched values
        cfg, eigenset, norming = case4_soliton
        sites = np.arange(-2, 3)
        clean = ist.reconstruct_grid(cfg, eigenset, norming, sites, 0.0)
        marker = build_system(cfg, eigenset, norming, 0, 0.0)[0][0, 2]
        solve = np.linalg.solve

        def zero_pivot_at_marker(B, b):
            if np.any(B[:, 0, eigenset.J] == marker):  # -kbar of P = [[I, -kbar], [-k, I]]
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(B, b)

        monkeypatch.setattr(np.linalg, "solve", zero_pivot_at_marker)
        grid = ist.reconstruct_grid(cfg, eigenset, norming, sites, 0.0)
        assert list(grid.reason) == [ist.OK, ist.OK, ist.EXACTLY_SINGULAR, ist.OK, ist.OK]
        keep = sites != 0
        assert np.array_equal(grid.q[keep], clean.q[keep])
        with pytest.raises(SingularSolution, match="exactly singular system at n=0, t=0.0"):
            grid.require()

    def test_empty_spectrum_is_background(self):
        cfg = spectral.make_case(2, 1.0, 0.0)
        grid = ist.reconstruct_grid(cfg, ist.empty_eigenset(cfg), None, [-3, 0, 3], 0.7)
        assert not grid.singular.any()
        assert np.max(np.abs(grid.q - cfg.q_plus(0.7))) < 1e-15
        assert np.max(np.abs(grid.r - cfg.r_plus(0.7))) < 1e-15

    @pytest.mark.parametrize("theta", [0.3, 0.0, -0.0, math.pi, 0.7])
    @pytest.mark.parametrize("case", [1, 2, 3, 4])
    def test_empty_spectrum_is_the_j0_system(self, case, theta):
        # B = [1] and 1/Theta_n = 1 through the same blocks as any spectrum
        cfg = spectral.make_case(case, 0.5, theta)
        empty = ist.empty_eigenset(cfg)
        cells = [(np.arange(-300, 301)[None, :], np.array([-2.0, 0.0, 1.3])[:, None]),
                 (np.arange(0), np.arange(0.0))]
        for norming in (None, unit_norming(cfg, empty)):
            for ns, ts in cells:
                grid = ist.reconstruct_grid(cfg, empty, norming, ns, ts)
                q, qdot = ist.reconstruct_with_derivative(cfg, empty, norming, ns, ts)
                qp = cfg.q_plus(grid.ts)
                assert np.array_equal(_bits(grid.q), _bits(qp))
                assert np.array_equal(_bits(grid.r), _bits(cfg.r_plus(grid.ts)))
                assert np.array_equal(_bits(grid.backward), _bits(np.zeros(qp.size)))
                assert np.array_equal(_bits(grid.theta_inv), _bits(np.ones(qp.size, complex)))
                assert np.array_equal(grid.reason, np.full(qp.size, ist.OK, dtype=np.int8))
                assert np.array_equal(_bits(q.ravel()), _bits(qp))
                assert np.array_equal(_bits(qdot.ravel()), _bits(1j * cfg.rotation * qp))
                assert q.shape == qdot.shape == np.broadcast_shapes(ns.shape, ts.shape)

    def test_cbar_does_not_recompute_gamma(self, case1_soliton, monkeypatch):
        cfg, eigenset, norming = case1_soliton
        expected = norming.cbar(1, 0.4)
        monkeypatch.setattr(ist, "gamma", None)
        assert norming.cbar(1, 0.4) == expected
        assert norming.gammas == tuple(gamma(cfg, zb) for zb in eigenset.zeros_t22)


# A grid of 41 sites by at least 26 time rows spans three blocks or more.
_grids = st.tuples(st.integers(-60, 20), st.integers(26, 32),
                   st.floats(-5.0, 5.0), st.floats(0.01, 0.4))


class TestWholeGrid:
    def _assert_grid_equals_rows(self, cfg, eigenset, norming, sites, ts):
        assert sites.size * ts.size > 2 * ist._BLOCK
        grid = ist.reconstruct_grid(cfg, eigenset, norming, sites[None, :], ts[:, None])
        rows = [ist.reconstruct_grid(cfg, eigenset, norming, sites, t) for t in ts.tolist()]
        for name in ("q", "r", "backward", "theta_inv"):
            whole = getattr(grid, name)
            by_row = np.concatenate([getattr(row, name) for row in rows])
            assert np.array_equal(_bits(whole), _bits(by_row)), name
        assert np.array_equal(grid.reason, np.concatenate([row.reason for row in rows]))
        assert np.array_equal(grid.ns, np.tile(sites, ts.size))
        assert np.array_equal(grid.ts, np.repeat(ts, sites.size))
        return grid

    @staticmethod
    def _axes(first_site, steps, t0, dt):
        return np.arange(first_site, first_site + 41), t0 + dt * np.arange(steps)

    @settings(max_examples=8, deadline=None)
    @given(spec=_grids)
    def test_whole_grid_equals_rows_case1(self, case1_soliton, spec):
        self._assert_grid_equals_rows(*case1_soliton, *self._axes(*spec))

    @settings(max_examples=8, deadline=None)
    @given(spec=_grids)
    def test_whole_grid_equals_rows_case4(self, case4_soliton, spec):
        self._assert_grid_equals_rows(*case4_soliton, *self._axes(*spec))

    @settings(max_examples=8, deadline=None)
    @given(spec=_grids, at=st.integers(0, 26))
    def test_whole_grid_equals_rows_at_pole(self, spec, at):
        cfg, eigenset, norming, scan = POLE
        sites, ts = self._axes(scan.at_site - 20, *spec[1:])
        ts = np.insert(ts, at, scan.at_time)
        grid = self._assert_grid_equals_rows(cfg, eigenset, norming, sites, ts)
        assert grid.singular.any()

    def test_no_solve_batch_exceeds_block(self, case1_soliton, monkeypatch):
        cfg, eigenset, norming = case1_soliton
        sizes = []
        solve = np.linalg.solve

        def recording(B, b):
            sizes.append(B.shape[0])
            return solve(B, b)

        monkeypatch.setattr(np.linalg, "solve", recording)
        sites, ts = np.arange(-60, 61), np.linspace(-5.0, 5.0, 11)
        grid = ist.reconstruct_grid(cfg, eigenset, norming, sites[None, :], ts[:, None])
        assert not grid.singular.any()
        assert max(sizes) == ist._BLOCK
        assert sum(sizes) == grid.q.size == 1331
        assert len(sizes) == -(-1331 // ist._BLOCK)

    def test_field_grid_is_one_call(self, monkeypatch):
        config = cli.parse_config({"case": 1, "q0": 2.0 / 3.0, "eta1": CASE1_ETA1, "N": 30,
                                   "t_grid": {"t0": -5.0, "t1": 5.0, "steps": 41}})
        cfg = cli._case_config(config)
        eigenset, norming = cli._eigen_data(config, cfg)
        sizes = reconstruct_grid_sizes(monkeypatch)
        grid = cli._field_grid(config, cfg, eigenset, norming)
        assert sizes == [61 * 41]
        assert list(grid.ts[:61]) == [-5.0] * 61 and list(grid.ns[:61]) == list(range(-30, 31))


# A grid of 41 sites by at least 26 time rows (more than two blocks) with
# a few arbitrary cells inserted at an arbitrary position of the flat order.
_cell_sets = st.tuples(_grids, _cells, st.integers(0, 41 * 26))


def _flat_cell_set(spec):
    (first_site, steps, t0, dt), extra, at = spec
    sites, ts = TestWholeGrid._axes(first_site, steps, t0, dt)
    ns = np.tile(sites, ts.size)
    ts = np.repeat(ts, sites.size)
    extra_ns, extra_ts = zip(*extra)
    return np.insert(ns, at, extra_ns), np.insert(ts, at, extra_ts)


class TestDerivative:
    """ist.reconstruct_with_derivative: q as reconstruct_grid, dq/dt exact."""

    def _assert_q_is_grid_q(self, cfg, eigenset, norming, spec):
        ns, ts = _flat_cell_set(spec)
        assert ns.size > ist._BLOCK
        q, qdot = ist.reconstruct_with_derivative(cfg, eigenset, norming, ns, ts)
        grid = ist.reconstruct_grid(cfg, eigenset, norming, ns, ts)
        assert np.array_equal(_bits(q), _bits(grid.require()))
        assert qdot.shape == q.shape and np.isfinite(qdot).all()

    @settings(max_examples=8, deadline=None)
    @given(spec=_cell_sets)
    def test_q_is_reconstruct_grid_q_case1(self, case1_soliton, spec):
        self._assert_q_is_grid_q(*case1_soliton, spec)

    @settings(max_examples=8, deadline=None)
    @given(spec=_cell_sets)
    def test_q_is_reconstruct_grid_q_case4(self, case4_soliton, spec):
        self._assert_q_is_grid_q(*case4_soliton, spec)

    @pytest.mark.parametrize("fixture", ["case1_soliton", "case4_soliton"])
    def test_derivative_of_the_solved_field(self, fixture, request):
        # a 4th-order central difference of q converges to dq/dt at rate h**4
        cfg, eigenset, norming = request.getfixturevalue(fixture)
        sites, ts = np.arange(-12, 13)[None, :], np.array([-2.0, 0.3, 1.7])[:, None]
        _, qdot = ist.reconstruct_with_derivative(cfg, eigenset, norming, sites, ts)
        ev = ist.make_evaluator(cfg, eigenset, norming)

        def fd_error(h):
            fd = (-ev(sites, ts + 2 * h) + 8.0 * ev(sites, ts + h)
                  - 8.0 * ev(sites, ts - h) + ev(sites, ts - 2 * h)) / (12.0 * h)
            return float(np.max(np.abs(fd - qdot)))

        assert 12.0 < fd_error(0.1) / fd_error(0.05) < 20.0
        assert fd_error(1e-3) < 1e-9

    def test_shapes(self, case1_soliton):
        cfg, eigenset, norming = case1_soliton
        q, qdot = ist.reconstruct_with_derivative(cfg, eigenset, norming, 2, 0.5)
        assert isinstance(q, complex) and isinstance(qdot, complex)
        assert q == reconstruct(cfg, eigenset, norming, 2, 0.5)
        q, qdot = ist.reconstruct_with_derivative(cfg, eigenset, norming,
                                                  np.arange(-3, 4)[None, :],
                                                  np.array([0.0, 0.5])[:, None])
        assert q.shape == qdot.shape == (2, 7)

    def test_empty_spectrum_rotates_q_plus(self):
        for cfg in (spectral.make_case(1, 0.5, 0.3), spectral.make_case(4, 0.5, 0.3)):
            ts = np.array([0.0, 0.4, 1.3])[:, None]
            q, qdot = ist.reconstruct_with_derivative(cfg, ist.empty_eigenset(cfg), None,
                                                      np.arange(-3, 4)[None, :], ts)
            qp = np.broadcast_to(cfg.q_plus(ts), (3, 7))
            assert np.array_equal(q, qp)
            assert np.array_equal(qdot, 1j * cfg.rotation * qp)

    def test_nonempty_spectrum_needs_norming(self, case1_soliton):
        cfg, eigenset, _ = case1_soliton
        with pytest.raises(DomainError):
            ist.reconstruct_with_derivative(cfg, eigenset, None, 0, 0.0)

    @settings(max_examples=8, deadline=None)
    @given(spec=_grids, at=st.integers(0, 26))
    def test_pole_raises_the_evaluator_message(self, spec, at):
        cfg, eigenset, norming, scan = POLE
        sites, ts = TestWholeGrid._axes(scan.at_site - 20, *spec[1:])
        ts = np.insert(ts, at, scan.at_time)[:, None]
        with pytest.raises(SingularSolution) as expected:
            ist.make_evaluator(cfg, eigenset, norming)(sites[None, :], ts)
        with pytest.raises(SingularSolution) as got:
            ist.reconstruct_with_derivative(cfg, eigenset, norming, sites[None, :], ts)
        assert str(got.value) == str(expected.value)

    def test_solves_per_block(self, case1_soliton, monkeypatch):
        # two batched solves per block, none larger than _BLOCK
        cfg, eigenset, norming = case1_soliton
        sizes = []
        solve = np.linalg.solve

        def recording(B, b):
            sizes.append(B.shape[0])
            return solve(B, b)

        monkeypatch.setattr(np.linalg, "solve", recording)
        ist.reconstruct_with_derivative(cfg, eigenset, norming,
                                        np.arange(-16, 17)[None, :],
                                        np.linspace(-5.0, 5.0, 41)[:, None])
        assert sizes == [512, 512, 512, 512, 329, 329]


def _member(case, theta, thbar1=0.0):
    """A case-I member (c1's spectrum and constants) or a case-IV member, at q0 = 2/3."""
    cfg = spectral.make_case(case, 2.0 / 3.0, theta)
    if case == 1:
        eigenset = eigenvalues_case1(cfg, CASE1_ETA1)
        return cfg, eigenset, norming_case1(cfg, eigenset, 1.0, 0.0, 0.0)
    eigenset = eigenvalues_case4(cfg)
    return cfg, eigenset, norming_case4(cfg, eigenset, thbar1)


def _cells(sites, times):
    """The time-major cells of a sites x times grid, flat."""
    return np.tile(sites, len(times)), np.repeat(times, len(sites))


_C1_TIMES = -5.0 + 0.25 * np.arange(41)  # the t grid of c1
_C4_TIMES = np.linspace(0.0, 1.0, 6)  # the t grid of the README and bench c4 configs


def _parity_grid(name):
    """(member, ns, ts, cells whose q the problem itself does not fix to 1e-12)."""
    if name == "c1":
        ns, ts = _cells(np.arange(-60, 61), _C1_TIMES)
        return _member(1, 0.0), ns, ts, np.zeros(ns.size, bool)
    if name == "bench c4":  # the N = 400 window, and three sites out to overflow
        ns, ts = _cells(np.arange(-400, 401), _C4_TIMES)
        ns, ts = np.append(ns, [-700, 0, 700]), np.append(ts, [0.0, 0.0, 0.0])
        return _member(4, -math.pi, math.pi / 3.0), ns, ts, np.zeros(ns.size, bool)
    if name == "pole":  # 0.25 steps through the pole, and 1e-9 either side of it
        cfg, eigenset, norming, scan = POLE
        times = scan.at_time + np.append(0.25 * np.arange(-8, 9), [-1e-9, 1e-9])
        ns, ts = _cells(scan.at_site + np.arange(-20, 21), times)
        # within 1e-9 of the pole q is 1e9 times more sensitive than the solve
        return (cfg, eigenset, norming), ns, ts, np.abs(ts - scan.at_time) < 1e-6
    # case 4, theta: 0, thbar1: 0: B is singular to working precision at n = 0,
    # so neither solve fixes q there (ROADMAP item 7); its reasons still match
    ns, ts = _cells(np.arange(-20, 21), np.linspace(0.0, 1.0, 11))
    return _member(4, 0.0), ns, ts, ns == 0


class TestBlockSolve:
    """The block-triangular solve against the dense (4J+1) solve it replaced."""

    @pytest.mark.parametrize("name, reasons", [
        ("c1", {ist.OK}), ("bench c4", {ist.OK, ist.OVERFLOW}),
        ("pole", {ist.OK, ist.THETA_DIVERGENCE}), ("case4 theta 0", {ist.OK})])
    def test_reasons_and_fields_match_the_dense_reference(self, name, reasons):
        member, ns, ts, unfixed = _parity_grid(name)
        grid = ist.reconstruct_grid(*member, ns, ts)
        q, r, reason = dense_reconstruct(*member, ns, ts)
        assert np.array_equal(grid.reason, reason)
        assert set(grid.reason.tolist()) == reasons
        check = ~grid.singular & ~unfixed
        scale = 1e-12 * np.maximum(1.0, np.abs(q[check]))
        assert np.all(np.abs(grid.q[check] - q[check]) <= scale)
        assert np.all(np.abs(grid.r[check] - r[check]) <= scale)

    @pytest.mark.parametrize("fixture", ["case1_soliton", "case4_soliton"])
    def test_every_solve_is_2j_by_2j(self, fixture, request, monkeypatch):
        cfg, eigenset, norming = request.getfixturevalue(fixture)
        shapes = []
        solve = np.linalg.solve

        def recording(a, b):
            shapes.append((a.shape[1:], b.shape[1]))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording)
        ist.reconstruct_with_derivative(cfg, eigenset, norming, np.arange(-30, 31)[None, :],
                                        np.linspace(-2.0, 2.0, 17)[:, None])
        J = eigenset.J
        assert len(shapes) == 2 * 3  # two solves in each of three blocks
        assert set(shapes) == {((2 * J, 2 * J), 2 * J)}


def _mp_cells(name):
    """(member, ns, ts) for the 50-digit comparison."""
    if name == "c1":  # the residual oracle's cells of ist verify, n=-6, t=4.75 among them
        return (_member(1, 0.0), *_cells(np.arange(-16, 17), _C1_TIMES))
    if name == "bench c4":  # every tenth site of the N = 400 window
        return (_member(4, -math.pi, math.pi / 3.0), *_cells(np.arange(-400, 401, 10), _C4_TIMES))
    if name == "README c4":
        return (_member(4, -math.pi, math.pi / 3.0), *_cells(np.arange(-40, 41), _C4_TIMES))
    cfg, eigenset, norming, scan = POLE  # c1's t grid, half a time unit or more off the pole
    times = _C1_TIMES[np.abs(_C1_TIMES - scan.at_time) >= 0.5]
    return ((cfg, eigenset, norming), *_cells(scan.at_site + np.arange(-10, 11), times))


@pytest.mark.parametrize("name, bound", [("c1", 1e-12), ("bench c4", 1e-14),
                                         ("README c4", 1e-14), ("pole", 1e-12)])
def test_q_against_a_50_digit_solve(name, bound):
    member, ns, ts = _mp_cells(name)
    exact = np.array([mp_reconstruct(*member, int(n), float(t)) for n, t in zip(ns, ts)])
    grid = ist.reconstruct_grid(*member, ns, ts)
    dense, _, _ = dense_reconstruct(*member, ns, ts)
    assert not grid.singular.any()
    error = np.max(np.abs(grid.q - exact) / np.maximum(1.0, np.abs(exact)))
    dense_error = np.max(np.abs(dense - exact) / np.maximum(1.0, np.abs(exact)))
    assert error <= bound
    assert error <= 2.0 * dense_error


def _scan_fixed_rounds(cfg, eigenset, norming, n_range, t_span, coarse_dt):
    """The scan before Newton: 7-point shrink rounds until the bracket stops moving."""

    def theta_inv_at(ns, ts):
        grid = ist.reconstruct_grid(cfg, eigenset, norming, ns, ts)
        return np.where(np.isin(grid.reason, ist._SOLVE_FAILED), 0.0, np.abs(grid.theta_inv))

    sites = np.arange(n_range[0], n_range[1] + 1)
    times = []
    t = t_span[0]
    while t <= t_span[1]:
        times.append(t)
        t += coarse_dt
    vals = theta_inv_at(sites[:, None], np.array(times)[None, :])
    k = int(np.argmin(vals))
    i, j = divmod(k, len(times))
    best, n_star, t_star = float(vals[k]), int(sites[i]), times[j]
    lo, hi = t_star - coarse_dt, t_star + coarse_dt
    for _ in range(80):
        ts = np.linspace(lo, hi, 7)
        i = int(np.argmin(theta_inv_at(n_star, ts)))
        shrunk = float(ts[max(0, i - 1)]), float(ts[min(6, i + 1)])
        if shrunk == (lo, hi):
            break
        lo, hi = shrunk
    t_ref = 0.5 * (lo + hi)
    v_ref = min(best, float(theta_inv_at(n_star, t_ref)[0]))
    return ist.SingularityScan(v_ref, n_star, t_ref, v_ref < 1e-6)


# The scan ranges of the CLI and of the scan tests: (n_range, t_span, coarse_dt).
_SCAN_RANGES = {
    "cli": ((-12, 12), (-6.0, 6.0), 0.25),
    "half": ((-8, 8), (0.0, 5.0), 0.25),
    "half-coarse": ((-8, 8), (0.0, 5.0), 0.5),
    "wide": ((-12, 12), (-8.0, 8.0), 0.25),
}


def _family(name):
    """25 members: case I over theta, or case IV over thbar1, both over [0, 2 pi]."""
    for angle in np.linspace(0.0, 2.0 * math.pi, 25).tolist():
        yield angle, (_member(1, angle) if name == "case1-theta"
                      else _member(4, -math.pi, angle))


@pytest.mark.parametrize("ranges", _SCAN_RANGES)
@pytest.mark.parametrize("family", ["case1-theta", "case4-thbar1"])
def test_scan_flags_equal_the_shrink_scan(family, ranges):
    # Both families hold flagged members: theta = pi (case I), thbar1 = 0 and
    # 2 pi (case IV); thbar1 = pi is the case-IV member with B singular at n = 0.
    n_range, t_span, coarse_dt = _SCAN_RANGES[ranges]
    flags = [(angle, singularity_scan(*member, n_range, t_span, coarse_dt).singular,
              _scan_fixed_rounds(*member, n_range, t_span, coarse_dt).singular)
             for angle, member in _family(family)]
    assert [f for f in flags if f[1] != f[2]] == []
    assert any(f[1] for f in flags) and not all(f[1] for f in flags)


@pytest.mark.parametrize("fixture", ["case1_soliton", "case4_soliton"])
def test_theta_inv_derivative_matches_central_difference(fixture, request):
    cfg, eigenset, norming = request.getfixturevalue(fixture)
    ns, ts, _ = ist._flat_cells(np.arange(-12, 13)[None, :], np.array([-2.0, 0.3, 1.7])[:, None])
    _, (_, fdot) = ist._solve_cells(cfg, eigenset, norming, ns, ts, derivative=True)

    def fd_error(h):
        def f(t):
            return ist.reconstruct_grid(cfg, eigenset, norming, ns, t).theta_inv
        fd = (-f(ts + 2 * h) + 8.0 * f(ts + h) - 8.0 * f(ts - h) + f(ts - 2 * h)) / (12.0 * h)
        return float(np.max(np.abs(fd - fdot)))

    assert fd_error(1e-3) < 1e-11
    if fixture == "case1_soliton":
        assert 12.0 < fd_error(0.1) / fd_error(0.05) < 20.0
    else:  # gamma(zbar_1) = 0 in case IV: 1/Theta_n does not depend on t
        assert np.max(np.abs(fdot)) < 1e-14


def test_case4_theta_inv_is_the_same_at_every_time(case4_soliton):
    # Every case-IV pair has zbar_1 = (1 - q0)/r with r**2 = 1 - q0**2, so
    # zbar_1 + 1/zbar_1 = 2/r and the first numerator factor of gamma
    # vanishes; Cbar_1(t) then turns at -i rotation and C_1(t) at +i rotation,
    # like r_plus(t) and q_plus(t).  With u = exp(i rotation t), the 5 x 5
    # system's 1/Theta_n is free of u: singularity_scan's one-time sweep.
    import sympy as sp

    q0 = sp.symbols("q0", positive=True)
    r = sp.sqrt(1 - q0 ** 2)
    zb = (1 - q0) / r
    assert sp.simplify(zb + 1 / zb - 2 / r) == 0
    gamma_zb = r ** 2 * (zb - 2 / r + 1 / zb) * (zb - 2 * r + 1 / zb) / ((zb - r) * (1 / zb - r))
    assert sp.simplify(gamma_zb) == 0
    kbar, k, row, qp, rp, y0, y3, u = sp.symbols("kbar k row q_p r_p y0 y3 u", nonzero=True)
    B = sp.Matrix([[1, 0, -kbar / u, 0, 0],  # the layout of TestBuildSystem's 5 x 5
                   [0, 1, 0, -kbar / u, rp / u],
                   [-k * u, 0, 1, 0, -qp * u],
                   [0, -k * u, 0, 1, 0],
                   [0, row * u, 0, 0, 1]])
    theta_inv = B.LUsolve(sp.Matrix([y0, 0, 0, y3, 1]))[4]
    assert sp.simplify(sp.diff(theta_inv, u)) == 0
    # ist's case-IV blocks carry exactly those powers of u
    cfg = case4_soliton[0]
    t = 0.7
    at_0, at_t = (ist._assemble(*case4_soliton, np.array([3]), np.array([time]))
                  for time in (0.0, t))
    u_t = cmath.exp(1j * cfg.rotation * t)
    for name, power in (("kbar", -1), ("k", 1), ("row", 1), ("qp", 1), ("rp", -1)):
        ratio = getattr(at_t, name) / getattr(at_0, name)
        assert np.allclose(ratio, u_t ** power, rtol=1e-14, atol=0.0), name


def test_case4_scan_sweeps_one_time_per_site(case4_soliton, monkeypatch):
    calls = []
    solve = ist._solve_cells

    def recording(cfg, eigenset, norming, ns, ts, derivative=False):
        calls.append((ns.size, sorted(set(ts.tolist())), derivative))
        return solve(cfg, eigenset, norming, ns, ts, derivative)

    monkeypatch.setattr(ist, "_solve_cells", recording)
    n_range, t_span, coarse_dt = _SCAN_RANGES["cli"]
    scan = singularity_scan(*case4_soliton, n_range, t_span, coarse_dt)
    assert calls[0] == (25, [t_span[0]], False)  # one cell per site
    assert all(size == 1 and derivative for size, _, derivative in calls[1:])
    assert not scan.singular


@pytest.mark.parametrize("theta", [0.0, math.pi], ids=["regular", "pole"])
def test_scan_is_one_coarse_call_and_a_few_one_cell_solves(theta, monkeypatch):
    cfg = spectral.make_case(1, 2.0 / 3.0, theta)
    eigenset = eigenvalues_case1(cfg, CASE1_ETA1)
    norming = norming_case1(cfg, eigenset, 1.0, 0.0, 0.0)
    calls = []
    solve = ist._solve_cells

    def recording(cfg, eigenset, norming, ns, ts, derivative=False):
        calls.append((ns.size, derivative))
        return solve(cfg, eigenset, norming, ns, ts, derivative)

    monkeypatch.setattr(ist, "_solve_cells", recording)
    scan = singularity_scan(cfg, eigenset, norming, *_SCAN_RANGES["cli"])
    steps = len(calls) - 1
    assert calls == [(25 * 49, False)] + [(1, True)] * steps
    assert (steps == 1) if theta == 0.0 else (1 <= steps <= ist._NEWTON_STEPS)
    assert scan.singular == (theta == math.pi)


@pytest.mark.parametrize("site", [None, -2, 1, 4], ids=["cli", "n=-2", "n=1", "n=4"])
def test_pole_is_where_the_shrink_scan_put_it(site):
    cfg = spectral.make_case(1, 2.0 / 3.0, math.pi)
    eigenset = eigenvalues_case1(cfg, CASE1_ETA1)
    member = (cfg, eigenset, norming_case1(cfg, eigenset, 1.0, 0.0, 0.0))
    ranges = _SCAN_RANGES["cli"] if site is None else ((site, site), (-10.0, 10.0), 0.25)
    scan = singularity_scan(*member, *ranges)
    expected = _scan_fixed_rounds(*member, *ranges)
    assert scan.at_site == expected.at_site
    assert scan.at_time == pytest.approx(expected.at_time, abs=1e-12)
    assert scan.singular and scan.min_theta_inv < 1e-12
    with pytest.raises(SingularSolution):
        reconstruct(*member, scan.at_site, scan.at_time)


class _Bound(float):
    """An upper time bound that fails the test, instead of hanging, once the
    scan has compared a time against it a thousand times."""

    def __init__(self, value):
        self.compared = 0

    def __ge__(self, other):
        self.compared += 1
        assert self.compared < 1000, "the scan loops on its time list"
        return float(self) >= other


@pytest.mark.parametrize("n_range, t_span, coarse_dt", [
    ((-8, 8), (0.0, 5.0), 0.0),
    ((-8, 8), (0.0, 5.0), -0.25),
    ((-8, 8), (0.0, 5.0), math.nan),
    ((8, -8), (0.0, 5.0), 0.25),
    ((-8, 8), (5.0, 0.0), 0.25),
    ((-8, 8), (0.0, math.inf), 0.25),
], ids=["dt=0", "dt<0", "dt=nan", "sites reversed", "times reversed", "times unbounded"])
def test_scan_rejects_an_empty_or_endless_sweep(case1_soliton, n_range, t_span, coarse_dt):
    with pytest.raises(DomainError):
        singularity_scan(*case1_soliton, n_range, (t_span[0], _Bound(t_span[1])), coarse_dt)


def test_scan_coarse_sweep_is_one_call(case1_soliton, monkeypatch):
    sizes = reconstruct_grid_sizes(monkeypatch)
    singularity_scan(*case1_soliton, n_range=(-12, 12), t_span=(-6.0, 6.0), coarse_dt=0.25)
    assert sizes == [25 * 49]  # the Newton steps solve one cell each, not through it
