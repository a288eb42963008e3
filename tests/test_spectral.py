import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnls_ist import spectral
from dnls_ist.errors import DomainError, SingularPoint
from dnls_ist.spectral import (Case, Region, classify, gamma, lam_squared,
                               make_case, point_from_zeta, zeta_bar)

from conftest import case_configs


def sample_regular(cfg, rng, count):
    """Random zeta avoiding the singular points and the continuum band."""
    out = []
    while len(out) < count:
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z) < 1e-3:
            continue
        if any(abs(z - p) < 1e-3 for p in (0.0, cfg.r, 1.0 / cfg.r, *cfg.branch_points)):
            continue
        out.append(z)
    return out


class TestMakeCase:
    def test_case1_case1_radius(self):
        cfg = make_case(1, 2.0 / 3.0, 0.0)
        assert cfg.r == pytest.approx(math.sqrt(5.0) / 3.0, rel=1e-15)
        assert cfg.sigma == 1 and cfg.delta_theta == 0.0
        assert cfg.delta == pytest.approx((2.0 / 3.0) ** 2)

    def test_case2_radius_and_phase_step(self):
        cfg = make_case(2, 1.0, 0.0)
        assert cfg.r == pytest.approx(math.sqrt(2.0))
        assert cfg.theta_plus == pytest.approx(math.pi)

    def test_case1_amplitude_bound(self):
        with pytest.raises(DomainError):
            make_case(1, 1.2)
        with pytest.raises(DomainError):
            make_case(4, 1.0)
        with pytest.raises(DomainError):
            make_case(2, -0.5)

    @pytest.mark.parametrize("cfg", case_configs(), ids=lambda c: c.case_id.name)
    def test_radius_identity(self, cfg):
        if cfg.case_id in (Case.I, Case.IV):
            assert cfg.r ** 2 + cfg.q0 ** 2 == pytest.approx(1.0, abs=1e-15)
        else:
            assert cfg.r ** 2 - cfg.q0 ** 2 == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("cfg", case_configs(), ids=lambda c: c.case_id.name)
    def test_background_product(self, cfg):
        # q_plus * r_plus = sigma * delta at any time
        expected = cfg.sigma * cfg.delta
        for t in (0.0, 0.7):
            assert cfg.q_plus(t) * cfg.r_plus(t) == pytest.approx(expected, abs=1e-14)


class TestCaseConstants:
    """Each case's sigma and Delta theta, and the constants that follow from them.

    At q0 = 1e-9 r rounds to 1.0 in every case, and at q0 = 1e-170 q0**2 (so
    delta) underflows to 0: a constant read off r or delta is wrong there.
    """

    SIGMA_DELTA_THETA = {Case.I: (1, 0.0), Case.II: (1, math.pi),
                         Case.III: (-1, 0.0), Case.IV: (-1, math.pi)}

    @pytest.mark.parametrize("q0", [2.0 / 3.0, 1e-9, 1e-170])
    @pytest.mark.parametrize("case", list(Case), ids=lambda c: c.name)
    def test_constants(self, case, q0):
        cfg = make_case(case, q0, 0.25)
        assert (cfg.sigma, cfg.delta_theta) == self.SIGMA_DELTA_THETA[case]
        sign = 1.0 if case in (Case.I, Case.III) else -1.0
        assert type(cfg.branch_sign) is float and cfg.branch_sign == sign
        if case in (Case.I, Case.IV):
            assert cfg.branch_points == (complex(cfg.r, q0), complex(cfg.r, -q0))
        else:
            assert cfg.branch_points == (complex(cfg.r - q0), complex(cfg.r + q0))

    @pytest.mark.parametrize("case", list(Case), ids=lambda c: c.name)
    def test_q0_one_is_rejected_only_in_cases_1_and_4(self, case):
        if case in (Case.I, Case.IV):
            with pytest.raises(DomainError, match=f"case {case.name} requires 0 < q0 < 1"):
                make_case(case, 1.0)
        else:
            assert make_case(case, 1.0).r == math.sqrt(2.0)

    @pytest.mark.parametrize("case", list(Case), ids=lambda c: c.name)
    def test_second_circle_only_in_cases_2_and_3(self, case):
        # r + q0/2 lies outside |zeta| = 1 and, in cases II/III, inside |zeta - r| = q0
        cfg = make_case(case, 2.0 / 3.0)
        inside = Region.DPlus if case in (Case.II, Case.III) else Region.DMinus
        assert classify(cfg, cfg.r + cfg.q0 / 2.0) is inside


class TestBoundaryValues:
    TIMES = np.array([-7.3, -1.0, 0.0, 0.25, 2.0 / 3.0, 11.9])

    @staticmethod
    def bits(a):
        return np.ascontiguousarray(a).view(np.uint64)

    @pytest.mark.parametrize("cfg", case_configs(), ids=lambda c: c.case_id.name)
    def test_arrays_equal_scalars_bit_for_bit(self, cfg):
        for name in ("q_plus", "q_minus", "r_plus", "r_minus"):
            f = getattr(cfg, name)
            scalars = np.array([f(t) for t in self.TIMES.tolist()])
            assert np.array_equal(self.bits(f(self.TIMES)), self.bits(scalars))
            assert np.array_equal(self.bits(f(self.TIMES[:, None])[:, 0]), self.bits(scalars))

    @pytest.mark.parametrize("cfg", case_configs(), ids=lambda c: c.case_id.name)
    def test_scalars_equal_the_cmath_formula(self, cfg):
        for t in self.TIMES.tolist():
            qp = cfg.q0 * cmath.exp(1j * (cfg.theta_plus + cfg.rotation * t))
            qm = cfg.q0 * cmath.exp(1j * (cfg.theta_minus + cfg.rotation * t))
            assert (cfg.q_plus(t), cfg.q_minus(t)) == (qp, qm)
            assert (cfg.r_plus(t), cfg.r_minus(t)) == (cfg.sigma * qm.conjugate(),
                                                       cfg.sigma * qp.conjugate())

    @pytest.mark.parametrize("cfg", case_configs(), ids=lambda c: c.case_id.name)
    def test_background_broadcasts_over_cells(self, cfg):
        ns = np.arange(-3, 4)
        q = cfg.background(ns[None, :], self.TIMES[:, None])
        assert q.shape == (self.TIMES.size, ns.size)
        for i, t in enumerate(self.TIMES.tolist()):
            for j, n in enumerate(ns.tolist()):
                assert q[i, j] == (cfg.q_plus(t) if n >= 0 else cfg.q_minus(t))
        assert cfg.background(ns[:, None], 0.25).shape == (ns.size, 1)
        one = cfg.background(-2, 0.25)
        assert isinstance(one, complex) and np.ndim(one) == 0
        assert one == cfg.q_minus(0.25) and cfg.background(0, 0.25) == cfg.q_plus(0.25)


class TestPointFromZeta:
    @pytest.mark.parametrize("cfg", case_configs(), ids=lambda c: c.case_id.name)
    def test_mapping_identities(self, cfg):
        rng = np.random.default_rng(11)
        for z in sample_regular(cfg, rng, 200):
            pt = point_from_zeta(cfg, z)
            r = cfg.r
            assert pt.z ** 2 == pytest.approx((z - r) / (z * (z * r - 1.0)), rel=1e-12)
            assert pt.lam ** 2 == pytest.approx(z * (z - r) / (z * r - 1.0), rel=1e-12)
            assert pt.z * pt.lam == pytest.approx((z - r) / (z * r - 1.0), rel=1e-12)
            lhs = r * (pt.lam + 1.0 / pt.lam)
            rhs = pt.z + 1.0 / pt.z
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
            assert pt.lam / pt.z == pytest.approx(z, rel=1e-12)

    def test_branch_point_limit(self):
        # z**2 -> 1/zeta0**2 approaching the case I branch point
        cfg = make_case(1, 2.0 / 3.0)
        zeta0 = cfg.branch_points[0]
        pt = point_from_zeta(cfg, zeta0 * (1.0 + 1e-7))
        assert pt.z ** 2 == pytest.approx(1.0 / zeta0 ** 2, rel=1e-5)

    def test_unit_circle_maps_to_unit_lambda(self):
        cfg = make_case(1, 2.0 / 3.0)
        for ang in (0.0, math.pi / 3, 2.4):
            pt = point_from_zeta(cfg, cmath.exp(1j * ang))
            assert abs(pt.lam) == pytest.approx(1.0, rel=1e-12)

    def test_singular_guard(self):
        cfg = make_case(1, 2.0 / 3.0)
        for bad in (0.0, cfg.r, 1.0 / cfg.r, cfg.branch_points[0]):
            with pytest.raises(SingularPoint):
                point_from_zeta(cfg, bad)

    @pytest.mark.parametrize("cfg", case_configs(), ids=lambda c: c.case_id.name)
    def test_table_limits(self, cfg):
        r = cfg.r
        rng = np.random.default_rng(3)
        for mag, checks in (
            (1e6, (lambda p, z: p.z ** 2 * r * z - 1.0,
                   lambda p, z: p.lam ** 2 * r / z - 1.0,
                   lambda p, z: p.z * p.lam * r - 1.0)),
            (1e-6, (lambda p, z: p.z ** 2 * z / r - 1.0,
                    lambda p, z: p.lam ** 2 / (r * z) - 1.0,
                    lambda p, z: p.z * p.lam / r - 1.0)),
        ):
            for _ in range(5):
                z = mag * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                pt = point_from_zeta(cfg, z)
                for check in checks:
                    assert abs(check(pt, z)) < 1e-5

    def test_table_limits_near_r_and_rinv(self):
        cfg = make_case(1, 2.0 / 3.0)
        r, q0 = cfg.r, cfg.q0
        eps = 1e-8
        z = r + eps
        pt = point_from_zeta(cfg, z)
        assert pt.z ** 2 == pytest.approx(-(z - r) / (r * q0 ** 2), rel=1e-6)
        assert pt.lam ** 2 == pytest.approx(-r * (z - r) / q0 ** 2, rel=1e-6)
        z = 1.0 / r + eps
        pt = point_from_zeta(cfg, z)
        assert pt.z ** 2 == pytest.approx(q0 ** 2 / (r * z - 1.0), rel=1e-6)
        assert pt.z * pt.lam == pytest.approx(q0 ** 2 / (r * (r * z - 1.0)), rel=1e-6)


class TestZetaBar:
    @given(st.complex_numbers(min_magnitude=0.01, max_magnitude=50,
                              allow_nan=False, allow_infinity=False))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_involution(self, z):
        cfg = make_case(1, 2.0 / 3.0)
        if abs(z - cfg.r) < 1e-3:
            return
        zb = zeta_bar(cfg, z)
        if abs(zb - cfg.r) < 1e-3:
            return
        assert zeta_bar(cfg, zb) == pytest.approx(z, rel=1e-9, abs=1e-9)

    def test_values(self):
        cfg = make_case(1, 2.0 / 3.0)
        assert zeta_bar(cfg, 0.0) == pytest.approx(1.0 / cfg.r)
        zeta0 = cfg.branch_points[0]
        assert zeta_bar(cfg, zeta0) == pytest.approx(zeta0, rel=1e-12)
        with pytest.raises(SingularPoint):
            zeta_bar(cfg, cfg.r)

    @given(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                       allow_infinity=False), max_size=12),
           st.sampled_from(case_configs()))
    @settings(max_examples=60, deadline=None)
    def test_arrays_equal_python_complex_division_bit_for_bit(self, zs, cfg):
        # real-valued and signed-zero inputs too: the artifacts print zeta_bar's bits
        zs = [z for z in zs + [3.0, -2.5, complex(0.5, -0.0), complex(-0.0, 1.5)]
              if abs(z - cfg.r) > 1e-6]
        python = np.array([(cfg.r * z - 1.0) / (z - cfg.r) for z in map(complex, zs)])
        bits = TestBoundaryValues.bits
        assert np.array_equal(bits(zeta_bar(cfg, zs)), bits(python))
        assert np.array_equal(bits(np.array([zeta_bar(cfg, z) for z in zs])), bits(python))
        assert type(zeta_bar(cfg, zs[0])) is complex
        assert zeta_bar(cfg, np.reshape(zs[:4], (2, 2))).shape == (2, 2)

    def test_any_pole_in_an_array_raises(self):
        cfg = make_case(2, 1.0)
        with pytest.raises(SingularPoint):
            zeta_bar(cfg, [2.0, cfg.r, 3.0])

    def test_region_swap_and_circle(self):
        cfg = make_case(1, 2.0 / 3.0)
        rng = np.random.default_rng(5)
        for _ in range(50):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(abs(z) - 1.0) < 0.05 or abs(z - cfg.r) < 0.05 or abs(z) < 0.05:
                continue
            tag = classify(cfg, z)
            image = classify(cfg, zeta_bar(cfg, z))
            if tag is Region.DPlus:
                assert image is Region.DMinus
            elif tag is Region.DMinus:
                assert image is Region.DPlus
        for ang in (0.3, 1.2, 2.9):
            z = cmath.exp(1j * ang)
            assert abs(abs(zeta_bar(cfg, z)) - 1.0) < 1e-12


class TestClassify:
    def test_case1_examples(self):
        cfg = make_case(1, 2.0 / 3.0)
        assert classify(cfg, 0.5) is Region.DPlus
        assert classify(cfg, 2.0) is Region.DMinus
        assert classify(cfg, cmath.exp(1j * math.pi / 3)) is Region.Continuum

    def test_case2_inner_circle_center(self):
        cfg = make_case(2, 1.0)
        assert classify(cfg, cfg.r) is Region.DPlus

    @pytest.mark.parametrize("cfg", case_configs(), ids=lambda c: c.case_id.name)
    def test_region_matches_lambda_modulus(self, cfg):
        rng = np.random.default_rng(17)
        for z in sample_regular(cfg, rng, 150):
            tag = classify(cfg, z)
            if tag is Region.Continuum:
                continue
            lam_mag = abs(lam_squared(cfg, z))
            if tag is Region.DPlus:
                assert lam_mag < 1.0
            else:
                assert lam_mag > 1.0


    @pytest.mark.parametrize("cfg", case_configs(), ids=lambda c: c.case_id.name)
    def test_arrays_equal_the_scalar_formula(self, cfg):
        rng = np.random.default_rng(19)
        zs = sample_regular(cfg, rng, 120) + [1.0, -1.0j, cfg.branch_points[0], complex("nan")]

        def region(z):  # the scalar rule, on abs(complex)
            s = abs(z) - 1.0
            if cfg.case_id in (Case.II, Case.III):
                s *= abs(z - cfg.r) - cfg.q0
            return (Region.DPlus if s < -1e-9 else Region.DMinus if s > 1e-9
                    else Region.Continuum)

        regions = classify(cfg, zs)
        assert regions.shape == (len(zs),)
        assert all(got is region(z) is classify(cfg, z) for got, z in zip(regions, zs))
        assert classify(cfg, np.reshape(zs[:4], (2, 2))).shape == (2, 2)


class TestGamma:
    def test_vanishes_at_branch_points(self):
        cfg = make_case(1, 2.0 / 3.0)
        assert abs(gamma(cfg, cfg.branch_points[0])) < 1e-12
        cfg2 = make_case(2, 1.0)
        assert abs(gamma(cfg2, cfg2.branch_points[0])) < 1e-12

    def test_value_at_one(self):
        # zeta-form simplifies to -4r at zeta = 1 for the unit-circle cases
        cfg = make_case(1, 2.0 / 3.0)
        assert gamma(cfg, 1.0) == pytest.approx(-4.0 * cfg.r, rel=1e-12)

    @pytest.mark.parametrize("cfg", case_configs(), ids=lambda c: c.case_id.name)
    def test_matches_surface_form(self, cfg):
        # independent oracle: r (lam - 1/lam)(z - 1/z) through the principal point
        rng = np.random.default_rng(23)
        for z in sample_regular(cfg, rng, 100):
            pt = point_from_zeta(cfg, z)
            oracle = cfg.r * (pt.lam - 1.0 / pt.lam) * (pt.z - 1.0 / pt.z)
            assert gamma(cfg, z) == pytest.approx(oracle, rel=1e-10, abs=1e-10)

    def test_inversion_invariance(self):
        cfg = make_case(3, 1.0)
        rng = np.random.default_rng(31)
        for z in sample_regular(cfg, rng, 50):
            assert gamma(cfg, z) == pytest.approx(gamma(cfg, 1.0 / z), rel=1e-10)

    def test_conjugation(self):
        cfg = make_case(1, 2.0 / 3.0)
        z = 1.4 + 0.6j
        assert gamma(cfg, np.conj(z)) == pytest.approx(np.conj(gamma(cfg, z)), rel=1e-12)
