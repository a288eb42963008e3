import numpy as np
import pytest

from dnls_ist import ist, lattice, spectral
from dnls_ist.errors import SingularProduct
from dnls_ist.lattice import al_rhs, background_field, partner, theta_products

from conftest import al_rhs_at, case_configs, perturbed_background, site


def window_rhs(w):
    """lattice.al_rhs at every window site, with the background beyond the edges."""
    return al_rhs(w.q, np.append(w.q[1:], site(w, w.N + 1)),
                  np.insert(w.q[:-1], 0, site(w, -w.N - 1)), w.q[::-1], w.cfg.sigma)


class TestBackgroundField:
    def test_case1_constant(self):
        cfg = spectral.make_case(1, 2.0 / 3.0, 0.0)
        w = background_field(cfg, 0.0, 10)
        assert np.allclose(w.q, 2.0 / 3.0)

    def test_case1_phase_rotation(self):
        cfg = spectral.make_case(1, 2.0 / 3.0, 0.4)
        t = 1.0
        w = background_field(cfg, t, 5)
        expected = (2.0 / 3.0) * np.exp(1j * (0.4 + 2.0 * (2.0 / 3.0) ** 2 * t))
        assert site(w, 3) == pytest.approx(expected, rel=1e-14)

    def test_case4_step(self):
        cfg = spectral.make_case(4, 2.0 / 3.0, 0.0)
        w = background_field(cfg, 0.0, 5)
        assert site(w, -1) == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert site(w, 0) == pytest.approx(-2.0 / 3.0, rel=1e-14)

    def test_off_window_is_background(self):
        cfg = spectral.make_case(2, 1.0, 0.3)
        w = background_field(cfg, 0.5, 4)
        assert site(w, 7) == pytest.approx(cfg.q_plus(0.5))
        assert site(w, -9) == pytest.approx(cfg.q_minus(0.5))


class TestPartner:
    def test_case1_background(self):
        cfg = spectral.make_case(1, 2.0 / 3.0, 0.7)
        w = background_field(cfg, 0.0, 5)
        assert partner(w)[2 + 5] == pytest.approx((2.0 / 3.0) * np.exp(-0.7j), rel=1e-14)

    def test_case3_background_sign(self):
        cfg = spectral.make_case(3, 0.5, 0.2)
        w = background_field(cfg, 0.0, 5)
        assert partner(w)[1 + 5] == pytest.approx(-0.5 * np.exp(-0.2j), rel=1e-14)

    def test_mirror_site(self):
        cfg = spectral.make_case(1, 2.0 / 3.0, 0.0)
        q = np.array(background_field(cfg, 0.0, 6).q)
        q[5 + 6] = 1.0 + 2.0j
        w = lattice.PotentialWindow(cfg, 6, 0.0, q)
        assert partner(w)[-5 + 6] == pytest.approx(1.0 - 2.0j)


class TestThetaProducts:
    def test_constant_background_is_one(self):
        for case_id, q0 in ((1, 2.0 / 3.0), (3, 0.8)):
            cfg = spectral.make_case(case_id, q0, 0.3)
            th = theta_products(background_field(cfg, 0.2, 20))
            assert np.allclose(th.theta_n, 1.0, atol=1e-14)

    def test_stepped_background_mirror_factor(self):
        # the n = 0 site pairs with itself, so one factor is (1 - sigma q0^2)/r^2
        # (q0 = 1 in case II makes that factor vanish identically)
        for case_id, q0 in ((2, 0.8), (4, 2.0 / 3.0)):
            cfg = spectral.make_case(case_id, q0, 0.1)
            th = theta_products(background_field(cfg, 0.0, 15))
            jump = (1.0 - cfg.sigma * q0 ** 2) / cfg.r ** 2
            assert th.at(1) == pytest.approx(1.0, abs=1e-13)
            assert th.at(0) == pytest.approx(jump, rel=1e-13)
            assert th.theta_minus_inf == pytest.approx(jump, rel=1e-13)

    def test_matches_naive_loop(self):
        cfg = spectral.make_case(1, 2.0 / 3.0, 0.0)
        w = perturbed_background(cfg, N=12, seed=4)
        th = theta_products(w)
        for n in range(-12, 14):
            prod = 1.0 + 0.0j
            for k in range(n, 13):
                prod *= (1.0 - site(w, k) * partner(w)[k + 12]) / cfg.r ** 2
            assert th.at(n) == pytest.approx(prod, rel=1e-13)

    def test_soliton_window_matches_constraint(self, case1_window, case1_soliton):
        cfg, eigenset, _ = case1_soliton
        th = theta_products(case1_window)
        assert th.theta_minus_inf == pytest.approx(
            ist.theta_minus_inf_constraint(eigenset), rel=1e-6)

    def test_singular_product(self):
        cfg = spectral.make_case(1, 2.0 / 3.0, 0.0)
        q = np.array(background_field(cfg, 0.0, 4).q)
        q[4] = 1.0  # q_0 r_0 = sigma |q_0|^2 = 1
        w = lattice.PotentialWindow(cfg, 4, 0.0, q)
        with pytest.raises(SingularProduct):
            theta_products(w)


class TestAlRhs:
    @pytest.mark.parametrize("cfg", case_configs(), ids=lambda c: c.case_id.name)
    def test_background_rotation(self, cfg):
        w = background_field(cfg, 0.3, 10)
        for n in range(-8, 9):
            if cfg.delta_theta != 0.0 and abs(n) <= 1:
                continue  # the phase step deforms the stencil near n = 0
            expected = 1j * cfg.rotation * site(w, n)
            assert window_rhs(w)[n + 10] == pytest.approx(expected, abs=1e-13)

    def test_zero_field(self):
        cfg = spectral.make_case(1, 0.5, 0.0)
        w = lattice.PotentialWindow(cfg, 3, 0.0, np.zeros(7, dtype=complex))
        # interior stencil of the zero field vanishes identically
        assert window_rhs(w)[3] == 0.0

    def test_case4_step_site(self):
        # hand evaluation: q_{+1} + q_{-1} = 0 kills the nonlinear term,
        # leaving -i(q_plus - 2 q_plus - q_plus) = 2i q_plus
        cfg = spectral.make_case(4, 2.0 / 3.0, 0.0)
        w = background_field(cfg, 0.0, 6)
        assert window_rhs(w)[6] == pytest.approx(2j * cfg.q_plus(0.0), rel=1e-14)

    @pytest.mark.parametrize("cfg", case_configs(), ids=lambda c: c.case_id.name)
    def test_matches_the_scalar_stencil(self, cfg):
        # every site, the step sites n = -1, 0, 1 and both window edges included
        for seed in range(5):
            w = perturbed_background(cfg, N=6, seed=seed, amplitude=0.3)
            rhs = window_rhs(w)
            for n in range(-6, 7):
                ref = al_rhs_at(w, n)
                assert abs(rhs[n + 6] - ref) <= 1e-15 * abs(ref)

    @pytest.mark.parametrize("sites", [1, 2, 3, 9, 81])
    def test_out_keeps_the_bits_of_the_one_line_formula(self, sites):
        # al_rhs as it was written before it took out, against al_rhs with and
        # without out, on simulate's views of one buffer (q_{-n} a reversed view)
        # and on the rows of a 2-D grid, with signed zeros, infinities and NaN
        def formula(q, q_next, q_prev, q_mirror, sigma):
            return -1j * (q_next - 2.0 * q + q_prev
                          - sigma * q * np.conj(q_mirror) * (q_next + q_prev))

        rng = np.random.default_rng(sites)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e300, -1e-300, 1.0]
        for _ in range(200):
            parts = rng.standard_normal((2, 3, sites + 2)) * 10.0 ** rng.integers(-20, 20)
            for part in parts.reshape(-1, sites + 2):
                hit = rng.random(sites + 2) < 0.3
                part[hit] = rng.choice(special, hit.sum())
            u = np.empty((3, sites + 2), complex)
            u.real, u.imag = parts
            views = [(u[0, 1:-1], u[0, 2:], u[0, :-2], u[0, -2:0:-1]),
                     (u[:, 1:-1], u[:, 2:], u[:, :-2], u[::-1, 1:-1])]
            for args in views:
                for sigma in (1.0, -1.0):
                    with np.errstate(all="ignore"):
                        expected = formula(*args, sigma).tobytes()
                        out = np.empty(args[0].shape, complex)
                        assert al_rhs(*args, sigma).tobytes() == expected
                        assert al_rhs(*args, sigma, out) is out
                        assert out.tobytes() == expected

    def test_soliton_boundary_decay(self, case1_soliton):
        cfg, eigenset, norming = case1_soliton
        for t in (0.0, 2.0):
            for n in (-60, 60):
                q = ist.reconstruct(cfg, eigenset, norming, n, t)
                assert abs(abs(q) - cfg.q0) < 1e-6


class TestWindowInvariants:
    def test_windows_are_immutable(self):
        cfg = spectral.make_case(1, 0.5, 0.0)
        w = background_field(cfg, 0.0, 4)
        with pytest.raises(ValueError):
            w.q[0] = 0.0

    def test_length_validation(self):
        cfg = spectral.make_case(1, 0.5, 0.0)
        with pytest.raises(ValueError):
            lattice.PotentialWindow(cfg, 4, 0.0, np.zeros(5, dtype=complex))
