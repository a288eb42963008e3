import math

import numpy as np
import pytest

from dnls_ist import ist, lattice, spectral, verify
from dnls_ist.errors import BlowupDetected, GridMismatch, SingularSolution
from dnls_ist.lattice import background_field, theta_products
from dnls_ist.verify import (Trajectory, compare, equation_residual, equation_residuals,
                             simulate)

from conftest import CASE1_ETA1, reconstruct_grid_sizes


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestEquationResidual:
    def test_background_exact(self):
        for case_id, q0 in ((1, 2.0 / 3.0), (3, 0.8)):
            cfg = spectral.make_case(case_id, q0, 0.2)
            rep = equation_residual(cfg.background, cfg, range(-10, 11), 0.5)
            assert rep.max_abs_residual < 1e-10

    def test_fourth_order_convergence(self):
        # at large h the truncation term dominates; halving h gains ~16x
        cfg = spectral.make_case(3, 0.9, 0.0)
        ev = cfg.background
        r1 = equation_residual(ev, cfg, range(-3, 4), 0.3, h=0.04)
        r2 = equation_residual(ev, cfg, range(-3, 4), 0.3, h=0.02)
        factor = r1.max_abs_residual / r2.max_abs_residual
        assert 12.0 < factor < 20.0

    def test_case1_soliton_config(self, case1_soliton):
        cfg, eigenset, norming = case1_soliton
        ev = ist.make_evaluator(cfg, eigenset, norming)
        for t in (-5.0, 0.0, 5.0):
            rep = equation_residual(ev, cfg, range(-12, 13), t)
            assert rep.max_abs_residual < 1e-6

    def test_case4_soliton_config(self, case4_soliton):
        cfg, eigenset, norming = case4_soliton
        ev = ist.make_evaluator(cfg, eigenset, norming)
        rep = equation_residual(ev, cfg, range(-12, 13), 0.0)
        assert rep.max_abs_residual < 1e-6

    def test_report_fields(self):
        cfg = spectral.make_case(1, 0.5, 0.0)
        rep = equation_residual(cfg.background, cfg, range(-5, 6), 0.0)
        assert rep.per_site.shape == (11,)
        assert rep.stencil_order == 4
        assert -5 <= rep.argmax_site <= 5

    def test_grid_and_plain_callable_agree(self, case1_soliton):
        # the batched evaluator against one scalar evaluator call per cell
        cfg, eigenset, norming = case1_soliton
        ev = ist.make_evaluator(cfg, eigenset, norming)
        cells = []

        def grid(ns, ts):
            cells.append(np.size(ns))
            return ev(ns, ts)

        plain = np.vectorize(lambda n, t: ev(int(n), float(t)), otypes=[complex])
        batched = equation_residual(grid, cfg, range(-15, 16), 0.3)
        looped = equation_residual(plain, cfg, range(-15, 16), 0.3)
        assert cells == [157]  # each distinct cell of the stencil set once
        assert batched.argmax_site == looped.argmax_site
        assert np.max(np.abs(batched.per_site - looped.per_site)) < 1e-9

    def test_vectorized_scalar_function_is_an_evaluator(self):
        # The documented way to hand a scalar (n, t) function to the oracles.
        cfg = spectral.make_case(4, 0.5, 0.3)
        ev = np.vectorize(lambda n, t: cfg.q_plus(t) if n >= 0 else cfg.q_minus(t),
                          otypes=[complex])
        a = equation_residual(ev, cfg, range(-5, 6), 0.4)
        b = equation_residual(cfg.background, cfg, range(-5, 6), 0.4)
        assert np.array_equal(a.per_site, b.per_site)


class TestEquationResiduals:
    TIMES = (-5.0, -1.3, 0.0, 2.7, 5.0)

    def test_equals_one_time_calls_bit_for_bit(self, case1_soliton):
        cfg, eigenset, norming = case1_soliton
        ev = ist.make_evaluator(cfg, eigenset, norming)
        reps = equation_residuals(ev, cfg, range(-15, 16), self.TIMES)
        assert [rep.t for rep in reps] == list(self.TIMES)
        for rep, t in zip(reps, self.TIMES):
            alone = equation_residual(ev, cfg, range(-15, 16), t)
            assert np.array_equal(bits(rep.per_site), bits(alone.per_site))
            assert (rep.max_abs_residual, rep.argmax_site, rep.t, rep.h) == (
                alone.max_abs_residual, alone.argmax_site, alone.t, alone.h)

    def test_one_reconstruct_grid_call(self, case1_soliton, monkeypatch):
        ev = ist.make_evaluator(*case1_soliton)
        sizes = reconstruct_grid_sizes(monkeypatch)
        equation_residuals(ev, case1_soliton[0], range(-15, 16), self.TIMES)
        assert sizes == [157 * len(self.TIMES)]


class TestSimulate:
    def test_background_fidelity(self):
        # constant backgrounds only; dt = 0.002 keeps the RK4 phase error
        # below the 1e-10 target
        cfg = spectral.make_case(1, 2.0 / 3.0, 0.3)
        traj = simulate(background_field(cfg, 0.0, 30), cfg, 1.0, 0.002)
        assert compare(traj, cfg.background) < 1e-10

    def test_boundary_sites_exact(self, case4_soliton):
        cfg, eigenset, norming = case4_soliton
        ev = ist.make_evaluator(cfg, eigenset, norming)
        N = 30
        w0 = lattice.PotentialWindow(cfg, N, 0.0,
                                     np.array([ev(n, 0.0) for n in range(-N, N + 1)]))
        traj = simulate(w0, cfg, 0.5, 0.01)
        t_end = float(traj.times[-1])
        for n in (-N, -N + 1, N - 1, N):
            expected = cfg.q_plus(t_end) if n >= 0 else cfg.q_minus(t_end)
            assert traj.states[-1][n + N] == pytest.approx(expected, rel=1e-14)

    def test_case4_cross_check(self, case4_soliton):
        cfg, eigenset, norming = case4_soliton
        ev = ist.make_evaluator(cfg, eigenset, norming)
        N = 40
        w0 = lattice.PotentialWindow(cfg, N, 0.0,
                                     np.array([ev(n, 0.0) for n in range(-N, N + 1)]))
        traj = simulate(w0, cfg, 1.0, 0.01)
        assert compare(traj, ev) < 1e-4

    def test_reversibility(self, case4_soliton):
        cfg, eigenset, norming = case4_soliton
        ev = ist.make_evaluator(cfg, eigenset, norming)
        N = 30
        w0 = lattice.PotentialWindow(cfg, N, 0.0,
                                     np.array([ev(n, 0.0) for n in range(-N, N + 1)]))
        fwd = simulate(w0, cfg, 0.5, 0.005)
        back = simulate(fwd.window(fwd.states.shape[0] - 1), cfg, 0.0, 0.005)
        assert np.max(np.abs(back.states[-1] - w0.q)) < 1e-6

    def test_blowup_detection(self):
        # the singular family member grows without bound under evolution
        cfg = spectral.make_case(1, 2.0 / 3.0, math.pi)
        eigenset = ist.eigenvalues_case1(cfg, CASE1_ETA1)
        norming = ist.norming_case1(cfg, eigenset, 1.0, 0.0, 0.0)
        ev = ist.make_evaluator(cfg, eigenset, norming)
        N = 30
        w0 = lattice.PotentialWindow(cfg, N, 0.0,
                                     np.array([ev(n, 0.0) for n in range(-N, N + 1)]))
        with pytest.raises(BlowupDetected):
            simulate(w0, cfg, 4.0, 0.01)

    def test_theta_conservation_surrogate(self, case4_soliton):
        # Theta_0 recomputed from the evolved field matches the linear system
        cfg, eigenset, norming = case4_soliton
        ev = ist.make_evaluator(cfg, eigenset, norming)
        N = 40
        w0 = lattice.PotentialWindow(cfg, N, 0.0,
                                     np.array([ev(n, 0.0) for n in range(-N, N + 1)]))
        traj = simulate(w0, cfg, 1.0, 0.01)
        k = traj.states.shape[0] - 1
        t = float(traj.times[k])
        theta_sim = theta_products(traj.window(k)).at(0)
        system = ist.build_system(cfg, eigenset, norming, 0, t)
        X = np.linalg.solve(system.B, system.Y)
        theta_ist = 1.0 / X[-1]
        assert abs(theta_sim - theta_ist) < 1e-3


class TestCompare:
    def test_self_comparison_is_zero(self, case4_soliton):
        cfg, eigenset, norming = case4_soliton
        w0 = background_field(cfg, 0.0, 10)
        traj = simulate(w0, cfg, 0.05, 0.01)
        assert compare(traj, traj) == 0.0

    def test_grid_and_plain_callable_agree(self, case4_soliton):
        cfg, eigenset, norming = case4_soliton
        ev = ist.make_evaluator(cfg, eigenset, norming)
        w0 = lattice.PotentialWindow(cfg, 10, 0.0, ev(np.arange(-10, 11), 0.0))
        traj = simulate(w0, cfg, 0.05, 0.01)
        assert compare(traj, ev) == pytest.approx(compare(traj, lambda n, t: ev(n, t)),
                                                  rel=1e-6, abs=1e-13)

    def test_grid_mismatch(self):
        cfg = spectral.make_case(1, 0.5, 0.0)
        t1 = simulate(background_field(cfg, 0.0, 10), cfg, 0.05, 0.01)
        t2 = simulate(background_field(cfg, 0.0, 12), cfg, 0.05, 0.01)
        with pytest.raises(GridMismatch):
            compare(t1, t2)

    def test_one_reconstruct_grid_call(self, case4_soliton, monkeypatch):
        cfg, eigenset, norming = case4_soliton
        ev = ist.make_evaluator(cfg, eigenset, norming)
        w0 = lattice.PotentialWindow(cfg, 10, 0.0, ev(np.arange(-10, 11), 0.0))
        traj = simulate(w0, cfg, 0.2, 0.01)
        sizes = reconstruct_grid_sizes(monkeypatch)
        deviation = compare(traj, ev)
        assert sizes == [21 * 21]
        rows = max(float(np.max(np.abs(traj.states[k] - ev(np.arange(-10, 11), t))))
                   for k, t in enumerate(traj.times.tolist()))
        assert deviation == rows

    def test_singular_cell_raises_the_row_loop_message(self):
        cfg = spectral.make_case(1, 2.0 / 3.0, math.pi)
        eigenset = ist.eigenvalues_case1(cfg, CASE1_ETA1)
        norming = ist.norming_case1(cfg, eigenset, 1.0, 0.0, 0.0)
        # Sites +-1 and +-4 have their poles at different times; in this row
        # order the first singular cell is (-1, row 1) time-major but (-4, row 2)
        # site-major.
        poles = [ist.singularity_scan(cfg, eigenset, norming, n_range=(n, n),
                                      t_span=(-10.0, 10.0), coarse_dt=0.25).at_time
                 for n in (1, 4)]
        N = 10
        times = np.array([0.0, *poles, 4.0])
        traj = Trajectory(cfg, N, times, np.zeros((times.size, 2 * N + 1), dtype=complex), 0.1)
        expected = None
        for t in times.tolist():  # the old loop: one reconstruct_grid call per time row
            grid = ist.reconstruct_grid(cfg, eigenset, norming, np.arange(-N, N + 1), t)
            if grid.singular.any():
                expected = str(grid.error(int(np.flatnonzero(grid.singular)[0])))
                break
        assert expected is not None
        with pytest.raises(SingularSolution) as info:
            compare(traj, ist.make_evaluator(cfg, eigenset, norming))
        assert str(info.value) == expected
