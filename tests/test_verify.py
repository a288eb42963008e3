import functools
import math

import numpy as np
import pytest

from dnls_ist import ist, lattice, spectral, verify
from dnls_ist.errors import BlowupDetected, SingularSolution
from dnls_ist.lattice import background_field, theta_products
from dnls_ist.verify import (Trajectory, compare, equation_residual, equation_residuals,
                             equation_residuals_exact, simulate)

from conftest import (CASE1_ETA1, perturbed_background, reconstruct_grid_sizes,
                      simulate_reference)


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


def _old_equation_residuals(solution_evaluator, cfg, n_range, ts, h=1e-3):
    """The stencil oracle as it stood before the residual core was shared.

    The residual is |q_dot - dq/dt| with dq/dt written out as lattice.al_rhs
    writes it, not taken from it.
    """
    sites = np.array(list(n_range), dtype=int)
    K = sites.size
    at_t = np.unique(np.concatenate([sites - 1, sites, sites + 1, -sites]))
    ts = [float(t) for t in ts]
    stencil_ns = np.concatenate([np.tile(sites, 4), at_t])
    stencil_ts = np.array([np.concatenate([np.repeat([t + 2 * h, t + h, t - h, t - 2 * h], K),
                                           np.full(at_t.size, t)]) for t in ts])
    q = solution_evaluator(stencil_ns, stencil_ts.reshape(len(ts), stencil_ns.size))
    out = []
    for t, q_t in zip(ts, q):
        q2p, q1p, q1m, q2m = q_t[:4 * K].reshape(4, K)

        def at(ns):
            return q_t[4 * K + np.searchsorted(at_t, ns)]

        qp, qm, qn, qmir = at(sites + 1), at(sites - 1), at(sites), at(-sites)
        qdot = (-q2p + 8.0 * q1p - 8.0 * q1m + q2m) / (12.0 * h)
        res = np.abs(qdot - -1j * (qp - 2.0 * qn + qm
                                   - cfg.sigma * qn * np.conj(qmir) * (qp + qm)))
        i = int(np.argmax(res))
        out.append((float(res[i]), int(sites[i]), t, res, h))
    return out


class TestStencilAdapter:
    @pytest.mark.parametrize("n_range, h", [(range(-15, 16), 1e-3), (range(-4, 9), 0.02),
                                            (range(3, 7), 1e-3)])
    def test_bit_identical_to_the_old_oracle(self, case1_soliton, case4_soliton, n_range, h):
        ts = (-5.0, -1.3, 0.0, 2.7, 5.0)
        cfg3 = spectral.make_case(3, 0.9, 0.2)
        for cfg, ev in ((case1_soliton[0], ist.make_evaluator(*case1_soliton)),
                        (case4_soliton[0], ist.make_evaluator(*case4_soliton)),
                        (cfg3, cfg3.background)):
            old = _old_equation_residuals(ev, cfg, n_range, ts, h)
            new = equation_residuals(ev, cfg, n_range, ts, h)
            for (worst, site, t, per_site, h_old), rep in zip(old, new):
                assert np.array_equal(bits(rep.per_site), bits(per_site))
                assert (rep.max_abs_residual, rep.argmax_site, rep.t, rep.h) == (
                    worst, site, t, h_old)
            one = equation_residual(ev, cfg, n_range, ts[1], h)
            assert np.array_equal(bits(one.per_site), bits(old[1][3]))

    def test_empty_times(self, case1_soliton):
        ev = ist.make_evaluator(*case1_soliton)
        assert equation_residuals(ev, case1_soliton[0], range(-3, 4), []) == []


def _exact(cfg, eigenset, norming):
    return functools.partial(ist.reconstruct_with_derivative, cfg, eigenset, norming)


class TestExactResiduals:
    TIMES = np.linspace(-5.0, 5.0, 41)

    @pytest.mark.parametrize("fixture", ["case1_soliton", "case4_soliton"])
    def test_solution_passes_below_the_stencil(self, fixture, request):
        cfg, eigenset, norming = request.getfixturevalue(fixture)
        exact = equation_residuals_exact(_exact(cfg, eigenset, norming), cfg,
                                         range(-15, 16), self.TIMES)
        fd = equation_residuals(ist.make_evaluator(cfg, eigenset, norming), cfg,
                                range(-15, 16), self.TIMES)
        assert [rep.t for rep in exact] == list(self.TIMES)
        assert all(rep.h == 0.0 and rep.stencil_order == 0 for rep in exact)
        worst = max(rep.max_abs_residual for rep in exact)
        assert worst < 1e-10
        assert worst <= max(rep.max_abs_residual for rep in fd)

    def test_background(self):
        cfg = spectral.make_case(1, 2.0 / 3.0, 0.2)
        empty = ist.empty_eigenset(cfg)
        pair = _exact(cfg, empty, ist.unit_norming(cfg, empty))
        reps = equation_residuals_exact(pair, cfg, range(-10, 11), [0.0, 0.5])
        assert max(rep.max_abs_residual for rep in reps) < 1e-14

    # gamma(zbar_1) vanishes for the case-4 pair, so it is shifted, not scaled
    @pytest.mark.parametrize("fixture, wrong_gamma", [
        ("case1_soliton", lambda g: (1.0 + 1e-3) * g),
        ("case4_soliton", lambda g: g + 1e-3),
    ])
    def test_wrong_time_evolution_fails(self, fixture, wrong_gamma, request, monkeypatch):
        # the exact derivative is that of the computed field, so a norming
        # constant that evolves with a perturbed gamma breaks the equation
        cfg, eigenset, norming = request.getfixturevalue(fixture)
        monkeypatch.setattr(ist, "gamma", lambda c, z: wrong_gamma(spectral.gamma(c, z)))
        wrong = ist.NormingData(cfg, eigenset, norming.cbar0)
        reps = equation_residuals_exact(_exact(cfg, eigenset, wrong), cfg,
                                        range(-15, 16), self.TIMES)
        assert max(rep.max_abs_residual for rep in reps) > 1e-6

    def test_one_call_at_the_residual_cells(self, case1_soliton):
        calls = []
        pair = _exact(*case1_soliton)

        def counted(ns, ts):
            calls.append(np.broadcast(ns, ts).shape)
            return pair(ns, ts)

        equation_residuals_exact(counted, case1_soliton[0], range(-15, 16), self.TIMES)
        assert calls == [(41, 33)]


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
        w1 = lattice.PotentialWindow(cfg, N, float(fwd.times[-1]), fwd.states[-1])
        back = simulate(w1, cfg, 0.0, 0.005)
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

    def test_stage_overflow_is_a_blowup_not_a_warning(self):
        # the second RK4 step overflows inside its stages (|q| past 1e130)
        cfg = spectral.make_case(2, 4.0, 0.0)
        with pytest.raises(BlowupDetected, match="reached nan at step 2,"):
            simulate(background_field(cfg, 0.0, 4), cfg, 0.3, 0.1)

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
        theta_sim = theta_products(lattice.PotentialWindow(cfg, N, t, traj.states[k])).at(0)
        X = np.linalg.solve(*ist.build_system(cfg, eigenset, norming, 0, t))
        theta_ist = 1.0 / X[-1]
        assert abs(theta_sim - theta_ist) < 1e-3


def _rk4_runs():
    """(window, cfg, t_end, dt) per name."""
    c4 = spectral.make_case(4, 2.0 / 3.0, -math.pi)
    c4_set = ist.eigenvalues_case4(c4)
    c4_q = ist.make_evaluator(c4, c4_set, ist.norming_case4(c4, c4_set, math.pi / 3.0))
    c1 = spectral.make_case(1, 2.0 / 3.0, 0.0)
    c1_set = ist.eigenvalues_case1(c1, CASE1_ETA1)
    c1_q = ist.make_evaluator(c1, c1_set, ist.norming_case1(c1, c1_set, 1.0, 0.0, 0.0))
    sites = np.arange(-40, 41)
    c2 = spectral.make_case(2, 4.0, 0.0)
    c3 = spectral.make_case(3, 1.0, 0.0)
    return {
        "bench c4": (lattice.PotentialWindow(c4, 40, 0.0, c4_q(sites, 0.0)), c4, 1.0, 0.01),
        "c1": (lattice.PotentialWindow(c1, 40, -5.0, c1_q(sites, -5.0)), c1, 5.0, 0.01),
        "c1 backward": (lattice.PotentialWindow(c1, 40, 1.0, c1_q(sites, 1.0)), c1, -1.0, 0.05),
        "stage overflow": (background_field(c2, 0.0, 4), c2, 0.3, 0.1),
        "case 3 bump": (perturbed_background(c3, N=12), c3, 0.5, 0.01),
        "N 2": (perturbed_background(c4, N=2), c4, 0.2, 0.01),
        "N 1": (perturbed_background(c4, N=1), c4, 0.2, 0.01),
    }


_RK4_RUNS = _rk4_runs()


class TestSimulateReference:
    """RK4 on one buffer whose views are the neighbours, against the stepper that copies."""

    @pytest.mark.parametrize("name", list(_RK4_RUNS))
    def test_byte_for_byte(self, name):
        args = _RK4_RUNS[name]
        if name == "stage overflow":
            with pytest.raises(BlowupDetected) as expected:
                simulate_reference(*args)
            with pytest.raises(BlowupDetected) as got:
                simulate(*args)
            assert (str(got.value), got.value.step, got.value.t) == (
                str(expected.value), expected.value.step, expected.value.t)
            return
        expected = simulate_reference(*args)
        traj = simulate(*args)
        assert traj.N == expected.N
        assert traj.times.tobytes() == expected.times.tobytes()
        assert traj.states.tobytes() == expected.states.tobytes()


class TestCompare:
    def test_grid_and_plain_callable_agree(self, case4_soliton):
        cfg, eigenset, norming = case4_soliton
        ev = ist.make_evaluator(cfg, eigenset, norming)
        w0 = lattice.PotentialWindow(cfg, 10, 0.0, ev(np.arange(-10, 11), 0.0))
        traj = simulate(w0, cfg, 0.05, 0.01)
        assert compare(traj, ev) == pytest.approx(compare(traj, lambda n, t: ev(n, t)),
                                                  rel=1e-6, abs=1e-13)

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
        traj = Trajectory(N, times, np.zeros((times.size, 2 * N + 1), dtype=complex))
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


@pytest.mark.parametrize("oracle", ["simulate", "equation_residuals_exact"])
def test_oracles_take_the_equation_from_lattice(oracle, case4_soliton, monkeypatch):
    # lattice.al_rhs is the one definition of the lattice equation
    cfg, eigenset, norming = case4_soliton
    calls = []

    def counted(*args):
        calls.append(np.shape(args[0]))
        return lattice.al_rhs(*args)

    monkeypatch.setattr(verify, "al_rhs", counted)
    if oracle == "simulate":
        simulate(background_field(cfg, 0.0, 10), cfg, 0.05, 0.01)
        assert calls == [(21,)] * 4 * 5
    else:
        equation_residuals_exact(_exact(cfg, eigenset, norming), cfg, range(-3, 4), [0.0, 0.5])
        assert calls == [(2, 7)]
