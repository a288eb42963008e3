#!/usr/bin/env python3
"""Case-IV first-order soliton: closed form vs linear system vs RK4.

The profile is bright for theta_plus + thbar1 in (0, pi/2)-ish and dark
beyond; the member at theta_plus + thbar1 = 0 carries an amplitude pole.
"""
import argparse
import math

import numpy as np

from dnls_ist import ist, lattice, spectral, verify


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--q0", type=float, default=2.0 / 3.0)
    ap.add_argument("--theta-plus", type=float, default=0.0)
    ap.add_argument("--thbar1", type=float, default=math.pi / 3.0)
    ap.add_argument("--N", type=int, default=40)
    ap.add_argument("--t-end", type=float, default=1.0)
    ap.add_argument("--dt", type=float, default=0.01)
    args = ap.parse_args()

    delta = math.pi
    cfg = spectral.make_case(4, args.q0, args.theta_plus - delta)
    eigenset = ist.eigenvalues_case4(cfg)
    norming = ist.norming_case4(cfg, eigenset, args.thbar1)
    ev = ist.make_evaluator(cfg, eigenset, norming)

    sites = np.arange(-args.N, args.N + 1)
    ts = np.linspace(0.0, args.t_end, 6)
    a = ev(sites[None, :], ts[:, None])
    b = ist.soliton_closed_form_case4(cfg, args.thbar1, sites[None, :], ts[:, None])
    worst = float(np.max(np.abs(a - b)))
    print(f"closed form vs 5x5 system: {worst:.3e}")

    q0_row = ev(sites, 0.0)
    prof = np.abs(q0_row)
    kind = "bright" if prof.max() > args.q0 + 1e-9 else "dark"
    print(f"profile at t=0: min {prof.min():.4f}, max {prof.max():.4f} ({kind})")

    w0 = lattice.PotentialWindow(cfg, args.N, 0.0, q0_row)
    traj = verify.simulate(w0, cfg, args.t_end, args.dt)
    print(f"RK4 deviation over [0, {args.t_end}]: {verify.compare(traj, ev):.3e}")
    rep = verify.equation_residual(ev, cfg, range(-20, 21), 0.5 * args.t_end)
    print(f"lattice-equation residual: {rep.max_abs_residual:.3e}")


if __name__ == "__main__":
    main()
