#!/usr/bin/env python3
"""Generate the case-I two-eigenvalue soliton field and its scattering report.

Writes case1_field.csv (|q| surface over the (n, t) grid) and prints the
round-trip scattering residuals.  Sweep --theta over {0, 2pi/5, pi} to move
through the dark-dark / bright-dark / bright-bright shapes.
"""
import argparse
import math

import numpy as np

from dnls_ist import ist, lattice, spectral
from dnls_ist.scattering import continuum_samples, scattering_report


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--q0", type=float, default=2.0 / 3.0)
    ap.add_argument("--theta", type=float, default=0.0)
    ap.add_argument("--eta1", type=float, default=math.pi + math.pi / 7.0)
    ap.add_argument("--kappa1", type=float, default=1.0)
    ap.add_argument("--N", type=int, default=60)
    ap.add_argument("--out", default="case1_field.csv")
    args = ap.parse_args()

    cfg = spectral.make_case(1, args.q0, args.theta)
    eigenset = ist.eigenvalues_case1(cfg, args.eta1)
    norming = ist.norming_case1(cfg, eigenset, args.kappa1, 0.0, 0.0)
    scan = ist.singularity_scan(cfg, eigenset, norming, n_range=(-10, 10),
                                t_span=(-6.0, 6.0), coarse_dt=0.25)
    print(f"eigenvalues: {eigenset.zeros_t11}")
    print(f"singular member: {scan.singular} (min|1/Theta| = {scan.min_theta_inv:.3e})")

    sites = np.arange(-args.N, args.N + 1)
    ts = np.linspace(-10.0, 10.0, 41)
    grid = ist.reconstruct_grid(cfg, eigenset, norming, sites[None, :], ts[:, None])
    ok = ~grid.singular
    with open(args.out, "w", newline="\n") as fh:
        fh.write("n,t,re_q,im_q,abs_q\n")
        for n, t, q in zip(grid.ns[ok], grid.ts[ok], grid.q[ok]):
            fh.write(f"{n},{t:.6f},{q.real:.12g},{q.imag:.12g},{abs(q):.12g}\n")
    print(f"field written to {args.out} ({int(grid.singular.sum())} singular cells left out)")

    if not scan.singular:
        q = ist.reconstruct_grid(cfg, eigenset, norming, sites, 0.0).require()
        window = lattice.PotentialWindow(cfg, args.N, 0.0, q)
        rep = scattering_report(window, continuum_samples(cfg, 10, seed=0), eigenset)
        print(f"|t11| at planted eigenvalues: {[f'{r:.2e}' for r in rep.eigenvalue_residuals]}")
        print(f"det T vs Theta_-inf: {rep.det_residual:.2e}")
        print(f"max |rho| on continuum: "
              f"{max(abs(r) for r in rep.rho):.2e}")


if __name__ == "__main__":
    main()
