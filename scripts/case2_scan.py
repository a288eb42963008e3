#!/usr/bin/env python3
"""The case-II discrete spectrum: each candidate family's least trace-limit violation.

Prints the closed-form infima of ist.case2_trace_infima at --q0.  All are
positive, so case II has no admissible discrete spectrum.
"""
import argparse

from dnls_ist import ist, spectral


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--q0", type=float, default=1.0)
    args = ap.parse_args()

    infima = ist.case2_trace_infima(spectral.make_case(2, args.q0, 0.0))
    for family, infimum in infima.items():
        print(f"{family:<16}: least violation {infimum:.17g}")
    print("no admissible discrete spectrum" if min(infima.values()) > 0
          else "UNEXPECTED: a violation reached zero")


if __name__ == "__main__":
    main()
