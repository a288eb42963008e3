"""The benchmark's workloads: one `ist` config plus an ordered list of commands.

Each session runs the commands one after another in a single process (a
closed loop with one client).  `--seed` is forwarded to `ist --seed`; only
`scatter` draws from it (the continuum zeta samples).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

# The load model is one client in one thread: IST_THREADS and every BLAS or
# OpenMP pool are pinned to 1.
THREAD_VARS = ("IST_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# ROADMAP config c1: the case-1 dark-dark quartet.
C1 = {
    "case": 1,
    "q0": 2.0 / 3.0,
    "theta": 0.0,
    "eta1": math.pi + math.pi / 7.0,
    "kappa1": 1.0,
    "thbar1": 0.0,
    "thbar2": 0.0,
    "N": 60,
    "t_grid": {"t0": -5.0, "t1": 5.0, "steps": 41},
    "zeta_samples": 20,
}

# The README case-4 bright soliton on a wide window.  N = 400 stays below
# the n ~ -600 overflow of the per-cell solve; evolve and verify cap their
# own window at 40 sites, so only scatter sees all 801 sites.
C4 = {
    "case": 4,
    "q0": 2.0 / 3.0,
    "theta_plus": 0.0,
    "thbar1": math.pi / 3.0,
    "N": 400,
    "t_grid": {"t0": 0.0, "t1": 1.0, "steps": 6},
    "dt": 0.01,
    "zeta_samples": 4,
}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    commands: tuple[str, ...]


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("inverse-c1", C1, ("soliton", "verify")),
        Workload("scatter-c1", C1, ("scatter",)),
        Workload("oracle-c4", C4, ("evolve", "verify", "scatter")),
    )
}

# Shrunken configs for the benchmark's own tests: the same commands and
# checks on a few cells and zeta, so a full session takes well under a second.
# N = 40 is about the narrowest c1 window whose truncation error stays inside
# the checks' tolerance.
_SMOKE = {
    "inverse-c1": {"N": 40, "t_grid": {"t0": -1.0, "t1": 1.0, "steps": 3},
                   "zeta_samples": 4},
    "scatter-c1": {"N": 40, "t_grid": {"t0": -1.0, "t1": 1.0, "steps": 3},
                   "zeta_samples": 4},
    "oracle-c4": {"N": 40, "t_grid": {"t0": 0.0, "t1": 0.1, "steps": 2},
                  "zeta_samples": 2},
}


def smoke(workload: Workload) -> Workload:
    """The workload with its shrunken test config."""
    return Workload(workload.name, {**workload.config, **_SMOKE[workload.name]},
                    workload.commands)
