#!/usr/bin/env python3
"""Peak memory and time of the soliton grid at the grid cap, on c1 and README c4.

    python scripts/cap_memory.py [--N 9999] [--steps 100]

Each config (artifact_diff's C1 and README_C4) gets N and its t_grid gets
steps; the defaults make 1,999,900 cells, the most under
cli.MAX_GRID_CELLS.  For each, one line gives three measurements:
- the tracemalloc peak of cli._field_grid, in process, and the wall time
  of an untraced call;
- the peak RSS (ru_maxrss) of `ist soliton` writing the grid's CSV, in a
  fresh interpreter;
- that of `ist eigs` on the same config, which is the import alone.

The package is imported from this checkout's src/.  The children run one
at a time, before this process imports the package: Linux counts the peak
RSS of the process that spawns a child in the child's ru_maxrss.  At the
cap each `ist soliton` child peaks at a few hundred MiB.
"""
import argparse
import json
import os
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from artifact_diff import C1, README_C4  # noqa: E402

CONFIGS = {"c1": C1, "README c4": README_C4}


def field_grid(doc):
    """(tracemalloc peak in MiB, wall time in s) of cli._field_grid on doc."""
    from dnls_ist import cli

    config = cli.parse_config(doc)
    cfg = cli._case_config(config)
    eigenset, norming = cli._eigen_data(config, cfg)
    start = time.perf_counter()
    cli._field_grid(config, cfg, eigenset, norming)
    seconds = time.perf_counter() - start
    tracemalloc.start()
    try:
        cli._field_grid(config, cfg, eigenset, norming)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20, seconds


def child_maxrss(command, config_path, out_path):
    """ru_maxrss in MiB of `ist command` run in a fresh interpreter; raises if it fails."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "dnls_ist.cli", command,
                                          "--config", config_path, "--out", out_path], env,
                         file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code:
        raise SystemExit(f"ist {command} exited {code} on {config_path}")
    return usage.ru_maxrss / 1024  # KiB on Linux


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--N", type=int, default=9999)
    ap.add_argument("--steps", type=int, default=100)
    args = ap.parse_args(argv)
    docs = {name: {**base, "N": args.N, "t_grid": {**base["t_grid"], "steps": args.steps}}
            for name, base in CONFIGS.items()}
    rss = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in docs.items():
            config_path = os.path.join(tmp, "config.json")
            Path(config_path).write_text(json.dumps(doc), encoding="utf-8")
            rss[name] = [child_maxrss(command, config_path, os.path.join(tmp, command))
                         for command in ("soliton", "eigs")]
    for name, doc in docs.items():
        peak, seconds = field_grid(doc)
        print(f"{name}: N={args.N} steps={args.steps} cells={(2 * args.N + 1) * args.steps}: "
              f"_field_grid tracemalloc peak {peak:.1f} MiB, {seconds:.2f} s; "
              "ist soliton ru_maxrss {:.0f} MiB; ist eigs ru_maxrss {:.0f} MiB".format(*rss[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
