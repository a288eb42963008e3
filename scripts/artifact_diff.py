#!/usr/bin/env python3
"""Compare every output of the `ist` commands between two checkouts.

    python scripts/artifact_diff.py BASE CHANGE

Each checkout runs in its own subprocess with its own `src/` first on the
path.  The subprocess runs `eigs`, `soliton`, `scatter` (seeds 0 and 5),
`verify` and `evolve` on each config in CONFIGS, each config in its own
directory, and keeps every output: the `--out` artifact, the trajectory
CSV, stdout, stderr and the exit code (or the exception, if one escapes).
On c1 it also runs `scatter` and `verify` with no `--out`, so that their
reports go to stdout.
The two output trees must be byte-identical; the script lists each file
that differs and exits 1 if any does, 0 otherwise.
"""
import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

C1 = {"case": 1, "q0": 2.0 / 3.0, "theta": 0.0, "eta1": math.pi + math.pi / 7.0,
      "kappa1": 1.0, "thbar1": 0.0, "thbar2": 0.0, "N": 60,
      "t_grid": {"t0": -5.0, "t1": 5.0, "steps": 41}, "zeta_samples": 20}
README_C4 = {"case": 4, "q0": 2.0 / 3.0, "theta_plus": 0.0, "thbar1": math.pi / 3.0,
             "N": 40, "t_grid": {"t0": 0.0, "t1": 1.0, "steps": 6}, "dt": 0.01}
CONFIGS = {
    "c1": C1,
    "bench-c4": {**README_C4, "N": 400, "zeta_samples": 4},
    "readme-c4": README_C4,
    "pole-member": {**C1, "theta": math.pi},  # theta + thbar1 = pi: a real-time pole
    "c4-theta0": {key: value for key, value in README_C4.items()
                  if key not in ("theta_plus", "thbar1")} | {"theta": 0.0},
    "c1-J0": {**C1, "J": 0},
    "c2-q0-1": {"case": 2, "q0": 1.0, "N": 40,
                "t_grid": {"t0": 0.0, "t1": 1.0, "steps": 3}, "dt": 0.01},
    # RK4 overflows inside the stages of its second step: evolve's blow-up exit
    "c2-stage-overflow": {"case": 2, "q0": 4.0, "theta": 0.0, "N": 4,
                          "field": {"source": "background"},
                          "t_grid": {"t0": 0.0, "t1": 0.3, "steps": 2}, "dt": 0.1},
    # the cells at n <~ -1000 overflow, so soliton writes singular rows
    "c1-N1200": {**C1, "N": 1200, "t_grid": {"t0": -5.0, "t1": 5.0, "steps": 2}},
}
RUNS = [("eigs", 0), ("soliton", 0), ("scatter", 0), ("scatter", 5), ("verify", 0),
        ("evolve", 0)]
STDOUT_RUNS = {"c1": [("scatter", 0), ("verify", 0)]}  # by config, run with no --out


def collect() -> None:
    """Run every command on every config, below the working directory."""
    from dnls_ist import cli
    for name, config in CONFIGS.items():
        os.makedirs(name)
        os.chdir(name)
        Path("config.json").write_text(json.dumps(config), encoding="utf-8")
        runs = [(command, seed, True) for command, seed in RUNS]
        runs += [(command, seed, False) for command, seed in STDOUT_RUNS.get(name, [])]
        for command, seed, to_file in runs:
            run = f"{command}-{seed}" + ("" if to_file else "-stdout")
            argv = [command, "--config", "config.json", "--seed", str(seed)]
            argv += ["--out", f"{run}.out"] if to_file else []
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = repr(cli.main(argv))
                except BaseException:  # noqa: BLE001 - an escaped error is an output too
                    code = traceback.format_exc(limit=0)
            for suffix, text in (("stdout", out.getvalue()), ("stderr", err.getvalue()),
                                 ("exit", code)):
                Path(f"{run}.{suffix}").write_text(text, encoding="utf-8")
            if os.path.exists("trajectory.csv"):
                os.replace("trajectory.csv", f"{run}.trajectory.csv")
        os.chdir("..")


def outputs(checkout: Path, into: Path) -> dict[str, bytes]:
    """Every output file of one checkout's run, by relative path."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--collect"],
                          cwd=into, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: the run failed\n{proc.stderr}")
    return {str(p.relative_to(into)): p.read_bytes().replace(
                str(checkout.resolve()).encode(), b"<checkout>")
            for p in sorted(into.rglob("*")) if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--collect", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        collect()
        return 0
    if args.base is None or args.change is None:
        parser.error("BASE and CHANGE checkouts are required")
    with tempfile.TemporaryDirectory() as tmp:
        trees = []
        for side, checkout in (("base", args.base), ("change", args.change)):
            (Path(tmp) / side).mkdir()
            trees.append(outputs(checkout, Path(tmp) / side))
    base, change = trees
    differ = sorted(path for path in base.keys() | change.keys()
                    if base.get(path) != change.get(path))
    for path in differ:
        print(f"differs: {path}")
    print(f"{len(base)} outputs compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
