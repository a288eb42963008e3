#!/usr/bin/env python3
"""Compare every output of the `ist` commands between two checkouts.

    python scripts/artifact_diff.py BASE CHANGE

Each checkout runs in its own subprocess with its own `src/` first on the
path, the two at once.  Each runs `eigs`, `soliton`, `scatter` (seeds 0
and 5), `verify` and `evolve` on each config in CONFIGS, each config in its own
directory (with its FIELD_CSVS entry, if it has one, as `field.csv` beside
its `config.json`), and keeps every output: the `--out` artifact, the
trajectory CSV, stdout, stderr and the exit code (or the exception, if one
escapes).
On c1 it also runs `scatter` and `verify` with no `--out`, so that their
reports go to stdout.
The two output trees must be byte-identical; the script lists each file
that differs and exits 1 if any does, 0 otherwise.  For a file on both
sides whose text matches once each number is taken out, it prints the
largest change of any number, |change - base| / max(1, |base|); otherwise
it says that the text differs.
"""
import argparse
import contextlib
import io
import json
import math
import os
import re
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
SMALL = {"N": 10, "t_grid": {"t0": 0.0, "t1": 1.0, "steps": 3}}
CONFIGS = {
    "c1": C1,
    "bench-c4": {**README_C4, "N": 400, "zeta_samples": 4},
    "readme-c4": README_C4,
    "pole-member": {**C1, "theta": math.pi},  # theta + thbar1 = pi: a real-time pole
    "c4-theta0": {key: value for key, value in README_C4.items()
                  if key not in ("theta_plus", "thbar1")} | {"theta": 0.0},
    "c1-J0": {**C1, "J": 0},
    # a case-3 empty soliton spectrum, which every command runs, evolve included
    "c3-J0": {"case": 3, "q0": 1.0, "J": 0, **SMALL},
    # the background of a config that names a quartet: no command reads eta1
    "c1-background": {**C1, "field": {"source": "background"}},
    # verify reads each check's own pass: here every scattering check fails while
    # the residual passes
    "c1-scattering-tol0": {**C1, "tolerances": {"scattering": 0.0}},
    # the Delta theta = pi step background: its residual fails, it has no closed
    # form, and verify and evolve scan its empty spectrum in case 4
    "c4-background": {**README_C4, "field": {"source": "background"}},
    "c2-q0-1": {"case": 2, "q0": 1.0, "N": 40,
                "t_grid": {"t0": 0.0, "t1": 1.0, "steps": 3}, "dt": 0.01},
    # RK4 overflows inside the stages of its second step: evolve's blow-up exit
    "c2-stage-overflow": {"case": 2, "q0": 4.0, "theta": 0.0, "N": 4,
                          "field": {"source": "background"},
                          "t_grid": {"t0": 0.0, "t1": 0.3, "steps": 2}, "dt": 0.1},
    # wide windows: the solve of the far cells overflows (from n ~ -1000 on c1 and
    # n = -440 on c4), so these take the background of the far field instead
    "c1-N1200": {**C1, "N": 1200, "t_grid": {"t0": -5.0, "t1": 5.0, "steps": 2}},
    "readme-c4-N2000": {**README_C4, "N": 2000},
    # case 4 far from t = 0, where each field is its t = 0 solve turned by the
    # background's phase; evolve takes 10,000 RK4 steps on each (dt 0.1 on 0..1000)
    "readme-c4-t1000": {**README_C4, "t_grid": {"t0": 0.0, "t1": 1000.0, "steps": 11},
                        "dt": 0.1},
    "readme-c4-t50": {**README_C4, "t_grid": {"t0": -50.0, "t1": 50.0, "steps": 11}},
    # no t_grid time is 0, the one time a stationary spectrum's scan sweeps, so
    # verify's residual solve cannot serve that sweep
    "readme-c4-t-off0": {**README_C4, "t_grid": {"t0": 0.1, "t1": 1.1, "steps": 6}},
    # both at once: the far cells of a wide window, turned to large t
    "readme-c4-N2000-t1000": {**README_C4, "N": 2000,
                              "t_grid": {"t0": 0.0, "t1": 1000.0, "steps": 11}, "dt": 0.1},
    # c1 on t -20..20: the far-field thresholds move about 0.9 sites per unit of t,
    # so the grid puts cells on each side of them at many offsets
    "c1-t20": {**C1, "t_grid": {"t0": -20.0, "t1": 20.0, "steps": 41}},
    # verify's singularity scan reads the cells of its residual solve that lie on
    # its 0.25 grid (-6..6): six times of 35 here, none on the next, every scan
    # time on the one after, and a member next to the theta + thbar1 = pi pole
    "c1-t-offgrid": {**C1, "t_grid": {"t0": -5.1, "t1": 5.1, "steps": 35}},
    "c1-t-nomatch": {**C1, "t_grid": {"t0": -5.05, "t1": 5.05, "steps": 34}},
    "c1-t-wide": {**C1, "t_grid": {"t0": -8.0, "t1": 8.0, "steps": 65}},
    "c1-near-pole": {**C1, "theta": math.pi - 1e-6},
    # every cell of the soliton grid overflows at t = 1000: soliton exits 4
    "c1-t1000": {**C1, "N": 3, "t_grid": {"t0": 1000.0, "t1": 1000.0, "steps": 3}},
    # an empty spectrum's times are not bounded, but its phase rotation t
    # overflows at t = 1.5e308: soliton and verify exit 2
    "c1-J0-phase-overflow": {"case": 1, "q0": 0.9, "theta": 0.0, "J": 0, "N": 1,
                             "t_grid": {"t0": 0.0, "t1": 1.5e308, "steps": 2}},
    # thbar2 left out: it defaults to thbar1 (0.3 here), as the reduction requires
    "c1-thbar1-only": {key: value for key, value in C1.items() if key != "thbar2"}
    | {"thbar1": 0.3},
    # a quartet near the real axis: its double limiting system misses q_minus by
    # 4.7e-11, inside the admission tolerance, so its left far field fills from
    # n = -19 on, where the block solve is up to 4.5e-11 off and overflows from
    # n = -301 (at N = 2000 on 69,681 cells)
    "c1-near-axis": {**C1, "q0": 0.82, "eta1": 3.14287, "N": 300},
    "c1-near-axis-N2000": {**C1, "q0": 0.82, "eta1": 3.14287, "N": 2000},
    # eta1 = pi puts the quartet on the real axis: eigs reports it, the rest exit 3
    "c1-eta1-pi": {"case": 1, "q0": 0.5, "theta": 0.0, "eta1": math.pi, "N": 20},
    # |q_n r_n| = -1 at every site, where det_n = 2 x00 x11: the bound on det_n
    # that keeps its phase certifies the sweep (one that compares moduli declines it)
    "c3-q0-1-background": {"case": 3, "q0": 1.0, "N": 20, "field": {"source": "background"},
                           "t_grid": {"t0": 0.0, "t1": 1.0, "steps": 3}, "dt": 0.01,
                           "zeta_samples": 4},
    # Config errors, one per message family: stderr and the exit code are outputs too.
    "bad-unknown-key": {**README_C4, "bogus": 1},
    "bad-kind": {**README_C4, "N": "40"},
    "bad-bound": {**README_C4, "dt": 0},
    "bad-sub-object": {**README_C4, "t_grid": [0.0, 1.0]},
    "bad-field-source": {**README_C4, "field": {"source": "file"}},
    "bad-csv-without-path": {**README_C4, "field": {"source": "csv"}},
    "bad-two-keys": {**README_C4, "case": 0, "eta1": "x"},
    # Sizes over their caps (a huge t_grid.steps is left out: before its cap
    # it builds a list of that many times).
    "bad-N-huge": {**README_C4, "N": 10**15},
    "bad-zeta-samples-huge": {**README_C4, "zeta_samples": 10**15},
    # a field path that only source csv reads
    "bad-unread-path": {**README_C4, "field": {"source": "background", "path": "f.csv"}},
    # One config per case rule the CLI reads: a case-3 spectrum with no
    # norming constants (eigs exits 0, the rest 3), each eigenvalue key
    # missing, one J each case does not admit, and a theta_plus that maps to
    # theta_minus through case 2's Delta theta = pi.
    "c3-q0-1-zeta-hat-3": {"case": 3, "q0": 1.0, "zeta_hat_1": 3.0, **SMALL},
    "c1-no-eta1": {"case": 1, "q0": 2.0 / 3.0, **SMALL},
    "c3-no-zeta-hat-1": {"case": 3, "q0": 1.0, **SMALL},
    "c1-J3": {**C1, **SMALL, "J": 3},
    "c2-J3": {"case": 2, "q0": 1.0, **SMALL, "J": 3},
    "c3-J1": {"case": 3, "q0": 1.0, "zeta_hat_1": 3.0, **SMALL, "J": 1},
    "c4-J2": {**README_C4, **SMALL, "J": 2},
    "c2-theta-plus-background": {"case": 2, "q0": 0.5, "theta_plus": 1.0, **SMALL,
                                 "field": {"source": "background"}},
    # t1 - t0 overflows; t1 - t0 is finite but (t1 - t0) / dt is not
    "bad-t-span-huge": {**README_C4, "N": 10, "t_grid": {"t0": -1e308, "t1": 1e308, "steps": 3}},
    "bad-t-steps-huge": {**README_C4, "N": 10, "t_grid": {"t0": 0.0, "t1": 1e308, "steps": 3}},
    # Fields read from a CSV (FIELD_CSVS): a non-finite entry, one whose Theta_n
    # overflows, a site missing, seven sites past the window (more than the five
    # that its error names), and a missing file, which evolve must refuse to ignore.
    **{name: {**README_C4, "N": 10, "field": {"source": "csv", "path": "field.csv"}}
       for name in ("csv-inf-row", "csv-1e300-row", "csv-missing-site", "csv-extra-sites")},
    "csv-missing": {**README_C4, "field": {"source": "csv", "path": "missing.csv"}},
}


def _field_csv(entries: dict, sites=range(-10, 11)) -> str:
    """A field CSV on sites (-10..10 by default) at t = 0, q_n = 2/3 for n >= 0 and
    -2/3 for n < 0, with the (re_q, im_q) text of each site in entries in place of
    its own."""
    rows = {n: (repr(2.0 / 3.0 if n >= 0 else -2.0 / 3.0), "0.0") for n in sites}
    rows.update(entries)
    return "n,t,re_q,im_q,abs_q\n" + "".join(
        f"{n},0,{re},{im},0\n" for n, (re, im) in rows.items())


FIELD_CSVS = {"csv-inf-row": _field_csv({3: ("inf", "0.0")}),
              "csv-1e300-row": _field_csv({3: ("1e300", "0.0")}),
              "csv-missing-site": _field_csv({}, [n for n in range(-10, 11) if n != 4]),
              "csv-extra-sites": _field_csv({}, range(-10, 18))}
RUNS = [("eigs", 0), ("soliton", 0), ("scatter", 0), ("scatter", 5), ("verify", 0),
        ("evolve", 0)]
STDOUT_RUNS = {"c1": [("scatter", 0), ("verify", 0)]}  # by config, run with no --out


# A decimal number that is not part of a word (t11, c1-N1200 and the like).
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def change_size(base: bytes, change: bytes) -> str:
    """How a file differs: its largest numeric change if its other text matches."""
    texts = [side.decode("utf-8", "replace") for side in (base, change)]
    (base_text, change_text), numbers = ([_NUMBER.split(t) for t in texts],
                                         [[float(x) for x in _NUMBER.findall(t)] for t in texts])
    if base_text != change_text:
        return "text differs"
    largest = 0.0
    for old, new in zip(*numbers):
        if old != new:
            size = abs(new - old) / max(1.0, abs(old))
            largest = max(largest, size if math.isfinite(size) else math.inf)
    return f"largest change {largest:.2g}, text matches"


def collect() -> None:
    """Run every command on every config, below the working directory."""
    from dnls_ist import cli
    for name, config in CONFIGS.items():
        os.makedirs(name)
        os.chdir(name)
        Path("config.json").write_text(json.dumps(config), encoding="utf-8")
        if name in FIELD_CSVS:
            Path("field.csv").write_text(FIELD_CSVS[name], encoding="utf-8")
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


def start(checkout: Path, into: Path):
    """Start one checkout's run in the empty directory into; the returned
    function waits for it and gives every output file, by relative path."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    log = into.with_suffix(".stderr")  # beside into, so not an output
    with open(log, "w", encoding="utf-8") as err:
        proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--collect"],
                                cwd=into, env=env, stdout=subprocess.DEVNULL, stderr=err)

    def outputs() -> dict[str, bytes]:
        if proc.wait() != 0:
            raise SystemExit(f"{checkout}: the run failed\n{log.read_text(encoding='utf-8')}")
        return {str(p.relative_to(into)): p.read_bytes().replace(
                    str(checkout.resolve()).encode(), b"<checkout>")
                for p in sorted(into.rglob("*")) if p.is_file()}
    return outputs


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
    # a failed run exits while the other may still be writing below tmp
    with tempfile.TemporaryDirectory(ignore_cleanup_errors=True) as tmp:
        runs = []  # both run at once; base is read first
        for side, checkout in (("base", args.base), ("change", args.change)):
            (Path(tmp) / side).mkdir()
            runs.append(start(checkout, Path(tmp) / side))
        base, change = (outputs() for outputs in runs)
    differ = sorted(path for path in base.keys() | change.keys()
                    if base.get(path) != change.get(path))
    for path in differ:
        if path not in base or path not in change:
            print(f"differs: {path}: only in {'change' if path in change else 'base'}")
        else:
            print(f"differs: {path}: {change_size(base[path], change[path])}")
    print(f"{len(base)} outputs compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
