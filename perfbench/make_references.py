"""Write the reference artifacts the output checks compare against.

    python3 perfbench/make_references.py

Runs each workload's session once with the package under src/ and stores
what checks.py needs: reports and arrays that do not depend on the seed, and
for `scatter` the eigenvalues, Theta_-inf and branch points its closed-form
check uses.  Regenerate only when a change to the program is meant to
change its output, and say so in that change.
"""
from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

import checks
from harness import REFERENCES, ROOT, SCRATCH, load_cli, write_config
from workloads import WORKLOADS, Workload, smoke

SEED = 0


def _complex_pairs(values) -> list[list[float]]:
    return [[complex(v).real, complex(v).imag] for v in values]


def _run(cli, workload: Workload, command: str, outdir: str) -> None:
    argv = [command, "--config", write_config(workload, outdir), "--out",
            os.path.join(outdir, checks.OUTPUT.get(command, "eigs.json")),
            "--seed", str(SEED)]
    code = cli.main(argv)
    if code != checks.EXPECTED_EXIT:
        raise SystemExit(f"{workload.name} {command} exited {code}")


def references(cli, workload: Workload, scratch: str) -> tuple[dict, dict]:
    """(JSON references, named arrays) for one workload."""
    from dnls_ist.spectral import make_case

    refs, arrays = {}, {}
    for command in workload.commands:
        outdir = tempfile.mkdtemp(dir=scratch)
        _run(cli, workload, command, outdir)
        if command == "soliton":
            field = checks.read_field(os.path.join(outdir, checks.OUTPUT[command]))
            arrays.update({f"soliton.{k}": field[k] for k in ("n", "t", "singular", "q")})
            refs[command] = {}
        elif command == "evolve":
            report = checks.read_json(os.path.join(outdir, "report.json"))
            del report["trajectory_csv"]  # a per-invocation path
            traj = checks.read_trajectory(os.path.join(outdir, checks.TRAJECTORY))
            arrays.update({f"evolve.{k}": v for k, v in traj.items()})
            refs[command] = {"report": report}
        elif command == "verify":
            refs[command] = {"report": checks.read_json(os.path.join(outdir, "report.json"))}
        else:
            report = checks.read_json(os.path.join(outdir, "report.json"))
            _run(cli, workload, "eigs", outdir)
            eigs = checks.read_json(os.path.join(outdir, "eigs.json"))
            zeros, zbars = [], []
            for e in eigs["entries"]:
                keys = (("zeta", "zeta_conj"), ("zeta_bar", "zeta_bar_conj"))
                if e["kind"] == "pair":
                    keys = (("zeta",), ("zeta_bar",))
                zeros += [checks.num(e[k]) for k in keys[0]]
                zbars += [checks.num(e[k]) for k in keys[1]]
            config = cli.parse_config(workload.config)
            cfg = make_case(config.case, config.q0, config.theta_minus)
            refs[command] = {
                "zeros_t11": _complex_pairs(zeros),
                "zeros_t22": _complex_pairs(zbars),
                "theta_minus_inf": _complex_pairs([checks.num(report["theta_minus_inf"])])[0],
                "branch_points": _complex_pairs(cfg.branch_points),
                "zeta_samples": config.zeta_samples,
                "tolerance": report["tolerance"],
            }
    return refs, arrays


def write(root: Path, out: Path, shrink: bool = False) -> None:
    """Reference files for every workload, from the package under root/src."""
    cli = load_cli(root)
    out.mkdir(parents=True, exist_ok=True)
    (root / SCRATCH).mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=root / SCRATCH)
    try:
        for name, workload in WORKLOADS.items():
            refs, arrays = references(cli, smoke(workload) if shrink else workload, scratch)
            with open(out / f"{name}.json", "w", encoding="utf-8") as fh:
                json.dump(refs, fh, indent=1, sort_keys=True)
                fh.write("\n")
            if arrays:
                np.savez_compressed(out / f"{name}.npz", **arrays)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (root / SCRATCH).rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    write(ROOT, REFERENCES)
