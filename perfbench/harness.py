"""Run one workload: time its `ist` sessions, check their artifacts, report.

With --trace 0 the result carries the end-to-end metrics, measured with no
tracing installed.  With --trace 1 it carries the per-layer metrics: untraced
and traced sessions alternate (their difference is the tracing overhead),
then the layer microbenchmarks run.  Every invocation's artifacts are
checked in both modes; `failed` counts the invocations that exited with an
unexpected code or failed a check.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import micro
from calibration import measure
from tracing import Tracer
from workloads import THREAD_VARS, WORKLOADS, Workload, smoke

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references"
SCRATCH = ".bench_tmp"  # per-run temp dirs, under the checkout, removed on exit
SETUP_RUNS = 11
MIN_SESSIONS = 3
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from dnls_ist import cli; cli.load_config(sys.argv[2])")


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure, bad arguments)."""


@dataclass
class Session:
    seconds: dict[str, float]  # command -> calibrated time
    wall: dict[str, float]  # command -> raw wall time
    problems: list[str]
    failed: int
    artifact_bytes: int

    @property
    def total(self) -> float:
        return sum(self.seconds.values())


def load_cli(root: Path):
    """dnls_ist.cli imported from root/src, never from anywhere else."""
    src = root / "src"
    if not (src / "dnls_ist" / "__init__.py").is_file():
        raise BenchError(f"no dnls_ist package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("dnls_ist.cli")
    if Path(cli.__file__).resolve().parent != (src / "dnls_ist").resolve():
        raise BenchError(f"dnls_ist was imported from {cli.__file__}, not {src}")
    return cli


def write_config(workload: Workload, outdir: str) -> str:
    path = os.path.join(outdir, "config.json")
    config = {**workload.config,
              "outputs": {"trajectory_csv": os.path.join(outdir, checks.TRAJECTORY)}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    return path


def run_session(cli, workload: Workload, seed: int, scratch: str, refs: dict,
                periodic: bool = False) -> Session:
    """One session: each command in its own temp dir, timed, then checked.

    `periodic` samples the host speed during each command as well as around
    it (calibration.py); the traced run leaves it off, so that no sample
    lands inside a span.
    """
    gc.collect()
    session = Session({}, {}, [], 0, 0)
    for command in workload.commands:
        outdir = tempfile.mkdtemp(prefix=command + "-", dir=scratch)
        try:
            argv = [command, "--config", write_config(workload, outdir),
                    "--out", os.path.join(outdir, checks.OUTPUT[command]),
                    "--seed", str(seed)]

            def invoke():
                try:
                    return cli.main(argv)
                except Exception as exc:  # a traceback fails this invocation, not the run
                    return f"{type(exc).__name__}: {exc}"

            code, session.seconds[command], session.wall[command] = measure(invoke, periodic)
            problems = checks.check(command, code, outdir, refs, seed)
            session.artifact_bytes += sum(
                os.path.getsize(os.path.join(outdir, f))
                for f in os.listdir(outdir) if f != "config.json")
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        if problems:
            session.failed += 1
            session.problems += problems
    return session


def setup_seconds(root: Path, config_path: str, runs: int) -> float:
    """Median calibrated time of a fresh interpreter importing the CLI and loading the config."""
    times = []
    for _ in range(runs):
        proc, seconds, _ = measure(
            lambda: subprocess.run([sys.executable, "-c", SETUP_CODE, str(root / "src"),
                                    config_path], cwd=root, stdout=subprocess.DEVNULL,
                                   stderr=subprocess.PIPE, text=True),
            periodic=False)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()}")
        times.append(seconds)
    return statistics.median(times)


def layer_metrics(tracer: Tracer, session: Session) -> dict[str, tuple[float, str]]:
    """Per-layer counts and times of one traced session, as (value, unit)."""
    c, total, self_s = tracer.counts, tracer.total_s, tracer.self_s
    coeff_calls = c["scattering.scattering_coefficients.calls"]
    recon_calls = c["ist.reconstruct.calls"]
    return {
        "spectral.gamma.calls": (c["spectral.gamma.calls"], "count"),
        "spectral.lam_squared.calls": (c["spectral.lam_squared.calls"], "count"),
        "spectral.point_from_zeta.calls": (c["spectral.point_from_zeta.calls"], "count"),
        "spectral.self_s": (self_s["spectral"], "s"),
        "lattice.theta_products.calls": (c["lattice.theta_products.calls"], "count"),
        "lattice.theta_products.s": (total["lattice.theta_products"], "s"),
        "lattice.partner.calls": (c["lattice.partner.calls"], "count"),
        "lattice.self_s": (self_s["lattice"], "s"),
        "scattering.jost.calls": (c["scattering.jost.calls"], "count"),
        "scattering.jost.s": (total["scattering.jost"], "s"),
        "scattering.jost.steps": (c["scattering.jost.steps"], "count"),
        "scattering.scattering_coefficients.calls": (coeff_calls, "count"),
        "scattering.scattering_coefficients.s":
            (total["scattering.scattering_coefficients"], "s"),
        "scattering.scattering_report.s": (total["scattering.scattering_report"], "s"),
        "scattering.zeta_reuse":
            (len(tracer.zetas) / coeff_calls if coeff_calls else 0.0, "ratio"),
        "scattering.self_s": (self_s["scattering"], "s"),
        "ist.reconstruct.calls": (recon_calls, "count"),
        "ist.reconstruct.s": (total["ist.reconstruct"], "s"),
        "ist.reconstruct.singular":
            (c["ist.reconstruct.singular"] / recon_calls if recon_calls else 0.0, "ratio"),
        "ist.build_system.calls": (c["ist.build_system.calls"], "count"),
        "ist.cbar.calls": (c["ist.cbar.calls"], "count"),
        "ist.singularity_scan.solves": (c["ist.singularity_scan.solves"], "count"),
        "ist.soliton_closed_form_case4.calls":
            (c["ist.soliton_closed_form_case4.calls"], "count"),
        "ist.self_s": (self_s["ist"], "s"),
        "verify.simulate.steps": (c["verify.simulate.steps"], "count"),
        "verify.compare.evals": (c["verify.compare.evals"], "count"),
        "verify.equation_residual.evals": (c["verify.equation_residual.evals"], "count"),
        "cli.self_s": (self_s["cli"], "s"),
        "cli.dump_json.s": (total["cli.dump_json"], "s"),
        "cli.artifact_bytes": (session.artifact_bytes, "bytes"),
    }


def _summary(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "max": max(values), "n": len(values)}


def _git_commit(root: Path) -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(root: Path, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {"commit": _git_commit(root), "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}, "seed": seed}


def _measure(cli, wl, seed, seconds, scratch, refs, setup_s):
    sessions = [run_session(cli, wl, seed, scratch, refs)]  # warm-up, not timed
    end = perf_counter() + seconds
    timed = []
    while len(timed) < MIN_SESSIONS or perf_counter() < end:
        timed.append(run_session(cli, wl, seed, scratch, refs, periodic=True))
    metrics = {
        "setup_s": (setup_s, "s"),
        "session_s": (statistics.median(s.total for s in timed), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return sessions + timed, timed, metrics, []


def _measure_traced(cli, wl, seed, seconds, scratch, refs):
    sessions = [run_session(cli, wl, seed, scratch, refs)]  # warm-up, not timed
    untraced, traced = [], []
    end = perf_counter() + seconds
    while len(traced) < 2 or perf_counter() < end:
        untraced.append(run_session(cli, wl, seed, scratch, refs))
        tracer = Tracer()
        with tracer.installed():
            session = run_session(cli, wl, seed, scratch, refs)
        traced.append((session, layer_metrics(tracer, session)))
    internal = []
    first = traced[0][1]
    for _, layers in traced[1:]:
        for name, (value, unit) in layers.items():
            if unit != "s" and value != first[name][0]:
                internal.append(f"per-layer count {name} differs between traced "
                                f"sessions: {value} != {first[name][0]}")
    metrics = {name: (statistics.median(layers[name][0] for _, layers in traced)
                      if unit == "s" else value, unit)
               for name, (value, unit) in first.items()}
    metrics["trace_overhead_s"] = (
        statistics.median(s.total for s, _ in traced)
        - statistics.median(s.total for s in untraced), "s")
    metrics.update({name: (value, "s") for name, value in micro.run().items()})
    all_sessions = sessions + untraced + [s for s, _ in traced]
    return all_sessions, untraced, metrics, internal


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path = ROOT,
        references: Path = REFERENCES, shrink: bool = False) -> tuple[dict, dict]:
    """(details, result) of one benchmark run; `shrink` uses the smoke configs."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    wl = smoke(WORKLOADS[workload]) if shrink else WORKLOADS[workload]
    cli = load_cli(root)
    refs = checks.load_references(str(references), workload)
    (root / SCRATCH).mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=root / SCRATCH)
    try:
        if trace:
            sessions, timed, metrics, internal = _measure_traced(
                cli, wl, seed, seconds, scratch, refs)
        else:
            config = write_config(wl, tempfile.mkdtemp(prefix="setup-", dir=scratch))
            setup_s = setup_seconds(root, config, 2 if shrink else SETUP_RUNS)
            sessions, timed, metrics, internal = _measure(
                cli, wl, seed, seconds, scratch, refs, setup_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (root / SCRATCH).rmdir()
        except OSError:  # another run still uses it
            pass
    attempted = sum(len(s.seconds) for s in sessions)
    failed = sum(s.failed for s in sessions)
    problems = internal + [p for s in sessions for p in s.problems]
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "provenance": provenance(root, seed),
        "session_s": _summary([s.total for s in timed]),
        "session_wall_s": _summary([sum(s.wall.values()) for s in timed]),
        "commands": {c: _summary([s.seconds[c] for s in timed]) for c in wl.commands},
        "commands_wall": {c: _summary([s.wall[c] for s in timed]) for c in wl.commands},
        "failed_frac": failed / attempted,
        "problems": problems[:20],
    }
    result = {"correct": failed == 0 and not internal, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, help=", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        details, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(details))
    print(json.dumps(result))
    return 0
