"""Output checks: every artifact a command writes, against stored references.

Numbers match when |x - ref| <= TOL * max(1, |ref|).  Byte identity is not
required, because a batched or reordered computation moves the last bits.
Counts, flags, exit codes and the singular-cell count must match exactly.

`scatter` draws its zeta samples from the seed, so its report cannot be
stored once.  It is checked against closed forms instead: the zeta grid is
redrawn here from the seed, and for a reflectionless potential
t11 = prod (zeta - z_j) / (zeta - zbar_j), t22 = Theta_-inf / t11,
det T = Theta_-inf and t21, t12, rho, rho_bar vanish.  The eigenvalues and
Theta_-inf come from the references.
"""
from __future__ import annotations

import cmath
import json
import math
import os

import numpy as np

TOL = 1e-9
EXPECTED_EXIT = 0
OUTPUT = {"soliton": "field.csv", "verify": "report.json",
          "scatter": "report.json", "evolve": "report.json"}
TRAJECTORY = "trajectory.csv"
SAMPLE_OFFSET = 1e-6
BRANCH_NUDGE = (0.05, 0.1)


def load_references(ref_dir: str, workload: str) -> dict:
    """Per-command reference dicts; arrays from the .npz join as 'key' entries."""
    with open(os.path.join(ref_dir, f"{workload}.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    npz = os.path.join(ref_dir, f"{workload}.npz")
    if os.path.exists(npz):
        with np.load(npz) as arrays:
            for key in arrays.files:
                command, name = key.split(".", 1)
                refs[command][name] = arrays[key]
    return refs


def num(x):
    """A number as `ist` writes it: complex as {re, im}, nan/inf as strings."""
    if isinstance(x, dict):
        return complex(x["re"], x["im"])
    return float(x)


def _close(x, ref) -> bool:
    if isinstance(ref, float) and math.isnan(ref):
        return isinstance(x, float) and math.isnan(x)
    return abs(x - ref) <= TOL * max(1.0, abs(ref))


def match(out, ref, path: str = "") -> list[str]:
    """Problems where `out` differs from `ref`; keys `ref` lacks are ignored."""
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            return [f"{path}: expected an object"]
        problems = []
        for key, val in ref.items():
            if key not in out:
                problems.append(f"{path}.{key}: missing")
            else:
                problems += match(out[key], val, f"{path}.{key}")
        return problems
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        return [p for i, (o, r) in enumerate(zip(out, ref))
                for p in match(o, r, f"{path}[{i}]")]
    if isinstance(ref, (bool, str)) or ref is None:
        return [] if out == ref else [f"{path}: {out!r} != {ref!r}"]
    if isinstance(out, bool) or not isinstance(out, (int, float, str)):
        return [f"{path}: expected a number"]
    return [] if _close(num(out), float(ref)) else [f"{path}: {out!r} != {ref!r}"]


def read_csv(path: str, header: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    lines = text.split("\n")
    if lines[0] != header or lines[-1] != "":
        raise ValueError(f"{os.path.basename(path)}: bad header or missing final LF")
    return [ln.split(",") for ln in lines[1:-1]]


def _array_problems(name: str, got: np.ndarray, ref: np.ndarray) -> list[str]:
    if got.shape != ref.shape:
        return [f"{name}: shape {got.shape} != {ref.shape}"]
    bad = np.abs(got - ref) > TOL * np.maximum(1.0, np.abs(ref))
    if np.any(bad):
        i = int(np.argmax(bad))
        return [f"{name}: {int(bad.sum())} values differ, first at row {i}: "
                f"{got.flat[i]!r} != {ref.flat[i]!r}"]
    return []


def read_field(path: str) -> dict[str, np.ndarray]:
    """The columns of a `soliton` CSV; q and |q| read 0 on singular cells."""
    rows = read_csv(path, "n,t,re_q,im_q,abs_q,singular")
    singular = np.array([int(r[5]) for r in rows], dtype=int)
    return {
        "n": np.array([int(r[0]) for r in rows], dtype=int),
        "t": np.array([float(r[1]) for r in rows]),
        "singular": singular,
        "q": np.array([complex(float(r[2]), float(r[3])) if s == 0 else 0j
                       for r, s in zip(rows, singular)], dtype=complex),
        "abs_q": np.array([float(r[4]) if s == 0 else 0.0
                           for r, s in zip(rows, singular)]),
    }


def read_trajectory(path: str) -> dict[str, np.ndarray]:
    """The columns of an `evolve` trajectory CSV."""
    rows = read_csv(path, "step,t,n,re_q,im_q")
    return {
        "step": np.array([int(r[0]) for r in rows], dtype=int),
        "t": np.array([float(r[1]) for r in rows]),
        "n": np.array([int(r[2]) for r in rows], dtype=int),
        "q": np.array([complex(float(r[3]), float(r[4])) for r in rows], dtype=complex),
    }


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_soliton(outdir: str, ref: dict) -> list[str]:
    field = read_field(os.path.join(outdir, OUTPUT["soliton"]))
    if len(field["n"]) != len(ref["n"]):
        return [f"soliton: {len(field['n'])} rows != {len(ref['n'])}"]
    problems = []
    if not np.array_equal(field["n"], ref["n"]):
        problems.append("soliton: site column differs")
    if not np.array_equal(field["singular"], ref["singular"]):
        return problems + [f"soliton: {int(field['singular'].sum())} singular cells != "
                           f"{int(ref['singular'].sum())}"]
    ok = field["singular"] == 0
    problems += _array_problems("soliton.t", field["t"], ref["t"])
    problems += _array_problems("soliton.q", field["q"][ok], ref["q"][ok])
    problems += _array_problems("soliton.abs_q", field["abs_q"][ok], np.abs(ref["q"][ok]))
    return problems


def check_verify(outdir: str, ref: dict) -> list[str]:
    doc = read_json(os.path.join(outdir, "report.json"))
    problems = [] if doc.get("pass") is True else ["verify: pass is not true"]
    return problems + match(doc, ref["report"], "verify")


def check_evolve(outdir: str, ref: dict) -> list[str]:
    doc = read_json(os.path.join(outdir, "report.json"))
    problems = [] if doc.get("pass") is True else ["evolve: pass is not true"]
    problems += match(doc, ref["report"], "evolve")
    traj = os.path.join(outdir, TRAJECTORY)
    if doc.get("trajectory_csv") != traj:
        problems.append(f"evolve: trajectory_csv {doc.get('trajectory_csv')!r} != {traj!r}")
    got = read_trajectory(traj)
    if len(got["n"]) != len(ref["n"]):
        return problems + [f"evolve: {len(got['n'])} trajectory rows != {len(ref['n'])}"]
    if not (np.array_equal(got["step"], ref["step"]) and np.array_equal(got["n"], ref["n"])):
        problems.append("evolve: (step, n) columns differ")
    problems += _array_problems("evolve.t", got["t"], ref["t"])
    return problems + _array_problems("evolve.q", got["q"], ref["q"])


def zeta_grid(ref: dict, seed: int) -> list[complex]:
    """The continuum samples `ist scatter --seed` is specified to draw."""
    rng = np.random.default_rng(seed)
    branch = [complex(*b) for b in ref["branch_points"]]
    out = []
    for i, a in enumerate(rng.uniform(0.0, 2.0 * math.pi, ref["zeta_samples"])):
        radius = 1.0 + SAMPLE_OFFSET if i % 2 == 0 else 1.0 - SAMPLE_OFFSET
        z = radius * cmath.exp(1j * a)
        for bp in branch:
            if abs(z - bp) < BRANCH_NUDGE[0]:
                z = radius * cmath.exp(1j * (a + BRANCH_NUDGE[1]))
        out.append(z)
    return out


def check_scatter(outdir: str, ref: dict, seed: int) -> list[str]:
    doc = read_json(os.path.join(outdir, "report.json"))
    problems = []
    if doc.get("failures") != {}:
        problems.append(f"scatter: failures {doc.get('failures')!r}")
    tol = ref["tolerance"]
    for name, val in doc["residuals"].items():
        vals = val if isinstance(val, list) else [val]
        if any(v is not None and not num(v) <= tol for v in vals):
            problems.append(f"scatter: residual {name} = {val!r} above {tol}")
    theta_inf = complex(*ref["theta_minus_inf"])
    if not _close(num(doc["theta_minus_inf"]), theta_inf):
        problems.append(f"scatter: theta_minus_inf {doc['theta_minus_inf']!r}")
    zs = [complex(*z) for z in ref["zeros_t11"]]
    zbs = [complex(*z) for z in ref["zeros_t22"]]
    grid = zeta_grid(ref, seed)
    if len(doc["zeta_grid"]) != len(grid):
        return problems + [f"scatter: {len(doc['zeta_grid'])} samples != {len(grid)}"]
    for i, zeta in enumerate(grid):
        t11 = np.prod([zeta - z for z in zs]) / np.prod([zeta - zb for zb in zbs])
        expect = {"zeta_grid": zeta, "t11": t11, "t22": theta_inf / t11,
                  "det_t": theta_inf, "t21_mod": 0j, "t12_mod": 0j, "rho": 0j,
                  "rho_bar": 0j}
        for key, val in expect.items():
            got = num(doc[key][i])
            if not _close(got, val):
                problems.append(f"scatter: {key}[{i}] = {got!r}, expected {val!r}")
    return problems


def check(command: str, code, outdir: str, refs: dict, seed: int) -> list[str]:
    """Problems with one invocation: its exit code, then its artifacts."""
    if code != EXPECTED_EXIT:
        return [f"{command}: exit {code!r}, expected {EXPECTED_EXIT}"]
    ref = refs[command]
    try:
        if command == "soliton":
            return check_soliton(outdir, ref)
        if command == "verify":
            return check_verify(outdir, ref)
        if command == "evolve":
            return check_evolve(outdir, ref)
        return check_scatter(outdir, ref, seed)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{command}: unreadable artifact: {exc!r}"]
