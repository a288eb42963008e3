"""Command-line entry points: eigs, soliton, scatter, verify, evolve.

Configs are JSON with a strict schema (unknown keys rejected); reports are
JSON, fields and trajectories CSV.  All numbers are emitted with 17
significant digits and LF line endings so identical configs produce
byte-identical artifacts.  Exit codes: 0 ok, 2 config error, 3 inadmissible
eigenvalue request, 4 every grid cell singular, 5 tolerance breach,
6 blow-up, 7 numerical failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import ist, lattice, scattering, verify
from .errors import BlowupDetected, ConfigError, DomainError, Inadmissible, IstError
from .spectral import classify, make_case

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INADMISSIBLE = 3
EXIT_ALL_SINGULAR = 4
EXIT_TOLERANCE = 5
EXIT_BLOWUP = 6
EXIT_NUMERICAL = 7

_TOLERANCE_DEFAULTS = {"residual": 1e-6, "scattering": 1e-5, "compare": 1e-4}
# Most RK4 steps `evolve` takes: its trajectory holds one 81-site row of
# complex states per step (about 130 MB at the cap) and its CSV 81 lines.
MAX_EVOLVE_STEPS = 100_000
_TGRID_DEFAULTS = {"t0": 0.0, "t1": 1.0, "steps": 11}


def _fmt(x: float) -> str:
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return '"%s"' % repr(x)
    return format(float(x), ".17g")


def dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f'{pad}  {json.dumps(k)}: {dump_json(v, indent + 1)}'
                           for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {dump_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return dump_json({"re": float(obj.real), "im": float(obj.imag)}, indent)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_text(path: str | None, chunks) -> None:
    """Write str chunks to path, or stdout; a generator streams while the file is open."""
    if path is None:
        sys.stdout.writelines(chunks)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)


_SCHEMA_KEYS = {
    "case", "q0", "theta", "theta_minus", "theta_plus", "J", "eta1",
    "zeta_hat_1", "kappa1", "thbar1", "thbar2", "N", "t_grid", "dt",
    "tolerances", "field", "outputs", "zeta_samples",
}


@dataclass(frozen=True)
class RunConfig:
    case: int
    q0: float
    theta_minus: float
    J: int | None = None
    eta1: float | None = None
    zeta_hat_1: float | None = None
    kappa1: float = 1.0
    thbar1: float = 0.0
    thbar2: float = 0.0
    N: int = 60
    t_grid: dict = field(default_factory=lambda: dict(_TGRID_DEFAULTS))
    dt: float = 0.01
    tolerances: dict = field(default_factory=lambda: dict(_TOLERANCE_DEFAULTS))
    field_source: dict = field(default_factory=lambda: {"source": "soliton"})
    outputs: dict = field(default_factory=dict)
    zeta_samples: int = 20

    def as_dict(self) -> dict:
        out = {"case": self.case, "q0": self.q0, "theta_minus": self.theta_minus}
        for key in ("J", "eta1", "zeta_hat_1"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        out.update({"kappa1": self.kappa1, "thbar1": self.thbar1,
                    "thbar2": self.thbar2, "N": self.N,
                    "t_grid": dict(self.t_grid), "dt": self.dt,
                    "tolerances": dict(self.tolerances),
                    "field": dict(self.field_source),
                    "outputs": dict(self.outputs),
                    "zeta_samples": self.zeta_samples})
        return out


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _is_number(value) -> bool:
    """A finite JSON number (booleans, NaN and infinities are not)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def parse_config(raw: dict) -> RunConfig:
    _require(isinstance(raw, dict), "config must be a JSON object")
    unknown = set(raw) - _SCHEMA_KEYS
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    _require("case" in raw and "q0" in raw, "config requires 'case' and 'q0'")
    case = raw["case"]
    _require(isinstance(case, int) and not isinstance(case, bool) and 1 <= case <= 4,
             "'case' must be an integer 1..4")
    q0 = raw["q0"]
    _require(_is_number(q0) and q0 > 0, "'q0' must be a positive number")
    phase_keys = [k for k in ("theta", "theta_minus", "theta_plus") if k in raw]
    _require(len(phase_keys) <= 1, "give at most one of theta / theta_minus / theta_plus")
    if not phase_keys:
        theta_minus = 0.0
    else:
        val = raw[phase_keys[0]]
        _require(_is_number(val), f"'{phase_keys[0]}' must be a finite number")
        if phase_keys[0] == "theta_plus":
            delta = math.pi if case in (2, 4) else 0.0
            theta_minus = float(val) - delta
        else:
            theta_minus = float(val)
    kwargs = {}
    for key in ("J", "N", "zeta_samples"):
        if key in raw:
            _require(isinstance(raw[key], int) and not isinstance(raw[key], bool),
                     f"'{key}' has the wrong type")
            kwargs[key] = raw[key]
    for key in ("eta1", "zeta_hat_1", "kappa1", "thbar1", "thbar2", "dt"):
        if key in raw:
            _require(_is_number(raw[key]), f"'{key}' must be a finite number")
            kwargs[key] = raw[key]
    if "N" in kwargs:
        _require(kwargs["N"] >= 1, "'N' must be >= 1")
    if "dt" in kwargs:
        _require(kwargs["dt"] > 0, "'dt' must be positive")
    if "zeta_samples" in kwargs:
        _require(kwargs["zeta_samples"] >= 1, "'zeta_samples' must be >= 1")
    t_grid = dict(_TGRID_DEFAULTS)
    if "t_grid" in raw:
        _require(isinstance(raw["t_grid"], dict), "'t_grid' must be an object")
        extra = set(raw["t_grid"]) - {"t0", "t1", "steps"}
        _require(not extra, f"unknown t_grid keys: {sorted(extra)}")
        t_grid.update(raw["t_grid"])
        _require(isinstance(t_grid["steps"], int) and not isinstance(t_grid["steps"], bool)
                 and t_grid["steps"] >= 1, "'t_grid.steps' must be a positive integer")
        for key in ("t0", "t1"):
            _require(_is_number(t_grid[key]), f"'t_grid.{key}' must be a finite number")
    tolerances = dict(_TOLERANCE_DEFAULTS)
    if "tolerances" in raw:
        _require(isinstance(raw["tolerances"], dict), "'tolerances' must be an object")
        extra = set(raw["tolerances"]) - set(_TOLERANCE_DEFAULTS)
        _require(not extra, f"unknown tolerance keys: {sorted(extra)}")
        for k, v in raw["tolerances"].items():
            _require(_is_number(v) and v >= 0, f"tolerance '{k}' must be a finite number >= 0")
        tolerances.update(raw["tolerances"])
    field_source = {"source": "soliton"}
    if "field" in raw:
        _require(isinstance(raw["field"], dict), "'field' must be an object")
        extra = set(raw["field"]) - {"source", "path"}
        _require(not extra, f"unknown field keys: {sorted(extra)}")
        src = raw["field"].get("source")
        _require(src in ("soliton", "background", "csv"),
                 "'field.source' must be soliton | background | csv")
        if src == "csv":
            _require(isinstance(raw["field"].get("path"), str), "'field.path' required for csv")
        field_source = dict(raw["field"])
    outputs = {}
    if "outputs" in raw:
        _require(isinstance(raw["outputs"], dict), "'outputs' must be an object")
        extra = set(raw["outputs"]) - {"field_csv", "report_json", "trajectory_csv"}
        _require(not extra, f"unknown output keys: {sorted(extra)}")
        for v in raw["outputs"].values():
            _require(isinstance(v, str), "output paths must be strings")
        outputs = dict(raw["outputs"])
    return RunConfig(case=case, q0=float(q0), theta_minus=theta_minus,
                     t_grid=t_grid, tolerances=tolerances,
                     field_source=field_source, outputs=outputs, **kwargs)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)


def _case_config(config: RunConfig):
    return make_case(config.case, config.q0, config.theta_minus)


def _eigenset(config: RunConfig, cfg) -> ist.EigenSet:
    """The configured discrete spectrum (possibly empty)."""
    if config.J == 0:
        return ist.empty_eigenset(cfg)
    if config.case == 1:
        _require(config.eta1 is not None, "case 1 requires 'eta1'")
        return ist.eigenvalues_case1(cfg, float(config.eta1), J=config.J or 2)
    if config.case == 2:  # its feasibility scan runs only in `eigs`, at the CLI seed
        return ist.eigenvalues_case2(cfg, J=config.J if config.J is not None else 2,
                                     scan_samples=0)
    if config.case == 3:
        _require(config.zeta_hat_1 is not None, "case 3 requires 'zeta_hat_1'")
        return ist.eigenvalues_case3(cfg, float(config.zeta_hat_1), J=config.J or 2)
    return ist.eigenvalues_case4(cfg, J=config.J or 1)


def _eigen_data(config: RunConfig, cfg, soliton: bool = True):
    """EigenSet plus its norming data (no constants for an empty spectrum).

    Case III has no reduction-pinned norming constants yet, so no soliton
    of it is available: a nonempty case-III spectrum is inadmissible here.
    With soliton set, so is an empty spectrum that violates its case's
    trace limits (every Delta theta = pi background): no reflectionless
    potential joins q_minus = -q_plus to q_plus without eigenvalues.
    """
    eigenset = _eigenset(config, cfg)
    if eigenset.is_empty():
        residuals = ist.admissibility_residuals(cfg, eigenset)
        if soliton and max(residuals.values()) > ist.CONSTRAINT_TOL:
            raise Inadmissible(f"an empty spectrum misses the case-{config.case} "
                               f"trace limits {residuals}: no reflectionless field exists")
        return eigenset, ist.unit_norming(cfg, eigenset)
    if config.case == 1:
        return eigenset, ist.norming_case1(cfg, eigenset, config.kappa1,
                                           config.thbar1, config.thbar2)
    if config.case == 4:
        return eigenset, ist.norming_case4(cfg, eigenset, config.thbar1)
    raise Inadmissible("case III norming constants are not derived yet, "
                       "so no case-III soliton is available")


def _t_values(config: RunConfig) -> list[float]:
    g = config.t_grid
    if g["steps"] == 1:
        return [float(g["t0"])]
    step = (g["t1"] - g["t0"]) / (g["steps"] - 1)
    return [float(g["t0"] + i * step) for i in range(g["steps"])]


def cmd_eigs(config: RunConfig, out: str | None, seed: int) -> int:
    cfg = _case_config(config)
    eigenset = _eigenset(config, cfg)
    entries = []
    for q in eigenset.quartets:
        entries.append({
            "kind": "quartet",
            "zeta": q.zeta, "zeta_conj": q.zeta_conj,
            "zeta_bar": q.zbar, "zeta_bar_conj": q.zbar_conj,
            "region_zeta": classify(cfg, q.zeta).value,
            "region_zeta_bar": classify(cfg, q.zbar).value,
        })
    for p in eigenset.pairs:
        entries.append({
            "kind": "pair",
            "zeta": p.zeta, "zeta_bar": p.zbar,
            "region_zeta": classify(cfg, p.zeta).value,
            "region_zeta_bar": classify(cfg, p.zbar).value,
        })
    report = {
        "case": config.case,
        "J": eigenset.J,
        "J1": eigenset.J1,
        "J2": eigenset.J2,
        "entries": entries,
        "constraint_residuals": ist.admissibility_residuals(cfg, eigenset),
    }
    if config.case == 2:
        scan = ist.case2_feasibility_scan(cfg, samples=3000, seed=seed).require_infeasible()
        report["feasibility_scan"] = {
            "min_violation": scan.min_violation,
            "family": scan.family,
            "candidates": scan.candidates,
        }
    _write_text(out, [dump_json(report) + "\n"])
    return EXIT_OK


def _field_grid(config: RunConfig, cfg, eigenset, norming) -> ist.ReconstructionGrid:
    """The field over the configured (n, t) grid, time-major, in one reconstruct_grid call."""
    sites = np.arange(-config.N, config.N + 1)
    ts = np.array(_t_values(config))
    return ist.reconstruct_grid(cfg, eigenset, norming, sites[None, :], ts[:, None])


def _field_csv(grid: ist.ReconstructionGrid) -> str:
    lines = ["n,t,re_q,im_q,abs_q,singular"]
    for n, t, q, bad in zip(grid.ns.tolist(), grid.ts.tolist(), grid.q.tolist(),
                            grid.singular.tolist()):
        if bad:
            lines.append(f"{n},{_fmt(t)},,,,1")
            continue
        abs_q = abs(q)  # Python's abs, not np.abs: the two differ in the last bit
        if math.isfinite(abs_q):
            lines.append("%d,%.17g,%.17g,%.17g,%.17g,0" % (n, t, q.real, q.imag, abs_q))
        else:  # _fmt quotes non-finite values
            lines.append(f"{n},{_fmt(t)},{_fmt(q.real)},{_fmt(q.imag)},{_fmt(abs_q)},0")
    return "\n".join(lines) + "\n"


def cmd_soliton(config: RunConfig, out: str | None, seed: int) -> int:
    del seed
    cfg = _case_config(config)
    eigenset, norming = _eigen_data(config, cfg)
    grid = _field_grid(config, cfg, eigenset, norming)
    if grid.singular.all():
        sys.stderr.write("every grid cell is singular\n")
        return EXIT_ALL_SINGULAR
    path = out or config.outputs.get("field_csv")
    _write_text(path, [_field_csv(grid)])
    return EXIT_OK


def _load_field_csv(path: str, cfg) -> lattice.PotentialWindow:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read field csv: {exc}") from exc
    if not lines or lines[0].split(",")[:5] != ["n", "t", "re_q", "im_q", "abs_q"]:
        raise ConfigError("field csv must start with header n,t,re_q,im_q,abs_q")
    by_site = {}
    t_val = None
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) not in (5, 6):
            raise ConfigError(f"malformed field csv row: {ln!r}")
        try:
            n = int(parts[0])
            t = float(parts[1])
            re_q = float(parts[2])
            im_q = float(parts[3])
        except ValueError as exc:
            raise ConfigError(f"malformed field csv row: {ln!r}") from exc
        if t_val is None:
            t_val = t
        if t == t_val:
            by_site[n] = complex(re_q, im_q)
    if not by_site:
        raise ConfigError("field csv contains no rows")
    n_max = min(-min(by_site), max(by_site))
    if n_max < 0:
        raise ConfigError("field csv needs sites on both sides of n = 0")
    sites = range(-n_max, n_max + 1)
    wrong = [f"{what} sites {_few(found)}" for what, found in (
        ("extra", sorted(n for n in by_site if abs(n) > n_max)),
        ("missing", [n for n in sites if n not in by_site])) if found]
    if n_max < 1 or wrong:
        raise ConfigError("field csv sites must be exactly -N..N with N >= 1; "
                          + ("; ".join(wrong) or "only site 0"))
    q = np.array([by_site[n] for n in sites], dtype=complex)
    return lattice.PotentialWindow(cfg, n_max, float(t_val), q)


def _few(sites: list[int]) -> str:
    """Up to five sites, and how many there are when there are more."""
    shown = ", ".join(map(str, sites[:5]))
    return shown if len(sites) <= 5 else f"{shown}, ... ({len(sites)} in all)"


def _scatter_window(config: RunConfig, cfg):
    src = config.field_source.get("source", "soliton")
    if src == "background":
        return lattice.background_field(cfg, 0.0, config.N), None
    if src == "csv":
        return _load_field_csv(config.field_source["path"], cfg), None
    eigenset, norming = _eigen_data(config, cfg)
    q = ist.make_evaluator(cfg, eigenset, norming)(np.arange(-config.N, config.N + 1), 0.0)
    return lattice.PotentialWindow(cfg, config.N, 0.0, q), eigenset


def _scatter_failures(report: scattering.ScatteringReport, tol: float) -> dict:
    """The scattering residuals that breach tol, by name; `not x <= tol` fails a NaN."""
    residuals = {"det_vs_theta": report.det_residual}
    residuals.update((f"symmetry_{name}", res) for name, res in vars(report.symmetry).items())
    residuals.update((f"t11_zero_{k}", res) for k, res in enumerate(report.eigenvalue_residuals))
    return {name: res for name, res in residuals.items() if not res <= tol}


def cmd_scatter(config: RunConfig, out: str | None, seed: int) -> int:
    cfg = _case_config(config)
    window, eigenset = _scatter_window(config, cfg)
    zetas = scattering.continuum_samples(cfg, config.zeta_samples, seed=seed)
    report = scattering.scattering_report(window, zetas, eigenset)
    tol = config.tolerances["scattering"]
    failures = _scatter_failures(report, tol)
    doc = {
        "zeta_grid": list(report.zeta_grid),
        "t11": list(report.t11),
        "t22": list(report.t22),
        "t21_mod": list(report.t21_mod),
        "t12_mod": list(report.t12_mod),
        "rho": list(report.rho),
        "rho_bar": list(report.rho_bar),
        "det_t": list(report.det_t),
        "theta_minus_inf": report.theta_minus_inf,
        "residuals": {
            "det_vs_theta": report.det_residual,
            "symmetry_first_diag": report.symmetry.first_diag,
            "symmetry_first_offdiag": report.symmetry.first_offdiag,
            "symmetry_second": report.symmetry.second,
            "t11_at_eigenvalues": list(report.eigenvalue_residuals),
            "trace_formula": report.trace_residual,
        },
        "tolerance": tol,
        "failures": failures,
    }
    _write_text(out or config.outputs.get("report_json"), [dump_json(doc) + "\n"])
    return EXIT_TOLERANCE if failures else EXIT_OK


def _soliton_source(config: RunConfig) -> bool:
    return config.field_source.get("source", "soliton") == "soliton"


def _singular_phase(cfg, eigenset, norming) -> bool:
    if eigenset.is_empty():
        return False
    scan = ist.singularity_scan(cfg, eigenset, norming,
                                n_range=(-12, 12), t_span=(-6.0, 6.0),
                                coarse_dt=0.25)
    return scan.singular


def cmd_verify(config: RunConfig, out: str | None, seed: int) -> int:
    del seed
    cfg = _case_config(config)
    eigenset, norming = _eigen_data(config, cfg, _soliton_source(config))
    checks = {}
    singular = _singular_phase(cfg, eigenset, norming)
    checks["singular_parameters"] = {"flagged": singular}
    evaluator = ist.make_evaluator(cfg, eigenset, norming)
    tol_res = config.tolerances["residual"]
    if singular:
        checks["equation_residual"] = {"skipped": "singular family member"}
        ok_res = True
    else:
        exact = functools.partial(ist.reconstruct_with_derivative, cfg, eigenset, norming)
        reps = verify.equation_residuals_exact(exact, cfg, range(-15, 16), _t_values(config))
        worst = max([0.0] + [rep.max_abs_residual for rep in reps])
        ok_res = worst < tol_res
        checks["equation_residual"] = {"max": worst, "tolerance": tol_res, "pass": ok_res}
    ok_closed = True
    if config.case == 4 and not singular and not eigenset.is_empty():
        sites = np.arange(-20, 21)[None, :]
        ts = np.array(_t_values(config))[:, None]
        a = evaluator(sites, ts)
        b = ist.soliton_closed_form_case4(cfg, config.thbar1, sites, ts)
        worst_cf = float(np.max(np.abs(a - b)))
        ok_closed = worst_cf < 1e-10
        checks["closed_form_equality"] = {"max": worst_cf, "tolerance": 1e-10,
                                          "pass": ok_closed}
    failures = {}
    if not singular:
        N_win = min(config.N, 40)
        q = evaluator(np.arange(-N_win, N_win + 1), 0.0)
        window = lattice.PotentialWindow(cfg, N_win, 0.0, q)
        zetas = scattering.continuum_samples(cfg, 8, seed=1)
        report = scattering.scattering_report(window, zetas, eigenset)
        tol_sc = config.tolerances["scattering"]
        failures = _scatter_failures(report, tol_sc)
        checks["det_vs_theta"] = {"max": report.det_residual, "tolerance": tol_sc,
                                  "pass": "det_vs_theta" not in failures}
        checks["symmetries"] = {
            "first_diag": report.symmetry.first_diag,
            "first_offdiag": report.symmetry.first_offdiag,
            "second": report.symmetry.second,
            "tolerance": tol_sc,
            "pass": not any(name.startswith("symmetry_") for name in failures),
        }
        if report.eigenvalue_residuals:
            checks["t11_zeros"] = {"residuals": list(report.eigenvalue_residuals),
                                   "tolerance": tol_sc,
                                   "pass": not any(name.startswith("t11_zero_")
                                                   for name in failures)}
    ok = ok_res and ok_closed and not failures
    doc = {"case": config.case, "checks": checks, "pass": bool(ok)}
    _write_text(out or config.outputs.get("report_json"), [dump_json(doc) + "\n"])
    return EXIT_OK if ok else EXIT_TOLERANCE


def _trajectory_csv(traj: verify.Trajectory):
    """The trajectory CSV in chunks: one `%` template per time row of sites."""
    yield "step,t,n,re_q,im_q\n"
    row = "".join(f"@{n},%.17g,%.17g\n" for n in range(-traj.N, traj.N + 1))
    # simulate stores only finite states (it raises BlowupDetected first)
    for k, (t, values) in enumerate(zip(traj.times.tolist(), traj.states.view(float))):
        yield row.replace("@", "%d,%.17g," % (k, t)) % tuple(values.tolist())


def cmd_evolve(config: RunConfig, out: str | None, seed: int) -> int:
    del seed
    cfg = _case_config(config)
    eigenset, norming = _eigen_data(config, cfg, _soliton_source(config))
    if eigenset.is_empty() and config.field_source.get("source") != "background":
        sys.stderr.write("evolve requires a nonempty eigenvalue set or a background field\n")
        return EXIT_CONFIG
    t0 = float(config.t_grid["t0"])
    t1 = float(config.t_grid["t1"])
    span = abs(t1 - t0)
    steps = round(span / config.dt)
    _require(steps >= 1 and abs(steps * config.dt - span) <= 1e-9 * max(1.0, span),
             f"'dt' = {config.dt} does not tile [t0, t1] = [{t0}, {t1}] in whole steps")
    _require(steps <= MAX_EVOLVE_STEPS,
             f"'dt' = {config.dt} takes {steps} RK4 steps over [t0, t1] = [{t0}, {t1}]; "
             f"at most {MAX_EVOLVE_STEPS} are allowed")
    singular = _singular_phase(cfg, eigenset, norming)
    if eigenset.is_empty():
        evaluator = cfg.background
    else:
        evaluator = ist.make_evaluator(cfg, eigenset, norming)
    N = min(config.N, 40)
    q = evaluator(np.arange(-N, N + 1), t0)
    window = lattice.PotentialWindow(cfg, N, t0, q)
    try:
        traj = verify.simulate(window, cfg, t1, config.dt)
    except BlowupDetected as exc:
        doc = {"case": config.case, "blowup": True, "singular_parameters": singular,
               "step": exc.step, "t": exc.t}
        _write_text(out or config.outputs.get("report_json"), [dump_json(doc) + "\n"])
        return EXIT_OK if singular else EXIT_BLOWUP
    deviation = verify.compare(traj, evaluator)
    traj_path = config.outputs.get("trajectory_csv", "trajectory.csv")
    _write_text(traj_path, _trajectory_csv(traj))
    tol = config.tolerances["compare"]
    doc = {"case": config.case, "blowup": False, "singular_parameters": singular,
           "max_deviation": deviation, "tolerance": tol,
           "trajectory_csv": traj_path, "pass": deviation < tol}
    _write_text(out or config.outputs.get("report_json"), [dump_json(doc) + "\n"])
    return EXIT_OK if deviation < tol else EXIT_TOLERANCE


_DISPATCH = {
    "eigs": cmd_eigs,
    "soliton": cmd_soliton,
    "scatter": cmd_scatter,
    "verify": cmd_verify,
    "evolve": cmd_evolve,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ist",
        description="Inverse scattering transform pipelines for the nonlocal lattice NLS")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="primary artifact path (default stdout)")
        p.add_argument("--seed", type=int, default=0, help="seed for sample generation")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        return _DISPATCH[args.command](config, args.out, args.seed)
    except (ConfigError, DomainError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except Inadmissible as exc:
        sys.stderr.write(f"inadmissible: {exc}\n")
        return EXIT_INADMISSIBLE
    except BlowupDetected as exc:
        sys.stderr.write(f"blow-up: {exc}\n")
        return EXIT_BLOWUP
    except IstError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
