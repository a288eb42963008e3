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
import contextlib
import ctypes
import functools
import json
import math
import os
import sys
import dataclasses

import numpy as np

from . import ist, lattice, scattering, verify
from .errors import BlowupDetected, ConfigError, DomainError, Inadmissible, IstError
from .g17 import WIDTH, format_g17
from .spectral import CASES, Case, classify, make_case

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INADMISSIBLE = 3
EXIT_ALL_SINGULAR = 4
EXIT_TOLERANCE = 5
EXIT_BLOWUP = 6
EXIT_NUMERICAL = 7

# Half-width at most of the window that `verify` and `evolve` run their
# lattice oracles (scattering report, RK4) on.
ORACLE_N = 40
# Half-widths of verify's residual-oracle and closed-form sites, and the
# singularity scan of verify and evolve; each report lists them as "limits".
RESIDUAL_N = 15
CLOSED_FORM_N = 20
SCAN = {"n_range": (-12, 12), "t_span": (-6.0, 6.0), "coarse_dt": 0.25}
# Most RK4 steps `evolve` takes: its trajectory holds one 81-site row of
# complex states per step (about 130 MB at the cap) and its CSV 81 lines.
MAX_EVOLVE_STEPS = 100_000
# Caps on the sizes a config asks for, with the memory each allows at the cap.
MAX_N = 10_000  # scatter's window and sweep, about 1.2 kB a site: 25 MB
MAX_T_STEPS = 10_000  # verify's residual, 31 sites a step with dq/dt: 120 MB
MAX_ZETA_SAMPLES = 500  # scatter's report, about 3.5 kB a sample: 13 MB in all at MAX_N
# The soliton grid's (2N + 1) * steps, 75 B a cell: 150 MB held; under tracemalloc its
# solve peaks at 389 MiB on c1 and 232 MiB on README c4 (scripts/cap_memory.py).
MAX_GRID_CELLS = 2_000_000
# Largest |rate t| of the phases exp(i rate t) a field is built from: each is
# rounded by about eps |rate t|, which reaches verify's closed-form
# tolerance 1e-10 there.
MAX_PHASE = 1e-10 / sys.float_info.epsilon  # 4.5e5
# Lines per CSV chunk, formatted by one format_g17 call: chunks a quarter
# this size lose most of the gain to NumPy's cost per call, and a whole
# field at once holds more text in memory.
_CSV_ROWS = 2048
# What each case's soliton reads of the config: (eigenvalue keys, default J,
# norming keys).  ist's eigenvalues_caseN, norming_caseN (none: not derived yet),
# soliton_closed_form_caseN and caseN_trace_infima are looked up when called.
_SOLITONS = {1: (("eta1",), 2, ("kappa1", "thbar1", "thbar2")), 2: ((), 2, ()),
             3: (("zeta_hat_1",), 2, ()), 4: ((), 1, ("thbar1",))}


def _fmt(x: float) -> str:
    return "%.17g" % x if math.isfinite(x) else '"%s"' % repr(x)


def dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    # Exact float and complex first: reports are mostly these.  Subclasses
    # (np.float64, np.complex128) and other numpy scalars take the chain below.
    kind = type(obj)
    if kind is float:
        return _fmt(obj)
    pad = "  " * indent
    if kind is complex:
        return f'{{\n{pad}  "re": {_fmt(obj.real)},\n{pad}  "im": {_fmt(obj.imag)}\n{pad}}}'
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
        return dump_json(complex(obj), indent)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_all(artifacts) -> None:
    """Write each (path, chunks) artifact; path None is stdout, chunks are str.

    Every file is written to <target>.<pid>.tmp beside its target, then
    each is moved into place, and then stdout is written; when a move or
    stdout fails, the files already moved are removed.  So a command that
    fails leaves no artifact, not even a partial one.  A target that exists
    and is not a regular file (a directory, /dev/null) is opened in place.
    """
    files = [(path, chunks, os.path.realpath(path)) for path, chunks in artifacts
             if path is not None]
    targets = [target for _, _, target in files]
    _require(len(set(targets)) == len(targets), "two artifacts would be written to "
             + ", ".join(sorted({t for t in targets if targets.count(t) > 1})))
    staged, moved = [], []
    try:
        for path, chunks, target in files:
            in_place = os.path.exists(target) and not os.path.isfile(target)
            tmp = target if in_place else f"{target}.{os.getpid()}.tmp"
            staged.append((path, tmp, target))
            try:
                fh = open(tmp, "w", encoding="utf-8", newline="\n")
            except OSError as exc:
                raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
            with fh:
                fh.writelines(chunks)
        for path, tmp, target in staged:
            if tmp != target:
                try:
                    os.replace(tmp, target)
                except OSError as exc:
                    raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
                moved.append(target)
        for path, chunks in artifacts:
            if path is None:
                try:
                    sys.stdout.writelines(chunks)
                    sys.stdout.flush()
                except BrokenPipeError as exc:
                    # the reader closed stdout: no flush at exit may raise
                    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                    raise ConfigError(f"cannot write stdout: {exc.strerror}") from exc
    except BaseException:
        for target in moved:
            with contextlib.suppress(OSError):
                os.remove(target)
        raise
    finally:
        for _, tmp, target in staged:
            if tmp != target:
                with contextlib.suppress(OSError):
                    os.remove(tmp)


def _is_number(value) -> bool:
    """A finite double: not a bool, NaN, an infinity or an int past the largest double."""
    return (isinstance(value, float) and math.isfinite(value)
            or type(value) is int and abs(value) <= sys.float_info.max)


def _within(low: int, high: int) -> tuple:
    return ((lambda v: v >= low, f"'{{key}}' must be >= {low}"),
            (lambda v: v <= high, f"'{{key}}' must be <= {high}"))


_INT = (lambda v: type(v) is int, "'{key}' has the wrong type")
_NUMBER = (_is_number, "'{key}' must be a finite number")
_TOL = (lambda v: _is_number(v) and v >= 0, "tolerance '{name}' must be a finite number >= 0")
_PATH = (lambda v: isinstance(v, str), "output paths must be strings")
# Every config key: (kind, bound, default).  A scalar key's kind is a (test,
# message) check and its bound more ({key} is the dotted key, {name} its last
# part); an object key's kind is its own table, and its bound checks across
# its keys, made before they are read.
_SCHEMA = {
    "case": ((lambda v: type(v) is int and 1 <= v <= 4, "'{key}' must be an integer 1..4"),
             (), None),
    "q0": ((lambda v: _is_number(v) and v > 0, "'{key}' must be a positive number"), (), None),
    "theta": (_NUMBER, (), None),
    "theta_minus": (_NUMBER, (), 0.0),
    "theta_plus": (_NUMBER, (), None),
    "J": (_INT, (), None),
    "N": (_INT, _within(1, MAX_N), 60),
    "zeta_samples": (_INT, _within(1, MAX_ZETA_SAMPLES), 20),
    "eta1": (_NUMBER, (), None),
    "zeta_hat_1": (_NUMBER, (), None),
    "kappa1": (_NUMBER, (), 1.0),
    "thbar1": (_NUMBER, (), 0.0),
    "thbar2": (_NUMBER, (), None),  # thbar1 when not given (parse_config)
    "dt": (_NUMBER, ((lambda v: v > 0, "'{key}' must be positive"),), 0.01),
    "t_grid": ({
        "steps": ((lambda v: type(v) is int and v >= 1, "'{key}' must be a positive integer"),
                  _within(1, MAX_T_STEPS), 11),
        "t0": (_NUMBER, (), 0.0),
        "t1": (_NUMBER, (), 1.0)}, (), {}),
    "tolerances": ({
        "residual": (_TOL, (), 1e-6),
        "scattering": (_TOL, (), 1e-5),
        "compare": (_TOL, (), 1e-4)}, (), {}),
    "field": ({"source": (None, (), None), "path": (None, (), None)}, (
        (lambda f: f.get("source") in ("soliton", "background", "csv"),
         "'field.source' must be soliton | background | csv"),
        # path is the CSV that source csv reads, and no other source reads one
        (lambda f: f["source"] != "csv" or isinstance(f.get("path"), str),
         "'field.path' required for csv"),
        (lambda f: f["source"] == "csv" or f.get("path") is None,
         "'field.path' is read only with 'field.source' csv")), {"source": "soliton"}),
    "outputs": ({
        "field_csv": (_PATH, (), None),
        "report_json": (_PATH, (), None),
        "trajectory_csv": (_PATH, (), "trajectory.csv")}, (), {}),
}
_PHASES = ("theta", "theta_minus", "theta_plus")
# The bound of the config itself: the keys it must give, and the phase keys.
_CONFIG_BOUND = ((lambda raw: "case" in raw and "q0" in raw, "config requires 'case' and 'q0'"),
                 (lambda raw: sum(name in raw for name in _PHASES) <= 1,
                  "give at most one of " + " / ".join(_PHASES)))
# One attribute per config key, as given but for theta_minus and thbar2 (see parse_config).
RunConfig = dataclasses.make_dataclass("RunConfig", _SCHEMA, frozen=True)


def _require(cond, message, **fields):
    """ConfigError(message), formatted with fields if any, unless cond holds."""
    if not cond:
        raise ConfigError(message.format(**fields) if fields else message)


def _read(obj: dict, keys: dict, across, noun: str, prefix: str = "") -> dict:
    """obj's value of every key of the table keys, defaults filled in.

    Names unknown keys first, then checks across them, then the kind of each
    scalar key given, then its bound, in table order; then reads each object
    key the same way (the noun of its keys is its name in the singular).
    """
    unknown = set(obj) - set(keys)
    _require(not unknown, f"unknown {noun} keys: {sorted(unknown)}")
    for test, message in across:
        _require(test(obj), message)
    values = {name: obj.get(name, default) for name, (_, _, default) in keys.items()}
    given = [(name, kind, bound) for name, (kind, bound, _) in keys.items()
             if name in obj and kind and not isinstance(kind, dict)]
    for name, checks in [(name, [kind]) for name, kind, _ in given] + [
            (name, bound) for name, _, bound in given]:
        for test, message in checks:
            _require(test(values[name]), message, key=prefix + name, name=name)
    for name, (table, bound, _) in keys.items():
        if isinstance(table, dict):
            _require(isinstance(values[name], dict), f"'{name}' must be an object")
            values[name] = _read(values[name], table, bound, name.removesuffix("s"), name + ".")
    return values


def parse_config(raw: dict) -> RunConfig:
    """The RunConfig of a config object; ConfigError names the first key that is wrong."""
    _require(isinstance(raw, dict), "config must be a JSON object")
    values = _read(raw, _SCHEMA, _CONFIG_BOUND, "config")
    N, steps = values["N"], values["t_grid"]["steps"]
    _require((2 * N + 1) * steps <= MAX_GRID_CELLS, f"'N' = {N} and 't_grid.steps' = {steps} "
             f"make {(2 * N + 1) * steps} grid cells; at most {MAX_GRID_CELLS} are allowed")
    t0, t1 = values["t_grid"]["t0"], values["t_grid"]["t1"]
    _require(math.isfinite(float(t1) - float(t0)),
             f"'t_grid' span t1 - t0 overflows: [t0, t1] = [{t0}, {t1}]")
    # theta is theta_minus, and theta_plus is theta_minus + Delta theta (spectral.CASES)
    theta, theta_plus = values["theta"], values["theta_plus"]
    if theta_plus is not None:
        theta = float(theta_plus) - CASES[Case(values["case"])][1]
    values["theta_minus"] = float(values["theta_minus"] if theta is None else theta)
    # the reduction fixes Cbar_2's phase to thbar1's (ist.norming_case1)
    thbar2 = values["thbar1"] if values["thbar2"] is None else values["thbar2"]
    return RunConfig(**values | {"q0": float(values["q0"]), "thbar2": thbar2})


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)


def _require_phase_digits(config: RunConfig, norming) -> None:
    """ConfigError unless each phase rate times max(|t0|, |t1|) is at most MAX_PHASE.

    The rates are the background's rotation and each norming constant's
    c_rate and cbar_rate: a soliton is built from their phases together,
    and past MAX_PHASE their roundings move it by more than 1e-10.  An
    empty spectrum's field is the background alone, whose one phase turns
    every site alike and stays a solution when rounded: any finite phase is accepted.
    """
    t = max(abs(float(config.t_grid["t0"])), abs(float(config.t_grid["t1"])))
    rate = float(np.abs([norming.cfg.rotation, *norming.c_rate, *norming.cbar_rate]).max())
    _require(rate * t < math.inf, f"'t_grid' reaches |t| = {t:g}, where the phase overflows")
    if norming.eigenset.is_empty():
        return
    _require(rate * t <= MAX_PHASE, f"'t_grid' reaches |t| = {t:g}, where the phase rate "
             f"{rate:.6g} times t is {rate * t:.3g}; at most {MAX_PHASE:.3g} = 1e-10 / eps "
             "is allowed, past which the phase's rounding passes 1e-10")


def _case_config(config: RunConfig):
    return make_case(config.case, config.q0, config.theta_minus)


def _eigenset(config: RunConfig, cfg) -> ist.EigenSet:
    """The configured discrete spectrum (possibly empty)."""
    if config.J == 0:
        return ist.empty_eigenset(cfg)
    keys, J, _ = _SOLITONS[config.case]
    for key in keys:
        _require(getattr(config, key) is not None, f"case {config.case} requires '{key}'")
    eigenvalues = getattr(ist, f"eigenvalues_case{config.case}")
    return eigenvalues(cfg, *(float(getattr(config, key)) for key in keys), J=config.J or J)


def _eigen_data(config: RunConfig, cfg):
    """EigenSet plus its norming data (no constants for an empty spectrum).

    A case with no ist.norming_caseN (case III) has no reduction-pinned
    norming constants yet, so its nonempty spectrum is inadmissible here.
    So is an empty spectrum that violates its case's trace limits (every
    Delta theta = pi background): no reflectionless potential joins
    q_minus = -q_plus to q_plus without eigenvalues.
    """
    eigenset = _eigenset(config, cfg)
    if eigenset.is_empty():
        residuals = ist.admissibility_residuals(cfg, eigenset)
        if max(residuals.values()) > ist.CONSTRAINT_TOL:
            raise Inadmissible(f"an empty spectrum misses the case-{config.case} "
                               f"trace limits {residuals}: no reflectionless field exists")
        return eigenset, ist.unit_norming(cfg, eigenset)
    norming = getattr(ist, f"norming_case{config.case}", None)
    if norming is None:
        raise Inadmissible(f"case {cfg.case_id.name} norming constants are not derived yet, "
                           f"so no case-{cfg.case_id.name} soliton is available")
    keys = _SOLITONS[config.case][2]
    return eigenset, norming(cfg, eigenset, *(getattr(config, key) for key in keys))


def _chunks(size: int, rows: int):
    """Slices of rows consecutive indices that cover range(size)."""
    return (slice(start, start + rows) for start in range(0, size, rows))


def _int_fields(values: np.ndarray) -> np.ndarray:
    """'%d,' for each int of values, NUL-padded, as uint8 of shape values.shape + (width,)."""
    text = np.array([b"%d," % k for k in values.tolist()])
    return text.view(np.uint8).reshape(values.shape + (-1,))


def _csv_text(fields) -> str:
    """CSV lines from NUL-padded uint8 fields, joined along their last axis, NULs dropped."""
    return np.concatenate(fields, axis=-1).tobytes().translate(None, b"\0").decode("ascii")


def _t_values(config: RunConfig) -> list[float]:
    g = config.t_grid
    if g["steps"] == 1:
        return [float(g["t0"])]
    step = (g["t1"] - g["t0"]) / (g["steps"] - 1)
    return [float(g["t0"] + i * step) for i in range(g["steps"])]


def _write_report(config: RunConfig, out: str | None, doc: dict, files=()) -> None:
    """A command's JSON report to --out, else to outputs.report_json, else to stdout.

    files are more (path, chunks) artifacts, written with it by _write_all.
    """
    _write_all([*files, (out or config.outputs["report_json"], [dump_json(doc) + "\n"])])


def cmd_eigs(config: RunConfig, out: str | None, seed: int) -> int:
    del seed
    cfg = _case_config(config)
    eigenset = _eigenset(config, cfg)
    entries = [{"kind": "quartet", "zeta": q.zeta, "zeta_conj": q.zeta_conj, "zeta_bar": q.zbar,
                "zeta_bar_conj": q.zbar_conj} for q in eigenset.quartets]
    entries += [{"kind": "pair", "zeta": p.zeta, "zeta_bar": p.zbar} for p in eigenset.pairs]
    for entry in entries:
        entry.update(region_zeta=classify(cfg, entry["zeta"]).value,
                     region_zeta_bar=classify(cfg, entry["zeta_bar"]).value)
    report = {"case": config.case, "J": eigenset.J, "J1": eigenset.J1, "J2": eigenset.J2,
              "entries": entries,
              "constraint_residuals": ist.admissibility_residuals(cfg, eigenset)}
    infima = getattr(ist, f"case{config.case}_trace_infima", None)
    if infima:
        report["trace_limit_infima"] = infima(cfg)
    _write_report(config, out, report)
    return EXIT_OK


def _field_grid(config: RunConfig, cfg, eigenset, norming) -> ist.ReconstructionGrid:
    """The field over the configured (n, t) grid, time-major, in one reconstruct_grid call."""
    sites = np.arange(-config.N, config.N + 1)
    ts = np.array(_t_values(config))
    return ist.reconstruct_grid(cfg, eigenset, norming, sites[None, :], ts[:, None])


# The field CSV's columns: its reader needs all but the last.
_FIELD_COLUMNS = ("n", "t", "re_q", "im_q", "abs_q", "singular")


def _field_csv(grid: ist.ReconstructionGrid):
    """The field CSV in chunks of _CSV_ROWS rows; a singular cell's q columns are empty."""
    yield ",".join(_FIELD_COLUMNS) + "\n"
    singular = grid.singular
    low = int(grid.ns.min())
    site_fields = _int_fields(np.arange(low, int(grid.ns.max()) + 1))
    for rows in _chunks(grid.q.size, _CSV_ROWS):
        bad = singular[rows]
        q = np.where(bad, 0.0, grid.q[rows])
        # np.hypot is the hypot of Python's abs(complex), not np.abs
        floats = format_g17(np.stack([grid.ts[rows], q.real, q.imag,
                                      np.hypot(q.real, q.imag)], axis=1))
        floats[..., -1] = ord(",")
        floats[bad, 1:, :-1] = 0
        flag = np.empty((bad.size, 2), np.uint8)
        flag[:, 0] = ord("0") + bad
        flag[:, 1] = ord("\n")
        yield _csv_text([site_fields[grid.ns[rows] - low], floats.reshape(bad.size, -1), flag])


def cmd_soliton(config: RunConfig, out: str | None, seed: int) -> int:
    del seed
    cfg = _case_config(config)
    eigenset, norming = _eigen_data(config, cfg)
    source = config.field["source"]
    _require(source == "soliton",
             f"soliton writes the configured soliton only, not 'field.source' {source}")
    _require_phase_digits(config, norming)
    grid = _field_grid(config, cfg, eigenset, norming)
    if grid.singular.all():
        sys.stderr.write("every grid cell is singular\n")
        return EXIT_ALL_SINGULAR
    _write_all([(out or config.outputs["field_csv"], _field_csv(grid))])
    return EXIT_OK


def _load_field_csv(path: str, cfg) -> lattice.PotentialWindow:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read field csv: {exc}") from exc
    needed = _FIELD_COLUMNS[:-1]
    _require(lines and tuple(lines[0].split(",")[:len(needed)]) == needed,
             "field csv must start with header " + ",".join(needed))
    by_site = {}
    t_val = None
    for ln in lines[1:]:
        parts = ln.split(",")
        _require(len(parts) in (len(needed), len(_FIELD_COLUMNS)),
                 f"malformed field csv row: {ln!r}")
        row = dict(zip(_FIELD_COLUMNS, parts))
        try:
            n, t = int(row["n"]), float(row["t"])
            q = complex(float(row["re_q"]), float(row["im_q"]))
        except ValueError as exc:
            raise ConfigError(f"malformed field csv row: {ln!r}") from exc
        _require(math.isfinite(q.real) and math.isfinite(q.imag),
                 f"non-finite re_q or im_q in field csv row: {ln!r}")
        if t_val is None:
            t_val = t
        if t == t_val:
            by_site[n] = q
    _require(by_site, "field csv contains no rows")
    n_max = min(-min(by_site), max(by_site))
    _require(n_max >= 0, "field csv needs sites on both sides of n = 0")
    sites = range(-n_max, n_max + 1)
    wrong = [f"{what} sites {_few(found)}" for what, found in (
        ("extra", sorted(n for n in by_site if abs(n) > n_max)),
        ("missing", [n for n in sites if n not in by_site])) if found]
    _require(n_max >= 1 and not wrong, "field csv sites must be exactly -N..N with N >= 1; "
             + ("; ".join(wrong) or "only site 0"))
    q = np.array([by_site[n] for n in sites], dtype=complex)
    return lattice.PotentialWindow(cfg, n_max, float(t_val), q)


def _few(sites: list[int]) -> str:
    """Up to five sites, and how many there are when there are more."""
    shown = ", ".join(map(str, sites[:5]))
    return shown if len(sites) <= 5 else f"{shown}, ... ({len(sites)} in all)"


def _field(config: RunConfig, command: str):
    """(cfg, spectrum, norming, q(ns, ts)) of the field 'field.source' names.

    soliton reconstructs the configured spectrum; background is the exact
    background with the empty spectrum (no eigenvalue or norming key read).
    csv is refused before any other check: only scatter reads one
    (_load_field_csv).
    """
    source = config.field["source"]
    _require(source != "csv",
             f"{command} does not read 'field.source' csv; give soliton or background")
    cfg = _case_config(config)
    if source == "soliton":
        eigenset, norming = _eigen_data(config, cfg)
        return cfg, eigenset, norming, ist.make_evaluator(cfg, eigenset, norming)
    eigenset = ist.empty_eigenset(cfg)
    return cfg, eigenset, ist.unit_norming(cfg, eigenset), cfg.background


def cmd_scatter(config: RunConfig, out: str | None, seed: int) -> int:
    if config.field["source"] == "csv":
        cfg = _case_config(config)
        window, eigenset = _load_field_csv(config.field["path"], cfg), None
    else:
        cfg, eigenset, _, field = _field(config, "scatter")
        window = _window(cfg, field, config.N, 0.0)
    zetas = scattering.continuum_samples(cfg, config.zeta_samples, seed=seed)
    report = scattering.scattering_report(window, zetas, eigenset)
    tol = config.tolerances["scattering"]
    gated = {"det_vs_theta": report.det_residual,
             **{f"symmetry_{name}": res for name, res in vars(report.symmetry).items()}}
    zeros = {f"t11_zero_{k}": res for k, res in enumerate(report.eigenvalue_residuals)}
    failures = {name: x for name, x in {**gated, **zeros}.items() if not x <= tol}  # fails a NaN
    doc = {name: list(getattr(report, name)) for name in (
        "zeta_grid", "t11", "t22", "t21_mod", "t12_mod", "rho", "rho_bar", "det_t")}
    doc.update({
        "theta_minus_inf": report.theta_minus_inf,
        "residuals": {**gated, "t11_at_eigenvalues": list(report.eigenvalue_residuals),
                      "trace_formula": report.trace_residual},
        "tolerance": tol,
        "failures": failures,
    })
    _write_report(config, out, doc)
    return EXIT_TOLERANCE if failures else EXIT_OK


def _window(cfg, evaluator, N: int, t: float) -> lattice.PotentialWindow:
    """The field of evaluator at time t on sites -N..N."""
    return lattice.PotentialWindow(cfg, N, t, evaluator(np.arange(-N, N + 1), t))


def cmd_verify(config: RunConfig, out: str | None, seed: int) -> int:
    """Check the field against the oracles; pass is every check's pass (exit 0).

    A soliton's residual cells (an empty spectrum's too) are solved first,
    once, with dq/dt, and the singularity scan reads them before it solves
    the rest of its sweep.  A flagged member skips the residual (which
    passes), the closed form and the scattering checks; otherwise a
    singular residual cell raises SingularSolution as the oracle reads it.
    The background field, which is no solve, gives q through its evaluator
    and dq/dt = i rotation q; it has no closed form.
    """
    del seed
    cfg, eigenset, norming, field = _field(config, "verify")
    _require_phase_digits(config, norming)
    ts, n_range = _t_values(config), range(-RESIDUAL_N, RESIDUAL_N + 1)
    cells, times = verify.residual_cells(n_range)[1][None, :], np.reshape(ts, (-1, 1))
    solved = None if config.field["source"] == "background" else ist.reconstruct_grid(
        cfg, eigenset, norming, cells, times, derivative=True)
    singular = ist.singularity_scan(cfg, eigenset, norming, **SCAN, solved=solved).singular
    checks = {"singular_parameters": {"flagged": singular}}
    if singular:
        checks["equation_residual"] = {"skipped": "singular family member"}
    else:
        if solved is None:
            q = field(cells, times)
            with np.errstate(over="ignore", invalid="ignore"):  # the residual reports a NaN
                qdot = 1j * cfg.rotation * q
        else:
            q, qdot = (a.reshape(len(ts), -1) for a in (solved.require(), solved.qdot))
        reps = verify.equation_residuals_exact(q, qdot, cfg, n_range, ts)
        # np.max keeps a NaN residual, which then fails the check
        worst = float(np.max([rep.max_abs_residual for rep in reps], initial=0.0))
        tol = config.tolerances["residual"]
        checks["equation_residual"] = {"max": worst, "tolerance": tol, "pass": worst < tol}
        closed_form = getattr(ist, f"soliton_closed_form_case{config.case}", None)
        if closed_form and solved is not None:
            sites = np.arange(-CLOSED_FORM_N, CLOSED_FORM_N + 1)[None, :]
            a = field(sites, times)
            keys = _SOLITONS[config.case][2]  # the closed form reads the norming keys
            b = closed_form(cfg, *(getattr(config, key) for key in keys), sites, times)
            worst_cf = float(np.max(np.abs(a - b)))
            checks["closed_form_equality"] = {"max": worst_cf, "tolerance": 1e-10,
                                              "pass": worst_cf < 1e-10}
        window = _window(cfg, field, min(config.N, ORACLE_N), 0.0)
        zetas = scattering.continuum_samples(cfg, 8, seed=1)
        report = scattering.scattering_report(window, zetas, eigenset)
        tol = config.tolerances["scattering"]  # x <= tol fails a NaN
        checks["det_vs_theta"] = {"max": report.det_residual, "tolerance": tol,
                                  "pass": report.det_residual <= tol}
        symmetry, zeros = vars(report.symmetry), list(report.eigenvalue_residuals)
        checks["symmetries"] = {**symmetry, "tolerance": tol,
                                "pass": all(x <= tol for x in symmetry.values())}
        if zeros:
            checks["t11_zeros"] = {"residuals": zeros, "tolerance": tol,
                                   "pass": all(x <= tol for x in zeros)}
    ok = all(check.get("pass", True) for check in checks.values())
    doc = {"case": config.case, "source": config.field["source"], "checks": checks,
           "limits": {"oracle_N": min(config.N, ORACLE_N), "residual_N": RESIDUAL_N,
                      "closed_form_N": CLOSED_FORM_N, "scan": SCAN},
           "pass": ok}
    _write_report(config, out, doc)
    return EXIT_OK if ok else EXIT_TOLERANCE


def _trajectory_csv(traj: verify.Trajectory):
    """The trajectory CSV in chunks of whole time rows, about _CSV_ROWS lines each."""
    yield "step,t,n,re_q,im_q\n"
    sites = np.arange(-traj.N, traj.N + 1)
    site_fields = _int_fields(sites)
    # simulate stores only finite states (it raises BlowupDetected first)
    for steps in _chunks(traj.times.size, max(1, _CSV_ROWS // sites.size)):
        ks = np.arange(traj.times.size)[steps]
        floats = format_g17(np.concatenate([traj.times[steps, None],
                                            traj.states[steps].view(float)], axis=1))
        floats[..., -1] = ord(",")
        floats[:, 2::2, -1] = ord("\n")
        shape = (ks.size, sites.size)
        yield _csv_text([np.broadcast_to(f, shape + f.shape[-1:]) for f in (
            _int_fields(ks)[:, None], floats[:, None, 0], site_fields,
            floats[:, 1:].reshape(shape + (2 * WIDTH,)))])


def cmd_evolve(config: RunConfig, out: str | None, seed: int) -> int:
    del seed
    cfg, eigenset, norming, field = _field(config, "evolve")
    t0 = float(config.t_grid["t0"])
    t1 = float(config.t_grid["t1"])
    span = abs(t1 - t0)
    # capped before round(), which raises on an inf span / dt: round(x) <= cap iff x <= cap + 0.5
    _require(span / config.dt <= MAX_EVOLVE_STEPS + 0.5,
             f"'dt' = {config.dt} takes {span / config.dt:.0f} RK4 steps over [t0, t1] = "
             f"[{t0}, {t1}]; at most {MAX_EVOLVE_STEPS} are allowed")
    steps = round(span / config.dt)
    _require(steps >= 1 and abs(steps * config.dt - span) <= 1e-9 * max(1.0, span),
             f"'dt' = {config.dt} does not tile [t0, t1] = [{t0}, {t1}] in whole steps")
    _require_phase_digits(config, norming)
    singular = ist.singularity_scan(cfg, eigenset, norming, **SCAN).singular
    window = _window(cfg, field, min(config.N, ORACLE_N), t0)
    limits = {"oracle_N": window.N, "scan": SCAN}
    try:
        traj = verify.simulate(window, cfg, t1, config.dt)
    except BlowupDetected as exc:
        doc = {"case": config.case, "blowup": True, "singular_parameters": singular,
               "step": exc.step, "t": exc.t, "limits": limits}
        _write_report(config, out, doc)
        return EXIT_OK if singular else EXIT_BLOWUP
    deviation = verify.compare(traj, field)
    tol = config.tolerances["compare"]
    traj_path = config.outputs["trajectory_csv"]
    _write_report(config, out, {
        "case": config.case, "blowup": False, "singular_parameters": singular,
        "max_deviation": deviation, "tolerance": tol,
        "trajectory_csv": traj_path, "limits": limits, "pass": deviation < tol},
        files=[(traj_path, _trajectory_csv(traj))])
    return EXIT_OK if deviation < tol else EXIT_TOLERANCE


# Each error a command can end in, with its exit code and stderr label (first match wins).
_FAILURES = (((ConfigError, DomainError), EXIT_CONFIG, "config error"),
             (Inadmissible, EXIT_INADMISSIBLE, "inadmissible"),
             (BlowupDetected, EXIT_BLOWUP, "blow-up"),
             (IstError, EXIT_NUMERICAL, "numerical failure"))
_DISPATCH = {
    "eigs": cmd_eigs,
    "soliton": cmd_soliton,
    "scatter": cmd_scatter,
    "verify": cmd_verify,
    "evolve": cmd_evolve,
}


_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


@functools.cache
def _pin_malloc() -> None:
    """Fix glibc's mmap and trim thresholds (mallopt(3)); elsewhere do nothing.

    The block solve's temporaries are 128 KiB, glibc's default mmap
    threshold, so whether a process maps, unmaps or trims them on every
    block depends on its allocation history: about 300 fresh pages a c1
    soliton call.  Fixed thresholds keep them on the heap.  Where the
    environment sets MALLOC_MMAP_THRESHOLD_ or MALLOC_TRIM_THRESHOLD_,
    glibc has read that choice at start-up, and it is kept as it is.
    """
    if "CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", {}):
        return  # not glibc
    if any(name in os.environ for name in _MALLOC_ENV):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, the ceiling of glibc's dynamic one
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD, twice that, as glibc's dynamic one


def main(argv=None) -> int:
    _pin_malloc()
    parser = argparse.ArgumentParser(
        prog="ist",
        description="Inverse scattering transform pipelines for the nonlocal lattice NLS")
    parser.add_argument("command", choices=tuple(_DISPATCH))
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", default=None, help="primary artifact path (default stdout)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of scatter's continuum zeta samples")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        return _DISPATCH[args.command](config, args.out, args.seed)
    except IstError as exc:
        code, label = next((code, label) for kind, code, label in _FAILURES
                           if isinstance(exc, kind))
        sys.stderr.write(f"{label}: {exc}\n")
        return code


if __name__ == "__main__":
    raise SystemExit(main())
