import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnls_ist import cli, ist, lattice, scattering, spectral, verify
from dnls_ist.cli import (EXIT_ALL_SINGULAR, EXIT_BLOWUP, EXIT_CONFIG,
                          EXIT_INADMISSIBLE, EXIT_NUMERICAL, EXIT_OK,
                          EXIT_TOLERANCE, dump_json, load_config, main,
                          parse_config)
from dnls_ist.errors import ConfigError

from conftest import (CASE1_ETA1, dump_json_recursive, field_csv_lines, reconstruct_grid_sizes,
                      trajectory_csv_lines)

CASE1_CONFIG = {
    "case": 1,
    "q0": 2.0 / 3.0,
    "theta": 0.0,
    "eta1": CASE1_ETA1,
    "kappa1": 1.0,
    "thbar1": 0.0,
    "thbar2": 0.0,
    "N": 40,
    "t_grid": {"t0": 0.0, "t1": 1.0, "steps": 3},
    "dt": 0.01,
}

CASE4_CONFIG = {
    "case": 4,
    "q0": 2.0 / 3.0,
    "theta_plus": 0.0,
    "thbar1": math.pi / 3.0,
    "N": 40,
    "t_grid": {"t0": 0.0, "t1": 1.0, "steps": 3},
    "dt": 0.01,
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _key_errors():
    """(config, message) for each config key given a wrong kind, or a value out of bound.

    A wrong kind is a string, a bool, NaN and Infinity, each where the key
    does not take it.  Every config starts from a valid case-4 config.
    """
    number = "'{}' must be a finite number"
    keys = {  # key path: (message, takes strings, out-of-bound values and their messages)
        "case": ("'case' must be an integer 1..4", False, [(0, None), (5, None), (2.0, None)]),
        "q0": ("'q0' must be a positive number", False, [(0, None), (-0.5, None)]),
        **{key: (number, False, []) for key in (
            "theta", "theta_minus", "theta_plus", "eta1", "zeta_hat_1", "kappa1", "thbar1",
            "thbar2")},
        "J": ("'J' has the wrong type", False, [(1.5, None)]),
        "N": ("'N' has the wrong type", False, [(0, "'N' must be >= 1"), (-3, "'N' must be >= 1")]),
        "zeta_samples": ("'zeta_samples' has the wrong type", False,
                         [(0, "'zeta_samples' must be >= 1")]),
        "dt": (number, False, [(0, "'dt' must be positive"), (-0.1, "'dt' must be positive")]),
        **{key: ("'{}' must be an object", False, []) for key in (
            "t_grid", "tolerances", "field", "outputs")},
        "t_grid.t0": (number, False, []),
        "t_grid.t1": (number, False, []),
        "t_grid.steps": ("'t_grid.steps' must be a positive integer", False,
                         [(0, None), (-1, None), (3.0, None)]),
        **{f"tolerances.{key}": (f"tolerance '{key}' must be a finite number >= 0", False,
                                 [(-1e-9, None)]) for key in ("residual", "scattering", "compare")},
        "field.source": ("'field.source' must be soliton | background | csv", False, []),
        "field.path": ("'field.path' required for csv", True, []),
        **{f"outputs.{key}": ("output paths must be strings", True, [])
           for key in ("field_csv", "report_json", "trajectory_csv")},
    }
    cases = []
    for key, (message, takes_strings, bounds) in keys.items():
        wrong = ([] if takes_strings else ["x"]) + [True, math.nan, math.inf]
        for value, bound_message in [(v, None) for v in wrong] + bounds:
            doc = {"case": 4, "q0": 2.0 / 3.0}
            *parents, last = key.split(".")
            inner = doc
            for parent in parents:
                inner = inner.setdefault(parent, {"source": "csv"} if parent == "field" else {})
            inner[last] = value
            cases.append(pytest.param(doc, (bound_message or message).format(key),
                                      id=f"{key}={value!r}"))
    return cases


def write_background_csv(path, entries):
    """The case-4 q0 = 2/3 background on sites -10..10 at t = 0 as a field CSV,
    with the (re_q, im_q) text of each site in entries in place of its own."""
    q = spectral.make_case(4, 2.0 / 3.0, -math.pi).background(np.arange(-10, 11), 0.0)
    rows = {n: (repr(float(v.real)), repr(float(v.imag))) for n, v in zip(range(-10, 11), q)}
    rows.update(entries)
    path.write_text("n,t,re_q,im_q,abs_q\n" + "".join(
        f"{n},0,{re},{im},0\n" for n, (re, im) in rows.items()), encoding="utf-8")


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"case": 1, "q0": 0.5, "bogus": 1})

    def test_bad_types_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"case": "one", "q0": 0.5})
        with pytest.raises(ConfigError):
            parse_config({"case": 1, "q0": -0.5})
        with pytest.raises(ConfigError):
            parse_config({"case": 1, "q0": 0.5, "theta": 0.0, "theta_plus": 1.0})

    def test_theta_plus_maps_to_theta_minus(self):
        cfg = parse_config(dict(CASE4_CONFIG))
        assert cfg.theta_minus == pytest.approx(-math.pi)

    @pytest.mark.parametrize("case", [1, 2, 3, 4])
    def test_theta_plus_is_shifted_by_delta_theta(self, case):
        shift = math.pi if case in (2, 4) else 0.0
        config = parse_config({"case": case, "q0": 0.5, "theta_plus": 1.0})
        assert config.theta_minus == 1.0 - shift

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["eigs", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_exit_code_on_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["eigs", "--config", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("edit", [
        {"zeta_samples": -3},
        {"zeta_samples": 0},
        {"t_grid": {"t0": "zero", "t1": 1.0, "steps": 3}},
        {"t_grid": {"t0": 0.0, "t1": [1.0], "steps": 3}},
        {"theta": math.nan},
        {"eta1": math.inf},
        {"q0": math.inf},
        {"dt": math.nan},
        {"tolerances": {"scattering": math.inf}},
        {"case": True},
    ], ids=["zeta_samples_negative", "zeta_samples_zero", "t0_string", "t1_list",
            "theta_nan", "eta1_inf", "q0_inf", "dt_nan", "tolerance_inf", "case_bool"])
    def test_bad_values_exit_2_without_traceback(self, tmp_path, capsys, edit):
        doc = {**CASE1_CONFIG, "zeta_samples": 4, **edit}
        path = write_config(tmp_path, doc)  # json writes NaN and Infinity literally
        assert main(["scatter", "--config", path, "--out", str(tmp_path / "r.json")]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("key", ["bump", "seed"])
    def test_ignored_field_keys_are_gone(self, tmp_path, capsys, key):
        doc = {"case": 1, "q0": 2.0 / 3.0, "N": 10, "zeta_samples": 2,
               "field": {"source": "background", key: 1}}
        path = write_config(tmp_path, doc)
        assert main(["scatter", "--config", path, "--out", str(tmp_path / "r.json")]) \
            == EXIT_CONFIG
        assert f"unknown field keys: ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize("key, noun", [("t_grid", "t_grid"), ("tolerances", "tolerance"),
                                           ("field", "field"), ("outputs", "output")])
    def test_sub_object_messages(self, tmp_path, capsys, key, noun):
        for value, message in ((["x"], f"'{key}' must be an object"),
                               ({"bogus": 1}, f"unknown {noun} keys: ['bogus']")):
            path = write_config(tmp_path, {**CASE1_CONFIG, key: value})
            assert main(["eigs", "--config", path]) == EXIT_CONFIG
            assert capsys.readouterr() == ("", f"config error: {message}\n")

    def test_empty_field_object_is_an_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {**CASE1_CONFIG, "field": {}})
        assert main(["verify", "--config", path]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: 'field.source' must be soliton | background | csv\n")

    @pytest.mark.parametrize("doc, message", _key_errors())
    def test_every_key_names_its_error(self, tmp_path, capsys, doc, message):
        path = write_config(tmp_path, doc)  # json writes NaN and Infinity literally
        assert main(["eigs", "--config", path]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"config error: {message}\n")

    @pytest.mark.parametrize("edit, message", [
        ({"bogus": 1, "case": 0}, "unknown config keys: ['bogus']"),
        ({"case": 0, "q0": "x"}, "'case' must be an integer 1..4"),
        ({"case": 0, "eta1": "x"}, "'case' must be an integer 1..4"),
        ({"J": "x", "eta1": "x"}, "'J' has the wrong type"),
        ({"zeta_samples": "x", "eta1": "x"}, "'zeta_samples' has the wrong type"),
        ({"N": 0, "dt": "x"}, "'dt' must be a finite number"),
        ({"N": 0, "dt": 0}, "'N' must be >= 1"),
        ({"N": 0, "t_grid": {"steps": 0}}, "'N' must be >= 1"),
        ({"dt": 0, "tolerances": ["x"]}, "'dt' must be positive"),
        ({"t_grid": {"t0": "x", "steps": 0}}, "'t_grid.steps' must be a positive integer"),
        ({"t_grid": {"t1": "x", "t0": "x"}}, "'t_grid.t0' must be a finite number"),
        ({"t_grid": [], "tolerances": []}, "'t_grid' must be an object"),
        ({"tolerances": {"bogus": 1, "residual": -1}}, "unknown tolerance keys: ['bogus']"),
        ({"tolerances": {"residual": -1}, "field": {}},
         "tolerance 'residual' must be a finite number >= 0"),
        ({"field": {"source": "x"}, "outputs": []}, "'field.source' must be soliton | background | csv"),
    ], ids=lambda v: json.dumps(v) if isinstance(v, dict) else None)
    def test_two_bad_keys_name_the_first_checked(self, tmp_path, capsys, edit, message):
        path = write_config(tmp_path, {"case": 4, "q0": 2.0 / 3.0, **edit})
        assert main(["eigs", "--config", path]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"config error: {message}\n")

    @pytest.mark.parametrize("doc, message", [
        ({"case": 4}, "config requires 'case' and 'q0'"),
        ({"q0": 0.5, "bogus": 1}, "unknown config keys: ['bogus']"),
        ({"case": 4, "q0": 0.5, "theta": 0.0, "theta_plus": 1.0},
         "give at most one of theta / theta_minus / theta_plus"),
        ({"case": 4, "q0": 0.5, "theta_minus": 0.0, "theta_plus": "x"},
         "give at most one of theta / theta_minus / theta_plus"),
        ({"case": 4, "q0": 0.5, "J": "x", "theta": 0.0, "theta_minus": 0.0},
         "give at most one of theta / theta_minus / theta_plus"),
        ({"case": 4, "q0": 0.5, "field": {"path": "f.csv"}},
         "'field.source' must be soliton | background | csv"),
        ({"case": 4, "q0": 0.5, "field": {"source": "csv"}}, "'field.path' required for csv"),
    ], ids=["missing", "unknown-first", "two-phases", "two-phases-one-bad", "phases-before-J",
            "path-without-source", "csv-without-path"])
    def test_presence_messages(self, tmp_path, capsys, doc, message):
        assert main(["eigs", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"config error: {message}\n")

    @pytest.mark.parametrize("edit, message", [
        ({"N": 10**15}, "'N' must be <= 10000"),
        ({"N": cli.MAX_N + 1}, "'N' must be <= 10000"),
        ({"zeta_samples": 10**15}, "'zeta_samples' must be <= 500"),
        ({"zeta_samples": cli.MAX_ZETA_SAMPLES + 1}, "'zeta_samples' must be <= 500"),
        ({"t_grid": {"steps": 10**15}}, "'t_grid.steps' must be <= 10000"),
        ({"t_grid": {"steps": cli.MAX_T_STEPS + 1}}, "'t_grid.steps' must be <= 10000"),
        ({"N": cli.MAX_N, "t_grid": {"steps": 101}},
         "'N' = 10000 and 't_grid.steps' = 101 make 2020101 grid cells; "
         "at most 2000000 are allowed"),
        ({"N": 312, "t_grid": {"steps": 3201}},
         "'N' = 312 and 't_grid.steps' = 3201 make 2000625 grid cells; "
         "at most 2000000 are allowed"),
        # t1 - t0 = inf: soliton and verify ran on NaN times, evolve raised OverflowError
        ({"t_grid": {"t0": -1e308, "t1": 1e308}},
         "'t_grid' span t1 - t0 overflows: [t0, t1] = [-1e+308, 1e+308]"),
    ], ids=["N", "N-cap", "zeta_samples", "zeta_samples-cap", "steps", "steps-cap",
            "cells-at-N-cap", "cells-by-one-step", "t-span"])
    @pytest.mark.parametrize("command", ["eigs", "soliton", "scatter", "verify", "evolve"])
    def test_sizes_over_their_caps_exit_2(self, tmp_path, capsys, command, edit, message):
        # Each is refused before any array is built: 10**15 sites or samples
        # would end in a MemoryError, and 10**15 times in a list never built.
        path = write_config(tmp_path, {**CASE4_CONFIG, **edit})
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert not (tmp_path / "out").exists()

    def test_sizes_at_their_caps_are_accepted(self):
        for edit in ({"N": cli.MAX_N}, {"zeta_samples": cli.MAX_ZETA_SAMPLES},
                     {"t_grid": {"steps": cli.MAX_T_STEPS}},
                     {"N": 312, "t_grid": {"steps": 3200}}):  # 625 * 3200 = MAX_GRID_CELLS
            parse_config({**CASE4_CONFIG, **edit})
        assert 625 * 3200 == cli.MAX_GRID_CELLS

    @pytest.mark.parametrize("doc, t, rate", [
        (CASE4_CONFIG, 1e6, "0.888889"),  # the rotation, the spectrum's only rate
        (CASE1_CONFIG, 4e5, "1.1587"),  # |c_rate_j|: rotation t is 3.6e5, inside the bound
    ], ids=["c4", "c1"])
    @pytest.mark.parametrize("command", ["soliton", "verify", "evolve"])
    def test_times_past_the_phase_bound_exit_2(self, tmp_path, capsys, command, doc, t, rate):
        # a span of 1 takes 100 RK4 steps, so evolve's step checks pass first
        edit = {"t_grid": {"t0": t, "t1": t + 1.0, "steps": 3}}
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, {**doc, **edit}),
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", (
            f"config error: 't_grid' reaches |t| = {t + 1.0:g}, where the phase rate {rate} "
            f"times t is {float(rate) * (t + 1.0):.3g}; at most 4.5e+05 = 1e-10 / eps is "
            "allowed, past which the phase's rounding passes 1e-10\n"))
        assert not out.exists()
        # 1% inside the bound is accepted
        config = parse_config({**doc, "t_grid": {"t0": -0.99 * cli.MAX_PHASE / float(rate)}})
        cli._require_phase_digits(config, cli._eigen_data(config, cli._case_config(config))[1])

    @pytest.mark.parametrize("command", ["soliton", "verify"])
    def test_a_phase_that_overflows_exits_2(self, tmp_path, capsys, command):
        # an empty spectrum's times are not bounded, but rotation t must be finite:
        # at t = 1.5e308 q_plus(t) is NaN
        doc = {"case": 1, "q0": 0.9, "theta": 0, "J": 0, "N": 1,
               "t_grid": {"t0": 0, "t1": 1.5e308, "steps": 2}}
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "", "config error: 't_grid' reaches |t| = 1.5e+308, where the phase overflows\n")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["soliton", "background"])
    def test_path_is_read_only_with_csv(self, tmp_path, capsys, source):
        doc = {**CASE4_CONFIG, "field": {"source": source, "path": "f.csv"}}
        assert main(["scatter", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "", "config error: 'field.path' is read only with 'field.source' csv\n")
        assert parse_config({**CASE4_CONFIG, "field": {"source": source, "path": None}})

    @pytest.mark.parametrize("key, kind", [
        ("q0", "a positive number"), ("eta1", "a finite number"), ("dt", "a finite number"),
        ("theta", "a finite number")])
    def test_int_past_the_largest_double_is_not_a_number(self, tmp_path, capsys, key, kind):
        # float(10**400) raises OverflowError: the kind check must refuse it
        path = write_config(tmp_path, {**CASE1_CONFIG, key: 10**400})
        assert main(["verify", "--config", path]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"config error: '{key}' must be {kind}\n")
        assert parse_config({**CASE1_CONFIG, key: 10**300})

    def test_defaults_come_from_the_schema(self):
        config = parse_config({"case": 4, "q0": 1})
        assert (config.q0, config.theta_minus) == (1.0, 0.0)
        assert type(config.q0) is float and type(config.theta_minus) is float
        assert (config.J, config.N, config.dt, config.zeta_samples) == (None, 60, 0.01, 20)
        assert (config.eta1, config.zeta_hat_1, config.kappa1, config.thbar1, config.thbar2) \
            == (None, None, 1.0, 0.0, 0.0)
        assert config.t_grid == {"steps": 11, "t0": 0.0, "t1": 1.0}
        assert config.tolerances == {"residual": 1e-6, "scattering": 1e-5, "compare": 1e-4}
        assert config.field == {"source": "soliton", "path": None}
        assert config.outputs == {"field_csv": None, "report_json": None,
                                  "trajectory_csv": "trajectory.csv"}
        given = parse_config({"case": 2, "q0": 1, "theta_plus": 1, "tolerances": {"compare": 0},
                              "t_grid": {"t1": 2}, "outputs": {"trajectory_csv": "t.csv"}})
        assert given.theta_minus == 1.0 - math.pi
        assert given.tolerances == {"residual": 1e-6, "scattering": 1e-5, "compare": 0}
        assert given.t_grid == {"steps": 11, "t0": 0.0, "t1": 2}
        assert given.outputs["trajectory_csv"] == "t.csv"

    @pytest.mark.parametrize("edit, message", [
        ({"dt": 0, "zeta_samples": 0}, "'zeta_samples' must be >= 1"),
        ({"tolerances": {"compare": -1, "residual": -1}},
         "tolerance 'residual' must be a finite number >= 0"),
        ({"case": 0, "theta": 0.0, "theta_plus": 0.0},
         "give at most one of theta / theta_minus / theta_plus"),
    ], ids=["bounds-in-table-order", "tolerances-in-table-order", "phases-before-kinds"])
    def test_checks_follow_the_table_order(self, tmp_path, capsys, edit, message):
        """Unknown keys, missing keys and the phase keys, then kinds, then bounds, by table."""
        path = write_config(tmp_path, {"case": 4, "q0": 2.0 / 3.0, **edit})
        assert main(["eigs", "--config", path]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"config error: {message}\n")


class TestEigs:
    def test_case2_empty(self, tmp_path, capsys):
        path = write_config(tmp_path, {"case": 2, "q0": 1.0})
        assert main(["eigs", "--config", path]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["J"] == 0 and doc["entries"] == []
        assert min(doc["trace_limit_infima"].values()) > 0

    def test_case2_report_is_the_same_at_every_seed(self, tmp_path):
        path = write_config(tmp_path, {"case": 2, "q0": 1.0})
        reports = []
        for seed in ("0", "7"):
            out = tmp_path / f"eigs-{seed}.json"
            assert main(["eigs", "--config", path, "--seed", seed, "--out", str(out)]) == EXIT_OK
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_case2_scans_once_at_the_cli_seed(self, tmp_path, monkeypatch):
        # the closed-form infima stand in for the scan: one evaluation, no seed passed on
        calls = []
        infima = ist.case2_trace_infima

        def counted(cfg):
            calls.append(cfg.q0)
            return infima(cfg)

        monkeypatch.setattr(ist, "case2_trace_infima", counted)
        path = write_config(tmp_path, {"case": 2, "q0": 1.0})
        assert main(["eigs", "--config", path, "--seed", "7"]) == EXIT_OK
        assert calls == [1.0]

    @pytest.mark.parametrize("q0", [1e-200, 0.1, 2.0 / 3.0, 3.0, 100.0, 1e150])
    def test_case2_reports_the_closed_form_infima(self, tmp_path, capsys, q0):
        path = write_config(tmp_path, {"case": 2, "q0": q0})
        assert main(["eigs", "--config", path]) == EXIT_OK
        infima = json.loads(capsys.readouterr().out)["trace_limit_infima"]
        with mpmath.workdps(50):
            q = mpmath.mpf(q0)
            real_pair = float(min(2, 2 * (mpmath.sqrt(1 + q * q) + 1) / (q * q)))
        assert list(infima) == ["J2=1 real pair", "J1=1 quartet", "J2=2 real pairs"]
        assert infima["J2=1 real pair"] == pytest.approx(real_pair, rel=1e-15, abs=0)
        assert (infima["J1=1 quartet"], infima["J2=2 real pairs"]) == (1.0, 2.0)

    def test_case1_quartet(self, tmp_path):
        out = tmp_path / "eigs.json"
        path = write_config(tmp_path, CASE1_CONFIG)
        assert main(["eigs", "--config", path, "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["J"] == 2 and doc["J1"] == 1
        assert doc["entries"][0]["kind"] == "quartet"
        assert doc["entries"][0]["region_zeta"] == "D-"
        assert max(doc["constraint_residuals"].values()) < 1e-10

    def test_inadmissible_eta1(self, tmp_path):
        doc = dict(CASE1_CONFIG)
        doc["eta1"] = math.pi / 2
        path = write_config(tmp_path, doc)
        assert main(["eigs", "--config", path]) == EXIT_INADMISSIBLE

    def test_case3_pairs(self, tmp_path):
        path = write_config(tmp_path, {"case": 3, "q0": 1.0, "zeta_hat_1": 3.0})
        out = tmp_path / "eigs3.json"
        assert main(["eigs", "--config", path, "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["J"] == 2 and doc["J2"] == 2


    @pytest.mark.parametrize("doc, mismatch", [
        ({"case": 1, "q0": 0.5, "J": 0}, 0.0),
        ({"case": 2, "q0": 0.5}, 2.0),
        ({"case": 4, "q0": 0.5, "J": 0}, 2.0),
    ])
    def test_empty_spectrum_reports_trace_residuals(self, tmp_path, capsys, doc, mismatch):
        assert main(["eigs", "--config", write_config(tmp_path, doc)]) == EXIT_OK
        res = json.loads(capsys.readouterr().out)["constraint_residuals"]
        assert res == {"t11_at_rinv": mismatch, "t22_at_zero": 0.0, "t22_at_r": mismatch}

    def test_report_json_without_out(self, tmp_path, capsys):
        report = tmp_path / "eigs.json"
        path = write_config(tmp_path, {**CASE1_CONFIG, "outputs": {"report_json": str(report)}})
        assert main(["eigs", "--config", path]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert json.loads(report.read_text())["J"] == 2


class TestThbar2:
    """The reduction fixes Cbar_2's phase: thbar2 is thbar1 (mod 2pi) or a config error."""

    @pytest.mark.parametrize("command", ["soliton", "verify"])
    def test_other_phase_exits_2(self, tmp_path, capsys, command):
        path = write_config(tmp_path, {**CASE1_CONFIG, "thbar2": 0.5})
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: thbar2 = 0.5 must equal thbar1 = 0.0")
        assert not out.exists()

    def test_a_whole_turn_is_the_same_field(self, tmp_path):
        fields = []
        for thbar2 in (0.3, 0.3 + 2.0 * math.pi):
            path = write_config(tmp_path, {**CASE1_CONFIG, "thbar1": 0.3, "thbar2": thbar2})
            out = tmp_path / "field.csv"
            assert main(["soliton", "--config", path, "--out", str(out)]) == EXIT_OK
            rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
            assert all(r[5] == "0" for r in rows)
            fields.append(np.array([complex(float(r[2]), float(r[3])) for r in rows]))
        assert np.max(np.abs(fields[0] - fields[1])) <= 1e-14

    @pytest.mark.parametrize("command", ["soliton", "verify"])
    def test_thbar2_defaults_to_thbar1(self, tmp_path, command):
        # at the schema's former default thbar2 = 0.0 this config exited 2
        without = {key: value for key, value in CASE1_CONFIG.items() if key != "thbar2"}
        artifacts = []
        for doc in ({**without, "thbar1": 0.3}, {**without, "thbar1": 0.3, "thbar2": 0.3}):
            out = tmp_path / "out"
            assert main([command, "--config", write_config(tmp_path, doc),
                         "--out", str(out)]) == EXIT_OK
            artifacts.append(out.read_bytes())
        assert artifacts[0] == artifacts[1]
        assert parse_config({"case": 1, "q0": 0.5, "thbar1": 0.3}).thbar2 == 0.3


class TestSoliton:
    def test_background_constant_field(self, tmp_path):
        doc = {"case": 1, "q0": 2.0 / 3.0, "J": 0, "N": 10,
               "t_grid": {"t0": 0.0, "t1": 0.0, "steps": 1}}
        path = write_config(tmp_path, doc)
        out = tmp_path / "field.csv"
        assert main(["soliton", "--config", path, "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,t,re_q,im_q,abs_q,singular"
        assert len(lines) == 22
        for ln in lines[1:]:
            parts = ln.split(",")
            assert float(parts[4]) == pytest.approx(2.0 / 3.0, rel=1e-12)
            assert parts[5] == "0"

    @pytest.mark.parametrize("field", [{"source": "background"},
                                       {"source": "csv", "path": "none.csv"}],
                             ids=["background", "csv"])
    def test_another_field_source_is_a_config_error(self, tmp_path, capsys, field):
        # soliton writes the configured spectrum's field, which verify and evolve
        # would not check under another source
        path = write_config(tmp_path, {**CASE4_CONFIG, "field": field})
        out = tmp_path / "field.csv"
        assert main(["soliton", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "", "config error: soliton writes the configured soliton only, not "
                f"'field.source' {field['source']}\n")
        assert not out.exists()

    def test_case1_dark_dips(self, tmp_path):
        doc = dict(CASE1_CONFIG)
        doc["t_grid"] = {"t0": 10.0, "t1": 10.0, "steps": 1}
        path = write_config(tmp_path, doc)
        out = tmp_path / "case1.csv"
        assert main(["soliton", "--config", path, "--out", str(out)]) == EXIT_OK
        rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
        prof = np.array([float(r[4]) for r in rows])
        q0 = 2.0 / 3.0
        dips = [i for i in range(1, len(prof) - 1)
                if prof[i] < prof[i - 1] and prof[i] < prof[i + 1] and prof[i] < q0 - 1e-3]
        assert len(dips) == 2

    def test_case4_bright_hump(self, tmp_path):
        doc = dict(CASE4_CONFIG)
        doc["t_grid"] = {"t0": 0.0, "t1": 0.0, "steps": 1}
        path = write_config(tmp_path, doc)
        out = tmp_path / "case4.csv"
        assert main(["soliton", "--config", path, "--out", str(out)]) == EXIT_OK
        rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
        prof = np.array([float(r[4]) for r in rows])
        assert prof.max() > 2.0 / 3.0 + 0.1

    def test_singular_cells_flagged(self, tmp_path):
        # theta + thbar = pi member has a real-time pole; pin the grid to the
        # refined pole cell and require the singular flag in the CSV
        from dnls_ist import ist, spectral
        cfg = spectral.make_case(1, 2.0 / 3.0, math.pi)
        eigenset = ist.eigenvalues_case1(cfg, CASE1_ETA1)
        norming = ist.norming_case1(cfg, eigenset, 1.0, 0.0, 0.0)
        scan = ist.singularity_scan(cfg, eigenset, norming, n_range=(-8, 8),
                                    t_span=(0.0, 5.0), coarse_dt=0.25)
        assert scan.singular
        doc = dict(CASE1_CONFIG)
        doc["theta"] = math.pi
        doc["N"] = 10
        doc["t_grid"] = {"t0": scan.at_time, "t1": scan.at_time, "steps": 1}
        path = write_config(tmp_path, doc)
        out = tmp_path / "singular.csv"
        assert main(["soliton", "--config", path, "--out", str(out)]) == EXIT_OK
        rows = out.read_text().strip().split("\n")[1:]
        assert [r.split(",")[5] for r in rows].count("1") == 2

    def test_every_cell_singular_exits_4(self, tmp_path, capsys):
        # c1 at t = 1000: every cell of a 7-site window overflows
        path = write_config(tmp_path, {**CASE1_CONFIG, "N": 3,
                                       "t_grid": {"t0": 1000.0, "t1": 1000.0, "steps": 3}})
        out = tmp_path / "field.csv"
        assert main(["soliton", "--config", path, "--out", str(out)]) == EXIT_ALL_SINGULAR
        assert capsys.readouterr() == ("", "every grid cell is singular\n")
        assert not out.exists()

    def test_determinism(self, tmp_path):
        path = write_config(tmp_path, CASE4_CONFIG)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["soliton", "--config", path, "--out", str(out1)]) == EXIT_OK
        assert main(["soliton", "--config", path, "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()


    def test_wide_window_flags_overflow_without_traceback(self, tmp_path, capsys):
        # far out the lam**(2n) entries would overflow double precision; the
        # far field is filled with the background instead, so no cell is flagged
        doc = dict(CASE4_CONFIG)
        doc["N"] = 700
        doc["t_grid"] = {"t0": 0.0, "t1": 1.0, "steps": 2}
        path = write_config(tmp_path, doc)
        out = tmp_path / "wide.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["soliton", "--config", path, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
        assert len(rows) == 2 * 1401
        assert {r[5] for r in rows} == {"0"}
        for n in (-700, 700):
            far = [float(r[4]) for r in rows if int(r[0]) == n]
            assert len(far) == 2 and all(abs(a - 2.0 / 3.0) < 1e-15 for a in far)

    def test_overflowing_amplitude_is_flagged(self, tmp_path, monkeypatch):
        # q_plus = 1.5e308 (1 + i) is finite but its modulus overflows: the
        # J = 0 cells where q = q_plus are flagged, not an OverflowError
        q_plus = spectral.CaseConfig.q_plus

        def huge_at_t1(self, t):
            return np.where(np.asarray(t) == 1.0, 1.5e308 * (1 + 1j), q_plus(self, t))

        monkeypatch.setattr(spectral.CaseConfig, "q_plus", huge_at_t1)
        path = write_config(tmp_path, {**CASE1_CONFIG, "J": 0, "N": 3})
        out = tmp_path / "field.csv"
        assert main(["soliton", "--config", path, "--out", str(out)]) == EXIT_OK
        rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
        assert {(r[1], r[5]) for r in rows} == {("0", "0"), ("0.5", "0"), ("1", "1")}


class TestScatter:
    def test_background_passes(self, tmp_path):
        doc = {"case": 1, "q0": 2.0 / 3.0, "N": 25, "field": {"source": "background"},
               "zeta_samples": 6}
        path = write_config(tmp_path, doc)
        out = tmp_path / "scatter.json"
        assert main(["scatter", "--config", path, "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["failures"] == {}
        assert abs(rep["theta_minus_inf"]["re"] - 1.0) < 1e-12

    def test_soliton_roundtrip(self, tmp_path):
        doc = dict(CASE1_CONFIG)
        doc["zeta_samples"] = 6
        path = write_config(tmp_path, doc)
        out = tmp_path / "scatter2.json"
        assert main(["scatter", "--config", path, "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert max(rep["residuals"]["t11_at_eigenvalues"]) < 1e-5

    def test_corrupted_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("n,t\n0,0\n", encoding="utf-8")
        doc = {"case": 1, "q0": 2.0 / 3.0,
               "field": {"source": "csv", "path": str(bad)}}
        path = write_config(tmp_path, doc)
        assert main(["scatter", "--config", path]) == EXIT_CONFIG

    @pytest.mark.parametrize("sites", [(-3, -2), (2, 3)], ids=["n<0 only", "n>0 only"])
    def test_one_sided_csv_is_a_config_error(self, tmp_path, capsys, sites):
        field = tmp_path / "one_sided.csv"
        field.write_text("n,t,re_q,im_q,abs_q\n"
                         + "".join(f"{n},0,0.6,0,0.6\n" for n in sites), encoding="utf-8")
        doc = {"case": 1, "q0": 0.6, "field": {"source": "csv", "path": str(field)}}
        assert main(["scatter", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        assert "both sides of n = 0" in capsys.readouterr().err

    @pytest.mark.parametrize("sites, named", [
        (range(0, 4), "extra sites 1, 2, 3"),
        (range(-2, 41), "extra sites 3, 4, 5, 6, 7, ... (38 in all)"),
        ([-2, -1, 1, 2], "missing sites 0"),
    ], ids=["0..3", "-2..40", "no n=0"])
    def test_csv_sites_must_be_a_symmetric_window(self, tmp_path, capsys, sites, named):
        field = tmp_path / "asymmetric.csv"
        field.write_text("n,t,re_q,im_q,abs_q\n"
                         + "".join(f"{n},0,0.6,0,0.6\n" for n in sites), encoding="utf-8")
        doc = {"case": 1, "q0": 0.6, "field": {"source": "csv", "path": str(field)}}
        assert main(["scatter", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "sites must be exactly -N..N with N >= 1" in err and named in err

    @pytest.mark.parametrize("re_q, im_q", [("inf", "0"), ("nan", "0"), ("0.5", "-inf")])
    def test_non_finite_csv_entry_is_a_config_error(self, tmp_path, capsys, re_q, im_q):
        # refused at its row, before any array arithmetic on it can warn
        field = tmp_path / "field.csv"
        write_background_csv(field, {3: (re_q, im_q)})
        doc = {**CASE4_CONFIG, "N": 10, "field": {"source": "csv", "path": str(field)}}
        assert main(["scatter", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "", f"config error: non-finite re_q or im_q in field csv row: '3,0,{re_q},{im_q},0'\n")

    # q_3 = 1e300 makes 1 - q_n r_n about 6.7e299 at n = 3 and -3, so Theta_n
    # overflows from n = -3 down; q_0 = 1e300 makes q_0 r_0 = -1e600 overflow.
    @pytest.mark.parametrize("site, n", [(3, -3), (0, 0)])
    def test_csv_field_whose_product_overflows_exits_7(self, tmp_path, capsys, site, n):
        # one stderr line, no RuntimeWarning and no all-NaN report
        field = tmp_path / "field.csv"
        write_background_csv(field, {site: ("1e300", "0")})
        doc = {**CASE4_CONFIG, "N": 10, "field": {"source": "csv", "path": str(field)}}
        out = tmp_path / "r.json"
        assert main(["scatter", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == EXIT_NUMERICAL
        assert capsys.readouterr() == (
            "", f"numerical failure: Theta_n is not finite at n = {n}\n")
        assert not out.exists()

    def test_csv_field_roundtrip(self, tmp_path):
        # write a soliton field, scatter on it from file
        doc = dict(CASE4_CONFIG)
        doc["t_grid"] = {"t0": 0.0, "t1": 0.0, "steps": 1}
        path = write_config(tmp_path, doc)
        field = tmp_path / "field.csv"
        assert main(["soliton", "--config", path, "--out", str(field)]) == EXIT_OK
        doc2 = {"case": 4, "q0": 2.0 / 3.0, "theta_plus": 0.0,
                "field": {"source": "csv", "path": str(field)}, "zeta_samples": 4}
        path2 = write_config(tmp_path, doc2, "scatter_csv.json")
        out = tmp_path / "rep.json"
        assert main(["scatter", "--config", path2, "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["failures"] == {}

    @pytest.mark.parametrize("command", ["scatter", "verify"])
    def test_nan_residual_is_a_failure(self, tmp_path, monkeypatch, command):
        report = scattering.scattering_report

        def nan_det(*args):
            return dataclasses.replace(report(*args), det_residual=math.nan)

        monkeypatch.setattr(scattering, "scattering_report", nan_det)
        # the background, which scatter and verify both check (J is not read)
        doc = {"case": 1, "q0": 2.0 / 3.0, "J": 0, "N": 10,
               "field": {"source": "background"}, "zeta_samples": 2}
        path = write_config(tmp_path, doc)
        out = tmp_path / "r.json"
        assert main([command, "--config", path, "--out", str(out)]) == EXIT_TOLERANCE
        rep = json.loads(out.read_text())
        if command == "scatter":
            assert rep["failures"] == {"det_vs_theta": "nan"}
        else:
            assert rep["checks"]["det_vs_theta"] == {"max": "nan", "tolerance": 1e-5,
                                                     "pass": False}
            assert rep["checks"]["symmetries"]["pass"] is True
            assert rep["pass"] is False

    def test_tolerance_breach(self, tmp_path):
        doc = {"case": 1, "q0": 2.0 / 3.0, "N": 20,
               "field": {"source": "background"}, "zeta_samples": 4,
               "tolerances": {"scattering": 0.0}}
        path = write_config(tmp_path, doc)
        assert main(["scatter", "--config", path, "--out",
                     str(tmp_path / "r.json")]) == EXIT_TOLERANCE


class TestVerify:
    def test_case4_calls_the_closed_form_once(self, tmp_path, monkeypatch):
        # looked up on ist when verify runs, as the benchmark's tracer counts it
        calls = []
        closed_form = ist.soliton_closed_form_case4

        def counted(cfg, thbar1, ns, ts):
            calls.append(thbar1)
            return closed_form(cfg, thbar1, ns, ts)

        monkeypatch.setattr(ist, "soliton_closed_form_case4", counted)
        path = write_config(tmp_path, CASE4_CONFIG)
        assert main(["verify", "--config", path, "--out", str(tmp_path / "v.json")]) == EXIT_OK
        assert calls == [math.pi / 3.0]

    def test_case4_passes(self, tmp_path):
        path = write_config(tmp_path, CASE4_CONFIG)
        out = tmp_path / "verify.json"
        assert main(["verify", "--config", path, "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["pass"] is True
        assert rep["checks"]["closed_form_equality"]["pass"] is True

    def test_zero_tolerance_fails(self, tmp_path):
        doc = dict(CASE4_CONFIG)
        doc["tolerances"] = {"residual": 0.0}
        path = write_config(tmp_path, doc)
        assert main(["verify", "--config", path, "--out",
                     str(tmp_path / "v.json")]) == EXIT_TOLERANCE

    def test_singular_member_skips_residual(self, tmp_path):
        doc = dict(CASE1_CONFIG)
        doc["theta"] = math.pi  # singular family member
        path = write_config(tmp_path, doc)
        out = tmp_path / "vs.json"
        code = main(["verify", "--config", path, "--out", str(out)])
        rep = json.loads(out.read_text())
        assert rep["checks"]["singular_parameters"]["flagged"] is True
        assert "skipped" in rep["checks"]["equation_residual"]
        assert code == EXIT_OK

    @staticmethod
    def _edit_scattering(monkeypatch, edit):
        """scattering_report, with the fields that edit(report) returns replaced."""
        report = scattering.scattering_report

        def edited(*args):
            rep = report(*args)
            return dataclasses.replace(rep, **edit(rep))

        monkeypatch.setattr(scattering, "scattering_report", edited)

    @pytest.mark.parametrize("failing", ["equation_residual", "closed_form_equality",
                                         "symmetries", "t11_zeros", None])
    def test_the_report_passes_when_every_check_passes(self, tmp_path, monkeypatch, failing):
        # README c4 with one check of each kind made to fail, which alone fails the
        # report; None is the flagged theta = pi c1 member, whose skipped residual passes
        doc = CASE4_CONFIG
        if failing is None:
            doc = {**CASE1_CONFIG, "theta": math.pi}
        elif failing == "equation_residual":
            doc = {**CASE4_CONFIG, "tolerances": {"residual": 0.0}}
        elif failing == "closed_form_equality":
            closed_form = ist.soliton_closed_form_case4
            monkeypatch.setattr(ist, "soliton_closed_form_case4",
                                lambda *args: closed_form(*args) + 1e-9)
        elif failing == "symmetries":
            self._edit_scattering(monkeypatch, lambda rep: {
                "symmetry": dataclasses.replace(rep.symmetry, second=math.nan)})
        elif failing == "t11_zeros":
            self._edit_scattering(monkeypatch, lambda rep: {"eigenvalue_residuals": (math.nan,)})
        out = tmp_path / "v.json"
        code = main(["verify", "--config", write_config(tmp_path, doc), "--out", str(out)])
        rep = json.loads(out.read_text())
        failed = [name for name, check in rep["checks"].items() if check.get("pass") is False]
        assert failed == ([] if failing is None else [failing])
        assert (rep["pass"], code) == ((True, EXIT_OK) if failing is None
                                       else (False, EXIT_TOLERANCE))
        if failing is None:
            assert rep["checks"]["singular_parameters"]["flagged"] is True
            assert rep["checks"]["equation_residual"] == {"skipped": "singular family member"}
        else:
            assert len(rep["checks"]) == 6

    @pytest.mark.parametrize("case, q0", [(1, 0.5), (2, 0.5), (3, 0.5), (4, 0.5), (2, 1e150),
                                          (3, 1e150)])
    def test_an_empty_spectrum_is_scanned_and_never_flagged(self, monkeypatch, case, q0):
        # verify and evolve scan every spectrum: an empty one is the J = 0 system,
        # whose 1/Theta_n is 1 at every cell, a stationary spectrum whose scan
        # solves its 25 sites at t = 0 alone and takes no Newton step
        cfg = spectral.make_case(case, q0)
        eigenset = ist.empty_eigenset(cfg)
        times = []
        solves = reconstruct_grid_sizes(monkeypatch, "_solve_screened", times)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scan = ist.singularity_scan(cfg, eigenset, ist.unit_norming(cfg, eigenset),
                                        **cli.SCAN)
        assert scan.singular is False and scan.min_theta_inv == 1.0
        assert solves == [25] and times == [0.0] * 25

    # c1: the scan's 0.25 grid holds every t_grid time, and its sites -12..12 lie
    # inside the residual cells -16..16
    C1 = {**CASE1_CONFIG, "N": 60, "t_grid": {"t0": -5.0, "t1": 5.0, "steps": 41},
          "zeta_samples": 20}

    @staticmethod
    def _recorded_solves(monkeypatch):
        calls = []
        solve = ist.reconstruct_grid

        def recording(cfg, eigenset, norming, ns, ts, derivative=False):
            calls.append((np.broadcast(ns, ts).size, derivative,
                          solve(cfg, eigenset, norming, ns, ts, derivative)))
            return calls[-1][2]

        monkeypatch.setattr(ist, "reconstruct_grid", recording)
        return calls

    def test_c1_solves_each_cell_once(self, tmp_path, monkeypatch):
        # 1,634 cells: the residual cells with dq/dt (33 sites x 41 times), the
        # scan's 8 times outside t_grid (25 sites each) and the 81-site window; the
        # scan's 1,025 other cells and its first Newton step read the residual solve
        calls = self._recorded_solves(monkeypatch)
        path = write_config(tmp_path, self.C1)
        assert main(["verify", "--config", path, "--out", str(tmp_path / "v.json")]) == EXIT_OK
        assert [size for size, _, _ in calls] == [33 * 41, 25 * 8, 81]
        assert [derivative for _, derivative, _ in calls] == [True, False, False]

    # bench c4: a stationary spectrum, whose scan sweeps t = 0 alone, a t_grid time
    BENCH_C4 = {**CASE4_CONFIG, "N": 400, "t_grid": {"t0": 0.0, "t1": 1.0, "steps": 6},
                "zeta_samples": 4}

    def test_bench_c4_solves_each_cell_once(self, tmp_path, monkeypatch):
        # the residual cells with dq/dt (33 sites x 6 times), the closed form's 41
        # sites x 6 times and the 81-site window; the scan's 25 cells at t = 0 read
        # the residual solve, and it takes no Newton step: d(1/Theta_n)/dt is 0
        calls = self._recorded_solves(monkeypatch)
        path = write_config(tmp_path, self.BENCH_C4)
        assert main(["verify", "--config", path, "--out", str(tmp_path / "v.json")]) == EXIT_OK
        assert [size for size, _, _ in calls] == [33 * 6, 41 * 6, 81]
        assert [derivative for _, derivative, _ in calls] == [True, False, False]

    # the _solve_screened calls of a stationary spectrum: one per reconstruct_grid
    # call, over its distinct sites, solved at t = 0 (an empty spectrum's cells
    # each at its own time)
    @pytest.mark.parametrize("command, doc, sizes", [
        # README c4 on t 0.1..1.1: the residual solve holds no t = 0 cell, so the
        # scan solves its 25 sites
        ("verify", {**CASE4_CONFIG, "t_grid": {"t0": 0.1, "t1": 1.1, "steps": 6}},
         [33, 25, 41, 81]),
        # the scan's sweep, the window at t0 and the compare grid
        ("evolve", BENCH_C4, [25, 81, 81]),
        # an empty soliton spectrum: the residual cells, which hold the scan's
        # t = 0 cells, and the 81-site window
        ("verify", {**C1, "J": 0}, [33 * 41, 81]),
        # the background field is no solve: only the scan's t = 0 sweep solves
        ("verify", {**C1, "field": {"source": "background"}}, [25]),
        ("evolve", {**C1, "field": {"source": "background"}}, [25]),
    ], ids=["README c4 verify t 0.1..1.1", "bench c4 evolve", "c1 J 0 verify",
            "c1 background verify", "c1 background evolve"])
    def test_a_stationary_scan_makes_no_newton_solve(self, tmp_path, monkeypatch, command, doc,
                                                     sizes):
        monkeypatch.chdir(tmp_path)
        solves = reconstruct_grid_sizes(monkeypatch, "_solve_screened")
        path = write_config(tmp_path, doc)
        assert main([command, "--config", path, "--out", str(tmp_path / "r.json")]) == EXIT_OK
        assert solves == sizes

    def test_pole_member_pays_the_residual_solve_and_skips_it(self, tmp_path, monkeypatch,
                                                             capsys):
        # theta + thbar1 = pi: the scan's pole lies among the residual cells, which
        # are solved before the scan flags the member; the report is the flagged one's
        calls = self._recorded_solves(monkeypatch)
        path = write_config(tmp_path, {**self.C1, "theta": math.pi})
        out = tmp_path / "v.json"
        assert main(["verify", "--config", path, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text()) == {
            "case": 1, "source": "soliton",
            "checks": {"singular_parameters": {"flagged": True},
                       "equation_residual": {"skipped": "singular family member"}},
            "limits": {"oracle_N": 40, "residual_N": 15, "closed_form_N": 20,
                       "scan": {"n_range": [-12, 12], "t_span": [-6, 6], "coarse_dt": 0.25}},
            "pass": True}
        size, derivative, grid = calls[0]
        assert (size, derivative) == (33 * 41, True)
        cfg, eigenset, norming = cli._field(parse_config({**self.C1, "theta": math.pi}),
                                            "verify")[:3]
        pole = ist.singularity_scan(cfg, eigenset, norming, **cli.SCAN)
        assert pole.singular and grid.ns.min() < pole.at_site < grid.ns.max()
        assert grid.ts.min() < pole.at_time < grid.ts.max()
        # its nearest residual cell is 1.4e-3 from Theta_n's divergence
        assert np.abs(grid.theta_inv).min() < 2e-3

    def test_case4_builds_the_far_field_once(self, tmp_path, monkeypatch):
        # the closed form's own NormingData never solves, so it never builds its spectrum
        calls = []
        far_field = ist._far_field
        monkeypatch.setattr(ist, "_far_field", lambda *args: calls.append(1) or far_field(*args))
        path = write_config(tmp_path, CASE4_CONFIG)
        assert main(["verify", "--config", path, "--out", str(tmp_path / "v.json")]) == EXIT_OK
        assert len(calls) == 1

    def test_residual_uses_the_exact_derivative(self, tmp_path, monkeypatch):
        def stencil(*args, **kwargs):
            raise AssertionError("verify ran the finite-difference oracle")

        monkeypatch.setattr(cli.verify, "equation_residuals", stencil)
        path = write_config(tmp_path, CASE1_CONFIG)
        out = tmp_path / "v.json"
        assert main(["verify", "--config", path, "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["checks"]["equation_residual"]["max"] < 1e-10

    @pytest.mark.parametrize("case", [2, 3])
    def test_nan_equation_residual_fails(self, tmp_path, capsys, case):
        # at q0 = 1e150 the cubic term of the lattice equation overflows: NaN residuals
        doc = {"case": case, "q0": 1e150, "J": 0, "N": 4, "field": {"source": "background"}}
        out = tmp_path / "v.json"
        assert main(["verify", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == EXIT_TOLERANCE
        assert capsys.readouterr().err == ""
        rep = json.loads(out.read_text())
        assert rep["checks"]["equation_residual"] == {"max": "nan", "tolerance": 1e-6,
                                                      "pass": False}
        assert rep["pass"] is False

    def test_case1_background_passes(self, tmp_path):
        doc = {"case": 1, "q0": 0.5, "theta": 0.3, "J": 0, "N": 20, "zeta_samples": 4}
        out = tmp_path / "v.json"
        assert main(["verify", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["checks"]["equation_residual"]["max"] < 1e-14

    def test_case4_background_has_no_closed_form_check(self, tmp_path, capsys):
        # the closed form is a soliton formula: with no eigenvalue there is
        # nothing to compare; the step background q_minus = -q_plus is no
        # solution: at n = 0 the lattice side is 2i q_plus, dq/dt 2i q0**2 q_plus
        q0 = 0.5
        doc = {"case": 4, "q0": q0, "J": 0, "N": 20, "zeta_samples": 4,
               "field": {"source": "background"}}
        out = tmp_path / "v.json"
        assert main(["verify", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == EXIT_TOLERANCE
        assert capsys.readouterr().err == ""
        checks = json.loads(out.read_text())["checks"]
        assert "closed_form_equality" not in checks
        assert checks["equation_residual"]["max"] == pytest.approx(2 * q0 * (1 - q0**2),
                                                                   rel=1e-12)

    def test_background_source_checks_the_background(self, tmp_path):
        # the config names a quartet (eta1), but the field it names is the background
        doc = {**CASE1_CONFIG, "field": {"source": "background"}}
        out = tmp_path / "v.json"
        assert main(["verify", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == EXIT_OK
        checks = json.loads(out.read_text())["checks"]
        assert checks["equation_residual"]["max"] < 1e-14
        assert "t11_zeros" not in checks

    def test_csv_field_is_a_config_error(self, tmp_path, capsys):
        # verify reads no field file, so it would check the configured soliton instead
        doc = {**CASE4_CONFIG, "field": {"source": "csv", "path": str(tmp_path / "none.csv")}}
        path = write_config(tmp_path, doc)
        assert main(["verify", "--config", path, "--out", str(tmp_path / "v.json")]) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "", "config error: verify does not read 'field.source' csv; give soliton or "
                "background\n")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


class TestEvolve:
    def test_case4_matches(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, CASE4_CONFIG)
        out = tmp_path / "evolve.json"
        assert main(["evolve", "--config", path, "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["max_deviation"] < 1e-4
        traj = (tmp_path / "trajectory.csv").read_text().strip().split("\n")
        assert traj[0] == "step,t,n,re_q,im_q"
        assert len(traj) == 1 + 101 * 81

    def test_coarse_dt_breaches_tolerance(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        doc = dict(CASE4_CONFIG)
        doc["dt"] = 1.0
        path = write_config(tmp_path, doc)
        code = main(["evolve", "--config", path, "--out", str(tmp_path / "e.json")])
        assert code in (EXIT_TOLERANCE, EXIT_BLOWUP)

    def test_singular_member_blowup_is_flagged_ok(self, tmp_path):
        doc = dict(CASE1_CONFIG)
        doc["theta"] = math.pi
        doc["t_grid"] = {"t0": 0.0, "t1": 4.0, "steps": 3}
        path = write_config(tmp_path, doc)
        out = tmp_path / "eb.json"
        assert main(["evolve", "--config", path, "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["blowup"] is True
        assert rep["singular_parameters"] is True

    def test_constant_background(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        doc = {"case": 1, "q0": 2.0 / 3.0, "J": 0, "N": 20,
               "field": {"source": "background"},
               "t_grid": {"t0": 0.0, "t1": 1.0, "steps": 3}, "dt": 0.002,
               "tolerances": {"compare": 1e-10}}
        path = write_config(tmp_path, doc)
        assert main(["evolve", "--config", path, "--out",
                     str(tmp_path / "bg.json")]) == EXIT_OK

    def test_background_source_evolves_the_background(self, tmp_path, monkeypatch):
        # the config names a quartet (eta1), but the field it names is the background
        monkeypatch.chdir(tmp_path)
        doc = {**CASE1_CONFIG, "field": {"source": "background"}}
        out = tmp_path / "e.json"
        assert main(["evolve", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == EXIT_OK
        rows = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
        ts, ns, q = rows[:, 1], rows[:, 2], rows[:, 3] + 1j * rows[:, 4]
        background = spectral.make_case(1, 2.0 / 3.0).background(ns, ts)
        deviation = float(np.max(np.abs(q - background)))
        assert deviation < 1e-8
        assert json.loads(out.read_text())["max_deviation"] == pytest.approx(deviation,
                                                                             rel=1e-12)

    # dt = 2.0 would take zero RK4 steps and pass vacuously; dt = 0.3 would
    # stop at t = 0.9 instead of t1 = 1.
    @pytest.mark.parametrize("dt", [2.0, 0.3])
    def test_dt_must_tile_the_time_span(self, tmp_path, capsys, monkeypatch, dt):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, {**CASE4_CONFIG, "dt": dt})
        out = tmp_path / "e.json"
        assert main(["evolve", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: 'dt' = ")
        assert not out.exists() and not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("dt", [1e-300, 1.0 / (cli.MAX_EVOLVE_STEPS + 1)])
    def test_step_count_is_capped(self, tmp_path, capsys, monkeypatch, dt):
        monkeypatch.chdir(tmp_path)

        def simulate(*args):
            raise AssertionError("simulate ran")

        monkeypatch.setattr(cli.verify, "simulate", simulate)
        path = write_config(tmp_path, {**CASE4_CONFIG, "dt": dt})
        out = tmp_path / "e.json"
        assert main(["evolve", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: 'dt' = ")
        assert err.endswith(f"at most {cli.MAX_EVOLVE_STEPS} are allowed\n")
        assert not out.exists()

    def test_step_count_past_the_largest_double_is_capped(self, tmp_path, capsys):
        # t1 - t0 is finite but (t1 - t0) / dt is not: round() raised OverflowError
        doc = {**CASE4_CONFIG, "t_grid": {"t0": 0.0, "t1": 1e308, "steps": 3}}
        path = write_config(tmp_path, doc)
        assert main(["evolve", "--config", path, "--out", str(tmp_path / "e.json")]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: 'dt' = 0.01 takes inf RK4 steps over [t0, t1] = [0.0, 1e+308]; "
            f"at most {cli.MAX_EVOLVE_STEPS} are allowed\n")

    def test_csv_field_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # evolve reads no field file, so it would evolve the configured soliton instead
        monkeypatch.chdir(tmp_path)
        doc = {**CASE4_CONFIG, "field": {"source": "csv", "path": str(tmp_path / "none.csv")}}
        out = tmp_path / "e.json"
        assert main(["evolve", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "", "config error: evolve does not read 'field.source' csv; give soliton or "
                "background\n")
        assert not out.exists() and not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("doc", [
        {**CASE1_CONFIG, "J": 0},
        {"case": 3, "q0": 1.0, "J": 0, "N": 20, "t_grid": {"t0": 0.0, "t1": 1.0, "steps": 3},
         "dt": 0.01},
    ], ids=["case 1", "case 3"])
    def test_an_empty_soliton_spectrum_evolves(self, tmp_path, capsys, monkeypatch, doc):
        # the J = 0 soliton is the background q_plus(t): evolve runs it as any spectrum
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "e.json"
        assert main(["evolve", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr() == ("", "")
        rep = json.loads(out.read_text())
        assert rep["pass"] is True and rep["singular_parameters"] is False
        assert (tmp_path / "trajectory.csv").exists()

    def test_step_cap_itself_is_allowed(self, tmp_path, monkeypatch):
        class Reached(Exception):
            pass

        def simulate(window, cfg, t_end, dt):
            raise Reached(round((t_end - window.t) / dt))

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli.verify, "simulate", simulate)
        path = write_config(tmp_path, {**CASE4_CONFIG, "dt": 1.0 / cli.MAX_EVOLVE_STEPS})
        with pytest.raises(Reached) as info:
            main(["evolve", "--config", path, "--out", str(tmp_path / "e.json")])
        assert info.value.args == (cli.MAX_EVOLVE_STEPS,)


@pytest.mark.parametrize("N", [30, 60])
@pytest.mark.parametrize("command", ["verify", "evolve"])
def test_reports_list_the_caps_their_checks_ran_under(tmp_path, monkeypatch, command, N):
    # each entry of "limits" is read against what the command handed the call it caps
    monkeypatch.chdir(tmp_path)
    seen = {}
    scan, residuals = ist.singularity_scan, verify.equation_residuals_exact
    closed_form, window = ist.soliton_closed_form_case4, cli._window

    def scanning(cfg, eigenset, norming, **kwargs):
        # solved (verify's residual solve, which the scan reads) is not a cap
        seen["scan"] = {key: list(value) if isinstance(value, tuple) else value
                        for key, value in kwargs.items() if key != "solved"}
        return scan(cfg, eigenset, norming, **kwargs)

    def residual_at(q, qdot, cfg, sites, ts):
        seen["residual_N"] = max(sites)
        assert list(sites) == list(range(-max(sites), max(sites) + 1))
        return residuals(q, qdot, cfg, sites, ts)

    def closed_form_at(cfg, thbar1, sites, ts):
        seen["closed_form_N"] = int(sites.max())
        assert np.array_equal(sites.ravel(), np.arange(-sites.max(), sites.max() + 1))
        return closed_form(cfg, thbar1, sites, ts)

    def windowed(cfg, evaluator, n, t):
        seen["oracle_N"] = n
        return window(cfg, evaluator, n, t)

    monkeypatch.setattr(ist, "singularity_scan", scanning)
    monkeypatch.setattr(verify, "equation_residuals_exact", residual_at)
    monkeypatch.setattr(ist, "soliton_closed_form_case4", closed_form_at)
    monkeypatch.setattr(cli, "_window", windowed)
    path = write_config(tmp_path, {**CASE4_CONFIG, "N": N})
    out = tmp_path / "report.json"
    assert main([command, "--config", path, "--out", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["limits"] == seen and seen["oracle_N"] == min(N, cli.ORACLE_N)
    assert set(seen) == ({"oracle_N", "scan", "residual_N", "closed_form_N"}
                         if command == "verify" else {"oracle_N", "scan"})
    assert rep.get("source") == ("soliton" if command == "verify" else None)


# The background field reads no eigenvalue key: case 3 at q0 = 1 with no
# zeta_hat_1, where every q_n r_n is -1.
@pytest.mark.parametrize("command", ["scatter", "verify", "evolve"])
def test_background_needs_no_eigenvalue_key(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    doc = {"case": 3, "q0": 1.0, "N": 20, "field": {"source": "background"},
           "t_grid": {"t0": 0.0, "t1": 1.0, "steps": 3}, "dt": 0.01, "zeta_samples": 4}
    path = write_config(tmp_path, doc)
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert capsys.readouterr().err == ""


# Case III has no reduction-pinned norming constants yet: every command that
# needs its soliton is inadmissible, while its spectrum and background work.
@pytest.mark.parametrize("command, source, code", [
    ("eigs", "soliton", EXIT_OK),
    ("soliton", "soliton", EXIT_INADMISSIBLE),
    ("verify", "soliton", EXIT_INADMISSIBLE),
    ("evolve", "soliton", EXIT_INADMISSIBLE),
    ("scatter", "soliton", EXIT_INADMISSIBLE),
    ("scatter", "background", EXIT_OK),
])
def test_case3_soliton_is_inadmissible(tmp_path, capsys, monkeypatch, command, source, code):
    monkeypatch.chdir(tmp_path)
    doc = {"case": 3, "q0": 1.0, "zeta_hat_1": 3.0, "N": 20, "zeta_samples": 2,
           "field": {"source": source}}
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == EXIT_INADMISSIBLE:
        assert err.startswith("inadmissible: case III norming constants")
        assert not out.exists()
    else:
        assert err == ""


# With Delta theta = pi (cases 2 and 4) an empty spectrum misses the trace
# limits: no reflectionless field joins q_minus = -q_plus to q_plus, so every
# command that needs it is inadmissible, while the spectrum and the
# background still work.
@pytest.mark.parametrize("doc", [{"case": 2, "q0": 0.5}, {"case": 4, "q0": 0.5, "J": 0}])
@pytest.mark.parametrize("command, source, code", [
    ("eigs", "soliton", EXIT_OK),
    ("soliton", "soliton", EXIT_INADMISSIBLE),
    ("soliton", "background", EXIT_INADMISSIBLE),
    ("verify", "soliton", EXIT_INADMISSIBLE),
    ("evolve", "soliton", EXIT_INADMISSIBLE),
    ("scatter", "soliton", EXIT_INADMISSIBLE),
    ("scatter", "background", EXIT_OK),
    ("verify", "background", EXIT_TOLERANCE),
    ("evolve", "background", EXIT_TOLERANCE),
])
def test_empty_spectrum_at_delta_theta_pi_is_inadmissible(tmp_path, capsys, monkeypatch,
                                                          doc, command, source, code):
    monkeypatch.chdir(tmp_path)
    doc = {**doc, "N": 10, "zeta_samples": 2, "field": {"source": source}}
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == EXIT_INADMISSIBLE:
        assert err.startswith(f"inadmissible: an empty spectrum misses the case-{doc['case']} "
                              "trace limits")
        assert not out.exists()
    else:
        assert err == ""


# eta1 = pi puts case I's quartet on the real axis: eigs reports the collapsed
# quartet, and every command that needs its norming constants is inadmissible.
@pytest.mark.parametrize("command, code", [
    ("eigs", EXIT_OK),
    ("soliton", EXIT_INADMISSIBLE),
    ("verify", EXIT_INADMISSIBLE),
    ("evolve", EXIT_INADMISSIBLE),
    ("scatter", EXIT_INADMISSIBLE),
])
def test_collapsed_quartet_is_inadmissible(tmp_path, capsys, monkeypatch, command, code):
    monkeypatch.chdir(tmp_path)
    doc = {"case": 1, "q0": 0.5, "theta": 0.0, "eta1": math.pi, "N": 20}
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == EXIT_INADMISSIBLE:
        assert err == "inadmissible: zbar_1 is real; the quartet collapses\n"
        assert not out.exists() and not (tmp_path / "trajectory.csv").exists()
    else:
        assert err == "" and len(json.loads(out.read_text())["entries"]) == 1


class TestCsvWriters:
    """The streamed writers write the bytes of the per-line ones."""

    def test_bench_c4_trajectory(self):
        config = parse_config({**CASE4_CONFIG, "N": 400})
        cfg = cli._case_config(config)
        q = ist.make_evaluator(cfg, *cli._eigen_data(config, cfg))(np.arange(-40, 41), 0.0)
        traj = verify.simulate(lattice.PotentialWindow(cfg, 40, 0.0, q), cfg, 1.0, 0.01)
        text = "".join(cli._trajectory_csv(traj))
        assert text == trajectory_csv_lines(traj)
        assert text.count("\n") == 1 + 101 * 81

    @pytest.mark.parametrize("N, steps", [(0, 1), (3, 300), (40, 26), (1100, 3)])
    def test_trajectory_chunks(self, N, steps):
        # chunks of whole time rows: one site, a row that divides 2048 lines
        # unevenly, rows that do not fill the last chunk, rows longer than a chunk
        rng = np.random.default_rng(N)
        states = (rng.standard_normal((steps, 2 * N + 1, 2))
                  * 10.0 ** rng.integers(-6, 17, (steps, 2 * N + 1, 2))).view(complex)[..., 0]
        states[0, 0] = complex(-0.0, 0.0)
        traj = verify.Trajectory(N, -0.5 + 0.01 * np.arange(steps), states)
        chunks = list(cli._trajectory_csv(traj))
        assert "".join(chunks) == trajectory_csv_lines(traj)
        assert len(chunks) == 1 + math.ceil(steps / max(1, cli._CSV_ROWS // (2 * N + 1)))

    def test_wide_field_with_singular_cells(self):
        # 2 x 1401 rows, over two chunks.  On the README c4 member no cell is
        # singular (the far field is the background, |q| = q0); on the case-1
        # member with theta = pi the rows at its pole time are.
        pole = {**CASE1_CONFIG, "theta": math.pi}
        cfg = cli._case_config(parse_config(pole))
        t = ist.singularity_scan(cfg, *cli._eigen_data(parse_config(pole), cfg), n_range=(-8, 8),
                                 t_span=(0.0, 5.0), coarse_dt=0.25).at_time
        for doc, t_grid in ((CASE4_CONFIG, {"t0": 0.0, "t1": 1.0, "steps": 2}),
                            (pole, {"t0": t, "t1": t + 1.0, "steps": 2})):
            config = parse_config({**doc, "N": 700, "t_grid": t_grid})
            cfg = cli._case_config(config)
            grid = cli._field_grid(config, cfg, *cli._eigen_data(config, cfg))
            assert grid.q.size > cli._CSV_ROWS
            assert "".join(cli._field_csv(grid)) == field_csv_lines(grid)
            if doc is CASE4_CONFIG:
                assert not grid.singular.any()
                assert np.abs(np.abs(grid.q[np.abs(grid.ns) == 700]) - 2.0 / 3.0).max() < 1e-15
            else:
                assert 0 < grid.singular.sum() < 1401 and grid.singular[:1401].any()

    def test_abs_q_is_pythons_abs(self):
        # np.hypot, the hypot of Python's abs(complex); np.abs differs in the last bit
        rng = np.random.default_rng(5)
        q = (rng.standard_normal((100_000, 2)) * 10.0 ** rng.integers(-5, 17, (100_000, 2)))
        q = q.view(complex)[:, 0]
        assert np.hypot(q.real, q.imag).tolist() == [abs(z) for z in q.tolist()]

    def test_write_all_streams_chunks(self, tmp_path, capsys):
        chunks = (f"{k}\n" for k in range(3))
        cli._write_all([(str(tmp_path / "out.txt"), chunks)])
        assert (tmp_path / "out.txt").read_bytes() == b"0\n1\n2\n"
        cli._write_all([(None, ["a", "b\n"])])
        assert capsys.readouterr().out == "ab\n"


class TestArguments:
    @pytest.mark.parametrize("argv", [
        [], ["plot", "--config", "c.json"], ["scatter"],
        ["scatter", "--config", "c.json", "--seed", "x"],
    ], ids=["none", "unknown-command", "no-config", "bad-seed"])
    def test_bad_arguments_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("usage: ist ")

    @pytest.mark.parametrize("command", list(cli._DISPATCH))
    def test_each_command_parses_its_options(self, monkeypatch, command):
        calls = []
        monkeypatch.setattr(cli, "load_config", lambda path: ("config", path))
        monkeypatch.setitem(cli._DISPATCH, command, lambda config, out, seed: (
            calls.append((config, out, seed)) or EXIT_OK))
        for argv in ([command, "--config", "c.json", "--out", "r.json", "--seed", "7"],
                     ["--seed", "7", "--out", "r.json", "--config", "c.json", command],
                     [command, "--config", "c.json"]):
            assert main(argv) == EXIT_OK
        assert calls == [(("config", "c.json"), "r.json", 7)] * 2 + [
            (("config", "c.json"), None, 0)]


class TestUnwritableOutput:
    """An artifact path that cannot be opened is a config error, not a traceback."""

    @pytest.mark.parametrize("command", list(cli._DISPATCH))
    def test_out_is_a_directory(self, tmp_path, capsys, command):
        path = write_config(tmp_path, {**CASE4_CONFIG, "outputs": {
            "trajectory_csv": str(tmp_path / "traj.csv")}})
        assert main([command, "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: cannot write {tmp_path}: Is a directory\n")

    def test_out_in_a_missing_directory(self, tmp_path, capsys):
        path = write_config(tmp_path, CASE4_CONFIG)
        out = tmp_path / "missing" / "r.json"
        assert main(["scatter", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: cannot write {out}: No such file or directory\n")

    def test_trajectory_csv_in_a_missing_directory(self, tmp_path, capsys):
        traj = tmp_path / "missing" / "traj.csv"
        path = write_config(tmp_path, {**CASE4_CONFIG, "outputs": {"trajectory_csv": str(traj)}})
        out = tmp_path / "r.json"
        assert main(["evolve", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: cannot write {traj}: No such file or directory\n")
        assert not out.exists()

    @pytest.mark.parametrize("unwritable", ["report", "trajectory", "chunk", "move"])
    def test_failed_evolve_leaves_no_trajectory(self, tmp_path, capsys, monkeypatch,
                                                unwritable):
        # a directory at either target; a trajectory writer that fails after
        # two chunks; a report whose move fails after the trajectory's
        out, traj = tmp_path / "r.json", tmp_path / "traj.csv"
        message = f"cannot write {out if unwritable == 'report' else traj}: Is a directory"
        if unwritable in ("report", "trajectory"):
            (out if unwritable == "report" else traj).mkdir()
        elif unwritable == "chunk":
            writer = cli._trajectory_csv
            message = "disk gone"

            def failing(traj):
                chunks = writer(traj)
                yield next(chunks)
                yield next(chunks)
                raise ConfigError(message)

            monkeypatch.setattr(cli, "_trajectory_csv", failing)
        else:
            replace = os.replace

            def refuse_report(src, dst):
                if dst.endswith("r.json"):
                    raise PermissionError(13, "Permission denied")
                replace(src, dst)

            monkeypatch.setattr(cli.os, "replace", refuse_report)
            message = f"cannot write {out}: Permission denied"
        path = write_config(tmp_path, {**CASE4_CONFIG, "outputs": {"trajectory_csv": str(traj)}})
        assert main(["evolve", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        # no report, no trajectory and no staged file; the blocking directory stays empty
        left = {p.name: p.is_dir() for p in tmp_path.iterdir()}
        assert left == {"config.json": False, **{p.name: True for p in (out, traj) if p.is_dir()}}
        assert not any(p.is_dir() and any(p.iterdir()) for p in (out, traj))

    def test_report_and_trajectory_in_one_file(self, tmp_path, capsys):
        traj = tmp_path / "traj.csv"
        path = write_config(tmp_path, {**CASE4_CONFIG, "outputs": {"trajectory_csv": str(traj)}})
        assert main(["evolve", "--config", path, "--out", str(traj)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: two artifacts would be written to {traj.resolve()}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_failed_field_csv_leaves_nothing(self, tmp_path, capsys, monkeypatch):
        writer = cli._field_csv

        def failing(grid):
            chunks = writer(grid)
            yield next(chunks)
            yield next(chunks)
            raise ConfigError("disk gone")

        monkeypatch.setattr(cli, "_field_csv", failing)
        out = tmp_path / "field.csv"
        path = write_config(tmp_path, CASE4_CONFIG)
        assert main(["soliton", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: disk gone\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_is_not_a_config_error(self):
        # /dev/full opens, and every write to it fails with ENOSPC
        with pytest.raises(OSError):
            cli._write_all([("/dev/full", ["x\n"])])


class TestClosedStdout:
    """A reader that closes stdout before the first write: exit 2 and one stderr line."""

    @pytest.mark.parametrize("command", ["scatter", "soliton"], ids=["json-report", "field-csv"])
    def test_exit_2_without_traceback(self, tmp_path, command):
        path = write_config(tmp_path, CASE4_CONFIG)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        read, write = os.pipe()
        os.close(read)  # so that the command's first write to stdout fails
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "dnls_ist.cli", command, "--config", path],
                stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=120)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (
            EXIT_CONFIG, "config error: cannot write stdout: Broken pipe\n")


# Six soliton calls in one process: the minor page faults of each, and how
# often the allocator was pinned before the first and after the last.
_FAULT_PROBE = """
import json, resource, sys
from dnls_ist import cli
pins = [cli._pin_malloc.cache_info().misses]
faults = []
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main(["soliton", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
info = cli._pin_malloc.cache_info()
print(json.dumps({"faults": faults, "pins": pins + [info.misses], "hits": info.hits}))
"""


@pytest.mark.skipif("CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", {}),
                    reason="glibc's mallopt only")
def test_pinned_allocator_stops_faulting_in_pages(tmp_path):
    # The bench c1 soliton.  Unpinned, glibc maps, unmaps or trims the block
    # solve's 128 KiB temporaries every block: about 200-300 faults a call after
    # the first, where the pinned heap keeps them.  The first two calls are left
    # out: where first-touch heap pages land between them follows the layout of
    # the source, not the pin.
    doc = {**CASE1_CONFIG, "N": 60, "t_grid": {"t0": -5.0, "t1": 5.0, "steps": 41}}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {key: value for key, value in os.environ.items()
           if key not in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")}
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                                                 else []))
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE, write_config(tmp_path, doc),
                           str(tmp_path / "field.csv")],
                          capture_output=True, env=env, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert all(faults < 50 for faults in report["faults"][2:]), report
    # not pinned at import, pinned by the first call, and only then
    assert (report["pins"], report["hits"]) == ([0, 1], 5)


@pytest.mark.skipif("CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", {}),
                    reason="glibc's mallopt only")
@pytest.mark.parametrize("name", [None, *cli._MALLOC_ENV])
def test_malloc_settings_in_the_environment_are_kept(monkeypatch, name):
    calls = []

    class Libc:
        @staticmethod
        def mallopt(*args):
            calls.append(args)
            return 1

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda path: Libc)
    for var in cli._MALLOC_ENV:
        monkeypatch.delenv(var, raising=False)
    if name:
        monkeypatch.setenv(name, "131072")
    cli._pin_malloc.__wrapped__()
    assert calls == ([] if name else [(-3, 32 << 20), (-1, 64 << 20)])


@pytest.mark.parametrize("case", [2, 3])
@pytest.mark.parametrize("command", list(cli._DISPATCH))
def test_q0_whose_r_overflows_is_a_config_error(tmp_path, capsys, command, case):
    path = write_config(tmp_path, {"case": case, "q0": 1e200, "J": 0,
                                   "field": {"source": "background"}})
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr() == (
        "", "config error: q0 = 1e+200 is too large: r = sqrt(1 + q0**2) overflows\n")


class TestNumericalFailure:
    def test_vanishing_product_exits_7(self, tmp_path, capsys):
        doc = {"case": 2, "q0": 1.0, "N": 20, "zeta_samples": 2,
               "field": {"source": "background"}}
        path = write_config(tmp_path, doc)
        assert main(["scatter", "--config", path, "--out",
                     str(tmp_path / "r.json")]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: 1 - q_n r_n vanishes at n = 0\n")

    def test_overflowing_window_exits_7(self, tmp_path, capsys):
        # the window's far field is the exact background, not an overflow:
        # scatter on README c4 exits 0 at N = 700 and at N = 2000
        for N in (700, 2000):
            path = write_config(tmp_path, {**CASE4_CONFIG, "N": N, "zeta_samples": 2})
            assert main(["scatter", "--config", path, "--out",
                         str(tmp_path / "r.json")]) == EXIT_OK
            assert capsys.readouterr().err == ""
            rep = json.loads((tmp_path / "r.json").read_text())
            assert rep["failures"] == {}


class TestReferenceWriters:
    """Every report of the five commands, and every JSON type, against the recursive writer."""

    @pytest.mark.parametrize("doc, artifacts", [
        (CASE1_CONFIG, 5), (CASE4_CONFIG, 5),
        # evolve writes its blow-up report
        ({**CASE1_CONFIG, "theta": math.pi, "t_grid": {"t0": 0.0, "t1": 4.0, "steps": 3}}, 5),
        # eigs writes its trace-limit infima; soliton exits 3 and writes nothing
        ({"case": 2, "q0": 0.5, "N": 10, "field": {"source": "background"}}, 4),
    ], ids=["c1", "c4", "pole-member", "c2-background"])
    def test_every_artifact(self, tmp_path, monkeypatch, doc, artifacts):
        reports, grids = [], []
        write_report, field_grid = cli._write_report, cli._field_grid
        monkeypatch.setattr(cli, "_write_report", lambda config, out, report, files=(): (
            reports.append(report) or write_report(config, out, report, files)))
        monkeypatch.setattr(cli, "_field_grid", lambda *args: (
            grids.append(field_grid(*args)) or grids[-1]))
        path = write_config(tmp_path, {**doc, "outputs": {
            "trajectory_csv": str(tmp_path / "traj.csv")}})
        written = 0
        for command in cli._DISPATCH:
            out = tmp_path / f"{command}.out"
            main([command, "--config", path, "--out", str(out)])
            if out.exists():
                text = (field_csv_lines(grids[-1]) if command == "soliton"
                        else dump_json_recursive(reports[-1]) + "\n")
                assert out.read_bytes() == text.encode()
                written += 1
        assert written == artifacts

    def test_every_json_type(self):
        doc = {"f64": np.float64(0.1), "f32": np.float32(0.1), "i64": np.int64(-7),
               "b": [np.bool_(True), np.bool_(False), True, False, None],
               "c128": np.complex128(1 - 2j), "c64": np.complex64(0.1 + 0.2j),
               "nan": math.nan, "inf": [math.inf, -math.inf, np.float64("-inf")],
               "zeros": [-0.0, 0.0, complex(-0.0, -0.0), 5e-324, 1.7976931348623157e308],
               "odd": complex(math.nan, -math.inf), "empty": [{}, [], ()],
               "tuple": (1, 2.5, (3, 1e22)), "ключ é ☃": "värde \"q\"\n",
               "nested": {"a": [{"b": complex(1e-310, 1 / 3)}], "big": 10 ** 30}}
        for indent in (0, 1, 3):
            assert dump_json(doc, indent) == dump_json_recursive(doc, indent)
            for value in doc.values():
                assert dump_json(value, indent) == dump_json_recursive(value, indent)


def test_dump_json_formats():
    text = dump_json({"a": 1.0 / 3.0, "b": [1, 2], "c": complex(1, -2),
                      "d": None, "e": True})
    doc = json.loads(text)
    assert doc["a"] == pytest.approx(1.0 / 3.0, abs=0)
    assert doc["c"] == {"re": 1.0, "im": -2.0}
    assert "0.33333333333333331" in text


_DOCUMENTED_EXITS = {EXIT_OK, EXIT_CONFIG, EXIT_INADMISSIBLE, EXIT_ALL_SINGULAR,
                     EXIT_TOLERANCE, EXIT_BLOWUP, EXIT_NUMERICAL}


@st.composite
def _run_configs(draw):
    """Configs of every case, in and out of range, with and without eigenvalue keys."""
    case = draw(st.integers(1, 4))
    # case II has candidate real zeros only for 0.0448 < q0 < 3.937: reach past both ends
    q0 = draw(st.one_of(st.floats(0.05, 0.95), st.floats(0.05, 1.5), st.floats(1e-3, 8.0),
                        st.sampled_from([0.0, -0.5, 1.0, 0.01, 5.0])))
    t0 = draw(st.floats(-1.0, 1.0))
    doc = {"case": case, "q0": q0, "theta": draw(st.floats(-math.pi, math.pi)),
           "N": draw(st.integers(1, 8)), "dt": draw(st.sampled_from([0.05, 0.1, 0.3])),
           "t_grid": {"t0": t0, "t1": t0 + draw(st.sampled_from([0.0, 0.3, 1.0])),
                      "steps": draw(st.integers(1, 3))},
           "field": {"source": draw(st.sampled_from(["soliton", "background"]))}}
    J = draw(st.sampled_from([None, 0, 1, 2, 3]))
    if J is not None:
        doc["J"] = J
    if draw(st.booleans()):
        doc["eta1"] = draw(st.floats(2.0, 4.5))
    if draw(st.booleans()):
        # only case 3 reads it: its r, the poles 0, r, 1/r and the branch points among them
        r = math.sqrt(1.0 + q0 * q0)
        doc["zeta_hat_1"] = draw(st.one_of(st.floats(-4.0, 4.0),
                                           st.sampled_from([0.0, r, 1.0 / r, r + q0, r - q0])))
    return doc


@settings(max_examples=60, deadline=None)
@given(doc=_run_configs())
@example(doc={"case": 2, "q0": 0.01, "J": 2, "N": 3})
@example(doc={"case": 2, "q0": 5.0, "N": 3})
# r = sqrt(1 + q0**2) overflows
@example(doc={"case": 3, "q0": 1e200, "J": 0, "field": {"source": "background"}})
# evolve's second RK4 step overflows inside its stages
@example(doc={"case": 2, "q0": 4.0, "theta": 0.0, "N": 4, "dt": 0.1,
              "t_grid": {"t0": 0.0, "t1": 0.3, "steps": 2}, "field": {"source": "background"}})
# sizes over their caps exit 2: before the caps, the first two ended in a
# MemoryError traceback and the third built a list of 10**15 times
@example(doc={"case": 1, "q0": 0.5, "eta1": 3.5, "N": 10**15})
@example(doc={"case": 1, "q0": 0.5, "eta1": 3.5, "zeta_samples": 10**15})
@example(doc={"case": 1, "q0": 0.5, "eta1": 3.5, "t_grid": {"steps": 10**15}})
# t1 - t0 overflows, and t1 - t0 is finite but (t1 - t0) / dt is not: before
# parse_config checked the span, evolve ended both in an OverflowError traceback
@example(doc={"case": 4, "q0": 2.0 / 3.0, "theta_plus": 0.0, "thbar1": math.pi / 3.0, "N": 10,
              "t_grid": {"t0": -1e308, "t1": 1e308, "steps": 3}})
@example(doc={"case": 4, "q0": 2.0 / 3.0, "theta_plus": 0.0, "thbar1": math.pi / 3.0, "N": 10,
              "t_grid": {"t0": 0.0, "t1": 1e308, "steps": 3}})
def test_every_command_exits_with_a_documented_code(doc):
    # An exception escaping main would be a traceback: the test fails on it.
    with tempfile.TemporaryDirectory() as tmp:
        doc = {**doc, "outputs": {"trajectory_csv": os.path.join(tmp, "traj.csv")}}
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command in cli._DISPATCH:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--config", path, "--out", os.path.join(tmp, "out")])
            assert code in _DOCUMENTED_EXITS, (command, code)
            assert "Traceback" not in err.getvalue()
