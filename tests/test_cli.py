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

from dnls_ist import cli, ist, lattice, spectral, verify
from dnls_ist.cli import (EXIT_ALL_SINGULAR, EXIT_BLOWUP, EXIT_CONFIG,
                          EXIT_INADMISSIBLE, EXIT_NUMERICAL, EXIT_OK,
                          EXIT_TOLERANCE, dump_json, load_config, main,
                          parse_config)
from dnls_ist.errors import ConfigError

from conftest import CASE1_ETA1, dump_json_recursive, trajectory_csv_lines

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
        code = main(["soliton", "--config", path, "--out", str(out)])
        assert code in (EXIT_OK, EXIT_ALL_SINGULAR)
        if code == EXIT_OK:
            rows = out.read_text().strip().split("\n")[1:]
            flags = [r.split(",")[5] for r in rows]
            assert "1" in flags

    def test_threaded_grid_is_deterministic(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, CASE4_CONFIG)
        out1 = tmp_path / "serial.csv"
        out2 = tmp_path / "threaded.csv"
        assert main(["soliton", "--config", path, "--out", str(out1)]) == EXIT_OK
        monkeypatch.setenv("IST_THREADS", "4")
        assert main(["soliton", "--config", path, "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_determinism(self, tmp_path):
        path = write_config(tmp_path, CASE4_CONFIG)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["soliton", "--config", path, "--out", str(out1)]) == EXIT_OK
        assert main(["soliton", "--config", path, "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()


    def test_wide_window_flags_overflow_without_traceback(self, tmp_path, capsys):
        # far out on the left the lam**(2n) entries overflow double precision;
        # those cells are flagged singular and the command still succeeds
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
        flagged = {int(r[0]) for r in rows if r[5] == "1"}
        assert flagged and max(flagged) < -400
        far_right = [float(r[4]) for r in rows if int(r[0]) == 700]
        assert all(abs(a - 2.0 / 3.0) < 1e-12 for a in far_right)

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
        from dnls_ist import scattering
        report = scattering.scattering_report

        def nan_det(*args):
            return dataclasses.replace(report(*args), det_residual=math.nan)

        monkeypatch.setattr(scattering, "scattering_report", nan_det)
        # J: 0 gives verify a field (the bare background); scatter ignores it
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

    def test_residual_uses_the_exact_derivative(self, tmp_path, monkeypatch):
        def stencil(*args, **kwargs):
            raise AssertionError("verify ran the finite-difference oracle")

        monkeypatch.setattr(cli.verify, "equation_residuals", stencil)
        path = write_config(tmp_path, CASE1_CONFIG)
        out = tmp_path / "v.json"
        assert main(["verify", "--config", path, "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["checks"]["equation_residual"]["max"] < 1e-10

    def test_case1_background_passes(self, tmp_path):
        doc = {"case": 1, "q0": 0.5, "theta": 0.3, "J": 0, "N": 20, "zeta_samples": 4}
        out = tmp_path / "v.json"
        assert main(["verify", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["checks"]["equation_residual"]["max"] < 1e-14

    def test_case4_background_has_no_closed_form_check(self, tmp_path, capsys):
        # the closed form is a soliton formula: with no eigenvalue there is
        # nothing to compare; q_n = q_plus on every site is no solution
        doc = {"case": 4, "q0": 0.5, "J": 0, "N": 20, "zeta_samples": 4,
               "field": {"source": "background"}}
        out = tmp_path / "v.json"
        assert main(["verify", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == EXIT_TOLERANCE
        assert capsys.readouterr().err == ""
        checks = json.loads(out.read_text())["checks"]
        assert "closed_form_equality" not in checks
        assert checks["equation_residual"]["max"] == pytest.approx(0.5, rel=1e-12)


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


class TestCsvWriters:
    """The streamed trajectory writer writes the bytes of the per-line one."""

    def test_bench_c4_trajectory(self):
        config = parse_config({**CASE4_CONFIG, "N": 400})
        cfg = cli._case_config(config)
        q = ist.make_evaluator(cfg, *cli._eigen_data(config, cfg))(np.arange(-40, 41), 0.0)
        traj = verify.simulate(lattice.PotentialWindow(cfg, 40, 0.0, q), cfg, 1.0, 0.01)
        text = "".join(cli._trajectory_csv(traj))
        assert text == trajectory_csv_lines(traj)
        assert text.count("\n") == 1 + 101 * 81

    def test_write_text_streams_chunks(self, tmp_path, capsys):
        chunks = (f"{k}\n" for k in range(3))
        cli._write_text(str(tmp_path / "out.txt"), chunks)
        assert (tmp_path / "out.txt").read_bytes() == b"0\n1\n2\n"
        cli._write_text(None, ["a", "b\n"])
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

    @pytest.mark.parametrize("unwritable", ["report", "trajectory"])
    def test_failed_evolve_leaves_no_trajectory(self, tmp_path, capsys, unwritable):
        out, traj = tmp_path / "r.json", tmp_path / "traj.csv"
        blocked = out if unwritable == "report" else traj
        blocked.mkdir()
        path = write_config(tmp_path, {**CASE4_CONFIG, "outputs": {"trajectory_csv": str(traj)}})
        assert main(["evolve", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: cannot write {blocked}: Is a directory\n"
        assert not any(blocked.iterdir())
        # no trajectory, and no staged one: the report is written before the move fails
        assert {p.name for p in tmp_path.iterdir()} == {"config.json", "r.json", blocked.name}

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_is_not_a_config_error(self):
        # /dev/full opens, and every write to it fails with ENOSPC
        with pytest.raises(OSError):
            cli._write_text("/dev/full", ["x\n"])


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
        path = write_config(tmp_path, {**CASE4_CONFIG, "N": 700, "zeta_samples": 2})
        assert main(["scatter", "--config", path, "--out",
                     str(tmp_path / "r.json")]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: system entries overflowed at n=-700, t=0.0\n")


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
        monkeypatch.setattr(cli, "_write_report", lambda config, out, report: (
            reports.append(report) or write_report(config, out, report)))
        monkeypatch.setattr(cli, "_field_grid", lambda *args: (
            grids.append(field_grid(*args)) or grids[-1]))
        path = write_config(tmp_path, {**doc, "outputs": {
            "trajectory_csv": str(tmp_path / "traj.csv")}})
        written = 0
        for command in cli._DISPATCH:
            out = tmp_path / f"{command}.out"
            main([command, "--config", path, "--out", str(out)])
            if out.exists():
                text = (cli._field_csv(grids[-1]) if command == "soliton"
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
