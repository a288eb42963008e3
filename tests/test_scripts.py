"""The experiment scripts run end to end against the current package API."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("case1_two_soliton.py", ["--N", "20", "--out", "{tmp}/case1_field.csv"]),
    ("case4_one_soliton.py", ["--N", "20", "--t-end", "0.1"]),
    ("case2_scan.py", []),
])
def test_script_runs_cleanly(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)]
        + [a.format(tmp=tmp_path) for a in args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout


def test_artifact_diff_finds_this_checkout_identical_to_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "artifact_diff.py"), str(ROOT), str(ROOT)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith(" outputs compared, 0 differ\n")


def test_artifact_diff_lists_a_difference(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import artifact_diff
    trees = iter([{"c1/soliton-0.out": b"1\n", "c1/soliton-0.exit": b"0"},
                  {"c1/soliton-0.out": b"2\n", "c1/soliton-0.exit": b"0"}])
    monkeypatch.setattr(artifact_diff, "outputs", lambda checkout, into: next(trees))
    assert artifact_diff.main([str(ROOT), str(ROOT)]) == 1
    assert capsys.readouterr().out == "differs: c1/soliton-0.out\n2 outputs compared, 1 differ\n"
