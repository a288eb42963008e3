"""The tools under scripts/ run end to end against the current package.

artifact_diff.py compares every command's outputs between two checkouts,
and cap_memory.py measures the soliton grid's memory at the grid cap.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_cap_memory_measures_both_configs(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cap_memory.py"), "--N", "20", "--steps", "3"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["c1", "README c4"]
    for line in lines:
        assert "cells=123:" in line and "_field_grid tracemalloc peak" in line
        assert "ist soliton ru_maxrss" in line and "ist eigs ru_maxrss" in line


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
    monkeypatch.setattr(artifact_diff, "start", lambda checkout, into: lambda: next(trees))
    assert artifact_diff.main([str(ROOT), str(ROOT)]) == 1
    assert capsys.readouterr().out == (
        "differs: c1/soliton-0.out: largest change 1, text matches\n"
        "2 outputs compared, 1 differ\n")
    # the size of a change is |change - base| / max(1, |base|) over the numbers
    # of a file whose other text matches (t11 and c1-N1200 are words, not numbers)
    base = {"a.csv": b"n,t11\n-700,0.5,-2.5e-3\n1,3e2,1\n", "b.exit": b"7", "c.out": b"x",
            "d.stderr": b"numerical failure: overflow at n=-700\n", "e.json": b'{"t11": 1}'}
    change = {"a.csv": b"n,t11\n-700,0.5000000000000001,-2.5e-3\n1,300.0000000003,1\n",
              "b.exit": b"0", "d.stderr": b"", "e.json": b'{"t12": 1}', "f.out": b"y"}
    trees = iter([base, change])
    assert artifact_diff.main([str(ROOT), str(ROOT)]) == 1
    assert capsys.readouterr().out == (
        "differs: a.csv: largest change 1e-12, text matches\n"
        "differs: b.exit: largest change 1, text matches\n"
        "differs: c.out: only in base\n"
        "differs: d.stderr: text differs\n"
        "differs: e.json: text differs\n"
        "differs: f.out: only in change\n"
        "5 outputs compared, 6 differ\n")
