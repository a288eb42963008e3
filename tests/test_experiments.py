"""Every experiment of README's "Experiments" section runs as it documents.

An experiment is a config under a name, the `ist` commands to run on it
and a table of the report fields it reads, each with its value.  The
config is written under its name, each command runs in process in that
directory and must exit 0 with nothing on stderr, and each value must
match its field to the digits the README shows.
"""
import csv
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from dnls_ist.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def experiments() -> list:
    """(name, config, commands, table rows) of each README experiment, in README order."""
    section = README.read_text(encoding="utf-8").split("\n## Experiments\n")[1]
    found = []
    for part in section.split("\n## ")[0].split("\n### ")[1:]:
        blocks = dict(re.findall(r"```(json|sh)\n(.*?)```", part, re.S))
        found.append((re.match(r"`([^`]+)`", part)[1], json.loads(blocks["json"]),
                      [shlex.split(line) for line in blocks["sh"].splitlines()],
                      [[cell.strip() for cell in line.strip("|").split("|")]
                       for line in part.splitlines() if line.startswith("| `")]))
    assert found, "README.md lists no experiment"
    return found


def _report(command: str, text: str):
    """The JSON report of a command, or soliton's CSV as {column: values of its regular cells}."""
    if command != "soliton":
        return json.loads(text)
    columns = {}
    for row in csv.DictReader(io.StringIO(text)):
        for name, value in row.items():
            if value:
                columns.setdefault(name, []).append(float(value))
    return columns


def _values(report, field: str) -> list:
    """The values field names: a dotted path in backticks, after 'largest' or 'least' its
    largest or least modulus; a JSON complex is {"re", "im"}."""
    value = report
    for key in re.search(r"`([^`]+)`", field)[1].split("."):
        value = value[key]
    if field.startswith(("largest", "least")):
        moduli = [abs(complex(v["re"], v["im"]) if isinstance(v, dict) else v) for v in value]
        return [max(moduli) if field.startswith("largest") else min(moduli)]
    if isinstance(value, dict):
        value = list(value.values())
    return value if isinstance(value, list) else [value]


def _matches(value, stated: str) -> bool:
    """value is the README's stated value: a bool, or a number to its significant digits."""
    if stated in ("true", "false"):
        return value is (stated == "true")
    digits = max(1, len(stated.split("e")[0].replace(".", "").lstrip("0")))
    return f"{value:.{digits - 1}e}" == f"{float(stated):.{digits - 1}e}"


EXPERIMENTS = experiments()


@pytest.mark.parametrize("name, config, commands, rows", EXPERIMENTS,
                         ids=[experiment[0] for experiment in EXPERIMENTS])
def test_readme_experiment(tmp_path, monkeypatch, capsys, name, config, commands, rows):
    monkeypatch.chdir(tmp_path)
    Path(name).write_text(json.dumps(config), encoding="utf-8")
    reports = {}
    for argv in commands:
        assert argv[0] == "ist"
        code = main(argv[1:])
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), argv
        text = Path(argv[argv.index("--out") + 1]).read_text() if "--out" in argv else out
        reports[argv[1]] = _report(argv[1], text)
    for command, field, stated in rows:
        values = _values(reports[command.strip("`")], field)
        expected = [part.strip() for part in stated.split(",")]
        assert len(values) == len(expected) and all(
            _matches(value, part) for value, part in zip(values, expected)), (command, field, values)
