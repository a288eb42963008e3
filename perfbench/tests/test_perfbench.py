"""Tests of the benchmark itself, on the shrunken smoke configs.

    python3 -m pytest perfbench/tests -q

References for the smoke configs are generated from the package under test
into a temp dir, so these tests check the benchmark's machinery, not the
stored full-size references (every benchmark run checks those).
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import harness  # noqa: E402
import make_references  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, smoke  # noqa: E402

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def refs(tmp_path_factory):
    out = tmp_path_factory.mktemp("refs")
    make_references.write(harness.ROOT, out, shrink=True)
    return out


def smoke_run(refs, workload, trace):
    return harness.run(workload, seed=5, seconds=0, trace=trace,
                       references=refs, shrink=True)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted_with_its_unit(refs, workload, trace):
    details, result = smoke_run(refs, workload, trace)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    assert result["correct"] and result["failed"] == 0, details["problems"]
    assert details["failed_frac"] == 0.0


def test_declared_workloads_are_the_defined_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _bindings():
    from dnls_ist.ist import NormingData
    mods = [m for n, m in sys.modules.items() if n.startswith("dnls_ist")]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snap.update({("NormingData", k): v for k, v in vars(NormingData).items()})
    return snap


def _traced_session(refs, workload, scratch):
    cli = harness.load_cli(harness.ROOT)
    tracer = Tracer()
    with tracer.installed():
        from dnls_ist import ist, spectral
        assert ist.gamma is not spectral.gamma.__wrapped__
        session = harness.run_session(cli, workload, 5, str(scratch),
                                      checks.load_references(str(refs), workload.name))
    assert session.failed == 0, session.problems
    return tracer, session


def test_tracer_puts_the_original_functions_back(refs, tmp_path):
    before = _bindings()
    tracer, _ = _traced_session(refs, smoke(WORKLOADS["oracle-c4"]), tmp_path)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.counts["ist.cbar.calls"] > 0


def _traced_counts(refs, workload, scratch):
    tracer, session = _traced_session(refs, workload, scratch)
    return {k: v for k, (v, unit) in harness.layer_metrics(tracer, session).items()
            if unit != "s"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_layer_counts_repeat_exactly(refs, tmp_path, workload):
    wl = smoke(WORKLOADS[workload])
    assert _traced_counts(refs, wl, tmp_path) == _traced_counts(refs, wl, tmp_path)


def test_scatter_c1_counts_match_the_documented_work(tmp_path):
    counts = _traced_counts(harness.REFERENCES, WORKLOADS["scatter-c1"], tmp_path)
    assert counts["scattering.scattering_coefficients.calls"] == 102
    assert counts["scattering.jost.calls"] == 408
    assert counts["lattice.theta_products.calls"] == 103
    assert counts["scattering.zeta_reuse"] == 62 / 102


def _corrupt_npz(path, key, delta):
    with np.load(path) as data:
        arrays = dict(data)
    arrays[key] = arrays[key] + delta
    np.savez_compressed(path, **arrays)


def _corrupt_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


CORRUPTIONS = {
    # A field value moved by far more than the tolerance, but far less than
    # anything a reader of the CSV would notice.
    "inverse-c1": lambda d: _corrupt_npz(d / "inverse-c1.npz", "soliton.q", 1e-6),
    "scatter-c1": lambda d: _corrupt_json(
        d / "scatter-c1.json", lambda doc: doc["scatter"]["zeros_t11"][0].__setitem__(0, 1.3)),
    "oracle-c4": lambda d: _corrupt_npz(d / "oracle-c4.npz", "evolve.q", 1e-6),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_a_corrupted_reference_fails_the_run(refs, tmp_path, workload):
    bad = tmp_path / "refs"
    shutil.copytree(refs, bad)
    CORRUPTIONS[workload](bad)
    details, result = smoke_run(bad, workload, trace=False)
    assert result["failed"] > 0 and not result["correct"]
    assert details["failed_frac"] > 0
    assert details["problems"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, *json.loads(
        (tmp_path / "BENCHMARK.json").read_text())["command"][1:],
        "--workload", "inverse-c1", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
