"""Every package name that the benchmark under perfbench/ binds still resolves.

The benchmark is not part of this suite, so deleting a name that its tracer
wraps or its layer timings call would pass here and break the benchmark.
"""
import ast
import importlib
import importlib.util
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
_spec = importlib.util.spec_from_file_location("_bench_tracing", PERFBENCH / "tracing.py")
_tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracing)


def _micro_names():
    """Dotted names (layer.attr...) that perfbench/micro.py reads off the dnls_ist modules."""
    tree = ast.parse((PERFBENCH / "micro.py").read_text(encoding="utf-8"))
    layers = {a.asname or a.name: a.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "dnls_ist"
              for a in node.names}
    names = set()
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.insert(0, node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in layers:
            names.add(".".join([layers[node.id], *attrs]))
    return sorted(names)


@pytest.mark.parametrize("layer, path", [t[:2] for t in _tracing.TRACED])
def test_traced_names_resolve_as_the_tracer_installs_them(layer, path):
    owner = importlib.import_module(f"dnls_ist.{layer}")
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    assert callable(owner.__dict__[attr])


@pytest.mark.parametrize("name", _micro_names())
def test_micro_benchmark_names_resolve(name):
    layer, *attrs = name.split(".")
    obj = importlib.import_module(f"dnls_ist.{layer}")
    for attr in attrs:
        obj = getattr(obj, attr)
