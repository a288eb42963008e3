"""Per-layer spans and counts, recorded by wrapping the package from outside.

The program has no tracing of its own yet, so the tracer replaces each
traced function at every place the package binds it (modules bind many of
them with `from .x import f`, so patching the defining module alone would
miss most calls) and puts the original objects back afterwards.

Spans are aggregated as they close rather than stored: a span adds its
duration to its function's inclusive time and to its parent's child time,
and its duration minus its children's to its layer's self time.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "dnls_ist"


def _jost_steps(tracer, args, result):
    tracer.counts["scattering.jost.steps"] += 2 * args[0].N + 1


def _zeta_seen(tracer, args, result):
    tracer.zetas.add(complex(args[1]))


def _scan_solve(tracer, args, result):
    if "ist.singularity_scan" in tracer.active:
        tracer.counts["ist.singularity_scan.solves"] += 1


def _simulate_steps(tracer, args, result):
    tracer.counts["verify.simulate.steps"] += len(result.times) - 1


def _compare_evals(tracer, args, result):
    # Comparing two trajectories evaluates nothing.
    if callable(args[1]):
        tracer.counts["verify.compare.evals"] += args[0].states.size


def _residual_evals(tracer, args, result):
    # Four stencil times plus n+1, n-1, n and the mirror site -n.
    tracer.counts["verify.equation_residual.evals"] += 8 * len(result.per_site)


# (layer, attribute path in the layer's module, hook run after each call)
TRACED = (
    ("spectral", "gamma", None),
    ("spectral", "lam_squared", None),
    ("spectral", "point_from_zeta", None),
    ("spectral", "zeta_bar", None),
    ("lattice", "theta_products", None),
    ("lattice", "partner", None),
    ("scattering", "jost", _jost_steps),
    ("scattering", "scattering_coefficients", _zeta_seen),
    ("scattering", "scattering_report", None),
    ("scattering", "continuum_samples", None),
    ("ist", "reconstruct", None),
    ("ist", "build_system", _scan_solve),
    ("ist", "NormingData.cbar", None),
    ("ist", "singularity_scan", None),
    ("ist", "soliton_closed_form_case4", None),
    ("verify", "simulate", _simulate_steps),
    ("verify", "compare", _compare_evals),
    ("verify", "equation_residual", _residual_evals),
    ("cli", "main", None),
    ("cli", "dump_json", None),
)


class Tracer:
    """Spans and counts of one traced session; install() patches the package."""

    def __init__(self):
        self.self_s = defaultdict(float)   # layer -> self time
        self.total_s = defaultdict(float)  # "layer.fn" -> inclusive time
        self.counts = defaultdict(int)
        self.zetas: set[complex] = set()
        self.active: set[str] = set()
        self._children: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, key: str, fn, hook):
        from dnls_ist.errors import SingularSolution

        def traced(*args, **kwargs):
            if key in self.active:  # a recursive call belongs to the open span
                return fn(*args, **kwargs)
            self.counts[key + ".calls"] += 1
            self.active.add(key)
            children = [0.0]
            self._children.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except SingularSolution:
                self.counts[key + ".singular"] += 1
                raise
            finally:
                duration = perf_counter() - start
                self._children.pop()
                self.active.discard(key)
                self.total_s[key] += duration
                self.self_s[layer] += duration - children[0]
                if self._children:
                    self._children[-1][0] += duration
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer, path, hook in TRACED:
            owner = sys.modules[f"{PACKAGE}.{layer}"]
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            fn = owner.__dict__[attr]
            key = f"{layer}.{attr}"
            wrapper = self._wrap(layer, key, fn, hook)
            sites = [owner] if outer else [m for m in modules
                                           if m.__dict__.get(attr) is fn]
            for site in sites:
                self._patches.append((site, attr, fn))
                setattr(site, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            site, attr, fn = self._patches.pop()
            setattr(site, attr, fn)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
