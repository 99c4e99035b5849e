"""Spans around designlab's layer functions, recorded from outside the package.

``Tracer.install`` replaces each layer function at every module attribute
that holds it (``designlab.X``, ``designs.spherical_subset_eigen``, ...), so
calls are caught however the caller looks the function up.  Spans are kept
in memory; self time is a span's duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

LAYERS = (
    "spaces.build_named_space",
    "spaces.spectral_decomposition",
    "spaces.load_space",
    "spaces.validate_scheme",
    "spectra.spherical_subset_eigen",
    "spectra.subset_eigen",
    "designs.design_bound_auto",
    "designs.design_strength",
    "designs.verify_design",
    "designs.load_isometries",
    "designs.translations_to_origin",
    "designs.verify_cover_chain",
    "designs.min_design_search",
    "torus.lattice_density_bound",
    "torus.torus_covolume_bound",
)

_MODULES = ("designlab", "designlab.spaces", "designlab.spectra",
            "designlab.designs", "designlab.torus", "designlab.cli")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.weight = 1.0          # share of one pass that the current call is
        self.spans = []            # [name, start, end, parent index, weight]
        self._open = []
        self.projector_mb = 0.0    # k * N^2 * 8 bytes of the largest decomposition

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in _MODULES]
        for layer in LAYERS:
            mod, fn = layer.split(".")
            orig = getattr(importlib.import_module(f"designlab.{mod}"), fn)
            traced = self._wrap(layer, orig)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, traced)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = [name, perf_counter(), None, parent, self.weight]
            self.spans.append(span)
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._open.pop()
            if name == "spaces.spectral_decomposition":
                k, n, _ = result.projectors.shape
                self.projector_mb = max(self.projector_mb, k * n * n * 8 / 2 ** 20)
            return result
        return traced

    def totals(self) -> dict:
        """Weighted self seconds and calls per layer, summed over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _, weight), kids in zip(self.spans, child):
            self_s[name] += weight * (end - start - kids)
            calls[name] += weight
        return {"self_s": self_s, "calls": calls, "projector_mb": self.projector_mb}


def merge(total: dict, part: dict) -> None:
    for key in ("self_s", "calls"):
        for layer, value in part[key].items():
            total[key][layer] += value
    total["projector_mb"] = max(total["projector_mb"], part["projector_mb"])
