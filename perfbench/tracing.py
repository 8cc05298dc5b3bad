"""Spans around the calls into each layer of the distgeom package.

The package itself carries no instrumentation.  `instrument` replaces the
public functions of each layer by recording wrappers in the namespace of
every distgeom module that holds them, so a call such as
`distgeom.factorization.poly_det(...)` or `exact.psd_verdict(...)` from
`analysis` opens a span; `distgeom.cli.main` gets one span per verb.
Spans stay in memory; the worker writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# Module -> public function -> span name.  Both certificate entry points
# share one span name: the per-layer metric is the self time of either.
TRACKED = {
    "distgeom.polys": {
        "poly_det": "polys.poly_det",
        "exact_divide": "polys.exact_divide",
    },
    "distgeom.builders": {
        name: f"builders.{name}"
        for name in (
            "edm",
            "bordered",
            "cayley_menger",
            "reduced_edm",
            "nbody_matrix",
            "w_matrix",
            "lift_reduced",
        )
    },
    "distgeom.exact": {
        name: f"exact.{name}"
        for name in ("det", "rank", "psd_verdict", "nullspace_vector")
    },
    "distgeom.analysis": {
        name: f"analysis.{name}"
        for name in (
            "cone_membership",
            "definiteness",
            "determinant",
            "embed",
            "simplex_volume_sq",
        )
    },
    "distgeom.factorization": {
        "factor_nbody": "factorization.certify",
        "factor_w": "factorization.certify",
    },
    "distgeom.suites": {
        f"{name}_suite": f"suites.{name}"
        for name in (
            "signs",
            "cmdk",
            "roundtrip",
            "forms",
            "menger",
            "signdict",
            "heron",
            "kernel",
            "content",
        )
    },
}

# Spans whose result size is recorded: the number of polynomial terms.
_SIZED = {"polys.poly_det", "polys.exact_divide", "polys.mul"}

NAME, START, END, PARENT, OP, SIZE = range(6)


def _terms(result):
    return len(result.terms) if result is not None else 0


class Recorder:
    """In-memory span list: [name, start, end, parent index, op id, size]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    def call(self, name, fn, args=(), kwargs=None):
        parent = self._stack[-1] if self._stack else -1
        span = [name, perf_counter(), 0.0, parent, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span[END] = perf_counter()
            self._stack.pop()
        if name in _SIZED:
            span[SIZE] = _terms(result)
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced


class _Proxy:
    """Attribute proxy that overrides a few names of a module."""

    def __init__(self, target, overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def instrument(recorder: Recorder):
    """Install recording wrappers; returns a function that removes them."""
    import numpy as np

    from distgeom import analysis, cli
    from distgeom.core import DistanceVector
    from distgeom.polys import SparsePoly

    undo = []

    def setattr_undo(owner, name, value):
        undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    wrappers = {}
    for module_name, names in TRACKED.items():
        module = importlib.import_module(module_name)
        for attr, span_name in names.items():
            fn = getattr(module, attr)
            wrappers[id(fn)] = (fn, recorder.wrap(span_name, fn))
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("distgeom"):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr_undo(module, attr, hit[1])

    plain_mul = SparsePoly.__mul__

    def traced_mul(self, other):
        if isinstance(other, SparsePoly):
            return recorder.call("polys.mul", plain_mul, (self, other))
        return plain_mul(self, other)

    setattr_undo(SparsePoly, "__mul__", traced_mul)
    plain_main = cli.main

    def traced_main(argv):
        return recorder.call(f"cli.main.{argv[0]}", plain_main, (argv,))

    setattr_undo(cli, "main", traced_main)
    setattr_undo(
        DistanceVector,
        "from_json",
        staticmethod(recorder.wrap("core.from_json", DistanceVector.from_json)),
    )
    eig = {
        name: recorder.wrap("numpy.eig", getattr(np.linalg, name))
        for name in ("eigh", "eigvalsh")
    }
    setattr_undo(analysis, "np", _Proxy(np, {"linalg": _Proxy(np.linalg, eig)}))

    def remove():
        for owner, name, value in reversed(undo):
            setattr(owner, name, value)

    return remove


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def summarize(spans):
    """Per span name: calls, self seconds, total seconds, summed sizes."""
    own = self_times(spans)
    out: dict = {}
    for span, self_s in zip(spans, own):
        row = out.setdefault(
            span[NAME], {"calls": 0, "self_s": 0.0, "total_s": 0.0, "size": 0}
        )
        row["calls"] += 1
        row["self_s"] += self_s
        row["total_s"] += span[END] - span[START]
        row["size"] += span[SIZE] or 0
    return out


def nested(spans, child: str, parent: str):
    """(calls, seconds) of `child` spans opened directly inside `parent` spans."""
    hits = [
        s[END] - s[START]
        for s in spans
        if s[NAME] == child and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == parent
    ]
    return len(hits), sum(hits)


def accounting(spans, traced_wall: float):
    """Layer self times plus the unattributed rest, adding up to traced_wall."""
    layers: dict = {}
    for span, self_s in zip(spans, self_times(spans)):
        layer = span[NAME].split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + self_s
    layers["unattributed"] = traced_wall - sum(layers.values())
    return layers
