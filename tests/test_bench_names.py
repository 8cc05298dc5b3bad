"""The package names that the benchmark's tracer wraps must exist.

`perfbench/tracing.py` replaces functions by name when a traced run
starts, so deleting or renaming one of them breaks every traced benchmark
run.  These checks make that a test failure instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module_name, attr",
    [(m, a) for m, names in _tracing().TRACKED.items() for a in names],
)
def test_tracked_names_resolve(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_directly_patched_names_resolve():
    from distgeom import analysis, cli
    from distgeom.core import DistanceVector
    from distgeom.polys import SparsePoly

    assert callable(cli.main)
    assert callable(DistanceVector.from_json)
    assert callable(SparsePoly.__mul__)
    assert callable(analysis.np.linalg.eigh) and callable(analysis.np.linalg.eigvalsh)
