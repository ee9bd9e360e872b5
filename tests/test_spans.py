"""The benchmark tracer's targets resolve in the package.

``perfbench/spans.py`` wraps package functions by module and name, and a
traced benchmark run stops when one of them is gone.  These tests load it
by file path, without installing the wrappers, so a rename or a dropped
import shows up here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# wrapped by the tracer outside its SPANS table
_EXTRA = (("solver", "convective_term"), ("witt_algebra", "mul_arrays"))


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves(spans):
    targets = [(mod, fn) for mod, fn, _ in spans.SPANS] + list(_EXTRA)
    for mod, fn in targets:
        value = getattr(importlib.import_module(f"wittflow.{mod}"), fn, None)
        assert callable(value), f"wittflow.{mod}.{fn} is gone"


@pytest.mark.parametrize("mod, fn", [("potentials", "teodorescu"),
                                     ("kernels",
                                      "fundamental_solution_array")])
def test_shared_names_stay_bound(spans, mod, fn):
    # the tracer rebinds a function in every module that imports it; the
    # benchmark's own test expects these in at least three modules
    orig = getattr(importlib.import_module(f"wittflow.{mod}"), fn)
    binders = [name for name in spans.MODULES
               if any(value is orig for value in
                      vars(importlib.import_module(f"wittflow.{name}"))
                      .values())]
    assert len(binders) >= 3, binders
