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


def test_tables_go_through_the_traced_lattice_name(monkeypatch):
    # the tracer counts lattice calls and reads shells and tail from the
    # return value of potentials.periodized_solution_batch: each kernel
    # table is one such call, with a float tail within quad_tol and an int
    # shell count (the benchmark's traced torus runs check the same)
    from wittflow import potentials
    from wittflow.domain import build_quotient_domain
    from wittflow.kernels import KernelParams
    from wittflow.lattice import LatticeSpec

    results = []
    lattice_sum = potentials.periodized_solution_batch

    def recording(*args, **kwargs):
        results.append(lattice_sum(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(potentials, "periodized_solution_batch", recording)
    spec = LatticeSpec(3, (True, False, True))
    ctx = potentials.OperatorContext(
        build_quotient_domain(spec, [], 0.25, 0.5, 0.0625), KernelParams(1.0))
    potentials._volume_conv(ctx)
    groups = potentials._face_groups(ctx)
    assert len(results) == 1 + len(groups) == 2
    for _, tail, shells in results:
        assert type(tail) is float and 0.0 < tail <= ctx.quad_tol
        assert type(shells) is int and shells > 0
