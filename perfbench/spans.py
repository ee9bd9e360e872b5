"""Per-layer tracing from outside the package.

``install()`` replaces the public functions of each wittflow module with
wrappers that time a span around the call and count what the call did.  A
name is rebound in every wittflow module whose namespace holds the original
function object (``solver`` imports ``teodorescu`` by name, ``potentials``
and ``lattice`` both bind ``fundamental_solution_array``, ...), so no
binding is missed.  Self time is a span's duration minus the durations of
the wrapped spans it called.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

MODULES = ("witt_algebra", "kernels", "lattice", "domain", "potentials",
           "solver", "verify", "cli")

# (module, function, span key).  Functions sharing a key share its totals.
SPANS = (
    ("verify", "calibrate_convention", "verify.calibrate"),
    ("domain", "discrete_grad", "domain.grad"),
    ("domain", "export_solution_csv", "domain.export"),
    ("kernels", "fundamental_solution_array", "kernels.eval"),
    ("lattice", "periodized_solution_batch", "lattice.batch"),
    ("potentials", "teodorescu", "potentials.teodorescu"),
    ("potentials", "cauchy_transform", "potentials.cauchy"),
    ("potentials", "boundary_trace", "potentials.trace"),
    ("potentials", "bergman_projection", "potentials.bergman"),
    ("potentials", "teodorescu_adjoint", "potentials.adjoint"),
    ("potentials", "cauchy_adjoint", "potentials.adjoint"),
    ("potentials", "trace_adjoint", "potentials.adjoint"),
    ("potentials", "bergman_projection_adjoint", "potentials.adjoint"),
    ("solver", "estimate_constants", "solver.constants"),
    ("solver", "solve_linear", "solver.solve"),
    ("solver", "fixed_point_solve", "solver.solve"),
)

# Per-layer metrics: name -> (unit, better, is a count that must repeat).
METRICS = {
    "verify.calibrate_s": ("s", "lower", False),
    "domain.grad_s": ("s", "lower", False),
    "domain.grad_calls": ("count", "lower", True),
    "domain.export_s": ("s", "lower", False),
    "kernels.eval_s": ("s", "lower", False),
    "kernels.eval_calls": ("count", "lower", True),
    "kernels.points": ("count", "lower", True),
    "lattice.self_s": ("s", "lower", False),
    "lattice.calls": ("count", "lower", True),
    "lattice.shells_sum": ("count", "lower", True),
    "lattice.shells_max": ("count", "lower", True),
    "lattice.tail_max": ("1", "lower", True),
    "potentials.teodorescu_s": ("s", "lower", False),
    "potentials.teodorescu_calls": ("count", "lower", True),
    "potentials.teodorescu_first_s": ("s", "lower", False),
    "potentials.cauchy_s": ("s", "lower", False),
    "potentials.cauchy_calls": ("count", "lower", True),
    "potentials.cauchy_first_s": ("s", "lower", False),
    "potentials.trace_s": ("s", "lower", False),
    "potentials.trace_calls": ("count", "lower", True),
    "potentials.bergman_first_s": ("s", "lower", False),
    "potentials.bergman_self_s": ("s", "lower", False),
    "potentials.bergman_calls": ("count", "lower", True),
    "potentials.adjoint_s": ("s", "lower", False),
    "potentials.adjoint_calls": ("count", "lower", True),
    "solver.constants_s": ("s", "lower", False),
    "solver.iterations": ("count", "lower", True),
    "solver.first_sweep_s": ("s", "lower", False),
    "solver.sweep_s": ("s", "lower", False),
    "solver.self_s": ("s", "lower", False),
    "cli.self_s": ("s", "lower", False),
    "witt_algebra.mul_calls": ("count", "lower", True),
    "trace.solve_s": ("s", "lower", False),
    "trace.overhead_s": ("s", "lower", False),
}


class Tracer:
    """Span stack plus per-key totals, kept in memory for one process."""

    def __init__(self):
        self.bindings: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Forget every total, e.g. those of set-up, before the solve."""
        self._stack: list[list[float]] = []   # child time per open span
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.first_s: dict[str, float] = {}
        self.calls = defaultdict(int)
        self.root_s = 0.0
        self.points = 0
        self.shells = []
        self.tail_max = 0.0
        self.mul_calls = 0
        self.sweep_marks: list[float] = []
        self._in_fixed_point = False

    def span(self, key: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += duration
                else:
                    self.root_s += duration
                self.self_s[key] += duration - frame[0]
                self.total_s[key] += duration
                self.first_s.setdefault(key, duration)
                self.calls[key] += 1
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    # -- counters read from arguments and return values ----------------------

    def _kernel_points(self, args, kwargs, result):
        # result has shape (..., 7): one row per space-time point evaluated
        self.points += result.size // 7

    def _lattice_result(self, args, kwargs, result):
        _, tail, shells = result
        self.shells.append(int(shells))
        self.tail_max = max(self.tail_max, float(tail))

    def _fixed_point(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._in_fixed_point = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_fixed_point = False
                self.sweep_marks.append(time.perf_counter())
        return wrapper

    def _convective(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_fixed_point:
                self.sweep_marks.append(time.perf_counter())
            return fn(*args, **kwargs)
        return wrapper

    def _count_mul(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.mul_calls += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"wittflow.{m}") for m in MODULES]
        modules.append(importlib.import_module("wittflow"))
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        hooks = {"kernels.eval": self._kernel_points,
                 "lattice.batch": self._lattice_result}
        plan = []
        for mod_name, fn_name, key in SPANS:
            orig = getattr(by_name[mod_name], fn_name)
            wrapped = self.span(key, orig, hooks.get(key))
            if fn_name == "fixed_point_solve":
                wrapped = self._fixed_point(wrapped)
            plan.append((f"{mod_name}.{fn_name}", orig, wrapped))
        for mod_name, fn_name, wrap in (
                ("solver", "convective_term", self._convective),
                ("witt_algebra", "mul_arrays", self._count_mul)):
            orig = getattr(by_name[mod_name], fn_name)
            plan.append((f"{mod_name}.{fn_name}", orig, wrap(orig)))
        for label, orig, wrapped in plan:
            count = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
                        count += 1
            if count == 0:
                raise RuntimeError(f"no module binds {label}")
            self.bindings[label] = count

    # -- results -------------------------------------------------------------

    def metrics(self, solve_s: float, calibrate_s: float) -> dict:
        """Per-layer values of one traced solve (overhead added later).

        The tracer is reset after set-up, so every value but the
        calibration time describes the solve alone.
        """
        s, c = self.self_s, self.calls
        marks = self.sweep_marks
        gaps = [b - a for a, b in zip(marks, marks[1:])]
        return {
            "verify.calibrate_s": calibrate_s,
            "domain.grad_s": s["domain.grad"],
            "domain.grad_calls": c["domain.grad"],
            "domain.export_s": s["domain.export"],
            "kernels.eval_s": s["kernels.eval"],
            "kernels.eval_calls": c["kernels.eval"],
            "kernels.points": self.points,
            "lattice.self_s": s["lattice.batch"],
            "lattice.calls": c["lattice.batch"],
            "lattice.shells_sum": sum(self.shells),
            "lattice.shells_max": max(self.shells, default=0),
            "lattice.tail_max": self.tail_max,
            "potentials.teodorescu_s": s["potentials.teodorescu"],
            "potentials.teodorescu_calls": c["potentials.teodorescu"],
            "potentials.teodorescu_first_s":
                self.first_s.get("potentials.teodorescu", 0.0),
            "potentials.cauchy_s": s["potentials.cauchy"],
            "potentials.cauchy_calls": c["potentials.cauchy"],
            "potentials.cauchy_first_s":
                self.first_s.get("potentials.cauchy", 0.0),
            "potentials.trace_s": s["potentials.trace"],
            "potentials.trace_calls": c["potentials.trace"],
            "potentials.bergman_first_s":
                self.first_s.get("potentials.bergman", 0.0),
            "potentials.bergman_self_s": s["potentials.bergman"],
            "potentials.bergman_calls": c["potentials.bergman"],
            "potentials.adjoint_s": s["potentials.adjoint"],
            "potentials.adjoint_calls": c["potentials.adjoint"],
            "solver.constants_s": self.total_s["solver.constants"],
            "solver.iterations": max(len(marks) - 1, 0),
            "solver.first_sweep_s": gaps[0] if gaps else 0.0,
            "solver.sweep_s": sum(gaps[1:]),
            "solver.self_s": s["solver.solve"],
            "cli.self_s": solve_s - self.root_s,
            "witt_algebra.mul_calls": self.mul_calls,
            "trace.solve_s": solve_s,
        }
