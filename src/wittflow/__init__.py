"""Quaternionic operator calculus for instationary flow problems.

Solver library for parabolic Stokes and Navier-Stokes systems built on a
Witt-extended quaternion algebra: closed-form space-time kernels, lattice
periodization onto cylinders and tori, discretized volume/boundary integral
operators, Bergman projections, and a fixed-point iteration with explicit
contraction diagnostics.

The public names below are imported on first use (PEP 562), so importing
the package, or ``wittflow.cli``, loads no numpy: ``wittflow --threads``
can still set the BLAS thread count before numpy starts its pool.
"""

from importlib import import_module

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "witt_algebra": ("WittQuaternion", "mul", "scalar_part", "vector_part",
                     "coeff_norm"),
    "kernels": ("KernelParams", "SpaceTimePoint", "fundamental_solution",
                "dual_fundamental_solution", "apply_parabolic_dirac",
                "factorization_residual"),
    "lattice": ("LatticeSpec", "shell_points", "sign_of",
                "tail_bound", "periodized_fundamental_solution"),
    "domain": ("SpaceTimeGrid", "Field", "Domain", "build_box_domain",
               "build_quotient_domain", "discrete_spatial_dirac",
               "discrete_div", "discrete_grad", "discrete_norm"),
    "potentials": ("OperatorContext", "BoundaryData", "teodorescu",
                   "cauchy_transform", "boundary_trace", "bergman_projection",
                   "bergman_complement"),
    "solver": ("NavierStokesProblem", "SolverReport", "SolverDivergence",
               "solve_linear", "convective_term", "momentum_defect",
               "fixed_point_solve", "estimate_constants",
               "convergence_check"),
    "verify": ("StudyResult", "calibrate_convention", "borel_pompeiu_study",
               "hodge_study", "lattice_bruteforce_check"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__version__ = "0.1.0"

__all__ = list(_SOURCE)


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    dunders = {name for name in globals() if name.startswith("__")}
    return sorted(dunders - {"__getattr__", "__dir__"}
                  | set(__all__) | set(_EXPORTS))
