"""Closed-form space-time kernels and the discrete parabolic Dirac operators.

The first-order operator implemented here is

    D[sign] u  =  sum_j ej * d_j u  +  f * d_t u  +  sign * k^p * fd * u

with left multiplication in the Witt-extended algebra and a positive
modification parameter ``k``.  The exponent ``p`` of the zero-order term is a
convention choice; it is fixed empirically by ``verify.calibrate_convention``,
which selects the unique (sign, exponent) pair whose discrete operator
annihilates the causal kernel away from its singularity.  On scalar inputs
the operator composed with itself reduces exactly to a generalized heat
operator ``-Laplace + sign * c(k) * d_t`` with ``c(k) = k^p``.

The causal kernel of the calibrated operator is

    K(x, t; k) = sqrt(k) H(t) exp(-k|x|^2 / 4t) / (2 sqrt(pi t))^3
                 * ( -(k/2t) sum_j ej x_j
                     + f * (k|x|^2 / 4t^2 - 3/2t)
                     + k * fd )

where ``H`` is the Heaviside step.  Within this structural family the sign
pattern is pinned twice over: annihilation by the discrete operator fixes
the relative signs (checked at second order by the verify module), and the
volume-potential reproduction identity fixes the overall sign (the signed
time jump of the ``fd`` component is what reproduces field values, with
constant +1 independent of k).  The dual kernel (``k = 1``, opposite
zero-order sign) flips the sign of the ``f`` bracket.  One rule,
``_check_not_singular``, rejects the singular point ``t = 0, x = 0`` (and
its lattice translates) for the point kernels and the lattice sums alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import Field, SpaceTimeGrid, diff_field, discrete_spatial_dirac
from .witt_algebra import mul_arrays

__all__ = [
    "KernelParams",
    "SpaceTimePoint",
    "ConventionRecord",
    "fundamental_solution",
    "fundamental_solution_array",
    "dual_fundamental_solution",
    "apply_parabolic_dirac",
    "factorization_residual",
    "set_convention",
    "active_convention",
    "convention_is_set",
]

# Flush the Gaussian factor to exact zero beyond this exponent to keep far
# lattice tails free of denormals and NaNs.
UNDERFLOW_EXPONENT = -700.0


@dataclass(frozen=True)
class KernelParams:
    """Modification parameter of the zero-order term; positive and
    finite."""

    k: float = 1.0

    def __post_init__(self):
        if not 0 < self.k < np.inf:
            raise ValueError(
                f"kernel parameter k must be positive and finite, got "
                f"{self.k}")


@dataclass(frozen=True)
class SpaceTimePoint:
    x: tuple[float, float, float]
    t: float


@dataclass(frozen=True)
class ConventionRecord:
    """Outcome of the operator-convention calibration.

    ``fd_power`` is the exponent p of k in the zero-order term, ``sign`` the
    zero-order sign of the primal operator, and ``factorization_power`` the
    exponent of k in the heat-operator coefficient c(k) = k^p measured on a
    scalar probe.  ``orders`` maps each candidate (sign, power) to its fitted
    kernel-annihilation decay order.
    """

    fd_power: int
    sign: int
    factorization_power: int
    orders: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)


_convention: ConventionRecord | None = None


def set_convention(record: ConventionRecord) -> None:
    global _convention
    _convention = record


def convention_is_set() -> bool:
    return _convention is not None


def active_convention() -> ConventionRecord:
    """Calibrated convention; integral operators refuse to run without it."""
    if _convention is None:
        raise RuntimeError(
            "operator convention not calibrated: run "
            "verify.calibrate_convention() (or load a cached record with "
            "kernels.set_convention) before using integral operators")
    return _convention


def _time_factors(t: np.ndarray, k: float):
    """Factors of the kernel that depend on the time alone.

    ``t`` must be an array of at least one dimension: numpy evaluates
    ``** 3`` on a scalar or 0-d array with a scalar ``pow`` that can differ
    in the last bit from the array loop, and the tables must not depend on
    whether a time came as a scalar or per point.
    """
    four_t = 4.0 * t
    cube = (2.0 * np.sqrt(np.pi * t)) ** 3
    return four_t, cube, k / (2.0 * t), four_t * t, 3.0 / (2.0 * t)


def _kernel_terms(xs: np.ndarray, factors, k: float, dual: bool = False,
                  signs: np.ndarray | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The kernel's nonzero components (e1, e2, e3, f, fd), component first.

    ``xs`` holds the coordinates first, ``(3, ...)``; ``factors`` are the
    ``_time_factors`` of times that broadcast against ``xs[0]``.  ``r^2``
    is computed on ``xs[0]``'s own shape, so times on an axis of length 1
    there share it.  ``signs`` (+-1, broadcasting likewise) divide along
    with ``cube``: x/(-c) = -(x/c) exactly, so each term is bitwise the
    sign times the unsigned one.  The result has shape ``(5,)`` plus the
    broadcast shape; ``out`` may be any array (a view, say) of that shape
    to write it into.  The one formula behind ``fundamental_solution_array``
    and the lattice sums.

    Every full-array pass is the closed form's plain operation or an exact
    identity of it, so the bits are those of the formula written out: the
    gradient prefactor is ``pref * -k_half_t`` (not ``-pref * k_half_t``),
    the bracket subtracts in place, and the underflow ``where`` runs only
    when some exponent is below ``UNDERFLOW_EXPONENT`` (or is NaN), the
    only case where it changes something.
    """
    four_t, cube, k_half_t, four_t2, three_half_t = factors
    x0, x1, x2 = xs
    r2 = (x0 * x0 + x1 * x1) + x2 * x2
    expo = -k * r2 / four_t
    gauss = np.exp(expo)
    if expo.size and not expo.min() >= UNDERFLOW_EXPONENT:
        gauss = np.where(expo >= UNDERFLOW_EXPONENT, gauss, 0.0)
    pref = np.sqrt(k) * gauss
    pref /= cube if signs is None else cube * signs
    bracket = k * r2 / four_t2
    bracket -= three_half_t
    if dual:
        bracket = -bracket
    terms = np.empty((5,) + pref.shape) if out is None else out
    # one component at a time: an inner loop of length 3 is slow in numpy
    gradient = pref * -k_half_t
    for c in range(3):
        np.multiply(gradient, xs[c], out=terms[c, ...])
    np.multiply(pref, bracket, out=terms[3, ...])
    np.multiply(k, pref, out=terms[4, ...])
    return terms


def fundamental_solution_array(x: np.ndarray, t: np.ndarray, k: float,
                               dual: bool = False) -> np.ndarray:
    """Kernel coefficients for arrays of points.

    ``x`` has shape (..., 3), ``t`` broadcasts against its leading axes; the
    result has shape (..., 7).  Points with ``t <= 0`` evaluate to exact
    zero (causality); Gaussian underflow is flushed to exact zero.  The
    live points are gathered with their own times, evaluated, and scattered
    back, so a scalar ``t`` gives every point the bits of a per-point ``t``.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(x.shape[:-1], t.shape)
    live = np.broadcast_to(t > 0.0, shape)
    xl = np.broadcast_to(x, shape + (3,))[live]
    factors = _time_factors(np.broadcast_to(t, shape)[live], k)
    out = np.zeros(shape + (7,))
    out[live, 1:6] = np.moveaxis(
        _kernel_terms(np.moveaxis(xl, -1, 0), factors, k, dual), 0, -1)
    return out


def _check_not_singular(points: np.ndarray, t: float, rank: int = 0) -> None:
    """Reject points ``(..., 3)`` at time ``t`` on the space-time origin or
    a translate of it by the rank-``rank`` unit lattice."""
    if t != 0.0:
        return
    offsets = np.array(points, dtype=float)
    offsets[..., :rank] -= np.round(offsets[..., :rank])
    if np.any(np.all(offsets == 0.0, axis=-1)):
        raise ValueError("kernel is singular at a lattice translate of the "
                         "space-time origin")


def fundamental_solution(p: SpaceTimePoint, params: KernelParams) -> np.ndarray:
    """Causal kernel at a single point; rejects the space-time origin."""
    _check_not_singular(p.x, p.t)
    return fundamental_solution_array(np.asarray(p.x, dtype=float),
                                      np.asarray(p.t, dtype=float), params.k)


def dual_fundamental_solution(p: SpaceTimePoint) -> np.ndarray:
    """Kernel of the dual (opposite zero-order sign) operator at k = 1."""
    _check_not_singular(p.x, p.t)
    return fundamental_solution_array(np.asarray(p.x, dtype=float),
                                      np.asarray(p.t, dtype=float), 1.0,
                                      dual=True)


_F_BASIS = np.eye(7)[4]
_FD_BASIS = np.eye(7)[5]


def _zero_order(sign: int | None, fd_power: int | None) -> tuple[int, int]:
    """Zero-order sign and exponent: the given ones, else the record's."""
    if sign is None or fd_power is None:
        record = active_convention()
        sign = record.sign if sign is None else sign
        fd_power = record.fd_power if fd_power is None else fd_power
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return sign, fd_power


def apply_parabolic_dirac(u: Field, g: SpaceTimeGrid, params: KernelParams,
                          sign: int | None = None,
                          fd_power: int | None = None) -> Field:
    """Discrete first-order operator acting on a sampled field.

    The differences are ``diff_field``'s, fixed by the grid ``g``: central
    second order in space (wrapped on periodized axes, one-sided second
    order at free edges), central in time with first-order one-sided
    stencils at the end slabs.  Algebra elements multiply from the left.
    ``sign`` and ``fd_power`` override the zero-order sign and exponent;
    each defaults to the active convention record, so the defaults need a
    calibrated convention.
    """
    if u.grid is not g and u.grid != g:
        raise ValueError("field is sampled on a different grid")
    if min(g.dims) < 3 or g.nt < 2:
        raise ValueError("grid too small for difference stencils")
    sign, power = _zero_order(sign, fd_power)
    kappa = params.k ** power
    # sum_j ej * d_j u + f * d_t u + sign * k^p * fd * u, left-multiplied
    dt_u = diff_field(u.values, 3, g)
    out = discrete_spatial_dirac(u).values
    out += mul_arrays(_F_BASIS, dt_u)
    out += sign * kappa * mul_arrays(_FD_BASIS, u.values)
    return Field(out, u.grid)


def factorization_residual(test: Field, g: SpaceTimeGrid,
                           params: KernelParams, sign: int | None = None,
                           fd_power: int | None = None) -> float:
    """Max-norm defect of D^2 against the generalized heat operator.

    Applies the first-order operator twice and compares with the discrete
    ``-Laplace + sign*c(k)*d_t`` built from narrow central stencils, over the
    interior nodes where every stencil involved is central.  For smooth
    scalar probes the defect is pure spatial discretization error and decays
    at second order.  Defaults as in ``apply_parabolic_dirac``.
    """
    sign, power = _zero_order(sign, fd_power)
    twice = apply_parabolic_dirac(
        apply_parabolic_dirac(test, g, params, sign, power), g, params, sign,
        power)
    ck = params.k ** power
    heat = np.zeros_like(test.values)
    for axis in range(3):
        h = g.spacing(axis)
        heat -= (np.roll(test.values, -1, axis) - 2.0 * test.values
                 + np.roll(test.values, 1, axis)) / (h * h)
    heat += sign * ck * diff_field(test.values, 3, g)
    defect = twice.values - heat
    core = defect[2:-2, 2:-2, 2:-2, 2:-2, :]
    if core.size == 0:
        raise ValueError("grid too small to expose an interior region")
    return float(np.max(np.abs(core)))
