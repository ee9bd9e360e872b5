"""Flow solution engine: linear representation formulas, the nonlinear
fixed-point iteration, and contraction diagnostics.

One sweep solves the scalar pressure equation

    Re( Q T D p ) = Re( Q T g )

by a truncated SVD of the densely assembled system (zero-mean gauge, at
most ``MAX_PRESSURE_CELLS`` unknowns) and then evaluates the velocity
representation

    u = T Q T (g - D p)

operator by operator; the volume potential is never contracted against the
spatial gradient symbolically.  The linear path is one sweep with g = f;
the nonlinear path repeats it with g = f - (u grad) u of the previous
iterate, tracks the first-order Sobolev increments and judges the data's
admissibility by the closed-form contraction constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import partial

import numpy as np

from .domain import (Field, _check_finite, _grad, _sobolev_gram, diff_field,
                     discrete_grad, discrete_norm)
from .potentials import (OperatorContext, _assemble, _complement_volume,
                         _probe_block, _pseudo_inverse, _teodorescu,
                         bergman_projection_adjoint, teodorescu,
                         teodorescu_adjoint)

__all__ = [
    "NavierStokesProblem",
    "SolverReport",
    "SolverDivergence",
    "convective_term",
    "momentum_defect",
    "solve_linear",
    "fixed_point_solve",
    "estimate_constants",
    "ContractionConstants",
    "convergence_check",
    "MAX_PRESSURE_CELLS",
]

# Largest pressure system (one unknown per grid cell) the dense solve takes.
MAX_PRESSURE_CELLS = 4000

# Algebra components the pressure (scalar) and velocity (e-vector) read.
_SCALAR = (0,)
_VECTOR = (1, 2, 3)

# C1's Lanczos iteration stops once the top Ritz pair's residual is at most
# _RITZ_RTOL times its Ritz value, or after _LANCZOS_STEPS steps.
_RITZ_RTOL = 1e-8
_LANCZOS_STEPS = 200


class SolverDivergence(RuntimeError):
    """Raised when the fixed-point residual grows three times in a row."""

    def __init__(self, message: str, report: "SolverReport"):
        super().__init__(message)
        self.report = report


@dataclass
class NavierStokesProblem:
    """Incompressible flow problem with unit viscosity.

    The body force must be a pure e-vector field, and the grid may hold
    at most ``MAX_PRESSURE_CELLS`` cells.
    """

    ctx: OperatorContext
    forcing: Field

    def __post_init__(self):
        if self.forcing.grid != self.ctx.domain.grid:
            raise ValueError("forcing does not live on the context domain")
        witt = self.forcing.values[..., [0, 4, 5, 6]]
        if np.any(witt != 0.0):
            raise ValueError("forcing must be a pure e-vector field")
        n_cells = self.ctx.domain.grid.n_cells
        if n_cells > MAX_PRESSURE_CELLS:
            raise ValueError(
                f"grid has {n_cells} cells; the dense pressure solve takes "
                f"at most {MAX_PRESSURE_CELLS}")


@dataclass
class SolverReport:
    """Outcome of a solve.  ``residual_history`` holds the W11 norm of each
    sweep's velocity step: for a linear solve only the one step from rest
    (the velocity's own norm); the constants and verdict stay unset there.
    ``C1_steps`` and ``C1_residual`` are the Lanczos steps and the relative
    Ritz residual behind an estimated C1 (unset for given constants)."""

    residual_history: list[float]
    C1: float = float("nan")
    C2: float = float("nan")
    W: float | None = None
    L: float | None = None
    admissible: bool | None = None
    converged: bool = True
    warnings: list[str] = dataclass_field(default_factory=list)
    C1_steps: int | None = None
    C1_residual: float | None = None

    @property
    def iterations(self) -> int:
        return len(self.residual_history)

    def summary(self) -> str:
        """Key-value run summary line."""
        def fmt(v):
            if v is None:
                return "n/a"
            if isinstance(v, bool):
                return str(v).lower()
            return format(float(v), ".9g")
        final = self.residual_history[-1] if self.residual_history else 0.0
        return (f"C1={fmt(self.C1)} C2={fmt(self.C2)} W={fmt(self.W)} "
                f"L={fmt(self.L)} admissible={fmt(self.admissible)} "
                f"iterations={self.iterations} final_residual={fmt(final)}")


def convective_term(u: Field) -> Field:
    """(u grad) u: scalar advection applied to each velocity component."""
    if np.any(u.values[..., [0, 4, 5, 6]] != 0.0):
        raise ValueError("convective term expects a pure e-vector field")
    g = u.grid
    vel = u.values[..., 1:4]
    out = np.zeros_like(u.values)
    for axis in range(3):
        d = diff_field(vel, axis, g)
        out[..., 1:4] += vel[..., axis:axis + 1] * d
    return Field(out, g)


def momentum_defect(u: Field, f: Field) -> Field:
    """Convective term minus the body force."""
    return convective_term(u) - f


def _zero_mean(values: np.ndarray) -> np.ndarray:
    """Each row along the last axis minus its mean."""
    return values - values.mean(axis=-1, keepdims=True)


def _scalar_complement(ctx: OperatorContext, g: np.ndarray) -> np.ndarray:
    """Re(Q T g) with zero-mean gauge, flat, for a block of forcings
    ``(m,) + grid.shape + (7,)``: the pressure system's map and right side."""
    w = _complement_volume(g, ctx, _SCALAR)
    return _zero_mean(w[..., 0].reshape(len(g), -1))


def _pressure_apply(ctx: OperatorContext, p_flat: np.ndarray) -> np.ndarray:
    """Scalar system map p -> Re(Q T D p) with zero-mean gauge, on a block
    of flat pressures ``(m, n_cells)``."""
    grid = ctx.domain.grid
    p = _check_finite(_zero_mean(p_flat)).reshape((-1,) + grid.shape)
    return _scalar_complement(ctx, _check_finite(_grad(p, grid)))


def _sweep(ctx: OperatorContext, g: Field) -> tuple[Field, Field]:
    """Velocity and zero-mean pressure of the representation for forcing g.

    The pressure system Re(Q T D p) = Re(Q T g), a product of smoothing
    operators with a steeply graded spectrum, is assembled densely once per
    context and solved by truncated least squares, which also fixes the
    gauge.  The velocity is the e-vector part of T Q T (g - D p); the
    algebra's degenerate cross products shed non-vector byproducts with no
    velocity meaning, so the last volume potential computes only that part.
    """
    grid = ctx.domain.grid
    fac = ctx._cached("pressure_system", lambda: _pseudo_inverse(_assemble(
        partial(_pressure_apply, ctx), grid.n_cells, _probe_block(ctx))))
    p_flat = _zero_mean(fac.solve(_scalar_complement(ctx, g.values[None])[0]))
    p = Field.from_scalar(p_flat.reshape(grid.shape), grid)
    w = _complement_volume((g - discrete_grad(p)).values[None], ctx)
    u = _teodorescu(w, ctx, _VECTOR)[0]
    return Field.from_vector(u[..., 1:4], grid), p


def solve_linear(prob: NavierStokesProblem):
    """The Stokes solve: one sweep from rest, bitwise the first sweep of
    ``fixed_point_solve`` without ``u0``.  Returns (velocity, zero-mean
    pressure, report)."""
    u, p = _sweep(prob.ctx, prob.forcing)
    return u, p, SolverReport(residual_history=[discrete_norm(u, "W11")])


def fixed_point_solve(prob: NavierStokesProblem, u0: Field | None = None,
                      max_iter: int = 50, tol: float = 1e-8,
                      constants: tuple[float, float] | None = None,
                      seed: int = 0):
    """Sweeps with the effective forcing ``f - (u grad) u`` of the previous
    iterate; from rest the first one is ``solve_linear``.  Stops after
    ``max_iter >= 1`` sweeps or once the first-order Sobolev increment is
    below ``tol >= 0`` (0 runs them all; a bad setting raises ``ValueError``
    before any work).  Three consecutive increment growths raise
    ``SolverDivergence``, the partial report riding on it.

    The contraction constants enter only the report's verdict, so they are
    estimated (unless given) after the last sweep: the pressure system's
    SVD, the solve's largest transient, then no longer sits on top of the
    estimate's memory.  A failure of the estimate itself (a vanishing
    composite, a stalled Lanczos iteration, degenerate C2 sampling) thus
    raises after the sweeps, and in place of ``SolverDivergence``.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    ctx = prob.ctx
    grid = ctx.domain.grid
    warnings = []
    if u0 is None:
        u = Field.zeros(grid)
    else:
        if u0.grid != grid:
            raise ValueError("initial iterate does not live on the context "
                             "domain")
        vals = u0.values.copy()
        if np.any(vals[..., [0, 4, 5, 6]] != 0.0):
            vals[..., [0, 4, 5, 6]] = 0.0
            warnings.append("initial iterate projected onto e-vector fields")
        u = Field(vals, grid)

    history: list[float] = []
    converged = False
    growths = 0
    for _ in range(max_iter):
        u_next, p = _sweep(ctx, prob.forcing - convective_term(u))
        step = discrete_norm(u_next - u, "W11")
        if history and step > history[-1]:
            growths += 1
        else:
            growths = 0
        history.append(step)
        u = u_next
        if step < tol:
            converged = True
            break
        if growths >= 3:
            raise SolverDivergence(
                "fixed-point residual grew three consecutive iterations",
                _diagnosed_report(prob, history, constants, seed, u0, False,
                                  warnings))

    if not converged:
        warnings.append("iteration cap reached before the tolerance")
    return u, p, _diagnosed_report(prob, history, constants, seed, u0,
                                   converged, warnings)


def _diagnosed_report(prob, history, constants, seed, u0, converged,
                      warnings) -> SolverReport:
    """Report of a fixed-point run, with the constants ``constants`` or, if
    None, estimated here from ``seed``: only once the sweeps are done."""
    if constants is None:
        constants = estimate_constants(prob.ctx, seed=seed)
    else:
        constants = ContractionConstants(*constants, None, None)
    c1, c2 = constants
    f_norm = discrete_norm(prob.forcing, "L2")
    u0_norm = 0.0 if u0 is None else discrete_norm(u0, "W11")
    admissible, w_const, l_const = convergence_check(c1, c2, f_norm, u0_norm)
    if not converged:
        admissible = False
    warnings = list(warnings)
    if f_norm > _forcing_bound(c1, c2):
        warnings.append("forcing exceeds the admissibility bound; no "
                        "convergence guarantee")
    return SolverReport(
        residual_history=list(history),
        C1=c1, C2=c2, W=w_const, L=l_const,
        C1_steps=constants.c1_steps, C1_residual=constants.c1_residual,
        admissible=admissible,
        converged=converged,
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# Contraction constants
# ---------------------------------------------------------------------------

def _composite(ctx: OperatorContext, v: Field) -> Field:
    w = _complement_volume(v.values[None], ctx)[0]
    return teodorescu(Field(w, v.grid), ctx)


def _composite_transpose(ctx: OperatorContext, w: Field) -> Field:
    inner = teodorescu_adjoint(w, ctx)
    inner = inner - bergman_projection_adjoint(inner, ctx)
    return teodorescu_adjoint(inner, ctx)


class ContractionConstants(tuple):
    """The pair ``(C1, C2)``, carrying C1's Lanczos step count
    (``c1_steps``) and the relative Ritz residual of its last step
    (``c1_residual``); both are None for constants given by the caller."""

    def __new__(cls, c1: float, c2: float, steps: int | None,
                residual: float | None):
        pair = super().__new__(cls, (c1, c2))
        pair.c1_steps = steps
        pair.c1_residual = residual
        return pair


def _composite_norm(ctx: OperatorContext,
                    v: np.ndarray) -> tuple[float, int, float]:
    """Largest singular value of the velocity composite from the L2 to the
    W11 norm, by Lanczos with full reorthogonalization on its normal
    operator, started at ``v``.  Returns the value, the steps (one normal
    operator application each) and the relative Ritz residual of the last
    step.
    """
    grid = ctx.domain.grid

    def normal(x):
        av = _composite(ctx, Field(x.reshape(v.shape), grid))
        z = _composite_transpose(ctx, _sobolev_gram(av))
        return z.values.reshape(-1) / grid.cell_volume

    basis = [v.reshape(-1) / np.linalg.norm(v)]
    alpha, beta = [], []
    for steps in range(1, min(_LANCZOS_STEPS, v.size) + 1):
        w = normal(basis[-1])
        if steps == 1 and not np.any(w):
            raise RuntimeError("the velocity composite vanished on this "
                               "grid: its norm cannot be estimated")
        alpha.append(basis[-1] @ w)
        q = np.array(basis)
        for _ in range(2):
            w -= q.T @ (q @ w)
        beta.append(np.linalg.norm(w))
        tri = np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)
        theta, s = np.linalg.eigh(tri)
        if not (np.isfinite(theta[-1]) and theta[-1] > 0):
            raise RuntimeError("Lanczos iteration for the composite norm "
                               "stalled")
        residual = float(beta[-1] * abs(s[-1, -1]) / theta[-1])
        if residual <= _RITZ_RTOL:
            break
        basis.append(w / beta[-1])
    return float(np.sqrt(theta[-1])), steps, residual


def estimate_constants(ctx: OperatorContext,
                       seed: int = 0) -> ContractionConstants:
    """Operator norm of the velocity composite, and the convective constant.

    The first constant, C1, is the largest singular value of the composite
    volume-complement-volume map between the discrete L2 and first-order
    Sobolev norms: the square root of the top eigenvalue of its normal
    operator, found by Lanczos from a seeded random start.  It stops once
    the top Ritz pair's residual is at most ``_RITZ_RTOL`` = 1e-8 of its
    Ritz value (or after ``_LANCZOS_STEPS``), so C1 is within about 5e-9
    relative of the norm.  The second, C2, maximizes the convective
    quotient over 200 seeded random smooth bump fields: a sampled lower
    bound of the true constant, not the constant itself.
    """
    grid = ctx.domain.grid
    rng = np.random.default_rng(seed)
    c1, steps, residual = _composite_norm(
        ctx, rng.standard_normal(grid.shape + (7,)))

    c2 = 0.0
    xs, ts = grid.node_positions()
    ext = grid.extent
    for _ in range(200):
        center = rng.uniform(0.25, 0.75, size=3) * np.asarray(ext)
        width = rng.uniform(0.15, 0.35) * min(ext)
        r2 = np.sum((xs - center) ** 2, axis=-1) / width ** 2
        bump = np.exp(-np.where(r2 < 40.0, r2, 40.0))
        tmod = 0.5 + 0.5 * np.sin(
            2.0 * np.pi * (ts / grid.horizon + rng.uniform()))
        coeffs = rng.standard_normal(3)
        vals = np.zeros(grid.shape + (7,))
        for i in range(3):
            vals[..., 1 + i] = coeffs[i] * bump[..., None] * tmod
        u = Field(vals, grid)
        denom = discrete_norm(u, "W11") ** 2
        if denom <= 0:
            continue
        ratio = discrete_norm(convective_term(u), "L2") / denom
        c2 = max(c2, float(ratio))
    if c2 <= 0:
        raise RuntimeError("convective constant sampling degenerated")
    return ContractionConstants(c1, c2, steps, residual)


def _forcing_bound(c1: float, c2: float) -> float:
    """Largest forcing L2 norm the smallness condition admits."""
    return 1.0 / (16.0 * c1 * c1 * c2)


def convergence_check(c1: float, c2: float, f_norm: float, u0_norm: float):
    """Closed-form admissibility verdict for the fixed-point iteration.

    Returns (admissible, W, L).  W and L are defined whenever the forcing
    satisfies the smallness condition; admissibility additionally requires
    the starting radius bound and a strict contraction factor.
    """
    if not (c1 > 0 and c2 > 0):
        raise ValueError("constants must be positive")
    if not (f_norm >= 0 and u0_norm >= 0):
        raise ValueError("norms must be nonnegative")
    if f_norm > _forcing_bound(c1, c2):
        return False, None, None
    w = float(np.sqrt(max(1.0 / (16.0 * c1 * c1 * c2 * c2)
                          - f_norm / c2, 0.0)))
    l_const = 1.0 - 4.0 * c1 * c2 * w
    radius = min(1.0 / (2.0 * c1 * c2), 1.0 / (4.0 * c1 * c2) + w)
    admissible = (u0_norm <= radius) and (l_const < 1.0)
    return admissible, w, l_const
