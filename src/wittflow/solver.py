"""Flow solution engine: linear representation formulas, the nonlinear
fixed-point iteration, and contraction diagnostics.

The linear path solves the scalar pressure equation

    Re( Q T D p ) = Re( Q T f )

by a truncated SVD of the densely assembled system (zero-mean gauge, at
most ``MAX_PRESSURE_CELLS`` unknowns) and then evaluates the velocity
representation

    u = T Q T (f - D p)

operator by operator; the volume potential is never contracted against the
spatial gradient symbolically.  The nonlinear path replaces f by
``f - (u grad) u`` from the previous iterate and tracks the first-order
Sobolev increments; admissibility of the data is judged by the closed-form
contraction constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import partial

import numpy as np

from .domain import (Field, _check_finite, _forward_gap_diffs, _grad,
                     diff_field, discrete_grad, discrete_norm)
from .potentials import (OperatorContext, _complement_volume, _probe_block,
                         _pseudo_inverse, bergman_projection_adjoint,
                         teodorescu, teodorescu_adjoint)

__all__ = [
    "NavierStokesProblem",
    "SolverReport",
    "SolverDivergence",
    "convective_term",
    "momentum_defect",
    "solve_linear",
    "fixed_point_solve",
    "estimate_constants",
    "convergence_check",
    "MAX_PRESSURE_CELLS",
]

# Largest pressure system (one unknown per grid cell) the dense solve takes.
MAX_PRESSURE_CELLS = 4000


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
    residual_history: list[float]
    C1: float = float("nan")
    C2: float = float("nan")
    W: float | None = None
    L: float | None = None
    admissible: bool | None = None
    converged: bool = True
    warnings: list[str] = dataclass_field(default_factory=list)

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
        d = diff_field(vel, axis, g.h, g.periodic[axis], edge_order=2)
        out[..., 1:4] += vel[..., axis:axis + 1] * d
    return Field(out, g)


def momentum_defect(u: Field, f: Field) -> Field:
    """Convective term minus the body force."""
    return convective_term(u) - f


def _zero_mean(values: np.ndarray) -> np.ndarray:
    """Each row along the last axis minus its mean."""
    return values - values.mean(axis=-1, keepdims=True)


def _pressure_apply(ctx: OperatorContext, p_flat: np.ndarray) -> np.ndarray:
    """Scalar system map p -> Re(Q T D p) with zero-mean gauge, on a block
    of flat pressures ``(m, n_cells)``."""
    grid = ctx.domain.grid
    p = _check_finite(_zero_mean(p_flat)).reshape((-1,) + grid.shape)
    w = _complement_volume(_check_finite(_grad(p, grid)), ctx)
    return _zero_mean(w[..., 0].reshape(len(p_flat), -1))


def _pressure_rhs(ctx: OperatorContext, g_field: Field) -> np.ndarray:
    """Flat right side Re(Q T g) of the pressure system, zero-mean."""
    w = _complement_volume(g_field.values[None], ctx)
    return _zero_mean(w[0, ..., 0].reshape(-1))


def _pressure_solve(ctx: OperatorContext, g_field: Field) -> np.ndarray:
    """Flat zero-mean pressure solving Re(Q T D p) = Re(Q T g).

    The composite is a product of smoothing operators, so its discrete
    spectrum is steeply graded.  The system is assembled densely once per
    context and solved by truncated least squares, which also fixes the
    additive gauge mode.
    """
    fac = ctx._cached("pressure_system", lambda: _pseudo_inverse(
        partial(_pressure_apply, ctx), ctx.domain.grid.n_cells,
        _probe_block(ctx)))
    return _zero_mean(fac.solve(_pressure_rhs(ctx, g_field)))


def _velocity_from(ctx: OperatorContext, g_field: Field) -> Field:
    """Velocity representation: e-vector part of the composite potential.

    The composite volume-complement-volume map is evaluated operator by
    operator; its e-vector part is the velocity iterate (the algebra's
    degenerate cross products shed small non-vector byproducts that have no
    velocity interpretation).
    """
    w = _composite(ctx, g_field)
    return Field.from_vector(w.vector(), w.grid)


def solve_linear(prob: NavierStokesProblem):
    """Pressure from the scalar system, velocity from the representation.

    Returns (velocity field, scalar pressure field, report).
    """
    ctx = prob.ctx
    grid = ctx.domain.grid
    p_flat = _pressure_solve(ctx, prob.forcing)
    p = Field.from_scalar(_zero_mean(p_flat).reshape(grid.shape), grid)
    u = _velocity_from(ctx, prob.forcing - discrete_grad(p))
    return u, p, SolverReport(residual_history=[discrete_norm(u, "W11")])


def fixed_point_solve(prob: NavierStokesProblem, u0: Field | None = None,
                      max_iter: int = 50, tol: float = 1e-8,
                      constants: tuple[float, float] | None = None,
                      seed: int = 0):
    """Alternating pressure/velocity updates with the convective forcing.

    Each sweep solves the scalar pressure system for the effective forcing
    ``f - (u grad) u`` of the previous iterate and re-evaluates the velocity
    representation.  Stops when the first-order Sobolev increment falls
    below ``tol``; three consecutive increment growths raise
    ``SolverDivergence`` (the partial report rides on the exception).
    """
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

    if constants is None:
        c1, c2 = estimate_constants(ctx, seed=seed)
    else:
        c1, c2 = constants

    history: list[float] = []
    p = Field.zeros(grid)
    converged = False
    growths = 0
    for _ in range(max_iter):
        rhs = prob.forcing - convective_term(u)
        p_flat = _pressure_solve(ctx, rhs)
        p = Field.from_scalar(p_flat.reshape(grid.shape), grid)
        u_next = _velocity_from(ctx, rhs - discrete_grad(p))
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
            report = _diagnosed_report(history, c1, c2, prob.forcing, u0,
                                       False, warnings)
            raise SolverDivergence(
                "fixed-point residual grew three consecutive iterations",
                report)

    if not converged:
        warnings.append("iteration cap reached before the tolerance")
    report = _diagnosed_report(history, c1, c2, prob.forcing, u0,
                               converged, warnings)
    return u, p, report


def _diagnosed_report(history, c1, c2, forcing, u0, converged,
                      warnings) -> SolverReport:
    f_norm = discrete_norm(forcing, "L2")
    u0_norm = 0.0 if u0 is None else discrete_norm(u0, "W11")
    admissible, w_const, l_const = convergence_check(c1, c2, f_norm, u0_norm)
    if not converged:
        admissible = False
    return SolverReport(
        residual_history=list(history),
        C1=c1, C2=c2, W=w_const, L=l_const,
        admissible=admissible,
        converged=converged,
        warnings=list(warnings),
    )


# ---------------------------------------------------------------------------
# Contraction constants
# ---------------------------------------------------------------------------

def _sobolev_gram(u: Field) -> Field:
    """Gram operator of the first-order Sobolev inner product."""
    g = u.grid
    out = u.values.copy()
    for axis, d in enumerate(_forward_gap_diffs(u)):
        spacing = g.spacing(axis)
        if axis < 3 and g.periodic[axis]:
            out += (np.roll(d, 1, axis) - d) / spacing
        else:
            pad = [(0, 0)] * u.values.ndim
            pad[axis] = (1, 0)
            lo = np.pad(d, pad)
            pad[axis] = (0, 1)
            hi = np.pad(d, pad)
            out += (lo - hi) / spacing
    return Field(out * g.cell_volume, g)


def _composite(ctx: OperatorContext, v: Field) -> Field:
    w = _complement_volume(v.values[None], ctx)[0]
    return teodorescu(Field(w, v.grid), ctx)


def _composite_transpose(ctx: OperatorContext, w: Field) -> Field:
    inner = teodorescu_adjoint(w, ctx)
    inner = inner - bergman_projection_adjoint(inner, ctx)
    return teodorescu_adjoint(inner, ctx)


def estimate_constants(ctx: OperatorContext, seed: int = 0,
                       power_iterations: int = 20,
                       samples: int = 200) -> tuple[float, float]:
    """Operator norm of the velocity composite, and the convective constant.

    The first constant is the largest singular value of the composite
    volume-complement-volume map between the discrete L2 and first-order
    Sobolev norms, found by power iteration on the normal operator (20
    iterations or 1e-6 relative stagnation).  The second maximizes the
    convective quotient over seeded random smooth bump fields and is an
    empirical lower bound for the true constant.
    """
    grid = ctx.domain.grid
    rng = np.random.default_rng(seed)
    vol = grid.cell_volume

    v = Field(rng.standard_normal(grid.shape + (7,)), grid)
    lam = 0.0
    for _ in range(power_iterations):
        av = _composite(ctx, v)
        gav = _sobolev_gram(av)
        z = _composite_transpose(ctx, gav)
        lam_new = float(np.sum(av.values * gav.values)
                        / (vol * np.sum(v.values * v.values)))
        v = Field(z.values / (vol * np.linalg.norm(z.values)), grid)
        if lam > 0 and abs(lam_new - lam) <= 1e-6 * lam:
            lam = lam_new
            break
        lam = lam_new
    if not np.isfinite(lam) or lam < 0:
        raise RuntimeError("power iteration for the composite norm stalled")
    c1 = float(np.sqrt(lam))

    c2 = 0.0
    xs, ts = grid.node_positions()
    ext = grid.extent
    for _ in range(samples):
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
    return c1, c2


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
    if f_norm < 0 or u0_norm < 0:
        raise ValueError("norms must be nonnegative")
    if f_norm > _forcing_bound(c1, c2):
        return False, None, None
    w = float(np.sqrt(max(1.0 / (16.0 * c1 * c1 * c2 * c2)
                          - f_norm / c2, 0.0)))
    l_const = 1.0 - 4.0 * c1 * c2 * w
    radius = min(1.0 / (2.0 * c1 * c2), 1.0 / (4.0 * c1 * c2) + w)
    admissible = (u0_norm <= radius) and (l_const < 1.0)
    return admissible, w, l_const
