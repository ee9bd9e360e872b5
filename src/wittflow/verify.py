"""Independent oracle suite: operator-convention calibration, brute-force
lattice comparisons, and convergence-order studies.

Everything here is deterministic given a seed, runnable standalone before
the main solver, and kept deliberately independent of the code paths it
checks (closed forms are re-transcribed, lattice sums re-enumerated, orders
measured rather than assumed).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import kernels
from .domain import (Field, SpaceTimeGrid, build_quotient_domain,
                     discrete_div, discrete_grad, discrete_norm)
from .kernels import (ConventionRecord, KernelParams,
                      apply_parabolic_dirac, fundamental_solution_array)
from .lattice import (LatticeSpec, brute_force_periodized,
                      periodized_solution_batch)
from .potentials import (OperatorContext, bergman_projection,
                         boundary_trace, cauchy_transform, teodorescu)
from .solver import (NavierStokesProblem, SolverReport, _forcing_bound,
                     estimate_constants, fixed_point_solve, solve_linear)
from .witt_algebra import basis_element, mul, mul_arrays

__all__ = [
    "StudyResult",
    "CheckTable",
    "FixedPointRun",
    "SPIN_STRUCTURES",
    "algebra_relations_hold",
    "calibrate_convention",
    "ensure_convention",
    "borel_pompeiu_study",
    "volume_reproduction_study",
    "hodge_study",
    "lattice_bruteforce_check",
    "quasi_periodicity_check",
    "linear_solver_study",
    "factorization_probe",
    "factorization_study",
    "factorization_check",
    "gaussian_mass_check",
    "fixed_point_preset",
    "fixed_point_run",
    "scalar_bump_field",
    "vector_bump_field",
    "divergence_free_field",
    "random_smooth_field",
    "manufactured_problem",
    "fit_order",
]


@dataclass
class StudyResult:
    """Per-level residuals with a fitted convergence order and verdict."""

    name: str
    levels: list[tuple[float, float, float]]   # (h, dt, residual)
    fitted_order: float
    passed: bool
    threshold_order: float
    extras: dict = dataclass_field(default_factory=dict)

    def verdict_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name}: fitted order "
                f"{self.fitted_order:.3f} (threshold "
                f"{self.threshold_order:.2f})")

    def csv_rows(self) -> list[str]:
        return ["h,dt,residual"] + [f"{h:.17g},{dt:.17g},{r:.17g}"
                                    for h, dt, r in self.levels]


@dataclass
class CheckTable:
    """Row-wise pass/fail table for point comparisons; each row ends in its
    verdict, ``pass`` or ``fail``."""

    name: str
    header: list[str]
    rows: list[list]

    @property
    def passed(self) -> bool:
        return all(row[-1] == "pass" for row in self.rows)

    def csv_rows(self) -> list[str]:
        return [",".join(self.header)] + [",".join(
            format(v, ".17g") if isinstance(v, float) else str(v)
            for v in row) for row in self.rows]


def fit_order(hs, residuals) -> float:
    """Least-squares slope of log residual against log spacing."""
    hs = np.asarray(hs, dtype=float)
    rs = np.maximum(np.asarray(residuals, dtype=float), 1e-300)
    if len(hs) < 3:
        raise ValueError("order fit needs at least 3 levels")
    return float(np.polyfit(np.log(hs), np.log(rs), 1)[0])


def algebra_relations_hold() -> bool:
    """The defining relations: ``f`` and ``fd`` square to zero, their
    anticommutator is 1, and each ``ej`` annihilates ``f``, ``fd`` and
    ``ffd`` from both sides, all exactly."""
    f, fd = basis_element(4), basis_element(5)
    eye = np.eye(7)
    return bool(
        np.all(mul(f, f).coeffs == 0.0)
        and np.all(mul(fd, fd).coeffs == 0.0)
        and np.array_equal((mul(f, fd) + mul(fd, f)).coeffs, eye[0])
        and all(np.all(mul_arrays(eye[1 + j], eye[w]) == 0.0)
                and np.all(mul_arrays(eye[w], eye[1 + j]) == 0.0)
                for j in range(3) for w in (4, 5, 6)))


# ---------------------------------------------------------------------------
# Convention calibration
# ---------------------------------------------------------------------------

_CALIBRATION_POINTS = (
    ((0.45, -0.30, 0.20), 0.35),
    ((-0.25, 0.50, -0.40), 0.60),
    ((0.30, 0.30, 0.30), 0.25),
    ((0.70, -0.10, 0.20), 0.50),
    ((-0.50, -0.45, 0.35), 0.40),
)
_CALIBRATION_STENCILS = (0.02, 0.01, 0.005, 0.0025)
_CALIBRATION_K = 2.0


def _stencil_residuals(h, k, candidates) -> list[list[float]]:
    """Operator residuals on kernel samples at the calibration points, for
    stencils of spacing ``h``: one row per candidate (sign, power), one
    entry per point of ``_CALIBRATION_POINTS``.

    Point ``p``'s 3^4 stencil around ``(x0, t0)`` is x-nodes ``3p..3p+2`` of
    one probe of 15 x 3 x 3 nodes and 3 slabs, and its residual is the norm
    of the operator's value at the stencil center ``[3p+1, 1, 1, 1]``.  A
    center reads only its own stencil's nodes, and an interior central
    difference is the same formula on a long axis as on 3 nodes, so every
    residual is bitwise the one a 3^4 grid of its own gives.  The kernel is
    sampled once and every candidate applies the operator once.
    """
    n = len(_CALIBRATION_POINTS)
    grid = SpaceTimeGrid(h=h, dt=h, dims=(3 * n, 3, 3), nt=3)
    offs = (np.arange(3) - 1.0) * h
    pts = np.concatenate([
        np.stack(np.meshgrid(x0[0] + offs, x0[1] + offs, x0[2] + offs,
                             indexing="ij"), axis=-1)
        for x0, _ in _CALIBRATION_POINTS])
    ts = np.repeat([t0 + offs for _, t0 in _CALIBRATION_POINTS], 3, axis=0)
    probe = Field(fundamental_solution_array(
        pts[..., None, :], ts[:, None, None, :], k), grid)
    rows = []
    for sign, power in candidates:
        image = apply_parabolic_dirac(probe, grid, KernelParams(k), sign,
                                      power).values
        rows.append([float(np.linalg.norm(image[3 * p + 1, 1, 1, 1]))
                     for p in range(n)])
    return rows


def _factorization_power(sign: int, power: int) -> int:
    """Exponent p with D^2 = -Laplace + sign * k^p * d_t on scalar probes."""
    k = _CALIBRATION_K
    grid = SpaceTimeGrid(h=0.1, dt=0.05, dims=(7, 7, 7), nt=7)
    xs, ts = grid.node_positions()
    vals = np.zeros(grid.shape + (7,))
    vals[..., 0] = (np.exp(-np.sum((xs - 0.35) ** 2, axis=-1) * 8.0)[..., None]
                    * (1.0 + 0.5 * np.sin(4.0 * ts)))
    probe = Field(vals, grid)
    twice = apply_parabolic_dirac(
        apply_parabolic_dirac(probe, grid, KernelParams(k), sign, power),
        grid, KernelParams(k), sign, power)
    lap = np.zeros_like(vals)
    for axis in range(3):
        lap += (np.roll(vals, -2, axis) - 2.0 * vals
                + np.roll(vals, 2, axis)) / (2.0 * grid.h) ** 2
    dt_u = (np.roll(vals, -1, 3) - np.roll(vals, 1, 3)) / (2.0 * grid.dt)
    core = (slice(2, -2),) * 4
    num = np.sum((twice.values + lap)[core] * dt_u[core])
    den = np.sum(dt_u[core] * dt_u[core])
    coeff = num / den * sign
    for candidate in (1, 2):
        if abs(coeff - k ** candidate) <= 1e-6 * k ** candidate:
            return candidate
    raise RuntimeError(
        f"factorization coefficient {coeff} matches no integer power of k")


def calibrate_convention() -> ConventionRecord:
    """Select the unique operator convention that annihilates the kernel.

    Applies every candidate (sign, zero-order exponent) pair to kernel
    samples on shrinking stencils at fixed off-origin points; the winner
    must show residual decay of order >= 1.5 while every loser stays below
    order 0.5.  The factorization coefficient is measured on a scalar probe.
    Ambiguity is a hard failure carrying the full diagnostic table.

    Each stencil level samples the kernel once and applies each candidate
    once (``_stencil_residuals``), 16 operator applications in all; the
    record is bitwise the one that 80 separate 3^4 stencils give.
    """
    candidates = [(1, 1), (1, 2), (-1, 1), (-1, 2)]
    # (level, candidate, point)
    levels = [_stencil_residuals(h, _CALIBRATION_K, candidates)
              for h in _CALIBRATION_STENCILS]
    orders: dict = {}
    residuals: dict = {}
    for i, candidate in enumerate(candidates):
        res_levels = [[level[i][p] for level in levels]
                      for p in range(len(_CALIBRATION_POINTS))]
        per_point = [fit_order(_CALIBRATION_STENCILS, res)
                     for res in res_levels]
        orders[candidate] = float(np.mean(per_point))
        residuals[candidate] = np.mean(res_levels, axis=0).tolist()
    winners = [c for c, o in orders.items() if o >= 1.5]
    losers_ok = all(o < 0.5 for c, o in orders.items() if c not in winners)
    if len(winners) != 1 or not losers_ok:
        table = "\n".join(f"  sign={c[0]:+d} power={c[1]}: order {o:.3f}"
                          for c, o in sorted(orders.items()))
        raise RuntimeError(
            "operator convention calibration is ambiguous:\n" + table)
    sign, power = winners[0]
    record = ConventionRecord(
        fd_power=power,
        sign=sign,
        factorization_power=_factorization_power(sign, power),
        orders={f"{c[0]:+d},{c[1]}": o for c, o in orders.items()},
        residuals={f"{c[0]:+d},{c[1]}": r for c, r in residuals.items()},
    )
    kernels.set_convention(record)
    return record


def ensure_convention() -> ConventionRecord:
    """Run the calibration once per process; reuse the cached record."""
    if kernels.convention_is_set():
        return kernels.active_convention()
    return calibrate_convention()


# ---------------------------------------------------------------------------
# Smooth presets
# ---------------------------------------------------------------------------

def _window(x: np.ndarray, extent: float) -> np.ndarray:
    return np.sin(np.pi * x / extent) ** 2


def _space_window(grid) -> np.ndarray:
    xs, _ = grid.node_positions()
    out = np.ones(grid.dims)
    for d in range(3):
        if grid.periodic[d]:
            out = out * (0.6 + 0.4 * np.sin(2.0 * np.pi * xs[..., d]))
        else:
            out = out * _window(xs[..., d], grid.extent[d])
    return out


def _time_window(grid) -> np.ndarray:
    _, ts = grid.node_positions()
    return np.sin(np.pi * (ts - grid.t0) / grid.horizon) ** 2


def scalar_bump_field(grid) -> Field:
    """Smooth scalar-component bump vanishing on the parabolic boundary."""
    vals = np.zeros(grid.shape + (7,))
    vals[..., 0] = _space_window(grid)[..., None] * _time_window(grid)
    return Field(vals, grid)


def vector_bump_field(grid, coeffs=(1.0, -0.7, 0.4)) -> Field:
    vals = np.zeros(grid.shape + (7,))
    w = _space_window(grid)[..., None] * _time_window(grid)
    for i, c in enumerate(coeffs):
        vals[..., 1 + i] = c * w
    return Field(vals, grid)


def divergence_free_field(grid) -> Field:
    """Curl of a bump potential: analytically divergence free."""
    xs, _ = grid.node_positions()
    tw = _time_window(grid)
    p = [np.sin(np.pi * xs[..., d] / grid.extent[d]) ** 2 for d in range(3)]
    dp = [2.0 * np.pi / grid.extent[d]
          * np.sin(np.pi * xs[..., d] / grid.extent[d])
          * np.cos(np.pi * xs[..., d] / grid.extent[d]) for d in range(3)]
    vals = np.zeros(grid.shape + (7,))
    vals[..., 1] = (p[0] * dp[1] * p[2])[..., None] * tw
    vals[..., 2] = (-dp[0] * p[1] * p[2])[..., None] * tw
    return Field(vals, grid)


def random_smooth_field(grid, rng, n_modes: int = 3) -> Field:
    """Superposition of random smooth bumps in every algebra component."""
    xs, ts = grid.node_positions()
    vals = np.zeros(grid.shape + (7,))
    ext = np.asarray(grid.extent)
    for _ in range(n_modes):
        center = rng.uniform(0.2, 0.8, size=3) * ext
        width = rng.uniform(0.15, 0.4) * float(np.min(ext))
        r2 = np.sum((xs - center) ** 2, axis=-1) / width ** 2
        bump = np.exp(-np.where(r2 < 40.0, r2, 40.0))
        phase = rng.uniform(0.0, 1.0)
        tmod = 0.5 + 0.5 * np.sin(2.0 * np.pi * (ts / grid.horizon + phase))
        coeffs = rng.standard_normal(7)
        vals += coeffs * (bump[..., None] * tmod)[..., None]
    return Field(vals, grid)


def manufactured_problem(ctx: OperatorContext):
    """Divergence-free reference velocity, reference pressure, and forcing.

    The forcing is manufactured with the same discrete operators the solver
    factorizes through: the e-vector part of the twice-applied first-order
    operator plus the discrete pressure gradient.
    """
    grid = ctx.domain.grid
    u_ref = divergence_free_field(grid)
    p_vals = _space_window(grid)[..., None] * _time_window(grid)
    p_vals = p_vals - p_vals.mean()
    p_ref = Field.from_scalar(p_vals, grid)
    twice = apply_parabolic_dirac(
        apply_parabolic_dirac(u_ref, grid, ctx.params), grid, ctx.params)
    f_vals = np.zeros(grid.shape + (7,))
    f_vals[..., 1:4] = twice.values[..., 1:4]
    forcing = Field(f_vals, grid) + discrete_grad(p_ref)
    return u_ref, p_ref, forcing


# ---------------------------------------------------------------------------
# Operator studies
# ---------------------------------------------------------------------------

_REPRODUCER = np.array([1.0, 0, 0, 0, 0, 0, -1.0])   # fd * f


def _bp_level(ctx: OperatorContext, u: Field):
    du = apply_parabolic_dirac(u, ctx.domain.grid, ctx.params)
    lhs = teodorescu(du, ctx) + cauchy_transform(boundary_trace(u, ctx), ctx)
    nrm = discrete_norm(u, "L2")
    scale = nrm if nrm > 0 else 1.0   # zero fields report absolute residuals
    res_identity = discrete_norm(lhs - u, "L2") / scale
    target = Field(mul_arrays(_REPRODUCER, u.values), u.grid)
    res_reproducer = discrete_norm(lhs - target, "L2") / scale
    return res_identity, res_reproducer


# The flat 3-torus: the default quotient of the studies and checks below.
_FLAT_TORUS = LatticeSpec(3, (False, False, False))


def _study_domains(levels, horizon, lattice: LatticeSpec):
    domains = []
    for n, nt in levels:
        h = 1.0 / n
        dt = horizon / nt
        domains.append(build_quotient_domain(
            lattice, [1.0] * (3 - lattice.rank), horizon, h, dt))
    return domains


def borel_pompeiu_study(levels=((4, 8), (6, 18), (8, 32)), horizon=0.5,
                        k=1.0, lattice: LatticeSpec = LatticeSpec(),
                        preset=scalar_bump_field) -> StudyResult:
    """Residual of the volume/boundary reconstruction against the field.

    Uses a parabolic refinement path (time step shrinking quadratically
    with the mesh width) so the near-slab quadrature error refines together
    with the spatial error.  The companion residual against the algebra's
    reproducing idempotent acting on the field is reported in extras.
    """
    ensure_convention()
    rows = []
    companion = []
    for dom in _study_domains(levels, horizon, lattice):
        ctx = OperatorContext(dom, KernelParams(k))
        u = preset(dom.grid)
        res_id, res_rep = _bp_level(ctx, u)
        rows.append((dom.grid.h, dom.grid.dt, res_id))
        companion.append((dom.grid.h, dom.grid.dt, res_rep))
    hs = [r[0] for r in rows]
    order = fit_order(hs, [r[2] for r in rows])
    rep_order = fit_order(hs, [r[2] for r in companion])
    name = "borel_pompeiu" + ("" if lattice.rank == 0
                              else f"_rank{lattice.rank}")
    return StudyResult(
        name=name, levels=rows, fitted_order=order,
        passed=order >= 1.0, threshold_order=1.0,
        extras={"reproducer_levels": companion,
                "reproducer_order": rep_order})


def volume_reproduction_study(base: StudyResult) -> StudyResult:
    """Reconstruction residual against the reproducing idempotent.

    This is the identity the degenerate seven-dimensional closure actually
    satisfies: the reconstruction converges to ``(fd f) u`` rather than
    ``u`` (the two agree on fields annihilated by left multiplication with
    ``ffd``).  Reads the companion residuals that ``borel_pompeiu_study``
    records in the extras of ``base``.
    """
    rows = base.extras["reproducer_levels"]
    order = base.extras["reproducer_order"]
    name = base.name.replace("borel_pompeiu", "volume_reproduction")
    return StudyResult(name=name, levels=rows, fitted_order=order,
                       passed=order >= 1.0, threshold_order=1.0,
                       extras={"identity_levels": base.levels,
                               "identity_order": base.fitted_order})


def hodge_study(levels=((4, 10), (5, 14), (6, 18)), horizon=0.5, k=1.0,
                n_fields: int = 10, seed: int = 7,
                lattice: LatticeSpec = _FLAT_TORUS) -> StudyResult:
    """Orthogonality defect of the projection pair across refinements.

    Runs on the rank-3 quotient by default, where the boundary system is
    full rank.  Pass requires the mean defect over the seeded fields to
    decrease monotonically across levels.  Degenerate samples (either
    projection numerically zero) are skipped and counted in extras.
    """
    ensure_convention()
    rows = []
    skipped = 0
    idempotency = []
    for dom in _study_domains(levels, horizon, lattice):
        ctx = OperatorContext(dom, KernelParams(k))
        rng = np.random.default_rng(seed)
        defects = []
        worst_idem = 0.0
        for _ in range(n_fields):
            u = random_smooth_field(dom.grid, rng)
            pu = bergman_projection(u, ctx)
            qu = u - pu
            np_, nq = discrete_norm(pu, "L2"), discrete_norm(qu, "L2")
            if np_ < 1e-12 or nq < 1e-12:
                skipped += 1
                continue
            inner = float(np.sum(pu.values * qu.values)
                          * dom.grid.cell_volume)
            defects.append(abs(inner) / (np_ * nq))
            ppu = bergman_projection(pu, ctx)
            worst_idem = max(worst_idem,
                             discrete_norm(ppu - pu, "L2") / max(np_, 1e-300))
        rows.append((dom.grid.h, dom.grid.dt, float(np.mean(defects))))
        idempotency.append(worst_idem)
    defect_values = [r[2] for r in rows]
    monotone = all(b < a for a, b in zip(defect_values, defect_values[1:]))
    order = fit_order([r[0] for r in rows], defect_values)
    return StudyResult(
        name="hodge_orthogonality", levels=rows, fitted_order=order,
        passed=monotone, threshold_order=0.0,
        extras={"skipped": skipped, "idempotency": idempotency})


def linear_solver_study(levels=((3, 6), (4, 10), (5, 14)), horizon=0.5,
                        k=1.0, lattice: LatticeSpec = _FLAT_TORUS) \
        -> StudyResult:
    """Manufactured-solution recovery error of the linear solve.

    Runs on the rank-3 quotient by default.  Levels record the relative L2
    velocity error; extras carry the pressure errors, the recovered
    divergence residuals, and the matching discretization bounds measured
    on the reference solution.
    """
    ensure_convention()
    rows = []
    p_errors = []
    div_pairs = []
    for dom in _study_domains(levels, horizon, lattice):
        ctx = OperatorContext(dom, KernelParams(k))
        u_ref, p_ref, forcing = manufactured_problem(ctx)
        u, p, _ = solve_linear(NavierStokesProblem(ctx, forcing))
        nrm = discrete_norm(u_ref, "L2")
        rows.append((dom.grid.h, dom.grid.dt,
                     discrete_norm(u - u_ref, "L2") / nrm))
        p_errors.append(discrete_norm(p - p_ref, "L2")
                        / max(discrete_norm(p_ref, "L2"), 1e-300))
        div_rec = discrete_norm(discrete_div(u), "L2") / max(
            discrete_norm(u, "L2"), 1e-300)
        div_ref = discrete_norm(discrete_div(u_ref), "L2") / nrm
        recovery = discrete_norm(u - u_ref, "W11") / nrm
        div_pairs.append((div_rec, div_ref + recovery))
    order = fit_order([r[0] for r in rows], [r[2] for r in rows])
    div_ok = all(rec <= bound for rec, bound in div_pairs)
    return StudyResult(
        name="linear_manufactured", levels=rows, fitted_order=order,
        passed=(order >= 1.0) and div_ok, threshold_order=1.0,
        extras={"pressure_errors": p_errors, "divergence_pairs": div_pairs})


# ---------------------------------------------------------------------------
# Lattice checks
# ---------------------------------------------------------------------------

# The 3-torus spin structures of the lattice checks, up to axis order.
SPIN_STRUCTURES = tuple(LatticeSpec(3, flags) for flags in (
    (False, False, False), (True, False, False), (True, True, False),
    (True, True, True)))


def _random_points(rng, n: int) -> np.ndarray:
    return rng.uniform(-0.5, 0.5, size=(n, 3))


def lattice_bruteforce_check(points=None, spec: LatticeSpec = _FLAT_TORUS,
                             params: KernelParams = KernelParams(1.0),
                             t: float = 0.5, tol: float = 1e-10,
                             brute_radius: int = 12,
                             seed: int = 3) -> CheckTable:
    """Shell-summed kernel against exhaustive enumeration, point by point.

    A row passes when the difference is within the sum of the reported
    shell tail and the enumeration's own tail bound.
    """
    if points is None:
        points = _random_points(np.random.default_rng(seed), 20)
    points = np.atleast_2d(points)
    brute, brute_tail = brute_force_periodized(points, t, params, spec,
                                               brute_radius)
    rows = []
    for i, x in enumerate(points):
        value, tail, shells = periodized_solution_batch(
            x[None, :], t, params, spec, tol)
        diff = float(np.linalg.norm(value[0] - brute[i]))
        allowed = tail + brute_tail
        rows.append([float(x[0]), float(x[1]), float(x[2]), diff,
                     float(allowed), int(shells),
                     "pass" if diff <= allowed else "fail"])
    return CheckTable(name=f"lattice_bruteforce_rank{spec.rank}",
                      header=["x1", "x2", "x3", "difference", "allowance",
                              "shells", "verdict"],
                      rows=rows)


def factorization_probe(h: float, nt: int = 32):
    """Gaussian-times-polynomial scalar probe, resolved from h = 1/8 up."""
    n = int(round(1.0 / h))
    grid = SpaceTimeGrid(h=h, dt=1.0 / nt, dims=(n, n, n), nt=nt)
    xs, ts = grid.node_positions()
    r2 = np.sum((xs - 0.5) ** 2, axis=-1)
    bump = np.exp(-4.0 * r2) * (1.0 + 2.0 * (xs[..., 0] - 0.5)
                                + (xs[..., 1] - 0.5) ** 2)
    vals = np.zeros(grid.shape + (7,))
    vals[..., 0] = bump[..., None] * (1.0 + 0.5 * np.sin(2.0 * np.pi * ts))
    return Field(vals, grid), grid


def factorization_study(hs=(1.0 / 8, 1.0 / 16, 1.0 / 32), k: float = 1.0,
                        sign: int | None = None) -> StudyResult:
    """Second-order decay of the factorization defect on a Gaussian preset.

    The defect compares the twice-applied first-order operator with the
    narrow-stencil heat operator on a smooth scalar probe; the time terms
    cancel algebraically, so the defect is pure spatial discretization
    error.  ``sign`` defaults to the calibrated convention's.
    """
    from .kernels import factorization_residual
    ensure_convention()
    rows = []
    for h in hs:
        probe, grid = factorization_probe(h)
        res = factorization_residual(probe, grid, KernelParams(k), sign)
        rows.append((h, grid.dt, res))
    order = fit_order([r[0] for r in rows], [r[2] for r in rows])
    return StudyResult(name="factorization_defect", levels=rows,
                       fitted_order=order, passed=order >= 1.8,
                       threshold_order=1.8)


def factorization_check(hs=(1.0 / 8, 1.0 / 16, 1.0 / 32),
                        k: float = 1.0) -> CheckTable:
    """Criterion 3: ``factorization_study`` reaches its order for both
    signs of the operator, one row per sign and level, each with its sign's
    fitted order and verdict."""
    rows = []
    for sign in (1, -1):
        study = factorization_study(hs, k, sign)
        verdict = "pass" if study.passed else "fail"
        rows += [[sign, h, dt, res, study.fitted_order, verdict]
                 for h, dt, res in study.levels]
    return CheckTable(name="factorization_defect",
                      header=["sign", "h", "dt", "residual", "fitted_order",
                              "verdict"],
                      rows=rows)


def gaussian_mass_check(k_values=(0.5, 1.0, 2.0), t: float = 0.25,
                        rel_tol: float = 1e-6) -> CheckTable:
    """Radial quadrature of the scalar kernel prefactor against 1/k.

    Integrates sqrt(k) exp(-k r^2/4t) / (2 sqrt(pi t))^3 over the ball of
    radius 8 sqrt(t/k); the closed Gaussian integral over all space equals
    exactly 1/k and the truncated ball captures it to well below the
    tolerance.
    """
    from scipy.integrate import quad
    rows = []
    for k in k_values:
        radius = 8.0 * np.sqrt(t / k)
        pref = np.sqrt(k) / (2.0 * np.sqrt(np.pi * t)) ** 3
        mass, _ = quad(lambda r: 4.0 * np.pi * r * r * pref
                       * np.exp(-k * r * r / (4.0 * t)), 0.0, radius,
                       limit=200)
        rel = abs(mass - 1.0 / k) * k
        rows.append([float(k), float(mass), float(rel),
                     "pass" if rel <= rel_tol else "fail"])
    return CheckTable(name="gaussian_mass",
                      header=["k", "ball_mass", "relative_error", "verdict"],
                      rows=rows)


def fixed_point_preset(n: int = 4, nt: int = 8, horizon: float = 0.5,
                       k: float = 1.0, load_factor: float = 0.5,
                       seed: int = 0):
    """Admissible nonlinear preset on the rank-3 quotient.

    Returns (context, forcing, constants): the body force is a vector bump
    scaled to ``load_factor`` times the closed-form smallness bound for the
    measured constants.
    """
    ensure_convention()
    domain = build_quotient_domain(_FLAT_TORUS, [], horizon, 1.0 / n,
                                   horizon / nt)
    ctx = OperatorContext(domain, KernelParams(k))
    c1, c2 = estimate_constants(ctx, seed=seed)
    base = vector_bump_field(domain.grid)
    scale = (load_factor * _forcing_bound(c1, c2)
             / discrete_norm(base, "L2"))
    return ctx, base * scale, (c1, c2)


@dataclass
class FixedPointRun:
    """The fixed-point iteration on ``fixed_point_preset``'s problem."""

    forcing: Field
    constants: tuple[float, float]
    report: SolverReport
    decreasing: bool        # every residual below the one before
    ratios: list[float]     # each residual over the one before, from the 3rd
    ratios_bounded: bool    # every ratio at most L + 0.1
    passed: bool            # converged, admissible, decreasing and bounded


def fixed_point_run() -> FixedPointRun:
    """Iterate to 1e-12 in at most 30 sweeps, with the measured constants.

    Criterion 9: the run must converge with an admissible verdict, every
    residual must fall, and each ratio of consecutive residuals after the
    first step from rest must be at most the contraction factor L + 0.1.
    """
    ctx, forcing, constants = fixed_point_preset()
    _, _, report = fixed_point_solve(NavierStokesProblem(ctx, forcing),
                                     max_iter=30, tol=1e-12,
                                     constants=constants)
    hist = report.residual_history
    decreasing = all(b < a for a, b in zip(hist, hist[1:]))
    ratios = [b / a for a, b in zip(hist[1:], hist[2:])]
    bounded = report.L is not None and all(r <= report.L + 0.1
                                           for r in ratios)
    return FixedPointRun(forcing, constants, report, decreasing, ratios,
                         bounded, bool(report.admissible) and
                         report.converged and decreasing and bounded)


def quasi_periodicity_check(spec: LatticeSpec, params: KernelParams,
                            t: float = 0.5, tol: float = 1e-10,
                            n_points: int = 8, seed: int = 5) -> CheckTable:
    """Unit-translation sign law of the periodized kernel per generator."""
    rng = np.random.default_rng(seed)
    points = _random_points(rng, n_points)
    rows = []
    for x in points:
        base, tail0, _ = periodized_solution_batch(x[None, :], t, params,
                                                   spec, tol)
        for j in range(spec.rank):
            shifted = x.copy()
            shifted[j] += 1.0
            moved, tail1, _ = periodized_solution_batch(
                shifted[None, :], t, params, spec, tol)
            sign = -1.0 if spec.anti_flags[j] else 1.0
            diff = float(np.linalg.norm(moved[0] - sign * base[0]))
            allowed = 2.0 * (tail0 + tail1)
            rows.append([float(x[0]), float(x[1]), float(x[2]), j, diff,
                         float(allowed),
                         "pass" if diff <= allowed else "fail"])
    return CheckTable(name=f"quasi_periodicity_{spec.tag}",
                      header=["x1", "x2", "x3", "generator", "difference",
                              "allowance", "verdict"],
                      rows=rows)
