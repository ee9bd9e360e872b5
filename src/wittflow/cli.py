"""Command-line entry point: configuration ingestion, run orchestration and
artifact export.

Subcommands: ``check`` (oracle suites), ``kernel`` (point evaluation),
``solve`` (linear or fixed-point run), ``constants`` (contraction
diagnostics).  Config files are line-oriented ``section.key = value`` text;
all numerical artifacts are plain CSV or key-value text.  Exit codes:
0 success, 2 usage or configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path


class ConfigError(ValueError):
    pass


_REQUIRED = ("domain.kind", "grid.h", "grid.dt", "time.horizon", "kernel.k")

# Every key load_config reads; any other key is a configuration error.
_KEYS = _REQUIRED + (
    "domain.extent", "lattice.rank", "lattice.anti_flags", "forcing.preset",
    "forcing.csv", "forcing.scale", "solver.mode", "solver.max_iter",
    "solver.tol", "quad.tol", "output.dir")

_PRESETS = ("zero", "vector_bump", "divergence_free", "manufactured")


@dataclass
class RunConfig:
    """Validated run configuration; every physical parameter is explicit."""

    kind: str
    extent: tuple[float, float, float]
    rank: int
    anti_flags: tuple[bool, ...]
    h: float
    dt: float
    horizon: float
    k: float
    forcing_preset: str
    forcing_csv: str | None
    forcing_scale: float
    mode: str
    max_iter: int
    tol: float
    quad_tol: float
    output_dir: str


def _parse_lines(path: str) -> dict[str, tuple[str, int]]:
    entries: dict[str, tuple[str, int]] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'section.key = "
                              f"value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or "." not in key:
            raise ConfigError(f"{path}:{lineno}: keys are dotted "
                              f"'section.key', got {key!r}")
        entries[key] = (value, lineno)
    return entries


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _parse_flags(text: str, rank: int) -> tuple[bool, ...]:
    """Antiperiodicity flags: none (all periodic) or one per generator."""
    parts = text.split(",") if text.strip() else []
    if len(parts) not in (0, rank):
        raise ValueError(f"need 0 or {rank} antiperiodicity flags, got "
                         f"{len(parts)}")
    return tuple(_parse_bool(p) for p in parts) or (False,) * rank


def _get(entries, key, path, cast=str, default=None):
    if key not in entries:
        return default
    value, lineno = entries[key]
    try:
        return cast(value)
    except ValueError as exc:
        raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") \
            from exc


def load_config(path: str) -> RunConfig:
    entries = _parse_lines(path)
    for key, (_, lineno) in entries.items():
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    for key in _REQUIRED:
        if key not in entries:
            raise ConfigError(f"{path}: missing mandatory key {key!r}")

    kind = _get(entries, "domain.kind", path)
    if kind not in ("box", "cylinder", "torus"):
        lineno = entries["domain.kind"][1]
        raise ConfigError(f"{path}:{lineno}: domain.kind must be box, "
                          f"cylinder or torus, got {kind!r}")
    default_rank = {"box": 0, "torus": 3}.get(kind)
    rank = _get(entries, "lattice.rank", path, int, default=default_rank)
    if rank is None:
        raise ConfigError(f"{path}: lattice.rank is mandatory for cylinders")
    valid = {"box": (0,), "cylinder": (1, 2), "torus": (3,)}[kind]
    if rank not in valid:
        raise ConfigError(f"{path}: domain.kind={kind} requires "
                          f"lattice.rank in {valid}, got {rank}")

    anti_flags = _get(entries, "lattice.anti_flags", path,
                      lambda text: _parse_flags(text, rank),
                      default=(False,) * rank)

    extent_raw = _get(entries, "domain.extent", path, default=None)
    if extent_raw is None:
        if kind != "torus":
            raise ConfigError(f"{path}: domain.extent is mandatory for "
                              f"{kind} domains")
        extent = (1.0, 1.0, 1.0)
    else:
        try:
            parts = [float(p) for p in extent_raw.split(",")]
        except ValueError as exc:
            lineno = entries["domain.extent"][1]
            raise ConfigError(f"{path}:{lineno}: domain.extent must be "
                              "comma-separated reals") from exc
        if len(parts) != 3:
            lineno = entries["domain.extent"][1]
            raise ConfigError(f"{path}:{lineno}: domain.extent needs 3 "
                              "values")
        extent = tuple(parts)
    for d in range(rank):
        if abs(extent[d] - 1.0) > 1e-12:
            raise ConfigError(f"{path}: periodized axis {d} has unit pitch; "
                              f"extent[{d}] must be 1, got {extent[d]}")

    preset = _get(entries, "forcing.preset", path, default="zero")
    forcing_csv = _get(entries, "forcing.csv", path, default=None)
    if forcing_csv is None and preset not in _PRESETS:
        lineno = entries.get("forcing.preset", (None, 0))[1]
        raise ConfigError(f"{path}:{lineno}: unknown forcing.preset "
                          f"{preset!r} (choose from {_PRESETS} or give "
                          "forcing.csv)")

    mode = _get(entries, "solver.mode", path, default="linear")
    if mode not in ("linear", "nonlinear"):
        lineno = entries["solver.mode"][1]
        raise ConfigError(f"{path}:{lineno}: solver.mode must be linear or "
                          f"nonlinear, got {mode!r}")

    cfg = RunConfig(
        kind=kind,
        extent=extent,
        rank=rank,
        anti_flags=anti_flags,
        h=_get(entries, "grid.h", path, float),
        dt=_get(entries, "grid.dt", path, float),
        horizon=_get(entries, "time.horizon", path, float),
        k=_get(entries, "kernel.k", path, float),
        forcing_preset=preset,
        forcing_csv=forcing_csv,
        forcing_scale=_get(entries, "forcing.scale", path, float,
                           default=1.0),
        mode=mode,
        max_iter=_get(entries, "solver.max_iter", path, int, default=50),
        tol=_get(entries, "solver.tol", path, float, default=1e-8),
        quad_tol=_get(entries, "quad.tol", path, float, default=1e-10),
        output_dir=_get(entries, "output.dir", path, default="out"),
    )
    for name in ("h", "dt", "horizon", "k"):
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"{path}: {name} must be positive")
    return cfg


def _build_context(cfg: RunConfig):
    from .domain import build_quotient_domain
    from .kernels import KernelParams
    from .lattice import LatticeSpec
    from .potentials import OperatorContext
    spec = LatticeSpec(cfg.rank, cfg.anti_flags)
    domain = build_quotient_domain(spec, cfg.extent[cfg.rank:], cfg.horizon,
                                   cfg.h, cfg.dt)
    return OperatorContext(domain, KernelParams(cfg.k), spec,
                           quad_tol=cfg.quad_tol)


def _build_forcing(cfg: RunConfig, ctx):
    from . import verify
    from .domain import Field, load_field_csv
    grid = ctx.domain.grid
    if cfg.forcing_csv is not None:
        f = load_field_csv(cfg.forcing_csv, grid)
    elif cfg.forcing_preset == "zero":
        f = Field.zeros(grid)
    elif cfg.forcing_preset == "vector_bump":
        f = verify.vector_bump_field(grid)
    elif cfg.forcing_preset == "divergence_free":
        f = verify.divergence_free_field(grid)
    else:
        _, _, f = verify.manufactured_problem(ctx)
    return f * cfg.forcing_scale


def _write_text(path: Path, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")


def cmd_solve(args) -> int:
    from . import verify
    from .domain import export_solution_csv
    from .solver import (NavierStokesProblem, SolverDivergence,
                         convergence_check, estimate_constants,
                         fixed_point_solve, solve_linear)
    cfg = load_config(args.config)
    out_dir = Path(args.output or cfg.output_dir)
    verify.ensure_convention()
    ctx = _build_context(cfg)
    forcing = _build_forcing(cfg, ctx)
    prob = NavierStokesProblem(ctx, forcing)

    if cfg.mode == "linear":
        u, p, report = solve_linear(prob)
        exit_code = 0
    else:
        c1, c2 = estimate_constants(ctx, seed=args.seed)
        from .domain import discrete_norm
        adm, _, _ = convergence_check(c1, c2,
                                      discrete_norm(forcing, "L2"), 0.0)
        if not adm:
            print("warning: forcing exceeds the admissibility bound; "
                  "proceeding without a convergence guarantee")
        try:
            u, p, report = fixed_point_solve(
                prob, max_iter=cfg.max_iter,
                tol=args.tol if args.tol is not None else cfg.tol,
                constants=(c1, c2), seed=args.seed)
            exit_code = 0
        except SolverDivergence as exc:
            print(f"numerical failure: {exc}")
            report = exc.report
            u = p = None
            exit_code = 3

    out_dir.mkdir(parents=True, exist_ok=True)
    if u is not None:
        export_solution_csv(u, p, out_dir / "solution.csv")
    _write_text(out_dir / "residuals.csv",
                ["iter,residual"] + [f"{i + 1},{r:.17g}" for i, r in
                                     enumerate(report.residual_history)])
    _write_text(out_dir / "summary.txt", [report.summary()])
    for warning in report.warnings:
        print(f"warning: {warning}")
    print(report.summary())
    verdict = ("admissible" if report.admissible
               else "not admissible" if report.admissible is not None
               else "not assessed (linear mode)")
    print(f"contraction verdict: {verdict} "
          f"(W={report.W if report.W is not None else 'n/a'}, "
          f"L={report.L if report.L is not None else 'n/a'})")
    return exit_code


def cmd_constants(args) -> int:
    from . import verify
    from .domain import discrete_norm
    from .solver import convergence_check, estimate_constants
    cfg = load_config(args.config)
    verify.ensure_convention()
    ctx = _build_context(cfg)
    forcing = _build_forcing(cfg, ctx)
    c1, c2 = estimate_constants(ctx, seed=args.seed)
    f_norm = discrete_norm(forcing, "L2")
    admissible, w_const, l_const = convergence_check(c1, c2, f_norm, 0.0)
    print(f"C1={c1:.9g} C2={c2:.9g} f_norm={f_norm:.9g} "
          f"W={'n/a' if w_const is None else format(w_const, '.9g')} "
          f"L={'n/a' if l_const is None else format(l_const, '.9g')} "
          f"admissible={str(admissible).lower()}")
    print("note: the convective constant is an empirical lower bound; the "
          "verdict is conditional on it")
    return 0


def cmd_kernel(args) -> int:
    import numpy as np
    from . import verify
    from .kernels import KernelParams, SpaceTimePoint
    from .lattice import (LatticeSpec, brute_force_periodized,
                          periodized_fundamental_solution)
    verify.ensure_convention()
    try:
        point = tuple(float(v) for v in args.point.split(","))
        if len(point) != 3:
            raise ValueError("need 3 coordinates")
    except ValueError as exc:
        print(f"bad --point: {exc}", file=sys.stderr)
        return 2
    params = KernelParams(args.k)
    spec = LatticeSpec()
    if args.lattice:
        rank_text, _, flags_text = args.lattice.partition(",")
        try:
            rank = int(rank_text)
            spec = LatticeSpec(rank, _parse_flags(flags_text, rank))
        except ValueError as exc:
            print(f"bad --lattice: {exc}", file=sys.stderr)
            return 2
    if args.shells is not None and spec.rank:
        value, tail = brute_force_periodized(
            np.asarray(point)[None, :], args.time, params, spec,
            radius=args.shells)
        value = value[0]
        if args.time <= 0:
            tail = float("inf")
        shells_used = args.shells + 1
    else:
        value, tail, shells_used = periodized_fundamental_solution(
            SpaceTimePoint(point, args.time), params, spec, args.tol)
    print("s,v1,v2,v3,wf,wfd,wn")
    print(",".join(format(v, ".12g") for v in value))
    if spec.rank:
        print(f"tail_estimate={tail:.6g} shells_used={shells_used}")
    return 0


_SUITES = ("all", "algebra", "kernel", "lattice", "operators", "solver")


def _check_algebra(out_dir: Path) -> list[tuple[str, bool]]:
    import numpy as np
    from .witt_algebra import (BASIS_NAMES, associativity_defects,
                               basis_element, mul, mul_arrays)
    defects = associativity_defects()
    rows = ["i,j,k,associates"]
    names = BASIS_NAMES
    bad = set(defects)
    for i in range(7):
        for j in range(7):
            for k in range(7):
                rows.append(f"{names[i]},{names[j]},{names[k]},"
                            f"{str((i, j, k) not in bad).lower()}")
    _write_text(out_dir / "associativity.csv", rows)
    f, fd = basis_element(4), basis_element(5)
    relations_ok = (
        np.all(mul(f, f).coeffs == 0.0)
        and np.all(mul(fd, fd).coeffs == 0.0)
        and np.array_equal((mul(f, fd) + mul(fd, f)).coeffs,
                           np.eye(7)[0])
        and all(np.all(mul_arrays(np.eye(7)[1 + j], np.eye(7)[w]) == 0.0)
                and np.all(mul_arrays(np.eye(7)[w], np.eye(7)[1 + j]) == 0.0)
                for j in range(3) for w in (4, 5, 6)))
    return [("algebra_relations", bool(relations_ok)),
            ("algebra_associativity", len(defects) == 0)]


def _check_kernel(out_dir: Path) -> list[tuple[str, bool]]:
    from . import verify
    results = []
    try:
        record = verify.calibrate_convention()
        results.append(("kernel_calibration", True))
        _write_text(out_dir / "calibration.txt",
                    [f"fd_power={record.fd_power}",
                     f"sign={record.sign:+d}",
                     f"factorization_power={record.factorization_power}"]
                    + [f"order[{k}]={v:.4f}"
                       for k, v in sorted(record.orders.items())])
    except RuntimeError as exc:
        _write_text(out_dir / "calibration.txt", [str(exc)])
        results.append(("kernel_calibration", False))
        return results
    study = verify.factorization_study()
    _write_text(out_dir / "factorization.csv", study.csv_rows())
    results.append((study.name, study.passed))
    table = verify.gaussian_mass_check()
    _write_text(out_dir / "gaussian_mass.csv", table.csv_rows())
    results.append((table.name, table.passed))
    return results


def _check_lattice(out_dir: Path) -> list[tuple[str, bool]]:
    from . import verify
    from .kernels import KernelParams
    from .lattice import LatticeSpec
    results = []
    params = KernelParams(1.0)
    patterns = [(False, False, False), (True, False, False),
                (True, True, False), (True, True, True)]
    for flags in patterns:
        spec = LatticeSpec(3, flags)
        table = verify.lattice_bruteforce_check(spec=spec, params=params)
        tag = "".join("a" if f else "p" for f in flags)
        _write_text(out_dir / f"bruteforce_{tag}.csv", table.csv_rows())
        results.append((f"{table.name}_{tag}", table.passed))
        qp = verify.quasi_periodicity_check(spec, params)
        _write_text(out_dir / f"{qp.name}.csv", qp.csv_rows())
        results.append((qp.name, qp.passed))
    return results


def _check_operators(out_dir: Path) -> list[tuple[str, bool]]:
    from . import verify
    from .lattice import LatticeSpec
    results = []
    for lattice in (None, LatticeSpec(3, (False, False, False))):
        study = verify.borel_pompeiu_study(lattice=lattice)
        _write_text(out_dir / f"{study.name}.csv", study.csv_rows())
        results.append((study.name, study.passed))
        rep = verify.volume_reproduction_study(study)
        _write_text(out_dir / f"{rep.name}.csv", rep.csv_rows())
        results.append((rep.name, rep.passed))
    hodge = verify.hodge_study()
    _write_text(out_dir / f"{hodge.name}.csv", hodge.csv_rows())
    results.append((hodge.name, hodge.passed))
    return results


def _check_solver(out_dir: Path) -> list[tuple[str, bool]]:
    from . import verify
    from .solver import NavierStokesProblem, fixed_point_solve
    results = []
    study = verify.linear_solver_study()
    _write_text(out_dir / f"{study.name}.csv", study.csv_rows())
    results.append((study.name, study.passed))
    ctx, forcing, constants = verify.fixed_point_preset()
    _, _, report = fixed_point_solve(NavierStokesProblem(ctx, forcing),
                                     max_iter=30, tol=1e-12,
                                     constants=constants)
    hist = report.residual_history
    monotone = all(b < a for a, b in zip(hist, hist[1:]))
    ok = bool(report.admissible) and monotone and report.converged
    _write_text(out_dir / "fixed_point.csv",
                ["iter,residual"] + [f"{i + 1},{r:.17g}"
                                     for i, r in enumerate(hist)])
    _write_text(out_dir / "fixed_point_summary.txt", [report.summary()])
    results.append(("fixed_point_contraction", ok))
    return results


def cmd_check(args) -> int:
    from . import verify
    out_dir = Path(args.output or "out")
    out_dir.mkdir(parents=True, exist_ok=True)
    verify.ensure_convention()
    runners = {
        "algebra": _check_algebra,
        "kernel": _check_kernel,
        "lattice": _check_lattice,
        "operators": _check_operators,
        "solver": _check_solver,
    }
    names = list(runners) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        for label, ok in runners[name](out_dir):
            all_ok &= ok
            print(f"{'PASS' if ok else 'FAIL'} {label}")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittflow",
        description="Quaternionic operator calculus for instationary flow "
                    "on boxes, cylinders and tori")
    parser.add_argument("--threads", type=int, default=None,
                        help="cap the numerical thread pool (1 guarantees "
                             "bit-reproducible artifacts)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run oracle suites")
    p_check.add_argument("--suite", default="all", choices=_SUITES)
    p_check.add_argument("--output", default=None)
    p_check.set_defaults(func=cmd_check)

    p_kernel = sub.add_parser("kernel", help="evaluate the causal kernel")
    p_kernel.add_argument("--point", required=True,
                          help="comma-separated spatial coordinates")
    p_kernel.add_argument("--time", type=float, required=True)
    p_kernel.add_argument("--k", type=float, required=True)
    p_kernel.add_argument("--lattice", default=None,
                          help="rank[,flag,flag,...] for periodization")
    p_kernel.add_argument("--shells", type=int, default=None)
    p_kernel.add_argument("--tol", type=float, default=1e-10)
    p_kernel.set_defaults(func=cmd_kernel)

    p_solve = sub.add_parser("solve", help="run a flow solve from a config")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--output", default=None)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--tol", type=float, default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_const = sub.add_parser("constants",
                             help="estimate contraction constants")
    p_const.add_argument("--config", required=True)
    p_const.add_argument("--seed", type=int, default=0)
    p_const.set_defaults(func=cmd_constants)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:   # numerical failures surface as exit 3
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
