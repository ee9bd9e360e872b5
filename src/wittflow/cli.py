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
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path


class ConfigError(ValueError):
    pass


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
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line "
                              f"{entries[key][1]}")
        entries[key] = (value, lineno)
    return entries


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _bools(text: str) -> tuple[bool, ...]:
    """Comma-separated booleans; a blank text gives none."""
    return tuple(map(_parse_bool, text.split(","))) if text.strip() else ()


def _spin(flags: tuple[bool, ...], rank: int) -> tuple[bool, ...]:
    """Antiperiodicity flags: none (all periodic) or one per generator."""
    if len(flags) not in (0, rank):
        raise ValueError(f"need 0 or {rank} antiperiodicity flags, got "
                         f"{len(flags)}")
    return flags or (False,) * rank


def _checked(cast, ok, need: str):
    """Parser that casts a value and refuses it unless ``ok`` holds."""
    def parse(text):
        value = cast(text)
        if not ok(value):
            raise ValueError(f"must be {need}, got {value}")
        return value
    return parse


def _choice(*options: str):
    return _checked(str, options.__contains__,
                    f"one of {', '.join(options)}")


def _three(parse):
    """Parser of 3 comma-separated values, each read by ``parse``."""
    return _checked(lambda text: tuple(map(parse, text.split(","))),
                    lambda values: len(values) == 3,
                    "3 comma-separated values")


_positive = _checked(float, lambda v: math.isfinite(v) and v > 0,
                     "positive and finite")
_finite = _checked(float, math.isfinite, "finite")
_count = _checked(int, lambda v: v >= 1, "at least 1")
_seed = _checked(int, lambda v: v >= 0, "at least 0")
_point = _three(_finite)


def _lattice(text: str):
    """``--lattice RANK[,FLAGS]`` as a spin structure."""
    from .lattice import LatticeSpec
    rank_text, _, flags_text = text.partition(",")
    rank = int(rank_text)
    return LatticeSpec(rank, _spin(_bools(flags_text), rank))


# Config key -> (RunConfig field, parser, default); a default of ``...``
# makes the key mandatory.  The None defaults are settled by the cross-key
# rules in load_config.
_SCHEMA = {
    "domain.kind": ("kind", _choice("box", "cylinder", "torus"), ...),
    "domain.extent": ("extent", _three(_positive), None),
    "lattice.rank": ("rank", int, None),
    "lattice.anti_flags": ("anti_flags", _bools, ()),
    "grid.h": ("h", _positive, ...),
    "grid.dt": ("dt", _positive, ...),
    "time.horizon": ("horizon", _positive, ...),
    "kernel.k": ("k", _positive, ...),
    "forcing.preset": ("forcing_preset", str, "zero"),
    "forcing.csv": ("forcing_csv", str, None),
    "forcing.scale": ("forcing_scale", _finite, 1.0),
    "solver.mode": ("mode", _choice("linear", "nonlinear"), "linear"),
    "solver.max_iter": ("max_iter", _count, 50),
    "solver.tol": ("tol", _positive, 1e-8),
    "quad.tol": ("quad_tol", _positive, 1e-10),
    "output.dir": ("output_dir", str, "out"),
}


def load_config(path: str) -> RunConfig:
    entries = _parse_lines(path)

    def at(key):
        """Where ``key`` is given: ``path:line``, or ``path`` if not."""
        return f"{path}:{entries[key][1]}" if key in entries else path

    def read(key, parse, *args):
        try:
            return parse(*args)
        except ValueError as exc:
            raise ConfigError(f"{at(key)}: bad value for {key}: {exc}") \
                from exc

    for key in entries:
        if key not in _SCHEMA:
            raise ConfigError(f"{at(key)}: unknown key {key!r}")
    values = {}
    for key, (field, parse, default) in _SCHEMA.items():
        if key in entries:
            values[field] = read(key, parse, entries[key][0])
        elif default is ...:
            raise ConfigError(f"{path}: missing mandatory key {key!r}")
        else:
            values[field] = default
    cfg = RunConfig(**values)

    valid = {"box": (0,), "cylinder": (1, 2), "torus": (3,)}[cfg.kind]
    if cfg.rank is None and len(valid) == 1:
        cfg.rank = valid[0]
    if cfg.rank not in valid:
        raise ConfigError(f"{at('lattice.rank')}: domain.kind = {cfg.kind} "
                          f"needs lattice.rank in {valid}, got {cfg.rank}")
    cfg.anti_flags = read("lattice.anti_flags", _spin, cfg.anti_flags,
                          cfg.rank)
    if cfg.extent is None and cfg.kind != "torus":
        raise ConfigError(f"{path}: domain.extent is mandatory for "
                          f"{cfg.kind} domains")
    cfg.extent = cfg.extent or (1.0, 1.0, 1.0)
    for d in range(cfg.rank):
        if abs(cfg.extent[d] - 1.0) > 1e-12:
            raise ConfigError(f"{at('domain.extent')}: periodized axis {d} "
                              f"has unit pitch; extent[{d}] must be 1, got "
                              f"{cfg.extent[d]}")

    # the domain builder's own rules: the spacings tile every axis, and the
    # grid has 3 cells per free axis and at least 2 time slabs
    from .domain import LatticeSpec, SpaceTimeGrid, _cells_to_count
    space = "domain.extent" if "domain.extent" in entries else "grid.h"
    dims = tuple(read(space, _cells_to_count, e, cfg.h, f"extent[{d}]")
                 for d, e in enumerate(cfg.extent))
    nt = read("time.horizon", _cells_to_count, cfg.horizon, cfg.dt, "horizon")
    for key, slabs in ((space, 2), ("time.horizon", nt)):
        read(key, SpaceTimeGrid, cfg.h, cfg.dt, dims, slabs,
             LatticeSpec(cfg.rank, cfg.anti_flags))

    if "forcing.preset" in entries and "forcing.csv" in entries:
        raise ConfigError(f"{at('forcing.preset')}: forcing.preset and "
                          f"forcing.csv (line {entries['forcing.csv'][1]}) "
                          "both give the forcing; keep one of them")
    if cfg.forcing_csv is None and cfg.forcing_preset not in _PRESETS:
        raise ConfigError(f"{at('forcing.preset')}: unknown forcing.preset "
                          f"{cfg.forcing_preset!r} (choose from {_PRESETS} "
                          "or give forcing.csv)")
    for key in ("solver.max_iter", "solver.tol"):
        if cfg.mode == "linear" and key in entries:
            raise ConfigError(f"{at(key)}: {key} applies only to "
                              "solver.mode = nonlinear")
    return cfg


def _bad_flag(checks) -> bool:
    """Report the first ``(flag, value, parse)`` that ``parse`` refuses;
    whether there was one."""
    for flag, value, parse in checks:
        try:
            parse(value)
        except ValueError as exc:
            print(f"bad {flag}: {exc}", file=sys.stderr)
            return True
    return False


def _make_dir(path: Path, name: str) -> Path:
    """``path``, created as a directory if it is not one; one that cannot
    be created is refused with an error naming ``name``, its flag or key."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"bad {name}: {exc}") from exc
    return path


def _write_text(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines))


def _residual_rows(report) -> list[str]:
    return ["iter,residual"] + [f"{i + 1},{r:.17g}" for i, r in
                                enumerate(report.residual_history)]


def _set_up(cfg: RunConfig, output: tuple[Path, str] | None = None):
    """Calibrated convention, context and forcing of a run.  Refused before
    the calibration: a forcing CSV that does not fit the grid or is not a
    pure e-vector field, and for a solve (``output``: its directory and the
    flag or key naming it) a grid above the pressure cap or a directory that
    cannot be created."""
    from . import verify
    from .domain import Field, build_quotient_domain, load_field_csv
    from .kernels import KernelParams
    from .lattice import LatticeSpec
    from .potentials import OperatorContext
    from .solver import MAX_PRESSURE_CELLS, _check_vector
    domain = build_quotient_domain(LatticeSpec(cfg.rank, cfg.anti_flags),
                                   cfg.extent[cfg.rank:], cfg.horizon,
                                   cfg.h, cfg.dt)
    cells = domain.grid.n_cells
    if output is not None and cells > MAX_PRESSURE_CELLS:
        raise ConfigError(
            f"the grid of grid.h = {cfg.h} and grid.dt = {cfg.dt} has "
            f"{cells} cells; the dense pressure solve takes at most "
            f"solver.MAX_PRESSURE_CELLS = {MAX_PRESSURE_CELLS}")
    if cfg.forcing_csv is not None:
        try:
            f = load_field_csv(cfg.forcing_csv, domain.grid)
            _check_vector(f, "forcing")
        except (OSError, ValueError) as exc:
            raise ConfigError(f"bad value for forcing.csv: {exc}") from exc
    if output is not None:
        _make_dir(*output)
    verify.ensure_convention()
    ctx = OperatorContext(domain, KernelParams(cfg.k), quad_tol=cfg.quad_tol)
    presets = {"zero": Field.zeros, "vector_bump": verify.vector_bump_field,
               "divergence_free": verify.divergence_free_field,
               "manufactured": lambda _: verify.manufactured_problem(ctx)[2]}
    if cfg.forcing_csv is None:
        f = presets[cfg.forcing_preset](domain.grid)
    return ctx, f * cfg.forcing_scale


def cmd_solve(args) -> int:
    from .domain import export_solution_csv
    from .solver import (NavierStokesProblem, SolverDivergence,
                         fixed_point_solve, solve_linear)
    flags = [("--seed", args.seed, _seed)]
    if args.tol is not None:
        flags.append(("--tol", args.tol, _positive))
    if _bad_flag(flags):
        return 2
    cfg = load_config(args.config)
    if args.tol is not None and cfg.mode == "linear":
        print("bad --tol: solver.mode = linear runs one sweep and has no "
              "tolerance", file=sys.stderr)
        return 2
    out_dir = Path(args.output or cfg.output_dir)
    ctx, forcing = _set_up(cfg, (out_dir, "--output" if args.output
                                 else "output.dir"))
    prob = NavierStokesProblem(ctx, forcing)

    exit_code = 0
    if cfg.mode == "linear":
        u, p, report = solve_linear(prob)
    else:
        try:
            u, p, report = fixed_point_solve(
                prob, max_iter=cfg.max_iter,
                tol=args.tol if args.tol is not None else cfg.tol,
                seed=args.seed)
        except SolverDivergence as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            u = p = None
            report, exit_code = exc.report, 3

    if u is not None:
        export_solution_csv(u, p, out_dir / "solution.csv")
    else:   # no older run's solution beside this run's artifacts
        (out_dir / "solution.csv").unlink(missing_ok=True)
    _write_text(out_dir / "residuals.csv", _residual_rows(report))
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
    from .domain import discrete_norm
    from .solver import convergence_check, estimate_constants
    if _bad_flag([("--seed", args.seed, _seed)]):
        return 2
    ctx, forcing = _set_up(load_config(args.config))
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
    from .lattice import (brute_force_periodized,
                          periodized_fundamental_solution)
    if _bad_flag([("--point", args.point, _point),
                  ("--time", args.time, _finite), ("--k", args.k, _positive),
                  ("--tol", args.tol, _positive),
                  ("--lattice", args.lattice, _lattice)]):
        return 2
    point, spec = _point(args.point), _lattice(args.lattice)
    if args.shells is not None and (args.shells < 0 or not spec.rank):
        print("bad --shells: need a count >= 0 and a lattice of rank 1..3",
              file=sys.stderr)
        return 2
    verify.ensure_convention()
    params = KernelParams(args.k)
    if args.shells is not None:
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


def _as_check(result, file: str | None = None, label: str | None = None):
    """A study or check table of ``verify`` as a check: its label (the
    result's name unless given), verdict, and rows in ``FILE.csv``."""
    return (label or result.name, result.passed,
            {f"{file or result.name}.csv": result.csv_rows()})


def _algebra_checks():
    from . import verify
    from .witt_algebra import BASIS_NAMES, associativity_defects
    bad = set(associativity_defects())
    yield "algebra_relations", verify.algebra_relations_hold(), {}
    yield "algebra_associativity", not bad, {"associativity.csv": [
        "i,j,k,associates"] + [
        f"{BASIS_NAMES[i]},{BASIS_NAMES[j]},{BASIS_NAMES[k]},"
        f"{str((i, j, k) not in bad).lower()}"
        for i in range(7) for j in range(7) for k in range(7)]}


def _kernel_checks():
    from . import verify
    try:
        record = verify.calibrate_convention()
    except RuntimeError as exc:
        yield "kernel_calibration", False, {"calibration.txt": [str(exc)]}
        return
    yield "kernel_calibration", True, {"calibration.txt": [
        f"fd_power={record.fd_power}", f"sign={record.sign:+d}",
        f"factorization_power={record.factorization_power}"] + [
        f"order[{k}]={v:.4f}" for k, v in sorted(record.orders.items())]}
    yield _as_check(verify.factorization_check(), "factorization")
    yield _as_check(verify.gaussian_mass_check())


def _lattice_checks():
    from . import verify
    from .kernels import KernelParams
    params = KernelParams(1.0)
    for spec in verify.SPIN_STRUCTURES:
        table = verify.lattice_bruteforce_check(spec=spec, params=params)
        yield _as_check(table, f"bruteforce_{spec.tag}",
                        f"{table.name}_{spec.tag}")
        yield _as_check(verify.quasi_periodicity_check(spec, params))


def _operator_checks():
    from . import verify
    from .lattice import LatticeSpec
    for lattice in (LatticeSpec(), LatticeSpec(3, (False,) * 3)):
        study = verify.borel_pompeiu_study(lattice=lattice)
        yield _as_check(study)
        yield _as_check(verify.volume_reproduction_study(study))
    yield _as_check(verify.hodge_study())


def _solver_checks():
    from . import verify
    yield _as_check(verify.linear_solver_study())
    run = verify.fixed_point_run()
    yield "fixed_point_contraction", run.passed, {
        "fixed_point.csv": _residual_rows(run.report),
        "fixed_point_summary.txt": [run.report.summary()]}


def _calibrated(suite: str, checks):
    """``checks``, a suite that reads the calibrated convention, run once
    the convention is held; if the calibration fails, one failed check
    ``SUITE_calibration`` with the error in ``calibration.txt`` instead."""
    def run():
        from . import verify
        try:
            verify.ensure_convention()
        except RuntimeError as exc:
            yield f"{suite}_calibration", False, {"calibration.txt": [
                str(exc)]}
            return
        yield from checks()
    return run


# Suite -> its checks in order, each ``(label, passed, {file: lines})``.
_CHECKS = {"algebra": _algebra_checks, "kernel": _kernel_checks,
           "lattice": _lattice_checks,
           "operators": _calibrated("operators", _operator_checks),
           "solver": _calibrated("solver", _solver_checks)}
_SUITES = ("all", *_CHECKS)


def cmd_check(args) -> int:
    out_dir = _make_dir(Path(args.output or "out"), "--output")
    all_ok = True
    for suite in _CHECKS if args.suite == "all" else [args.suite]:
        for label, ok, files in _CHECKS[suite]():
            for name, lines in files.items():
                _write_text(out_dir / name, lines)
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
    p_kernel.add_argument("--lattice", default="0",
                          help="rank[,flag,flag,...] for periodization")
    summation = p_kernel.add_mutually_exclusive_group()
    summation.add_argument("--shells", type=int, default=None)
    summation.add_argument("--tol", type=float, default=1e-10)
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
        if _bad_flag([("--threads", args.threads, _count)]):
            return 2
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
