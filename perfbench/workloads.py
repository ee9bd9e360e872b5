"""Workload definitions and seeded input generation.

Each workload is a ``wittflow solve`` config on the grid h = 0.25, k = 1,
``quad.tol = 1e-10``.  The seed only shapes the forcing: smooth random
e-vector bumps, scaled to the workload's fixed L2 norm and written as the
full-field ``forcing.csv`` that the config references.
"""

from __future__ import annotations

from pathlib import Path

DEFAULT_SEED = 0

# Shared by every workload.
_COMMON = {
    "grid.h": "0.25",
    "grid.dt": "0.0625",
    "kernel.k": "1.0",
    "quad.tol": "1e-10",
}

WORKLOADS = {
    # Apply-heavy: one cheap cap-only Bergman factorization reused by the
    # constants estimate and the fixed-point sweeps.  The L2 norm 4.87 is
    # what the vector_bump preset gives at scale 30, about half the
    # closed-form admissibility bound (9.75).
    "torus_p_fixed_point": {
        "config": {"domain.kind": "torus", "time.horizon": "0.5",
                   "lattice.anti_flags": "false,false,false",
                   "solver.mode": "nonlinear", "solver.max_iter": "30",
                   "solver.tol": "1e-10"},
        "forcing_l2": 4.87,
        # summary.txt keys that must be finite numbers
        "finite_keys": ("C1", "C2", "W", "L", "final_residual"),
        "fixed_point": True,
    },
    # Table-build heavy: antiperiodic lattice sums over doubled axes.
    "torus_a_linear": {
        "config": {"domain.kind": "torus", "time.horizon": "0.5",
                   "lattice.anti_flags": "true,true,true",
                   "solver.mode": "linear"},
        "forcing_l2": 1.0,
        "finite_keys": ("final_residual",),
        "fixed_point": False,
    },
    # Lateral faces, a dense tall Bergman system and no lattice.
    "box_linear": {
        "config": {"domain.kind": "box", "domain.extent": "0.75,0.75,0.75",
                   "time.horizon": "0.375", "solver.mode": "linear"},
        "forcing_l2": 1.0,
        "finite_keys": ("final_residual",),
        "fixed_point": False,
    },
}

ARTIFACTS = ("solution.csv", "residuals.csv", "summary.txt")


def config_values(name: str) -> dict[str, str]:
    return {**_COMMON, **WORKLOADS[name]["config"]}


def _forcing(grid, rng, l2_norm: float, n_bumps: int = 4):
    """Smooth random e-vector bumps with discrete L2 norm ``l2_norm``.

    Distances wrap on periodized axes; free axes carry a sin^2 window so
    the field vanishes on the lateral walls, and the time envelope vanishes
    at the initial cap.
    """
    import numpy as np
    from wittflow.domain import Field, discrete_norm

    xs, ts = grid.node_positions()
    ext = np.asarray(grid.extent)
    tau = (ts - grid.t0) / grid.horizon
    vec = np.zeros(grid.dims + (grid.nt, 3))
    for _ in range(n_bumps):
        center = rng.uniform(0.0, 1.0, size=3) * ext
        width = rng.uniform(0.2, 0.35) * float(np.min(ext))
        delta = xs - center
        for d in range(3):
            if grid.periodic[d]:
                delta[..., d] -= ext[d] * np.round(delta[..., d] / ext[d])
        bump = np.exp(-np.sum(delta ** 2, axis=-1) / width ** 2)
        envelope = np.sin(np.pi * tau) ** 2 * (
            1.0 + 0.5 * np.sin(2.0 * np.pi * (tau + rng.uniform())))
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        vec += (bump[..., None] * envelope)[..., None] * direction
    for d in range(3):
        if not grid.periodic[d]:
            window = np.sin(np.pi * xs[..., d] / ext[d]) ** 2
            vec *= window[..., None, None]
    field = Field.from_vector(vec, grid)
    return field * (l2_norm / discrete_norm(field, "L2"))


def prepare(name: str, seed: int, work_dir: Path) -> Path:
    """Write ``forcing.csv`` and ``run.cfg`` for one workload and seed.

    Returns the config path.  Needs ``wittflow`` importable.
    """
    import numpy as np
    from wittflow.cli import load_config
    from wittflow.domain import (build_box_domain, build_quotient_domain,
                                 export_field_csv)
    from wittflow.lattice import LatticeSpec

    work_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = work_dir / "run.cfg"
    forcing_path = work_dir / "forcing.csv"
    values = config_values(name)
    lines = [f"{key} = {value}" for key, value in values.items()]
    cfg_path.write_text("\n".join(lines) + "\n")
    # Read back through the CLI's own config reader, so the forcing lives
    # on the grid ``wittflow solve`` builds from this file.
    cfg = load_config(str(cfg_path))
    if cfg.rank == 0:
        domain = build_box_domain(cfg.extent, cfg.horizon, cfg.h, cfg.dt)
    else:
        domain = build_quotient_domain(LatticeSpec(cfg.rank, cfg.anti_flags),
                                       list(cfg.extent[cfg.rank:]),
                                       cfg.horizon, cfg.h, cfg.dt)
    rng = np.random.default_rng(seed)
    forcing = _forcing(domain.grid, rng, WORKLOADS[name]["forcing_l2"])
    export_field_csv(forcing, forcing_path)
    lines.append(f"forcing.csv = {forcing_path.resolve()}")
    cfg_path.write_text("\n".join(lines) + "\n")
    return cfg_path
