"""Discrete space-time domains: grids, boundary decomposition, difference
operators and discrete norms.

Collocation nodes sit at space-time cell centers; boundary elements sit at
face centroids.  On a box all six lateral face families carry outward
conormal vectors ``+-ej`` with weight ``h^2 dt``; the temporal caps carry
``-f`` (initial) and ``+f`` (terminal) with weight ``h^3``.  On quotients the
periodized axes have unit pitch and contribute no lateral boundary.  A box
is the rank-0 quotient: one builder makes every domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .witt_algebra import mul_arrays

__all__ = [
    "SpaceTimeGrid",
    "Field",
    "Domain",
    "build_box_domain",
    "build_quotient_domain",
    "diff_field",
    "discrete_spatial_dirac",
    "discrete_div",
    "discrete_grad",
    "discrete_norm",
    "export_field_csv",
    "export_solution_csv",
]


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform spatial grid times a uniform time axis, cell-centered.

    ``dims`` are spatial cell counts per axis, ``nt`` the number of time
    slabs.  ``periodic`` marks axes that wrap (quotient generators, pitch 1).
    """

    h: float
    dt: float
    dims: tuple[int, int, int]
    nt: int
    periodic: tuple[bool, bool, bool] = (False, False, False)
    t0: float = 0.0

    def __post_init__(self):
        if not (self.h > 0 and self.dt > 0):
            raise ValueError("grid spacings must be positive")
        if self.nt < 2:
            raise ValueError("need at least 2 time slabs")
        for d, n in enumerate(self.dims):
            if n < 3 and not self.periodic[d]:
                raise ValueError(f"axis {d}: need at least 3 nodes, got {n}")
            if n < 1:
                raise ValueError(f"axis {d}: empty")

    def spacing(self, axis: int) -> float:
        return self.h if axis < 3 else self.dt

    @property
    def extent(self) -> tuple[float, float, float]:
        return tuple(n * self.h for n in self.dims)

    @property
    def horizon(self) -> float:
        return self.nt * self.dt

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return (*self.dims, self.nt)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    @property
    def cell_volume(self) -> float:
        return self.h ** 3 * self.dt

    def axis_centers(self, axis: int) -> np.ndarray:
        if axis < 3:
            return (np.arange(self.dims[axis]) + 0.5) * self.h
        return self.t0 + (np.arange(self.nt) + 0.5) * self.dt

    def node_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Spatial positions (nx,ny,nz,3) and times (nt,) of cell centers."""
        xs = [self.axis_centers(d) for d in range(3)]
        grid = np.stack(np.meshgrid(*xs, indexing="ij"), axis=-1)
        return grid, self.axis_centers(3)


def _check_finite(values: np.ndarray) -> np.ndarray:
    """``values`` unchanged, once every entry is checked to be finite.

    This is Field's check; array-level operator code that builds no Field
    runs it wherever a Field would have been built.
    """
    if not np.all(np.isfinite(values)):
        raise ValueError("field contains non-finite values")
    return values


@dataclass
class Field:
    """Algebra-valued function sampled on grid nodes; shape (*dims, nt, 7)."""

    values: np.ndarray
    grid: SpaceTimeGrid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = self.grid.shape + (7,)
        if self.values.shape != expected:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid "
                f"shape {expected}")
        _check_finite(self.values)

    @classmethod
    def zeros(cls, grid: SpaceTimeGrid) -> "Field":
        return cls(np.zeros(grid.shape + (7,)), grid)

    @classmethod
    def from_scalar(cls, values: np.ndarray, grid: SpaceTimeGrid) -> "Field":
        out = np.zeros(grid.shape + (7,))
        out[..., 0] = values
        return cls(out, grid)

    @classmethod
    def from_vector(cls, values: np.ndarray, grid: SpaceTimeGrid) -> "Field":
        out = np.zeros(grid.shape + (7,))
        out[..., 1:4] = values
        return cls(out, grid)

    def copy(self) -> "Field":
        return Field(self.values.copy(), self.grid)

    def scalar(self) -> np.ndarray:
        return self.values[..., 0]

    def vector(self) -> np.ndarray:
        return self.values[..., 1:4]

    def __add__(self, other: "Field") -> "Field":
        return Field(self.values + other.values, self.grid)

    def __sub__(self, other: "Field") -> "Field":
        return Field(self.values - other.values, self.grid)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.values * float(scalar), self.grid)

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(-self.values, self.grid)


@dataclass
class Domain:
    """Grid plus weighted boundary decomposition.

    Every cell center is a collocation node.  Boundary data is stored in
    flat arrays, one row per element.
    """

    grid: SpaceTimeGrid
    b_position: np.ndarray      # (nb, 3)
    b_time: np.ndarray          # (nb,)
    b_weight: np.ndarray        # (nb,)
    b_conormal: np.ndarray      # (nb, 7)
    b_kind: np.ndarray          # (nb,) small ints: 0 lateral, 1 cap0, 2 capT
    b_axis: np.ndarray          # (nb,)
    b_side: np.ndarray          # (nb,)
    # Second-order one-sided interpolation stencil for the trace operator:
    # value at centroid ~ 1.5 * field[near] - 0.5 * field[next].
    b_near: np.ndarray          # (nb, 4) cell multi-indices
    b_next: np.ndarray          # (nb, 4)

    @property
    def n_boundary(self) -> int:
        return len(self.b_weight)

    def lateral_area(self) -> float:
        return float(np.sum(self.b_weight[self.b_kind == 0]))

    def cap_area(self) -> float:
        return float(np.sum(self.b_weight[self.b_kind != 0]))


def _cells_to_count(extent: float, h: float, label: str) -> int:
    n = extent / h
    n_int = int(round(n))
    if abs(n - n_int) > 1e-9 * max(1.0, n) or n_int < 1:
        raise ValueError(f"{label}: spacing {h} does not tile extent {extent}")
    return n_int


def _build_domain(grid: SpaceTimeGrid) -> Domain:
    dims, nt = grid.dims, grid.nt
    h, dt = grid.h, grid.dt
    columns: dict[str, list[np.ndarray]] = {}
    centers = [grid.axis_centers(d) for d in range(3)]
    tc = grid.axis_centers(3)

    def add_family(position, time, weight, conormal, kind, axis, side, near,
                   nxt):
        """Append elements sharing time, weight, conormal and labels."""
        n = len(position)
        for name, value in (
                ("b_position", position),
                ("b_time", np.full(n, time)),
                ("b_weight", np.full(n, weight)),
                ("b_conormal", np.tile(conormal, (n, 1))),
                ("b_kind", np.full(n, kind, dtype=np.int64)),
                ("b_axis", np.full(n, axis, dtype=np.int64)),
                ("b_side", np.full(n, side, dtype=np.int64)),
                ("b_near", near), ("b_next", nxt)):
            columns.setdefault(name, []).append(value)

    for axis in range(3):
        if grid.periodic[axis]:
            continue
        across = [d for d in range(3) if d != axis]
        ia, ib = np.meshgrid(np.arange(dims[across[0]]),
                             np.arange(dims[across[1]]), indexing="ij")
        ia, ib = ia.ravel(), ib.ravel()
        for side in (0, 1):
            x_face = 0.0 if side == 0 else grid.extent[axis]
            normal = np.zeros(7)
            normal[1 + axis] = -1.0 if side == 0 else 1.0
            cell_along = 0 if side == 0 else dims[axis] - 1
            next_along = 1 if side == 0 else dims[axis] - 2
            for j in range(nt):
                pos = np.zeros((len(ia), 3))
                pos[:, axis] = x_face
                pos[:, across[0]] = centers[across[0]][ia]
                pos[:, across[1]] = centers[across[1]][ib]
                near = np.zeros((len(ia), 4), dtype=np.int64)
                near[:, axis] = cell_along
                near[:, across[0]] = ia
                near[:, across[1]] = ib
                near[:, 3] = j
                nxt = near.copy()
                nxt[:, axis] = next_along
                add_family(pos, tc[j], h * h * dt, normal, 0, axis, side,
                           near, nxt)

    # Temporal caps: one element per spatial cell, at t0 and t0 + horizon.
    i1, i2, i3 = np.meshgrid(*[np.arange(n) for n in dims], indexing="ij")
    i1, i2, i3 = i1.ravel(), i2.ravel(), i3.ravel()
    cap_pos = np.stack([centers[0][i1], centers[1][i2], centers[2][i3]],
                       axis=-1)
    for side, t_face, f_sign, kind in (
            (0, grid.t0, -1.0, 1),
            (1, grid.t0 + grid.horizon, 1.0, 2)):
        conormal = np.zeros(7)
        conormal[4] = f_sign
        near = np.stack([i1, i2, i3,
                         np.full(len(i1), 0 if side == 0 else nt - 1)],
                        axis=-1)
        nxt = near.copy()
        nxt[:, 3] = 1 if side == 0 else nt - 2
        add_family(cap_pos, t_face, h ** 3, conormal, kind, 3, side, near,
                   nxt)

    return Domain(grid=grid, **{name: np.concatenate(parts)
                                for name, parts in columns.items()})


def build_box_domain(extent, horizon: float, h: float, dt: float) -> Domain:
    """Axis-aligned box cross [0, horizon]: the rank-0 quotient."""
    from .lattice import LatticeSpec
    return build_quotient_domain(LatticeSpec(), extent, horizon, h, dt)


def build_quotient_domain(spec, free_extent, horizon: float, h: float,
                          dt: float) -> Domain:
    """Quotient of the first ``spec.rank`` axes (unit pitch) times a box.

    ``free_extent`` gives the lengths of the ``3 - spec.rank`` free axes.
    Periodized axes wrap and carry no lateral boundary; the free axes carry
    full lateral boundary.  The spatial spacing must tile every axis.
    """
    rank = spec.rank
    free_extent = [float(e) for e in np.atleast_1d(free_extent)]
    if len(free_extent) != 3 - rank:
        raise ValueError(f"need {3 - rank} free-axis extents, got "
                         f"{len(free_extent)}")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    extent = [1.0] * rank + free_extent
    dims = tuple(_cells_to_count(e, h, f"extent[{d}]")
                 for d, e in enumerate(extent))
    nt = _cells_to_count(horizon, dt, "horizon")
    grid = SpaceTimeGrid(h=h, dt=dt, dims=dims, nt=max(nt, 2),
                         periodic=tuple(d < rank for d in range(3)))
    return _build_domain(grid)


def diff_field(values: np.ndarray, axis: int, spacing: float, periodic: bool,
               edge_order: int = 2) -> np.ndarray:
    """First difference quotient along one array axis.

    Central second-order stencils in the interior; wrapped central stencils
    on periodic axes; one-sided stencils of the requested order at
    non-periodic edges.
    """
    if periodic:
        return (np.roll(values, -1, axis) - np.roll(values, 1, axis)) \
            / (2.0 * spacing)
    return np.gradient(values, spacing, axis=axis, edge_order=edge_order)


_E_ROWS = np.eye(7)[1:4]


def discrete_spatial_dirac(u: Field) -> Field:
    """sum_j ej * d_j u with left algebra multiplication."""
    g = u.grid
    out = np.zeros_like(u.values)
    for axis in range(3):
        du = diff_field(u.values, axis, g.h, g.periodic[axis], edge_order=2)
        out += mul_arrays(_E_ROWS[axis], du)
    return Field(out, g)


def discrete_div(u: Field) -> Field:
    """Divergence of the e-vector part, as a scalar field.

    The spatial operator satisfies Re(D u) = -div u, so the divergence is
    the negated scalar part.
    """
    return Field.from_scalar(-discrete_spatial_dirac(u).scalar(), u.grid)


def _grad(p: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """Gradient of scalar node values ``(..., *grid.shape)`` as e-vector
    values ``(..., *grid.shape, 7)``; leading axes are a batch.

    Left multiplication by ``ej`` moves a scalar into component ``j``
    exactly, so the Dirac operator on a scalar needs no algebra product.
    """
    out = np.zeros(p.shape + (7,))
    for axis in range(3):
        out[..., 1 + axis] = diff_field(p, axis - 4, grid.h,
                                        grid.periodic[axis], edge_order=2)
    return out


def discrete_grad(p: Field) -> Field:
    """Gradient of a scalar field as an e-vector field."""
    return Field(_grad(p.scalar(), p.grid), p.grid)


def _forward_gap_diffs(u: Field) -> list[np.ndarray]:
    """Forward difference quotients over cell gaps, one array per axis."""
    g = u.grid
    out = []
    for axis in range(4):
        spacing = g.spacing(axis)
        if axis < 3 and g.periodic[axis]:
            d = (np.roll(u.values, -1, axis) - u.values) / spacing
        else:
            d = np.diff(u.values, axis=axis) / spacing
        out.append(d)
    return out


def discrete_norm(u: Field, kind: str = "L2") -> float:
    """Discrete L2 or first-order Sobolev norm over all nodes.

    L2 squares the coefficient norm per node under the cell quadrature
    ``h^3 dt``; W11 adds the forward difference quotients along every axis
    in the same quadrature.
    """
    vol = u.grid.cell_volume
    total = float(np.sum(u.values * u.values)) * vol
    if kind == "L2":
        return float(np.sqrt(total))
    if kind != "W11":
        raise ValueError(f"unknown norm kind {kind!r}")
    for d in _forward_gap_diffs(u):
        total += float(np.sum(d * d)) * vol
    return float(np.sqrt(total))


_FULL_HEADER = "x,y,z,t,s,v1,v2,v3,wf,wfd,wn"
_SOLVER_HEADER = "x,y,z,t,u1,u2,u3,p"


def _to_rows(values: np.ndarray) -> np.ndarray:
    """Node array (*dims, nt, c) as rows (n_cells, c) in mandated order:
    time-major, lexicographic nodes."""
    return np.moveaxis(values, 3, 0).reshape(-1, values.shape[-1])


def _from_rows(rows: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """Inverse of ``_to_rows``."""
    nodes = rows.reshape((grid.nt,) + grid.dims + (rows.shape[-1],))
    return np.ascontiguousarray(np.moveaxis(nodes, 0, 3))


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _write_rows(path, header: str, grid: SpaceTimeGrid,
                values: np.ndarray) -> None:
    """CSV with columns x,y,z,t followed by those of ``values``."""
    xs, ts = grid.node_positions()
    coords = np.empty(grid.shape + (4,))
    coords[..., :3] = xs[..., None, :]
    coords[..., 3] = ts
    rows = _to_rows(np.concatenate([coords, values], axis=-1))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


def export_field_csv(u: Field, path) -> None:
    """All 7 coefficients per node; deterministic row order."""
    _write_rows(path, _FULL_HEADER, u.grid, u.values)


def export_solution_csv(u: Field, p: Field, path) -> None:
    """Velocity components and pressure per node (solver view)."""
    if u.grid != p.grid:
        raise ValueError("velocity and pressure live on different grids")
    _write_rows(path, _SOLVER_HEADER, u.grid,
                np.concatenate([u.values[..., 1:4], p.values[..., :1]],
                               axis=-1))


def load_field_csv(path, grid: SpaceTimeGrid) -> Field:
    """Inverse of export_field_csv for a known grid."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim == 1:
        data = data[None, :]
    expected = grid.n_cells
    if data.shape[0] != expected or data.shape[1] != 11:
        raise ValueError(f"csv shape {data.shape} does not match grid")
    return Field(_from_rows(data[:, 4:], grid), grid)
