"""Discrete space-time domains: grids, boundary decomposition, difference
operators and discrete norms.

Collocation nodes sit at space-time cell centers; boundary elements sit at
face centroids.  The boundary is the set of faces of the space-time box,
keyed ``(axis, side)`` over the four space-time axes: a lateral face is
normal to a spatial axis ``j`` and carries the outward conormal ``+-ej``
with weight ``h^2 dt``; a cap is the face normal to time (axis 3) and
carries ``-f`` (initial) or ``+f`` (terminal) with weight ``h^3``.  On
quotients the periodized axes have unit pitch and contribute no faces.  A
box is the rank-0 quotient: one builder makes every domain.

The spin structure (``LatticeSpec``) is the grid's: every operator reads
from the grid which axes wrap, and with which sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .witt_algebra import mul_arrays

__all__ = [
    "LatticeSpec",
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
class LatticeSpec:
    """Spin structure: periodization rank, one antiperiodicity flag per
    generator."""

    rank: int = 0
    anti_flags: tuple[bool, ...] = ()

    def __post_init__(self):
        if self.rank not in (0, 1, 2, 3):
            raise ValueError(f"rank must be 0..3, got {self.rank}")
        object.__setattr__(self, "anti_flags", tuple(bool(b)
                                                     for b in self.anti_flags))
        if len(self.anti_flags) != self.rank:
            raise ValueError(
                f"need {self.rank} antiperiodicity flags, got "
                f"{len(self.anti_flags)}")

    @property
    def tag(self) -> str:
        """One letter per generator: ``a`` antiperiodic, ``p`` periodic."""
        return "".join("a" if f else "p" for f in self.anti_flags)


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform spatial grid times a uniform time axis, cell-centered.

    ``dims`` are spatial cell counts per axis, ``nt`` the number of time
    slabs.  ``lattice`` is the spin structure: its first ``rank`` axes wrap
    (quotient generators, pitch 1), with the sign its flags give.
    """

    h: float
    dt: float
    dims: tuple[int, int, int]
    nt: int
    lattice: LatticeSpec = LatticeSpec()
    t0: ClassVar[float] = 0.0   # every grid's time axis starts at 0

    def __post_init__(self):
        if not (0 < self.h < np.inf and 0 < self.dt < np.inf):
            raise ValueError("grid spacings must be positive and finite")
        if self.nt < 2:
            raise ValueError("need at least 2 time slabs")
        for d, n in enumerate(self.dims):
            if n < 3 and not self.periodic[d]:
                raise ValueError(f"axis {d}: need at least 3 nodes, got {n}")
            if n < 1:
                raise ValueError(f"axis {d}: empty")

    @property
    def periodic(self) -> tuple[bool, bool, bool]:
        return tuple(d < self.lattice.rank for d in range(3))

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

    def _values_of(self, other: "Field") -> np.ndarray:
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")
        return other.values

    def __add__(self, other: "Field") -> "Field":
        return Field(self.values + self._values_of(other), self.grid)

    def __sub__(self, other: "Field") -> "Field":
        return Field(self.values - self._values_of(other), self.grid)

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


def _faces(grid: SpaceTimeGrid) -> list[tuple[int, int]]:
    """Face families ``(axis, side)`` of the space-time box, in element
    order: two per free spatial axis, then the caps (axis 3)."""
    free = [not p for p in grid.periodic] + [True]
    return [(axis, side) for axis in range(4) if free[axis]
            for side in (0, 1)]


def _build_domain(grid: SpaceTimeGrid) -> Domain:
    """Boundary elements of every face family of ``grid``.

    A family's elements run over its other space-time axes, time slab first
    and then the spatial axes in ascending order.
    """
    shape = grid.shape
    lower = (0.0, 0.0, 0.0, grid.t0)
    upper = (*grid.extent, grid.t0 + grid.horizon)
    columns: dict[str, list[np.ndarray]] = {}
    for axis, side in _faces(grid):
        across = [d for d in (3, 0, 1, 2) if d != axis]
        cells = np.indices([shape[d] for d in across]).reshape(3, -1)
        n = cells.shape[1]
        near = np.empty((n, 4), dtype=np.int64)
        near[:, across] = cells.T
        near[:, axis] = (0, shape[axis] - 1)[side]
        nxt = near.copy()
        nxt[:, axis] = (1, shape[axis] - 2)[side]
        where = np.empty((n, 4))
        for d, i in zip(across, cells):
            where[:, d] = grid.axis_centers(d)[i]
        where[:, axis] = (lower, upper)[side][axis]
        conormal = np.zeros(7)
        conormal[1 + axis] = (-1.0, 1.0)[side]
        # the face measure: h per spatial axis along the face, dt along time
        weight = grid.h ** sum(d < 3 for d in across) \
            * grid.dt ** (3 in across)
        for name, value in (
                ("b_position", where[:, :3]),
                ("b_time", where[:, 3]),
                ("b_weight", np.full(n, weight)),
                ("b_conormal", np.tile(conormal, (n, 1))),
                ("b_kind", np.full(n, (1 + side) * (axis == 3))),
                ("b_axis", np.full(n, axis)),
                ("b_side", np.full(n, side)),
                ("b_near", near), ("b_next", nxt)):
            columns.setdefault(name, []).append(value)
    return Domain(grid=grid, **{name: np.concatenate(parts)
                                for name, parts in columns.items()})


def build_box_domain(extent, horizon: float, h: float, dt: float) -> Domain:
    """Axis-aligned box cross [0, horizon]: the rank-0 quotient."""
    return build_quotient_domain(LatticeSpec(), extent, horizon, h, dt)


def build_quotient_domain(spec: LatticeSpec, free_extent, horizon: float,
                          h: float, dt: float) -> Domain:
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
    grid = SpaceTimeGrid(h=h, dt=dt, dims=dims, nt=nt, lattice=spec)
    return _build_domain(grid)


def diff_field(values: np.ndarray, axis: int,
               grid: SpaceTimeGrid) -> np.ndarray:
    """First difference quotient along array axis ``axis`` of node values.

    Its space-time axis is ``axis % 4``: fields ``(*grid.shape, c)`` pass
    0..3, batches ``(m, *grid.shape)`` pass -4..-1.  The grid fixes the
    stencil: central second order inside and across the wrap of a
    periodized axis, one-sided second order at a free spatial edge, first
    order at the end slabs.
    """
    st = axis % 4
    if st < 3 and grid.periodic[st]:
        return (np.roll(values, -1, axis) - np.roll(values, 1, axis)) \
            / (2.0 * grid.h)
    return np.gradient(values, grid.spacing(st), axis=axis,
                       edge_order=2 if st < 3 else 1)


_E_ROWS = np.eye(7)[1:4]


def discrete_spatial_dirac(u: Field) -> Field:
    """sum_j ej * d_j u with left algebra multiplication."""
    g = u.grid
    out = np.zeros_like(u.values)
    for axis in range(3):
        du = diff_field(u.values, axis, g)
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
        out[..., 1 + axis] = diff_field(p, axis - 4, grid)
    return out


def discrete_grad(p: Field) -> Field:
    """Gradient of a scalar field as an e-vector field."""
    return Field(_grad(p.scalar(), p.grid), p.grid)


def _forward_gap_diffs(u: Field) -> list[np.ndarray]:
    """Forward difference quotients over cell gaps, one array per axis; a
    free axis has no gap across the wrap, so it is one node shorter."""
    g = u.grid
    out = []
    for axis in range(4):
        d = (np.roll(u.values, -1, axis) - u.values) / g.spacing(axis)
        if not (axis < 3 and g.periodic[axis]):
            d = d[(slice(None),) * axis + (slice(None, -1),)]
        out.append(d)
    return out


def _sobolev_gram(u: Field) -> Field:
    """Gram operator of the first-order Sobolev inner product: the adjoint
    of the forward differences, with the cropped end gap of a free axis
    padded back as zero."""
    g = u.grid
    out = u.values.copy()
    for axis, d in enumerate(_forward_gap_diffs(u)):
        if d.shape[axis] < g.shape[axis]:
            pad = [(0, 0)] * d.ndim
            pad[axis] = (0, 1)
            d = np.pad(d, pad)
        out += (np.roll(d, 1, axis) - d) / g.spacing(axis)
    return Field(out * g.cell_volume, g)


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


def _coords(grid: SpaceTimeGrid) -> np.ndarray:
    """Node coordinates x, y, z, t as a (*dims, nt, 4) array."""
    xs, ts = grid.node_positions()
    coords = np.empty(grid.shape + (4,))
    coords[..., :3] = xs[..., None, :]
    coords[..., 3] = ts
    return coords


def _write_rows(path, header: str, grid: SpaceTimeGrid,
                values: np.ndarray) -> None:
    """CSV with columns x,y,z,t followed by those of ``values``."""
    rows = _to_rows(np.concatenate([_coords(grid), values], axis=-1))
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
    """Inverse of export_field_csv for a known grid.  Row by row, the x, y,
    z and t columns must give the grid's node within 1e-6 of its spacings;
    a field from another grid (other spacings, permuted dims) is refused."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim == 1:
        data = data[None, :]
    if data.shape != (grid.n_cells, 11):
        raise ValueError(f"csv shape {data.shape} does not match grid")
    nodes = _to_rows(_coords(grid))
    tol = 1e-6 * np.array([grid.h] * 3 + [grid.dt])
    off = np.flatnonzero(~np.all(np.abs(data[:, :4] - nodes) <= tol, axis=1))
    if off.size:
        raise ValueError(f"row {off[0] + 1} is not at the grid's node x,y,z,t"
                         f" = {','.join(map(_fmt, nodes[off[0]]))}")
    return Field(_from_rows(data[:, 4:], grid), grid)
