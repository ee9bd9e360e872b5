"""Discretized integral operators: volume potential (Teodorescu transform),
boundary potential (Cauchy transform), boundary trace, and the Bergman
projection pair.

All kernels are evaluated at (output - source) offsets, so only strictly
earlier time slabs ever contribute (the kernel is causal and vanishes on the
coincident slab, which also removes the singular cell from the quadrature).
Offsets live on structured ladders, so every operator is a space-time
convolution with an algebra-valued kernel table, applied through FFTs on
padded (free) or wrapped (periodized) axes.  Antiperiodic generators are
handled by doubling the axis with a sign twist.

The Bergman projection is computed algebraically from the boundary system
``trace o volume o boundary`` restricted to the causally active boundary
components (the terminal cap, and the conormal null directions of each
element, contribute nothing to the boundary potential and are excluded from
the square system).  Kernel tables, face groups and the pseudo-inverses are
built once per ``OperatorContext`` and live as long as it does.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import partial

import numpy as np

from .domain import Domain, Field, _check_finite
from .kernels import KernelParams, active_convention, fundamental_solution_array
from .lattice import LatticeSpec, periodized_solution_batch
from .witt_algebra import mul_arrays, mul_matrix, structure_tensor

__all__ = [
    "OperatorContext",
    "BoundaryData",
    "teodorescu",
    "teodorescu_adjoint",
    "cauchy_transform",
    "cauchy_adjoint",
    "boundary_trace",
    "trace_adjoint",
    "bergman_projection",
    "bergman_complement",
    "bergman_projection_adjoint",
]

_STRUCTURE = structure_tensor()


@dataclass
class BoundaryData:
    """Algebra-valued density on the boundary elements of a domain."""

    values: np.ndarray
    domain: Domain

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.domain.n_boundary, 7)
        if self.values.shape != expected:
            raise ValueError(
                f"boundary data shape {self.values.shape} != {expected}")

    @classmethod
    def zeros(cls, domain: Domain) -> "BoundaryData":
        return cls(np.zeros((domain.n_boundary, 7)), domain)


@dataclass(frozen=True)
class OperatorContext:
    """Domain, kernel parameter and lattice wiring for the operator stack.

    ``quad_tol`` drives the periodized-kernel shell summation.
    Construction requires a calibrated operator convention.  The context
    owns every kernel table and pseudo-inverse built for it (the Bergman
    boundary system here, the pressure system in the solver); it is frozen
    so that they cannot go stale.
    """

    domain: Domain
    params: KernelParams
    lattice: LatticeSpec = dataclass_field(default_factory=LatticeSpec)
    quad_tol: float = 1e-10
    _cache: dict = dataclass_field(default_factory=dict, init=False,
                                   repr=False, compare=False)

    def __post_init__(self):
        active_convention()
        if self.quad_tol <= 0:
            raise ValueError("quad_tol must be positive")
        g = self.domain.grid
        for d in range(3):
            expected = d < self.lattice.rank
            if g.periodic[d] != expected:
                raise ValueError(
                    f"axis {d}: grid periodicity {g.periodic[d]} does not "
                    f"match lattice rank {self.lattice.rank}")

    def _cached(self, name: str, build):
        if name not in self._cache:
            self._cache[name] = build()
        return self._cache[name]


def _check_field(u: Field, ctx: OperatorContext) -> None:
    if u.grid != ctx.domain.grid:
        raise ValueError("field does not live on the context domain")


# ---------------------------------------------------------------------------
# Offset geometry
# ---------------------------------------------------------------------------

def _axis_layout(n: int, periodic: bool, anti: bool) -> np.ndarray:
    """Offset values in cell units for one axis, in FFT order.

    Free axes store offsets -(n-1)..(n-1) in wrapped (mod 2n-1) order;
    periodic axes use the natural 0..n-1 circle; antiperiodic axes double
    the circle.
    """
    if periodic:
        return np.arange(2 * n if anti else n)
    size = 2 * n - 1
    offs = np.arange(size)
    return np.where(offs < n, offs, offs - size)


def _offset_ladders(ctx: OperatorContext):
    """Physical offsets of the kernel tables: a list of the three spatial
    ladders, and the time ladder."""
    g = ctx.domain.grid
    flags = ctx.lattice.anti_flags + (False,) * (3 - ctx.lattice.rank)
    xo = [_axis_layout(g.dims[d], g.periodic[d], flags[d]) * g.h
          for d in range(3)]
    return xo, _axis_layout(g.nt, False, False) * g.dt


def _eval_kernel_grid(ctx: OperatorContext, xo: list[np.ndarray],
                      t_offsets: np.ndarray) -> np.ndarray:
    """Kernel table over an offset meshgrid, periodized when rank > 0.

    ``xo`` gives per-axis offset coordinates (physical units); the result
    has shape (len(xo[0]), len(xo[1]), len(xo[2]), len(t_offsets), 7).
    """
    pts = np.stack(np.meshgrid(*xo, indexing="ij"), axis=-1)
    flat = pts.reshape(-1, 3)
    out = np.zeros((len(flat), len(t_offsets), 7))
    for j, s in enumerate(t_offsets):
        if s <= 0.0:
            continue
        if ctx.lattice.rank == 0:
            out[:, j, :] = fundamental_solution_array(flat, s, ctx.params.k)
        else:
            vals, _, _ = periodized_solution_batch(
                flat, float(s), ctx.params, ctx.lattice, ctx.quad_tol)
            out[:, j, :] = vals
    return out.reshape(pts.shape[:-1] + (len(t_offsets), 7))


# ---------------------------------------------------------------------------
# FFT convolution primitive
# ---------------------------------------------------------------------------

class _Convolution:
    """Convolution with a fixed algebra-valued kernel table.

    The table has shape (L, *fft_shape, 7).  Its leading axis is indexed
    directly (one output per index ``l``); the remaining axes hold wrapped
    offsets and are convolved by FFT:

    apply:      R_l(y) = sum_x mul(K_l(y - x), u(x))
    transpose:  R(x) = sum_l sum_y mul_matrix(K_l(y - x))^T w_l(y)

    Data of shape ``data_shape`` sits at the origin of each FFT axis.  Free
    axes are zero padded to hold every offset; periodized axes wrap
    naturally; antiperiodic axes wrap with doubled period (the kernel table
    itself carries the sign law, so plain zero padding of the data gives
    the single-counted twisted sum).  The product is contracted over the
    nonzero structure constants; all of them are +-1, so each term adds or
    subtracts one pointwise product of spectra.

    ``apply`` takes a leading batch axis of probes and skips what is
    exactly zero, per probe: it transforms only the input components that
    hold a nonzero value, runs only the pairs whose input component is
    live, and inverse-transforms only the output components some pair
    reached (the rest are exact zeros).  Probes that share their live
    components run together; the FFTs transform each line on its own, so a
    probe's spectra do not depend on the others in its block.  The skipped
    terms would add exact zeros, and every kept operation runs on the same
    operands in the same order, so the result is bitwise that of the dense
    contraction of one probe at a time.
    """

    def __init__(self, table: np.ndarray, data_shape):
        self.data_shape = tuple(data_shape)
        self.fft_shape = table.shape[1:-1]
        self.k_hat = np.fft.rfftn(np.moveaxis(table, -1, 0),
                                  s=self.fft_shape, axes=self._axes(1))
        live = np.any(table, axis=tuple(range(table.ndim - 1)))
        # (a, b) -> [(c, np.add or np.subtract)] for C[a, b, c] = +-1
        self.pairs: dict = {}
        for a, b, c in zip(*np.nonzero(_STRUCTURE)):
            if live[a]:
                op = np.add if _STRUCTURE[a, b, c] > 0 else np.subtract
                self.pairs.setdefault((a, b), []).append((c, op))

    def _axes(self, lead: int) -> tuple:
        """FFT axes of a component-first array with ``lead`` batch axes."""
        return tuple(range(1 + lead, 1 + lead + len(self.fft_shape)))

    def _forward(self, values: np.ndarray, lead: int) -> np.ndarray:
        """rfftn of origin-embedded data with ``lead`` leading batch axes.

        The last axis of ``values`` holds components; the result has them
        first.
        """
        full = np.zeros(values.shape[:lead] + self.fft_shape
                        + values.shape[-1:])
        full[(slice(None),) * lead
             + tuple(slice(n) for n in self.data_shape)] = values
        return np.fft.rfftn(np.moveaxis(full, -1, 0), s=self.fft_shape,
                            axes=self._axes(lead))

    def _crop(self, r_hat: np.ndarray, lead: int) -> np.ndarray:
        r = np.fft.irfftn(r_hat, s=self.fft_shape, axes=self._axes(lead))
        crop = (slice(None),) * (lead + 1) + tuple(
            slice(n) for n in self.data_shape)
        return np.moveaxis(r[crop], 0, -1)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """(m,) + data_shape + (7,) -> (m, L) + data_shape + (7,)."""
        spectrum = self.k_hat.shape[1:]
        out = np.zeros((len(values),) + spectrum[:1] + self.data_shape
                       + (7,))
        live = np.any(values, axis=tuple(range(1, values.ndim - 1)))
        signatures, which = np.unique(live, axis=0, return_inverse=True)
        for signature, sig_live in enumerate(signatures):
            pairs = [(a, b, outs) for (a, b), outs in self.pairs.items()
                     if sig_live[b]]
            reached = sorted({c for _, _, outs in pairs for c, _ in outs})
            if not reached:
                continue
            probes = np.flatnonzero(which == signature)
            # one component per transform, and the forward spectra freed
            # before the inverse ones: the heap keeps a block's peak working
            # set, and it adds to the peak RSS of the SVD that follows
            u_hat = {b: self._forward(values[probes, ..., b:b + 1], 1)[0]
                     for b in sorted({b for _, b, _ in pairs})}
            row = {c: i for i, c in enumerate(reached)}
            r_hat = np.zeros((len(reached), len(probes)) + spectrum,
                             dtype=complex)
            prod = np.empty((len(probes),) + spectrum, dtype=complex)
            for a, b, outs in pairs:
                np.multiply(self.k_hat[a], u_hat[b][:, None], out=prod)
                for c, op in outs:
                    r = r_hat[row[c]]
                    op(r, prod, out=r)
            del u_hat, prod
            for i, c in enumerate(reached):
                out[probes, ..., c] = self._crop(r_hat[i:i + 1], 2)[..., 0]
        return out

    def apply_transpose(self, values: np.ndarray) -> np.ndarray:
        """(L,) + data_shape + (7,) -> data_shape + (7,), contracting L."""
        w_hat = self._forward(values, 1)
        r_hat = np.zeros((7,) + w_hat.shape[2:], dtype=complex)
        prod = np.empty(w_hat.shape[2:], dtype=complex)
        for (a, b), outs in self.pairs.items():
            k_conj = np.conj(self.k_hat[a])
            for c, op in outs:
                np.einsum("l...,l...->...", k_conj, w_hat[c], out=prod)
                op(r_hat[b], prod, out=r_hat[b])
        return self._crop(r_hat, 0)


def _volume_conv(ctx: OperatorContext) -> _Convolution:
    def build():
        table = _eval_kernel_grid(ctx, *_offset_ladders(ctx))
        return _Convolution(table[None], ctx.domain.grid.shape)
    return ctx._cached("volume_conv", build)


def _active_slabs(values: np.ndarray) -> np.ndarray:
    """(m, nt) flags of the time slabs where each field of a block is
    nonzero."""
    return np.any(values != 0.0, axis=(1, 2, 3, 5))


def _teodorescu(values: np.ndarray, ctx: OperatorContext) -> np.ndarray:
    """Volume potential of a block of fields ``(m, *grid.shape, 7)``.

    Output slabs at or before each field's first active slab are exact
    zeros.  A field whose first active slab is the last one (or that is
    zero) is therefore all zeros and is not transformed.
    """
    g = ctx.domain.grid
    active = _active_slabs(values)
    first = np.where(active.any(axis=1), active.argmax(axis=1), g.nt)
    out = np.zeros(values.shape)
    run = np.flatnonzero(first < g.nt - 1)
    if len(run):
        out[run] = _volume_conv(ctx).apply(values[run])[:, 0]
    out *= g.cell_volume
    np.moveaxis(out, -2, 1)[np.arange(g.nt) <= first[:, None]] = 0.0
    return out


def teodorescu(u: Field, ctx: OperatorContext) -> Field:
    """Volume potential: kernel-weighted sum over all earlier cells.

    Strict causality is enforced structurally: output slabs at or before
    the first active input slab are exact zeros, not transform roundoff.
    """
    _check_field(u, ctx)
    return Field(_teodorescu(u.values[None], ctx)[0], u.grid)


def teodorescu_adjoint(w: Field, ctx: OperatorContext) -> Field:
    """Transpose of the volume potential in plain node coordinates.

    Anti-causal counterpart of the forward masking: slabs at or after the
    last active input slab are exact zeros.
    """
    _check_field(w, ctx)
    g = ctx.domain.grid
    out = _volume_conv(ctx).apply_transpose(w.values[None]) * g.cell_volume
    active = np.flatnonzero(_active_slabs(w.values[None])[0])
    if len(active):
        out[..., active[-1]:, :] = 0.0
    else:
        out[:] = 0.0
    return Field(out, w.grid)


# ---------------------------------------------------------------------------
# Boundary potential
# ---------------------------------------------------------------------------

@dataclass
class _FaceGroup:
    """Boundary elements of one face family and their convolution.

    ``axis`` is the field axis the convolution's leading index runs along:
    the face axis for a lateral family, time (3) for the initial cap.
    ``slot`` scatters the family's elements into a density shaped like the
    convolution's data.
    """

    axis: int
    idx: np.ndarray
    slot: tuple
    conv: _Convolution


def _face_groups(ctx: OperatorContext) -> list[_FaceGroup]:
    """Boundary elements grouped by family, each with its convolution.

    Lateral families are keyed (axis, side); the offset along the face axis
    is a half-shifted ladder indexed by the output layer, while the across
    axes and time convolve.  The initial cap indexes its table by the output
    time slab and convolves in space.  The terminal cap never contributes to
    the boundary potential (the kernel argument would need a negative time
    offset) and gets no group.
    """
    def build():
        d = ctx.domain
        g = d.grid
        xo, t_off = _offset_ladders(ctx)
        groups = []
        for axis in range(3):
            if g.periodic[axis]:
                continue
            across = [a for a in range(3) if a != axis]
            for side in (0, 1):
                mask = (d.b_kind == 0) & (d.b_axis == axis) & (d.b_side == side)
                idx = np.nonzero(mask)[0]
                n_axis = g.dims[axis]
                shift = 0.5 if side == 0 else 0.5 - n_axis
                xo_face = list(xo)
                xo_face[axis] = (np.arange(n_axis) + shift) * g.h
                table = _eval_kernel_grid(ctx, xo_face, t_off)
                shape = (g.dims[across[0]], g.dims[across[1]], g.nt)
                # moving the face axis first keeps the across axes ascending
                conv = _Convolution(np.moveaxis(table, axis, 0), shape)
                slot = (d.b_near[idx][:, across[0]],
                        d.b_near[idx][:, across[1]],
                        d.b_near[idx][:, 3])
                groups.append(_FaceGroup(axis, idx, slot, conv))
        idx = np.nonzero(d.b_kind == 1)[0]
        table = _eval_kernel_grid(ctx, xo, (np.arange(g.nt) + 0.5) * g.dt)
        conv = _Convolution(np.moveaxis(table, 3, 0), g.dims)
        slot = (d.b_near[idx][:, 0], d.b_near[idx][:, 1], d.b_near[idx][:, 2])
        groups.append(_FaceGroup(3, idx, slot, conv))
        return groups
    return ctx._cached("face_groups", build)


def _check_boundary_data(bd: BoundaryData, ctx: OperatorContext):
    if bd.domain is not ctx.domain and bd.domain.grid != ctx.domain.grid:
        raise ValueError("boundary data does not match the context domain")


def _cauchy(values: np.ndarray, ctx: OperatorContext) -> np.ndarray:
    """Boundary potential of a block of densities ``(m, n_boundary, 7)``.

    A face family is skipped for every density whose weighted values on it
    are exactly zero: its convolution would add exact zeros.  A Bergman
    column lives on a single family, so this saves all but one of the
    family convolutions there.
    """
    d = ctx.domain
    sigma_bd = mul_arrays(d.b_conormal, values) * d.b_weight[:, None]
    out = np.zeros((len(values),) + d.grid.shape + (7,))
    for group in _face_groups(ctx):
        sigma = sigma_bd[:, group.idx]
        live = np.flatnonzero(np.any(sigma, axis=(1, 2)))
        if not len(live):
            continue
        density = np.zeros((len(live),) + group.conv.data_shape + (7,))
        density[(slice(None),) + group.slot] = sigma[live]
        out[live] += np.moveaxis(group.conv.apply(density), 1,
                                 1 + group.axis)
    return out


def cauchy_transform(bd: BoundaryData, ctx: OperatorContext) -> Field:
    """Boundary potential: kernel times (conormal times density), weighted."""
    _check_boundary_data(bd, ctx)
    return Field(_cauchy(bd.values[None], ctx)[0], ctx.domain.grid)


def cauchy_adjoint(w: Field, ctx: OperatorContext) -> BoundaryData:
    """Transpose of the boundary potential in plain coordinates."""
    _check_field(w, ctx)
    d = ctx.domain
    out = np.zeros((d.n_boundary, 7))
    for group in _face_groups(ctx):
        density = group.conv.apply_transpose(
            np.moveaxis(w.values, group.axis, 0))
        out[group.idx] = density[group.slot]
    sig_t = np.swapaxes(mul_matrix(d.b_conormal), -1, -2)
    out = np.einsum("bij,bj->bi", sig_t, out) * d.b_weight[:, None]
    return BoundaryData(out, d)


def _trace(values: np.ndarray, ctx: OperatorContext) -> np.ndarray:
    """Face-centroid values ``(m, n_boundary, 7)`` of a block of fields."""
    d = ctx.domain
    near = (slice(None),) + tuple(d.b_near.T)
    nxt = (slice(None),) + tuple(d.b_next.T)
    return 1.5 * values[near] - 0.5 * values[nxt]


def boundary_trace(u: Field, ctx: OperatorContext) -> BoundaryData:
    """Field values extrapolated to face centroids (one-sided, 2nd order)."""
    _check_field(u, ctx)
    return BoundaryData(_trace(u.values[None], ctx)[0], ctx.domain)


def trace_adjoint(bd: BoundaryData, ctx: OperatorContext) -> Field:
    _check_boundary_data(bd, ctx)
    d = ctx.domain
    out = np.zeros(d.grid.shape + (7,))
    np.add.at(out, tuple(d.b_near.T), 1.5 * bd.values)
    np.add.at(out, tuple(d.b_next.T), -0.5 * bd.values)
    return Field(out, d.grid)


# ---------------------------------------------------------------------------
# Truncated-SVD pseudo-inverse
# ---------------------------------------------------------------------------

class ConditioningError(RuntimeError):
    """A dense system vanished identically, so it has no pseudo-inverse."""


# Relative singular-value cutoff shared by every pseudo-inverse.
_RCOND = 1e-10

# Volume-convolution spectrum per block of probes in the dense-system
# assembly: enough probes to amortize the per-call overhead of the operator
# stack, few enough that the block's temporaries stay small.
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class _PseudoInverse:
    """Truncated SVD ``u diag(s) vt`` of a dense system."""

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.vt.T @ ((self.u.T @ b) / self.s)

    def solve_transpose(self, z: np.ndarray) -> np.ndarray:
        return self.u @ ((self.vt @ z) / self.s)


def _probe_block(ctx: OperatorContext) -> int:
    """Probes per block when assembling a dense system on ``ctx``."""
    return max(1, _BLOCK_BYTES // _volume_conv(ctx).k_hat.nbytes)


def _assemble(apply_block, n: int, block: int) -> np.ndarray:
    """Dense matrix of a linear map on ``n`` unknowns, from one-hot probes.

    ``apply_block`` maps a block of probes ``(m, n)`` to their columns
    ``(m, rows)``; the probes go through it ``block`` at a time.
    """
    a = None
    for start in range(0, n, block):
        stop = min(start + block, n)
        probes = np.zeros((stop - start, n))
        probes[np.arange(stop - start), np.arange(start, stop)] = 1.0
        columns = apply_block(probes)
        if a is None:
            a = np.zeros((columns.shape[1], n))
        a[:, start:stop] = columns.T
    return a


def _pseudo_inverse(apply_block, n: int, block: int) -> _PseudoInverse:
    """Truncated SVD of the linear map ``apply_block`` on ``n >= 1`` unknowns.

    The system is assembled by ``_assemble``; the singular values above
    ``_RCOND`` times the largest are kept.  The factors are truncated by
    slicing: a boolean-mask copy would change their memory layout, hence
    the BLAS path and the roundoff of every solve.
    """
    u, s, vt = np.linalg.svd(_assemble(apply_block, n, block),
                             full_matrices=False)
    if s[0] == 0.0:
        raise ConditioningError(
            "system vanished identically; no pseudo-inverse exists")
    rank = int(np.sum(s > _RCOND * s[0]))
    return _PseudoInverse(u[:, :rank], s[:rank], vt[:rank])


# ---------------------------------------------------------------------------
# Bergman projection
# ---------------------------------------------------------------------------

def _active_mask(ctx: OperatorContext) -> np.ndarray:
    """Boundary components that can influence the boundary potential.

    Lateral conormals kill the three Witt components; the initial cap keeps
    only the scalar and the fd component; the terminal cap and the lateral
    elements of the final time slab are causally inert (strictly-future
    propagation).  Restricting the boundary system to the surviving
    components removes its structural null space.
    """
    d = ctx.domain
    nt = d.grid.nt
    mask = np.zeros((d.n_boundary, 7), dtype=bool)
    lateral = (d.b_kind == 0) & (d.b_near[:, 3] < nt - 1)
    mask[lateral, 0:4] = True
    cap0 = d.b_kind == 1
    mask[cap0, 0] = True
    mask[cap0, 5] = True
    return mask


def _active_density(z: np.ndarray, ctx: OperatorContext) -> np.ndarray:
    """Boundary densities ``(m, n_boundary, 7)`` holding the rows of ``z``
    on the active components, else 0."""
    values = np.zeros((len(z), ctx.domain.n_boundary, 7))
    values[:, _active_mask(ctx)] = z
    return values


def _trace_volume(values: np.ndarray, ctx: OperatorContext) -> np.ndarray:
    """Flat traced volume potentials ``(m, rows)`` of a block of fields."""
    v = _check_finite(_teodorescu(values, ctx))
    return _trace(v, ctx).reshape(len(values), -1)


def _bergman_columns(ctx: OperatorContext, z: np.ndarray) -> np.ndarray:
    """Boundary system ``trace o volume o boundary`` on a block of active
    densities ``(m, n_active)``."""
    f = _check_finite(_cauchy(_active_density(z, ctx), ctx))
    return _trace_volume(f, ctx)


def _bergman_factorization(ctx: OperatorContext) -> _PseudoInverse:
    """Pseudo-inverse of the boundary system ``trace o volume o boundary``.

    Columns are restricted to the causally active boundary components, rows
    keep every component of the traced volume potential (the system maps
    between different component sectors).  The truncated SVD keeps the
    projector exactly idempotent even when strict causality makes the
    system rank deficient.
    """
    return ctx._cached("bergman_factorization", lambda: _pseudo_inverse(
        partial(_bergman_columns, ctx), int(np.sum(_active_mask(ctx))),
        _probe_block(ctx)))


def _bergman_projection(values: np.ndarray,
                        ctx: OperatorContext) -> np.ndarray:
    """Bergman projection of a block of fields ``(m, *grid.shape, 7)``.

    Each field is solved on its own (one GEMV per field): a block solve by
    GEMM would round differently, and the box pressure amplifies a 1e-15
    relative change in this projection to 2e-8.
    """
    fac = _bergman_factorization(ctx)
    z = np.stack([fac.solve(b) for b in _trace_volume(values, ctx)])
    return _check_finite(_cauchy(_active_density(z, ctx), ctx))


def _complement_volume(values: np.ndarray,
                       ctx: OperatorContext) -> np.ndarray:
    """Bergman complement of the volume potential, Q T, on a block of
    fields ``(m, *grid.shape, 7)``."""
    v = _check_finite(_teodorescu(values, ctx))
    return _check_finite(v - _bergman_projection(v, ctx))


def bergman_projection(u: Field, ctx: OperatorContext) -> Field:
    """Projection onto the boundary-potential range (discrete kernel space).

    Solves the boundary system for the density whose boundary potential
    matches the traced volume potential of ``u``, then applies the boundary
    potential.
    """
    _check_field(u, ctx)
    return Field(_bergman_projection(u.values[None], ctx)[0], u.grid)


def bergman_complement(u: Field, ctx: OperatorContext) -> Field:
    """Complementary projection (identity minus the Bergman projection)."""
    return u - bergman_projection(u, ctx)


def bergman_projection_adjoint(w: Field, ctx: OperatorContext) -> Field:
    """Plain-coordinate transpose of the Bergman projection."""
    fac = _bergman_factorization(ctx)
    rhs = cauchy_adjoint(w, ctx).values[_active_mask(ctx)]
    z = fac.solve_transpose(rhs)
    bd = BoundaryData(z.reshape(-1, 7), ctx.domain)
    return teodorescu_adjoint(trace_adjoint(bd, ctx), ctx)
