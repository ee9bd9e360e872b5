"""Discretized integral operators: volume potential (Teodorescu transform),
boundary potential (Cauchy transform), boundary trace, and the Bergman
projection pair.

All kernels are evaluated at (output - source) offsets, so only strictly
earlier time slabs ever contribute (the kernel is causal and vanishes on the
coincident slab, which also removes the singular cell from the quadrature).
Offsets live on structured ladders, so every operator is a space-time
convolution with an algebra-valued kernel table, applied through FFTs on
padded (free) or wrapped (periodized) axes.  Antiperiodic generators are
handled by doubling the axis with a sign twist.  The spin structure is read
from the domain grid (``grid.lattice``); the context holds none of its own.

The Bergman projection is computed algebraically from the boundary system
``trace o volume o boundary`` restricted to the causally active boundary
components (the conormal null directions of each element, every element of
the final time slab and the lateral elements of slab nt-2 contribute nothing
to it), whose lateral columns are slab-0 probes shifted in time, and to the
causally live rows (the lateral elements of slab 0 trace only the volume
potential's slab 0, which is zero).  Kernel
tables, face groups and the pseudo-inverses are built once per
``OperatorContext`` and live as long as it does.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .domain import Domain, Field, _check_finite, _faces
from .kernels import KernelParams, active_convention, fundamental_solution_array
from .lattice import periodized_solution_batch
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

# Every algebra component: the default output set of the block operators.
_ALL = tuple(range(7))


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
    """Domain and kernel parameter for the operator stack.

    The spin structure is the domain grid's (``domain.grid.lattice``).
    ``quad_tol`` drives the periodized-kernel shell summation.
    Construction requires a calibrated operator convention.  The context
    owns every kernel table and pseudo-inverse built for it (the Bergman
    boundary system here, the pressure system in the solver); it is frozen
    so that they cannot go stale.
    """

    domain: Domain
    params: KernelParams
    quad_tol: float = 1e-10
    _cache: dict = dataclass_field(default_factory=dict, init=False,
                                   repr=False, compare=False)

    def __post_init__(self):
        active_convention()
        if not (self.quad_tol > 0 and np.isfinite(self.quad_tol)):
            raise ValueError("quad_tol must be positive and finite")

    def _cached(self, name: str, build):
        if name not in self._cache:
            self._cache[name] = build()
        return self._cache[name]


def _check_field(u: Field, ctx: OperatorContext) -> None:
    """Refuse a field from another grid, another spin structure included."""
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
    flags = g.lattice.anti_flags + (False,) * (3 - g.lattice.rank)
    xo = [_axis_layout(g.dims[d], g.periodic[d], flags[d]) * g.h
          for d in range(3)]
    return xo, _axis_layout(g.nt, False, False) * g.dt


def _eval_kernel_grid(ctx: OperatorContext, xo: list[np.ndarray],
                      t_offsets: np.ndarray) -> np.ndarray:
    """Kernel table over an offset meshgrid, periodized when rank > 0.

    ``xo`` gives per-axis offset coordinates (physical units); the result
    has shape (len(xo[0]), len(xo[1]), len(xo[2]), len(t_offsets), 7).
    A periodized table is one lattice sum over all its positive times.
    """
    pts = np.stack(np.meshgrid(*xo, indexing="ij"), axis=-1)
    flat = pts.reshape(-1, 3)
    out = np.zeros((len(flat), len(t_offsets), 7))
    spec = ctx.domain.grid.lattice
    live = np.flatnonzero(t_offsets > 0.0)
    if spec.rank == 0:
        for j in live:
            out[:, j, :] = fundamental_solution_array(flat, t_offsets[j],
                                                      ctx.params.k)
    else:
        vals, _, _ = periodized_solution_batch(
            flat, t_offsets[live], ctx.params, spec, ctx.quad_tol)
        out[:, live, :] = np.swapaxes(vals, 0, 1)
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

    The transforms skip lines too: the forward one never transforms a line
    that is all zero padding, and the inverse one never transforms a line
    that the crop to ``data_shape`` discards.  They keep numpy's ``rfftn``
    and ``irfftn`` axis orders, so every kept line is bitwise the one the
    full zero-embedded transforms give.

    ``apply`` also takes the output components its caller reads (``keep``):
    the pairs are cut to those that reach a kept component, and the other
    components come back as exact zeros.  A kept component gets the same
    terms in the same order as without the cut, so it is bitwise unchanged.
    """

    def __init__(self, table: np.ndarray, data_shape):
        self.data_shape = tuple(data_shape)
        self.fft_shape = table.shape[1:-1]
        self.k_hat = self._forward(table, 1)
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
        first.  numpy's own axis order (the last axis by rfft, then the
        others from the second-to-last down), but each axis is zero padded
        by its own transform, so only lines that can be nonzero are
        transformed.
        """
        axes = self._axes(lead)
        # contiguous first: rfft of a strided input is slower
        data = np.ascontiguousarray(np.moveaxis(values, -1, 0))
        spectra = np.fft.rfft(data, n=self.fft_shape[-1], axis=axes[-1])
        for axis, n in zip(axes[-2::-1], self.fft_shape[-2::-1]):
            spectra = np.fft.fft(spectra, n=n, axis=axis)
        return spectra

    def _crop(self, r_hat: np.ndarray, lead: int) -> np.ndarray:
        """irfftn of component-first spectra, cropped to ``data_shape``.

        numpy's own axis order (ifft from the first axis up, then irfft on
        the last), with each axis cropped right after its transform, so
        lines the crop would discard are never transformed.
        """
        axes = self._axes(lead)
        r = r_hat
        for axis, n, keep in zip(axes, self.fft_shape, self.data_shape):
            inverse = np.fft.irfft if axis == axes[-1] else np.fft.ifft
            r = inverse(r, n=n, axis=axis)[(slice(None),) * axis
                                           + (slice(keep),)]
        return np.moveaxis(r, 0, -1)

    def apply(self, values: np.ndarray, keep=_ALL) -> np.ndarray:
        """(m,) + data_shape + (7,) -> (m, L) + data_shape + (7,); output
        components outside ``keep`` are exact zeros."""
        spectrum = self.k_hat.shape[1:]
        out = np.zeros((len(values),) + spectrum[:1] + self.data_shape
                       + (7,))
        kept = {pair: [(c, op) for c, op in outs if c in keep]
                for pair, outs in self.pairs.items()}
        live = np.any(values, axis=tuple(range(1, values.ndim - 1)))
        signatures, which = np.unique(live, axis=0, return_inverse=True)
        for signature, sig_live in enumerate(signatures):
            pairs = [(a, b, outs) for (a, b), outs in kept.items()
                     if sig_live[b] and outs]
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


def _teodorescu(values: np.ndarray, ctx: OperatorContext,
                keep=_ALL) -> np.ndarray:
    """Volume potential of a block of fields ``(m, *grid.shape, 7)``.

    Output slabs at or before each field's first active slab are exact
    zeros.  A field whose first active slab is the last one (or that is
    zero) is therefore all zeros and is not transformed.  Only the output
    components in ``keep`` are computed; the others are exact zeros.
    """
    g = ctx.domain.grid
    active = _active_slabs(values)
    first = np.where(active.any(axis=1), active.argmax(axis=1), g.nt)
    out = np.zeros(values.shape)
    run = np.flatnonzero(first < g.nt - 1)
    if len(run):
        out[run] = _volume_conv(ctx).apply(values[run], keep)[:, 0]
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

    ``axis`` is the face axis, which the convolution's leading index runs
    along.  ``slot`` scatters the family's elements into a density shaped
    like the convolution's data.
    """

    axis: int
    idx: np.ndarray
    slot: tuple
    conv: _Convolution


def _face_groups(ctx: OperatorContext) -> list[_FaceGroup]:
    """Boundary elements grouped by face family, each with its convolution.

    The offset along the face axis is a half-shifted ladder indexed by the
    output layer, while the other space-time axes convolve.  The terminal
    cap gets no group: all its time offsets are negative, where the causal
    kernel vanishes.
    """
    def build():
        d = ctx.domain
        g = d.grid
        xo, t_off = _offset_ladders(ctx)
        groups = []
        for axis, side in _faces(g):
            n = g.shape[axis]
            shift = 0.5 if side == 0 else 0.5 - n
            ladders = xo + [t_off]
            ladders[axis] = (np.arange(n) + shift) * g.spacing(axis)
            if ladders[3].max() <= 0.0:
                continue
            idx = np.flatnonzero((d.b_axis == axis) & (d.b_side == side))
            across = [a for a in range(4) if a != axis]
            table = _eval_kernel_grid(ctx, ladders[:3], ladders[3])
            # moving the face axis first keeps the other axes ascending
            conv = _Convolution(np.moveaxis(table, axis, 0),
                                [g.shape[a] for a in across])
            slot = tuple(d.b_near[idx][:, across].T)
            groups.append(_FaceGroup(axis, idx, slot, conv))
        return groups
    return ctx._cached("face_groups", build)


def _check_boundary_data(bd: BoundaryData, ctx: OperatorContext):
    if bd.domain is not ctx.domain and bd.domain.grid != ctx.domain.grid:
        raise ValueError("boundary data does not match the context domain")


def _cauchy(values: np.ndarray, ctx: OperatorContext,
            keep=_ALL) -> np.ndarray:
    """Boundary potential of a block of densities ``(m, n_boundary, 7)``.

    Every density goes through every face family's convolution, which
    transforms nothing for a density that is exactly zero on the family
    and gives it exact +0.0: ``out`` starts at +0.0 and never holds -0.0,
    so adding those zeros changes no bit.  A Bergman probe lives on a
    single family, so all but one of its family convolutions cost only
    that addition.  Only the output components in ``keep`` are computed;
    the others are exact zeros.
    """
    d = ctx.domain
    sigma_bd = mul_arrays(d.b_conormal, values) * d.b_weight[:, None]
    out = np.zeros((len(values),) + d.grid.shape + (7,))
    for group in _face_groups(ctx):
        density = np.zeros((len(values),) + group.conv.data_shape + (7,))
        density[(slice(None),) + group.slot] = sigma_bd[:, group.idx]
        out += np.moveaxis(group.conv.apply(density, keep), 1,
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
# stack, few enough that the block's temporaries stay small.  A block holds
# at least _MIN_PROBES: the antiperiodic 4^3x8 torus, whose spectrum gives
# 2 by bytes alone, is dominated by per-block overhead there, and 8 probes
# stay well under the peak RSS that its pressure SVD sets.
_BLOCK_BYTES = 1 << 20
_MIN_PROBES = 8


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
    return max(_MIN_PROBES, _BLOCK_BYTES // _volume_conv(ctx).k_hat.nbytes)


def _assemble(apply_block, n: int, block: int) -> np.ndarray:
    """Dense matrix of a linear map on ``n`` unknowns, from one-hot probes.

    ``apply_block`` maps a block of probes ``(m, n)`` to their columns
    ``(m, rows)``; the probes go through it ``block`` at a time, and their
    columns are stored column-major.
    """
    a = None
    for start in range(0, n, block):
        stop = min(start + block, n)
        probes = np.zeros((stop - start, n))
        probes[np.arange(stop - start), np.arange(start, stop)] = 1.0
        columns = apply_block(probes)
        if a is None:
            a = np.zeros((columns.shape[1], n), order="F")
        a[:, start:stop] = columns.T
    return a


def _pseudo_inverse(a: np.ndarray) -> _PseudoInverse:
    """Truncated SVD of a dense system ``a`` with at least one column.

    The singular values above ``_RCOND`` times the largest are kept.  The
    factors are truncated by slicing: a boolean-mask copy would change their
    memory layout, hence the BLAS path and the roundoff of every solve.  The
    layout of ``a`` does not matter: numpy's SVD gives the same ``u``,
    ``s``, ``vt`` bytes and strides for a column-major matrix (as the
    assemblies build) and for a row-major copy of it.
    """
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s[0] == 0.0:
        raise ConditioningError(
            "system vanished identically; no pseudo-inverse exists")
    rank = int(np.sum(s > _RCOND * s[0]))
    return _PseudoInverse(u[:, :rank], s[:rank], vt[:rank])


# ---------------------------------------------------------------------------
# Bergman projection
# ---------------------------------------------------------------------------

def _active_mask(ctx: OperatorContext) -> np.ndarray:
    """Boundary components that can influence the boundary system.

    A component is inert where the element's conormal annihilates it (the
    boundary potential weights the density by the conormal product), where
    the element lies in the final time slab (its potential reaches only
    later slabs), or where a lateral element lies in slab ``nt - 2`` (its
    potential reaches only the final slab, whose volume potential is zero).
    This drops every column that vanishes in exact arithmetic.
    """
    def build():
        d = ctx.domain
        live = np.any(mul_matrix(d.b_conormal) != 0.0, axis=-2)
        last = d.grid.nt - 1 - (d.b_kind == 0)
        return live & (d.b_near[:, 3] < last)[:, None]
    return ctx._cached("active_mask", build)


def _live_rows(ctx: OperatorContext) -> np.ndarray:
    """Boundary elements whose 7 rows the boundary system keeps.

    The row rule beside ``_active_mask``'s column rule: the volume
    potential is zero on slab 0 (the kernel is causal), so an element whose
    trace reads only slab 0 (``b_near`` and ``b_next`` both there: a lateral
    element of slab 0) has rows that vanish identically, and it gets none.
    """
    def build():
        d = ctx.domain
        return np.maximum(d.b_near[:, 3], d.b_next[:, 3]) > 0
    return ctx._cached("live_rows", build)


def _active_density(z: np.ndarray, ctx: OperatorContext) -> np.ndarray:
    """Boundary densities ``(m, n_boundary, 7)`` holding the rows of ``z``
    on the active components, else 0."""
    values = np.zeros((len(z), ctx.domain.n_boundary, 7))
    values[:, _active_mask(ctx)] = z
    return values


def _system_rows(v: np.ndarray, ctx: OperatorContext) -> np.ndarray:
    """Flat traces ``(m, rows)`` of a block of fields on the live rows."""
    live = _live_rows(ctx)
    return _trace(v, ctx)[:, live].reshape(len(v), 7 * np.count_nonzero(live))


def _bergman_system(ctx: OperatorContext) -> np.ndarray:
    """Boundary system ``trace o volume o boundary`` from the active
    components to the live rows, assembled column-major from one slab of
    probes shifted in time.

    The kernel is causal and invariant under time translation, so the
    column of a component of an element in slab ``s`` is the trace of the
    volume potential of the same component of the element on the same face
    cell in slab 0, moved ``s`` slabs later with zeros before.  Each active
    column therefore has a probe (its slab-0 counterpart: itself for a cap,
    whose only active elements lie in slab 0, and for a slab-0 lateral
    element) and a shift (its slab).  The probes go one-hot through the
    operator stack in blocks of ``_probe_block``, and one loop over the
    blocks and the shifts fills every column.
    """
    d = ctx.domain
    nt = d.grid.nt
    elem, comp = np.nonzero(_active_mask(ctx))
    shift = d.b_near[elem, 3]
    # a face family's elements run slab first, so the first column of each
    # face cell and component is its slab-0 one, and these come in column
    # order
    cell = np.column_stack([d.b_axis[elem], d.b_side[elem],
                            d.b_near[elem, :3], comp])
    _, probed, probe = np.unique(cell, axis=0, return_index=True,
                                 return_inverse=True)
    probe = probe.reshape(-1)
    a = np.zeros((7 * np.count_nonzero(_live_rows(ctx)), len(elem)),
                 order="F")
    block = _probe_block(ctx)
    for start in range(0, len(probed), block):
        cols = probed[start:start + block]
        z = np.zeros((len(cols), len(elem)))
        z[np.arange(len(cols)), cols] = 1.0
        f = _check_finite(_cauchy(_active_density(z, ctx), ctx))
        v = _check_finite(_teodorescu(f, ctx))
        in_block = (probe >= start) & (probe < start + len(cols))
        for s in range(shift.max() + 1):
            target = np.flatnonzero(in_block & (shift == s))
            moved = np.zeros((len(target),) + v.shape[1:])
            moved[..., s:, :] = v[probe[target] - start, ..., :nt - s, :]
            a[:, target] = _system_rows(moved, ctx).T
    return a


def _bergman_factorization(ctx: OperatorContext) -> _PseudoInverse:
    """Pseudo-inverse of the boundary system (``_bergman_system``).

    Columns are restricted to the causally active boundary components and
    rows to the live ones; a live row keeps every component of the traced
    volume potential (the system maps between different component
    sectors).  The truncated SVD keeps the projector exactly idempotent
    even when strict causality makes the system rank deficient.
    """
    return ctx._cached("bergman_factorization",
                       lambda: _pseudo_inverse(_bergman_system(ctx)))


def _bergman_projection(values: np.ndarray, ctx: OperatorContext,
                        keep=_ALL) -> np.ndarray:
    """Bergman projection of a block of fields ``(m, *grid.shape, 7)``.

    Each field is solved on its own (one GEMV per field): a block solve by
    GEMM would round differently, which puts perfbench's seed-0
    torus_p_fixed_point pressure 2e-8 of its scale off the reference (the
    tolerance is 1e-8).  The density solve reads every component of the
    traced volume potential on the live rows; only the boundary potential
    it feeds is cut to the output components in ``keep`` (the others are
    exact zeros).
    """
    fac = _bergman_factorization(ctx)
    rows = _system_rows(_check_finite(_teodorescu(values, ctx)), ctx)
    z = np.stack([fac.solve(b) for b in rows])
    return _check_finite(_cauchy(_active_density(z, ctx), ctx, keep))


def _complement_volume(values: np.ndarray, ctx: OperatorContext,
                       keep=_ALL) -> np.ndarray:
    """Bergman complement of the volume potential, Q T, on a block of
    fields ``(m, *grid.shape, 7)``.

    The projection needs the whole volume potential, so ``T`` is computed
    in full; the projection's boundary potential and the result are cut to
    the output components in ``keep``, and the others are exact zeros.
    """
    v = _check_finite(_teodorescu(values, ctx))
    out = v - _bergman_projection(v, ctx, keep)
    out[..., [c not in keep for c in _ALL]] = 0.0
    return _check_finite(out)


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
    bd = BoundaryData.zeros(ctx.domain)
    bd.values[_live_rows(ctx)] = fac.solve_transpose(rhs).reshape(-1, 7)
    return teodorescu_adjoint(trace_adjoint(bd, ctx), ctx)
