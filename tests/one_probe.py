"""Reference operator stack that handles one probe at a time.

The library pushes blocks of probes through array-level cores.  These
functions keep the arithmetic of one field at a time, written out with
plain numpy FFT calls, so the tests can check the cores bit for bit
against an independent reference rather than against themselves.
"""

from functools import partial

import numpy as np

from wittflow.domain import Field, discrete_spatial_dirac
from wittflow.potentials import (_active_density, _active_mask, _assemble,
                                 _bergman_factorization, _cauchy,
                                 _face_groups, _live_rows, _probe_block,
                                 _teodorescu, _trace, _volume_conv)
from wittflow.witt_algebra import mul_arrays


def dense_apply(conv, values):
    """Convolution of one field ``data_shape + (7,)`` -> ``(L,) + ...``.

    Transforms the live input components in one call, runs every pair whose
    input is live and inverse-transforms the output components reached.
    """
    axes = tuple(range(1, 1 + len(conv.fft_shape)))
    live = np.any(values, axis=tuple(range(values.ndim - 1)))
    pairs = [(a, b, outs) for (a, b), outs in conv.pairs.items() if live[b]]
    reached = sorted({c for _, _, outs in pairs for c, _ in outs})
    out = np.zeros(conv.k_hat.shape[1:2] + conv.data_shape + (7,))
    if not reached:
        return out
    inputs = sorted({b for _, b, _ in pairs})
    full = np.zeros(conv.fft_shape + (len(inputs),))
    full[tuple(slice(n) for n in conv.data_shape)] = values[..., inputs]
    spectra = np.fft.rfftn(np.moveaxis(full, -1, 0), s=conv.fft_shape,
                           axes=axes)
    u_hat = dict(zip(inputs, spectra))
    row = {c: i for i, c in enumerate(reached)}
    r_hat = np.zeros((len(reached),) + conv.k_hat.shape[1:], dtype=complex)
    prod = np.empty(conv.k_hat.shape[1:], dtype=complex)
    for a, b, outs in pairs:
        np.multiply(conv.k_hat[a], u_hat[b], out=prod)
        for c, op in outs:
            r = r_hat[row[c]]
            op(r, prod, out=r)
    r = np.fft.irfftn(r_hat, s=conv.fft_shape,
                      axes=tuple(1 + axis for axis in axes))
    crop = (slice(None),) * 2 + tuple(slice(n) for n in conv.data_shape)
    out[..., reached] = np.moveaxis(r[crop], 0, -1)
    return out


def teodorescu(values, ctx):
    """Volume potential of one field, causal slabs zeroed."""
    g = ctx.domain.grid
    out = dense_apply(_volume_conv(ctx), values)[0] * g.cell_volume
    active = np.nonzero(np.any(values != 0.0, axis=(0, 1, 2, 4)))[0]
    first = active[0] if len(active) else g.nt
    out[..., :min(first + 1, g.nt), :] = 0.0
    return out


def cauchy(density, ctx):
    """Boundary potential of one density ``(n_boundary, 7)``."""
    d = ctx.domain
    sigma_bd = mul_arrays(d.b_conormal, density) * d.b_weight[:, None]
    out = np.zeros(d.grid.shape + (7,))
    for group in _face_groups(ctx):
        sigma = sigma_bd[group.idx]
        if not np.any(sigma):
            continue
        padded = np.zeros(group.conv.data_shape + (7,))
        padded[group.slot] = sigma
        out += np.moveaxis(dense_apply(group.conv, padded), 0, group.axis)
    return out


def trace(values, ctx):
    d = ctx.domain
    return (1.5 * values[tuple(d.b_near.T)]
            - 0.5 * values[tuple(d.b_next.T)])


def active_density(z, ctx):
    values = np.zeros((ctx.domain.n_boundary, 7))
    values[_active_mask(ctx)] = z
    return values


def bergman_column(ctx, z):
    """Boundary system ``trace o volume o boundary`` on one density."""
    return trace(teodorescu(cauchy(active_density(z, ctx), ctx), ctx),
                 ctx).reshape(-1)


def bergman_columns(ctx, z):
    """``trace o volume o boundary`` on a block of active densities
    ``(m, n_active)``, on every row, through the library's array cores."""
    v = _teodorescu(_cauchy(_active_density(z, ctx), ctx), ctx)
    return _trace(v, ctx).reshape(len(z), -1)


def bergman_system(ctx):
    """The Bergman boundary system probed column by column: one one-hot
    probe per active component, each through the whole operator stack, in
    the library's probe blocks, on every row.  The library probes only
    slab 0, shifts the probes in time and keeps only the live rows
    (``potentials._bergman_system``)."""
    n = int(np.sum(_active_mask(ctx)))
    return _assemble(partial(bergman_columns, ctx), n, _probe_block(ctx))


def live(a, ctx):
    """The rows of a full-row boundary system that the library keeps."""
    return a[np.repeat(_live_rows(ctx), 7)]


def pressure_column(ctx, p_flat):
    """Scalar system map ``p -> Re(Q T D p)`` with zero-mean gauge.

    The gradient takes the Dirac operator of the scalar through algebra
    products, and the Bergman projection solves one right side, its live
    rows, by GEMV.
    """
    grid = ctx.domain.grid
    p = p_flat.reshape(grid.shape)
    p = p - p.mean()
    dirac = discrete_spatial_dirac(Field.from_scalar(p, grid))
    v = teodorescu(Field.from_vector(dirac.vector(), grid).values, ctx)
    rhs = trace(teodorescu(v, ctx), ctx)[_live_rows(ctx)].reshape(-1)
    z = _bergman_factorization(ctx).solve(rhs)
    s = (v - cauchy(active_density(z, ctx), ctx))[..., 0]
    return (s - s.mean()).reshape(-1)
