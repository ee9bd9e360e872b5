import copy
import dataclasses
import functools

import numpy as np
import pytest

from wittflow.domain import (Field, build_box_domain, build_quotient_domain,
                             discrete_norm)
from wittflow.kernels import (KernelParams, fundamental_solution_array)
from wittflow.lattice import LatticeSpec, periodized_solution_batch
from wittflow.potentials import (BoundaryData, OperatorContext,
                                 bergman_complement, bergman_projection,
                                 bergman_projection_adjoint, boundary_trace,
                                 cauchy_adjoint, cauchy_transform,
                                 teodorescu, teodorescu_adjoint,
                                 trace_adjoint)
from wittflow.witt_algebra import mul_arrays


def box_ctx(n=3, nt=3, horizon=0.5, k=1.0):
    d = build_box_domain((1.0, 1.0, 1.0), horizon, 1.0 / n, horizon / nt)
    return OperatorContext(d, KernelParams(k))


def torus_ctx(n=4, nt=8, horizon=0.5, k=1.0, flags=(False, False, False)):
    spec = LatticeSpec(3, flags)
    d = build_quotient_domain(spec, [], horizon, 1.0 / n, horizon / nt)
    return OperatorContext(d, KernelParams(k))


def cylinder_ctx(n=3, nt=3, horizon=0.5, k=1.0, flags=(False,)):
    spec = LatticeSpec(len(flags), flags)
    free = [1.0] * (3 - spec.rank)
    d = build_quotient_domain(spec, free, horizon, 1.0 / n, horizon / nt)
    return OperatorContext(d, KernelParams(k))


def twisted_shift(values, grid, axis):
    """The grid's unit shift along a periodized axis: one cell forward,
    with the cell that wraps around negated on an antiperiodic axis."""
    out = np.roll(values, 1, axis)
    if grid.lattice.anti_flags[axis]:
        out[(slice(None),) * axis + (0,)] *= -1.0
    return out


def periodized_eval(ctx):
    def kernel_eval(dz, s):
        vals, _, _ = periodized_solution_batch(dz.reshape(-1, 3), s,
                                               ctx.params,
                                               ctx.domain.grid.lattice,
                                               ctx.quad_tol)
        return vals.reshape(dz.shape[:-1] + (7,))
    return kernel_eval


def brute_boundary(bd, ctx, kernel_eval):
    """Element-by-element reference for the boundary potential."""
    d = ctx.domain
    g = d.grid
    xs, ts = g.node_positions()
    pts = xs.reshape(-1, 3)
    sig = mul_arrays(d.b_conormal, bd.values) * d.b_weight[:, None]
    out = np.zeros((len(pts), g.nt, 7))
    for j, tau in enumerate(ts):
        s = tau - d.b_time
        for s_val in np.unique(s[s > 0.0]):
            sel = np.nonzero(s == s_val)[0]
            dz = pts[:, None, :] - d.b_position[None, sel, :]
            kv = kernel_eval(dz, float(s_val))
            out[:, j, :] += mul_arrays(kv, sig[None, sel, :]).sum(axis=1)
    return out.reshape(g.shape + (7,))


SPARSE_DENSITIES = ["lateral", "cap", "column"]


def make_density(ctx, shape, rng):
    """Boundary density of a given support shape.

    ``lateral`` lives on one lateral face family, ``cap`` on the initial
    cap, ``column`` is one active element in one component (a Bergman
    column).  The sparse shapes reach the convolutions' skips of empty face
    families and of zero components.
    """
    d = ctx.domain
    vals = np.zeros((d.n_boundary, 7))
    if shape == "dense":
        vals[:] = rng.standard_normal(vals.shape)
    elif shape == "lateral":
        lateral = d.b_axis < 3
        sel = (lateral & (d.b_axis == d.b_axis[lateral][0])
               & (d.b_side == 1))
        vals[sel] = rng.standard_normal((np.sum(sel), 7))
    elif shape == "cap":
        sel = (d.b_axis == 3) & (d.b_side == 0)
        vals[sel] = rng.standard_normal((np.sum(sel), 7))
    else:
        from wittflow.potentials import _active_mask
        active = np.flatnonzero(_active_mask(ctx))
        vals.reshape(-1)[rng.choice(active)] = 1.0
    return BoundaryData(vals, d)


def brute_volume(u, ctx, kernel_eval):
    """Triple-loop reference for the volume potential."""
    g = ctx.domain.grid
    xs, ts = g.node_positions()
    pts = xs.reshape(-1, 3)
    n = len(pts)
    vals = u.values.reshape(n, g.nt, 7)
    out = np.zeros((n, g.nt, 7))
    for j, tau in enumerate(ts):
        for i, t in enumerate(ts):
            if t >= tau:
                continue
            dz = pts[:, None, :] - pts[None, :, :]
            kv = kernel_eval(dz, tau - t)
            out[:, j, :] += np.einsum("yxab,xb->ya",
                                      _mulmat(kv), vals[:, i, :])
    return Field(out.reshape(g.shape + (7,)) * g.cell_volume, g)


def _mulmat(k_vals):
    from wittflow.witt_algebra import mul_matrix
    return mul_matrix(k_vals)


class TestVolumePotential:
    def test_matches_brute_force_box(self):
        ctx = box_ctx()
        rng = np.random.default_rng(0)
        u = Field(rng.standard_normal(ctx.domain.grid.shape + (7,)),
                  ctx.domain.grid)
        fast = teodorescu(u, ctx)

        def kernel_eval(dz, s):
            return fundamental_solution_array(
                dz, np.full(dz.shape[:-1], s), ctx.params.k)
        ref = brute_volume(u, ctx, kernel_eval)
        assert np.allclose(fast.values, ref.values, rtol=1e-12, atol=1e-13)

    def test_matches_brute_force_torus(self):
        ctx = torus_ctx(n=3, nt=3)
        rng = np.random.default_rng(1)
        u = Field(rng.standard_normal(ctx.domain.grid.shape + (7,)),
                  ctx.domain.grid)
        fast = teodorescu(u, ctx)

        def kernel_eval(dz, s):
            flat = dz.reshape(-1, 3)
            vals, _, _ = periodized_solution_batch(
                flat, s, ctx.params, ctx.domain.grid.lattice, ctx.quad_tol)
            return vals.reshape(dz.shape[:-1] + (7,))
        ref = brute_volume(u, ctx, kernel_eval)
        assert np.allclose(fast.values, ref.values, rtol=1e-10, atol=1e-11)

    def test_matches_brute_force_antiperiodic(self):
        ctx = torus_ctx(n=3, nt=3, flags=(True, False, True))
        rng = np.random.default_rng(2)
        u = Field(rng.standard_normal(ctx.domain.grid.shape + (7,)),
                  ctx.domain.grid)
        fast = teodorescu(u, ctx)

        def kernel_eval(dz, s):
            flat = dz.reshape(-1, 3)
            vals, _, _ = periodized_solution_batch(
                flat, s, ctx.params, ctx.domain.grid.lattice, ctx.quad_tol)
            return vals.reshape(dz.shape[:-1] + (7,))
        ref = brute_volume(u, ctx, kernel_eval)
        assert np.allclose(fast.values, ref.values, rtol=1e-10, atol=1e-11)

    def test_zero_input(self):
        ctx = box_ctx()
        out = teodorescu(Field.zeros(ctx.domain.grid), ctx)
        assert np.all(out.values == 0.0)

    def test_causality(self):
        # inputs vanishing before a time leave the output zero there
        ctx = box_ctx(n=3, nt=4)
        g = ctx.domain.grid
        rng = np.random.default_rng(3)
        vals = np.zeros(g.shape + (7,))
        vals[..., 2:, :] = rng.standard_normal(g.shape[:3] + (2, 7))
        out = teodorescu(Field(vals, g), ctx)
        assert np.all(out.values[..., :3, :] == 0.0)
        assert np.any(out.values[..., 3, :] != 0.0)

    def test_inert_slabs_skip_the_transform(self, monkeypatch):
        # a field active only in the last slab has an all-zero volume
        # potential, which comes back as exact zeros without running the
        # convolution
        from wittflow import potentials
        ctx = box_ctx(n=3, nt=4)
        g = ctx.domain.grid
        potentials._volume_conv(ctx)

        def refuse(*args):
            raise AssertionError("convolution ran on an inert field")
        monkeypatch.setattr(potentials._Convolution, "apply", refuse)
        vals = np.zeros(g.shape + (7,))
        vals[..., -1, :] = np.random.default_rng(13).standard_normal(
            g.dims + (7,))
        out = teodorescu(Field(vals, g), ctx).values
        assert np.array_equal(out, np.zeros_like(out))
        assert not np.signbit(out).any()

    def test_translation_equivariance_on_quotient(self):
        ctx = torus_ctx(n=4, nt=4)
        rng = np.random.default_rng(4)
        u = Field(rng.standard_normal(ctx.domain.grid.shape + (7,)),
                  ctx.domain.grid)
        shifted = Field(np.roll(u.values, 1, axis=0), ctx.domain.grid)
        out = teodorescu(u, ctx)
        out_shifted = teodorescu(shifted, ctx)
        assert np.allclose(np.roll(out.values, 1, axis=0),
                           out_shifted.values, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("flags", [(False,) * 3, (True,) * 3,
                                       (True, False, True), (True,),
                                       (True, False)],
                             ids=["torus_p", "torus_a", "torus_apa",
                                  "cylinder_a", "cylinder_ap"])
    def test_commutes_with_twisted_shift(self, flags):
        # symmetry of the quotient: T, and the boundary potential of the
        # trace, commute with the sign-twisted unit shift along every
        # periodized axis, to roundoff
        spec = LatticeSpec(len(flags), flags)
        nt = 8 if spec.rank == 3 else 6
        d = build_quotient_domain(spec, [0.75] * (3 - spec.rank), nt * 0.0625,
                                  0.25, 0.0625)
        ctx = OperatorContext(d, KernelParams(1.0))
        g = d.grid
        u = Field(np.random.default_rng(6).standard_normal(g.shape + (7,)), g)
        for op in (teodorescu, lambda v, c: cauchy_transform(
                boundary_trace(v, c), c)):
            tu = op(u, ctx).values
            scale = np.max(np.abs(tu))
            for axis, anti in enumerate(flags):
                moved = op(Field(twisted_shift(u.values, g, axis), g),
                           ctx).values
                assert np.max(np.abs(moved - twisted_shift(tu, g, axis))) \
                    <= 1e-14 * scale
                if anti:
                    # the twist matters: the plain shift does not commute
                    assert np.max(np.abs(moved - np.roll(tu, 1, axis))) \
                        > 1e-3 * scale

    def test_single_cell_input_is_kernel_translate(self):
        ctx = box_ctx(n=3, nt=3)
        g = ctx.domain.grid
        vals = np.zeros(g.shape + (7,))
        vals[1, 1, 1, 0, 2] = 1.0
        out = teodorescu(Field(vals, g), ctx)
        xs, ts = g.node_positions()
        y = xs[2, 0, 1]
        x_src = xs[1, 1, 1]
        kv = fundamental_solution_array(y - x_src,
                                        np.asarray(ts[2] - ts[0]),
                                        ctx.params.k)
        want = mul_arrays(kv, np.eye(7)[2]) * g.cell_volume
        assert np.allclose(out.values[2, 0, 1, 2], want, rtol=1e-12)


PERIODIZED = {
    "cylinder_p": lambda: cylinder_ctx(flags=(False,)),
    "cylinder_a": lambda: cylinder_ctx(flags=(True,)),
    "torus_apa": lambda: torus_ctx(n=3, nt=3, flags=(True, False, True)),
}


class TestBoundaryPotential:
    @staticmethod
    def check_direct_summation(ctx, density, seed):
        d = ctx.domain
        bd = make_density(ctx, density, np.random.default_rng(seed))
        fast = cauchy_transform(bd, ctx)
        assert np.any(fast.values != 0.0)
        g = d.grid
        xs, ts = g.node_positions()
        pts = xs.reshape(-1, 3)
        sig = mul_arrays(d.b_conormal, bd.values) * d.b_weight[:, None]
        ref = np.zeros((len(pts), g.nt, 7))
        for j, tau in enumerate(ts):
            dz = pts[:, None, :] - d.b_position[None, :, :]
            s = tau - d.b_time[None, :]
            kv = fundamental_solution_array(
                dz, np.broadcast_to(s, dz.shape[:-1]), ctx.params.k)
            ref[:, j, :] = mul_arrays(kv, sig[None, :, :]).sum(axis=1)
        assert np.allclose(fast.values.reshape(ref.shape), ref,
                           rtol=1e-12, atol=1e-13)

    @staticmethod
    def check_direct_summation_periodized(ctx, density, seed):
        # lateral faces wrap along the cylinder axis, the cap wraps on
        # every periodized axis (doubled with a sign twist when flagged)
        bd = make_density(ctx, density, np.random.default_rng(seed))
        fast = cauchy_transform(bd, ctx)
        assert np.any(fast.values != 0.0)
        ref = brute_boundary(bd, ctx, periodized_eval(ctx))
        assert np.allclose(fast.values, ref, rtol=1e-10, atol=1e-11)

    def test_matches_direct_summation(self):
        self.check_direct_summation(box_ctx(), "dense", 6)

    @pytest.mark.parametrize("density", SPARSE_DENSITIES)
    def test_matches_direct_summation_sparse(self, density):
        self.check_direct_summation(box_ctx(), density, 16)

    @pytest.mark.parametrize("make_ctx", PERIODIZED.values(),
                             ids=PERIODIZED.keys())
    def test_matches_direct_summation_periodized(self, make_ctx):
        self.check_direct_summation_periodized(make_ctx(), "dense", 14)

    @pytest.mark.parametrize("name,density", [
        (name, density) for name in PERIODIZED for density in SPARSE_DENSITIES
        if name != "torus_apa" or density != "lateral"  # no lateral faces
    ])
    def test_matches_direct_summation_periodized_sparse(self, name, density):
        self.check_direct_summation_periodized(PERIODIZED[name](), density, 17)

    def test_adjoint_rejects_foreign_field(self):
        ctx = box_ctx(n=3)
        other = box_ctx(n=4).domain.grid
        with pytest.raises(ValueError, match="context domain"):
            cauchy_adjoint(Field.zeros(other), ctx)

    @pytest.mark.parametrize("op", [teodorescu, teodorescu_adjoint,
                                    cauchy_adjoint, boundary_trace,
                                    bergman_projection, bergman_complement])
    def test_rejects_same_shaped_foreign_field(self, op):
        ctx = box_ctx(n=3)
        other = dataclasses.replace(ctx.domain.grid,
                                    dt=2.0 * ctx.domain.grid.dt)
        with pytest.raises(ValueError, match="context domain"):
            op(Field.zeros(other), ctx)

    def test_trace_adjoint_rejects_foreign_data(self):
        ctx = box_ctx(n=3)
        other = box_ctx(n=4).domain
        with pytest.raises(ValueError, match="context domain"):
            trace_adjoint(BoundaryData.zeros(other), ctx)

    def test_zero_density(self):
        ctx = box_ctx()
        out = cauchy_transform(BoundaryData.zeros(ctx.domain), ctx)
        assert np.all(out.values == 0.0)

    def test_terminal_cap_is_inert(self):
        ctx = box_ctx()
        d = ctx.domain
        vals = np.zeros((d.n_boundary, 7))
        vals[(d.b_axis == 3) & (d.b_side == 1)] = 1.0
        out = cauchy_transform(BoundaryData(vals, d), ctx)
        assert np.all(out.values == 0.0)


class TestTrace:
    def test_constant_field(self):
        ctx = box_ctx()
        c = np.array([1.0, -2.0, 0.5, 0.0, 3.0, 0.25, -1.0])
        vals = np.broadcast_to(c, ctx.domain.grid.shape + (7,)).copy()
        tr = boundary_trace(Field(vals, ctx.domain.grid), ctx)
        assert np.allclose(tr.values, c, rtol=1e-14)

    def test_linear_field_exact(self):
        ctx = box_ctx(n=4, nt=4)
        g = ctx.domain.grid
        xs, ts = g.node_positions()
        vals = np.zeros(g.shape + (7,))
        vals[..., 0] = (2.0 * xs[..., 0] - xs[..., 2])[..., None] \
            + 0.5 * ts[None, None, None, :]
        tr = boundary_trace(Field(vals, g), ctx)
        d = ctx.domain
        want = (2.0 * d.b_position[:, 0] - d.b_position[:, 2]
                + 0.5 * d.b_time)
        assert np.allclose(tr.values[:, 0], want, rtol=1e-12, atol=1e-12)


class TestBergman:
    def test_idempotency(self):
        ctx = torus_ctx()
        rng = np.random.default_rng(9)
        u = Field(rng.standard_normal(ctx.domain.grid.shape + (7,)),
                  ctx.domain.grid)
        pu = bergman_projection(u, ctx)
        ppu = bergman_projection(pu, ctx)
        num = discrete_norm(ppu - pu, "L2")
        den = discrete_norm(pu, "L2")
        assert num / den < 1e-6

    def test_complement(self):
        ctx = torus_ctx()
        rng = np.random.default_rng(10)
        u = Field(rng.standard_normal(ctx.domain.grid.shape + (7,)),
                  ctx.domain.grid)
        pu = bergman_projection(u, ctx)
        qu = bergman_complement(u, ctx)
        assert np.allclose(pu.values + qu.values, u.values, rtol=1e-12)

    def test_reproduces_resolved_boundary_potentials(self):
        # fields generated by boundary densities inside the resolved part
        # of the boundary system are fixed points of the projection
        from wittflow.potentials import (_active_density,
                                         _bergman_factorization)
        ctx = torus_ctx()
        fac = _bergman_factorization(ctx)
        rng = np.random.default_rng(13)
        weights = rng.standard_normal(min(len(fac.s), 20))
        z = fac.vt[:len(weights)].T @ weights
        bd = BoundaryData(_active_density(z[None], ctx)[0], ctx.domain)
        w = cauchy_transform(bd, ctx)
        pw = bergman_projection(w, ctx)
        err = discrete_norm(pw - w, "L2") / discrete_norm(w, "L2")
        assert err < 1e-8

    @pytest.mark.parametrize("make_ctx", [
        lambda: box_ctx(n=3, nt=3),
        lambda: cylinder_ctx(flags=(True,)),
        lambda: cylinder_ctx(flags=(True, False)),
        lambda: torus_ctx(n=3, nt=4)],
        ids=["box", "cylinder_a", "cylinder_ap", "torus_p"])
    def test_inactive_columns_vanish(self, make_ctx):
        # the active set drops only components whose boundary-system
        # column is roundoff: over all 7 * n_boundary components, no column
        # outside it rises above 1e-14 of the largest
        from wittflow.potentials import (_active_mask, _assemble, _cauchy,
                                         _probe_block, _system_rows,
                                         _teodorescu)
        ctx = make_ctx()
        nb = ctx.domain.n_boundary

        def columns(z):
            f = _cauchy(z.reshape(len(z), nb, 7), ctx)
            return _system_rows(_teodorescu(f, ctx), ctx)

        a = _assemble(columns, 7 * nb, _probe_block(ctx))
        norms = np.linalg.norm(a, axis=0)
        inactive = ~_active_mask(ctx).reshape(-1)
        assert inactive.any() and norms.max() > 0.0
        assert norms[inactive].max() <= 1e-14 * norms.max()

    def test_factorization_is_cached(self):
        # the context owns its factorization; later projections reuse it
        from wittflow.potentials import _bergman_factorization
        ctx = torus_ctx()
        rng = np.random.default_rng(12)
        u = Field(rng.standard_normal(ctx.domain.grid.shape + (7,)),
                  ctx.domain.grid)
        bergman_projection(u, ctx)
        fac = _bergman_factorization(ctx)
        bergman_projection_adjoint(u, ctx)
        bergman_projection(u, ctx)
        assert _bergman_factorization(ctx) is fac


BLOCK_GEOMETRIES = {
    "box": lambda: box_ctx(n=3, nt=3),
    "cylinder_a": lambda: cylinder_ctx(flags=(True,)),
    "torus_p": lambda: torus_ctx(n=3, nt=4),
    "torus_a": lambda: torus_ctx(n=3, nt=4, flags=(True, True, True)),
}


class TestBlocks:
    """Block cores against the one-probe reference in ``one_probe``."""

    @pytest.mark.parametrize("name", ["box", "torus_p", "torus_a"])
    def test_batched_convolution_matches_one_probe(self, name):
        # probes with different live components share one call
        import one_probe
        from wittflow.potentials import _face_groups, _volume_conv
        ctx = BLOCK_GEOMETRIES[name]()
        rng = np.random.default_rng(15)
        for conv in [_volume_conv(ctx)] + [
                grp.conv for grp in _face_groups(ctx)]:
            shape = conv.data_shape + (7,)
            block = np.zeros((6,) + shape)
            block[0][..., [1, 5]] = rng.standard_normal(shape[:-1] + (2,))
            block[1] = rng.standard_normal(shape)
            block[2][(1,) * len(conv.data_shape) + (3,)] = 1.0
            block[4][..., [1, 5]] = rng.standard_normal(shape[:-1] + (2,))
            block[5][..., 6] = rng.standard_normal(shape[:-1])
            out = conv.apply(block)
            assert out.shape == (6, conv.k_hat.shape[1]) + shape
            for i in range(len(block)):
                want = one_probe.dense_apply(conv, block[i])
                assert out[i].tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(BLOCK_GEOMETRIES))
    def test_field_operators_match_one_probe(self, name):
        import one_probe
        ctx = BLOCK_GEOMETRIES[name]()
        d = ctx.domain
        rng = np.random.default_rng(16)
        u = rng.standard_normal(d.grid.shape + (7,))
        u[..., 0, :] = 0.0
        bd = rng.standard_normal((d.n_boundary, 7))
        assert teodorescu(Field(u, d.grid), ctx).values.tobytes() \
            == one_probe.teodorescu(u, ctx).tobytes()
        assert cauchy_transform(BoundaryData(bd, d), ctx).values.tobytes() \
            == one_probe.cauchy(bd, ctx).tobytes()
        assert boundary_trace(Field(u, d.grid), ctx).values.tobytes() \
            == one_probe.trace(u, ctx).tobytes()

    @pytest.mark.parametrize("name, probes", [
        ("box_3x6", 12), ("torus_p_4x8", 18), ("torus_a_4x8", 8)])
    def test_probe_block_sizes(self, name, probes):
        # about 1 MiB of volume spectrum per block, but at least 8 probes:
        # by bytes alone the antiperiodic torus would get 2
        from wittflow.potentials import (_BLOCK_BYTES, _probe_block,
                                         _volume_conv)
        ctx = pruned_ctx(name)
        assert _probe_block(ctx) == probes
        by_bytes = _BLOCK_BYTES // _volume_conv(ctx).k_hat.nbytes
        assert probes == max(8, by_bytes)

    @pytest.mark.parametrize("name", sorted(BLOCK_GEOMETRIES))
    def test_bergman_system_matches_column_loop(self, name):
        import one_probe
        from functools import partial
        from wittflow.potentials import _active_mask, _assemble
        ctx = BLOCK_GEOMETRIES[name]()
        n = int(np.sum(_active_mask(ctx)))
        want = np.stack([one_probe.bergman_column(ctx, e)
                         for e in np.eye(n)], axis=1)
        for block in (1, 3, n + 4):
            a = _assemble(partial(one_probe.bergman_columns, ctx), n, block)
            assert a.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(BLOCK_GEOMETRIES))
    def test_bergman_system_is_independent_of_the_block(self, name,
                                                        monkeypatch):
        # the shifted-probe loop gives every column the same bits whatever
        # the probes that share its block
        from wittflow import potentials
        ctx = BLOCK_GEOMETRIES[name]()
        want = potentials._bergman_system(ctx)
        n = want.shape[1]
        for block in (1, 3, n + 4):
            monkeypatch.setattr(potentials, "_probe_block",
                                lambda _, block=block: block)
            assert_bitwise(potentials._bergman_system(ctx), want)

    def test_zero_densities_are_not_transformed(self, monkeypatch):
        # a Bergman probe lives on one face family: each family's
        # convolution forward-transforms one row per probe live on it (a
        # one-hot density has one live weighted component) and none for
        # the others, and an all-zero density comes back as exact +0.0
        from wittflow import potentials
        ctx = pruned_ctx("box_3x6")
        groups = potentials._face_groups(ctx)
        elem = np.nonzero(potentials._active_mask(ctx))[0]
        cols = np.linspace(0, len(elem) - 1, 40).astype(int)
        z = np.zeros((len(cols) + 1, len(elem)))
        z[np.arange(len(cols)), cols] = 1.0
        rows = {id(group.conv): 0 for group in groups}
        forward = potentials._Convolution._forward

        def counted(conv, values, lead):
            rows[id(conv)] += len(values)
            return forward(conv, values, lead)
        monkeypatch.setattr(potentials._Convolution, "_forward", counted)
        out = potentials._cauchy(potentials._active_density(z, ctx), ctx)
        for group in groups:
            live = np.count_nonzero(np.isin(elem[cols], group.idx))
            assert rows[id(group.conv)] == live
        assert sum(rows.values()) == len(cols)
        assert np.all(out[-1] == 0.0) and not np.signbit(out[-1]).any()


def cylinder_h4(flags, horizon=0.5):
    """The (p) or (a) 4x3x3x8 and the (p,p) or (a,p) 4x4x3x8 cylinders:
    h = 0.25, dt = 0.0625, free axes 0.75 long; 6 slabs at horizon 0.375."""
    spec = LatticeSpec(len(flags), flags)
    d = build_quotient_domain(spec, [0.75] * (3 - spec.rank), horizon, 0.25,
                              0.0625)
    return OperatorContext(d, KernelParams(1.0))


SHIFT_GEOMETRIES = {
    "box_3x6": lambda: pruned_ctx("box_3x6"),
    "cylinder_p": lambda: cylinder_h4((False,)),
    "cylinder_a": lambda: cylinder_h4((True,)),
    "cylinder_pp": lambda: cylinder_h4((False, False)),
    "cylinder_ap": lambda: cylinder_h4((True, False)),
}


class TestShiftedBergmanSystem:
    """The Bergman system assembled from slab-0 lateral probes shifted in
    time, on the live rows, against the probe-by-probe oracle
    ``one_probe.bergman_system``, which keeps every row."""

    @pytest.mark.parametrize("name", sorted(SHIFT_GEOMETRIES))
    def test_matches_probe_oracle(self, name):
        # time-translation invariance holds to roundoff: measured at most
        # 2.1e-16 of the largest entry on these five domains.  Every row
        # the row rule drops is exactly zero in the oracle: the volume
        # potential's slab 0 is a structural zero
        import one_probe
        from wittflow.potentials import _bergman_system, _live_rows
        ctx = SHIFT_GEOMETRIES[name]()
        want = one_probe.bergman_system(ctx)
        dropped = ~np.repeat(_live_rows(ctx), 7)
        assert dropped.any()
        assert np.all(want[dropped] == 0.0)
        got = _bergman_system(ctx)
        assert got.shape == one_probe.live(want, ctx).shape
        assert np.abs(got - one_probe.live(want, ctx)).max() \
            <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("name", ["torus_p_4x8", "torus_a_4x8"])
    def test_caps_only_factorization_is_the_oracle_bitwise(self, name):
        # no lateral faces, nothing to shift and no row to drop: the same
        # probes, blocks and SVD as the probe-by-probe assembly
        import one_probe
        from wittflow.potentials import (_bergman_factorization, _live_rows,
                                         _pseudo_inverse)
        ctx = pruned_ctx(name)
        assert _live_rows(ctx).all()
        fac = _bergman_factorization(ctx)
        want = _pseudo_inverse(one_probe.bergman_system(ctx))
        assert_bitwise(fac.u, want.u)
        assert_bitwise(fac.s, want.s)
        assert_bitwise(fac.vt, want.vt)

    def test_cylinder_factorization_is_gesdd_bitwise(self):
        # the (a,p) 4x4x3x8 cylinder's 2240x864 system: the QR, R's SVD
        # and the product q @ u_r give the bytes of gesdd on the whole
        # system, which takes the same steps inside for a tall matrix
        from wittflow.potentials import (_bergman_factorization,
                                         _bergman_system, _pseudo_inverse)
        ctx = SHIFT_GEOMETRIES["cylinder_ap"]()
        fac = _bergman_factorization(ctx)
        want = _pseudo_inverse(_bergman_system(ctx))
        assert_bitwise(fac.u, want.u)
        assert_bitwise(fac.s, want.s)
        assert_bitwise(fac.vt, want.vt)

    def test_box_factorization_is_gesdd_within_roundoff(self):
        # on the 3^3x6 box's 2268x918 system s and vt came out bitwise and
        # u 1.9e-16 off gesdd's (the product q @ u_r rounds differently);
        # the bound allows a few ulps of a unit vector's entries
        from wittflow.potentials import (_bergman_factorization,
                                         _bergman_system, _pseudo_inverse)
        ctx = pruned_ctx("box_3x6")
        fac = _bergman_factorization(ctx)
        want = _pseudo_inverse(_bergman_system(ctx))
        assert fac.u.shape == want.u.shape and len(want.s) == 592
        assert np.abs(fac.s - want.s).max() <= 1e-15 * want.s[0]
        assert np.abs(fac.u - want.u).max() <= 1e-15
        assert np.abs(fac.vt - want.vt).max() <= 1e-15

    def test_system_is_freed_before_the_svd(self, monkeypatch):
        # the factorization holds the only reference to the assembled
        # system and drops it after the QR factorization, so R's SVD runs
        # without it
        import weakref
        from wittflow import potentials
        ctx = box_ctx(n=3, nt=3)
        assemble, svd = potentials._bergman_system, np.linalg.svd
        refs, alive = [], []

        def assembled(ctx):
            a = assemble(ctx)
            refs.append(weakref.ref(a))
            return a

        def checked(a, *args, **kwargs):
            alive.append([ref() is not None for ref in refs])
            return svd(a, *args, **kwargs)
        monkeypatch.setattr(potentials, "_bergman_system", assembled)
        monkeypatch.setattr(np.linalg, "svd", checked)
        potentials._bergman_factorization(ctx)
        assert alive == [[False]]

    @pytest.mark.parametrize("nt", [2, 3])
    def test_short_horizons(self, nt):
        # slab nt - 2 is inert: at nt = 3 only slab 0 holds active lateral
        # elements, so nothing is shifted; at nt = 2 none does.  The 54
        # lateral elements of slab 0 have no rows: 108 of 162 elements
        # keep theirs at nt = 2, 162 of 216 at nt = 3
        import one_probe
        from wittflow.potentials import (_active_mask,
                                         _bergman_factorization,
                                         _bergman_system)
        ctx = box_ctx(n=3, nt=nt)
        d = ctx.domain
        lateral = d.b_axis < 3
        active = _active_mask(ctx)[lateral].any(axis=1)
        assert set(d.b_near[lateral][active, 3]) == set(range(nt - 2))
        a = _bergman_system(ctx)
        assert len(a) == {2: 756, 3: 1134}[nt]
        assert_bitwise(a, one_probe.live(one_probe.bergman_system(ctx), ctx))
        assert len(_bergman_factorization(ctx).s) > 0

    @pytest.mark.parametrize("n, nt, probes, columns", [
        (3, 6, 270, 918), (4, 8, 512, 2432)])
    def test_probe_count(self, n, nt, probes, columns, monkeypatch):
        # the slab-0 lateral and initial-cap probes: 216 + 54 on the 3^3x6
        # box and 384 + 128 on the 4^3x8 one, where every active component
        # took a probe before (1134 and 2816).  The slab-0 lateral elements
        # have no rows: 54 of 378 elements on 3^3x6, 96 of 896 on 4^3x8
        from wittflow import potentials
        cauchy = potentials._cauchy
        rows = []

        def counted(values, ctx, keep=potentials._ALL):
            rows.append(len(values))
            return cauchy(values, ctx, keep)
        monkeypatch.setattr(potentials, "_cauchy", counted)
        d = build_box_domain((0.25 * n,) * 3, 0.0625 * nt, 0.25, 0.0625)
        a = potentials._bergman_system(OperatorContext(d, KernelParams(1.0)))
        assert sum(rows) == probes
        assert a.shape == ({3: 2268, 4: 5600}[n], columns)


class TestMatrixLayout:
    """The dense systems are assembled column-major, and numpy's SVD gives
    the same factors, bit for bit and stride for stride, as for a
    row-major copy: the layout changes neither the pseudo-inverse nor the
    roundoff of any solve."""

    @pytest.mark.parametrize("system", ["bergman", "pressure"])
    @pytest.mark.parametrize("name", ["box_3x6", "torus_p_4x8",
                                      "torus_a_4x8"])
    def test_column_major_svd_is_the_row_major_one(self, name, system):
        from functools import partial
        from wittflow.potentials import (_assemble, _bergman_system,
                                         _probe_block)
        from wittflow.solver import _pressure_apply
        ctx = pruned_ctx(name)
        if system == "bergman":
            a = _bergman_system(ctx)
        else:
            a = _assemble(partial(_pressure_apply, ctx),
                          ctx.domain.grid.n_cells, _probe_block(ctx))
        assert a.flags.f_contiguous and not a.flags.c_contiguous
        got = np.linalg.svd(a, full_matrices=False)
        want = np.linalg.svd(np.ascontiguousarray(a), full_matrices=False)
        for x, y in zip(got, want):
            assert_bitwise(x, y)
            assert x.strides == y.strides


def embedded_forward(conv, values, lead):
    """Spectra the plain way: zero-embed the data in the full FFT box and
    transform every line of it with one ``rfftn``."""
    full = np.zeros(values.shape[:lead] + conv.fft_shape
                    + values.shape[-1:])
    full[(slice(None),) * lead
         + tuple(slice(n) for n in conv.data_shape)] = values
    return np.fft.rfftn(np.moveaxis(full, -1, 0), s=conv.fft_shape,
                        axes=conv._axes(lead))


def embedded_crop(conv, r_hat, lead):
    """Inverse the plain way: one ``irfftn`` of the full box, then crop."""
    r = np.fft.irfftn(r_hat, s=conv.fft_shape, axes=conv._axes(lead))
    crop = (slice(None),) * (lead + 1) + tuple(
        slice(n) for n in conv.data_shape)
    return np.moveaxis(r[crop], 0, -1)


def assert_bitwise(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


PRUNED_GEOMETRIES = {
    "box_3x6": lambda: OperatorContext(
        build_box_domain((0.75,) * 3, 0.375, 0.25, 0.0625),
        KernelParams(1.0)),
    "cylinder_ap": lambda: cylinder_ctx(flags=(True, False)),
    "torus_p_4x8": lambda: torus_ctx(),
    "torus_a_4x8": lambda: torus_ctx(flags=(True, True, True)),
}


@functools.cache
def pruned_ctx(name):
    return PRUNED_GEOMETRIES[name]()


def random_field(ctx, rng):
    g = ctx.domain.grid
    return Field(rng.standard_normal(g.shape + (7,)), g)


def random_density(ctx, rng):
    d = ctx.domain
    return BoundaryData(rng.standard_normal((d.n_boundary, 7)), d)


def normal_operator(u, ctx):
    """``solver._normal``, the composite's normal operator, on a field."""
    from wittflow.solver import _normal
    return Field(_normal(ctx, u.values).reshape(u.values.shape), u.grid)


# Each operator with its transpose, the draws of an input x and an output
# y, and the bar on |<A x, y> - <x, A^T y>| relative to <A x, y>.  The
# normal operator N is its own transpose.
TRANSPOSE_PAIRS = {
    "T": (teodorescu, teodorescu_adjoint, random_field, random_field,
          1e-12),
    "C": (cauchy_transform, cauchy_adjoint, random_density, random_field,
          1e-12),
    "trace": (boundary_trace, trace_adjoint, random_field, random_density,
              1e-12),
    "P": (bergman_projection, bergman_projection_adjoint, random_field,
          random_field, 1e-10),
    "N": (normal_operator, normal_operator, random_field, random_field,
          1e-10),
}

TRANSPOSE_GEOMETRIES = {
    "box_3x6": lambda: pruned_ctx("box_3x6"),
    "cylinder_a_4x3x3x6": lambda: cylinder_h4((True,), horizon=0.375),
    "cylinder_pp_4x4x3x8": lambda: cylinder_h4((False, False)),
    "torus_p_4x8": lambda: pruned_ctx("torus_p_4x8"),
    "torus_a_4x8": lambda: pruned_ctx("torus_a_4x8"),
}


@pytest.mark.parametrize("name", TRANSPOSE_GEOMETRIES)
def test_transpose_contract(name):
    # <A x, y> = <x, A^T y> for every pair, x and y drawn in turn from one
    # generator.  Measured relative to <A x, y>: T at most 3.0e-15, C
    # 1.1e-14, trace 3.9e-16; P 2.3e-11 (periodic torus) and N 2.4e-11
    # ((a) cylinder), whose solves go through the truncated pseudo-inverses
    ctx = TRANSPOSE_GEOMETRIES[name]()
    rng = np.random.default_rng(0)
    for pair, (op, transpose, draw_x, draw_y, bar) in \
            TRANSPOSE_PAIRS.items():
        x, y = draw_x(ctx, rng), draw_y(ctx, rng)
        lhs = float(np.sum(op(x, ctx).values * y.values))
        rhs = float(np.sum(x.values * transpose(y, ctx).values))
        assert abs(lhs - rhs) <= bar * abs(lhs), pair


class TestPrunedTransforms:
    """The convolutions transform only lines that can be nonzero and that
    the crop keeps; every kept line must come out bitwise as in the full
    zero-embedded transforms."""

    @pytest.mark.parametrize("name", sorted(PRUNED_GEOMETRIES))
    def test_transforms_match_embedded(self, name):
        from wittflow.potentials import _face_groups, _volume_conv
        ctx = pruned_ctx(name)
        rng = np.random.default_rng(17)
        for conv in [_volume_conv(ctx)] + [
                g.conv for g in _face_groups(ctx)]:
            shape = conv.data_shape + (7,)
            values = rng.standard_normal((3,) + shape)
            assert_bitwise(conv._forward(values, 1),
                           embedded_forward(conv, values, 1))
            spectrum = (1, 2) + conv.k_hat.shape[1:]
            r_hat = (rng.standard_normal(spectrum)
                     + 1j * rng.standard_normal(spectrum))
            assert_bitwise(conv._crop(r_hat, 2),
                           embedded_crop(conv, r_hat, 2))

    @pytest.mark.parametrize("name", sorted(PRUNED_GEOMETRIES))
    def test_apply_and_transpose_match_embedded(self, name):
        from wittflow.potentials import _face_groups, _volume_conv
        ctx = pruned_ctx(name)
        rng = np.random.default_rng(18)
        for conv in [_volume_conv(ctx)] + [
                g.conv for g in _face_groups(ctx)]:
            plain = copy.copy(conv)
            plain._forward = functools.partial(embedded_forward, conv)
            plain._crop = functools.partial(embedded_crop, conv)
            shape = conv.data_shape + (7,)
            layers = conv.k_hat.shape[1]
            one_hot = np.zeros((7,) + shape)
            for c in range(7):
                where = tuple(rng.integers(n) for n in conv.data_shape)
                one_hot[(c,) + where + (c,)] = 1.0
            dense = rng.standard_normal((2,) + shape)
            for block in (one_hot, dense):
                assert_bitwise(conv.apply(block), plain.apply(block))
            w_one_hot = np.zeros((layers,) + shape)
            w_one_hot[tuple(rng.integers(n) for n in w_one_hot.shape)] = 1.0
            w_dense = rng.standard_normal((layers,) + shape)
            for w in (w_one_hot, w_dense):
                assert_bitwise(conv.apply_transpose(w),
                               plain.apply_transpose(w))


KERNEL_SPECTRUM_GEOMETRIES = {
    "box_3x6": PRUNED_GEOMETRIES["box_3x6"],
    "cylinder_a": lambda: cylinder_ctx(flags=(True,)),
    "cylinder_ap": lambda: cylinder_ctx(flags=(True, False)),
    "torus_ppp_4x8": lambda: torus_ctx(),
    "torus_apa_4x8": lambda: torus_ctx(flags=(True, False, True)),
    "torus_aaa_4x8": lambda: torus_ctx(flags=(True, True, True)),
}


@pytest.mark.parametrize("name", sorted(KERNEL_SPECTRUM_GEOMETRIES))
def test_kernel_spectra_are_rfftn_of_the_tables(name, monkeypatch):
    # the kernel spectra come from the data transform: on a table that
    # fills its FFT box it must give numpy's rfftn byte for byte
    from wittflow import potentials
    tables = []
    init = potentials._Convolution.__init__

    def record(conv, table, data_shape):
        init(conv, table, data_shape)
        tables.append((conv, table))
    monkeypatch.setattr(potentials._Convolution, "__init__", record)
    ctx = KERNEL_SPECTRUM_GEOMETRIES[name]()
    potentials._volume_conv(ctx)
    potentials._face_groups(ctx)
    assert tables
    for conv, table in tables:
        assert table.shape[1:-1] == conv.fft_shape
        assert_bitwise(conv.k_hat,
                       np.fft.rfftn(np.moveaxis(table, -1, 0),
                                    s=conv.fft_shape, axes=conv._axes(1)))


class TestKeptComponents:
    """Operators asked for some output components compute those bitwise as
    in the full result, and leave exact zeros in the others."""

    KEEPS = [(0,), (1, 2, 3), (4, 6)]

    @staticmethod
    def assert_kept(got, full, keep):
        dropped = [c for c in range(7) if c not in keep]
        assert_bitwise(got[..., list(keep)], full[..., list(keep)])
        assert got.shape == full.shape
        assert np.all(got[..., dropped] == 0.0)
        assert not np.signbit(got[..., dropped]).any()

    @pytest.mark.parametrize("name", sorted(PRUNED_GEOMETRIES))
    def test_convolution_apply(self, name):
        from wittflow.potentials import _face_groups, _volume_conv
        ctx = pruned_ctx(name)
        rng = np.random.default_rng(19)
        for conv in [_volume_conv(ctx)] + [
                g.conv for g in _face_groups(ctx)]:
            shape = conv.data_shape + (7,)
            block = np.zeros((4,) + shape)
            block[0] = rng.standard_normal(shape)
            block[1][..., [1, 2, 3]] = rng.standard_normal(
                shape[:-1] + (3,))
            block[2][(0,) * len(conv.data_shape) + (5,)] = 1.0
            block[3][..., 0] = rng.standard_normal(shape[:-1])
            full = conv.apply(block)
            for keep in self.KEEPS:
                self.assert_kept(conv.apply(block, keep), full, keep)

    @pytest.mark.parametrize("name", sorted(BLOCK_GEOMETRIES))
    def test_block_operators(self, name):
        from wittflow.potentials import (_bergman_projection, _cauchy,
                                         _complement_volume, _teodorescu)
        ctx = BLOCK_GEOMETRIES[name]()
        d = ctx.domain
        rng = np.random.default_rng(20)
        u = rng.standard_normal((2,) + d.grid.shape + (7,))
        bd = rng.standard_normal((2, d.n_boundary, 7))
        for op, data in ((_teodorescu, u), (_cauchy, bd),
                         (_bergman_projection, u),
                         (_complement_volume, u)):
            full = op(data, ctx)
            for keep in self.KEEPS:
                self.assert_kept(op(data, ctx, keep), full, keep)


class TestPseudoInverse:
    def test_keeps_singular_values_above_relative_cutoff(self):
        from wittflow.potentials import _RCOND, _assemble, _pseudo_inverse
        rng = np.random.default_rng(14)
        q_out, _ = np.linalg.qr(rng.standard_normal((9, 9)))
        q_in, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        sigma = np.array([3.0, 1.0, 1e-3, 3.0 * _RCOND * 1.5,
                          3.0 * _RCOND * 0.5, 1e-14])
        a = q_out[:, :6] @ np.diag(sigma) @ q_in.T
        calls = []

        def apply(x):
            calls.append(x.copy())
            return x @ a.T
        fac = _pseudo_inverse(_assemble(apply, 6, 4))
        # one one-hot probe per unknown, in blocks of at most 4
        assert [len(x) for x in calls] == [4, 2]
        assert np.array_equal(np.concatenate(calls), np.eye(6))
        assert np.allclose(fac.s, sigma[:4], rtol=1e-6)
        assert fac.u.shape == (9, 4) and fac.vt.shape == (4, 6)
        # inverts the kept part, in both directions
        x = q_in[:, :2] @ np.array([0.7, -1.3])
        assert np.allclose(fac.solve(a @ x), x, atol=1e-12)
        y = q_out[:, :2] @ np.array([0.4, 2.0])
        assert np.allclose(fac.solve_transpose(a.T @ y), y, atol=1e-12)

    def test_zero_operator_raises(self):
        from wittflow.potentials import ConditioningError, _pseudo_inverse
        with pytest.raises(ConditioningError):
            _pseudo_inverse(np.zeros((4, 3)))


class TestContextValidation:
    def test_fields(self):
        # the spin structure is the grid's; the context states none
        assert [f.name for f in dataclasses.fields(OperatorContext)
                if f.init] == ["domain", "params", "quad_tol"]

    def test_refuses_field_of_another_spin_structure(self):
        ctx = torus_ctx(n=3, nt=3)
        twisted = build_quotient_domain(LatticeSpec(3, (True,) * 3), [], 0.5,
                                        1.0 / 3, 0.5 / 3).grid
        assert twisted.shape == ctx.domain.grid.shape
        for op in (teodorescu, teodorescu_adjoint, boundary_trace):
            with pytest.raises(ValueError, match="context domain"):
                op(Field.zeros(twisted), ctx)

    def test_frozen(self):
        # cached tables are built from these fields and must not go stale
        import dataclasses
        ctx = box_ctx()
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.quad_tol = 1e-6

    def test_bad_tolerances(self):
        d = build_box_domain((1.0, 1.0, 1.0), 0.5, 1.0 / 3, 0.25)
        with pytest.raises(ValueError):
            OperatorContext(d, KernelParams(1.0), quad_tol=0.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_non_finite_tolerance(self, tol):
        d = build_box_domain((1.0, 1.0, 1.0), 0.5, 1.0 / 3, 0.25)
        with pytest.raises(ValueError, match="quad_tol"):
            OperatorContext(d, KernelParams(1.0), quad_tol=tol)
