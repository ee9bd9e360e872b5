import dataclasses

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
    return OperatorContext(d, KernelParams(k), spec)


def cylinder_ctx(n=3, nt=3, horizon=0.5, k=1.0, flags=(False,)):
    spec = LatticeSpec(len(flags), flags)
    free = [1.0] * (3 - spec.rank)
    d = build_quotient_domain(spec, free, horizon, 1.0 / n, horizon / nt)
    return OperatorContext(d, KernelParams(k), spec)


def periodized_eval(ctx):
    def kernel_eval(dz, s):
        vals, _, _ = periodized_solution_batch(dz.reshape(-1, 3), s,
                                               ctx.params, ctx.lattice,
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
        lateral = d.b_kind == 0
        sel = (lateral & (d.b_axis == d.b_axis[lateral][0])
               & (d.b_side == 1))
        vals[sel] = rng.standard_normal((np.sum(sel), 7))
    elif shape == "cap":
        sel = d.b_kind == 1
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
            vals, _, _ = periodized_solution_batch(flat, s, ctx.params,
                                                   ctx.lattice, ctx.quad_tol)
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
            vals, _, _ = periodized_solution_batch(flat, s, ctx.params,
                                                   ctx.lattice, ctx.quad_tol)
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

    def test_adjoint_identity(self):
        ctx = box_ctx()
        rng = np.random.default_rng(5)
        g = ctx.domain.grid
        u = Field(rng.standard_normal(g.shape + (7,)), g)
        w = Field(rng.standard_normal(g.shape + (7,)), g)
        lhs = float(np.sum(teodorescu(u, ctx).values * w.values))
        rhs = float(np.sum(u.values * teodorescu_adjoint(w, ctx).values))
        assert lhs == pytest.approx(rhs, rel=1e-12)

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

    @pytest.mark.parametrize("make_ctx", [
        lambda: cylinder_ctx(flags=(True,)),
        lambda: torus_ctx(n=3, nt=3, flags=(True, False, True)),
    ], ids=["cylinder_a", "torus_apa"])
    def test_adjoint_identity_periodized(self, make_ctx):
        ctx = make_ctx()
        d = ctx.domain
        rng = np.random.default_rng(15)
        bd = BoundaryData(rng.standard_normal((d.n_boundary, 7)), d)
        w = Field(rng.standard_normal(d.grid.shape + (7,)), d.grid)
        lhs = float(np.sum(cauchy_transform(bd, ctx).values * w.values))
        rhs = float(np.sum(bd.values * cauchy_adjoint(w, ctx).values))
        assert lhs == pytest.approx(rhs, rel=1e-12)

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
        vals[d.b_kind == 2] = 1.0
        out = cauchy_transform(BoundaryData(vals, d), ctx)
        assert np.all(out.values == 0.0)

    def test_adjoint_identity(self):
        ctx = box_ctx()
        d = ctx.domain
        rng = np.random.default_rng(7)
        bd = BoundaryData(rng.standard_normal((d.n_boundary, 7)), d)
        w = Field(rng.standard_normal(d.grid.shape + (7,)), d.grid)
        lhs = float(np.sum(cauchy_transform(bd, ctx).values * w.values))
        rhs = float(np.sum(bd.values * cauchy_adjoint(w, ctx).values))
        assert lhs == pytest.approx(rhs, rel=1e-12)


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

    def test_adjoint_identity(self):
        ctx = box_ctx()
        d = ctx.domain
        rng = np.random.default_rng(8)
        u = Field(rng.standard_normal(d.grid.shape + (7,)), d.grid)
        bd = BoundaryData(rng.standard_normal((d.n_boundary, 7)), d)
        lhs = float(np.sum(boundary_trace(u, ctx).values * bd.values))
        rhs = float(np.sum(u.values * trace_adjoint(bd, ctx).values))
        assert lhs == pytest.approx(rhs, rel=1e-12)


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

    def test_adjoint_identity(self):
        ctx = torus_ctx()
        rng = np.random.default_rng(11)
        g = ctx.domain.grid
        u = Field(rng.standard_normal(g.shape + (7,)), g)
        w = Field(rng.standard_normal(g.shape + (7,)), g)
        lhs = float(np.sum(bergman_projection(u, ctx).values * w.values))
        rhs = float(np.sum(u.values
                           * bergman_projection_adjoint(w, ctx).values))
        assert lhs == pytest.approx(rhs, rel=1e-10)

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

    @pytest.mark.parametrize("name", sorted(BLOCK_GEOMETRIES))
    def test_bergman_system_matches_column_loop(self, name):
        import one_probe
        from functools import partial
        from wittflow.potentials import (_active_mask, _assemble,
                                         _bergman_columns)
        ctx = BLOCK_GEOMETRIES[name]()
        n = int(np.sum(_active_mask(ctx)))
        want = np.stack([one_probe.bergman_column(ctx, e)
                         for e in np.eye(n)], axis=1)
        for block in (1, 3, n + 4):
            a = _assemble(partial(_bergman_columns, ctx), n, block)
            assert a.tobytes() == want.tobytes()


class TestPseudoInverse:
    def test_keeps_singular_values_above_relative_cutoff(self):
        from wittflow.potentials import _RCOND, _pseudo_inverse
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
        fac = _pseudo_inverse(apply, 6, 4)
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
            _pseudo_inverse(lambda x: np.zeros((len(x), 4)), 3, 2)


class TestContextValidation:
    def test_periodicity_mismatch(self):
        d = build_box_domain((1.0, 1.0, 1.0), 0.5, 1.0 / 3, 0.25)
        with pytest.raises(ValueError, match="periodicity"):
            OperatorContext(d, KernelParams(1.0),
                            LatticeSpec(3, (False,) * 3))

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
