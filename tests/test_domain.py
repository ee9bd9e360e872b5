import dataclasses

import numpy as np
import pytest

from wittflow import verify
from wittflow.domain import (Field, SpaceTimeGrid, _forward_gap_diffs,
                             _sobolev_gram, build_box_domain,
                             build_quotient_domain, diff_field, discrete_div,
                             discrete_grad, discrete_norm,
                             discrete_spatial_dirac, export_field_csv,
                             export_solution_csv, load_field_csv)
from wittflow.kernels import KernelParams, apply_parabolic_dirac
from wittflow.lattice import LatticeSpec
from wittflow.solver import convective_term
from wittflow.witt_algebra import coeff_norm, mul_arrays


class TestGridValidation:
    def test_spacing_positive(self):
        with pytest.raises(ValueError):
            SpaceTimeGrid(h=0.0, dt=0.1, dims=(4, 4, 4), nt=4)

    @pytest.mark.parametrize("field, value", [
        ("h", np.inf), ("h", np.nan), ("dt", np.inf), ("dt", np.nan)])
    def test_refuses_non_finite(self, field, value):
        # h = inf used to be accepted
        settings = dict(h=0.25, dt=0.1, dims=(4, 4, 4), nt=4)
        settings[field] = value
        with pytest.raises(ValueError, match="finite"):
            SpaceTimeGrid(**settings)

    def test_initial_time_is_zero_and_not_settable(self):
        # the benchmark's forcing reads grid.t0; no builder sets it
        grid = SpaceTimeGrid(h=0.25, dt=0.1, dims=(4, 4, 4), nt=4)
        assert grid.t0 == 0.0
        with pytest.raises(TypeError):
            SpaceTimeGrid(h=0.25, dt=0.1, dims=(4, 4, 4), nt=4, t0=0.0)

    def test_minimum_nodes(self):
        with pytest.raises(ValueError):
            SpaceTimeGrid(h=0.1, dt=0.1, dims=(2, 4, 4), nt=4)

    def test_periodic_axis_may_be_small(self):
        grid = SpaceTimeGrid(h=0.5, dt=0.1, dims=(2, 4, 4), nt=4,
                             lattice=LatticeSpec(1, (False,)))
        assert grid.dims == (2, 4, 4)

    def test_wrapping_axes_are_read_off_the_spin_structure(self):
        spec = LatticeSpec(2, (True, False))
        grid = SpaceTimeGrid(h=0.5, dt=0.1, dims=(2, 2, 4), nt=4,
                             lattice=spec)
        assert grid.periodic == (True, True, False)
        assert build_quotient_domain(spec, [2.0], 0.4, 0.5, 0.1).grid == grid
        # a wrap pattern that no quotient has cannot be written
        with pytest.raises(TypeError):
            SpaceTimeGrid(h=0.5, dt=0.1, dims=(4, 2, 4), nt=4,
                          periodic=(False, True, False))
        with pytest.raises(AttributeError):
            grid.periodic = (False, False, False)


class TestFieldArithmetic:
    def test_sum_and_difference_refuse_another_grid(self):
        grid = build_quotient_domain(LatticeSpec(3, (False,) * 3), [], 0.5,
                                     0.25, 0.125).grid
        twisted = build_quotient_domain(LatticeSpec(3, (True,) * 3), [], 0.5,
                                        0.25, 0.125).grid
        coarse = dataclasses.replace(grid, dt=2.0 * grid.dt)
        u = Field.zeros(grid)
        for other in (twisted, coarse):
            assert other.shape == grid.shape
            with pytest.raises(ValueError, match="different grids"):
                u + Field.zeros(other)
            with pytest.raises(ValueError, match="different grids"):
                u - Field.zeros(other)
        same = Field.zeros(dataclasses.replace(grid))
        assert (u + same).grid == grid and (u - same).grid == grid


class TestBoxDomain:
    def test_element_counts(self):
        d = build_box_domain((1.0, 1.0, 1.0), 1.0, 0.25, 0.25)
        lateral = np.sum(d.b_kind == 0)
        caps = np.sum(d.b_kind != 0)
        assert lateral == 6 * 16 * 4
        assert caps == 2 * 4 ** 3

    def test_outward_conormals(self):
        d = build_box_domain((1.0, 1.0, 1.0), 1.0, 0.25, 0.25)
        upper_x1 = (d.b_kind == 0) & (d.b_axis == 0) & (d.b_side == 1)
        assert np.all(d.b_conormal[upper_x1][:, 1] == 1.0)
        assert np.all(d.b_position[upper_x1][:, 0] == 1.0)
        bottom = d.b_kind == 1
        assert np.all(d.b_conormal[bottom][:, 4] == -1.0)
        top = d.b_kind == 2
        assert np.all(d.b_conormal[top][:, 4] == 1.0)

    def test_boundary_measures(self):
        d = build_box_domain((1.0, 2.0, 0.5), 0.75, 0.125, 0.25)
        area = 2 * (1 * 2 + 2 * 0.5 + 1 * 0.5)
        assert d.lateral_area() == pytest.approx(area * 0.75, rel=1e-12)
        assert d.cap_area() == pytest.approx(2 * 1 * 2 * 0.5, rel=1e-12)

    def test_conormal_unit_norm(self):
        d = build_box_domain((1.0, 1.0, 1.0), 0.5, 0.25, 0.25)
        norms = np.linalg.norm(d.b_conormal, axis=1)
        assert np.allclose(norms, 1.0)

    def test_degenerate_extent_rejected(self):
        with pytest.raises(ValueError):
            build_box_domain((1.0, 0.3, 1.0), 1.0, 0.25, 0.25)

    def test_extent_count_must_be_three(self):
        with pytest.raises(ValueError, match="3 free-axis extents"):
            build_box_domain((1.0, 1.0, 1.0, 1.0), 1.0, 0.25, 0.25)

    def test_box_is_rank0_quotient(self):
        extent = (1.0, 0.75, 1.25)
        box = build_box_domain(extent, 0.5, 0.25, 0.125)
        quotient = build_quotient_domain(LatticeSpec(), extent, 0.5, 0.25,
                                         0.125)
        assert box.grid == quotient.grid
        for name in BOUNDARY_ARRAYS:
            assert np.array_equal(getattr(box, name), getattr(quotient, name))


BOUNDARY_ARRAYS = ("b_position", "b_time", "b_weight", "b_conormal",
                   "b_kind", "b_axis", "b_side", "b_near", "b_next")


def enumerate_boundary(grid):
    """The boundary elements of ``grid`` written out one at a time: each
    lateral face ``(axis, side)`` slab by slab and cell by cell, then the
    initial and terminal caps cell by cell."""
    h, dt, dims, nt = grid.h, grid.dt, grid.dims, grid.nt
    rows = {name: [] for name in BOUNDARY_ARRAYS}

    def add(position, time, weight, component, side, kind, axis, near,
            nxt):
        conormal = [0.0] * 7
        conormal[component] = -1.0 if side == 0 else 1.0
        for name, value in zip(BOUNDARY_ARRAYS, (
                position, time, weight, conormal, kind, axis, side, near,
                nxt)):
            rows[name].append(value)

    for axis in range(3):
        if grid.periodic[axis]:
            continue
        a, b = [d for d in range(3) if d != axis]
        for side in (0, 1):
            for j in range(nt):
                for ia in range(dims[a]):
                    for ib in range(dims[b]):
                        position = [0.0] * 3
                        position[a] = (ia + 0.5) * h
                        position[b] = (ib + 0.5) * h
                        position[axis] = 0.0 if side == 0 else dims[axis] * h
                        near = [0] * 4
                        near[a], near[b], near[3] = ia, ib, j
                        near[axis] = 0 if side == 0 else dims[axis] - 1
                        nxt = list(near)
                        nxt[axis] = 1 if side == 0 else dims[axis] - 2
                        add(position, grid.t0 + (j + 0.5) * dt, h * h * dt,
                            1 + axis, side, 0, axis, near, nxt)
    for side in (0, 1):
        time = grid.t0 if side == 0 else grid.t0 + nt * dt
        for i1 in range(dims[0]):
            for i2 in range(dims[1]):
                for i3 in range(dims[2]):
                    position = [(i + 0.5) * h for i in (i1, i2, i3)]
                    slab = (0, 1) if side == 0 else (nt - 1, nt - 2)
                    add(position, time, h ** 3, 4, side, 1 + side, 3,
                        [i1, i2, i3, slab[0]], [i1, i2, i3, slab[1]])
    dtypes = dict.fromkeys(BOUNDARY_ARRAYS, float)
    dtypes.update(dict.fromkeys(("b_kind", "b_axis", "b_side", "b_near",
                                 "b_next"), np.int64))
    return {name: np.array(rows[name], dtype=dtypes[name])
            for name in BOUNDARY_ARRAYS}


class TestElementOrder:
    """The element order is the column order of the Bergman system."""

    @pytest.mark.parametrize("build", [
        lambda: build_box_domain((0.75, 1.0, 0.75), 0.375, 0.25, 0.125),
        lambda: build_quotient_domain(LatticeSpec(1, (True,)), [1.0, 1.0],
                                      0.5, 1.0 / 3.0, 0.125),
        lambda: build_quotient_domain(LatticeSpec(3, (False,) * 3), [],
                                      0.375, 0.25, 0.125)],
        ids=["box", "cylinder", "torus"])
    def test_matches_written_out_enumeration(self, build):
        d = build()
        want = enumerate_boundary(d.grid)
        for name in BOUNDARY_ARRAYS:
            got = getattr(d, name)
            assert got.dtype == want[name].dtype, name
            assert got.shape == want[name].shape, name
            assert got.tobytes() == want[name].tobytes(), name


class TestQuotientDomain:
    def test_rank3_has_only_caps(self):
        spec = LatticeSpec(3, (False,) * 3)
        d = build_quotient_domain(spec, [], 0.5, 0.25, 0.125)
        assert np.all(d.b_kind != 0)
        assert d.n_boundary == 2 * 4 ** 3

    def test_rank1_lateral_on_free_axes_only(self):
        spec = LatticeSpec(1, (False,))
        d = build_quotient_domain(spec, [1.0, 1.0], 0.5, 0.25, 0.125)
        lateral_axes = set(d.b_axis[d.b_kind == 0])
        assert lateral_axes == {1, 2}

    def test_node_count(self):
        spec = LatticeSpec(2, (False, False))
        d = build_quotient_domain(spec, [0.75], 0.5, 0.25, 0.125)
        assert d.grid.n_cells == 4 * 4 * 3 * 4

    def test_pitch_mismatch_rejected(self):
        spec = LatticeSpec(3, (False,) * 3)
        with pytest.raises(ValueError):
            build_quotient_domain(spec, [], 0.5, 0.3, 0.125)

    def test_one_slab_horizon_refused(self):
        # a horizon of one slab used to be doubled silently
        spec = LatticeSpec(3, (False,) * 3)
        with pytest.raises(ValueError, match="2 time slabs"):
            build_quotient_domain(spec, [], 0.0625, 0.25, 0.0625)

    def test_free_extent_count_exact(self):
        spec = LatticeSpec(1, (False,))
        with pytest.raises(ValueError, match="2 free-axis extents"):
            build_quotient_domain(spec, [1.0, 1.0, 1.0], 0.5, 0.25, 0.125)


class TestDiscreteOperators:
    def setup_method(self):
        self.grid = SpaceTimeGrid(h=0.125, dt=0.25, dims=(8, 8, 8), nt=4)
        self.xs, _ = self.grid.node_positions()

    def test_linear_field_divergence(self):
        vec = np.zeros(self.grid.shape + (3,))
        vec[..., 0] = self.xs[..., 0][..., None]
        u = Field.from_vector(vec, self.grid)
        div = discrete_div(u)
        inner = (slice(1, -1),) * 3
        assert np.allclose(div.scalar()[inner], 1.0, rtol=1e-12)

    def test_quadratic_gradient_exact_inside(self):
        p = Field.from_scalar(
            np.broadcast_to((self.xs[..., 0] ** 2)[..., None],
                            self.grid.shape), self.grid)
        grad = discrete_grad(p)
        inner = (slice(1, -1),) * 3
        want = np.broadcast_to((2.0 * self.xs[..., 0])[..., None],
                               self.grid.shape)[inner]
        assert np.allclose(grad.vector()[..., 0][inner], want, rtol=1e-12)
        assert np.allclose(grad.vector()[..., 1:][inner], 0.0, atol=1e-12)

    @pytest.mark.parametrize("periodic", [(False,) * 3, (True, False, False),
                                          (True,) * 3])
    def test_gradient_equals_dirac_of_scalar(self, periodic):
        # the gradient is the e-vector part of the Dirac operator applied
        # to the scalar part alone, bit for bit
        rank = sum(periodic)
        grid = SpaceTimeGrid(h=0.25, dt=0.125, dims=(4, 3, 5), nt=4,
                             lattice=LatticeSpec(rank, (False,) * rank))
        assert grid.periodic == periodic
        rng = np.random.default_rng(9)
        p = Field(rng.standard_normal(grid.shape + (7,)), grid)
        dirac = discrete_spatial_dirac(Field.from_scalar(p.scalar(), grid))
        want = Field.from_vector(dirac.vector(), grid)
        assert discrete_grad(p).values.tobytes() == want.values.tobytes()

    def test_rotational_field(self):
        vec = np.stack([
            np.broadcast_to((-self.xs[..., 1])[..., None], self.grid.shape),
            np.broadcast_to(self.xs[..., 0][..., None], self.grid.shape),
            np.zeros(self.grid.shape)], axis=-1)
        u = Field.from_vector(vec, self.grid)
        div = discrete_div(u)
        inner = (slice(1, -1),) * 3
        assert np.allclose(div.scalar()[inner], 0.0, atol=1e-12)
        rot = discrete_spatial_dirac(u)
        assert np.allclose(rot.vector()[..., 2][inner], 2.0, rtol=1e-12)

    @pytest.mark.parametrize("operator", [
        discrete_spatial_dirac, discrete_grad, convective_term,
        _sobolev_gram])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_periodic_translation_invariance(self, operator, axis):
        grid = SpaceTimeGrid(h=0.25, dt=0.25, dims=(4, 4, 4), nt=4,
                             lattice=LatticeSpec(3, (False,) * 3))
        rng = np.random.default_rng(3)
        u = Field(rng.standard_normal(grid.shape + (7,)), grid)
        if operator is convective_term:
            u = Field.from_vector(u.vector(), grid)
        shifted = Field(np.roll(u.values, 1, axis=axis), grid)
        assert np.array_equal(np.roll(operator(u).values, 1, axis=axis),
                              operator(shifted).values)
        assert discrete_norm(shifted, "W11") == pytest.approx(
            discrete_norm(u, "W11"), rel=1e-14)


class TestDifferenceOracle:
    """The difference layer against the formulas it replaced, bit for bit.

    Each stencil used to be chosen by its caller: wrapped central
    differences or ``np.gradient`` (edge order 2 in space, 1 in time),
    ``np.diff`` for the forward gaps, and an ``np.pad`` adjoint for the
    Sobolev Gram operator.  Antiperiodic grids are left out: their wraps
    are to gain the spin-structure sign.
    """

    GRIDS = {
        "box": ((3, 3, 3), 6, LatticeSpec()),
        "cylinder_p": ((4, 3, 3), 6, LatticeSpec(1, (False,))),
        "cylinder_pp": ((4, 4, 3), 6, LatticeSpec(2, (False,) * 2)),
        "torus_ppp": ((4, 4, 4), 8, LatticeSpec(3, (False,) * 3)),
    }

    @staticmethod
    def old_diff(values, axis, spacing, periodic, edge_order):
        if periodic:
            return (np.roll(values, -1, axis) - np.roll(values, 1, axis)) \
                / (2.0 * spacing)
        return np.gradient(values, spacing, axis=axis, edge_order=edge_order)

    def old_args(self, grid, axis):
        space = axis < 3
        return (grid.spacing(axis), space and grid.periodic[axis],
                2 if space else 1)

    @pytest.fixture(params=sorted(GRIDS))
    def field(self, request):
        dims, nt, spec = self.GRIDS[request.param]
        grid = SpaceTimeGrid(h=0.25, dt=0.0625, dims=dims, nt=nt,
                             lattice=spec)
        rng = np.random.default_rng(5)
        return Field(rng.standard_normal(grid.shape + (7,)), grid)

    def test_diff_field(self, field):
        grid = field.grid
        batch = field.values[..., 0][None] + np.arange(2.0)[:, None, None,
                                                             None, None]
        for axis in range(4):
            args = self.old_args(grid, axis)
            assert np.array_equal(diff_field(field.values, axis, grid),
                                  self.old_diff(field.values, axis, *args))
            assert np.array_equal(diff_field(batch, axis - 4, grid),
                                  self.old_diff(batch, axis - 4, *args))

    def test_grad_and_convective_term(self, field):
        grid = field.grid
        grad = np.zeros_like(field.values)
        conv = np.zeros_like(field.values)
        vel = field.values[..., 1:4]
        for axis in range(3):
            args = self.old_args(grid, axis)
            grad[..., 1 + axis] = self.old_diff(field.values[..., 0], axis,
                                                *args)
            conv[..., 1:4] += vel[..., axis:axis + 1] \
                * self.old_diff(vel, axis, *args)
        assert np.array_equal(discrete_grad(field).values, grad)
        assert np.array_equal(
            convective_term(Field.from_vector(vel, grid)).values, conv)

    def test_forward_gaps_and_sobolev_gram(self, field):
        grid = field.grid
        values = field.values
        gram = values.copy()
        for axis, got in enumerate(_forward_gap_diffs(field)):
            spacing = grid.spacing(axis)
            if axis < 3 and grid.periodic[axis]:
                d = (np.roll(values, -1, axis) - values) / spacing
                gram += (np.roll(d, 1, axis) - d) / spacing
            else:
                d = np.diff(values, axis=axis) / spacing
                pad = [(0, 0)] * values.ndim
                pad[axis] = (1, 0)
                lo = np.pad(d, pad)
                pad[axis] = (0, 1)
                gram += (lo - np.pad(d, pad)) / spacing
            assert np.array_equal(got, d)
        assert np.array_equal(_sobolev_gram(field).values,
                              gram * grid.cell_volume)


class TestNorms:
    def test_zero_field(self):
        grid = SpaceTimeGrid(h=0.25, dt=0.25, dims=(4, 4, 4), nt=4)
        u = Field.zeros(grid)
        assert discrete_norm(u, "L2") == 0.0
        assert discrete_norm(u, "W11") == 0.0

    def test_constant_on_unit_volume(self):
        grid = SpaceTimeGrid(h=0.25, dt=0.25, dims=(4, 4, 4), nt=4)
        c = np.array([1.0, 2.0, 0.0, 0.0, 3.0, 0.0, 1.0])
        u = Field(np.broadcast_to(c, grid.shape + (7,)).copy(), grid)
        assert discrete_norm(u, "L2") == pytest.approx(coeff_norm(c),
                                                       rel=1e-12)
        assert discrete_norm(u, "W11") == pytest.approx(coeff_norm(c),
                                                        rel=1e-12)

    def test_unknown_kind(self):
        grid = SpaceTimeGrid(h=0.25, dt=0.25, dims=(4, 4, 4), nt=4)
        with pytest.raises(ValueError):
            discrete_norm(Field.zeros(grid), "L3")


class TestStokesConsistency:
    def test_two_sided_identity_refines(self, calibrated_convention):
        """Volume pairing against boundary pairing on smooth test sections.

        Both sides of the two-sided integration identity are quadratures;
        with quaternion-valued sections the zero-order terms cancel
        algebraically and the gap is pure spatial discretization error
        (sections are static, so the levels expose the spatial order).
        """
        k = 1.0
        eye = np.eye(7)
        gaps = []
        hs = (1.0 / 12, 1.0 / 16, 1.0 / 24)
        for h in hs:
            d = build_box_domain((1.0, 1.0, 1.0), 0.5, h, 0.125)
            grid = d.grid
            xs, _ = grid.node_positions()
            x1 = xs[..., 0][..., None]
            x2 = xs[..., 1][..., None]
            x3 = xs[..., 2][..., None]
            one = np.ones((1, 1, 1, grid.nt))
            gs = np.zeros(grid.shape + (7,))
            ws = np.zeros(grid.shape + (7,))
            gs[..., 0] = np.cos(x1) * one
            gs[..., 1] = np.sin(x2 + 1.0) * one
            gs[..., 2] = (x3 ** 2 + 0.2) * one
            ws[..., 0] = np.sin(x1 + x3) * one
            ws[..., 2] = np.cos(2.0 * x2) * one
            ws[..., 3] = x1 * x2 * one
            w_fld = Field(ws, grid)
            # right action on g: differences multiplied from the right
            left = np.zeros_like(gs)
            for axis in range(3):
                left += mul_arrays(diff_field(gs, axis, grid), eye[1 + axis])
            left += mul_arrays(diff_field(gs, 3, grid), eye[4])
            left -= k * mul_arrays(gs, eye[5])
            dirac_w = apply_parabolic_dirac(w_fld, grid, KernelParams(k), 1)
            vol = grid.cell_volume
            volume_sum = (mul_arrays(left, ws).sum(axis=(0, 1, 2, 3))
                          + mul_arrays(gs, dirac_w.values).sum(
                              axis=(0, 1, 2, 3))) * vol
            near = tuple(d.b_near.T)
            nxt = tuple(d.b_next.T)
            g_tr = 1.5 * gs[near] - 0.5 * gs[nxt]
            w_tr = 1.5 * ws[near] - 0.5 * ws[nxt]
            boundary_sum = (mul_arrays(mul_arrays(g_tr, d.b_conormal), w_tr)
                            * d.b_weight[:, None]).sum(axis=0)
            gaps.append(float(np.linalg.norm(volume_sum - boundary_sum)))
        order = verify.fit_order(hs, gaps)
        assert order >= 1.8


class TestCsvExport:
    def test_roundtrip_and_header(self, tmp_path):
        grid = SpaceTimeGrid(h=1.0 / 3, dt=0.25, dims=(3, 3, 3), nt=4)
        rng = np.random.default_rng(4)
        u = Field(rng.standard_normal(grid.shape + (7,)), grid)
        path = tmp_path / "field.csv"
        export_field_csv(u, path)
        first = path.read_text().splitlines()[0]
        assert first == "x,y,z,t,s,v1,v2,v3,wf,wfd,wn"
        back = load_field_csv(path, grid)
        assert np.allclose(back.values, u.values, rtol=0, atol=0)

    def test_row_order_on_non_cubic_grid(self, tmp_path):
        # distinct axis lengths expose a swapped axis in the row order
        grid = SpaceTimeGrid(h=0.25, dt=0.125, dims=(3, 4, 5), nt=2)
        rng = np.random.default_rng(5)
        u = Field(rng.standard_normal(grid.shape + (7,)), grid)
        p = Field(rng.standard_normal(grid.shape + (7,)), grid)
        field_path = tmp_path / "field.csv"
        solution_path = tmp_path / "solution.csv"
        export_field_csv(u, field_path)
        export_solution_csv(u, p, solution_path)
        field = np.loadtxt(field_path, delimiter=",", skiprows=1)
        solution = np.loadtxt(solution_path, delimiter=",", skiprows=1)
        xs, ts = grid.node_positions()
        r = 0
        for j in range(grid.nt):
            for i1 in range(3):
                for i2 in range(4):
                    for i3 in range(5):
                        coords = list(xs[i1, i2, i3]) + [ts[j]]
                        assert list(field[r, :4]) == coords
                        assert list(solution[r, :4]) == coords
                        assert list(field[r, 4:]) == list(u.values[i1, i2,
                                                                   i3, j])
                        assert list(solution[r, 4:]) == (
                            list(u.values[i1, i2, i3, j, 1:4])
                            + [p.values[i1, i2, i3, j, 0]])
                        r += 1
        assert r == len(field) == len(solution)
        back = load_field_csv(field_path, grid)
        assert np.array_equal(back.values, u.values)

    @pytest.mark.parametrize("written, read, row", [
        ((0.25, 0.0625, (4, 4, 4), 8), (0.5, 0.125, (4, 4, 4), 8), 1),
        ((0.25, 0.125, (3, 4, 5), 2), (0.25, 0.125, (5, 4, 3), 2), 4)],
        ids=["other_spacing", "permuted_dims"])
    def test_refuses_field_of_another_grid(self, tmp_path, written, read,
                                           row):
        # the cell counts agree, so these used to load without a word
        source = SpaceTimeGrid(*written)
        path = tmp_path / "field.csv"
        export_field_csv(verify.vector_bump_field(source), path)
        with pytest.raises(ValueError,
                           match=f"^row {row} is not at the grid's node"):
            load_field_csv(path, SpaceTimeGrid(*read))

    @pytest.mark.parametrize("shift, loads", [(1e-7, True), (1e-5, False)])
    def test_coordinates_match_to_a_millionth_of_the_spacing(
            self, tmp_path, shift, loads):
        grid = SpaceTimeGrid(h=0.25, dt=0.125, dims=(3, 4, 5), nt=2)
        u = verify.vector_bump_field(grid)
        path = tmp_path / "field.csv"
        export_field_csv(u, path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        data[7, 3] += shift * grid.dt
        np.savetxt(path, data, fmt="%.17g", delimiter=",",
                   header="x,y,z,t,s,v1,v2,v3,wf,wfd,wn", comments="")
        if loads:
            assert np.array_equal(load_field_csv(path, grid).values,
                                  u.values)
        else:
            with pytest.raises(ValueError, match="^row 8 "):
                load_field_csv(path, grid)

    @pytest.mark.parametrize("domain", [
        lambda: build_quotient_domain(LatticeSpec(3, (True, False, True)),
                                      [], 0.5, 0.25, 0.0625),
        lambda: build_quotient_domain(LatticeSpec(1, (False,)),
                                      [0.75, 0.75], 0.375, 0.25, 0.125)],
        ids=["torus", "cylinder"])
    def test_exact_roundtrip_loads_on_quotients(self, tmp_path, domain):
        grid = domain().grid
        u = verify.vector_bump_field(grid)
        path = tmp_path / "field.csv"
        export_field_csv(u, path)
        assert np.array_equal(load_field_csv(path, grid).values, u.values)

    def test_deterministic_bytes(self, tmp_path):
        grid = SpaceTimeGrid(h=1.0 / 3, dt=0.25, dims=(3, 3, 3), nt=4)
        rng = np.random.default_rng(4)
        u = Field(rng.standard_normal(grid.shape + (7,)), grid)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_field_csv(u, a)
        export_field_csv(u, b)
        assert a.read_bytes() == b.read_bytes()

    def test_solution_view(self, tmp_path):
        grid = SpaceTimeGrid(h=1.0 / 3, dt=0.25, dims=(3, 3, 3), nt=4)
        u = verify.vector_bump_field(grid)
        p = verify.scalar_bump_field(grid)
        path = tmp_path / "solution.csv"
        export_solution_csv(u, p, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,z,t,u1,u2,u3,p"
        assert len(lines) == 1 + grid.n_cells
