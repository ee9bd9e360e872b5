import numpy as np
import pytest

from wittflow import verify
from wittflow.domain import (Field, SpaceTimeGrid, build_box_domain,
                             build_quotient_domain, discrete_div,
                             discrete_grad, discrete_norm,
                             discrete_spatial_dirac, export_field_csv,
                             export_solution_csv, load_field_csv)
from wittflow.kernels import KernelParams, apply_parabolic_dirac
from wittflow.lattice import LatticeSpec
from wittflow.witt_algebra import coeff_norm, mul_arrays


class TestGridValidation:
    def test_spacing_positive(self):
        with pytest.raises(ValueError):
            SpaceTimeGrid(h=0.0, dt=0.1, dims=(4, 4, 4), nt=4)

    def test_minimum_nodes(self):
        with pytest.raises(ValueError):
            SpaceTimeGrid(h=0.1, dt=0.1, dims=(2, 4, 4), nt=4)

    def test_periodic_axis_may_be_small(self):
        grid = SpaceTimeGrid(h=0.5, dt=0.1, dims=(2, 4, 4), nt=4,
                             periodic=(True, False, False))
        assert grid.dims == (2, 4, 4)


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
        for name in ("b_position", "b_time", "b_weight", "b_conormal",
                     "b_kind", "b_axis", "b_side", "b_near", "b_next"):
            assert np.array_equal(getattr(box, name), getattr(quotient, name))


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
        grid = SpaceTimeGrid(h=0.25, dt=0.125, dims=(4, 3, 5), nt=4,
                             periodic=periodic)
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

    def test_periodic_translation_invariance(self):
        grid = SpaceTimeGrid(h=0.25, dt=0.25, dims=(4, 4, 4), nt=4,
                             periodic=(True, True, True))
        rng = np.random.default_rng(3)
        u = Field(rng.standard_normal(grid.shape + (7,)), grid)
        du = discrete_spatial_dirac(u)
        shifted = Field(np.roll(u.values, 1, axis=0), grid)
        d_shifted = discrete_spatial_dirac(shifted)
        assert np.array_equal(np.roll(du.values, 1, axis=0),
                              d_shifted.values)


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
        from wittflow.domain import diff_field
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
                dg = diff_field(gs, axis, grid.h, False, 2)
                left += mul_arrays(dg, eye[1 + axis])
            left += mul_arrays(diff_field(gs, 3, grid.dt, False, 1), eye[4])
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
