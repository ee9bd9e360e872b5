import numpy as np
import pytest

from wittflow import verify
from wittflow.domain import Field, build_box_domain, discrete_norm
from wittflow.kernels import KernelParams
from wittflow.lattice import LatticeSpec


class TestOrderFit:
    def test_synthetic_slope(self):
        hs = [0.1, 0.05, 0.025]
        res = [2.0 * h ** 1.7 for h in hs]
        assert verify.fit_order(hs, res) == pytest.approx(1.7, rel=1e-10)

    def test_needs_three_levels(self):
        with pytest.raises(ValueError):
            verify.fit_order([0.1, 0.05], [1.0, 0.5])


def separate_stencil_record():
    """The convention record with every calibration stencil on its own 3^4
    grid: the kernel sampled and the operator applied once per candidate,
    point and level."""
    from wittflow.domain import SpaceTimeGrid
    from wittflow.kernels import (ConventionRecord, apply_parabolic_dirac,
                                  fundamental_solution_array)
    k = verify._CALIBRATION_K
    hs = verify._CALIBRATION_STENCILS
    orders, residuals = {}, {}
    for sign, power in ((1, 1), (1, 2), (-1, 1), (-1, 2)):
        per_point, res_levels = [], []
        for x0, t0 in verify._CALIBRATION_POINTS:
            res = []
            for h in hs:
                grid = SpaceTimeGrid(h=h, dt=h, dims=(3, 3, 3), nt=3)
                offs = (np.arange(3) - 1.0) * h
                pts = np.stack(np.meshgrid(
                    x0[0] + offs, x0[1] + offs, x0[2] + offs,
                    indexing="ij"), axis=-1)
                vals = fundamental_solution_array(
                    pts[..., None, :], t0 + offs[None, None, None, :], k)
                image = apply_parabolic_dirac(
                    Field(vals, grid), grid, KernelParams(k), sign, power)
                res.append(float(np.linalg.norm(image.values[1, 1, 1, 1])))
            per_point.append(verify.fit_order(hs, res))
            res_levels.append(res)
        key = f"{sign:+d},{power}"
        orders[key] = float(np.mean(per_point))
        residuals[key] = np.mean(res_levels, axis=0).tolist()
    winner = max(orders, key=orders.get)
    sign, power = map(int, winner.split(","))
    return ConventionRecord(
        fd_power=power, sign=sign,
        factorization_power=verify._factorization_power(sign, power),
        orders=orders, residuals=residuals)


class TestCalibration:
    def test_deterministic(self, calibrated_convention):
        again = verify.calibrate_convention()
        assert again.orders == calibrated_convention.orders
        assert again.fd_power == calibrated_convention.fd_power

    def test_stencil_residual_is_the_center_of_a_5_grid(self):
        # a center node reads only its own stencil, so every batched
        # calibration residual is bit for bit the center of a 5^4 grid
        from wittflow.domain import SpaceTimeGrid
        from wittflow.kernels import (apply_parabolic_dirac,
                                      fundamental_solution_array)
        k = verify._CALIBRATION_K
        candidates = ((1, 1), (1, 2), (-1, 1), (-1, 2))
        for h in verify._CALIBRATION_STENCILS:
            rows = verify._stencil_residuals(h, k, candidates)
            assert np.shape(rows) == (4, len(verify._CALIBRATION_POINTS))
            for (sign, power), row in zip(candidates, rows):
                for (x0, t0), got in zip(verify._CALIBRATION_POINTS, row):
                    grid = SpaceTimeGrid(h=h, dt=h, dims=(5, 5, 5), nt=5)
                    offs = (np.arange(5) - 2.0) * h
                    pts = np.stack(np.meshgrid(
                        x0[0] + offs, x0[1] + offs, x0[2] + offs,
                        indexing="ij"), axis=-1)
                    vals = fundamental_solution_array(
                        pts[..., None, :], t0 + offs[None, None, None, :], k)
                    image = apply_parabolic_dirac(
                        Field(vals, grid), grid, KernelParams(k), sign, power)
                    want = float(np.linalg.norm(image.values[2, 2, 2, 2]))
                    assert got == want

    def test_record_matches_separate_stencils(self, calibrated_convention):
        # the batched calibration against one 3^4 grid per (candidate,
        # point, level), 80 separate operator applications
        want = separate_stencil_record()
        assert verify.calibrate_convention() == want
        assert calibrated_convention == want

    def test_record_is_activated(self, calibrated_convention):
        from wittflow import kernels
        assert kernels.convention_is_set()
        assert kernels.active_convention().sign == 1


class TestPresets:
    def test_scalar_bump_boundary_trace_refines(self):
        traces = []
        for h, dt in ((0.0625, 0.0625), (0.03125, 0.03125)):
            d = build_box_domain((1.0, 1.0, 1.0), 0.5, h, dt)
            u = verify.scalar_bump_field(d.grid)
            near = tuple(d.b_near.T)
            nxt = tuple(d.b_next.T)
            tr = 1.5 * u.values[near] - 0.5 * u.values[nxt]
            traces.append(float(np.max(np.abs(tr))))
        assert traces[1] < 0.5 * traces[0]

    def test_divergence_free_preset_refines(self):
        from wittflow.domain import discrete_div
        ratios = []
        for h in (0.125, 0.0625):
            d = build_box_domain((1.0, 1.0, 1.0), 0.5, h, 0.125)
            u = verify.divergence_free_field(d.grid)
            div = discrete_div(u)
            ratios.append(discrete_norm(div, "L2") / discrete_norm(u, "L2"))
        assert ratios[1] < 0.5 * ratios[0]

    def test_random_field_determinism(self):
        d = build_box_domain((1.0, 1.0, 1.0), 0.5, 0.25, 0.25)
        a = verify.random_smooth_field(d.grid, np.random.default_rng(9))
        b = verify.random_smooth_field(d.grid, np.random.default_rng(9))
        assert np.array_equal(a.values, b.values)


class TestStudies:
    def test_zero_field_zero_residual(self):
        def zero_preset(grid):
            return Field.zeros(grid)
        study = verify.borel_pompeiu_study(levels=((3, 4), (4, 6), (5, 8)),
                                           preset=zero_preset)
        assert all(r == 0.0 for _, _, r in study.levels)

    def test_reconstruction_residual_structure(self):
        study = verify.borel_pompeiu_study(levels=((3, 6), (4, 10), (5, 14)))
        # against the identity target the residual is dominated by the
        # reproducing idempotent's complement and does not converge
        assert all(0.3 < r < 2.0 for _, _, r in study.levels)
        # against the reproducing idempotent the residual refines
        rep = study.extras["reproducer_levels"]
        assert rep[-1][2] < rep[0][2]
        reproduction = verify.volume_reproduction_study(study)
        assert reproduction.levels == rep
        assert reproduction.extras["identity_levels"] == study.levels
        assert reproduction.fitted_order == study.extras["reproducer_order"]
        assert reproduction.threshold_order == 1.0

    def test_study_serialization_stable(self):
        a = verify.borel_pompeiu_study(levels=((3, 6), (4, 10), (5, 14)))
        b = verify.borel_pompeiu_study(levels=((3, 6), (4, 10), (5, 14)))
        assert a.csv_rows() == b.csv_rows()
        assert a.verdict_line() == b.verdict_line()

    def test_bruteforce_rank0_exact(self):
        table = verify.lattice_bruteforce_check(
            spec=LatticeSpec(), params=KernelParams(1.0))
        assert table.passed
        assert all(row[3] == 0.0 for row in table.rows)

    def test_hodge_study_skips_none_by_default(self):
        study = verify.hodge_study(levels=((3, 6), (4, 10), (5, 12)),
                                   n_fields=3)
        assert study.extras["skipped"] == 0
        assert len(study.levels) == 3

    def test_gaussian_mass_tight(self):
        assert verify.gaussian_mass_check().passed


class TestFixedPointPreset:
    def test_admissible_by_construction(self):
        from wittflow.solver import convergence_check
        ctx, forcing, (c1, c2) = verify.fixed_point_preset(n=3, nt=6)
        f_norm = discrete_norm(forcing, "L2")
        admissible, w, l_const = convergence_check(c1, c2, f_norm)
        assert admissible
        assert l_const < 1.0
