import math

import numpy as np
import pytest

from wittflow import kernels, verify
from wittflow.domain import Field, SpaceTimeGrid
from wittflow.kernels import (KernelParams, SpaceTimePoint,
                              apply_parabolic_dirac, dual_fundamental_solution,
                              factorization_residual, fundamental_solution,
                              fundamental_solution_array)
from wittflow.witt_algebra import mul_arrays


def transcribed_kernel(x, t, k):
    """Independent scalar transcription of the closed form (oracle path)."""
    if t <= 0.0:
        return np.zeros(7)
    r2 = sum(c * c for c in x)
    pref = (math.sqrt(k) * math.exp(-k * r2 / (4.0 * t))
            / (2.0 * math.sqrt(math.pi * t)) ** 3)
    out = np.zeros(7)
    for j in range(3):
        out[1 + j] = -pref * k * x[j] / (2.0 * t)
    out[4] = pref * (k * r2 / (4.0 * t * t) - 3.0 / (2.0 * t))
    out[5] = pref * k
    return out


class TestClosedForm:
    def test_causality(self):
        for t in (-1.0, -0.25, 0.0):
            val = fundamental_solution(SpaceTimePoint((0.3, 0.1, -0.2), t),
                                       KernelParams(1.0))
            assert np.all(val == 0.0)
        val = dual_fundamental_solution(SpaceTimePoint((0.3, 0.1, -0.2),
                                                       -1.0))
        assert np.all(val == 0.0)

    def test_vector_part_vanishes_at_origin(self):
        val = fundamental_solution(SpaceTimePoint((0.0, 0.0, 0.0), 0.5),
                                   KernelParams(1.0))
        assert np.all(val[1:4] == 0.0)
        assert val[4] != 0.0 and val[5] != 0.0

    def test_against_independent_transcription(self):
        p = SpaceTimePoint((1.0, 0.0, 0.0), 0.25)
        got = fundamental_solution(p, KernelParams(1.0))
        want = transcribed_kernel(p.x, p.t, 1.0)
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    def test_against_transcription_general_k(self):
        p = SpaceTimePoint((0.4, -0.3, 0.7), 0.6)
        for k in (0.5, 1.0, 2.0, 3.5):
            got = fundamental_solution(p, KernelParams(k))
            want = transcribed_kernel(p.x, p.t, k)
            assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    def test_dual_at_spatial_origin(self):
        # direct substitution: x = 0, t = 1 leaves the f bracket at 3/2 and
        # the zero-order coefficient at +1
        got = dual_fundamental_solution(SpaceTimePoint((0.0, 0.0, 0.0), 1.0))
        pref = 1.0 / (2.0 * math.sqrt(math.pi)) ** 3
        want = np.zeros(7)
        want[4] = 1.5 * pref
        want[5] = pref
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    def test_parity(self):
        x = np.array([0.4, -0.2, 0.3])
        k = 1.3
        plus = fundamental_solution(SpaceTimePoint(tuple(x), 0.7),
                                    KernelParams(k))
        minus = fundamental_solution(SpaceTimePoint(tuple(-x), 0.7),
                                     KernelParams(k))
        assert np.allclose(plus[1:4], -minus[1:4], rtol=1e-14)
        assert np.allclose(plus[4:6], minus[4:6], rtol=1e-14)

    def test_dual_parity(self):
        x = np.array([0.4, -0.2, 0.3])
        plus = dual_fundamental_solution(SpaceTimePoint(tuple(x), 0.7))
        minus = dual_fundamental_solution(SpaceTimePoint(tuple(-x), 0.7))
        assert np.allclose(plus[1:4], -minus[1:4], rtol=1e-14)
        assert np.allclose(plus[4:6], minus[4:6], rtol=1e-14)

    def test_singular_point_rejected(self):
        with pytest.raises(ValueError):
            fundamental_solution(SpaceTimePoint((0.0, 0.0, 0.0), 0.0),
                                 KernelParams(1.0))
        with pytest.raises(ValueError):
            dual_fundamental_solution(SpaceTimePoint((0.0, 0.0, 0.0), 0.0))

    def test_underflow_flushes_to_exact_zero(self):
        val = fundamental_solution(SpaceTimePoint((60.0, 0.0, 0.0), 1e-3),
                                   KernelParams(1.0))
        assert np.all(val == 0.0)

    def test_mixed_sign_times(self):
        # with some t <= 0 the live points must get exactly what they get
        # alone, and the others exact zeros
        rng = np.random.default_rng(21)
        x = rng.standard_normal((40, 5, 3))
        t = rng.uniform(-0.5, 0.5, (40, 5))
        t[0, 0] = 0.0
        live = t > 0.0
        assert np.any(live) and not np.all(live)
        mixed = fundamental_solution_array(x, t, 1.3, dual=True)
        positive = fundamental_solution_array(x[live], t[live], 1.3,
                                              dual=True)
        assert np.array_equal(mixed[live], positive)
        assert np.all(mixed[~live] == 0.0)

    @pytest.mark.parametrize("dual", [False, True])
    def test_scalar_time_matches_per_point_time(self, dual):
        # a scalar time broadcast to every point must give each point the
        # bits of the same time given per point, at the kernel-table times
        # j*dt and (j + 1/2)*dt and at random times
        rng = np.random.default_rng(8)
        x = rng.uniform(-2.0, 2.0, (50, 3))
        dt = 0.0625
        times = np.concatenate([np.arange(1, 17) * dt,
                                (np.arange(16) + 0.5) * dt,
                                rng.uniform(1e-3, 3.0, 300)])
        for k in (1.0, 1.7):
            for t in times:
                full = fundamental_solution_array(x, np.full(len(x), t), k,
                                                  dual=dual)
                assert np.array_equal(
                    fundamental_solution_array(x, t, k, dual=dual), full)
                assert np.array_equal(
                    fundamental_solution_array(x[7], t, k, dual=dual),
                    full[7])

    def test_params_validation(self):
        with pytest.raises(ValueError):
            KernelParams(0.0)
        with pytest.raises(ValueError):
            KernelParams(-1.0)

    @pytest.mark.parametrize("k", [np.inf, -np.inf, np.nan])
    def test_params_refuse_non_finite(self, k):
        # k = inf used to be accepted, and the kernel then evaluated to NaN
        with pytest.raises(ValueError, match="finite"):
            KernelParams(k)


class TestGaussianMass:
    def test_ball_quadrature_matches_closed_integral(self):
        table = verify.gaussian_mass_check()
        assert table.passed
        for row in table.rows:
            assert row[2] <= 1e-6


def _grid_field(values, grid):
    return Field(values, grid)


class TestDiscreteOperator:
    def setup_method(self):
        self.grid = SpaceTimeGrid(h=0.1, dt=0.1, dims=(6, 6, 6), nt=6)
        self.params = KernelParams(1.5)

    def test_constant_field(self):
        c = np.array([0.3, -1.0, 0.5, 0.2, 0.7, -0.4, 0.1])
        vals = np.broadcast_to(c, self.grid.shape + (7,)).copy()
        for sign in (1, -1):
            out = apply_parabolic_dirac(_grid_field(vals, self.grid),
                                        self.grid, self.params, sign)
            fd_row = np.eye(7)[5]
            want = sign * self.params.k * mul_arrays(fd_row, c)
            assert np.allclose(out.values, want, rtol=1e-12, atol=1e-12)

    def test_scalar_field_gives_gradient(self):
        xs, _ = self.grid.node_positions()
        p = xs[..., 0] ** 2 + 2.0 * xs[..., 1]
        vals = np.zeros(self.grid.shape + (7,))
        vals[..., 0] = p[..., None]
        out = apply_parabolic_dirac(_grid_field(vals, self.grid), self.grid,
                                    self.params, 1)
        inner = (slice(1, -1),) * 3
        got = out.values[..., 1][inner]
        want = (2.0 * xs[..., 0])[inner][..., None]
        assert np.allclose(got, np.broadcast_to(want, got.shape),
                           rtol=1e-10, atol=1e-10)
        assert np.allclose(out.values[..., 2][inner], 2.0, rtol=1e-10)
        assert np.allclose(out.values[..., 3][inner], 0.0, atol=1e-10)

    def test_linear_vector_field(self):
        # scalar part of the operator equals minus the divergence; the
        # zero-order term annihilates e-vector fields outright
        xs, _ = self.grid.node_positions()
        vals = np.zeros(self.grid.shape + (7,))
        vals[..., 1] = xs[..., 0][..., None]
        out = apply_parabolic_dirac(_grid_field(vals, self.grid), self.grid,
                                    self.params, 1)
        inner = (slice(1, -1),) * 3
        assert np.allclose(out.values[..., 0][inner], -1.0, rtol=1e-12)
        assert np.allclose(out.values[..., 1:4][inner], 0.0, atol=1e-12)
        assert np.allclose(out.values[..., 4:][inner], 0.0, atol=1e-12)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            apply_parabolic_dirac(Field.zeros(self.grid), self.grid,
                                  self.params, 2)

    def test_mismatched_grid(self):
        other = SpaceTimeGrid(h=0.2, dt=0.1, dims=(6, 6, 6), nt=6)
        with pytest.raises(ValueError):
            apply_parabolic_dirac(Field.zeros(self.grid), other,
                                  self.params, 1)


class TestFactorization:
    def test_zero_field(self):
        grid = SpaceTimeGrid(h=0.1, dt=0.1, dims=(6, 6, 6), nt=6)
        assert factorization_residual(Field.zeros(grid), grid,
                                      KernelParams(1.0), 1) == 0.0

    def test_second_order_ratio(self):
        res = []
        for h in (1.0 / 8, 1.0 / 16):
            probe, grid = verify.factorization_probe(h, nt=16)
            res.append(factorization_residual(probe, grid,
                                              KernelParams(1.0), 1))
        assert res[0] / res[1] == pytest.approx(4.0, rel=0.15)

    def test_regression_bound_at_finest(self):
        # measured once on the pinned probe and frozen with margin
        probe, grid = verify.factorization_probe(1.0 / 32)
        res = factorization_residual(probe, grid, KernelParams(1.0), 1)
        assert res < 0.30

    def test_sign_symmetry(self):
        probe, grid = verify.factorization_probe(1.0 / 8, nt=16)
        plus = factorization_residual(probe, grid, KernelParams(1.0), 1)
        minus = factorization_residual(probe, grid, KernelParams(1.0), -1)
        assert plus == pytest.approx(minus, rel=1e-12)


class TestConvention:
    def test_calibration_winner(self, calibrated_convention):
        record = calibrated_convention
        assert record.sign == 1
        assert record.fd_power == 1
        assert record.factorization_power == 1
        assert record.orders["+1,1"] >= 1.5
        losers = [v for key, v in record.orders.items() if key != "+1,1"]
        assert all(v < 0.5 for v in losers)

    def test_winner_residuals_monotone(self, calibrated_convention):
        res = calibrated_convention.residuals["+1,1"]
        assert all(b < a for a, b in zip(res, res[1:]))

    @pytest.mark.parametrize("sign,power", [(-1, 1), (1, 2), (-1, 2)])
    def test_defaults_follow_the_record(self, monkeypatch, sign, power):
        grid = SpaceTimeGrid(h=0.1, dt=0.1, dims=(6, 6, 6), nt=6)
        u = Field(np.random.default_rng(8).standard_normal(grid.shape + (7,)),
                  grid)
        params = KernelParams(1.5)
        monkeypatch.setattr(kernels, "_convention", kernels.ConventionRecord(
            fd_power=power, sign=sign, factorization_power=power))
        want = apply_parabolic_dirac(u, grid, params, sign, power).values
        got = apply_parabolic_dirac(u, grid, params).values
        assert got.tobytes() == want.tobytes()
        assert factorization_residual(u, grid, params) \
            == factorization_residual(u, grid, params, sign, power)

    def test_defaults_need_a_record(self, monkeypatch):
        grid = SpaceTimeGrid(h=0.1, dt=0.1, dims=(6, 6, 6), nt=6)
        monkeypatch.setattr(kernels, "_convention", None)
        for default in ({}, {"sign": 1}, {"fd_power": 1}):
            with pytest.raises(RuntimeError, match="calibrat"):
                apply_parabolic_dirac(Field.zeros(grid), grid,
                                      KernelParams(1.0), **default)
        out = apply_parabolic_dirac(Field.zeros(grid), grid, KernelParams(1.0),
                                    1, 1)
        assert np.all(out.values == 0.0)

    def test_uncalibrated_context_is_an_error(self, monkeypatch):
        from wittflow.domain import build_box_domain
        from wittflow.potentials import OperatorContext
        monkeypatch.setattr(kernels, "_convention", None)
        domain = build_box_domain((1.0, 1.0, 1.0), 0.5, 1.0 / 3, 0.25)
        with pytest.raises(RuntimeError, match="calibrat"):
            OperatorContext(domain, KernelParams(1.0))


class TestKernelMonogenicity:
    def test_stencil_residual_second_order(self):
        # the calibrated operator annihilates kernel samples at second order
        k = 2.0
        x0, t0 = (0.35, -0.4, 0.25), 0.45
        res = []
        for h in (0.02, 0.01, 0.005):
            grid = SpaceTimeGrid(h=h, dt=h, dims=(5, 5, 5), nt=5)
            offs = (np.arange(5) - 2.0) * h
            pts = np.stack(np.meshgrid(x0[0] + offs, x0[1] + offs,
                                       x0[2] + offs, indexing="ij"), axis=-1)
            vals = fundamental_solution_array(
                pts[..., None, :], t0 + offs[None, None, None, :], k)
            out = apply_parabolic_dirac(Field(vals, grid), grid,
                                        KernelParams(k), 1)
            res.append(float(np.linalg.norm(out.values[2, 2, 2, 2])))
        order = verify.fit_order((0.02, 0.01, 0.005), res)
        assert order >= 1.9


def written_out_formula(x, t, k, dual=False):
    """The closed form written out plainly, operation for operation (a
    negated gradient prefactor, an unconditional underflow flush), on the
    points with t > 0; the others are zeros."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(x.shape[:-1], t.shape)
    t = np.broadcast_to(t, shape)
    live = t > 0.0
    x0, x1, x2 = np.moveaxis(np.broadcast_to(x, shape + (3,))[live], -1, 0)
    t = t[live]
    four_t = 4.0 * t
    cube = (2.0 * np.sqrt(np.pi * t)) ** 3
    r2 = (x0 * x0 + x1 * x1) + x2 * x2
    expo = -k * r2 / four_t
    gauss = np.where(expo >= -700.0, np.exp(expo), 0.0)
    pref = np.sqrt(k) * gauss / cube
    bracket = k * r2 / (four_t * t) - 3.0 / (2.0 * t)
    if dual:
        bracket = -bracket
    gradient = -pref * (k / (2.0 * t))
    out = np.zeros(shape + (7,))
    out[live] = np.stack([np.zeros_like(pref), gradient * x0, gradient * x1,
                          gradient * x2, pref * bracket, k * pref,
                          np.zeros_like(pref)], axis=-1)
    return out


class TestKernelTerms:
    """The one kernel formula, ``kernels._kernel_terms``."""

    @staticmethod
    def batch(rng, far=False):
        # (3, term, 1, point) coordinates against (time, 1) factors, as in
        # the lattice sum; ``far`` adds points whose exponent at the
        # smallest time falls below -700, with the Gaussian a subnormal
        xs = rng.uniform(-3.0, 3.0, (3, 6, 1, 40))
        if far:
            xs[0, :, :, ::7] = 23.5
        times = np.array([0.25, 1.0, 2.5])
        return xs, kernels._time_factors(times, 1.3)

    def factors_at(self, factors):
        return [f[:, None] for f in factors]

    @pytest.mark.parametrize("dual", [False, True])
    def test_signed_terms_are_sign_times_unsigned(self, dual):
        rng = np.random.default_rng(4)
        xs, factors = self.batch(rng, far=True)
        factors = self.factors_at(factors)
        signs = rng.choice([-1.0, 1.0], size=(6, 1, 1))
        signed = kernels._kernel_terms(xs, factors, 1.3, dual, signs=signs)
        unsigned = kernels._kernel_terms(xs, factors, 1.3, dual)
        assert signed.tobytes() == (signs * unsigned).tobytes()

    def test_underflow_is_exact_zero_and_leaves_the_rest(self):
        rng = np.random.default_rng(5)
        xs, factors = self.batch(rng, far=True)
        factors = self.factors_at(factors)
        expo = -1.3 * np.sum(xs * xs, axis=0) / factors[0]
        under = np.broadcast_to(expo < -700.0, (6, 3, 40))
        assert under.any() and not under.all()
        assert np.all(np.exp(expo[expo < -700.0]) > 0.0)   # unflushed
        terms = kernels._kernel_terms(xs, factors, 1.3)
        assert np.all(terms[:, under] == 0.0)
        # the same points without the far ones: no exponent underflows
        near = np.delete(xs, np.s_[::7], axis=-1)
        alone = kernels._kernel_terms(near, factors, 1.3)
        kept = np.delete(terms, np.s_[::7], axis=-1)
        assert kept.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("dual", [False, True])
    @pytest.mark.parametrize("k", [1.0, 1.7])
    def test_array_is_written_out_formula(self, dual, k):
        rng = np.random.default_rng(6)
        x = rng.uniform(-3.0, 3.0, (60, 4, 3))
        x[::5, :, 0] = 60.0                  # exponents below -700 too
        t = rng.uniform(-0.3, 1.5, (60, 4))
        for times in (t, np.abs(t) + 1e-3, 0.4375):
            got = fundamental_solution_array(x, times, k, dual=dual)
            want = written_out_formula(x, times, k, dual=dual)
            assert got.tobytes() == want.tobytes()
