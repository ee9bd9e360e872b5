import itertools

import numpy as np
import pytest

from wittflow import lattice
from wittflow.kernels import (KernelParams, SpaceTimePoint,
                              fundamental_solution, fundamental_solution_array)
from wittflow.lattice import (LatticeSpec, brute_force_periodized,
                              periodized_fundamental_solution,
                              periodized_solution_batch, shell_points,
                              sign_of, tail_bound)


RANK3 = LatticeSpec(3, (False, False, False))


def lexicographic_shell(m, rank):
    """Shell of max-norm radius m by full enumeration, in product order."""
    pts = [combo + (0,) * (3 - rank)
           for combo in itertools.product(range(-m, m + 1), repeat=rank)
           if max(abs(c) for c in combo) == m]
    return np.array(pts, dtype=np.int64).reshape(-1, 3)


class TestSpec:
    def test_flag_count_must_match_rank(self):
        with pytest.raises(ValueError):
            LatticeSpec(2, (True,))
        with pytest.raises(ValueError):
            LatticeSpec(4, (True,) * 4)

    def test_rank_zero(self):
        spec = LatticeSpec()
        assert spec.rank == 0 and spec.anti_flags == ()


class TestShells:
    def test_origin_shell(self):
        for rank in range(4):
            spec = LatticeSpec(rank, (False,) * rank)
            shell = shell_points(0, spec)
            assert np.array_equal(shell.points, [[0, 0, 0]])

    def test_rank3_cardinality_formula(self):
        for m in range(1, 11):
            shell = shell_points(m, RANK3)
            assert len(shell) == (2 * m + 1) ** 3 - (2 * m - 1) ** 3

    def test_rank1_shell(self):
        spec = LatticeSpec(1, (False,))
        shell = shell_points(1, spec)
        assert len(shell) == 2
        assert sorted(map(tuple, shell.points)) == [(-1, 0, 0), (1, 0, 0)]

    def test_low_rank_exhaustive(self):
        # full enumeration oracle, independent of the shell generator; the
        # order is the summation order, and so decides the bits of the sums
        for rank in (1, 2, 3):
            spec = LatticeSpec(rank, (False,) * rank)
            for m in range(11):
                got = shell_points(m, spec).points
                assert got.dtype == np.int64
                assert np.array_equal(got, lexicographic_shell(m, rank))

    def test_rank0_higher_shells_empty(self):
        assert len(shell_points(3, LatticeSpec())) == 0

    def test_lexicographic_order(self):
        pts = shell_points(1, RANK3).points
        assert np.array_equal(pts, sorted(map(tuple, pts)))


class TestSigns:
    def test_no_flags(self):
        spec = RANK3
        for omega in ((1, 2, 3), (0, 0, 0), (-5, 4, 1)):
            assert sign_of(omega, spec) == 1

    def test_single_flag_parity(self):
        spec = LatticeSpec(3, (True, False, False))
        assert sign_of((3, 5, 0), spec) == -1
        assert sign_of((2, 5, 0), spec) == 1

    def test_two_flags(self):
        spec = LatticeSpec(3, (True, True, False))
        assert sign_of((1, 1, 0), spec) == 1
        assert sign_of((1, 2, 0), spec) == -1


class TestTailBound:
    def test_monotone_in_start(self):
        params = KernelParams(1.0)
        for r, t in ((0.5, 0.3), (1.0, 0.5), (1.5, 1.0)):
            values = [tail_bound(m, r, t, params)
                      for m in range(int(r) + 2, int(r) + 8)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_far_start_is_negligible(self):
        assert tail_bound(40, 1.0, 1.0, KernelParams(1.0)) < 1e-100

    def test_precondition(self):
        with pytest.raises(ValueError):
            tail_bound(1, 1.5, 0.5, KernelParams(1.0))
        with pytest.raises(ValueError):
            tail_bound(3, 1.0, 0.0, KernelParams(1.0))

    @pytest.mark.parametrize("r, t", [(np.nan, 0.5), (np.inf, 0.5),
                                      (0.5, np.nan), (0.5, np.inf)])
    def test_non_finite_input_refused(self, r, t):
        with pytest.raises(ValueError, match="finite"):
            tail_bound(3, r, t, KernelParams(1.0))

    def test_bound_dominates_measured_tail(self):
        # discarded mass beyond shell 6, measured by exhaustive summation
        params = KernelParams(1.0)
        t = 0.5
        rng = np.random.default_rng(2)
        points = rng.uniform(-0.5, 0.5, size=(5, 3))
        partial = np.zeros((5, 7))
        for m in range(7):
            shell = shell_points(m, RANK3)
            shifted = points[:, None, :] + shell.points[None, :, :]
            from wittflow.kernels import fundamental_solution_array
            partial += fundamental_solution_array(
                shifted, np.full(shifted.shape[:-1], t), 1.0).sum(axis=1)
        full, _ = brute_force_periodized(points, t, params, RANK3, radius=12)
        measured = np.linalg.norm(full - partial, axis=1).max()
        r = float(np.max(np.linalg.norm(points, axis=1)))
        assert measured <= tail_bound(7, r, t, params)


class TestPeriodized:
    def test_causal_zero(self):
        value, tail, shells = periodized_fundamental_solution(
            SpaceTimePoint((0.3, 0.2, 0.1), -0.5), KernelParams(1.0),
            RANK3, 1e-10)
        assert np.all(value == 0.0) and tail == 0.0 and shells == 0

    def test_rank0_matches_plain_kernel(self):
        p = SpaceTimePoint((0.3, 0.2, 0.1), 0.5)
        params = KernelParams(1.0)
        value, tail, shells = periodized_fundamental_solution(
            p, params, LatticeSpec(), 1e-10)
        assert np.array_equal(value, fundamental_solution(p, params))
        assert tail == 0.0 and shells == 1

    def test_matches_brute_force(self):
        params = KernelParams(1.0)
        p = SpaceTimePoint((0.3, 0.2, 0.1), 0.5)
        value, tail, shells = periodized_fundamental_solution(
            p, params, RANK3, 1e-10)
        brute, brute_tail = brute_force_periodized(
            np.array(p.x)[None, :], p.t, params, RANK3, radius=12)
        assert shells >= 1
        assert np.linalg.norm(value - brute[0]) <= tail + brute_tail

    def test_quasi_periodicity_sign_law(self):
        params = KernelParams(1.0)
        spec = LatticeSpec(3, (True, False, True))
        x = np.array([0.31, -0.12, 0.27])
        base, tail0, _ = periodized_solution_batch(x[None, :], 0.5, params,
                                                   spec, 1e-10)
        for j, flag in enumerate(spec.anti_flags):
            shifted = x.copy()
            shifted[j] += 1.0
            moved, tail1, _ = periodized_solution_batch(
                shifted[None, :], 0.5, params, spec, 1e-10)
            sign = -1.0 if flag else 1.0
            diff = np.linalg.norm(moved[0] - sign * base[0])
            assert diff <= 2.0 * (tail0 + tail1)

    def test_singular_translate_rejected(self):
        with pytest.raises(ValueError):
            periodized_fundamental_solution(
                SpaceTimePoint((2.0, -1.0, 0.0), 0.0), KernelParams(1.0),
                RANK3, 1e-8)

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            periodized_solution_batch(np.zeros((1, 3)), 0.5,
                                      KernelParams(1.0), RANK3, 0.0)

    @pytest.mark.parametrize("spec", [
        LatticeSpec(1, (False,)), LatticeSpec(1, (True,)),
        LatticeSpec(2, (False, False)), LatticeSpec(2, (True, False)),
        RANK3, LatticeSpec(3, (True, True, True))], ids=str)
    @pytest.mark.parametrize("t", [0.03125, 0.4375])
    def test_blocked_sum_is_bitwise_unblocked(self, spec, t):
        # the unblocked shell sum: the full point x shell array, a per-point
        # time array and one einsum per shell
        params = KernelParams(1.0)
        block = lattice._BLOCK_PAIRS // len(shell_points(1, spec))
        rng = np.random.default_rng(spec.rank)
        for n in (1, block - 1, block + 1):
            points = rng.uniform(-1.0, 1.0, (n, 3))
            value, _, shells = periodized_solution_batch(points, t, params,
                                                         spec, 1e-10)
            want = np.zeros((n, 7))
            for m in range(shells):
                omegas = lexicographic_shell(m, spec.rank)
                signs = np.array([sign_of(w, spec) for w in omegas], float)
                shifted = points[:, None, :] + omegas[None, :, :]
                contrib = fundamental_solution_array(
                    shifted, np.full(shifted.shape[:-1], t), params.k)
                want += np.einsum("j,ijc->ic", signs, contrib)
            assert np.array_equal(value, want)

    def test_torus_ladder_is_bitwise_einsum_per_shell(self):
        # the regime of the antiperiodic 4^3x8 torus tables: every
        # doubled-axis ladder offset 0..1.75 at the latest time 0.4375,
        # where the sum runs to 11 shells of up to 2402 terms each
        spec = LatticeSpec(3, (True, True, True))
        params = KernelParams(1.0)
        t = 0.4375
        ladder = np.arange(8) * 0.25
        points = np.stack(np.meshgrid(ladder, ladder, ladder, indexing="ij"),
                          axis=-1).reshape(-1, 3)
        value, _, shells = periodized_solution_batch(points, t, params,
                                                     spec, 1e-10)
        assert shells == 11
        want = np.zeros((len(points), 7))
        for m in range(shells):
            omegas = lexicographic_shell(m, spec.rank)
            signs = np.array([sign_of(w, spec) for w in omegas], float)
            # points in blocks only to bound the reference's memory: each
            # point's sum is the same whatever its block
            for a in range(0, len(points), 64):
                shifted = points[a:a + 64, None, :] + omegas[None, :, :]
                contrib = fundamental_solution_array(
                    shifted, np.full(shifted.shape[:-1], t), params.k)
                want[a:a + 64] += np.einsum("j,ijc->ic", signs, contrib)
        assert value.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec", [
        LatticeSpec(), LatticeSpec(1, (True,)), RANK3], ids=str)
    def test_empty_batch(self, spec):
        params = KernelParams(1.0)
        value, tail, shells = periodized_solution_batch(
            np.zeros((0, 3)), 0.5, params, spec, 1e-10)
        assert value.shape == (0, 7) and tail == 0.0 and shells == 0
        value, tail = brute_force_periodized(np.zeros((0, 3)), 0.5, params,
                                             spec, radius=2)
        assert value.shape == (0, 7) and tail == 0.0

    @pytest.mark.parametrize("spec", [LatticeSpec(), RANK3], ids=str)
    @pytest.mark.parametrize("point, t", [
        ((np.inf, 0.0, 0.0), 0.5), ((0.1, np.nan, 0.0), 0.5),
        ((0.1, 0.0, 0.0), np.nan), ((0.1, 0.0, 0.0), np.inf),
        ((0.1, 0.0, 0.0), -np.inf)])
    def test_non_finite_input_refused(self, spec, point, t):
        params = KernelParams(1.0)
        x = np.array([point])
        with pytest.raises(ValueError, match="finite"):
            periodized_solution_batch(x, t, params, spec, 1e-10)
        with pytest.raises(ValueError, match="finite"):
            brute_force_periodized(x, t, params, spec, radius=2)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_non_finite_tolerance_refused(self, tol):
        with pytest.raises(ValueError, match="finite"):
            periodized_solution_batch(np.full((1, 3), 0.1), 0.5,
                                      KernelParams(1.0), RANK3, tol)

    def test_shell_cap_error(self):
        # an absurd tolerance cannot be reached within the shell cap
        with pytest.raises(RuntimeError, match="shells"):
            periodized_solution_batch(np.zeros((1, 3)), 40.0,
                                      KernelParams(1e-3), RANK3, 1e-300)
