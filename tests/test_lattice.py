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
            assert np.array_equal(shell, [[0, 0, 0]])

    def test_rank3_cardinality_formula(self):
        for m in range(1, 11):
            shell = shell_points(m, RANK3)
            assert len(shell) == (2 * m + 1) ** 3 - (2 * m - 1) ** 3

    def test_rank1_shell(self):
        spec = LatticeSpec(1, (False,))
        shell = shell_points(1, spec)
        assert len(shell) == 2
        assert sorted(map(tuple, shell)) == [(-1, 0, 0), (1, 0, 0)]

    def test_low_rank_exhaustive(self):
        # full enumeration oracle, independent of the shell generator; the
        # order is the summation order, and so decides the bits of the sums
        for rank in (1, 2, 3):
            spec = LatticeSpec(rank, (False,) * rank)
            for m in range(11):
                got = shell_points(m, spec)
                assert got.dtype == np.int64
                assert np.array_equal(got, lexicographic_shell(m, rank))

    def test_rank0_higher_shells_empty(self):
        assert len(shell_points(3, LatticeSpec())) == 0

    def test_lexicographic_order(self):
        pts = shell_points(1, RANK3)
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
            shifted = points[:, None, :] + shell[None, :, :]
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


ALL_RANK3 = [LatticeSpec(3, flags)
             for flags in itertools.product((False, True), repeat=3)]

# unsorted, with entries <= 0 that must come back as zero rows
TIMES = np.array([0.4375, -0.25, 0.03125, 0.0, 0.25, 0.125])


def stacked_scalar_calls(points, times, params, spec, tol):
    """The times one scalar call at a time: values, largest tail, most
    shells."""
    calls = [periodized_solution_batch(points, float(t), params, spec, tol)
             for t in times]
    values = np.stack([v for v, _, _ in calls]).reshape(
        len(times), len(points), 7)
    return (values, max((tail for _, tail, _ in calls), default=0.0),
            max((shells for _, _, shells in calls), default=0))


def assert_same_as_scalar_calls(points, times, params, spec, tol=1e-10):
    got = periodized_solution_batch(points, times, params, spec, tol)
    want = stacked_scalar_calls(points, times, params, spec, tol)
    assert got[0].shape == (len(times), len(points), 7)
    assert got[0].tobytes() == want[0].tobytes()
    assert type(got[1]) is float and got[1] == want[1]
    assert type(got[2]) is int and got[2] == want[2]
    return got


class TestTimesArray:
    """A 1-d times array is one pass over the shells of all its times."""

    @pytest.mark.parametrize("spec", [
        LatticeSpec(), LatticeSpec(1, (False,)), LatticeSpec(1, (True,)),
        LatticeSpec(2, (False, True)), LatticeSpec(2, (True, True))]
        + ALL_RANK3, ids=str)
    def test_stacked_scalar_calls(self, spec):
        params = KernelParams(1.0)
        rng = np.random.default_rng(spec.rank + 8 * sum(spec.anti_flags))
        for n in (1, 5):
            points = rng.uniform(-1.0, 1.0, (n, 3))
            assert_same_as_scalar_calls(points, TIMES, params, spec)

    @pytest.mark.parametrize("spec", [LatticeSpec(1, (True,)), RANK3],
                             ids=str)
    def test_chunk_boundaries(self, spec):
        # n around the points that fill one chunk of shell-1 terms at every
        # positive time, where a chunk ends exactly at the shell's end
        params = KernelParams(1.5)
        live = int(np.sum(TIMES > 0.0))
        block = lattice._BLOCK_PAIRS // (len(shell_points(1, spec)) * live)
        rng = np.random.default_rng(7)
        for n in (block - 1, block, block + 1):
            points = rng.uniform(-1.0, 1.0, (n, 3))
            assert_same_as_scalar_calls(points, TIMES, params, spec)

    @pytest.mark.parametrize("pairs", [1, 24, 40, 130])
    def test_small_blocks(self, monkeypatch, pairs):
        # blocks smaller than one term of all times split the times into
        # groups and the shells into one-term chunks
        monkeypatch.setattr(lattice, "_BLOCK_PAIRS", pairs)
        spec = LatticeSpec(3, (True, False, True))
        points = np.random.default_rng(3).uniform(-1.0, 1.0, (7, 3))
        assert_same_as_scalar_calls(points, TIMES, KernelParams(1.0), spec)

    def test_torus_ladder_table_times(self):
        # the antiperiodic 4^3x8 torus volume table: the 512 doubled-axis
        # ladder points at its 15 time offsets, 7 of them positive
        spec = LatticeSpec(3, (True, True, True))
        ladder = np.arange(8) * 0.25
        points = np.stack(np.meshgrid(ladder, ladder, ladder, indexing="ij"),
                          axis=-1).reshape(-1, 3)
        times = np.arange(-7, 8) * 0.0625
        _, tail, shells = assert_same_as_scalar_calls(
            points, times, KernelParams(1.0), spec)
        assert shells == 11 and 0.0 < tail <= 1e-10

    @pytest.mark.parametrize("spec", [LatticeSpec(), RANK3], ids=str)
    def test_empty_times(self, spec):
        value, tail, shells = periodized_solution_batch(
            np.zeros((4, 3)) + 0.1, np.zeros(0), KernelParams(1.0), spec,
            1e-10)
        assert value.shape == (0, 4, 7)
        assert tail == 0.0 and type(tail) is float
        assert shells == 0 and type(shells) is int

    @pytest.mark.parametrize("times", [
        np.full((2, 2), 0.5), np.array([0.5, np.nan]),
        np.array([np.inf, 0.5]), np.array([-np.inf])])
    def test_bad_times_refused(self, times):
        with pytest.raises(ValueError):
            periodized_solution_batch(np.full((1, 3), 0.1), times,
                                      KernelParams(1.0), RANK3, 1e-10)

    @pytest.fixture
    def term_calls(self, monkeypatch):
        """Calls of the kernel formula inside the lattice sum."""
        calls = []
        terms = lattice._kernel_terms

        def counting(*args, **kwargs):
            calls.append(1)
            return terms(*args, **kwargs)

        monkeypatch.setattr(lattice, "_kernel_terms", counting)
        return calls

    def test_unreachable_time_fails_before_any_term(self, term_calls):
        # the early time reaches the tolerance within the cap, the late one
        # cannot: the plan refuses before the early one is summed
        params = KernelParams(1.0)
        points = np.full((2, 3), 0.1)
        with pytest.raises(RuntimeError, match="shells"):
            periodized_solution_batch(points, np.array([0.03125, 40.0]),
                                      params, RANK3, 1e-300)
        assert term_calls == []
        periodized_solution_batch(points, np.array([0.03125]), params,
                                  RANK3, 1e-300)
        assert term_calls

    def test_unreachable_table_fails_before_any_term(self, term_calls):
        from wittflow.domain import build_quotient_domain
        from wittflow.potentials import OperatorContext, _eval_kernel_grid
        d = build_quotient_domain(RANK3, [], 0.5, 0.5, 0.25)
        ctx = OperatorContext(d, KernelParams(1.0), quad_tol=1e-300)
        ladder = np.array([0.0, 0.5])
        with pytest.raises(RuntimeError, match="shells"):
            _eval_kernel_grid(ctx, [ladder] * 3,
                              np.array([-0.25, 0.03125, 0.25, 40.0]))
        assert term_calls == []
