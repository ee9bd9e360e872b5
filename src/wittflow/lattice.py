"""Lattice shells, spin-structure signs, and periodized kernels.

A quotient is described by its ``LatticeSpec`` (the grid's, re-exported
from ``domain``): its rank (how many of the first coordinate axes are
factored by the unit lattice) and one antiperiodicity flag per generator
(the spin structure).  The periodized kernel is the signed sum of kernel
translates over the sublattice, summed shell by shell in the max-norm so the
analytic tail bound applies verbatim to the discarded remainder.

Each (time, point) adds the terms of a shell one after the other in lex
order, then adds the shell's sum to its running total; that order fixes
every bit of the tables.  The terms come from ``kernels._kernel_terms``, the
kernel's one formula, with the spin-structure sign folded into the
prefactor (exact).  A kernel table is one pass over the shells for all its
times: every time's shell count is planned first, then each shell is
summed once for the times whose plan reaches it, so a shifted coordinate
and its squared radius serve every time.  The bits of a time do not depend
on the other times it is summed with.
"""

from __future__ import annotations

import numpy as np

from .domain import LatticeSpec
from .kernels import (UNDERFLOW_EXPONENT, KernelParams, SpaceTimePoint,
                      _check_not_singular, _kernel_terms, _time_factors,
                      fundamental_solution_array)

__all__ = [
    "LatticeSpec",
    "shell_points",
    "sign_of",
    "tail_bound",
    "periodized_fundamental_solution",
    "periodized_solution_batch",
    "brute_force_periodized",
    "MAX_SHELLS",
]

MAX_SHELLS = 64

# Shell term x time x point triples evaluated per kernel call in the shell
# sum: large enough to amortize the call, small enough to keep the
# temporaries in cache.  16k, 32k and 64k built the antiperiodic 4^3x8 torus
# tables equally fast (1.02, 0.99 and 1.06 s, medians of 6), so the smallest
# working set is kept.
_BLOCK_PAIRS = 16384


def shell_points(m: int, spec: LatticeSpec) -> np.ndarray:
    """The rank-restricted sublattice points ``(n, 3)`` at exact max-norm
    radius m, as int64 in lex order."""
    if m < 0:
        raise ValueError("shell radius must be >= 0")
    if m == 0:
        return np.zeros((1, 3), dtype=np.int64)
    if spec.rank == 0:
        return np.zeros((0, 3), dtype=np.int64)
    rng = np.arange(-m, m + 1, dtype=np.int64)
    grid = np.meshgrid(*([rng] * spec.rank), indexing="ij")
    cube = np.stack([g.ravel() for g in grid], axis=-1)
    pts = np.zeros((len(cube), 3), dtype=np.int64)
    pts[:, :spec.rank] = cube
    return pts[np.max(np.abs(cube), axis=1) == m]


def sign_of(omega, spec: LatticeSpec) -> int:
    """Spin-structure weight (-1)^(sum of flagged coordinates)."""
    return int(_signs_of(np.asarray(omega, dtype=np.int64)[None], spec)[0])


def _signs_of(points: np.ndarray, spec: LatticeSpec) -> np.ndarray:
    """Spin-structure weights (+-1.0) of lattice points ``(n, 3)``."""
    total = np.zeros(len(points), dtype=np.int64)
    for j, flag in enumerate(spec.anti_flags):
        if flag:
            total += points[:, j]
    return np.where(total % 2 == 0, 1.0, -1.0)


def _tail_term(m: np.ndarray, r: float, t: float, k: float) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    pref = max(k, np.sqrt(k)) / (2.0 * np.sqrt(np.pi * t)) ** 3
    card = (2.0 * m + 1.0) ** 3 - (2.0 * m - 1.0) ** 3
    bracket = (k * (r + m) / (2.0 * t) + 3.0 / (2.0 * t)
               + k * (r + m) ** 2 / (4.0 * t * t) + k)
    expo = -k * (m - r) ** 2 / (4.0 * t)
    gauss = np.where(expo >= UNDERFLOW_EXPONENT, np.exp(expo), 0.0)
    return pref * card * bracket * gauss


def tail_bound(m_start: int, r: float, t: float,
               params: KernelParams) -> float:
    """Upper bound on the discarded kernel mass beyond shell ``m_start``.

    Sums the shell majorant (full rank-3 cardinality, which dominates the
    lower ranks) until terms drop below 1e-3 of the accumulated value, then
    closes the remainder with a geometric bound; the term ratio is
    decreasing in m once m exceeds r, so the closure is rigorous.
    """
    if not (np.isfinite(r) and np.isfinite(t)):
        raise ValueError("tail bound requires a finite radius and time")
    if t <= 0:
        raise ValueError("tail bound requires t > 0")
    if r < 0:
        raise ValueError("evaluation radius must be >= 0")
    if m_start <= r:
        raise ValueError(
            f"tail start m={m_start} must exceed evaluation radius r={r}")
    k = params.k
    total = 0.0
    m = m_start
    while True:
        a = float(_tail_term(m, r, t, k))
        total += a
        if a == 0.0:
            return total
        nxt = float(_tail_term(m + 1, r, t, k))
        if nxt < a and a < 1e-3 * total:
            ratio = nxt / a
            return total + nxt / (1.0 - ratio)
        m += 1
        if m - m_start > 100000:
            raise RuntimeError("tail bound failed to converge")


def _check_finite_inputs(points: np.ndarray, t) -> None:
    """Refuse non-finite points or times before any shell is planned."""
    if not (np.all(np.isfinite(points)) and np.all(np.isfinite(t))):
        raise ValueError("kernel points and time must be finite")


def _plan_shells(r: float, times: np.ndarray, params: KernelParams,
                 target_tol: float):
    """Shell count and tail bound of every time, before any term is summed.

    A time ``<= 0`` gets no shells.  A time whose tail cannot drop below
    ``target_tol`` within ``MAX_SHELLS`` raises ``RuntimeError``.
    """
    counts = np.zeros(len(times), dtype=int)
    tails = np.zeros(len(times))
    for j, t in enumerate(times):
        if t <= 0.0:
            continue
        for last in range(MAX_SHELLS + 1):
            if last + 1 > r:
                tail = tail_bound(last + 1, r, float(t), params)
                if tail < target_tol:
                    break
        else:
            raise RuntimeError(
                f"periodized kernel did not reach tolerance {target_tol} "
                f"within {MAX_SHELLS} shells")
        counts[j], tails[j] = last + 1, tail
    return counts, tails


def periodized_solution_batch(points: np.ndarray, t,
                              params: KernelParams, spec: LatticeSpec,
                              target_tol: float):
    """Shell-summed periodized kernel for a batch of points at one time, or
    at each time of a 1-d array.

    Returns (values, tail_estimate, shells_used).  ``values`` has shape
    (n, 7) for a scalar ``t`` and (len(t), n, 7) for an array; rows of
    times ``<= 0`` are zeros.  The tail is the largest bound over the times
    and the shell count the largest: all points of a time share its shell
    schedule, bounded with the largest point radius.  Every time is planned
    before any term is summed, so a time that cannot reach the tolerance
    fails before any work.  Points are assumed non-singular; non-finite
    points, times or tolerance, and a times array of more than one
    dimension, are refused with ``ValueError``.  An empty batch sums
    nothing.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError("times must be a scalar or a 1-d array")
    _check_finite_inputs(points, times)
    if not (target_tol > 0 and np.isfinite(target_tol)):
        raise ValueError("target tolerance must be positive and finite")
    values, tail, shells = _shell_sums(points, np.atleast_1d(times), params,
                                       spec, target_tol)
    return (values[0] if times.ndim == 0 else values), tail, shells


def _shell_sums(points: np.ndarray, times: np.ndarray, params: KernelParams,
                spec: LatticeSpec, target_tol: float):
    """``periodized_solution_batch`` on checked points and a 1-d times
    array; values have shape (len(times), n, 7)."""
    n = len(points)
    out = np.zeros((len(times), n, 7))
    live = np.flatnonzero(times > 0.0)
    if n == 0 or not len(live):
        return out, 0.0, 0
    if spec.rank == 0:
        for j in live:
            out[j] = fundamental_solution_array(points, times[j], params.k)
        return out, 0.0, 1
    r = float(np.max(np.linalg.norm(points, axis=1)))
    counts, tails = _plan_shells(r, times, params, target_tol)
    # coordinate, term, time, point: each shifted coordinate and r^2 is one
    # broadcast op per (term, point), shared by every time
    coords = np.ascontiguousarray(points.T)[:, None, None, :]
    # times in groups, so that one term of a group stays within the block
    group = max(1, _BLOCK_PAIRS // n)
    for g in range(0, len(live), group):
        rows = live[g:g + group]
        factors = _time_factors(times[rows], params.k)
        for m in range(counts[rows].max()):
            shell = shell_points(m, spec)
            signs = _signs_of(shell, spec)[:, None, None]
            offsets = shell.T.astype(float)[:, :, None, None]
            # the times whose plan reaches this shell
            reach = counts[rows] > m
            now = [f[reach][:, None] for f in factors]
            width = int(np.sum(reach))
            # shell terms first, summed by one reduction over the leading
            # axis: it adds them one after the other in lex order for every
            # (time, component, point) together.  Each chunk after the
            # first carries the running shell sum in as its leading row, so
            # the chunking leaves that order, and every bit, unchanged.
            step = max(1, _BLOCK_PAIRS // (n * width))
            total = np.zeros((0, width, 5, n))
            for a in range(0, len(shell), step):
                chunk = slice(a, a + step)
                lead = len(total)
                terms = np.empty((lead + len(signs[chunk]), width, 5, n))
                terms[:lead] = total
                _kernel_terms(coords + offsets[:, chunk], now, params.k,
                              signs=signs[chunk],
                              out=np.moveaxis(terms[lead:], 2, 0))
                total = np.add.reduce(terms, axis=0, keepdims=True)
            out[rows[reach], :, 1:6] += np.swapaxes(total[0], 1, 2)
    return out, float(tails.max()), int(counts.max())


def periodized_fundamental_solution(p: SpaceTimePoint, params: KernelParams,
                                    spec: LatticeSpec, target_tol: float):
    """Signed lattice periodization of the causal kernel at one point.

    Returns (value (7,), tail_estimate, shells_used).  Sums shells of
    increasing max-norm until the analytic tail bound drops below the
    requested tolerance; errors out at the shell cap.
    """
    x = np.asarray(p.x, dtype=float)
    _check_not_singular(x, p.t, spec.rank)
    values, tail, shells = periodized_solution_batch(
        x[None, :], p.t, params, spec, target_tol)
    return values[0], tail, shells


def brute_force_periodized(points: np.ndarray, t: float,
                           params: KernelParams, spec: LatticeSpec,
                           radius: int = 12):
    """Reference summation over every lattice point with max-norm <= radius.

    Returns (values, own_tail_bound); used to validate the shell-summed
    implementation against an independent enumeration.  The tail bound is
    infinite when ``radius + 1`` does not exceed the largest point radius,
    where the analytic bound does not apply.  Singular and non-finite
    points are rejected, as in ``periodized_fundamental_solution``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    _check_finite_inputs(points, t)
    _check_not_singular(points, t, spec.rank)
    n = len(points)
    if t <= 0.0 or n == 0:
        return np.zeros((n, 7)), 0.0
    value = np.zeros((n, 7))
    for m in range(radius + 1):
        shell = shell_points(m, spec)
        if not len(shell):
            continue
        signs = _signs_of(shell, spec)
        shifted = points[:, None, :] + shell[None, :, :]
        contrib = fundamental_solution_array(shifted, t, params.k)
        value += signs @ contrib
    if spec.rank == 0:
        return value, 0.0
    r = float(np.max(np.linalg.norm(points, axis=1)))
    if radius + 1 <= r:
        return value, float("inf")
    return value, tail_bound(radius + 1, r, t, params)
