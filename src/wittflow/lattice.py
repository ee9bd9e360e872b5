"""Lattice shells, spin-structure signs, and periodized kernels.

A quotient is described by its ``LatticeSpec`` (the grid's, re-exported
from ``domain``): its rank (how many of the first coordinate axes are
factored by the unit lattice) and one antiperiodicity flag per generator
(the spin structure).  The periodized kernel is the signed sum of kernel
translates over the sublattice, summed shell by shell in the max-norm so the
analytic tail bound applies verbatim to the discarded remainder.

Each point adds the terms of a shell one after the other in lex order, then
adds the shell's sum to its running total; that order fixes every bit of
the tables.  The terms come from ``kernels._kernel_terms``, the kernel's one
formula, with the spin-structure sign folded into the prefactor (exact).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import LatticeSpec
from .kernels import (KernelParams, SpaceTimePoint, _check_not_singular,
                      _kernel_terms, _time_factors,
                      fundamental_solution_array)

__all__ = [
    "LatticeSpec",
    "LatticeShell",
    "shell_points",
    "sign_of",
    "tail_bound",
    "periodized_fundamental_solution",
    "periodized_solution_batch",
    "brute_force_periodized",
    "MAX_SHELLS",
]

MAX_SHELLS = 64

# Shell term x point pairs evaluated per kernel call in the shell sum:
# large enough to amortize the call, small enough to keep the temporaries in
# cache (twice as many ran 1.7x slower on the antiperiodic 4^3x8 torus).
_BLOCK_PAIRS = 16384


@dataclass(frozen=True)
class LatticeShell:
    """All sublattice points at exact max-norm radius m, lex ordered."""

    m: int
    points: np.ndarray

    def __len__(self) -> int:
        return len(self.points)


def shell_points(m: int, spec: LatticeSpec) -> LatticeShell:
    """Enumerate the rank-restricted lattice shell of max-norm radius m."""
    if m < 0:
        raise ValueError("shell radius must be >= 0")
    if m == 0:
        return LatticeShell(0, np.zeros((1, 3), dtype=np.int64))
    if spec.rank == 0:
        return LatticeShell(m, np.zeros((0, 3), dtype=np.int64))
    rng = np.arange(-m, m + 1, dtype=np.int64)
    grid = np.meshgrid(*([rng] * spec.rank), indexing="ij")
    cube = np.stack([g.ravel() for g in grid], axis=-1)
    pts = np.zeros((len(cube), 3), dtype=np.int64)
    pts[:, :spec.rank] = cube
    return LatticeShell(m, pts[np.max(np.abs(cube), axis=1) == m])


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
    gauss = np.where(expo >= -700.0, np.exp(expo), 0.0)
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


def _check_finite_inputs(points: np.ndarray, t: float) -> None:
    """Refuse non-finite points or time before any shell is planned."""
    if not (np.all(np.isfinite(points)) and np.isfinite(t)):
        raise ValueError("kernel points and time must be finite")


def periodized_solution_batch(points: np.ndarray, t: float,
                              params: KernelParams, spec: LatticeSpec,
                              target_tol: float):
    """Shell-summed periodized kernel for a batch of points at one time.

    Returns (values (n, 7), tail_estimate, shells_used); all points share
    the shell schedule, and the tail is bounded with the largest point
    radius.  Points are assumed non-singular; non-finite points, time or
    tolerance are refused with ``ValueError``.  An empty batch sums nothing.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    _check_finite_inputs(points, t)
    if not (target_tol > 0 and np.isfinite(target_tol)):
        raise ValueError("target tolerance must be positive and finite")
    n = len(points)
    if t <= 0.0 or n == 0:
        return np.zeros((n, 7)), 0.0, 0
    if spec.rank == 0:
        return fundamental_solution_array(points, t, params.k), 0.0, 1
    r = float(np.max(np.linalg.norm(points, axis=1)))
    # plan the shell count from the tail bound before evaluating any kernel
    for last in range(MAX_SHELLS + 1):
        if last + 1 > r:
            tail = tail_bound(last + 1, r, t, params)
            if tail < target_tol:
                break
    else:
        raise RuntimeError(
            f"periodized kernel did not reach tolerance {target_tol} within "
            f"{MAX_SHELLS} shells")
    factors = _time_factors(np.atleast_1d(t), params.k)
    out = np.zeros((n, 7))
    # coordinates lead and points trail, so that each shifted coordinate is
    # one broadcast add with long inner loops
    coords = np.ascontiguousarray(points.T)[:, None, :]
    step = max(1, _BLOCK_PAIRS // n)
    for m in range(last + 1):
        shell = shell_points(m, spec)
        signs = _signs_of(shell.points, spec)[:, None]
        offsets = shell.points.T.astype(float)[:, :, None]
        # shell terms first, summed by one reduction over the leading axis:
        # it adds them one after the other in lex order for every
        # (component, point) together.  Each chunk after the first carries
        # the running shell sum in as its leading row, so the chunking
        # leaves that order, and every bit, unchanged.
        total = np.zeros((0, 5, n))
        for a in range(0, len(shell), step):
            chunk = slice(a, a + step)
            lead = len(total)
            terms = np.empty((lead + len(signs[chunk]), 5, n))
            terms[:lead] = total
            _kernel_terms(coords + offsets[:, chunk], factors, params.k,
                          signs=signs[chunk],
                          out=np.moveaxis(terms[lead:], 1, 0))
            total = np.add.reduce(terms, axis=0, keepdims=True)
        out[:, 1:6] += total[0].T
    return out, tail, last + 1


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
        if not len(shell.points):
            continue
        signs = _signs_of(shell.points, spec)
        shifted = points[:, None, :] + shell.points[None, :, :]
        contrib = fundamental_solution_array(shifted, t, params.k)
        value += signs @ contrib
    if spec.rank == 0:
        return value, 0.0
    r = float(np.max(np.linalg.norm(points, axis=1)))
    if radius + 1 <= r:
        return value, float("inf")
    return value, tail_bound(radius + 1, r, t, params)
