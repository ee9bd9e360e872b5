"""Lattice shells, spin-structure signs, and periodized kernels.

A quotient is described by its rank (how many of the first coordinate axes
are factored by the unit lattice) and one antiperiodicity flag per generator
(the spin structure).  The periodized kernel is the signed sum of kernel
translates over the sublattice, summed shell by shell in the max-norm so the
analytic tail bound applies verbatim to the discarded remainder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelParams, SpaceTimePoint, fundamental_solution_array

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

# Point x shell pairs evaluated per kernel call in the shell sum: large
# enough to amortize the call, small enough to keep the temporaries in cache.
_BLOCK_PAIRS = 16384


@dataclass(frozen=True)
class LatticeSpec:
    """Periodization rank and per-generator antiperiodicity flags."""

    rank: int = 0
    anti_flags: tuple[bool, ...] = ()

    def __post_init__(self):
        if self.rank not in (0, 1, 2, 3):
            raise ValueError(f"rank must be 0..3, got {self.rank}")
        object.__setattr__(self, "anti_flags", tuple(bool(b)
                                                     for b in self.anti_flags))
        if len(self.anti_flags) != self.rank:
            raise ValueError(
                f"need {self.rank} antiperiodicity flags, got "
                f"{len(self.anti_flags)}")


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


def _check_not_singular(points: np.ndarray, t: float,
                        spec: LatticeSpec) -> None:
    """Reject points ``(..., 3)`` at a lattice translate of the space-time
    origin."""
    if t != 0.0:
        return
    offsets = np.array(points, dtype=float)
    offsets[..., :spec.rank] -= np.round(offsets[..., :spec.rank])
    if np.any(np.all(offsets == 0.0, axis=-1)):
        raise ValueError("kernel is singular at a lattice translate of the "
                         "space-time origin")


def periodized_solution_batch(points: np.ndarray, t: float,
                              params: KernelParams, spec: LatticeSpec,
                              target_tol: float):
    """Shell-summed periodized kernel for a batch of points at one time.

    Returns (values (n, 7), tail_estimate, shells_used); all points share
    the shell schedule, and the tail is bounded with the largest point
    radius.  Points are assumed non-singular.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if target_tol <= 0:
        raise ValueError("target tolerance must be positive")
    n = len(points)
    if t <= 0.0:
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
    value = np.zeros((n, 7))
    # coordinates lead, so that each shifted coordinate is one contiguous
    # add over the shell instead of an inner loop of length 3
    coords = points.T
    for m in range(last + 1):
        shell = shell_points(m, spec)
        signs = _signs_of(shell.points, spec)
        offsets = shell.points.T.astype(float)
        rows = max(1, _BLOCK_PAIRS // len(shell))
        # each point sums its own shells in the same order whatever the
        # block, so the blocking leaves every value bitwise unchanged
        for a in range(0, n, rows):
            shifted = coords[:, a:a + rows, None] + offsets[:, None, :]
            contrib = fundamental_solution_array(
                np.moveaxis(shifted, 0, -1), t, params.k)
            value[a:a + rows] += np.einsum("j,ijc->ic", signs, contrib)
    return value, tail, last + 1


def periodized_fundamental_solution(p: SpaceTimePoint, params: KernelParams,
                                    spec: LatticeSpec, target_tol: float):
    """Signed lattice periodization of the causal kernel at one point.

    Returns (value (7,), tail_estimate, shells_used).  Sums shells of
    increasing max-norm until the analytic tail bound drops below the
    requested tolerance; errors out at the shell cap.
    """
    x = np.asarray(p.x, dtype=float)
    _check_not_singular(x, p.t, spec)
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
    where the analytic bound does not apply.  Singular points are rejected,
    as in ``periodized_fundamental_solution``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    _check_not_singular(points, t, spec)
    n = len(points)
    if t <= 0.0:
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
