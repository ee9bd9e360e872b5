"""Arithmetic in the quaternion algebra extended by a nilpotent Witt pair.

The algebra is the 7-dimensional real span of ``{1, e1, e2, e3, f, fd, ffd}``
where ``e1, e2, e3`` are the Hamilton units (``ei^2 = -1``, ``e1 e2 = e3``),
``f`` and ``fd`` are nilpotent (``f^2 = fd^2 = 0``) with ``f*fd + fd*f = 1``,
and every ``ej`` annihilates every element of ``{f, fd, ffd}`` from both
sides.  The product of ``fd`` with ``f`` is represented as ``1 - ffd`` so the
span is closed under multiplication.

Coefficient order used throughout the package (and in every CSV column):
``s, v1, v2, v3, wf, wfd, wn``.

A consequence of taking the annihilation relations literally is that the
product is not associative on every basis triple: whenever a scalar is
produced next door to a Witt factor (``ei*ei = -1`` adjacent to ``f``-type
factors, or ``fd*f = 1 - ffd`` adjacent to an ``ej``), the two bracketings
disagree.  ``associativity_defects`` enumerates the failing triples; all
other triples associate exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "WittQuaternion",
    "mul",
    "mul_arrays",
    "mul_matrix",
    "scalar_part",
    "vector_part",
    "coeff_norm",
    "BASIS_NAMES",
    "basis_element",
    "structure_tensor",
    "associativity_defects",
]

BASIS_NAMES = ("1", "e1", "e2", "e3", "f", "fd", "ffd")

# Component indices.
_S, _V1, _V2, _V3, _WF, _WFD, _WN = range(7)


def mul_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of coefficient arrays with shape (..., 7), broadcasting.

    The closed form below is the bilinear extension of the basis products;
    the Hamilton block sits in components 0..3, the Witt block in 4..6, and
    the only cross talk is through the scalar component (``fd*f`` feeds the
    scalar, the scalar feeds everything).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=float)
    a0, b0 = a[..., _S], b[..., _S]
    av, bv = a[..., _V1:_V3 + 1], b[..., _V1:_V3 + 1]
    out[..., _S] = (a0 * b0 - np.sum(av * bv, axis=-1)
                    + a[..., _WFD] * b[..., _WF])
    out[..., _V1:_V3 + 1] = (a0[..., None] * bv + b0[..., None] * av
                             + np.cross(av, bv))
    out[..., _WF] = a0 * b[..., _WF] + b0 * a[..., _WF] + a[..., _WN] * b[..., _WF]
    out[..., _WFD] = a0 * b[..., _WFD] + b0 * a[..., _WFD] + a[..., _WFD] * b[..., _WN]
    out[..., _WN] = (a0 * b[..., _WN] + b0 * a[..., _WN]
                     + a[..., _WF] * b[..., _WFD] - a[..., _WFD] * b[..., _WF]
                     + a[..., _WN] * b[..., _WN])
    return out


def mul_matrix(a: np.ndarray) -> np.ndarray:
    """Matrix of left multiplication by ``a``: mul(a, x) == mul_matrix(a) @ x.

    ``a`` may carry leading axes; the result has shape (..., 7, 7).
    """
    a = np.asarray(a, dtype=float)
    m = np.zeros(a.shape[:-1] + (7, 7), dtype=float)
    eye = np.eye(7)
    for j in range(7):
        m[..., :, j] = mul_arrays(a, eye[j])
    return m


def structure_tensor() -> np.ndarray:
    """Tensor C with mul(a, b)[c] == sum_ij C[i, j, c] a[i] b[j]."""
    eye = np.eye(7)
    return mul_arrays(eye[:, None], eye[None, :])


@dataclass(frozen=True)
class WittQuaternion:
    """Immutable element of the extended algebra.

    Fields are the coefficients of ``1, e1, e2, e3, f, fd, ffd`` in that
    order.  All operations are pure; instances are safe to share.
    """

    s: float = 0.0
    v1: float = 0.0
    v2: float = 0.0
    v3: float = 0.0
    wf: float = 0.0
    wfd: float = 0.0
    wn: float = 0.0

    @classmethod
    def from_coeffs(cls, coeffs) -> "WittQuaternion":
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (7,):
            raise ValueError(f"expected 7 coefficients, got shape {c.shape}")
        return cls(*c.tolist())

    @classmethod
    def from_vector(cls, v) -> "WittQuaternion":
        v = np.asarray(v, dtype=float)
        return cls(0.0, v[0], v[1], v[2])

    @property
    def coeffs(self) -> np.ndarray:
        return np.array([self.s, self.v1, self.v2, self.v3,
                         self.wf, self.wfd, self.wn])

    def __add__(self, other: "WittQuaternion") -> "WittQuaternion":
        return WittQuaternion.from_coeffs(self.coeffs + other.coeffs)

    def __sub__(self, other: "WittQuaternion") -> "WittQuaternion":
        return WittQuaternion.from_coeffs(self.coeffs - other.coeffs)

    def __neg__(self) -> "WittQuaternion":
        return WittQuaternion.from_coeffs(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, WittQuaternion):
            return mul(self, other)
        return WittQuaternion.from_coeffs(self.coeffs * float(other))

    def __rmul__(self, other):
        return WittQuaternion.from_coeffs(float(other) * self.coeffs)

    def render(self) -> str:
        """Fixed textual form ``s + v1*e1 + ... + wn*ffd`` (``str``)."""
        parts = [f"{self.s:.12g}"]
        for value, name in zip(self.coeffs[1:], BASIS_NAMES[1:]):
            parts.append(f"{value:.12g}*{name}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()


def basis_element(index: int) -> WittQuaternion:
    coeffs = np.zeros(7)
    coeffs[index] = 1.0
    return WittQuaternion.from_coeffs(coeffs)


def mul(a: WittQuaternion, b: WittQuaternion) -> WittQuaternion:
    """Algebra product; total on all inputs."""
    return WittQuaternion.from_coeffs(mul_arrays(a.coeffs, b.coeffs))


def scalar_part(a: WittQuaternion) -> float:
    return a.s


def vector_part(a: WittQuaternion) -> WittQuaternion:
    """The e1, e2, e3 component with every other coefficient zeroed."""
    return WittQuaternion(0.0, a.v1, a.v2, a.v3)


def coeff_norm(a) -> float:
    """Euclidean norm of the 7 coefficients; zero iff the element is zero."""
    if isinstance(a, WittQuaternion):
        return float(np.linalg.norm(a.coeffs))
    return float(np.linalg.norm(np.asarray(a, dtype=float)))


def associativity_defects() -> list[tuple[int, int, int]]:
    """Basis triples (i, j, k) where (ei*ej)*ek != ei*(ej*ek).

    The annihilation relations make full associativity impossible: in any
    associative unital algebra ``ej = (f*fd + fd*f) ej`` would force
    ``ej = 0``.  The defect set is exactly the triples where the scalar of
    ``ei*ej`` (resp. ``ej*ek``) meets a Witt factor.
    """
    eye = np.eye(7)
    bad = []
    for i in range(7):
        for j in range(7):
            ij = mul_arrays(eye[i], eye[j])
            for k in range(7):
                left = mul_arrays(ij, eye[k])
                right = mul_arrays(eye[i], mul_arrays(eye[j], eye[k]))
                if not np.array_equal(left, right):
                    bad.append((i, j, k))
    return bad
