"""Pinhole geometry: intrinsics, extrinsics, and the ideal projection chain.

Conventions used throughout the library:

* Pixel coordinates (u, v) relate to normalized camera-frame coordinates
  (x, y) = (X^c/Z^c, Y^c/Z^c) through the upper-triangular intrinsic matrix A.
* Rotations are parameterized as axis-angle 3-vectors (direction = axis,
  magnitude = angle in radians); world points map into the camera frame by
  P^c = R P^w + t.
* All geometry is double precision.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import TypeAlias

import numpy as np

from .errors import NonPositiveDepth

Vec: TypeAlias = np.ndarray
Mat: TypeAlias = np.ndarray

# Homogeneous scale below this magnitude counts as "on the camera plane".
DEPTH_EPS = 1e-12


@dataclass(frozen=True, slots=True)
class IntrinsicParams:
    """The five intrinsic parameters forming the matrix A.

    alpha, beta are the focal scales along u and v in pixels, gamma is the
    skew coefficient, (u0, v0) the principal point. Each is a finite real
    number (numbers.Real, else ValueError naming it), and alpha, beta > 0.
    """

    alpha: float
    beta: float
    gamma: float
    u0: float
    v0: float

    def __post_init__(self):
        values = map(_real, ("alpha", "gamma", "u0", "beta", "v0"), self.as_tuple())
        if not all(map(math.isfinite, values)):
            raise ValueError(
                f"intrinsics must be finite, got (alpha, gamma, u0, beta, v0) = {self.as_tuple()}"
            )
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError(
                f"focal scales must be positive, got alpha={self.alpha}, beta={self.beta}"
            )

    @property
    def matrix(self) -> Mat:
        return np.array(
            [
                [self.alpha, self.gamma, self.u0],
                [0.0, self.beta, self.v0],
                [0.0, 0.0, 1.0],
            ]
        )

    @property
    def matrix_inv(self) -> Mat:
        """Closed-form inverse of the upper-triangular A."""
        a, b, g, u0, v0 = self.alpha, self.beta, self.gamma, self.u0, self.v0
        return np.array(
            [
                [1.0 / a, -g / (a * b), (g * v0 - b * u0) / (a * b)],
                [0.0, 1.0 / b, -v0 / b],
                [0.0, 0.0, 1.0],
            ]
        )

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        """Parameters in report column order (alpha, gamma, u0, beta, v0)."""
        return (self.alpha, self.gamma, self.u0, self.beta, self.v0)

    @classmethod
    def from_tuple(cls, values) -> IntrinsicParams:
        """The inverse of as_tuple: five numbers in that order, as floats."""
        alpha, gamma, u0, beta, v0 = map(float, values)
        return cls(alpha=alpha, gamma=gamma, u0=u0, beta=beta, v0=v0)


@dataclass(frozen=True, slots=True)
class Extrinsics:
    """World-to-camera transform: axis-angle rotation plus translation."""

    rotation: Vec
    translation: Vec

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float))
        if self.rotation.shape != (3,) or self.translation.shape != (3,):
            raise ValueError("rotation and translation must be 3-vectors")
        if not (np.isfinite(self.rotation).all() and np.isfinite(self.translation).all()):
            raise ValueError(
                f"extrinsics must be finite, got rotation {self.rotation.tolist()}, "
                f"translation {self.translation.tolist()}"
            )

    @property
    def matrix(self) -> Mat:
        return rotation_to_matrix(self.rotation)


# [w]x as w[_SKEW_INDEX] * _SKEW_SIGN, entry by entry.
_SKEW_INDEX = np.array([[0, 2, 1], [2, 0, 0], [1, 0, 0]])
_SKEW_SIGN = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
_IDENTITY = np.eye(3)


def rotation_to_matrix(rotation: Vec) -> Mat:
    """Expand axis-angle vectors into orthonormal rotation matrices.

    Accepts a 3-vector or a (..., 3) stack and returns (3, 3) or (..., 3, 3).
    Rodrigues' formula R = cos(t) I + sin(t)/t [w]x + (1 - cos(t))/t^2 w w^T
    is evaluated elementwise, with no matrix product, so a vector's matrix
    never depends on the stack it sits in. The zero vector maps to the
    identity; below about 1e-8 rad the formula is exactly the first-order
    expansion I + [w]x.
    """
    w = np.asarray(rotation, dtype=float)
    theta = np.hypot(np.hypot(w[..., 0], w[..., 1]), w[..., 2])
    safe = theta + (theta == 0.0)
    c = np.cos(theta)
    s = np.sin(theta) / safe
    b = (1.0 - c) / safe / safe
    R = (b[..., None] * w)[..., :, None] * w[..., None, :]
    R += s[..., None, None] * (w[..., _SKEW_INDEX] * _SKEW_SIGN)
    R += c[..., None, None] * _IDENTITY
    return R


def _compose_rotation(delta, rotation) -> tuple[float, float, float]:
    """The axis-angle vector of exp([delta]x) exp([rotation]x), in floats.

    delta and rotation are 3-sequences of floats, each taken as the unit
    quaternion (cos(t/2), sin(t/2) w/t); the product's sign puts the angle in
    [0, pi], to rounding. A non-finite entry gives a row of nan.
    """
    quaternions = []
    for x, y, z in (delta, rotation):
        t = math.hypot(x, y, z)
        if not math.isfinite(t):
            return (math.nan,) * 3
        s = math.sin(0.5 * t) / t if t > 0.0 else 0.5
        quaternions.append((math.cos(0.5 * t), s * x, s * y, s * z))
    (dw, dx, dy, dz), (qw, qx, qy, qz) = quaternions
    w = dw * qw - dx * qx - dy * qy - dz * qz
    x = dw * qx + qw * dx + dy * qz - dz * qy
    y = dw * qy + qw * dy + dz * qx - dx * qz
    z = dw * qz + qw * dz + dx * qy - dy * qx
    n = math.hypot(x, y, z)
    scale = 2.0 * math.atan2(n, abs(w)) / math.copysign(n, w) if n > 0.0 else 0.0
    return x * scale, y * scale, z * scale


def rotation_from_matrix(R: Mat) -> Vec:
    """Recover the axis-angle 3-vector from a rotation matrix.

    Inverse of rotation_to_matrix up to the usual 2*pi ambiguity; angles are
    returned in [0, pi].
    """
    R = np.asarray(R, dtype=float)
    v = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    # The antisymmetric part gives 2 sin(theta) directly, so the angle comes
    # from atan2 and stays well conditioned at both ends of [0, pi].
    sin_theta = float(np.linalg.norm(v)) / 2.0
    cos_theta = min(1.0, max(-1.0, (float(np.trace(R)) - 1.0) / 2.0))
    theta = math.atan2(sin_theta, cos_theta)
    if theta < 1e-12:
        return v / 2.0
    if cos_theta >= 0.0:
        return (theta / (2.0 * sin_theta)) * v
    # Past a quarter turn v loses its digits as sin(theta) falls; the axis
    # comes from the symmetric part, (R + R^T)/2 - cos(theta) I = (1 -
    # cos(theta)) axis axis^T, through its largest column, and v's sign.
    M = (R + R.T) / 2.0 - cos_theta * np.eye(3)
    axis = M[:, int(np.argmax(np.diag(M)))]
    return theta / math.copysign(float(np.linalg.norm(axis)), float(axis @ v)) * axis


def _as_points(p) -> Vec:
    """p as a float (2,) or (..., 2) array: every point map's shape check."""
    p = np.asarray(p, dtype=float)
    if p.ndim == 0 or p.shape[-1] != 2:
        raise ValueError(f"expected an (x, y) pair or an (..., 2) array, got shape {p.shape}")
    return p


def normalize(A: IntrinsicParams, p: Vec) -> Vec:
    """Map pixel coordinates to normalized coordinates by applying A^-1.

    Accepts a single (u, v) pair or an (..., 2) array. As in Python floats,
    an infinite coordinate may give nan (inf - inf) without a warning.
    """
    p = _as_points(p)
    with np.errstate(invalid="ignore"):
        return np.stack(_normalize_pair(A, p[..., 0], p[..., 1]), axis=-1)


def denormalize(A: IntrinsicParams, n: Vec) -> Vec:
    """Map normalized coordinates to pixel coordinates by applying A."""
    n = _as_points(n)
    return np.stack(_denormalize_pair(A, n[..., 0], n[..., 1]), axis=-1)


def _normalize_pair(A: IntrinsicParams, u, v):
    """A^-1 on coordinates u and v given apart, as floats or as arrays.

    The one formula of normalize, so a pixel's pair of floats and its array
    row give the same bits.
    """
    y = (v - A.v0) / A.beta
    return (u - A.u0 - A.gamma * y) / A.alpha, y


def _denormalize_pair(A: IntrinsicParams, x, y):
    """A on coordinates x and y given apart, as floats or as arrays."""
    return A.alpha * x + A.gamma * y + A.u0, A.beta * y + A.v0


def world_to_camera(ext: Extrinsics, P: Vec) -> Vec:
    """Apply P^c = R P^w + t. Accepts a single point or an (..., 3) array; any
    other shape raises ValueError."""
    P = np.asarray(P, dtype=float)
    if P.ndim == 0 or P.shape[-1] != 3:
        raise ValueError(
            f"world_points must be a point or an (..., 3) array, got shape {P.shape}"
        )
    return P @ ext.matrix.T + ext.translation


def _count(name: str, value) -> int:
    """value as an int (operator.index), or ValueError naming the field name."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _real(name: str, value) -> float:
    """value as a float if a numbers.Real (an int past the float range as ±inf),
    else ValueError naming the field name, also for a string float() parses."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _finite_points(name: str, value) -> Mat:
    """value as a float (n, 2) array of finite points, or ValueError naming name."""
    pts = np.asarray(value, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"{name} must be an (n, 2) array")
    if not np.isfinite(pts).all():
        raise ValueError(f"{name} must be finite")
    return pts


def _no_nan(P: np.ndarray) -> None:
    """ValueError naming the first (in C order) of (..., 3) world points with a nan coordinate."""
    nan = np.ravel(np.isnan(P).any(axis=-1))
    if nan.any():
        j = int(nan.argmax())
        raise ValueError(f"world point {j} has a nan coordinate: {P.reshape(-1, 3)[j].tolist()}")


def project_ideal(A: IntrinsicParams, ext: Extrinsics, P: Vec) -> Vec:
    """Distortion-free projection of world points to pixels.

    P^c = R P + t, then A applied to (X^c, Y^c) / Z^c, for a single world point
    or an (..., 3) array; world_to_camera raises ValueError for any other
    shape. ValueError names the first point (in C order) with a nan
    coordinate, and NonPositiveDepth the first below DEPTH_EPS, as
    project_distorted does.
    """
    P = np.asarray(P, dtype=float)
    Pc = world_to_camera(ext, P)
    _no_nan(P)  # after world_to_camera, which rejects a P of another shape
    z = Pc[..., 2]
    low = np.ravel(z < DEPTH_EPS)
    if low.any():
        j = int(low.argmax())
        raise NonPositiveDepth(f"point {j}: Z^c = {float(np.ravel(z)[j])!r}")
    return denormalize(A, Pc[..., :2] / z[..., None])
