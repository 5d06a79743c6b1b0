"""The ten radial profile models and the forward distortion maps.

Every model is a scalar profile f(r) applied multiplicatively along the ray
through the origin of the normalized frame:

    (x_d, y_d) = (x f(r), y f(r)),   r^2 = x^2 + y^2.

Model ids and coefficient counts:

    0: 1 + k1 r^2 + k2 r^4                      (2 coefficients)
    1: 1 + k r                                  (1)
    2: 1 + k r^2                                (1)
    3: 1 + k1 r + k2 r^2                        (2)
    4: 1 / (1 + k r)                            (1)
    5: 1 / (1 + k r^2)                          (1)
    6: (1 + k1 r) / (1 + k2 r^2)                (2)
    7: 1 / (1 + k1 r + k2 r^2)                  (2)
    8: (1 + k1 r) / (1 + k2 r + k3 r^2)         (3)
    9: (1 + k1 r^2) / (1 + k2 r + k3 r^2)       (3)

All profiles satisfy f(0) = 1, so the origin is always a fixed point and
F(r) = r f(r) vanishes only at r = 0 within each model's valid range.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .core import IntrinsicParams, Vec, denormalize, normalize
from .errors import SingularProfile, UnknownModel

MODEL_IDS = tuple(range(10))

# f = N / D for derived quantities (_profile evaluates f): the powers of r in
# N's terms, then D's, beyond their 1. The terms take k_0, k_1, ... in order.
_TERMS = {
    0: ((2, 4), ()), 1: ((1,), ()), 2: ((2,), ()), 3: ((1, 2), ()), 4: ((), (1,)),
    5: ((), (2,)), 6: ((1,), (2,)), 7: ((), (1, 2)), 8: ((1,), (1, 2)), 9: ((2,), (1, 2)),
}

# Rational denominators below this magnitude are treated as singular.
DENOM_EPS = 1e-12
# Largest undistorted radius inversion considers; see invertible_radius.
_RADIUS_LIMIT = 1e100
# Inversion stops short of a pole, where D falls to this fraction of the size
# of its terms: closer in, D's rounding would move F by more than that.
_POLE_MARGIN = 2.0**-26


def coefficient_arity(model_id: int) -> int:
    """Number of distortion coefficients the model takes."""
    try:
        return sum(map(len, _TERMS[model_id]))
    except (KeyError, TypeError):
        raise UnknownModel(f"no distortion model with id {model_id!r}") from None


@dataclass(frozen=True, slots=True)
class DistortionModel:
    """A model id together with its coefficient vector."""

    model_id: int
    coefficients: tuple[float, ...]

    def __post_init__(self):
        arity = coefficient_arity(self.model_id)
        coeffs = tuple(float(k) for k in self.coefficients)
        if len(coeffs) != arity:
            raise ValueError(
                f"model {self.model_id} takes {arity} coefficient(s), got {len(coeffs)}"
            )
        if not all(map(math.isfinite, coeffs)):
            raise ValueError(f"model {self.model_id} coefficients must be finite, got {coeffs}")
        object.__setattr__(self, "coefficients", coeffs)


@dataclass(frozen=True, slots=True)
class RadialAuxiliaries:
    """Fixed-ray factorization terms for points with slope c = y_d/x_d.

    Along the ray y = c x the radius factors as r = s |x| with s = sqrt(1+c^2),
    and the squared factor t = 1 + c^2 = s^2 multiplies even powers. sigma
    carries the sign of the undistorted coordinate x. Inversion sets it to
    sign(x_d), the principal branch on which f(r) > 0.
    """

    c: float
    s: float
    t: float
    sigma: int

    @classmethod
    def from_slope(cls, c: float, sigma: int = 1) -> "RadialAuxiliaries":
        t = 1.0 + c * c
        return cls(c=c, s=math.sqrt(t), t=t, sigma=sigma)


def _profile(model_id: int, k: tuple[float, ...], r):
    """f(r) for a float or an ndarray of radii; the result has r's type.

    Where a rational denominator is below DENOM_EPS in magnitude f is
    undefined and reads nan; no exception is raised here, so a caller can
    evaluate a batch past one bad radius. The public functions raise through
    _checked. Polynomial models return before any denominator check, so model
    0's float evaluation (the inner loop of numeric inversion) stays plain
    arithmetic.
    """
    r2 = r * r
    if model_id == 0:
        return 1.0 + k[0] * r2 + k[1] * r2 * r2
    if model_id == 1:
        return 1.0 + k[0] * r
    if model_id == 2:
        return 1.0 + k[0] * r2
    if model_id == 3:
        return 1.0 + k[0] * r + k[1] * r2
    if model_id == 4:
        num, den = 1.0, 1.0 + k[0] * r
    elif model_id == 5:
        num, den = 1.0, 1.0 + k[0] * r2
    elif model_id == 6:
        num, den = 1.0 + k[0] * r, 1.0 + k[1] * r2
    elif model_id == 7:
        num, den = 1.0, 1.0 + k[0] * r + k[1] * r2
    elif model_id == 8:
        num, den = 1.0 + k[0] * r, 1.0 + k[1] * r + k[2] * r2
    elif model_id == 9:
        num, den = 1.0 + k[0] * r2, 1.0 + k[1] * r + k[2] * r2
    else:
        raise UnknownModel(f"no distortion model with id {model_id!r}")
    small = abs(den) < DENOM_EPS
    if not isinstance(small, np.ndarray):
        return math.nan if small else num / den
    if small.any():
        # Divide only where defined, so a vanishing denominator warns nothing.
        return np.divide(num, den, out=np.full(den.shape, math.nan), where=~small)
    return num / den


def _rational(model_id: int, k: tuple[float, ...]) -> tuple[list[float], list[float]]:
    """N and D as ascending coefficients in r, for invertible_radius."""
    coefficients = iter(k)
    num, den = ([1.0] + [0.0] * max(powers, default=0) for powers in _TERMS[model_id])
    for c, powers in zip((num, den), _TERMS[model_id]):
        for p in powers:
            c[p] = next(coefficients)
    return num, den


def _sign_changes(c: list[float], end: float) -> list[float]:
    """Last radii before each sign change on (0, end) of c (ascending coefficients).

    c is monotone between the sign changes of its derivative; bisection on
    signs alone finds each piece's own to adjacent floats, at any scale.
    """
    while c and c[0] == 0.0:
        c = c[1:]  # dividing by r keeps every sign on r > 0

    def positive(r):
        v = 0.0
        for a in reversed(c):
            v = v * r + a
        return v > 0.0
    ends = _sign_changes([i * a for i, a in enumerate(c)][1:], end) if len(c) > 1 else []
    changes, start = [], 0.0
    for stop in ends + [end]:
        lo, hi, up = start, stop, positive(stop)
        if positive(lo) != up:
            while lo < (x := 0.5 * (lo + hi)) < hi:
                lo, hi = (lo, x) if positive(x) == up else (x, hi)
            changes.append(lo)
        start = stop
    return changes


def _checked(model_id: int, r, f):
    """f unchanged, or SingularProfile at the first radius where f is nan."""
    if isinstance(f, np.ndarray):
        bad = np.isnan(f)
        if bad.any():
            where = float(np.broadcast_to(r, f.shape)[bad][0])
            raise SingularProfile(f"model {model_id} denominator vanished at r={where!r}")
    elif f != f:
        raise SingularProfile(f"model {model_id} denominator vanished at r={float(r)!r}")
    return f


def eval_profile(model: DistortionModel, r):
    """Evaluate the radial scale factor f(r).

    r may be a nonnegative scalar or an ndarray of radii; the return type
    matches. Raises SingularProfile if any rational denominator falls below
    DENOM_EPS in magnitude, or if f is nan for another reason (a nan radius,
    overflow).
    """
    if not isinstance(r, np.ndarray):
        r = float(r)
    return _checked(model.model_id, r, _profile(model.model_id, model.coefficients, r))


def distort_normalized(model: DistortionModel, p: Vec) -> Vec:
    """Forward distortion in the normalized frame: p -> p * f(|p|).

    Accepts a single (x, y) pair or an (..., 2) array. Raises SingularProfile
    as eval_profile does.
    """
    mid, k = model.model_id, model.coefficients
    p = np.asarray(p, dtype=float)
    r = np.hypot(p[..., 0], p[..., 1])
    f = _checked(mid, r, _profile(mid, k, r))
    return p * f[..., None]


@functools.lru_cache(maxsize=256)
def invertible_radius(model: DistortionModel) -> tuple[float, float]:
    """The model's invertible domain as (r_b, F_max), F_max = F(r_b).

    F(r) = r f(r) rises from 0 up to r_b: there either the numerator
    (N + r N') D - r N D' of F' turns negative (a fold), or D falls to
    _POLE_MARGIN times the size of its terms, short of a pole. A distorted
    point has one preimage of radius below r_b exactly when its radius is
    below F_max. r_b is at most 1e100, far past which r^2 overflows.
    """
    mid, k = model.model_id, model.coefficients
    num, den = _rational(mid, k)
    rnum = P.polymulx(num)
    slope = P.polysub(P.polymul(P.polyder(rnum), den), P.polymul(rnum, P.polyder(den)))
    edges = _sign_changes([d - _POLE_MARGIN * abs(d) for d in den], _RADIUS_LIMIT)
    r_b = min(edges + _sign_changes(slope.tolist(), _RADIUS_LIMIT) + [_RADIUS_LIMIT])
    return r_b, r_b * _profile(mid, k, r_b)


def distort_pixel(A: IntrinsicParams, model: DistortionModel, p: Vec) -> Vec:
    """Forward distortion acting on pixel coordinates.

    The distorted pixel is A applied to the distorted normalized point, which
    coincides with distorting in the pixel frame directly: both orderings
    describe the same map because A is shared by (x, y) and (x_d, y_d).
    """
    return denormalize(A, distort_normalized(model, normalize(A, p)))
