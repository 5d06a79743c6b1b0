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

Every profile is f = (1 + n1 r + n2 r^2 + n4 r^4) / (1 + d1 r + d2 r^2) with
some of the five slots absent; calibration and undistortion derive what they
need per model from the slots its coefficients fill (_TERMS, _slots).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .core import IntrinsicParams, Vec, _as_points, _real, denormalize, normalize
from .errors import SingularProfile, UnknownModel

MODEL_IDS = tuple(range(10))

# Slots _N1, _N2, _N4 are N's terms in r, r^2, r^4 and _D1, _D2 D's in r,
# r^2; a model's coefficients k_0, k_1, ... fill the slots _TERMS lists.
_N1, _N2, _N4, _D1, _D2 = range(5)
_TERMS = {
    0: (_N2, _N4), 1: (_N1,), 2: (_N2,), 3: (_N1, _N2), 4: (_D1,), 5: (_D2,),
    6: (_N1, _D2), 7: (_D1, _D2), 8: (_N1, _D1, _D2), 9: (_N2, _D1, _D2),
}

# Rational denominators below this magnitude are treated as singular.
DENOM_EPS = 1e-12


def coefficient_arity(model_id: int) -> int:
    """Number of distortion coefficients the model takes.

    A model id is an integer (operator.index): any other raises UnknownModel.
    """
    try:
        return len(_TERMS[operator.index(model_id)])
    except (KeyError, TypeError):
        raise UnknownModel(f"no distortion model with id {model_id!r}") from None


@dataclass(frozen=True, slots=True)
class DistortionModel:
    """A model id together with its coefficient vector.

    model_id is stored as an int: an id that is not an integer (1.0, "1")
    raises UnknownModel, as one outside 0..9 does; True is stored as 1 and
    an np.int64 as its int. coefficients are stored as floats: one that is
    not a real number (numbers.Real, so not "0.1") raises ValueError.
    """

    model_id: int
    coefficients: tuple[float, ...]
    # The coefficients in their slots (see _slots), filled once for every
    # evaluation of f.
    _slots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arity = coefficient_arity(self.model_id)
        object.__setattr__(self, "model_id", operator.index(self.model_id))
        coeffs = tuple(_real("coefficients", k) for k in self.coefficients)
        if len(coeffs) != arity:
            raise ValueError(
                f"model {self.model_id} takes {arity} coefficient(s), got {len(coeffs)}"
            )
        if not all(map(math.isfinite, coeffs)):
            raise ValueError(f"model {self.model_id} coefficients must be finite, got {coeffs}")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "_slots", _slots(self.model_id, coeffs))


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


def _slots(model_id: int, k) -> tuple:
    """(n1, n2, n4, d1, d2) for the model's coefficients k; None marks an absent slot."""
    slots = [None] * 5
    for i, c in zip(_TERMS[model_id], k):
        slots[i] = c
    return tuple(slots)


def _profile(slots: tuple, r):
    """f(r) for a float or an ndarray of radii; the result has r's type.

    N and D sum their present slots in order; an absent one adds nothing,
    not 0 r, which is nan at r = inf. Where |D| < DENOM_EPS f is undefined
    and reads nan; no exception is raised here, so a caller can evaluate a
    batch past one bad radius. The public functions raise through _checked.
    A model without D terms never divides, so model 0's float evaluation
    (the inner loop of numeric inversion) stays plain arithmetic. r^2 is
    formed only for a slot that uses it, so models 1 and 4 never overflow
    there.
    """
    n1, n2, n4, d1, d2 = slots
    if n2 is not None or n4 is not None or d2 is not None:
        r2 = r * r
    num = 1.0
    if n1 is not None:
        num = num + n1 * r
    if n2 is not None:
        num = num + n2 * r2
    if n4 is not None:
        num = num + n4 * r2 * r2
    if d1 is None and d2 is None:
        return num
    den = 1.0
    if d1 is not None:
        den = den + d1 * r
    if d2 is not None:
        den = den + d2 * r2
    small = abs(den) < DENOM_EPS
    if not isinstance(small, np.ndarray):
        return math.nan if small else num / den
    if small.any():
        # Divide only where defined, so a vanishing denominator warns nothing.
        return np.divide(num, den, out=np.full(den.shape, math.nan), where=~small)
    return num / den


def _rational(slots: tuple) -> tuple[list[float], list[float]]:
    """N and D as ascending coefficients in r, 0 for an absent slot."""
    n1, n2, n4, d1, d2 = (0.0 if c is None else c for c in slots)
    return [1.0, n1, n2, 0.0, n4], [1.0, d1, d2]


def _checked(model_id: int, r, f):
    """f unchanged, or SingularProfile at the first radius where f is nan:
    its denominator vanished there, or, for a model without one (0 to 3),
    its profile is undefined there."""
    if isinstance(f, np.ndarray):
        bad = np.isnan(f)
        if not bad.any():
            return f
        r = np.broadcast_to(r, f.shape)[bad][0]
    elif f == f:
        return f
    what = "denominator vanished" if max(_TERMS[model_id]) >= _D1 else "profile is undefined"
    raise SingularProfile(f"model {model_id} {what} at r={float(r)!r}")


def eval_profile(model: DistortionModel, r):
    """Evaluate the radial scale factor f(r).

    r may be a nonnegative scalar or an ndarray of radii, which is taken as
    float (an int array's r * r would wrap around); the return type matches.
    A scalar that is not a real number (numbers.Real) or an array of another
    dtype than bool, int or float raises ValueError, as does a negative
    radius, naming the first one. Raises SingularProfile if any rational
    denominator falls below DENOM_EPS in magnitude, or if f is nan for
    another reason (a nan radius, overflow).
    """
    if isinstance(r, np.ndarray):
        if r.dtype.kind not in "biuf":
            raise ValueError(f"r must be an array of real numbers, got dtype {r.dtype}")
        r = r.astype(float, copy=False)
        negative = r[r < 0.0]
    else:
        r = _real("r", r)
        negative = [r] if r < 0.0 else []
    if len(negative):
        raise ValueError(f"r must be nonnegative, got {float(negative[0])!r}")
    return _checked(model.model_id, r, _profile(model._slots, r))


def distort_normalized(model: DistortionModel, p: Vec) -> Vec:
    """Forward distortion in the normalized frame: p -> p * f(|p|).

    Accepts a single (x, y) pair or an (..., 2) array; any other shape raises
    ValueError. Raises SingularProfile as eval_profile does.
    """
    p = _as_points(p)
    r = np.hypot(p[..., 0], p[..., 1])
    f = _checked(model.model_id, r, _profile(model._slots, r))
    return p * f[..., None]


def distort_pixel(A: IntrinsicParams, model: DistortionModel, p: Vec) -> Vec:
    """Forward distortion acting on pixel coordinates.

    The distorted pixel is A applied to the distorted normalized point, which
    coincides with distorting in the pixel frame directly: both orderings
    describe the same map because A is shared by (x, y) and (x_d, y_d).
    """
    return denormalize(A, distort_normalized(model, normalize(A, p)))
