"""Inversion of the radial distortion models.

Every model except 0 inverts analytically. Fixing the ray slope c = y_d/x_d
and assuming a sign sigma for the unknown x turns x_d = x f(r) into a
polynomial in x of degree at most three (see branch_reduce). The algorithm:

1. the origin maps to the origin;
2. take sigma = sign(x_d): the principal branch has f(r) > 0, so x and x_d
   share a sign (the opposite branch only holds preimages with f(r) < 0);
3. solve that one reduction, discard complex roots and roots with the wrong
   sign, and return the smallest |x|. It is the first crossing of
   F(r) = r f(r) with the distorted radius, moving out from the origin, the
   same preimage undistort_numeric brackets;
4. with no admissible root, or when that root lies at or past the first
   pole of the profile's denominator D (where F stops being continuous),
   raise NoRealCandidate.

Model 0 reduces to a quintic, so it is inverted numerically instead
(undistort_numeric, which also serves as a cross-check oracle for the
analytic path).

Each public function takes one (x, y) pair or an (..., 2) array, and picks
its route by that shape. A pair runs scalar Python code, which is the
cheaper route for one point. An array is inverted in one vectorised pass:
the same branch coefficients, quadratic and linear formulas with the same
Newton step, the cubic radicals over complex arrays, masked root selection,
and for the numeric route a block-wise scan with lock-step bisection. Rows
the vectorised formulas do not cover (a collapsed polynomial degree, a
non-finite coordinate) and rows without a preimage go through the pair
route, so an array raises what the pair call raises for its first failing
point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import IntrinsicParams, Vec, denormalize, normalize
from .distortion import DistortionModel, RadialAuxiliaries, _profile
from .errors import (
    BracketNotFound,
    DegenerateLeadingCoefficient,
    NoRealCandidate,
    UnsupportedModel,
    ZeroPolynomial,
)

_SQRT3 = math.sqrt(3.0)

# |imag| above this relative threshold marks a root as genuinely complex.
IMAG_EPS = 1e-8
# Leading coefficients below this magnitude collapse the polynomial degree.
COEFF_EPS = 1e-12
# undistort_numeric scans the undistorted radius (0, _SCAN_RADIUS] in
# _SCAN_STEPS even steps for its bracket. The array route scans
# _SCAN_BLOCK steps at a time and drops each point once it is bracketed.
_SCAN_RADIUS = 2.0
_SCAN_STEPS = 512
_SCAN_BLOCK = 32
# Indices into the coefficients k of the linear and quadratic terms of the
# profile's denominator D(r) = 1 + b r + c r^2 (None: the term is absent).
_DENOMINATOR = {4: (0, None), 5: (None, 0), 6: (None, 1), 7: (0, 1), 8: (1, 2), 9: (1, 2)}


@dataclass(frozen=True, slots=True)
class CubicProblem:
    """The cubic y = x + p x^2 + q x^3 in its inversion normal form."""

    y: float
    p: float
    q: float


def solve_cubic_closed(prob: CubicProblem) -> tuple[complex, complex, complex]:
    """All three roots of y = x + p x^2 + q x^3 by closed-form radicals.

    The three roots come out of one cube root E1 and its companion
    E2 = (p^2 - 3q) / (q E1):

        x1 = E1/(6q) + 2 E2/3 - p/(3q)
        x2,3 = -E1/(12q) - E2/3 - p/(3q) +- (sqrt(3)/2) (E1/(6q) - 2 E2/3) j

    Of the two square-root signs available inside E1 we take the one whose
    bracket has the larger magnitude: the other choice can cancel to machine
    noise and poison the cube root. Either sign is algebraically valid (they
    swap the two halves of the root pair E1/(6q) and 2 E2/3).

    Raises DegenerateLeadingCoefficient when |q| < COEFF_EPS; the formulas
    divide by q, so degenerate cubics belong in solve_poly_real.
    """
    y, p, q = prob.y, prob.p, prob.q
    if abs(q) < COEFF_EPS:
        raise DegenerateLeadingCoefficient(f"|q|={abs(q)!r} too small for the closed form")
    inner = 4.0 * q - p * p + 18.0 * p * q * y + 27.0 * y * y * q * q - 4.0 * y * p**3
    sq = 12.0 * _SQRT3 * q * cmath.sqrt(complex(inner))
    base = 36.0 * p * q + 108.0 * y * q * q - 8.0 * p**3
    bracket = base + sq if abs(base + sq) >= abs(base - sq) else base - sq
    e1 = bracket ** (1.0 / 3.0)
    if e1 == 0:
        # Triple root: only possible when the depressed cubic degenerates.
        x = complex(-p / (3.0 * q))
        return (x, x, x)
    e2 = (p * p - 3.0 * q) / (q * e1)
    a = e1 / (6.0 * q)
    b = (2.0 / 3.0) * e2
    shift = -p / (3.0 * q)
    x1 = a + b + shift
    re = -0.5 * a - 0.5 * b + shift
    im = (_SQRT3 / 2.0) * (a - b)
    return (x1, re + 1j * im, re - 1j * im)


def solve_poly_real(coeffs) -> list[float]:
    """Real roots of a polynomial of degree <= 3, ascending coefficients.

    Leading coefficients below COEFF_EPS collapse the degree. Each root gets
    one Newton polish step. Raises ZeroPolynomial if every coefficient is
    below 1e-15 in magnitude.
    """
    c = [float(v) for v in coeffs]
    if all(abs(v) < 1e-15 for v in c):
        raise ZeroPolynomial("all coefficients are numerically zero")
    while len(c) > 1 and abs(c[-1]) < COEFF_EPS:
        c.pop()
    deg = len(c) - 1
    if deg == 0:
        return []
    if deg == 1:
        roots = [-c[0] / c[1]]
    elif deg == 2:
        a2, a1, a0 = c[2], c[1], c[0]
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc < 0.0:
            return []
        # Avoid cancellation: compute the large-magnitude root first, then
        # get the other from the product a0/a2.
        sd = math.sqrt(disc)
        qq = -0.5 * (a1 + sd) if a1 >= 0.0 else -0.5 * (a1 - sd)
        roots = [qq / a2]
        roots.append(a0 / qq if qq != 0.0 else 0.0)
    else:
        roots = [
            float(z.real)
            for z in np.roots(c[::-1])
            if abs(z.imag) <= IMAG_EPS * max(1.0, abs(z.real))
        ]
    return [_newton_polish(c, x) for x in roots]


def _newton_polish(c, x):
    """One Newton step on the polynomial c at x; x may be an array of roots
    with one array per coefficient in c."""
    val = 0.0
    dval = 0.0
    for coef in reversed(c):
        dval = dval * x + val
        val = val * x + coef
    if isinstance(x, np.ndarray):
        step = np.abs(dval) >= 1e-300
        return np.where(step, x - val / np.where(step, dval, 1.0), x)
    if abs(dval) < 1e-300:
        return x
    return x - val / dval


def branch_reduce(
    model: DistortionModel, x_d: float, aux: RadialAuxiliaries
) -> tuple[float, ...]:
    """Polynomial whose admissible real roots are the inversion candidates.

    Returns ascending coefficients (a0, a1, ...) of the polynomial in x
    obtained by substituting r = aux.s * sigma * x into x_d = x f(r), for the
    sign assumption sigma = aux.sigma. Model 0 has no such reduction.
    """
    return _branch_coefficients(
        model.model_id, model.coefficients, x_d, aux.s, aux.t, aux.sigma
    )


def _branch_coefficients(mid: int, k: tuple[float, ...], x_d, s, t, sg) -> tuple:
    """branch_reduce's table for floats, or for arrays holding one point per
    entry (constant coefficients then stay floats)."""
    if mid == 1:
        return (-x_d, 1.0, k[0] * sg * s)
    if mid == 2:
        return (-x_d, 1.0, 0.0, k[0] * t)
    if mid == 3:
        return (-x_d, 1.0, k[0] * sg * s, k[1] * t)
    if mid == 4:
        return (-x_d, 1.0 - x_d * k[0] * sg * s)
    if mid == 5:
        return (x_d, -1.0, x_d * k[0] * t)
    if mid == 6:
        return (-x_d, 1.0, k[0] * sg * s - x_d * k[1] * t)
    if mid == 7:
        return (x_d, x_d * k[0] * sg * s - 1.0, x_d * k[1] * t)
    if mid == 8:
        return (-x_d, 1.0 - x_d * k[1] * sg * s, k[0] * sg * s - x_d * k[2] * t)
    if mid == 9:
        return (-x_d, 1.0 - x_d * k[1] * sg * s, -x_d * k[2] * t, k[0] * t)
    raise UnsupportedModel(f"model {mid} has no polynomial branch reduction")


def _branch_candidate(
    model: DistortionModel, x_d: float, aux: RadialAuxiliaries
) -> float | None:
    """Admissible real root of one sign branch nearest the origin, or None."""
    coeffs = branch_reduce(model, x_d, aux)
    roots: list[float] = []
    if len(coeffs) == 4 and abs(coeffs[3]) >= COEFF_EPS and abs(coeffs[1]) >= COEFF_EPS:
        # Normalize a0 + a1 x + a2 x^2 + a3 x^3 = 0 to y = x + p x^2 + q x^3.
        a1 = coeffs[1]
        prob = CubicProblem(y=-coeffs[0] / a1, p=coeffs[2] / a1, q=coeffs[3] / a1)
        try:
            for z in solve_cubic_closed(prob):
                if abs(z.imag) <= IMAG_EPS * max(1.0, abs(z.real)):
                    roots.append(z.real)
        except DegenerateLeadingCoefficient:
            roots = solve_poly_real(coeffs)
    else:
        roots = solve_poly_real(coeffs)
    return min((x for x in roots if x * aux.sigma > 0.0), key=abs, default=None)


def _pole_radius(model: DistortionModel) -> float:
    """First positive root of the profile's denominator D(r); inf if none.

    F(r) = r f(r) is continuous only below it, so a branch root at or past
    it is not a first crossing of the distorted radius. D depends on the
    coefficients alone, so this is computed once per call.
    """
    terms = _DENOMINATOR.get(model.model_id)
    if terms is None:
        return math.inf
    lin, quad = terms
    k = model.coefficients
    b = 0.0 if lin is None else k[lin]
    c = 0.0 if quad is None else k[quad]
    if abs(c) < COEFF_EPS:
        return -1.0 / b if b < 0.0 else math.inf
    disc = b * b - 4.0 * c
    if disc < 0.0:
        return math.inf
    # The roots are qq / c and 1 / qq (their product is 1 / c).
    qq = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    lo, hi = qq / c, 1.0 / qq
    if lo > hi:
        lo, hi = hi, lo
    return lo if lo > 0.0 else hi if hi > 0.0 else math.inf


def _cubic_roots(y, p, q) -> np.ndarray:
    """solve_cubic_closed's radicals over arrays: shape (3, n), complex."""
    inner = 4.0 * q - p * p + 18.0 * p * q * y + 27.0 * y * y * q * q - 4.0 * y * p**3
    sq = 12.0 * _SQRT3 * q * np.sqrt(inner.astype(complex))
    base = 36.0 * p * q + 108.0 * y * q * q - 8.0 * p**3
    plus, minus = base + sq, base - sq
    bracket = np.where(np.abs(plus) >= np.abs(minus), plus, minus)
    # A zero bracket is solve_cubic_closed's triple root (e1 == 0).
    triple = bracket == 0
    e1 = np.where(triple, 1.0, bracket) ** (1.0 / 3.0)
    e2 = (p * p - 3.0 * q) / (q * e1)
    a = e1 / (6.0 * q)
    b = (2.0 / 3.0) * e2
    shift = -p / (3.0 * q)
    x1 = a + b + shift
    re = -0.5 * a - 0.5 * b + shift
    im = (_SQRT3 / 2.0) * (a - b)
    return np.where(triple, shift, np.array([x1, re + 1j * im, re - 1j * im]))


def _principal_roots(coeffs, sigma: np.ndarray) -> np.ndarray:
    """_branch_candidate for every row at once; nan where it has no root.

    coeffs holds one array per coefficient. Rows the closed formulas do not
    cover, where _branch_candidate falls back to solve_poly_real (a leading
    coefficient, or a cubic's linear one or normalized q, below COEFF_EPS),
    also read nan, for the caller to pass to the pair route.
    """
    deg = len(coeffs) - 1
    keep = np.abs(coeffs[-1]) >= COEFF_EPS
    if deg == 3:
        keep &= np.abs(coeffs[1]) >= COEFF_EPS
        keep[keep] = np.abs(coeffs[3][keep] / coeffs[1][keep]) >= COEFF_EPS
    rows = np.flatnonzero(keep)
    a = [v[rows] for v in coeffs]
    if deg == 3:
        z = _cubic_roots(-a[0] / a[1], a[2] / a[1], a[3] / a[1])
        roots = z.real
        real = np.abs(z.imag) <= IMAG_EPS * np.maximum(1.0, np.abs(roots))
    elif deg == 2:
        disc = a[1] * a[1] - 4.0 * a[2] * a[0]
        real = np.broadcast_to(disc >= 0.0, (2, rows.size))
        sd = np.sqrt(np.where(real[0], disc, 0.0))
        qq = np.where(a[1] >= 0.0, -0.5 * (a[1] + sd), -0.5 * (a[1] - sd))
        other = np.where(qq != 0.0, a[0] / np.where(qq != 0.0, qq, 1.0), 0.0)
        roots = np.array([_newton_polish(a, x) for x in (qq / a[2], other)])
    else:
        real = np.ones((1, rows.size), dtype=bool)
        roots = _newton_polish(a, -a[0] / a[1])[None]
    admissible = real & (roots * sigma[rows] > 0.0)
    nearest = np.argmin(np.where(admissible, np.abs(roots), np.inf), axis=0)
    x = np.full(sigma.shape, np.nan)
    x[rows] = np.where(
        admissible.any(axis=0), roots[nearest, np.arange(rows.size)], np.nan
    )
    return x


def _closed_form_ray(model: DistortionModel, x_d: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Principal preimages x along the rays y = c x; nan where none."""
    sigma = np.where(x_d > 0.0, 1.0, -1.0)
    t = 1.0 + c * c
    s = np.sqrt(t)
    coeffs = _branch_coefficients(model.model_id, model.coefficients, x_d, s, t, sigma)
    x = _principal_roots([np.broadcast_to(v, x_d.shape) for v in coeffs], sigma)
    return np.where(s * np.abs(x) < _pole_radius(model), x, np.nan)


def _numeric_ray(model: DistortionModel, x_d: np.ndarray, c: np.ndarray) -> np.ndarray:
    """undistort_numeric's scan and bisection on every ray in lock step.

    Each point runs the pair route's arithmetic, so the results are bit for
    bit the same. nan marks a point without a bracket or with a pole.
    """
    mid, k = model.model_id, model.coefficients
    xd = np.abs(x_d)
    s = np.sqrt(1.0 + c * c)
    x_hi = _SCAN_RADIUS / s
    # First scan step whose residual is not a finite negative number, and the
    # residual there; _SCAN_STEPS marks a point with no such step.
    stop = np.full(xd.shape, _SCAN_STEPS)
    f_stop = np.full(xd.shape, np.nan)
    todo = np.arange(xd.size)
    for first in range(0, _SCAN_STEPS, _SCAN_BLOCK):
        if not todo.size:
            break
        grid = x_hi[todo, None] * np.arange(first + 1, first + _SCAN_BLOCK + 1) / _SCAN_STEPS
        f = grid * _profile(mid, k, s[todo, None] * grid) - xd[todo, None]
        hit = (f >= 0.0) | ~np.isfinite(f)
        found = np.flatnonzero(hit.any(axis=1))
        i = hit[found].argmax(axis=1)
        stop[todo[found]] = first + i
        f_stop[todo[found]] = f[found, i]
        todo = np.delete(todo, found)
    bracketed = np.isfinite(f_stop)
    hi = np.where(bracketed, x_hi * (stop + 1) / _SCAN_STEPS, np.nan)
    lo = np.where(stop > 0, x_hi * stop / _SCAN_STEPS, 0.0)
    lo = np.where(f_stop == 0.0, hi, np.where(bracketed, lo, np.nan))
    x = 0.5 * (lo + hi)
    act = (lo < x) & (x < hi)
    while act.any():
        fx = x * _profile(mid, k, s * x) - xd
        lo = np.where(act & (fx <= 0.0), x, lo)
        hi = np.where(act & (fx >= 0.0), x, hi)
        # A nan residual is a pole, not a root: the point leaves with nan.
        lo[act & np.isnan(fx)] = np.nan
        x = 0.5 * (lo + hi)
        act = (lo < x) & (x < hi)
    return np.where(x_d < 0.0, -x, x)


def _invert_points(model: DistortionModel, pd: np.ndarray, ray, pair) -> np.ndarray:
    """Invert an (..., 2) array with a vectorised ray solver.

    The origin maps to itself. Each other point is solved along its ray
    from the larger coordinate, as in the pair route. Rows with a non-finite
    coordinate, and rows the ray solver leaves nan, go through the pair
    route in array order: it returns what the vectorised formulas do not
    cover and raises for the first point without a preimage.
    """
    if pd.ndim == 0 or pd.shape[-1] != 2:
        raise ValueError(f"expected an (x, y) pair or an (..., 2) array, got shape {pd.shape}")
    flat = pd.reshape(-1, 2)
    finite = np.isfinite(flat).all(axis=1)
    out = np.zeros(flat.shape)
    out[~finite] = np.nan
    live = np.flatnonzero(finite & (flat != 0.0).any(axis=1))
    u, v = flat[live, 0], flat[live, 1]
    swap = np.abs(u) < np.abs(v)
    x_d = np.where(swap, v, u)
    c = np.where(swap, u, v) / x_d
    x = ray(model, x_d, c)
    y = c * x
    out[live, 0] = np.where(swap, y, x)
    out[live, 1] = np.where(swap, x, y)
    for i in np.flatnonzero(np.isnan(out[:, 0])):
        out[i] = pair(model, flat[i])
    return out.reshape(pd.shape)


def undistort_normalized(model: DistortionModel, pd: Vec) -> Vec:
    """Invert distort_normalized for models 1-9 (model 0 goes numeric).

    Accepts a single (x, y) pair or an (..., 2) array and returns the same
    shape. Returns the principal-branch preimage (step 3 of the module
    docstring). Raises NoRealCandidate when that branch has no admissible
    root, or only one at or past the first pole of D, i.e. pd lies outside
    the model's invertible range for these coefficients; for an array, the
    error names the first such point in array order, as the pair call on
    that point would.
    """
    if model.model_id == 0:
        return undistort_numeric(model, pd)
    pd = np.asarray(pd, dtype=float)
    if pd.shape != (2,):
        return _invert_points(model, pd, _closed_form_ray, undistort_normalized)
    xd, yd = float(pd[0]), float(pd[1])
    if xd == 0.0 and yd == 0.0:
        return np.array([0.0, 0.0])
    # Drive the reduction from the larger coordinate so |c| <= 1; this keeps
    # the slope factors bounded (t <= 2) and handles x_d = 0 exactly.
    swap = abs(xd) < abs(yd)
    if swap:
        xd, yd = yd, xd
    c = yd / xd
    sigma = 1 if xd > 0.0 else -1
    aux = RadialAuxiliaries.from_slope(c, sigma)
    x = _branch_candidate(model, xd, aux)
    if x is None or aux.s * abs(x) >= _pole_radius(model):
        raise NoRealCandidate(
            f"model {model.model_id} has no admissible preimage for ({xd!r}, {yd!r})"
        )
    y = c * x
    if swap:
        x, y = y, x
    return np.array([x, y])


def undistort_numeric(model: DistortionModel, pd: Vec) -> Vec:
    """Invert any model by bisection along the fixed ray.

    Solves x f(s x) = x_d for x in (0, 2/s] after mirroring the problem so
    the driving distorted coordinate is positive (every profile is even in r,
    making the ray map odd). The residual is evaluated at _SCAN_STEPS even
    steps in one array call; the first step where it is not negative
    brackets the root, and bisection narrows the bracket until its ends are
    adjacent floats.

    The search stops at undistorted radius _SCAN_RADIUS = 2, so a preimage
    farther out is not found. Raises BracketNotFound when no sign change
    comes before the first undefined (nan) profile value on the interval, or
    when the bracket closes on a pole of the profile rather than a root.

    Accepts a single (x, y) pair or an (..., 2) array and returns the same
    shape. An array is scanned _SCAN_BLOCK steps at a time and bisected in
    lock step, with each point's results bit for bit those of its pair call;
    its error names the first failing point in array order.
    """
    pd = np.asarray(pd, dtype=float)
    if pd.shape != (2,):
        return _invert_points(model, pd, _numeric_ray, undistort_numeric)
    xd, yd = float(pd[0]), float(pd[1])
    if xd == 0.0 and yd == 0.0:
        return np.array([0.0, 0.0])
    swap = abs(xd) < abs(yd)
    if swap:
        xd, yd = yd, xd
    mirror = xd < 0.0
    if mirror:
        xd, yd = -xd, -yd
    c = yd / xd
    s = math.sqrt(1.0 + c * c)
    mid, k = model.model_id, model.coefficients

    x_hi = _SCAN_RADIUS / s
    grid = x_hi * np.arange(1, _SCAN_STEPS + 1) / _SCAN_STEPS
    f = grid * _profile(mid, k, s * grid) - xd
    # The residual is -x_d < 0 at the origin; stop at the first step that is
    # not a finite negative number.
    stops = np.flatnonzero((f >= 0.0) | ~np.isfinite(f))
    if not stops.size or not math.isfinite(f[stops[0]]):
        raise BracketNotFound(
            f"model {mid}: no sign change on (0, {x_hi!r}] for x_d={xd!r}"
        )
    i = stops[0]
    lo, hi = (float(grid[i - 1]) if i else 0.0), float(grid[i])
    if f[i] == 0.0:
        lo = hi
    # Once lo and hi are adjacent floats the midpoint rounds onto one of them.
    while lo < (x := 0.5 * (lo + hi)) < hi:
        fx = x * _profile(mid, k, s * x) - xd
        if fx != fx:
            raise BracketNotFound(
                f"model {mid}: the sign change near x={x!r} is a pole, not a root"
            )
        if fx < 0.0:
            lo = x
        elif fx > 0.0:
            hi = x
        else:
            lo = hi = x
    y = c * x
    if mirror:
        x, y = -x, -y
    if swap:
        x, y = y, x
    return np.array([x, y])


def undistort_pixel(A: IntrinsicParams, model: DistortionModel, pd: Vec) -> Vec:
    """Inverse of distort_pixel: undistort in the normalized frame.

    Accepts a single (u, v) pair or an (..., 2) array; an array is inverted
    in one vectorised pass and raises, like undistort_normalized, for its
    first point without a preimage.
    """
    return denormalize(A, undistort_normalized(model, normalize(A, pd)))
