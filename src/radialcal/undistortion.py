"""Inversion of the radial distortion models.

Every model except 0 inverts analytically. Fixing the ray slope c = y_d/x_d
and assuming a sign sigma for the unknown x turns x_d = x f(r) into a
polynomial in x of degree at most three (see branch_reduce). The algorithm:

1. the origin maps to the origin;
2. a point outside the model's invertible domain (its distorted radius is
   not below F_max, see invertible_radius) raises NoRealCandidate;
3. take sigma = sign(x_d): the principal branch has f(r) > 0, so x and x_d
   share a sign (the opposite branch only holds preimages with f(r) < 0);
4. solve that one reduction, discard complex roots and roots with the wrong
   sign, and return the smallest |x| if its radius r is below r_b, the end of
   the domain, and F(r) = r f(r) re-distorts onto the point; otherwise bisect
   as undistort_numeric does. The re-distortion test catches roots that fit
   the rounded polynomial but not the model: radicals that cancel, or a tiny
   leading coefficient dropped although its term dominates at the root.
   Radicals that would overflow a float give no root either.

Model 0 reduces to a quintic, so it is inverted numerically instead
(undistort_numeric, which also serves as a cross-check oracle for the
analytic path). Each model's domain and the coefficients of N and D that
the branch polynomial is written from are read once and cached (_plan).

Each public function takes one (x, y) pair or an (..., 2) array, and picks
its route by that shape. A pair runs in Python floats from end to end in
_pair, building no numpy object but its result, which is the cheaper route
for one point; undistort_pixel's pair route does the same from pixel to
pixel. _pair does steps 1 and 2 once, then bisects, after a closed-form
miss on the analytic route. An array is inverted in one vectorised pass
(_invert_points): the same branch coefficients, quadratic and linear
formulas with the same Newton step, the cubic radicals over complex arrays,
masked root selection, and for the numeric route lock-step bracketing and
bisection. Rows the vectorised formulas do not cover (a collapsed
polynomial degree, a non-finite coordinate, a root missing, past r_b or off
the point) and rows outside the domain go through _pair, so an array raises
what the pair call raises for its first failing point.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .core import (
    IntrinsicParams,
    Vec,
    _as_points,
    _denormalize_pair,
    _normalize_pair,
    denormalize,
    normalize,
)
from .distortion import DistortionModel, RadialAuxiliaries, _profile, _rational
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
# A closed-form root of radius r is accepted only when F(r) = r f(r) lies
# within this fraction of max(1, r_d) of the distorted radius r_d. Where a
# tiny coefficient makes the radicals cancel, or is dropped although its term
# dominates at the root, the root fits the rounded polynomial but not F.
_REDISTORT_TOL = 1e-12
# Array radicals of a cubic whose y, p and q are at most this large cannot
# overflow (27 y^2 q^2 < 1e302); past it, rows go to _pair's float radicals.
_RADICAL_LIMIT = 1e75
# Largest undistorted radius inversion considers; see invertible_radius.
_RADIUS_LIMIT = 1e100
# Inversion stops short of a pole, where D falls to this fraction of the size
# of its terms: closer in, D's rounding would move F by more than that.
_POLE_MARGIN = 2.0**-26


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


@functools.lru_cache(maxsize=256)
def _plan(model: DistortionModel) -> tuple:
    """The model's inversion data, read once: (r_b, F_max, n1, n2, d1, d2, size).

    The domain (see invertible_radius), the r and r^2 coefficients of N and
    D, and the branch polynomial's length (_branch_coefficients), which is 0
    for model 0, whose N has terms past r^2.
    """
    mid, k = model.model_id, model.coefficients
    num, den = _rational(mid, k)
    rnum = P.polymulx(num)
    slope = P.polysub(P.polymul(P.polyder(rnum), den), P.polymul(rnum, P.polyder(den)))
    edges = _sign_changes([d - _POLE_MARGIN * abs(d) for d in den], _RADIUS_LIMIT)
    r_b = min(edges + _sign_changes(slope.tolist(), _RADIUS_LIMIT) + [_RADIUS_LIMIT])
    n1, n2, d1, d2 = (num + [0.0, 0.0])[1:3] + (den + [0.0, 0.0])[1:3]
    size = 0 if len(num) > 3 else max(len(num) + 1, len(den))
    return r_b, r_b * _profile(mid, k, r_b), n1, n2, d1, d2, size


def invertible_radius(model: DistortionModel) -> tuple[float, float]:
    """The model's invertible domain as (r_b, F_max), F_max = F(r_b).

    F(r) = r f(r) rises from 0 up to r_b: there either the numerator
    (N + r N') D - r N D' of F' turns negative (a fold), or D falls to
    _POLE_MARGIN times the size of its terms, short of a pole. A distorted
    point has one preimage of radius below r_b exactly when its radius is
    below F_max. r_b is at most 1e100, far past which r^2 overflows.
    """
    return _plan(model)[:2]


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
    if abs(prob.q) < COEFF_EPS:
        raise DegenerateLeadingCoefficient(f"|q|={abs(prob.q)!r} too small for the closed form")
    return _radicals(prob.y, prob.p, prob.q)


def _radicals(y: float, p: float, q: float) -> tuple[complex, complex, complex]:
    """solve_cubic_closed's roots for floats, with |q| >= COEFF_EPS."""
    inner = 4.0 * q - p * p + 18.0 * p * q * y + 27.0 * y * y * q * q - 4.0 * y * p**3
    sq = 12.0 * _SQRT3 * q * cmath.sqrt(complex(inner))
    base = 36.0 * p * q + 108.0 * y * q * q - 8.0 * p**3
    bracket = base + sq if abs(base + sq) >= abs(base - sq) else base - sq
    e1 = bracket ** (1.0 / 3.0)
    if e1 == 0:
        # Triple root: only possible when the depressed cubic degenerates.
        x = complex(-p / (3.0 * q))
        return (x, x, x)
    return _back_substitute(e1, p, q)


def _back_substitute(e1, p, q) -> tuple:
    """solve_cubic_closed's three roots from E1 != 0, for numbers or arrays."""
    e2 = (p * p - 3.0 * q) / (q * e1)
    a = e1 / (6.0 * q)
    b = (2.0 / 3.0) * e2
    shift = -p / (3.0 * q)
    re = -0.5 * a - 0.5 * b + shift
    im = (_SQRT3 / 2.0) * (a - b)
    return (a + b + shift, re + 1j * im, re - 1j * im)


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

    Returns ascending coefficients (a0, a1, ...) of x N(r) - x_d D(r), with
    f = N/D, after substituting r = aux.s * sigma * x for the sign assumption
    sigma = aux.sigma. Model 0 (a quintic) raises UnsupportedModel.
    """
    plan = _plan(model)
    if not plan[-1]:
        raise UnsupportedModel(f"model {model.model_id} has no polynomial branch reduction")
    return _branch_coefficients(plan, x_d, aux.s, aux.t, aux.sigma)


def _branch_coefficients(plan: tuple, x_d, s, t, sg) -> tuple:
    """branch_reduce's coefficients from _plan, for floats or for arrays
    holding one point per entry. With N = 1 + n1 r + n2 r^2, D = 1 + d1 r +
    d2 r^2 and r = w x, w = sg s, r^2 = t x^2, these are x N - x_d D's
    coefficients, cut to the model's size."""
    _, _, n1, n2, d1, d2, size = plan
    w = sg * s
    return (-x_d, 1.0 - x_d * d1 * w, n1 * w - x_d * d2 * t, n2 * t)[:size]


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
    return np.where(triple, -p / (3.0 * q), np.array(_back_substitute(e1, p, q)))


def _principal_roots(coeffs, sigma: np.ndarray) -> np.ndarray:
    """_pair's closed-form candidate for every row; nan where it has no root.

    coeffs holds one array per coefficient. Rows the closed formulas do not
    cover also read nan, for the caller to pass to the pair route: those
    where _pair falls back to solve_poly_real (a leading coefficient, or a
    cubic's linear one or normalized q, below COEFF_EPS), and cubics with y,
    p or q past _RADICAL_LIMIT, whose radicals could overflow.
    """
    deg = len(coeffs) - 1
    keep = np.abs(coeffs[-1]) >= COEFF_EPS
    if deg == 3:
        keep &= np.abs(coeffs[1]) >= COEFF_EPS
    rows = np.flatnonzero(keep)
    a = [v[rows] for v in coeffs]
    if deg == 3:
        ypq = np.array([-a[0] / a[1], a[2] / a[1], a[3] / a[1]])
        fits = (np.abs(ypq[2]) >= COEFF_EPS) & (np.abs(ypq).max(axis=0) <= _RADICAL_LIMIT)
        rows, ypq = rows[fits], ypq[:, fits]
        z = _cubic_roots(*ypq)
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
    """Principal preimages x along the rays y = c x; nan where none below r_b
    re-distorts onto the point (see _REDISTORT_TOL)."""
    plan = _plan(model)
    sigma = np.where(x_d > 0.0, 1.0, -1.0)
    t = 1.0 + c * c
    s = np.sqrt(t)
    x = _principal_roots(_branch_coefficients(plan, x_d, s, t, sigma), sigma)
    r_b, f_max = plan[:2]
    r_d = s * np.abs(x_d)
    r = s * np.abs(x)
    ok = (r_d < f_max) & (r < r_b)
    r = np.where(ok, r, 0.0)
    F = r * _profile(model.model_id, model.coefficients, r)
    ok &= np.abs(F - r_d) <= _REDISTORT_TOL * np.maximum(1.0, r_d)
    return np.where(ok, x, np.nan)


def _numeric_ray(model: DistortionModel, x_d: np.ndarray, c: np.ndarray) -> np.ndarray:
    """undistort_numeric's bracket and bisection on every ray in lock step.

    Each point runs the pair route's arithmetic, so the results are bit for
    bit the same. nan marks a point outside the invertible domain.
    """
    mid, k = model.model_id, model.coefficients
    xd = np.abs(x_d)
    s = np.sqrt(1.0 + c * c)
    r_b, f_max = _plan(model)[:2]
    top = r_b / s
    lo = np.where(s * xd < f_max, 0.0, np.nan)
    hi = xd.copy()
    todo = np.flatnonzero(lo == 0.0)
    while todo.size:
        todo = todo[hi[todo] < top[todo]]
        short = hi[todo] * _profile(mid, k, s[todo] * hi[todo]) - xd[todo] < 0.0
        todo = todo[short]
        lo[todo] = hi[todo]
        hi[todo] *= 2.0
    hi = np.minimum(hi, top)
    x = 0.5 * (lo + hi)
    act = (lo < x) & (x < hi)
    while act.any():
        fx = x * _profile(mid, k, s * x) - xd
        lo = np.where(act & (fx <= 0.0), x, lo)
        hi = np.where(act & ~(fx < 0.0), x, hi)
        x = 0.5 * (lo + hi)
        act = (lo < x) & (x < hi)
    return np.where(x_d < 0.0, -x, x)


def _invert_points(model: DistortionModel, pd: np.ndarray, closed: bool) -> np.ndarray:
    """Invert an (..., 2) array with the closed-form or numeric ray solver.

    The origin maps to itself. Each other point is solved along its ray
    from the larger coordinate, as in _pair. Rows with a non-finite
    coordinate, and rows the ray solver leaves nan, go through _pair in
    array order: it returns what the vectorised formulas do not cover and
    raises for the first point without a preimage.
    """
    flat = pd.reshape(-1, 2)
    finite = np.isfinite(flat).all(axis=1)
    out = np.zeros(flat.shape)
    out[~finite] = np.nan
    live = np.flatnonzero(finite & (flat != 0.0).any(axis=1))
    u, v = flat[live, 0], flat[live, 1]
    swap = np.abs(u) < np.abs(v)
    x_d = np.where(swap, v, u)
    c = np.where(swap, u, v) / x_d
    x = (_closed_form_ray if closed else _numeric_ray)(model, x_d, c)
    y = c * x
    out[live, 0] = np.where(swap, y, x)
    out[live, 1] = np.where(swap, x, y)
    for i in np.flatnonzero(np.isnan(out[:, 0])):
        out[i] = _pair(model, *flat[i].tolist(), closed)
    return out.reshape(pd.shape)


def _invert(model: DistortionModel, pd: Vec, closed: bool) -> Vec:
    """Route a pair to _pair and anything else to _invert_points."""
    pd = _as_points(pd)
    if pd.shape != (2,):
        return _invert_points(model, pd, closed)
    return np.array(_pair(model, *pd.tolist(), closed))


def _pair(model: DistortionModel, xd: float, yd: float, closed: bool) -> tuple[float, float]:
    """Invert one point in Python floats: by steps 1-4 of the module
    docstring when closed is set, else by undistort_numeric's bisection.

    Outside the invertible domain it raises NoRealCandidate when closed is
    set and BracketNotFound otherwise.
    """
    if xd == 0.0 and yd == 0.0:
        return 0.0, 0.0
    # Drive the reduction from the larger coordinate so |c| <= 1; this keeps
    # the slope factors bounded (t <= 2) and handles x_d = 0 exactly.
    swap = abs(xd) < abs(yd)
    if swap:
        xd, yd = yd, xd
    c = yd / xd
    t = 1.0 + c * c
    s = math.sqrt(t)
    mid, k, a = model.model_id, model.coefficients, abs(xd)
    r_d = s * a
    plan = _plan(model)
    r_b, f_max = plan[:2]
    if not r_d < f_max:
        if closed:
            raise NoRealCandidate(f"model {mid} has no admissible preimage for ({xd!r}, {yd!r})")
        raise BracketNotFound(f"model {mid}: no preimage for x_d={xd!r} (F_max={f_max!r})")
    x = math.inf  # no closed-form candidate
    if closed:
        # The admissible real root of the principal branch nearest the origin.
        sigma = 1 if xd > 0.0 else -1
        b = _branch_coefficients(plan, xd, s, t, sigma)
        cubic = len(b) == 4 and abs(b[3]) >= COEFF_EPS and abs(b[1]) >= COEFF_EPS
        if cubic and abs(b[3] / b[1]) >= COEFF_EPS:
            # Normalize b0 + b1 x + b2 x^2 + b3 x^3 = 0 to y = x + p x^2 + q x^3.
            try:
                z3 = _radicals(-b[0] / b[1], b[2] / b[1], b[3] / b[1])
            except OverflowError:
                z3 = ()  # radicals past the float range give no candidate: bisect
            roots = [z.real for z in z3 if abs(z.imag) <= IMAG_EPS * max(1.0, abs(z.real))]
        else:
            roots = solve_poly_real(b)
        x = min((x for x in roots if x * sigma > 0.0), key=abs, default=math.inf)
    r = s * abs(x)
    # Bisect unless the candidate lies below r_b and re-distorts onto the point.
    if not (r < r_b and abs(r * _profile(mid, k, r) - r_d) <= _REDISTORT_TOL * max(1.0, r_d)):
        lo, hi, top = 0.0, a, r_b / s
        while hi < top and hi * _profile(mid, k, s * hi) - a < 0.0:
            lo, hi = hi, 2.0 * hi
        hi = min(hi, top)
        # Once lo and hi are adjacent floats the midpoint rounds onto one of them.
        while lo < (x := 0.5 * (lo + hi)) < hi:
            fx = x * _profile(mid, k, s * x) - a
            # An exact root closes the bracket.
            lo, hi = (x, hi) if fx < 0.0 else (x, x) if fx == 0.0 else (lo, x)
        x = math.copysign(x, xd)
    y = c * x
    return (y, x) if swap else (x, y)


def undistort_normalized(model: DistortionModel, pd: Vec) -> Vec:
    """Invert distort_normalized for models 1-9 (model 0 goes numeric).

    Accepts a single (x, y) pair or an (..., 2) array and returns the same
    shape. Returns the principal-branch preimage (steps 2-4 of the module
    docstring), or undistort_numeric's where the closed form has no root
    below r_b that re-distorts onto pd. Raises NoRealCandidate (for model 0
    its subclass BracketNotFound) when pd lies outside the model's
    invertible domain (see invertible_radius); for an array, the error names
    the first such point in array order, as the pair call on that point
    would.
    """
    return _invert(model, pd, model.model_id != 0)


def undistort_numeric(model: DistortionModel, pd: Vec) -> Vec:
    """Invert any model by bisection along the fixed ray.

    Solves x f(s x) = |x_d| for x > 0 and gives x the sign of x_d (every
    profile is even in r, making the ray map odd). Raises BracketNotFound
    when pd lies outside the model's invertible domain (see
    invertible_radius). Inside it the solution is the one below r_b / s. The
    bracket [0, |x_d|] doubles its upper end until it holds the solution or
    reaches r_b / s, which keeps it short when r_b is far (up to 1e100), and
    bisection narrows it until its ends are adjacent floats.

    Accepts a single (x, y) pair or an (..., 2) array and returns the same
    shape. An array is bracketed and bisected in lock step, with each point's
    results bit for bit those of its pair call; its error names the first
    failing point in array order.
    """
    return _invert(model, pd, False)


def undistort_pixel(A: IntrinsicParams, model: DistortionModel, pd: Vec) -> Vec:
    """Inverse of distort_pixel: undistort in the normalized frame.

    Accepts a single (u, v) pair or an (..., 2) array. A pair stays in
    Python floats from pixel to pixel and builds only its result array. An
    array is inverted in one vectorised pass and raises, like
    undistort_normalized, for its first point without a preimage. Both give
    the same bits, except that the array radicals of the cubic models 2, 3
    and 9 can differ from the pair's in the last ulp. When a cubic
    coefficient is tiny, one route can keep its radical root where the
    other falls back to bisection; the two then agree only to within the
    re-distortion bound, not to a few ulp.
    """
    pd = _as_points(pd)
    closed = model.model_id != 0
    if pd.shape != (2,):
        return denormalize(A, _invert_points(model, normalize(A, pd), closed))
    x, y = _pair(model, *_normalize_pair(A, *pd.tolist()), closed)
    return np.array(_denormalize_pair(A, x, y))
