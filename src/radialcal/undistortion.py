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
   Radicals that overflow a float give no root either, and neither does a
   branch polynomial whose coefficients are all below 1e-15.

Model 0 reduces to a quintic, so it is inverted numerically instead
(undistort_numeric, which also serves as a cross-check oracle for the
analytic path). Each model's domain and branch coefficients are read once
and cached (_plan).

Each public function takes one (x, y) pair or an (..., 2) array, and picks
its route by that shape. A pair runs in Python floats from end to end in
_pair, building no numpy object but its result, which is the cheaper route
for one point; undistort_pixel's pair route does the same from pixel to
pixel. _pair does steps 1 and 2 once, then bisects, after a closed-form
miss on the analytic route. An array is inverted in one vectorised pass
(_invert_points): _closed_form_ray solves every row with the same formulas,
the cubic radicals over complex arrays, and _numeric_ray brackets and
bisects in lock step. Both compute every row and keep each answer by mask,
and arithmetic on the rows they drop warns nothing. The origin rows read
(0.0, 0.0) by one mask. Rows the vectorised formulas do not cover (a
collapsed polynomial degree, a non-finite coordinate, a root missing,
non-finite, past r_b or off the point) and rows outside the domain go
through _pair, so an array raises what the pair call raises, naming its
first failing point.
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
    _real,
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
# within this fraction of the distorted radius r_d. Where a tiny coefficient
# makes the radicals cancel, or is dropped although its term dominates at the
# root, or r_d is so small that the radicals' rounding swamps the root, the
# root fits the rounded polynomial but not F.
_REDISTORT_TOL = 1e-12
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
        return _horner(c, r) > 0.0
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


def _horner(c: list[float], r: float) -> float:
    """c (ascending coefficients) at r, in Python floats: overflow reads inf
    and warns nothing."""
    v = 0.0
    for a in reversed(c):
        v = v * r + a
    return v


@functools.lru_cache(maxsize=256)
def _plan(model: DistortionModel) -> tuple:
    """The model's inversion data, read once: (r_b, F_max, n1, n2, d1, d2, size).

    The domain (see invertible_radius), the r and r^2 coefficients of N and
    D, and the branch polynomial's length (_branch_coefficients), which is 0
    for model 0, whose N has terms past r^2.
    """
    num, den = _rational(model._slots)
    e = math.frexp(max(map(abs, num + den)))[1]
    # Coefficients past 2^510 are scaled by a power of two to below 2^510, so
    # the slope's products stay below 2^1023. Its constant term, the scale
    # squared, stays a normal float while they are below 2^1021, and there the
    # scaling is exact and keeps every sign change.
    rnum, sden = ([2.0 ** min(0, 510 - e) * a for a in c] for c in (P.polymulx(num), den))
    slope = P.polysub(P.polymul(P.polyder(rnum), sden), P.polymul(rnum, P.polyder(sden)))
    # D short of its pole and the slope are positive at r = 0; a sign change
    # below 2^-1022 lies among subnormal radii, which _sign_changes cannot
    # bisect.
    polys = [[d - _POLE_MARGIN * abs(d) for d in den], slope.tolist()]
    if not all(_horner(c, 2.0**-1022) > 0.0 for c in polys):
        raise UnsupportedModel(f"model {model.model_id} with coefficients {model.coefficients}"
                               " has a pole or fold among subnormal radii")
    r_b = min(sum((_sign_changes(c, _RADIUS_LIMIT) for c in polys), [_RADIUS_LIMIT]))
    f_max = r_b * _profile(model._slots, r_b)
    if not f_max > 0.0:
        # Huge coefficients overflow N and D at r_b (inf / inf), or N / D
        # underflows; scaled to at most 1, r_b N and D stay in range.
        n, d = ([2.0**-e * a for a in c] for c in (num, den))
        f_max = r_b * _horner(n, r_b) / _horner(d, r_b)
    n1, n2, n4, _, d2 = (c is not None for c in model._slots)
    size = 0 if n4 else 4 if n2 else 3 if n1 or d2 else 2
    return r_b, f_max, num[1], num[2], den[1], den[2], size


def invertible_radius(model: DistortionModel) -> tuple[float, float]:
    """The model's invertible domain as (r_b, F_max), F_max = F(r_b).

    F(r) = r f(r) rises from 0 up to r_b: there either the numerator
    (N + r N') D - r N D' of F' turns negative (a fold), or D falls to
    _POLE_MARGIN times the size of its terms, short of a pole. A distorted
    point has one preimage of radius below r_b exactly when its radius is
    below F_max. r_b is at most 1e100, far past which r^2 overflows.

    Raises UnsupportedModel when D or the slope changes sign below 2^-1022,
    among subnormal radii, where no edge can be bisected.
    """
    return _plan(model)[:2]


@dataclass(frozen=True, slots=True)
class CubicProblem:
    """The cubic y = x + p x^2 + q x^3 in its inversion normal form.

    y, p and q are finite real numbers (numbers.Real), stored as floats;
    any other value raises ValueError naming the field.
    """

    y: float
    p: float
    q: float

    def __post_init__(self):
        for name in ("y", "p", "q"):
            value = _real(name, getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)


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

    Raises DegenerateLeadingCoefficient when |q| < COEFF_EPS, as the
    formulas divide by q, and when the radicals overflow a float; such
    cubics belong in solve_poly_real.
    """
    if abs(prob.q) < COEFF_EPS:
        raise DegenerateLeadingCoefficient(f"|q|={abs(prob.q)!r} too small for the closed form")
    try:
        return _radicals(prob.y, prob.p, prob.q)
    except OverflowError:
        raise DegenerateLeadingCoefficient(f"radicals of {prob!r} overflow a float") from None


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
    with one array per coefficient in c, whose caller silences the warnings
    of the rows it drops."""
    val = 0.0
    dval = 0.0
    for coef in reversed(c):
        dval = dval * x + val
        val = val * x + coef
    if isinstance(x, np.ndarray):
        return np.where(np.abs(dval) >= 1e-300, x - val / dval, x)
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


def _closed_form_ray(model: DistortionModel, x_d: np.ndarray, c: np.ndarray) -> np.ndarray:
    """_pair's closed form on every ray y = c x: the principal preimage x, or
    nan where _pair bisects or hands the row to solve_poly_real.

    Every row's branch polynomial is solved with _pair's formulas for the
    model's degree, and a mask keeps the rows that _pair would solve so:
    arithmetic on the others warns nothing and its result is dropped. A
    non-finite root, where the radicals overflow, is no candidate.
    """
    plan = _plan(model)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sigma = np.where(x_d > 0.0, 1.0, -1.0)
        t = 1.0 + c * c
        s = np.sqrt(t)
        a = _branch_coefficients(plan, x_d, s, t, sigma)
        solvable = np.abs(a[-1]) >= COEFF_EPS
        if len(a) == 4:
            # _pair's y = x + p x^2 + q x^3, solved by _radicals' formulas.
            y, p, q = -a[0] / a[1], a[2] / a[1], a[3] / a[1]
            solvable &= (np.abs(a[1]) >= COEFF_EPS) & (np.abs(q) >= COEFF_EPS)
            inner = 4.0 * q - p * p + 18.0 * p * q * y + 27.0 * y * y * q * q - 4.0 * y * p**3
            sq = 12.0 * _SQRT3 * q * np.sqrt(inner.astype(complex))
            base = 36.0 * p * q + 108.0 * y * q * q - 8.0 * p**3
            plus, minus = base + sq, base - sq
            bracket = np.where(np.abs(plus) >= np.abs(minus), plus, minus)
            # A zero bracket is the triple root (_radicals' e1 == 0).
            z = np.where(bracket == 0, -p / (3.0 * q),
                         np.array(_back_substitute(bracket ** (1.0 / 3.0), p, q)))
            roots = z.real
            real = np.abs(z.imag) <= IMAG_EPS * np.maximum(1.0, np.abs(roots))
        elif len(a) == 3:
            disc = a[1] * a[1] - 4.0 * a[2] * a[0]
            real = disc >= 0.0
            sd = np.sqrt(disc)
            qq = np.where(a[1] >= 0.0, -0.5 * (a[1] + sd), -0.5 * (a[1] - sd))
            other = np.where(qq != 0.0, a[0] / qq, 0.0)
            roots = np.array([_newton_polish(a, x) for x in (qq / a[2], other)])
        else:
            real = True
            roots = _newton_polish(a, -a[0] / a[1])[None]
        admissible = solvable & real & (roots * sigma > 0.0)
        # An admissible root has sigma's sign, so the nearest is sigma times
        # the least |root|; with none, x is infinite and fails r < r_b.
        x = sigma * np.min(np.where(admissible, np.abs(roots), np.inf), axis=0)
        r_b, f_max = plan[:2]
        r_d = s * np.abs(x_d)
        r = s * np.abs(x)
        F = r * _profile(model._slots, r)
        ok = (r_d < f_max) & (r < r_b) & (np.abs(F - r_d) <= _REDISTORT_TOL * r_d)
    return np.where(ok, x, np.nan)


def _numeric_ray(model: DistortionModel, x_d: np.ndarray, c: np.ndarray) -> np.ndarray:
    """undistort_numeric's bracket and bisection on every ray in lock step.

    Each point runs the pair route's arithmetic, so the results are bit for
    bit the same. Every row is evaluated and a mask picks the rows that move;
    arithmetic on the others warns nothing. nan marks a point outside the
    invertible domain.
    """
    r_b, f_max = _plan(model)[:2]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        xd = np.abs(x_d)
        s = np.sqrt(1.0 + c * c)
        top = r_b / s
        lo = np.where(s * xd < f_max, 0.0, np.nan)
        hi = xd.copy()
        grow = lo == 0.0
        while grow.any():
            grow &= (hi < top) & (hi * _profile(model._slots, s * hi) - xd < 0.0)
            lo = np.where(grow, hi, lo)
            hi = np.where(grow, 2.0 * hi, hi)
        hi = np.minimum(hi, top)
        x = 0.5 * (lo + hi)
        act = (lo < x) & (x < hi)
        while act.any():
            fx = x * _profile(model._slots, s * x) - xd
            lo = np.where(act & (fx <= 0.0), x, lo)
            hi = np.where(act & ~(fx < 0.0), x, hi)
            x = 0.5 * (lo + hi)
            act = (lo < x) & (x < hi)
    return np.where(x_d < 0.0, -x, x)


def _invert_points(model: DistortionModel, pd: np.ndarray, closed: bool) -> np.ndarray:
    """Invert an (..., 2) array with the closed-form or numeric ray solver.

    Each point is solved along its ray from the larger coordinate, as in
    _pair; every row is computed, and arithmetic on the origin and on
    non-finite rows warns nothing. The origin rows, signed zeros too, read
    (0.0, 0.0) as in _pair. Rows the ray solver leaves nan, the non-finite
    ones among them, go through _pair in array order: it returns what the
    vectorised formulas do not cover and raises for the first point without
    a preimage.
    """
    flat = pd.reshape(-1, 2)
    u, v = flat.T
    swap = np.abs(u) < np.abs(v)
    x_d = np.where(swap, v, u)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c = np.where(swap, u, v) / x_d  # nan at the origin
    x = (_closed_form_ray if closed else _numeric_ray)(model, x_d, c)
    y = c * x
    out = np.stack([np.where(swap, y, x), np.where(swap, x, y)], axis=1)
    out[(flat == 0.0).all(axis=1)] = 0.0
    for i in np.flatnonzero(np.isnan(out[:, 0])):
        try:
            out[i] = _pair(model, *flat[i].tolist(), closed)
        except NoRealCandidate as error:
            error.row = int(i)  # the failing row of pd as (-1, 2), for undistort_pixel
            raise
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
    mid, a = model.model_id, abs(xd)
    r_d = s * a
    plan = _plan(model)
    r_b, f_max = plan[:2]
    slots = model._slots
    if not r_d < f_max:
        point = (yd, xd) if swap else (xd, yd)
        error = NoRealCandidate if closed else BracketNotFound
        raise error(f"model {mid} has no admissible preimage for {point!r} (F_max={f_max!r})")
    x = math.inf  # no closed-form candidate
    if closed:
        # The admissible real root of the principal branch nearest the origin.
        sigma = 1 if xd > 0.0 else -1
        b = _branch_coefficients(plan, xd, s, t, sigma)
        cubic = len(b) == 4 and abs(b[3]) >= COEFF_EPS and abs(b[1]) >= COEFF_EPS
        try:
            if cubic and abs(b[3] / b[1]) >= COEFF_EPS:
                # Normalize b0 + b1 x + b2 x^2 + b3 x^3 = 0 to y = x + p x^2 + q x^3.
                z3 = _radicals(-b[0] / b[1], b[2] / b[1], b[3] / b[1])
                roots = [z.real for z in z3 if abs(z.imag) <= IMAG_EPS * max(1.0, abs(z.real))]
            else:
                roots = solve_poly_real(b)
        except (OverflowError, ZeroPolynomial):
            # Radicals past the float range, or a polynomial with every
            # coefficient below 1e-15, give no candidate: bisect.
            roots = []
        x = min((x for x in roots if x * sigma > 0.0), key=abs, default=math.inf)
    r = s * abs(x)
    # Bisect unless the candidate lies below r_b and re-distorts onto the point.
    if not (r < r_b and abs(r * _profile(slots, r) - r_d) <= _REDISTORT_TOL * r_d):
        lo, hi, top = 0.0, a, r_b / s
        while hi < top and hi * _profile(slots, s * hi) - a < 0.0:
            lo, hi = hi, 2.0 * hi
        hi = min(hi, top)
        # Once lo and hi are adjacent floats the midpoint rounds onto one of them.
        while lo < (x := 0.5 * (lo + hi)) < hi:
            fx = x * _profile(slots, s * x) - a
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
    undistort_normalized, for its first point without a preimage; on both
    routes the message starts with that pixel as given, "pixel (u, v): ",
    before undistort_normalized's message for its normalized point. Both give
    the same bits, except that the array radicals of the cubic models 2, 3
    and 9 can differ from the pair's in the last ulp. When a cubic
    coefficient is tiny or past 1e75, they can round further apart, and one
    route can keep its radical root where the other falls back to
    bisection; the two then agree only to within the re-distortion bound,
    not to a few ulp.
    """
    pd = _as_points(pd)
    closed = model.model_id != 0
    try:
        if pd.shape != (2,):
            return denormalize(A, _invert_points(model, normalize(A, pd), closed))
        x, y = _pair(model, *_normalize_pair(A, *pd.tolist()), closed)
    except NoRealCandidate as error:
        # The normalized point the message names is the caller's pixel: a
        # pair is row 0, and _invert_points marks an array's failing row.
        u, v = pd.reshape(-1, 2)[getattr(error, "row", 0)].tolist()
        error.args = (f"pixel ({u!r}, {v!r}): {error}",)
        raise
    return np.array(_denormalize_pair(A, x, y))
