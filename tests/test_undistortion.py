import itertools
import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import radialcal as rc
import radialcal.undistortion as undistortion
from radialcal.distortion import _rational
from _helpers import disk_points, session_models

ARITY = {1: 1, 2: 1, 3: 2, 4: 1, 5: 1, 6: 2, 7: 2, 8: 3, 9: 3}


def root_set_distance(got, want):
    """Best-case max pairwise distance over all pairings of two root triples.

    Sorting by (real, imag) can pair a conjugate with its mirror when the two
    sets disagree in the last ulp of the real part, so match by permutation
    instead.
    """
    got = [complex(z) for z in got]
    want = [complex(z) for z in want]
    assert len(got) == len(want)
    best = np.inf
    for perm in itertools.permutations(want):
        best = min(best, max(abs(a - b) for a, b in zip(got, perm)))
    return best


def companion_roots(y, p, q):
    """Oracle: roots of q x^3 + p x^2 + x - y via the companion matrix."""
    return np.roots([q, p, 1.0, -y])


def coefficient_envelope():
    """Per-model coefficient magnitudes seen across the bundled sessions."""
    env = {}
    for session in rc.reference_sessions():
        for mid in range(1, 10):
            k = np.abs(rc.reference_coefficients(session, mid))
            env[mid] = np.maximum(env.get(mid, 0.0), k)
    return env


def profile_invertible(model, r_hi=0.55):
    """True when F(r) = r f(r) is positive-slope out to r_hi."""
    rr = np.linspace(0.0, r_hi, 111)
    try:
        f = rc.eval_profile(model, rr)
    except rc.SingularProfile:
        return False
    if not np.all(np.isfinite(f)) or np.any(f <= 0.0):
        return False
    return bool(np.all(np.diff(rr * f) > 0.0))


def first_fold(model, rr=np.linspace(0.0, 2.0, 4001)):
    """First radius on a dense grid where F(r) = r f(r) stops increasing.

    Returns the grid's end when F increases all the way, None when the
    profile is singular on a grid point.
    """
    try:
        F = rr * rc.eval_profile(model, rr)
    except rc.SingularProfile:
        return None
    rising = np.diff(F) > 0.0
    return rr[-1] if rising.all() else rr[int(np.argmin(rising))]


class TestClosedCubic:
    def test_known_factorization(self):
        # x + x^2 + x^3 = 3 factors as (x - 1)(x^2 + 2x + 3) = 0.
        roots = rc.solve_cubic_closed(rc.CubicProblem(y=3.0, p=1.0, q=1.0))
        want = [1.0, complex(-1.0, np.sqrt(2.0)), complex(-1.0, -np.sqrt(2.0))]
        assert root_set_distance(roots, want) < 1e-9

    def test_contains_forward_root(self):
        roots = rc.solve_cubic_closed(rc.CubicProblem(y=0.875, p=1.0, q=1.0))
        assert min(abs(z - 0.5) for z in roots) < 1e-10

    def test_pure_cubic_through_origin(self):
        roots = rc.solve_cubic_closed(rc.CubicProblem(y=0.0, p=0.0, q=1.0))
        real = [z for z in roots if abs(z.imag) <= 1e-8 * max(1.0, abs(z.real))]
        assert len(real) == 1
        assert abs(real[0]) < 1e-12

    def test_back_substitution_residual(self):
        rng = np.random.default_rng(97)
        for _ in range(1000):
            q = float(rng.choice([-1, 1])) * 10.0 ** rng.uniform(-2, 1)
            p = rng.uniform(-3.0, 3.0)
            y = rng.uniform(-3.0, 3.0)
            for z in rc.solve_cubic_closed(rc.CubicProblem(y=y, p=p, q=q)):
                res = abs(z + p * z * z + q * z**3 - y)
                assert res < 1e-8 * max(1.0, abs(y))

    def test_matches_companion_matrix(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            q = float(rng.choice([-1, 1])) * 10.0 ** rng.uniform(-2, 1)
            p = rng.uniform(-3.0, 3.0)
            y = rng.uniform(-3.0, 3.0)
            mine = rc.solve_cubic_closed(rc.CubicProblem(y=y, p=p, q=q))
            oracle = companion_roots(y, p, q)
            assert root_set_distance(mine, oracle) < 1e-8

    def test_degenerate_leading_coefficient(self):
        with pytest.raises(rc.DegenerateLeadingCoefficient):
            rc.solve_cubic_closed(rc.CubicProblem(y=1.0, p=0.5, q=1e-14))
        # p**3 overflows a float: the cubic is outside the closed form's range.
        with pytest.raises(rc.DegenerateLeadingCoefficient):
            rc.solve_cubic_closed(rc.CubicProblem(y=0.002, p=1e103, q=1e103))

    def test_non_finite_field_rejected(self):
        # A nan y once solved to three nan "roots"; an int past the float
        # range reads as inf. Finite fields are stored as floats.
        good = dict(y=1.0, p=0.5, q=1.0)
        for name in good:
            for bad in (math.nan, math.inf, -math.inf, 10**400):
                with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
                    rc.CubicProblem(**{**good, name: bad})
        cubic = rc.CubicProblem(y=1, p=True, q=np.float64(1.0))
        assert [type(v) for v in (cubic.y, cubic.p, cubic.q)] == [float] * 3

    def test_triple_root(self):
        # x + p x^2 + q x^3 - y is (x - x0)^3 / (3 x0^2). At this x0 the
        # bracket rounds to exactly zero: the three roots are -p/(3q).
        x0 = 0.41932550412258496
        roots = rc.solve_cubic_closed(rc.CubicProblem(y=x0 / 3, p=-1 / x0, q=1 / (3 * x0**2)))
        assert roots == (x0 + 0j,) * 3


class TestPolyReal:
    def test_quadratic(self):
        roots = sorted(rc.solve_poly_real((-1.0, 0.0, 1.0)))
        assert abs(roots[0] + 1.0) < 1e-12 and abs(roots[1] - 1.0) < 1e-12

    def test_linear(self):
        roots = rc.solve_poly_real((-3.0, 2.0))
        assert len(roots) == 1 and abs(roots[0] - 1.5) < 1e-14

    def test_quadratic_without_real_roots(self):
        assert rc.solve_poly_real((1.0, 0.0, 1.0)) == []

    def test_double_root(self):
        # (x - 1)^2 has a zero slope at its root: the Newton polish keeps x.
        assert rc.solve_poly_real((1.0, -2.0, 1.0)) == [1.0, 1.0]

    def test_constructed_cubic(self):
        want = [0.1, 0.2, -0.3]
        coeffs = tuple(np.poly(want)[::-1])
        got = sorted(rc.solve_poly_real(coeffs))
        assert len(got) == 3
        for g, w in zip(got, sorted(want)):
            assert abs(g - w) < 1e-10

    def test_degree_collapse(self):
        roots = rc.solve_poly_real((-3.0, 2.0, 1e-15, 1e-16))
        assert len(roots) == 1 and abs(roots[0] - 1.5) < 1e-12

    def test_zero_polynomial(self):
        with pytest.raises(rc.ZeroPolynomial):
            rc.solve_poly_real((1e-16, 0.0, 0.0))

    def test_constant_has_no_roots(self):
        assert rc.solve_poly_real([2.0, 1e-13]) == []
        assert rc.solve_poly_real([2.0]) == []

    def test_residual_after_polish(self):
        rng = np.random.default_rng(103)
        for _ in range(300):
            coeffs = tuple(rng.uniform(-2.0, 2.0, int(rng.integers(2, 5))))
            if all(abs(c) < 1e-12 for c in coeffs[1:]):
                continue
            try:
                roots = rc.solve_poly_real(coeffs)
            except (rc.ZeroPolynomial, rc.DegenerateLeadingCoefficient):
                continue
            for x in roots:
                val = sum(c * x**i for i, c in enumerate(coeffs))
                scale = max(1.0, max(abs(c * x**i) for i, c in enumerate(coeffs)))
                assert abs(val) < 1e-10 * scale


class TestBranchReduce:
    def test_polynomial_vanishes_at_true_preimage(self):
        rng = np.random.default_rng(107)
        env = coefficient_envelope()
        for mid, arity in ARITY.items():
            done = 0
            while done < 60:
                k = tuple(rng.uniform(-1, 1, arity) * env[mid])
                model = rc.DistortionModel(model_id=mid, coefficients=k)
                sigma = 1 if rng.uniform() < 0.5 else -1
                x = sigma * rng.uniform(0.05, 0.5)
                c = rng.uniform(-1.0, 1.0)
                r = abs(x) * np.sqrt(1.0 + c * c)
                try:
                    f = rc.eval_profile(model, r)
                except rc.SingularProfile:
                    continue
                x_d = x * f
                aux = rc.RadialAuxiliaries.from_slope(c, sigma=sigma)
                coeffs = rc.branch_reduce(model, x_d, aux)
                val = sum(a * x**i for i, a in enumerate(coeffs))
                scale = max(1.0, max(abs(a * x**i) for i, a in enumerate(coeffs)))
                assert abs(val) < 1e-9 * scale
                done += 1

    def test_model3_is_the_cubic_problem(self):
        k = (-0.0215, -0.1566)
        model = rc.DistortionModel(model_id=3, coefficients=k)
        aux = rc.RadialAuxiliaries.from_slope(0.4, sigma=1)
        coeffs = rc.branch_reduce(model, 0.3, aux)
        assert coeffs == (-0.3, 1.0, k[0] * aux.s, k[1] * aux.t)

    def test_model4_closed_form(self):
        model = rc.DistortionModel(model_id=4, coefficients=(0.1031,))
        aux = rc.RadialAuxiliaries.from_slope(0.0, sigma=1)
        coeffs = rc.branch_reduce(model, 0.2, aux)
        roots = rc.solve_poly_real(coeffs)
        assert len(roots) == 1
        assert abs(roots[0] - 0.2 / (1.0 - 0.2 * 0.1031)) < 1e-14

    def test_reduction_degrees(self):
        aux = rc.RadialAuxiliaries.from_slope(0.3, sigma=1)
        degree = {}
        for mid, arity in ARITY.items():
            model = rc.DistortionModel(model_id=mid, coefficients=(0.11, 0.07, 0.05)[:arity])
            degree[mid] = len(rc.branch_reduce(model, 0.2, aux)) - 1
        assert degree[2] == 3 and degree[3] == 3 and degree[9] == 3
        assert degree[4] == 1
        for mid in (1, 5, 6, 7, 8):
            assert degree[mid] <= 2

    def test_matches_the_hand_transcribed_table(self):
        """Each model's polynomial, written out by hand from its profile,
        equals branch_reduce's exactly, up to an overall sign."""

        def table(mid, k, x_d, s, t, sg):
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
            return (-x_d, 1.0 - x_d * k[1] * sg * s, -x_d * k[2] * t, k[0] * t)

        rng = np.random.default_rng(1009)
        for mid, arity in ARITY.items():
            for _ in range(300):
                k = rng.uniform(-2.0, 2.0, arity)
                k[rng.uniform(size=arity) < 0.3] = 0.0
                model = rc.DistortionModel(model_id=mid, coefficients=tuple(k))
                x_d = float(rng.uniform(-1.5, 1.5))
                aux = rc.RadialAuxiliaries.from_slope(
                    float(rng.uniform(-1.0, 1.0)), sigma=1 if rng.uniform() < 0.5 else -1
                )
                got = rc.branch_reduce(model, x_d, aux)
                want = table(mid, model.coefficients, x_d, aux.s, aux.t, aux.sigma)
                assert got in (want, tuple(-a for a in want)), (mid, k, x_d, aux)

    def test_model0_unsupported(self):
        model = rc.DistortionModel(model_id=0, coefficients=(-0.2, 0.1))
        aux = rc.RadialAuxiliaries.from_slope(0.0, sigma=1)
        with pytest.raises(rc.UnsupportedModel):
            rc.branch_reduce(model, 0.2, aux)


class TestUndistort:
    def test_origin_fixed_point(self):
        for mid, arity in ARITY.items():
            model = rc.DistortionModel(model_id=mid, coefficients=(0.2, 0.1, 0.05)[:arity])
            out = rc.undistort_normalized(model, np.zeros(2))
            assert out[0] == 0.0 and out[1] == 0.0
        model0 = rc.DistortionModel(model_id=0, coefficients=(-0.2, 0.1))
        out = rc.undistort_normalized(model0, np.zeros(2))
        assert out[0] == 0.0 and out[1] == 0.0

    def test_model4_closed_value(self):
        model = rc.DistortionModel(model_id=4, coefficients=(0.1031,))
        out = rc.undistort_normalized(model, np.array([0.2, 0.0]))
        assert abs(out[0] - 0.2 / (1.0 - 0.2 * 0.1031)) < 1e-12
        assert out[1] == 0.0

    def test_round_trip_session_coefficients(self):
        rng = np.random.default_rng(109)
        for _, _, model in session_models():
            pts = disk_points(rng, 300, radius=0.5)
            distorted = rc.distort_normalized(model, pts)
            for p, pd in zip(pts, distorted):
                q = rc.undistort_normalized(model, pd)
                assert max(abs(q[0] - p[0]), abs(q[1] - p[1])) < 1e-9

    def test_round_trip_scaled_coefficient_draws(self):
        rng = np.random.default_rng(113)
        env = coefficient_envelope()
        cases = 0
        attempts = 0
        while cases < 500:
            attempts += 1
            assert attempts < 50000, "draw acceptance rate collapsed"
            mid = int(rng.integers(1, 10))
            k = tuple(rng.uniform(-2.0, 2.0, ARITY[mid]) * env[mid])
            model = rc.DistortionModel(model_id=mid, coefficients=k)
            if not profile_invertible(model):
                continue
            for p in disk_points(rng, 5, radius=0.5):
                pd = rc.distort_normalized(model, p)
                q = rc.undistort_normalized(model, pd)
                assert max(abs(q[0] - p[0]), abs(q[1] - p[1])) < 1e-9
                cases += 1

    def test_vertical_and_swapped_drivers(self):
        model = rc.DistortionModel(model_id=3, coefficients=(-0.1, -0.15))
        pd = rc.distort_normalized(model, np.array([0.0, 0.4]))
        out = rc.undistort_normalized(model, pd)
        assert out[0] == 0.0
        assert abs(out[1] - 0.4) < 1e-12
        # Steep slope: |y| dominates so the driver coordinate is swapped.
        p = np.array([0.01, 0.45])
        q = rc.undistort_normalized(model, rc.distort_normalized(model, p))
        assert np.max(np.abs(q - p)) < 1e-10

    def test_branch_sign_matches_input(self):
        rng = np.random.default_rng(127)
        for _, _, model in session_models():
            for p in disk_points(rng, 20, radius=0.45):
                pd = rc.distort_normalized(model, p)
                q = rc.undistort_normalized(model, pd)
                if abs(pd[0]) > 1e-12:
                    assert q[0] * pd[0] > 0.0
                if abs(pd[1]) > 1e-12:
                    assert q[1] * pd[1] > 0.0

    def test_inverse_odd_symmetry(self):
        rng = np.random.default_rng(131)
        done = 0
        while done < 300:
            mid = int(rng.integers(1, 10))
            k = tuple(rng.uniform(-0.25, 0.3, ARITY[mid]))
            model = rc.DistortionModel(model_id=mid, coefficients=k)
            pd = rng.uniform(-0.4, 0.4, 2)
            try:
                a = rc.undistort_normalized(model, pd)
                b = rc.undistort_normalized(model, -pd)
            except (rc.NoRealCandidate, rc.SingularProfile, rc.BracketNotFound):
                continue
            assert np.max(np.abs(a + b)) < 1e-12
            done += 1

    def test_no_real_candidate(self):
        # F(x) = x/(1 + 0.205 x^2) peaks at 1/(2 sqrt(0.205)) ~ 1.104, so a
        # distorted coordinate of 2 has no preimage on either branch.
        model = rc.DistortionModel(model_id=5, coefficients=(0.205,))
        with pytest.raises(rc.NoRealCandidate):
            rc.undistort_normalized(model, np.array([2.0, 0.0]))

    def test_principal_preimage_inside_first_fold(self):
        # Points anywhere inside the first fold of F come back, including
        # where r_d/r is large and the opposite sign branch has a root nearer
        # to x_d than the true preimage.
        rng = np.random.default_rng(151)
        done = 0
        while done < 2000:
            mid = int(rng.integers(1, 10))
            model = rc.DistortionModel(mid, tuple(rng.uniform(-1.0, 1.0, ARITY[mid])))
            fold = first_fold(model)
            if not fold:
                continue
            angle = rng.uniform(0.0, 2.0 * np.pi)
            p = 0.98 * fold * rng.uniform() * np.array([np.cos(angle), np.sin(angle)])
            q = rc.undistort_normalized(model, rc.distort_normalized(model, p))
            assert np.max(np.abs(q - p)) < 1e-6, (mid, model.coefficients, p, q)
            done += 1

    def test_opposite_sign_preimage_is_rejected(self):
        # x = -1.0924 has f < 0 and maps onto x_d = 0.8, but F(r) peaks near
        # 0.49 before the pole at r = 1.25: 0.8 is out of range.
        model = rc.DistortionModel(model_id=8, coefficients=(-1.0, -0.8, 0.0))
        with pytest.raises(rc.NoRealCandidate):
            rc.undistort_normalized(model, np.array([0.8, 0.0]))

    def test_model0_numeric_round_trip(self):
        model = rc.DistortionModel(model_id=0, coefficients=(-0.2286, 0.1905))
        p = np.array([0.3, 0.2])
        pd = rc.distort_normalized(model, p)
        q = rc.undistort_normalized(model, pd)
        assert np.max(np.abs(q - p)) < 1e-10


class TestNumeric:
    def test_identity_with_zero_coefficients(self):
        model = rc.DistortionModel(model_id=2, coefficients=(0.0,))
        pd = np.array([0.31, -0.22])
        out = rc.undistort_numeric(model, pd)
        assert np.max(np.abs(out - pd)) < 1e-12

    def test_agrees_with_analytic(self):
        rng = np.random.default_rng(137)
        env = coefficient_envelope()
        done = 0
        while done < 300:
            mid = int(rng.integers(1, 10))
            k = tuple(rng.uniform(-1.0, 1.0, ARITY[mid]) * env[mid])
            model = rc.DistortionModel(model_id=mid, coefficients=k)
            pd = disk_points(rng, 1, radius=0.5)[0]
            try:
                a = rc.undistort_normalized(model, pd)
                b = rc.undistort_numeric(model, pd)
            except (rc.NoRealCandidate, rc.BracketNotFound, rc.SingularProfile):
                continue
            assert np.max(np.abs(a - b)) < 1e-9
            done += 1

    def test_bracket_not_found(self):
        model = rc.DistortionModel(model_id=5, coefficients=(0.205,))
        with pytest.raises(rc.BracketNotFound):
            rc.undistort_numeric(model, np.array([2.0, 0.0]))

    def test_pole_is_not_a_bracket(self):
        # F(r) = r (1 - r) / (1 - 0.81 r) stays below 0.5 up to its pole at
        # r = 1/0.81, where it jumps from -inf to +inf: a sign change without
        # a root.
        model = rc.DistortionModel(model_id=8, coefficients=(-1.0, -0.81, 0.0))
        with pytest.raises(rc.BracketNotFound):
            rc.undistort_numeric(model, np.array([0.8, 0.0]))

    def test_reference_model0_within_two_ulp(self):
        # Bisection down to adjacent floats re-distorts every point within 2
        # ulp of its larger distorted coordinate; a fixed 48 halvings leave
        # points near the origin up to 4 ulp off.
        rng = np.random.default_rng(151)
        for session in rc.reference_sessions():
            model = rc.DistortionModel(
                model_id=0, coefficients=rc.reference_coefficients(session, 0)
            )
            pd = rc.distort_normalized(model, disk_points(rng, 3000, radius=0.5))
            q = np.array([rc.undistort_numeric(model, p) for p in pd])
            err = np.max(np.abs(rc.distort_normalized(model, q) - pd), axis=1)
            assert np.all(err <= 2.0 * np.spacing(np.max(np.abs(pd), axis=1)))

    def test_residual_quality(self):
        model = rc.DistortionModel(model_id=0, coefficients=(-0.3435, 0.1232))
        rng = np.random.default_rng(139)
        for p in disk_points(rng, 100, radius=0.5):
            pd = rc.distort_normalized(model, p)
            q = rc.undistort_numeric(model, pd)
            back = rc.distort_normalized(model, q)
            assert np.max(np.abs(back - pd)) < 1e-11


class TestDomain:
    def test_point_past_the_fold_raises_on_both_routes(self):
        # F(r) folds at r_b ~ 1.218 with F_max ~ 0.578, so this point of
        # distorted radius 1.835 has no preimage; the branch cubic's root at
        # (9.118, -7.330) lies past the fold.
        model = rc.DistortionModel(3, (-0.473249164046349, 0.03429197591214428))
        pd = np.array([1.4302310189105818, -1.1497655624650445])
        r_b, f_max = rc.invertible_radius(model)
        assert abs(r_b - 1.2177) < 1e-4 and abs(f_max - 0.5779) < 1e-4
        for batch in (pd, pd[None]):
            with pytest.raises(rc.NoRealCandidate):
                rc.undistort_normalized(model, batch)
            with pytest.raises(rc.BracketNotFound):
                rc.undistort_numeric(model, batch)

    def test_tiny_cubic_coefficient_falls_back_to_bisection(self):
        # The pair route's radicals lose the near root to cancellation and
        # return one past the fold at r ~ 8.66; the point is inside the
        # domain, so the closed form hands it to the numeric route. The
        # array route's radicals keep the near root, but only to about 5e-9
        # in re-distortion, so it goes to the numeric route as well.
        model = rc.DistortionModel(3, (-0.05776733531954746, 3.6168310094323756e-10))
        pd = np.array([0.29116849025818486, 0.17380345475260983])
        for q in (rc.undistort_normalized(model, pd), rc.undistort_normalized(model, pd[None])[0]):
            assert np.max(np.abs(rc.distort_normalized(model, q) - pd)) < 1e-15
            assert np.max(np.abs(q - [0.29711, 0.17735])) < 1e-5

    @pytest.mark.parametrize(
        "mid, k, pd, want",
        [
            # A dropped leading coefficient whose term dominates at the root:
            # the closed form returned (2.6e9, 5.2e10), 2.6e9 off on
            # re-distortion.
            (
                9,
                (6.126422211958294e-13, 0.740653974718362, -1.781826961915024e-12),
                (0.07679507411049581, 1.5431088405697755),
                (24125.063916967414, 484765.4597743959),
            ),
            # The closed form returned (100000.0000005, 0).
            (7, (0.99999, 1e-13), (1.0, 0.0), (100100.20050144196, 0.0)),
            # Radicals cancelling at a tiny cubic coefficient: 4.7e-5 off.
            (
                3,
                (0.6155545126300497, 1.0733702268592722e-12),
                (-0.483522230816755, 1.7578048443439231),
                (-0.28928910810027897, 1.0516864855947432),
            ),
            # The image of (-1.2846, -1.3638): 1.3e-5 off.
            (
                9,
                (-2.02e-8, 0.0709, -0.307),
                (-23.263904011494695, -24.69820355820992),
                (-1.2846, -1.3638),
            ),
            # Tiny points, where the radicals' rounding swamps the root: the
            # closed form returned (2.2e-16, 7.4e-17), (6.6e-115, 3.3e-115)
            # and a point 1e-3 relative off.
            (2, (-0.1984,), (1e-20, 3.33e-21), (1e-20, 3.33e-21)),
            (2, (1e200,), (1e-300, 5e-301), (1e-300, 5e-301)),
            (9, (1.279, -0.0119, 1.5478), (1e-13, 4e-14), (1e-13, 4e-14)),
        ],
    )
    def test_closed_root_off_the_point_goes_numeric(self, mid, k, pd, want):
        # A closed-form root is kept only when it re-distorts onto the point
        # within 1e-12 r_d; otherwise the point is solved by bisection, on
        # the pair and the array route alike.
        model = rc.DistortionModel(mid, k)
        pd = np.array(pd)
        numeric = rc.undistort_numeric(model, pd)
        assert np.allclose(numeric, want, rtol=1e-12, atol=0.0)
        for q in (rc.undistort_normalized(model, pd), rc.undistort_normalized(model, pd[None])[0]):
            assert np.array_equal(q, numeric)

    def test_preimage_past_radius_two(self):
        # D(r) = 1 - 0.4 r has its pole at r = 2.5, so F rises without bound
        # below it and (2.2, 0), which distorts to (18.33, 0), inverts. The
        # domain ends just short of the pole, where D is 2^-26 of its terms.
        model = rc.DistortionModel(4, (-0.4,))
        r_b, f_max = rc.invertible_radius(model)
        assert 2.5 - 1e-7 < r_b < 2.5 and f_max > 1e7
        pd = rc.distort_normalized(model, np.array([2.2, 0.0]))
        for q in (rc.undistort_numeric(model, pd), rc.undistort_numeric(model, pd[None])[0]):
            assert np.max(np.abs(q - [2.2, 0.0])) < 1e-14

    def test_domain_without_fold_or_pole(self):
        # Model 4 with k > 0 has no fold or pole: F rises towards 1/k, and
        # r_b is capped at 1e100, where F has reached that limit.
        model = rc.DistortionModel(4, (0.5,))
        assert rc.invertible_radius(model) == (1e100, 2.0)
        p = np.array([[30.0, 40.0], [-1e6, 0.0]])
        pd = rc.distort_normalized(model, p)
        for invert in (rc.undistort_normalized, rc.undistort_numeric):
            assert np.allclose(invert(model, pd), p, rtol=1e-9, atol=0.0)
        with pytest.raises(rc.NoRealCandidate):
            rc.undistort_normalized(model, np.array([0.0, 2.0]))
        with pytest.raises(rc.BracketNotFound):
            rc.undistort_numeric(model, np.array([0.0, 2.0]))

    def test_model0_outside_its_domain_raises_no_real_candidate(self):
        # Model 0 inverts numerically, so its domain error is BracketNotFound,
        # which undistort_normalized promises as a NoRealCandidate.
        assert issubclass(rc.BracketNotFound, rc.NoRealCandidate)
        model = rc.DistortionModel(0, (-0.35, -0.1))
        for pd in (np.array([5.0, 0.0]), np.array([[0.1, 0.0], [5.0, 0.0]])):
            with pytest.raises(rc.NoRealCandidate, match=r"model 0 .* \(5\.0, 0\.0\)"):
                rc.undistort_normalized(model, pd)
        A = rc.IntrinsicParams(alpha=800.0, gamma=0.0, u0=320.0, beta=800.0, v0=240.0)
        for pd in (np.array([4320.0, 240.0]), np.array([[400.0, 240.0], [4320.0, 240.0]])):
            with pytest.raises(rc.NoRealCandidate):
                rc.undistort_pixel(A, model, pd)

    def test_far_pole_is_capped(self):
        # A tiny k2 puts the pole of D = 1 + 0.5 r - 6.1e-195 r^2 at 8.2e193.
        # F approaches 2 long before; it climbs past 2 only beyond 1e100,
        # where r^2 overflows and not even distort_normalized can evaluate
        # it. Both routes raise for (3, 0), whose preimage lies there.
        model = rc.DistortionModel(7, (0.5, -6.099101085468769e-195))
        assert rc.invertible_radius(model) == (1e100, 2.0)
        for invert in (rc.undistort_normalized, rc.undistort_numeric):
            for x_d, x in ((1.0, 2.0), (1.99, 398.0)):
                q = invert(model, np.array([x_d, 0.0]))
                assert np.allclose(q, [x, 0.0], rtol=1e-12)
        with pytest.raises(rc.NoRealCandidate):
            rc.undistort_normalized(model, np.array([3.0, 0.0]))
        with pytest.raises(rc.BracketNotFound):
            rc.undistort_numeric(model, np.array([3.0, 0.0]))

    @pytest.mark.parametrize("k", [1e155, 1e300])
    def test_huge_coefficients_keep_a_finite_domain(self, k):
        # N and D overflow at r_b = 1e100, and the slope polynomial's
        # products overflow too. F ~ r^2 / (1 + r) rises through every
        # radius, so F_max is finite and (0.002, 0.001) has a preimage near
        # r = 0.048.
        model = rc.DistortionModel(9, (k, k, k))
        pd = np.array([0.002, 0.001])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r_b, f_max = rc.invertible_radius(model)
            assert r_b == 1e100 and math.isfinite(f_max)
            want = rc.undistort_numeric(model, pd)
            assert np.array_equal(rc.undistort_normalized(model, pd), want)
            assert np.array_equal(rc.undistort_normalized(model, pd[None])[0], want)
        assert abs(math.hypot(*want) - 0.048) < 1e-3
        assert np.max(np.abs(rc.distort_normalized(model, want) - pd)) < 1e-17

    @pytest.mark.parametrize(
        "mid, k, domain",
        [
            (2, (-1e200,), (5.773502691896256e-101, 3.8490017945975047e-101)),
            (2, (-1e160,), (5.773502691896257e-81, 3.8490017945975053e-81)),
            (3, (-1e200, 0.0), (4.999999999999999e-201, 2.5000000000000003e-201)),
        ],
    )
    def test_huge_negative_coefficients_keep_their_fold(self, mid, k, domain):
        # F folds at 1 + 3 k r^2 = 0 (model 2) or 1 + 2 k1 r = 0 (model 3).
        # Any scaling of N and D must keep the slope polynomial's constant
        # term from underflowing, or the fold goes unseen; the domain is the
        # one the unscaled slope gives.
        model = rc.DistortionModel(mid, k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rc.invertible_radius(model) == domain
            pd = np.array([0.6, 0.3]) * domain[1]
            want = rc.undistort_numeric(model, pd)
            for got in (rc.undistort_normalized(model, pd),
                        rc.undistort_normalized(model, pd[None])[0]):
                assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        assert np.allclose(rc.distort_normalized(model, want), pd, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("k", [1e16, 1e18, 1e20])
    def test_zero_branch_polynomial_bisects(self, k):
        # Model 4 with k = 1e16 has F_max = 1e-16. Just below it, every
        # coefficient of the branch polynomial is below 1e-15, which
        # solve_poly_real rejects as zero: no closed-form candidate, so the
        # point bisects.
        model = rc.DistortionModel(4, (k,))
        _, f_max = rc.invertible_radius(model)
        pd = np.array([math.nextafter(f_max, 0.0), 0.0])
        want = rc.undistort_numeric(model, pd)
        assert np.array_equal(rc.undistort_normalized(model, pd), want)
        assert np.array_equal(rc.undistort_normalized(model, pd[None])[0], want)
        assert np.array_equal(rc.undistort_numeric(model, pd[None])[0], want)

    @pytest.mark.parametrize("mid, k", [(4, (1e250,)), (8, (0.0, 1e250, 0.0))])
    def test_f_max_of_a_huge_denominator_stays_positive(self, mid, k):
        # F = r / (1 + 1e250 r) rises to 1e-250; f(r_b) underflows to 0 at
        # r_b = 1e100, but (r_b N) / D, both scaled, does not.
        model = rc.DistortionModel(mid, k)
        assert rc.invertible_radius(model) == (1e100, 1e-250)
        pd = np.array([1e-251, 0.0])
        want = rc.undistort_numeric(model, pd)
        for got in (rc.undistort_normalized(model, pd), rc.undistort_normalized(model, pd[None])[0]):
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        assert np.allclose(want, [1e-251 / 0.9, 0.0], rtol=1e-12, atol=0.0)

    def test_subnormal_pole_raises(self):
        # D's first root lies near 7.7e-309, among subnormal radii, where
        # the domain's edge cannot be bisected.
        model = rc.DistortionModel(9, (-1.2e308, -1.29e308, 1.17e308))
        with pytest.raises(rc.UnsupportedModel, match=r"model 9 .*1\.17e\+308"):
            rc.invertible_radius(model)
        with pytest.raises(rc.UnsupportedModel):
            rc.undistort_normalized(model, np.array([1e-310, 0.0]))

    def test_radius_matches_the_grid_fold(self):
        # invertible_radius reads r_b off the polynomials; first_fold reads
        # it off F sampled on a grid of step 5e-4 over [0, 2]. At a pole, F
        # jumps from +inf to -inf, which the grid also reads as a fold.
        rng = np.random.default_rng(191)
        step = 2.0 / 4000
        for _ in range(1000):
            mid = int(rng.integers(0, 10))
            k = tuple(rng.uniform(-1.0, 1.0, rc.coefficient_arity(mid)))
            model = rc.DistortionModel(mid, k)
            r_b, _ = rc.invertible_radius(model)
            fold = first_fold(model)
            if fold is None or abs(r_b - 2.0) <= step:
                continue
            if r_b < 2.0:
                assert abs(fold - r_b) <= step, (mid, model.coefficients, r_b, fold)
            else:
                assert fold == 2.0, (mid, model.coefficients, r_b, fold)


class TestUndistortPixel:
    def test_zero_coefficients_identity(self):
        A = rc.IntrinsicParams(alpha=600.0, gamma=0.1, u0=320.0, beta=610.0, v0=240.0)
        model = rc.DistortionModel(model_id=3, coefficients=(0.0, 0.0))
        pd = np.array([123.4, 321.9])
        assert np.max(np.abs(rc.undistort_pixel(A, model, pd) - pd)) < 1e-9

    def test_principal_point_fixed(self):
        A = rc.IntrinsicParams(alpha=600.0, gamma=0.1, u0=320.0, beta=610.0, v0=240.0)
        model = rc.DistortionModel(model_id=5, coefficients=(0.205,))
        out = rc.undistort_pixel(A, model, np.array([320.0, 240.0]))
        assert out[0] == 320.0 and out[1] == 240.0

    def test_inverse_of_distort_pixel(self):
        rng = np.random.default_rng(149)
        A = rc.IntrinsicParams(alpha=830.0, gamma=0.2, u0=304.0, beta=830.5, v0=206.6)
        for _, _, model in session_models():
            for n in disk_points(rng, 10, radius=0.45):
                p = rc.denormalize(A, n)
                pd = rc.distort_pixel(A, model, p)
                back = rc.undistort_pixel(A, model, pd)
                assert np.max(np.abs(back - p)) < 1e-8


    @pytest.mark.parametrize(
        "row, model_id, k, error",
        [(2, 2, None, rc.NoRealCandidate), (0, 0, (-0.5, 0.0), rc.BracketNotFound)],
    )
    def test_domain_error_names_the_pixel(self, row, model_id, k, error):
        # (320, 240) lies outside the domain (model 2 with ODIS row 2's k, or
        # model 0 with k = (-0.5, 0), F_max = 0.5443). The message starts with
        # the pixel as given and keeps undistort_normalized's for its point.
        fit = rc.reference_report("odis").rows[row]
        A = fit.intrinsics
        model = rc.DistortionModel(model_id, k or fit.coefficients)
        with pytest.raises(error) as normalized:
            rc.undistort_normalized(model, rc.normalize(A, np.array([320.0, 240.0])))
        want = f"pixel (320.0, 240.0): {normalized.value}"
        assert str(normalized.value).startswith(f"model {model_id} has no admissible preimage for")
        for pd in ((320.0, 240.0), np.array([[100, 100], [320, 240], [330, 250]]),
                   np.array([[[100.0, 100.0]], [[320.0, 240.0]]])):
            with pytest.raises(error) as got:
                rc.undistort_pixel(A, model, pd)
            assert type(got.value) is error and str(got.value) == want


class TestPairRoute:
    # undistort_pixel keeps a pair in Python floats from pixel to pixel,
    # with an array row's operations in the same order; normalize,
    # denormalize and distort_pixel run a pair through the array code. A
    # pair gives the row's bits wherever both routes compute the same way.

    def test_pair_matches_array_rows(self):
        rng = np.random.default_rng(197)
        for session in rc.reference_sessions():
            rows = {row.model_id: row for row in rc.reference_report(session).rows}
            for mid in range(10):
                A = rows[mid].intrinsics
                model = rc.DistortionModel(mid, rc.reference_coefficients(session, mid))
                n = batch_with_special_rows(rng, model, 60)
                pixels = rc.denormalize(A, n)
                distorted = rc.distort_pixel(A, model, pixels)
                # The cubic models' array radicals differ from cmath in the
                # last ulp (see BIT_EXACT).
                for fn, batch, exact in (
                    (lambda x: rc.normalize(A, x), distorted, True),
                    (lambda x: rc.denormalize(A, x), n, True),
                    (lambda x: rc.distort_pixel(A, model, x), pixels, True),
                    (lambda x: rc.undistort_pixel(A, model, x), distorted, mid in BIT_EXACT),
                ):
                    got = np.array([fn(x) for x in batch])
                    want = fn(batch)
                    exact = np.broadcast_to(exact, len(batch))
                    assert np.array_equal(got[exact], want[exact]), (session, mid)
                    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12, (session, mid)

    def test_sequence_and_integer_pairs_give_float_arrays(self):
        A = rc.IntrinsicParams(alpha=800.0, gamma=0.0, u0=320.0, beta=800.0, v0=240.0)
        # F rises without a fold for both models, so (1, 0) inverts.
        for model in (rc.DistortionModel(0, (-0.05, 0.01)), rc.DistortionModel(3, (0.05, 0.02))):
            calls = (
                lambda p: rc.normalize(A, p),
                lambda p: rc.denormalize(A, p),
                lambda p: rc.distort_pixel(A, model, p),
                lambda p: rc.undistort_pixel(A, model, p),
                lambda p: rc.distort_normalized(model, p),
                lambda p: rc.undistort_normalized(model, p),
                lambda p: rc.undistort_numeric(model, p),
            )
            for fn in calls:
                want = fn(np.array([0.25, -0.5]))
                for pair in ([0.25, -0.5], (0.25, -0.5)):
                    got = fn(pair)
                    assert got.dtype == np.float64 and got.shape == (2,)
                    assert np.array_equal(got, want)
                got = fn((1, 0))
                assert got.dtype == np.float64 and got.shape == (2,)
                assert np.array_equal(got, fn(np.array([1.0, 0.0])))


def batch_with_special_rows(rng, model, n):
    """n disk points re-distorted, with origin (signed zeros too), axis and
    steep rows mixed in."""
    pts = disk_points(rng, n, radius=0.5)
    pts[:8] = [[0.0, 0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, 0.3], [0.0, -0.2], [0.25, 0.0],
               [0.01, 0.45], [-0.02, -0.4]]
    rng.shuffle(pts)
    return rc.distort_normalized(model, pts)


def stacked_pairs(invert, model, pd):
    return np.array([invert(model, q) for q in pd.reshape(-1, 2)]).reshape(pd.shape)


def assert_origin_bytes(got, want, pd):
    """The origin rows, signed zeros included, give the pair route's bytes:
    np.array_equal treats -0.0 as 0.0."""
    origin = (pd == 0.0).all(axis=-1)
    assert origin.any()
    assert got[origin].tobytes() == want[origin].tobytes()


# Models whose array route runs the pair route's float operations exactly;
# the cubic models (2, 3, 9) take their radicals through numpy's complex
# arithmetic, which differs from cmath in the last ulp.
BIT_EXACT = (0, 1, 4, 5, 6, 7, 8)


class TestArrayRoute:
    def test_matches_pair_route_on_reference_sessions(self):
        rng = np.random.default_rng(157)
        for session in rc.reference_sessions():
            for mid in range(10):
                model = rc.DistortionModel(
                    model_id=mid, coefficients=rc.reference_coefficients(session, mid)
                )
                pd = batch_with_special_rows(rng, model, 400)
                got = rc.undistort_normalized(model, pd)
                want = stacked_pairs(rc.undistort_normalized, model, pd)
                assert got.shape == pd.shape
                assert_origin_bytes(got, want, pd)
                if mid in BIT_EXACT:
                    assert np.array_equal(got, want), (session, mid)
                else:
                    assert np.max(np.abs(got - want)) <= 2e-15, (session, mid)

    def test_numeric_matches_pair_route_for_every_model(self):
        # The numeric route is the oracle for every model; its array form
        # runs the same scan and bisection arithmetic on each point.
        rng = np.random.default_rng(163)
        for session in rc.reference_sessions():
            for mid in range(10):
                model = rc.DistortionModel(
                    model_id=mid, coefficients=rc.reference_coefficients(session, mid)
                )
                pd = batch_with_special_rows(rng, model, 60)
                got = rc.undistort_numeric(model, pd)
                want = stacked_pairs(rc.undistort_numeric, model, pd)
                assert np.array_equal(got, want)
                assert_origin_bytes(got, want, pd)

    def test_pixel_array_matches_pairs(self):
        rng = np.random.default_rng(167)
        A = rc.IntrinsicParams(alpha=830.0, gamma=0.2, u0=304.0, beta=830.5, v0=206.6)
        for mid in (0, 4, 8):
            model = rc.DistortionModel(
                model_id=mid, coefficients=rc.reference_coefficients("microsoft", mid)
            )
            pd = rc.denormalize(A, batch_with_special_rows(rng, model, 50))
            got = rc.undistort_pixel(A, model, pd)
            want = np.array([rc.undistort_pixel(A, model, q) for q in pd])
            assert np.array_equal(got, want)

    def test_shapes(self):
        rng = np.random.default_rng(173)
        for mid in (0, 3, 6):
            model = rc.DistortionModel(
                model_id=mid, coefficients=rc.reference_coefficients("desktop", mid)
            )
            grid = batch_with_special_rows(rng, model, 24).reshape(4, 6, 2)
            got = rc.undistort_normalized(model, grid)
            assert got.shape == (4, 6, 2)
            flat = rc.undistort_normalized(model, grid.reshape(-1, 2))
            assert np.array_equal(got.reshape(-1, 2), flat)
            for invert in (rc.undistort_normalized, rc.undistort_numeric):
                empty = invert(model, np.zeros((0, 2)))
                assert empty.shape == (0, 2)
                one = invert(model, grid[:1, 0])
                assert one.shape == (1, 2)
                assert np.array_equal(one[0], invert(model, grid[0, 0]))

    def test_degenerate_rows_take_the_pair_route(self):
        # Zero coefficients collapse every row's degree (the identity map),
        # and a model-4 row with a vanishing linear coefficient has no root.
        # The vectorised formulas still run on those rows, masked out, and
        # must warn nothing.
        rng = np.random.default_rng(179)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            for mid, k in ((2, (0.0,)), (3, (0.0, 0.0)), (9, (0.0, 0.1, 0.2))):
                model = rc.DistortionModel(model_id=mid, coefficients=k)
                pd = batch_with_special_rows(rng, model, 20)
                assert np.array_equal(
                    rc.undistort_normalized(model, pd),
                    stacked_pairs(rc.undistort_normalized, model, pd),
                )
            model = rc.DistortionModel(model_id=4, coefficients=(2.0,))
            with pytest.raises(rc.NoRealCandidate) as pair:
                rc.undistort_normalized(model, np.array([0.5, 0.0]))
            with pytest.raises(rc.NoRealCandidate) as batch:
                rc.undistort_normalized(model, np.array([[0.1, 0.0], [0.5, 0.0]]))
        assert str(batch.value) == str(pair.value)

    def test_masked_lanes_raise_no_floating_point_error(self):
        rng = np.random.default_rng(181)
        for mid in range(10):
            model = rc.DistortionModel(
                model_id=mid, coefficients=rc.reference_coefficients("odis", mid)
            )
            pd = batch_with_special_rows(rng, model, 40)
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                rc.undistort_normalized(model, pd)
                rc.undistort_numeric(model, pd)

    @pytest.mark.parametrize("invert", [rc.undistort_normalized, rc.undistort_numeric])
    def test_first_failing_point_names_the_error(self, invert):
        # F(x) = x/(1 + 0.205 x^2) peaks near 1.104: (2, 0) and (0, -3) have
        # no preimage, and the batch reports the first of them.
        model = rc.DistortionModel(model_id=5, coefficients=(0.205,))
        batch = np.array([[0.1, 0.2], [0.0, 0.0], [2.0, 0.0], [0.3, -0.1], [0.0, -3.0]])
        with pytest.raises(rc.RadialCalError) as pair:
            invert(model, batch[2])
        with pytest.raises(type(pair.value)) as got:
            invert(model, batch)
        assert str(got.value) == str(pair.value)
        assert "2.0" in str(got.value)

    def test_non_pair_shape_is_rejected(self):
        model = rc.DistortionModel(model_id=1, coefficients=(0.1,))
        with pytest.raises(ValueError):
            rc.undistort_normalized(model, np.zeros((3, 3)))


_A = rc.IntrinsicParams(alpha=800.0, gamma=0.2, u0=320.0, beta=790.0, v0=240.0)
_M = rc.DistortionModel(3, (-0.0215, -0.1566))
POINT_MAPS = {
    "normalize": lambda p: rc.normalize(_A, p),
    "denormalize": lambda p: rc.denormalize(_A, p),
    "distort_normalized": lambda p: rc.distort_normalized(_M, p),
    "distort_pixel": lambda p: rc.distort_pixel(_A, _M, p),
    "undistort_normalized": lambda p: rc.undistort_normalized(_M, p),
    "undistort_numeric": lambda p: rc.undistort_numeric(_M, p),
    "undistort_pixel": lambda p: rc.undistort_pixel(_A, _M, p),
}


@pytest.mark.parametrize("name", sorted(POINT_MAPS))
class TestPointShapes:
    """Every point map takes an (x, y) pair or an (..., 2) array, and
    raises ValueError for any other shape."""

    @pytest.mark.parametrize("shape", [(), (1,), (3,), (4, 3)])
    def test_other_shapes_raise(self, name, shape):
        with pytest.raises(ValueError, match=re.escape(f"(..., 2) array, got shape {shape}")):
            POINT_MAPS[name](np.full(shape, 0.01))

    def test_pair_and_empty_array(self, name):
        assert POINT_MAPS[name](np.array([0.01, -0.02])).shape == (2,)
        assert POINT_MAPS[name](np.zeros((0, 2))).shape == (0, 2)


class TestNonFinitePoints:
    # A nan or infinite coordinate never lies inside the invertible domain:
    # the closed route raises NoRealCandidate, the numeric route (model 0's
    # undistort_normalized too) BracketNotFound, and an array holding the
    # point raises what the pair call raises.
    A = rc.IntrinsicParams(alpha=830.0, gamma=0.2, u0=304.0, beta=830.5, v0=206.6)

    @pytest.mark.parametrize("mid", [0, 3, 6])
    @pytest.mark.parametrize(
        "bad",
        [
            (math.nan, 0.1),
            (0.1, math.nan),
            (math.inf, 0.0),
            (0.0, -math.inf),
            (math.inf, math.inf),
            (math.nan, -math.inf),
        ],
    )
    def test_pair_and_array_raise_alike(self, mid, bad):
        model = rc.DistortionModel(mid, rc.reference_coefficients("desktop", mid))
        closed = rc.BracketNotFound if mid == 0 else rc.NoRealCandidate
        ok = np.array([[0.1, 0.05], [0.2, 0.0]])
        routes = (
            (rc.undistort_normalized, ok, closed),
            (rc.undistort_numeric, ok, rc.BracketNotFound),
            (lambda m, p: rc.undistort_pixel(self.A, m, p), rc.denormalize(self.A, ok), closed),
        )
        for invert, finite, error in routes:
            with pytest.raises(rc.NoRealCandidate) as pair:
                invert(model, np.array(bad))
            with pytest.raises(rc.NoRealCandidate) as array:
                invert(model, np.array([finite[0], bad, finite[1]]))
            assert type(pair.value) is error and type(array.value) is error
            assert str(array.value) == str(pair.value)


class TestPole:
    # D(r) = 1 - 0.81 r vanishes at r = 1/0.81 ~ 1.2346. F(r) = r (1 - r) /
    # (1 - 0.81 r) peaks near 0.49 before the pole, so x_d = 4 has no
    # principal preimage even though the branch polynomial has a root past
    # the pole.
    model = rc.DistortionModel(model_id=8, coefficients=(-1.0, -0.81, 0.0))

    def test_root_past_pole_is_rejected_for_a_pair(self):
        with pytest.raises(rc.NoRealCandidate, match=r"model 8 .* \(4\.0, 0\.0\)"):
            rc.undistort_normalized(self.model, np.array([4.0, 0.0]))
        with pytest.raises(rc.BracketNotFound):
            rc.undistort_numeric(self.model, np.array([4.0, 0.0]))

    def test_root_past_pole_is_rejected_in_an_array(self):
        batch = np.array([[0.2, 0.1], [0.0, 4.0], [4.0, 0.0]])
        with pytest.raises(rc.NoRealCandidate, match=r"model 8 .* \(0\.0, 4\.0\)"):
            rc.undistort_normalized(self.model, batch)

    @pytest.mark.parametrize("pd", [(0.0, 4.0), (0.3, -4.0), (4.0, 0.0)])
    def test_error_names_the_point_as_given(self, pd):
        # Not with its coordinates swapped for the larger-coordinate ray.
        _, f_max = rc.invertible_radius(self.model)
        want = f"model 8 has no admissible preimage for {pd!r} (F_max={f_max!r})"
        for invert, error in ((rc.undistort_normalized, rc.NoRealCandidate),
                              (rc.undistort_numeric, rc.BracketNotFound)):
            for batch in (np.array(pd), np.array([[0.1, 0.0], pd])):
                with pytest.raises(error) as got:
                    invert(self.model, batch)
                assert type(got.value) is error and str(got.value) == want

    def test_points_before_the_pole_still_invert(self):
        p = np.array([[0.3, 0.1], [-0.5, 0.2], [0.1, -0.45]])
        pd = rc.distort_normalized(self.model, p)
        assert np.max(np.abs(rc.undistort_normalized(self.model, pd) - p)) < 1e-12
        for q, want in zip(pd, p):
            assert np.max(np.abs(rc.undistort_normalized(self.model, q) - want)) < 1e-12


class TestRadicalOverflow:
    # With k = 1e103 the cubic's p**3 overflows a float, and with 1e160 its
    # y^2 q^2 does too. The points lie inside the domain, so the closed
    # route bisects instead: every route equals undistort_numeric bit for
    # bit, and no floating-point error is raised on the way.
    A = rc.IntrinsicParams(alpha=800.0, gamma=0.0, u0=320.0, beta=800.0, v0=240.0)
    points = np.array([[0.002, 0.001], [-0.001, 0.003], [0.0, 0.0], [3e-5, -2e-5]])

    @pytest.mark.parametrize("k", [1e103, 1e160])
    def test_pair_array_and_pixel_bisect(self, k):
        model = rc.DistortionModel(3, (k, k))
        want = rc.undistort_numeric(model, self.points)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            for p, w in zip(self.points, want):
                assert np.array_equal(rc.undistort_normalized(model, p), w)
                assert np.array_equal(rc.undistort_numeric(model, p), w)
            assert np.array_equal(rc.undistort_normalized(model, self.points), want)
            pixels = rc.denormalize(self.A, self.points)
            got = rc.undistort_pixel(self.A, model, pixels)
            assert np.array_equal(got, rc.denormalize(self.A, want))
            for p, w in zip(pixels, got):
                assert np.array_equal(rc.undistort_pixel(self.A, model, p), w)
        # The preimage re-distorts onto the point.
        back = rc.distort_normalized(model, want[0])
        assert np.max(np.abs(back - self.points[0])) < 1e-18


class TestLargeCubicRadicals:
    # With k = 1e80 or 1e90 the cubic's p or q lies past 1e75, yet its
    # radicals stay inside the float range: the array route keeps their
    # roots, and only a root that overflows or misses the point goes to the
    # pair route.
    points = np.array(
        [[0.002, 0.001], [-0.001, 0.003], [3e-5, -2e-5], [0.4, 0.3], [-0.7, 0.1], [1e-9, 2e-9]]
    )

    @pytest.mark.parametrize("mid", [2, 3])
    @pytest.mark.parametrize("k", [1e80, 1e90])
    def test_array_radicals_redistort_and_match_pairs(self, mid, k):
        model = rc.DistortionModel(mid, (k,) * ARITY[mid])
        with np.errstate(all="raise"):
            got = rc.undistort_normalized(model, self.points)
            want = stacked_pairs(rc.undistort_normalized, model, self.points)
            r = np.hypot(got[:, 0], got[:, 1])
            r_d = np.hypot(self.points[:, 0], self.points[:, 1])
            F = r * rc.eval_profile(model, r)
        assert np.all(np.abs(F - r_d) <= undistortion._REDISTORT_TOL * r_d)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def _exact_polys(model):
    """D short of its pole, the slope numerator (r N)' D - r N D', N and D of
    the model, as ascending Fraction coefficients, exactly."""
    num, den = ([Fraction(a) for a in c] for c in _rational(model._slots))

    def mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] += u * v
        return out

    def der(a):
        return [i * v for i, v in enumerate(a)][1:]

    rnum = [Fraction(0)] + num
    slope = [u - v for u, v in zip(mul(der(rnum), den), mul(rnum, der(den)))]
    margin = Fraction(undistortion._POLE_MARGIN)
    return [d - margin * abs(d) for d in den], slope, num, den


def _at(c, r):
    return sum(a * r**i for i, a in enumerate(c))


def _oracle_models():
    models = [rc.DistortionModel(mid, rc.reference_coefficients(session, mid))
              for session in rc.reference_sessions() for mid in range(10)]
    rng = np.random.default_rng(211)
    for _ in range(200):
        mid = int(rng.integers(0, 10))
        n = rc.coefficient_arity(mid)
        k = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
        k[rng.random(n) < 0.15] = 0.0
        models.append(rc.DistortionModel(mid, tuple(k)))
    models += [rc.DistortionModel(4, (1e250,)), rc.DistortionModel(8, (0.0, 1e250, 0.0)),
               rc.DistortionModel(2, (-1e200,)), rc.DistortionModel(2, (-1e160,)),
               rc.DistortionModel(3, (-1e200, 0.0))]
    return models


def test_domain_matches_exact_oracle():
    # invertible_radius against N, D and the slope evaluated exactly in
    # Fractions at float radii: no sign change of D (short of its pole) or
    # of the slope below r_b, one just past it unless r_b is the 1e100 cap,
    # and F_max within a few rounding errors of the exact F(r_b). Near a
    # pole D is 2^-26 of its terms, so the bound grows with their
    # cancellation.
    eps = sys.float_info.epsilon
    for model in _oracle_models():
        r_b, f_max = rc.invertible_radius(model)
        margin, slope, num, den = _exact_polys(model)
        for r in np.geomspace(2.0**-1022, r_b * (1.0 - 1e-9), 64).tolist():
            r = Fraction(r)
            assert _at(margin, r) > 0 and _at(slope, r) > 0, (model, r_b, float(r))
        if r_b != 1e100:
            r = Fraction(r_b * (1.0 + 1e-9))
            assert _at(margin, r) <= 0 or _at(slope, r) <= 0, (model, r_b)
        r = Fraction(r_b)
        N, D = _at(num, r), _at(den, r)
        F = r * N / D
        if F > sys.float_info.max:
            assert f_max == math.inf, (model, r_b, f_max)
            continue
        terms = _at(map(abs, num), r) / abs(N) + _at(map(abs, den), r) / abs(D)
        bound = max(4.0 * math.ulp(float(F)), 4.0 * eps * float(terms + 2) * float(F))
        assert abs(Fraction(f_max) - F) <= bound, (model, r_b, f_max, float(F))


def test_array_route_matches_pair_route_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coefficient = st.floats(-1.0, 1.0, allow_subnormal=False)
    # The cubic models' leading coefficient stays at least 1e-2 in size:
    # below that the closed-form radicals cancel terms of size |p/q| and
    # both routes lose digits alike, so their last-ulp differences grow.
    leading = st.floats(1e-2, 1.0).flatmap(lambda v: st.sampled_from([v, -v]))
    lead_index = {2: 0, 3: 1, 9: 0}
    # Points sit at the origin or at least 1e-6 of the way to the fold: the
    # radicals carry an absolute error near 1e-16, so a preimage much
    # smaller than that is noise on either route.
    frac = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    point = st.tuples(frac, st.floats(0.0, 2.0 * np.pi))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        mid=st.integers(1, 9),
        k=st.lists(coefficient, min_size=3, max_size=3),
        lead=leading,
        polar=st.lists(point, min_size=1, max_size=12),
    )
    def check(mid, k, lead, polar):
        if mid in lead_index:
            k[lead_index[mid]] = lead
        model = rc.DistortionModel(mid, tuple(k[: ARITY[mid]]))
        fold = first_fold(model)
        hypothesis.assume(fold)
        frac, angle = np.array(polar).T
        p = 0.98 * fold * frac[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
        pd = rc.distort_normalized(model, p)
        try:
            want = stacked_pairs(rc.undistort_normalized, model, pd)
        except rc.RadialCalError as exc:
            # Where a pair call fails, the array raises the same error.
            with pytest.raises(type(exc)) as got:
                rc.undistort_normalized(model, pd)
            assert str(got.value) == str(exc)
            return
        got = rc.undistort_normalized(model, pd)
        if mid in BIT_EXACT:
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-12

    check()


def test_both_routes_share_the_invertible_domain_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        mid=st.integers(1, 9),
        k=st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=3, max_size=3),
        r_d=st.floats(0.0, 3.0),
        angle=st.floats(0.0, 2.0 * np.pi),
    )
    def check(mid, k, r_d, angle):
        model = rc.DistortionModel(mid, tuple(k[: ARITY[mid]]))
        _, f_max = rc.invertible_radius(model)
        pd = r_d * np.array([np.cos(angle), np.sin(angle)])
        # The routes measure the distorted radius along the ray, which can
        # round to a neighbour of np.hypot's: leave out points within a few
        # ulp of the domain's edge.
        r = np.hypot(*pd)
        hypothesis.assume(abs(r - f_max) > 4.0 * np.spacing(r))
        closed = numeric = None
        try:
            closed = rc.undistort_normalized(model, pd)
        except rc.NoRealCandidate:
            pass
        try:
            numeric = rc.undistort_numeric(model, pd)
        except rc.BracketNotFound:
            pass
        assert (closed is not None) == (r < f_max)
        assert (numeric is not None) == (r < f_max)
        if closed is not None:
            gap = np.max(np.abs(closed - numeric)) / max(1.0, np.max(np.abs(numeric)))
            if gap >= 1e-6:
                # Where F is nearly flat, by a fold or far out, the rounding
                # of F moves the preimage further than that: model 8 with
                # k = (0.99999,) * 3 has F_max - 1 = 2.5e-11, and the two
                # routes invert (cos 3, sin 3) 2.5e-6 apart near r = 1e5.
                # Both must then still distort back onto pd.
                for q in (closed, numeric):
                    back = np.max(np.abs(rc.distort_normalized(model, q) - pd))
                    assert back <= 1e-12 * max(1.0, r)

    check()
