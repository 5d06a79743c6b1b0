import math
import warnings

import numpy as np
import pytest

import radialcal as rc
from _helpers import random_intrinsics, session_models

ARITY = {0: 2, 1: 1, 2: 1, 3: 2, 4: 1, 5: 1, 6: 2, 7: 2, 8: 3, 9: 3}


def random_model(rng) -> rc.DistortionModel:
    mid = int(rng.integers(0, 10))
    k = tuple(rng.uniform(-0.3, 0.35, ARITY[mid]))
    return rc.DistortionModel(model_id=mid, coefficients=k)


def sgn(x: float) -> float:
    return 0.0 if x == 0 else (1.0 if x > 0 else -1.0)


# The distorted first coordinate for p = (x, c*x), written out model by model
# as an independent transcription (s = sqrt(1+c^2), t = 1+c^2).
def fixed_slope_xd(mid, k, x, c):
    s = np.sqrt(1.0 + c * c)
    t = 1.0 + c * c
    g = sgn(x)
    if mid == 0:
        return x * (1.0 + k[0] * t * x**2 + k[1] * t * t * x**4)
    if mid == 1:
        return x + k[0] * g * s * x**2
    if mid == 2:
        return x + k[0] * t * x**3
    if mid == 3:
        return x + k[0] * g * s * x**2 + k[1] * t * x**3
    if mid == 4:
        return x / (1.0 + k[0] * g * s * x)
    if mid == 5:
        return x / (1.0 + k[0] * t * x**2)
    if mid == 6:
        return (x + k[0] * g * s * x**2) / (1.0 + k[1] * t * x**2)
    if mid == 7:
        return x / (1.0 + k[0] * g * s * x + k[1] * t * x**2)
    if mid == 8:
        return (x + k[0] * g * s * x**2) / (1.0 + k[1] * g * s * x + k[2] * t * x**2)
    if mid == 9:
        return (x + k[0] * t * x**3) / (1.0 + k[1] * g * s * x + k[2] * t * x**2)
    raise AssertionError(mid)


# The ten profiles written out one by one as (N, D), D None for a polynomial
# model, in the operation order the library evaluates them in: terms summed
# left to right from 1, r^2 formed as r * r and r^4 as k r^2 * r^2.
FORMULAS = {
    0: lambda k, r, r2: (1.0 + k[0] * r2 + k[1] * r2 * r2, None),
    1: lambda k, r, r2: (1.0 + k[0] * r, None),
    2: lambda k, r, r2: (1.0 + k[0] * r2, None),
    3: lambda k, r, r2: (1.0 + k[0] * r + k[1] * r2, None),
    4: lambda k, r, r2: (1.0, 1.0 + k[0] * r),
    5: lambda k, r, r2: (1.0, 1.0 + k[0] * r2),
    6: lambda k, r, r2: (1.0 + k[0] * r, 1.0 + k[1] * r2),
    7: lambda k, r, r2: (1.0, 1.0 + k[0] * r + k[1] * r2),
    8: lambda k, r, r2: (1.0 + k[0] * r, 1.0 + k[1] * r + k[2] * r2),
    9: lambda k, r, r2: (1.0 + k[0] * r2, 1.0 + k[1] * r + k[2] * r2),
}


def formula_profile(mid, k, r: float) -> float:
    """f(r) from FORMULAS; nan where |D| < 1e-12."""
    num, den = FORMULAS[mid](k, r, r * r)
    if den is None:
        return num
    return math.nan if abs(den) < 1e-12 else num / den


class TestProfile:
    def test_arity_table(self):
        for mid, arity in ARITY.items():
            assert rc.coefficient_arity(mid) == arity
        assert rc.MODEL_IDS == tuple(range(10))

    def test_unknown_model(self):
        for bad in (-1, 10, 99):
            with pytest.raises(rc.UnknownModel):
                rc.coefficient_arity(bad)

    def test_model_id_is_an_integer(self):
        # 1.0 would hash as 1 and be written to a report row as "1.0".
        for bad in (1.0, 2.5, "1"):
            with pytest.raises(rc.UnknownModel):
                rc.coefficient_arity(bad)
            with pytest.raises(rc.UnknownModel):
                rc.DistortionModel(model_id=bad, coefficients=(0.1,))
        for given, stored in ((True, 1), (np.int64(3), 3)):
            model = rc.DistortionModel(given, (0.1,) * rc.coefficient_arity(given))
            assert type(model.model_id) is int and model.model_id == stored

    def test_coefficient_count_enforced(self):
        with pytest.raises(ValueError):
            rc.DistortionModel(model_id=3, coefficients=(0.1,))
        with pytest.raises(ValueError):
            rc.DistortionModel(model_id=8, coefficients=(0.1, 0.2))

    def test_nonfinite_coefficients_rejected(self):
        for mid, arity in ARITY.items():
            for i in range(arity):
                for bad in (math.inf, -math.inf, math.nan, 10**400):
                    k = [0.1] * arity
                    k[i] = bad
                    with pytest.raises(ValueError, match="must be finite"):
                        rc.DistortionModel(model_id=mid, coefficients=tuple(k))

    def test_profile_is_one_at_zero(self):
        rng = np.random.default_rng(41)
        for _ in range(500):
            m = random_model(rng)
            assert rc.eval_profile(m, 0.0) == 1.0
        for _, _, m in session_models():
            assert rc.eval_profile(m, 0.0) == 1.0

    def test_model2_hand_value(self):
        m = rc.DistortionModel(model_id=2, coefficients=(-0.2,))
        assert abs(rc.eval_profile(m, 0.5) - 0.95) < 1e-15

    def test_model5_reciprocal_identity(self):
        m = rc.DistortionModel(model_id=5, coefficients=(0.205,))
        f = rc.eval_profile(m, 0.5)
        assert abs(f * (1.0 + 0.205 * 0.25) - 1.0) < 1e-15

    def test_model4_constructed_singularity(self):
        m = rc.DistortionModel(model_id=4, coefficients=(-2.0,))
        with pytest.raises(rc.SingularProfile):
            rc.eval_profile(m, 0.5)

    def test_rational_identities(self):
        # Each rational profile times its own denominator gives its numerator.
        rng = np.random.default_rng(43)
        for _ in range(200):
            r = rng.uniform(0.0, 0.8)
            k = rng.uniform(-0.3, 0.35, 3)
            f4 = rc.eval_profile(rc.DistortionModel(model_id=4, coefficients=(k[0],)), r)
            assert abs(f4 * (1 + k[0] * r) - 1.0) < 1e-14
            f8 = rc.eval_profile(rc.DistortionModel(model_id=8, coefficients=tuple(k)), r)
            assert abs(f8 * (1 + k[1] * r + k[2] * r * r) - (1 + k[0] * r)) < 1e-14

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            m = random_model(rng)
            rr = rng.uniform(0.0, 0.7, 17)
            try:
                batch = rc.eval_profile(m, rr)
            except rc.SingularProfile:
                continue
            single = np.array([rc.eval_profile(m, float(r)) for r in rr])
            assert np.array_equal(batch, single)

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_ten_formulas_pin_the_profile(self):
        # eval_profile and distort_normalized give FORMULAS' bits, for a
        # float and for an array, or raise where the formula reads nan.
        # Exact zero coefficients and radii whose r^2 or r^4 overflow or
        # underflow are included: an absent slot must add nothing where a
        # zero one reads 0 inf = nan. numpy warns of the overflows, and of
        # the nan in 0 inf where a point on the x axis meets f = inf.
        radii = np.array([0.0, 1e-300, 1e-8, 0.5, 3.0, 1e100, 1e200])
        points = np.column_stack([radii, np.zeros_like(radii)])
        rng = np.random.default_rng(67)
        for mid, arity in ARITY.items():
            for _ in range(100):
                k = rng.uniform(-1.0, 1.0, arity) * 10.0 ** rng.uniform(-6.0, 2.0, arity)
                k = tuple(np.where(rng.random(arity) < 0.25, 0.0, k).tolist())
                model = rc.DistortionModel(mid, k)
                want = np.array([formula_profile(mid, k, r) for r in radii.tolist()])
                for r, f, p in zip(radii.tolist(), want.tolist(), points):
                    if f != f:
                        with pytest.raises(rc.SingularProfile):
                            rc.eval_profile(model, r)
                        with pytest.raises(rc.SingularProfile):
                            rc.distort_normalized(model, p)
                    else:
                        got = rc.eval_profile(model, r)
                        assert np.float64(got).tobytes() == np.float64(f).tobytes()
                        assert rc.distort_normalized(model, p).tobytes() == (p * f).tobytes()
                ok = ~np.isnan(want)
                got = rc.eval_profile(model, radii[ok])
                assert got.tobytes() == want[ok].tobytes(), (mid, k)
                got = rc.distort_normalized(model, points[ok])
                assert got.tobytes() == (points[ok] * want[ok, None]).tobytes(), (mid, k)
                if not ok.all():
                    with pytest.raises(rc.SingularProfile):
                        rc.eval_profile(model, radii)
                    with pytest.raises(rc.SingularProfile):
                        rc.distort_normalized(model, points)

    def test_rational_table_matches_profile(self):
        # _rational writes a model's slots as the polynomials N and D, which
        # undistortion's plan works from; N(r) / D(r) must equal _profile,
        # which sums the same slots term by term, wherever D is clear of zero.
        from numpy.polynomial import polynomial as P

        from radialcal.distortion import _profile, _rational, _slots

        rng = np.random.default_rng(59)
        for mid, arity in ARITY.items():
            for _ in range(50):
                k = tuple(rng.uniform(-1.0, 1.0, arity))
                num, den = _rational(_slots(mid, k))
                rr = rng.uniform(0.0, 2.0, 40)
                rr = rr[np.abs(P.polyval(rr, den)) > 0.1]
                want = _profile(_slots(mid, k), rr)
                got = P.polyval(rr, num) / P.polyval(rr, den)
                assert np.allclose(got, want, rtol=1e-12, atol=0.0), (mid, k)

    def test_array_path_reports_singularity(self):
        m = rc.DistortionModel(model_id=5, coefficients=(-4.0,))
        rr = np.array([0.1, 0.5, 0.2])
        with pytest.raises(rc.SingularProfile):
            rc.eval_profile(m, rr)

    def test_int_array_is_taken_as_float(self):
        # An int array's r * r would wrap around at 2**40 and give f = 1.
        m = rc.DistortionModel(model_id=0, coefficients=(0.1, 0.01))
        got = rc.eval_profile(m, np.array([2**40]))
        assert got.tobytes() == np.array([rc.eval_profile(m, float(2**40))]).tobytes()
        # Strings and complex radii are no real numbers, in an array as alone.
        for bad in (np.array(["0.5"]), np.array([0.5 + 0j])):
            with pytest.raises(ValueError, match="^r must be an array of real numbers, got "):
                rc.eval_profile(m, bad)

    @pytest.mark.parametrize("r, first", [
        (-1.0, "-1.0"),
        (np.array([0.5, -1.0, -2.0]), "-1.0"),
        (np.array(-3.0), "-3.0"),
    ])
    def test_negative_radius_raises(self, r, first):
        m = rc.DistortionModel(model_id=1, coefficients=(0.1,))
        with pytest.raises(ValueError, match=f"^r must be nonnegative, got {first}$"):
            rc.eval_profile(m, r)

    def test_negative_radius_is_not_a_singularity(self):
        # Model 4 with k = 0.5 has 1 + k r = 0 at r = -2, no radius of a point.
        m = rc.DistortionModel(model_id=4, coefficients=(0.5,))
        with pytest.raises(ValueError, match="^r must be nonnegative, got -2.0$"):
            rc.eval_profile(m, -2.0)

    def test_negative_zero_and_nan_radii(self):
        m = rc.DistortionModel(model_id=1, coefficients=(0.1,))
        assert rc.eval_profile(m, -0.0) == 1.0
        assert rc.eval_profile(m, np.array([-0.0, 1.0])).tolist() == [1.0, 1.1]
        for r in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(rc.SingularProfile, match="r=nan"):
                rc.eval_profile(m, r)


class TestDistort:
    def test_zero_coefficients_are_identity(self):
        rng = np.random.default_rng(53)
        for mid in range(10):
            m = rc.DistortionModel(model_id=mid, coefficients=(0.0,) * ARITY[mid])
            for _ in range(20):
                p = rng.uniform(-0.8, 0.8, 2)
                assert np.max(np.abs(rc.distort_normalized(m, p) - p)) < 1e-16

    def test_singular_profile_names_radius(self):
        # Model 4 is 1 / (1 + k r): k = -2 makes the denominator vanish at r = 0.5.
        m = rc.DistortionModel(model_id=4, coefficients=(-2.0,))
        msg = r"model 4 denominator vanished at r=0\.5"
        with pytest.raises(rc.SingularProfile, match=msg):
            rc.distort_normalized(m, np.array([0.5, 0.0]))
        with pytest.raises(rc.SingularProfile, match=msg):
            rc.distort_normalized(m, np.array([[0.1, 0.2], [0.5, 0.0], [0.3, 0.0]]))

    @pytest.mark.parametrize("mid", [0, 1, 2, 3])
    def test_polynomial_profile_names_no_denominator(self, mid):
        # Models 0-3 have no denominator: a nan f means the profile is undefined.
        model = rc.DistortionModel(mid, (0.1,) * ARITY[mid])
        msg = f"^model {mid} profile is undefined at r=nan$"
        with pytest.raises(rc.SingularProfile, match=msg):
            rc.eval_profile(model, math.nan)
        with pytest.raises(rc.SingularProfile, match=msg):
            rc.eval_profile(model, np.array([0.5, math.nan]))

    def test_no_square_without_an_r2_slot(self):
        # Models 1 and 4 use no r^2, so a radius whose square overflows takes
        # the float call's bits in an array too, and warns nothing.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mid in (1, 4):
                model = rc.DistortionModel(mid, (0.5,))
                for r in (1e155, 1e200):
                    got = rc.eval_profile(model, np.array([r]))
                    assert got.tobytes() == np.array([rc.eval_profile(model, r)]).tobytes()
            model = rc.DistortionModel(4, (0.5,))
            assert rc.distort_normalized(model, np.array([[1e200, 0.0]])).tolist() == [[2.0, 0.0]]

    def test_model1_hand_value(self):
        m = rc.DistortionModel(model_id=1, coefficients=(-0.0984,))
        out = rc.distort_normalized(m, np.array([0.3, 0.0]))
        assert abs(out[0] - 0.291144) < 1e-12
        assert out[1] == 0.0

    def test_model3_profile_oracle(self):
        k = (-0.0215, -0.1566)
        m = rc.DistortionModel(model_id=3, coefficients=k)
        p = np.array([0.2, 0.2])
        r = np.sqrt(0.08)
        f = 1.0 + k[0] * r + k[1] * r * r
        out = rc.distort_normalized(m, p)
        assert np.max(np.abs(out - p * f)) < 1e-15

    def test_odd_symmetry(self):
        rng = np.random.default_rng(59)
        done = 0
        while done < 500:
            m = random_model(rng)
            p = rng.uniform(-0.7, 0.7, 2)
            try:
                a = rc.distort_normalized(m, p)
                b = rc.distort_normalized(m, -p)
            except rc.SingularProfile:
                continue
            assert np.max(np.abs(a + b)) < 1e-14
            done += 1

    def test_radial_symmetry(self):
        rng = np.random.default_rng(61)
        done = 0
        while done < 500:
            m = random_model(rng)
            r = rng.uniform(0.0, 0.7)
            th1, th2 = rng.uniform(0.0, 2 * np.pi, 2)
            p1 = r * np.array([np.cos(th1), np.sin(th1)])
            p2 = r * np.array([np.cos(th2), np.sin(th2)])
            try:
                r1 = np.linalg.norm(rc.distort_normalized(m, p1))
                r2 = np.linalg.norm(rc.distort_normalized(m, p2))
            except rc.SingularProfile:
                continue
            assert abs(r1 - r2) < 1e-12
            done += 1

    def test_collinearity(self):
        rng = np.random.default_rng(67)
        done = 0
        while done < 500:
            m = random_model(rng)
            p = rng.uniform(-0.7, 0.7, 2)
            try:
                d = rc.distort_normalized(m, p)
            except rc.SingularProfile:
                continue
            assert abs(p[0] * d[1] - p[1] * d[0]) < 1e-14
            done += 1

    def test_output_radius_is_profile_times_radius(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            m = random_model(rng)
            p = rng.uniform(-0.6, 0.6, 2)
            r = float(np.hypot(*p))
            try:
                d = rc.distort_normalized(m, p)
                f = rc.eval_profile(m, r)
            except rc.SingularProfile:
                continue
            assert abs(np.linalg.norm(d) - abs(f) * r) < 1e-13

    def test_fixed_slope_columns(self):
        rng = np.random.default_rng(73)
        for mid in range(10):
            done = 0
            while done < 50:
                k = tuple(rng.uniform(-0.3, 0.35, ARITY[mid]))
                m = rc.DistortionModel(model_id=mid, coefficients=k)
                c = rng.uniform(-1.0, 1.0)
                x = rng.uniform(-0.5, 0.5)
                p = np.array([x, c * x])
                try:
                    got = rc.distort_normalized(m, p)[0]
                except rc.SingularProfile:
                    continue
                assert abs(got - fixed_slope_xd(mid, k, x, c)) < 1e-12
                done += 1

    def test_array_input(self):
        rng = np.random.default_rng(79)
        m = rc.DistortionModel(model_id=3, coefficients=(-0.1, -0.15))
        pts = rng.uniform(-0.5, 0.5, (30, 2))
        batch = rc.distort_normalized(m, pts)
        rows = np.array([rc.distort_normalized(m, p) for p in pts])
        assert np.array_equal(batch, rows)


class TestDistortPixel:
    def test_zero_coefficients_identity(self):
        A = rc.IntrinsicParams(alpha=500.0, gamma=0.2, u0=320.0, beta=510.0, v0=240.0)
        m = rc.DistortionModel(model_id=0, coefficients=(0.0, 0.0))
        p = np.array([401.5, 187.25])
        assert np.max(np.abs(rc.distort_pixel(A, m, p) - p)) < 1e-9

    def test_identity_intrinsics_match_normalized(self):
        A = rc.IntrinsicParams(alpha=1.0, gamma=0.0, u0=0.0, beta=1.0, v0=0.0)
        m = rc.DistortionModel(model_id=2, coefficients=(-0.2,))
        rng = np.random.default_rng(83)
        for _ in range(50):
            p = rng.uniform(-0.6, 0.6, 2)
            a = rc.distort_pixel(A, m, p)
            b = rc.distort_normalized(m, p)
            assert np.max(np.abs(a - b)) < 1e-14

    def test_frame_equivalence(self):
        # Pixel-frame form: u_d = (u - u0) f(r) + u0 with r taken from the
        # normalized point. Algebraically equal to denormalize(distort(
        # normalize(p))) for any skew, which is what the implementation does.
        rng = np.random.default_rng(89)
        done = 0
        while done < 500:
            A = random_intrinsics(rng)
            m = random_model(rng)
            uv = np.array(
                [A.u0 + rng.uniform(-0.5, 0.5) * A.alpha, A.v0 + rng.uniform(-0.5, 0.5) * A.beta]
            )
            n = rc.normalize(A, uv)
            r = float(np.hypot(*n))
            try:
                f = rc.eval_profile(m, r)
                got = rc.distort_pixel(A, m, uv)
            except rc.SingularProfile:
                continue
            want = np.array([(uv[0] - A.u0) * f + A.u0, (uv[1] - A.v0) * f + A.v0])
            assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))
            done += 1
