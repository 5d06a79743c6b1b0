import math
import re

import numpy as np
import pytest

import radialcal as rc
import radialcal.core as core_mod
from _helpers import camera_830, poses_three, random_intrinsics

EPS = np.finfo(float).eps


def quaternion_rotation(w):
    """Independent rotation construction via unit quaternions."""
    angle = np.linalg.norm(w)
    if angle < 1e-300:
        return np.eye(3)
    ax = np.asarray(w) / angle
    qw = np.cos(angle / 2.0)
    qx, qy, qz = np.sin(angle / 2.0) * ax
    return np.array(
        [
            [1 - 2 * (qy * qy + qz * qz), 2 * (qx * qy - qz * qw), 2 * (qx * qz + qy * qw)],
            [2 * (qx * qy + qz * qw), 1 - 2 * (qx * qx + qz * qz), 2 * (qy * qz - qx * qw)],
            [2 * (qx * qz - qy * qw), 2 * (qy * qz + qx * qw), 1 - 2 * (qx * qx + qy * qy)],
        ]
    )


class TestIntrinsicParams:
    def test_rejects_nonpositive_focals(self):
        with pytest.raises(ValueError):
            rc.IntrinsicParams(alpha=0.0, gamma=0.0, u0=0.0, beta=1.0, v0=0.0)
        with pytest.raises(ValueError):
            rc.IntrinsicParams(alpha=1.0, gamma=0.0, u0=0.0, beta=-2.0, v0=0.0)

    def test_rejects_nonfinite_fields(self):
        good = dict(alpha=800.0, gamma=0.0, u0=320.0, beta=800.0, v0=240.0)
        for field in good:
            for bad in (math.inf, -math.inf, math.nan, 10**400, -(10**400)):
                with pytest.raises(ValueError, match="must be finite"):
                    rc.IntrinsicParams(**{**good, field: bad})

    @pytest.mark.parametrize("value", [800, True, np.float64(800.0), 2**70])
    def test_fields_are_stored_as_floats(self, value):
        # An int, a bool or an np.float64 is kept as its float, so A is a
        # float64 matrix: 2**70 kept as an int would make an object array
        # that np.linalg.inv rejects.
        A = rc.IntrinsicParams(alpha=value, gamma=0, u0=value, beta=value, v0=np.int64(240))
        assert all(type(v) is float for v in A.as_tuple())
        assert A.as_tuple() == (float(value), 0.0, float(value), float(value), 240.0)
        assert A.matrix.dtype == np.float64
        assert np.isfinite(np.linalg.inv(A.matrix)).all()

    def test_matrix_layout(self):
        A = rc.IntrinsicParams(alpha=2.0, gamma=5.0, u0=10.0, beta=3.0, v0=20.0)
        M = A.matrix
        assert M[1, 0] == 0.0 and M[2, 0] == 0.0 and M[2, 1] == 0.0
        assert M[2, 2] == 1.0
        assert M[0, 0] == 2.0 and M[0, 1] == 5.0 and M[0, 2] == 10.0

    def test_inverse_is_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            A = random_intrinsics(rng)
            err = np.max(np.abs(A.matrix @ A.matrix_inv - np.eye(3)))
            assert err < 1e-12

    def test_tuple_order(self):
        A = rc.IntrinsicParams(alpha=1.0, gamma=2.0, u0=3.0, beta=4.0, v0=5.0)
        assert A.as_tuple() == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_from_tuple_inverts_as_tuple(self):
        A = rc.IntrinsicParams(alpha=1.0, gamma=2.0, u0=3.0, beta=4.0, v0=5.0)
        assert rc.IntrinsicParams.from_tuple(A.as_tuple()) == A
        back = rc.IntrinsicParams.from_tuple(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert back == A
        assert all(type(v) is float for v in back.as_tuple())

    def test_from_tuple_takes_real_numbers(self):
        # As the constructor: a string float() would parse is not a number.
        with pytest.raises(ValueError, match="^alpha must be a real number, got '800'$"):
            rc.IntrinsicParams.from_tuple(("800", "0", "320", "800", "240"))
        with pytest.raises(ValueError, match="^v0 must be a real number, got None$"):
            rc.IntrinsicParams.from_tuple((800.0, 0.0, 320.0, 800.0, None))


_INTRINSICS = dict(alpha=800.0, gamma=0.0, u0=320.0, beta=800.0, v0=240.0)
_SYNTH = dict(
    intrinsics=camera_830(),
    extrinsics=poses_three(),
    model=rc.DistortionModel(model_id=1, coefficients=(0.0,)),
)

# Every scalar setting checked as a real number, with a call that passes the
# value to it: a string (which float() would parse) or None is not one.
REAL_FIELDS = {
    **{
        name: lambda v, name=name: rc.OptimizerOptions(**{name: v})
        for name in (
            "step_tolerance",
            "objective_tolerance",
            "max_iterations",
            "max_function_evaluations",
        )
    },
    "spacing": lambda v: rc.planar_grid(2, 2, v),
    "sigma": lambda v: rc.SynthSpec(**_SYNTH, sigma=v),
    **{
        name: lambda v, name=name: rc.IntrinsicParams(**{**_INTRINSICS, name: v})
        for name in _INTRINSICS
    },
    "coefficients": lambda v: rc.DistortionModel(model_id=3, coefficients=(0.1, v)),
    "r": lambda v: rc.eval_profile(rc.DistortionModel(model_id=3, coefficients=(0.1, 0.2)), v),
    **{
        name: lambda v, name=name: rc.CubicProblem(**{**dict(y=0.5, p=0.1, q=0.2), name: v})
        for name in ("y", "p", "q")
    },
}


@pytest.mark.parametrize("name", sorted(REAL_FIELDS))
@pytest.mark.parametrize("bad", ["1", None])
def test_scalar_settings_are_real_numbers(name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got {bad!r}$"):
        REAL_FIELDS[name](bad)


def test_settings_are_stored_as_floats():
    # The optimizer's tolerances and the synthetic noise level, given as ints.
    opts = rc.OptimizerOptions(step_tolerance=1, objective_tolerance=np.int64(2))
    sigma = rc.truth_record(rc.SynthSpec(**_SYNTH, sigma=0))["sigma"]
    for value, want in ((opts.step_tolerance, 1.0), (opts.objective_tolerance, 2.0), (sigma, 0.0)):
        assert type(value) is float and value == want


class TestRotation:
    def test_zero_vector_gives_identity(self):
        R = rc.rotation_to_matrix(np.zeros(3))
        assert np.allclose(R, np.eye(3), atol=1e-15)

    def test_quarter_turn_about_z(self):
        R = rc.rotation_to_matrix(np.array([0.0, 0.0, np.pi / 2]))
        assert np.max(np.abs(R @ [1.0, 0.0, 0.0] - [0.0, 1.0, 0.0])) < 1e-12

    def test_matches_quaternion_construction(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            w = rng.uniform(-1.0, 1.0, 3)
            w *= rng.uniform(0.0, np.pi) / max(np.linalg.norm(w), 1e-12)
            assert np.max(np.abs(rc.rotation_to_matrix(w) - quaternion_rotation(w))) < 1e-12

    def test_orthonormal_and_right_handed(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            w = rng.normal(size=3)
            w *= rng.uniform(0.0, np.pi) / np.linalg.norm(w)
            R = rc.rotation_to_matrix(w)
            assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-12
            assert abs(np.linalg.det(R) - 1.0) < 1e-12

    def test_axis_angle_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            w = rng.normal(size=3)
            w *= rng.uniform(1e-6, np.pi - 1e-6) / np.linalg.norm(w)
            back = rc.rotation_from_matrix(rc.rotation_to_matrix(w))
            assert np.max(np.abs(back - w)) < 1e-9

    def test_round_trip_near_half_turn(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            w = rng.normal(size=3)
            w *= rng.uniform(np.pi - 1e-4, np.pi) / np.linalg.norm(w)
            R = rc.rotation_to_matrix(w)
            R2 = rc.rotation_to_matrix(rc.rotation_from_matrix(R))
            assert np.max(np.abs(R2 - R)) < 1e-9

    @pytest.mark.parametrize(
        "axis",
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (-1, 0, 1), (1, -2, 2), (-1, 1, 1),
         (2, -3, -6)],
    )
    def test_exact_half_turn(self, axis):
        # R = 2 a a^T - I is symmetric, so its antisymmetric part is exactly
        # zero and the axis has to come from the symmetric part.
        a = np.array(axis, dtype=float) / np.linalg.norm(axis)
        R = 2.0 * np.outer(a, a) - np.eye(3)
        w = rc.rotation_from_matrix(R)
        assert abs(np.linalg.norm(w) - np.pi) < 1e-15
        assert abs(abs(w @ a) - np.pi) < 1e-14
        assert np.max(np.abs(rc.rotation_to_matrix(w) - R)) < 1e-14

    @pytest.mark.parametrize("h", [1e-14, 1e-10, 1e-8, 1e-6, 1e-4])
    def test_round_trip_a_small_turn_from_a_half_turn(self, h):
        # Within h of a half turn the antisymmetric part holds only about h
        # of the axis; the round trip must still keep R to rounding.
        a = np.array([0.1, -0.1, 1.0])
        w = math.pi / np.linalg.norm(a) * a
        for j in range(3):
            R = rc.rotation_to_matrix(h * np.eye(3)[j]) @ rc.rotation_to_matrix(w)
            back = rc.rotation_from_matrix(R)
            assert np.linalg.norm(back) <= math.pi
            assert np.max(np.abs(rc.rotation_to_matrix(back) - R)) <= 8 * EPS

    def test_stack_matches_single_vectors_exactly(self):
        rng = np.random.default_rng(23)
        W = rng.normal(size=(4, 5, 3))
        W[0, 0] = 0.0
        W[1, 2] = [1e-13, -2e-13, 0.0]
        stack = rc.rotation_to_matrix(W)
        assert stack.shape == (4, 5, 3, 3)
        for i, j in np.ndindex(4, 5):
            assert np.array_equal(stack[i, j], rc.rotation_to_matrix(W[i, j]))
        assert np.array_equal(stack[0, 0], np.eye(3))

    def test_tiny_angle_is_first_order_expansion(self):
        for w in ([1e-13, -2e-13, 5e-14], [1e-200, 0.0, -3e-200]):
            K = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
            assert np.array_equal(rc.rotation_to_matrix(np.array(w)), np.eye(3) + K)

    def test_extrinsics_matrix_property(self):
        w = np.array([0.3, -0.2, 0.1])
        ext = rc.Extrinsics(rotation=w, translation=np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(ext.matrix, rc.rotation_to_matrix(w))

    def test_identity_gives_zero_vector(self):
        w = rc.rotation_from_matrix(np.eye(3))
        assert w.tolist() == [0.0, 0.0, 0.0]

    def test_extrinsics_reject_wrong_length(self):
        with pytest.raises(ValueError, match="must be 3-vectors"):
            rc.Extrinsics(rotation=[0.1, -0.2], translation=[0.0, 0.0, 5.0])

    def test_extrinsics_reject_nonfinite_entries(self):
        # Z^c = inf would put every point at the principal point, silently.
        for field in ("rotation", "translation"):
            for i in range(3):
                for bad in (math.inf, -math.inf, math.nan):
                    good = {"rotation": [0.1, -0.2, 0.3], "translation": [0.0, 0.0, 5.0]}
                    good[field][i] = bad
                    with pytest.raises(ValueError, match="extrinsics must be finite"):
                        rc.Extrinsics(**good)


class TestComposeRotation:
    """core._compose_rotation against the product of the two rotation matrices."""

    @staticmethod
    def assert_composes(delta, rotation):
        got = core_mod._compose_rotation(delta, rotation)
        assert all(type(v) is float for v in got)
        assert math.hypot(*got) <= math.pi * (1.0 + 4 * EPS)
        want = rc.rotation_to_matrix(delta) @ rc.rotation_to_matrix(rotation)
        # rotation_to_matrix rounds its angle, so the bound grows with both.
        bound = 4 * EPS * (1.0 + math.hypot(*delta) + math.hypot(*rotation))
        assert np.max(np.abs(rc.rotation_to_matrix(np.array(got)) - want)) <= bound
        return got

    def test_random_pairs(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        vector = st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3)

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @hypothesis.given(delta=vector, rotation=vector)
        def check(delta, rotation):
            self.assert_composes(delta, rotation)

        check()

    def test_zero(self):
        assert core_mod._compose_rotation([0.0] * 3, [0.0] * 3) == (0.0, 0.0, 0.0)
        w = [0.3, -0.2, 0.1]
        assert np.allclose(self.assert_composes([0.0] * 3, w), w, rtol=4 * EPS, atol=0.0)
        assert np.allclose(self.assert_composes(w, [0.0] * 3), w, rtol=4 * EPS, atol=0.0)

    @pytest.mark.parametrize("axis", [(0, 0, 1), (1, -2, 2), (0.1, -0.1, 1.0)])
    def test_at_and_past_a_half_turn(self, axis):
        a = np.array(axis, dtype=float) / np.linalg.norm(axis)
        for angle in (math.pi, 1.5 * math.pi, 2.0 * math.pi - 0.1, 3.0 * math.pi):
            w = (angle * a).tolist()
            for delta in ([0.0] * 3, [1e-9, -2e-9, 3e-9], [0.2, 0.1, -0.3]):
                self.assert_composes(delta, w)
        # No step on a turn past pi gives the same rotation the short way round.
        got = self.assert_composes([0.0] * 3, (1.5 * math.pi * a).tolist())
        assert np.allclose(got, -0.5 * math.pi * a, rtol=0.0, atol=8 * EPS)

    @pytest.mark.parametrize(
        "delta, rotation",
        [([0.0, 0.0, 0.3], [0.0, 0.0, 3.0]), ([0.5, -0.4, 0.2], [1.0, -1.5, 2.0])],
    )
    def test_crossing_a_half_turn(self, delta, rotation):
        # The quaternion product's scalar is negative, cos(|d|/2) cos(|w|/2) -
        # sin(|d|/2) sin(|w|/2) d.w/(|d| |w|) < 0, so the result turns the short way.
        d, w = np.array(delta), np.array(rotation)
        nd, nw = np.linalg.norm(d), np.linalg.norm(w)
        scalar = math.cos(nd / 2) * math.cos(nw / 2) - math.sin(nd / 2) * math.sin(nw / 2) * (
            d @ w / (nd * nw)
        )
        assert scalar < 0.0
        got = self.assert_composes(delta, rotation)
        assert math.isclose(math.hypot(*got), 2.0 * math.acos(-scalar), rel_tol=1e-14)

    def test_non_finite_step(self):
        # A far step still composes to a rotation in [0, pi]; a non-finite one
        # gives a row of nan instead of raising in math.cos or math.sin.
        w = [0.3, -0.2, 0.1]
        far = core_mod._compose_rotation([1e200, -1e200, 1e200], w)
        assert math.hypot(*far) <= math.pi * (1.0 + 4 * EPS)
        R = rc.rotation_to_matrix(np.array(far))
        assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-14
        for bad in (math.inf, -math.inf, math.nan):
            for delta, rotation in (([bad, 0.0, 0.0], w), (w, [0.0, bad, 0.0])):
                got = core_mod._compose_rotation(delta, rotation)
                assert len(got) == 3 and all(math.isnan(v) for v in got)


class TestProjection:
    def test_optical_axis(self):
        A = rc.IntrinsicParams(alpha=1.0, gamma=0.0, u0=0.0, beta=1.0, v0=0.0)
        ext = rc.Extrinsics(rotation=np.zeros(3), translation=np.zeros(3))
        uv = rc.project_ideal(A, ext, np.array([0.0, 0.0, 1.0]))
        assert np.max(np.abs(uv)) < 1e-15

    def test_hand_value(self):
        A = rc.IntrinsicParams(alpha=2.0, gamma=0.0, u0=10.0, beta=3.0, v0=20.0)
        ext = rc.Extrinsics(rotation=np.zeros(3), translation=np.zeros(3))
        uv = rc.project_ideal(A, ext, np.array([1.0, 1.0, 2.0]))
        assert np.max(np.abs(uv - [11.0, 21.5])) < 1e-12

    def test_behind_camera(self):
        A = rc.IntrinsicParams(alpha=1.0, gamma=0.0, u0=0.0, beta=1.0, v0=0.0)
        ext = rc.Extrinsics(rotation=np.zeros(3), translation=np.zeros(3))
        with pytest.raises(rc.NonPositiveDepth):
            rc.project_ideal(A, ext, np.array([0.0, 0.0, -1.0]))
        with pytest.raises(rc.NonPositiveDepth):
            rc.project_ideal(A, ext, np.array([0.1, 0.1, 0.0]))

    def test_depth_error_names_the_point(self):
        A = rc.IntrinsicParams(alpha=1.0, gamma=0.0, u0=0.0, beta=1.0, v0=0.0)
        ext = rc.Extrinsics(rotation=np.zeros(3), translation=np.zeros(3))
        for P in ([0.0, 0.0, -1.0], [[0.0, 0.0, -1.0], [0.0, 0.0, 2.0]]):
            with pytest.raises(rc.NonPositiveDepth) as exc:
                rc.project_ideal(A, ext, np.array(P))
            assert str(exc.value) == "point 0: Z^c = -1.0"

    def test_nan_point_is_named(self):
        # Without the check a nan point projects to nan pixels silently.
        A = rc.IntrinsicParams(alpha=1.0, gamma=0.0, u0=0.0, beta=1.0, v0=0.0)
        ext = rc.Extrinsics(rotation=np.zeros(3), translation=np.zeros(3))
        for P, j in (([0.0, np.nan, 1.0], 0), ([[0.0, 0.0, 1.0], [0.0, 0.0, np.nan]], 1)):
            with pytest.raises(ValueError, match=rf"^world point {j} has a nan coordinate"):
                rc.project_ideal(A, ext, np.array(P))

    def test_world_points_of_another_shape_are_named(self):
        # Without the check numpy's matmul raises about its core dimension.
        A = rc.IntrinsicParams(alpha=1.0, gamma=0.0, u0=0.0, beta=1.0, v0=0.0)
        ext = rc.Extrinsics(rotation=np.zeros(3), translation=np.array([0.0, 0.0, 5.0]))
        for P in (np.zeros((4, 2)), np.zeros((4, 4)), 1.0):
            wording = f"world_points must be a point or an (..., 3) array, got shape {np.shape(P)}"
            message = f"^{re.escape(wording)}$"
            with pytest.raises(ValueError, match=message):
                rc.world_to_camera(ext, P)
            with pytest.raises(ValueError, match=message):
                rc.project_ideal(A, ext, P)

    def test_world_to_camera_is_rigid_motion(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            w = rng.normal(size=3) * 0.5
            t = rng.normal(size=3)
            ext = rc.Extrinsics(rotation=w, translation=t)
            p = rng.normal(size=3)
            expected = rc.rotation_to_matrix(w) @ p + t
            assert np.max(np.abs(rc.world_to_camera(ext, p) - expected)) < 1e-14

    def test_two_projection_paths_agree(self):
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 500:
            A = random_intrinsics(rng)
            w = rng.normal(size=3) * 0.4
            t = np.array([rng.normal(scale=0.5), rng.normal(scale=0.5), rng.uniform(4.0, 20.0)])
            ext = rc.Extrinsics(rotation=w, translation=t)
            P = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3), 0.0])
            Pc = rc.world_to_camera(ext, P)
            if Pc[2] < 1e-6:
                continue
            direct = rc.project_ideal(A, ext, P)
            via_ratios = rc.denormalize(A, Pc[:2] / Pc[2])
            assert np.max(np.abs(direct - via_ratios)) < 1e-10
            checked += 1


class TestNormalize:
    def test_principal_point_maps_to_origin(self):
        A = rc.IntrinsicParams(alpha=1.0, gamma=0.0, u0=160.0, beta=1.0, v0=120.0)
        assert np.max(np.abs(rc.normalize(A, np.array([160.0, 120.0])))) < 1e-15

    def test_hand_value(self):
        A = rc.IntrinsicParams(alpha=2.0, gamma=0.0, u0=10.0, beta=4.0, v0=20.0)
        n = rc.normalize(A, np.array([14.0, 28.0]))
        assert np.max(np.abs(n - [2.0, 2.0])) < 1e-14

    def test_denormalize_hand_value(self):
        A = rc.IntrinsicParams(alpha=2.0, gamma=5.0, u0=0.0, beta=3.0, v0=0.0)
        uv = rc.denormalize(A, np.array([1.0, 1.0]))
        assert np.max(np.abs(uv - [7.0, 3.0])) < 1e-14

    def test_inverse_pair(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            A = random_intrinsics(rng)
            p = rng.uniform(-2000.0, 2000.0, 2)
            back = rc.denormalize(A, rc.normalize(A, p))
            assert np.max(np.abs(back - p)) < 1e-12 * max(1.0, np.max(np.abs(p)))

    def test_broadcasts_over_point_arrays(self):
        rng = np.random.default_rng(37)
        A = random_intrinsics(rng)
        pts = rng.uniform(-500.0, 500.0, (40, 2))
        batch = rc.normalize(A, pts)
        rows = np.array([rc.normalize(A, p) for p in pts])
        assert np.array_equal(batch, rows)
