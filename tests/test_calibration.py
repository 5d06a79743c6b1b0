import itertools
import math
import re
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest

import radialcal as rc
import radialcal.calibration as calib_mod
import radialcal.distortion as distortion_mod
from _helpers import (
    assert_jacobian_close,
    camera_830,
    camera_small,
    forward_pass,
    jacobian,
    jacobian_columns,
    loop_extrinsics,
    loop_homography,
    poses_five_close,
    poses_three,
    poses_upside_down,
    residuals,
    session_models,
    synth_dataset,
    trend_dataset,
    wide_dataset,
)


def pose_homography(A, ext, scale=1.0):
    """Plane-to-image map A [r1 r2 t] for a Z = 0 target."""
    R = ext.matrix
    M = A.matrix @ np.column_stack([R[:, 0], R[:, 1], ext.translation])
    return rc.Homography(matrix=scale * M)


def ramp_residuals(J0, alpha=830.0):
    """A stand-in for calibration._residuals with J = J0 + (1 + s if s > 0
    else -s), s = params[0] - alpha, in one residual of view 0: from a start
    at that alpha the model's Jacobian predicts a descent that no actual
    trial point can realize."""

    def ramp(params, pixels, observations):
        s = params[0] - alpha
        r = np.zeros(observations.shape)
        r[0, 0, 0] = math.sqrt(J0 + (1.0 + s if s > 0.0 else -s))
        return r

    return ramp


def row_bytes(row):
    """A ModelFitRow's fields with every float as its 8 bytes."""
    pack = lambda v: struct.pack("<d", v) if isinstance(v, float) else v
    return (
        row.model_id, pack(row.objective), row.rank, tuple(map(pack, row.coefficients)),
        tuple(map(pack, row.intrinsics.as_tuple())), row.converged, row.iterations,
        pack(row.initial_objective),
    )


@pytest.fixture(scope="module")
def exact3():
    """Noise-free model-3 dataset with its generating spec."""
    return synth_dataset()


@pytest.fixture(scope="module")
def noisy3():
    return synth_dataset(sigma=0.3, seed=7)


@pytest.fixture(scope="module")
def trend():
    return trend_dataset()


class TestHomographyType:
    def test_unit_norm_and_sign(self):
        M = np.array([[2.0, 0.1, 5.0], [0.2, 1.8, -3.0], [0.001, 0.002, 1.0]])
        H = rc.Homography(matrix=M)
        assert abs(np.linalg.norm(H.matrix) - 1.0) < 1e-14
        assert H.matrix[2, 2] >= 0.0

    def test_scale_invariance(self):
        M = np.array([[2.0, 0.1, 5.0], [0.2, 1.8, -3.0], [0.001, 0.002, 1.0]])
        a = rc.Homography(matrix=M).matrix
        b = rc.Homography(matrix=-7.5 * M).matrix
        assert np.allclose(a, b, rtol=0.0, atol=1e-15)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            rc.Homography(matrix=np.eye(4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_matrix(self, bad):
        M = np.eye(3)
        M[0, 2] = bad
        with pytest.raises(ValueError, match="finite and nonzero"):
            rc.Homography(matrix=M)

    def test_rejects_zero_matrix(self):
        # Checked before the Frobenius scaling, which would divide by zero.
        with np.errstate(divide="raise", invalid="raise"):
            with pytest.raises(ValueError, match="finite and nonzero"):
                rc.Homography(matrix=np.zeros((3, 3)))

    def test_apply_identity(self):
        pts = np.array([[0.5, -1.0], [2.0, 3.0]])
        out = rc.apply_homography(rc.Homography(matrix=np.eye(3)), pts)
        assert np.allclose(out, pts, atol=1e-15)

    @pytest.mark.parametrize(
        "points, message",
        [(np.zeros(2), r"an \(n, 2\) array"), (np.zeros((4, 3)), r"an \(n, 2\) array"),
         ([[np.nan, 0.0]], "finite"), ([[0.0, np.inf]], "finite")],
        ids=["pair", "three-columns", "nan", "inf"],
    )
    def test_apply_checks_points(self, points, message):
        with pytest.raises(ValueError, match=f"^points must be {message}$"):
            rc.apply_homography(rc.Homography(matrix=np.eye(3)), points)

    def test_apply_names_a_point_without_finite_image(self):
        # H maps (x, y) to (x, y) / (x + 1), so (-1, 0) goes to infinity.
        H = rc.Homography(matrix=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="^point 1 has no finite image under the homography$"):
            rc.apply_homography(H, np.array([[0.0, 0.0], [-1.0, 0.0]]))


class TestEstimateHomography:
    def test_recovers_pose_map(self):
        A = camera_830()
        grid = rc.planar_grid(6, 6, 1.0)
        for ext in poses_three():
            true = pose_homography(A, ext)
            img = rc.apply_homography(true, grid)
            est = rc.estimate_homography(grid, img)
            assert np.allclose(est.matrix, true.matrix, atol=1e-9)
            held = np.array([[0.37, -1.21], [2.45, 0.18]])
            assert np.allclose(
                rc.apply_homography(est, held), rc.apply_homography(true, held),
                atol=1e-8,
            )

    def test_residual_is_max_point_error(self):
        A = camera_830()
        grid = rc.planar_grid(6, 6, 1.0)
        img = rc.apply_homography(pose_homography(A, poses_three()[0]), grid)
        img = img + np.random.default_rng(3).normal(0.0, 0.4, img.shape)
        est = rc.estimate_homography(grid, img)
        back = rc.apply_homography(est, grid)
        want = float(np.max(np.linalg.norm(back - img, axis=1)))
        assert est.residual == pytest.approx(want, rel=1e-12)
        assert est.residual > 0.1

    def test_too_few_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(rc.DegenerateConfiguration):
            rc.estimate_homography(pts, pts + 1.0)

    def test_collinear_points(self):
        x = np.linspace(0.0, 5.0, 8)
        pts = np.column_stack([x, 2.0 * x + 1.0])
        with pytest.raises(rc.DegenerateConfiguration):
            rc.estimate_homography(pts, 3.0 * pts)

    def test_coincident_points(self):
        pts = np.tile([1.0, 2.0], (6, 1))
        img = rc.planar_grid(2, 3, 1.0)
        with pytest.raises(rc.DegenerateConfiguration):
            rc.estimate_homography(pts, img)

    def test_coincidence_names_its_side(self):
        grid = rc.planar_grid(2, 3, 1.0)
        same = np.tile([1.0, 2.0], (6, 1))
        with pytest.raises(rc.DegenerateConfiguration, match=r"^model points all coincide$"):
            rc.estimate_homography(same, grid)
        with pytest.raises(rc.DegenerateConfiguration, match=r"^all points coincide$"):
            rc.estimate_homography(grid, same)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rc.estimate_homography(rc.planar_grid(2, 2), rc.planar_grid(3, 2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["model_points", "image_points"])
    def test_non_finite_point(self, which, bad):
        # Rejected before any arithmetic: no SVD failure and no RuntimeWarning.
        grid = rc.planar_grid(3, 3, 1.0)
        points = {"model_points": grid.copy(), "image_points": 100.0 * grid + 5.0}
        points[which][4, 1] = bad
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match=f"^{which} must be finite$"):
                rc.estimate_homography(**points)


class TestIntrinsicsLinear:
    def test_recovers_camera(self):
        for A, poses in [
            (camera_830(), poses_three()),
            (camera_small(), poses_five_close()),
        ]:
            Hs = [pose_homography(A, e) for e in poses]
            got = rc.estimate_intrinsics_linear(Hs)
            assert np.allclose(got.as_tuple(), A.as_tuple(), rtol=1e-8, atol=1e-8)

    def test_recovers_through_dlt(self, exact3):
        # End-to-end linear stage on exact pinhole data (no distortion).
        data, spec = synth_dataset(model_id=1, k=(0.0,), sigma=0.0)
        Hs = [rc.estimate_homography(data.model_points, o) for o in data.observations]
        got = rc.estimate_intrinsics_linear(Hs)
        assert np.allclose(got.as_tuple(), spec.intrinsics.as_tuple(), rtol=1e-6, atol=1e-6)

    def test_needs_three_views(self):
        A = camera_830()
        Hs = [pose_homography(A, e) for e in poses_three()[:2]]
        with pytest.raises(rc.SingularConfiguration):
            rc.estimate_intrinsics_linear(Hs)

    def test_parallel_planes_rejected(self):
        # Same plane orientation in every view pins only two conic directions.
        A = camera_830()
        w = np.array([0.25, -0.2, 0.1])
        Hs = [
            pose_homography(A, rc.Extrinsics(rotation=w, translation=np.array(t)))
            for t in [(0.3, -0.2, 14.0), (1.0, 0.5, 11.0), (-2.0, 0.8, 17.0)]
        ]
        with pytest.raises(rc.SingularConfiguration):
            rc.estimate_intrinsics_linear(Hs)

    def test_duplicate_views_rejected(self):
        A = camera_830()
        H = pose_homography(A, poses_three()[0])
        with pytest.raises(rc.SingularConfiguration):
            rc.estimate_intrinsics_linear([H, H, H])

    # Three random matrices give a conic that no camera explains: at seed 0
    # B11 B22 - B12^2 is negative, at seed 1 the scale lambda is.
    @pytest.mark.parametrize("seed", [0, 1])
    def test_indefinite_conic_rejected(self, seed):
        rng = np.random.default_rng(seed)
        Hs = [rc.Homography(rng.normal(size=(3, 3))) for _ in range(3)]
        with pytest.raises(rc.SingularConfiguration, match="^recovered conic is not positive"):
            rc.estimate_intrinsics_linear(Hs)


class TestEstimateExtrinsics:
    def test_recovers_pose(self):
        A = camera_830()
        for ext in poses_three() + poses_five_close():
            got = rc.estimate_extrinsics(A, pose_homography(A, ext))
            assert np.allclose(got.matrix, ext.matrix, atol=1e-9)
            assert np.allclose(got.translation, ext.translation, atol=1e-9)

    def test_rotation_always_orthonormal(self):
        A = camera_830()
        rng = np.random.default_rng(5)
        for _ in range(50):
            ext = poses_three()[0]
            M = pose_homography(A, ext).matrix + rng.normal(0.0, 1e-3, (3, 3))
            got = rc.estimate_extrinsics(A, rc.Homography(matrix=M))
            R = got.matrix
            assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)
            assert np.linalg.det(R) > 0.0

    def test_sign_absorbed_by_normalization(self):
        A = camera_830()
        ext = poses_three()[1]
        M = pose_homography(A, ext).matrix
        a = rc.estimate_extrinsics(A, rc.Homography(matrix=M))
        b = rc.estimate_extrinsics(A, rc.Homography(matrix=-4.0 * M))
        assert np.allclose(a.rotation, b.rotation, atol=1e-12)
        assert np.allclose(a.translation, b.translation, atol=1e-12)

    def test_plane_through_center(self):
        A = camera_830()
        ext = rc.Extrinsics(rotation=(0.2, -0.1, 0.05), translation=(0.3, 0.2, 0.0))
        with pytest.raises(rc.BehindCamera):
            rc.estimate_extrinsics(A, pose_homography(A, ext))

    @pytest.mark.parametrize(
        "H",
        [np.diag([0.0, 1.0, 1.0]), np.diag([1.0, 0.0, 1.0]), [[1, 0, 0], [1, 0, 0], [0, 0, 1]]],
        ids=["zero-h1", "zero-h2", "parallel"],
    )
    def test_degenerate_homography_has_no_pose(self, H):
        # A zero or repeated leading column of A^-1 H fits no rotation; without
        # the check these read a ZeroDivisionError, w = 0 and a 45-degree turn.
        A = rc.IntrinsicParams(alpha=800.0, gamma=0.0, u0=320.0, beta=800.0, v0=240.0)
        with pytest.raises(rc.DegenerateConfiguration, match="no pose explains"):
            rc.estimate_extrinsics(A, rc.Homography(matrix=np.array(H, dtype=float)))


class TestStackedLinearStage:
    """The linear stage runs once over all views: one DLT, one pose decomposition."""

    @staticmethod
    def sets():
        yield trend_dataset()[0]
        for seed in (1, 2, 20240817):
            yield wide_dataset(seed)[0]

    def test_stacked_dlt_matches_one_view_calls(self):
        for data in self.sets():
            stacked = calib_mod._homographies(data.model_points, np.stack(data.observations))
            assert len(stacked) == data.n_views
            for H, obs in zip(stacked, data.observations):
                one = rc.estimate_homography(data.model_points, obs)
                assert H.matrix.tobytes() == one.matrix.tobytes()
                assert H.residual.hex() == one.residual.hex()
                matrix, residual = loop_homography(data.model_points, obs)
                assert H.matrix.tobytes() == matrix.tobytes()
                assert H.residual.hex() == residual.hex()

    def test_stacked_extrinsics_match_one_view_calls(self):
        for data in self.sets():
            Hs = calib_mod._homographies(data.model_points, np.stack(data.observations))
            A = rc.estimate_intrinsics_linear(Hs)
            stacked = calib_mod._poses(A, np.stack([H.matrix for H in Hs]))
            for pose, H in zip(stacked, Hs):
                one = rc.estimate_extrinsics(A, H)
                assert pose.rotation.tobytes() == one.rotation.tobytes()
                assert pose.translation.tobytes() == one.translation.tobytes()
                R, t = loop_extrinsics(A, H.matrix)
                assert pose.rotation.tobytes() == rc.rotation_from_matrix(R).tobytes()
                assert pose.translation.tobytes() == t.tobytes()

    # Four image points on the line v = u / 2 + 30, and four at one place.
    COLLINEAR = np.array([[10.0, 35.0], [60.0, 60.0], [90.0, 75.0], [200.0, 130.0]])
    COINCIDENT = np.tile([120.0, 80.0], (4, 1))

    @staticmethod
    def with_views(replaced):
        """A noise-free five-view set of a four-point target, some views replaced.

        Four correspondences fix a homography only if no three image points
        are collinear, so one collinear view fails the DLT on its own.
        """
        data, _ = synth_dataset(
            model_id=1, k=(0.0,), camera=camera_small(), poses=poses_five_close(), grid=2
        )
        obs = list(data.observations)
        for i, o in replaced.items():
            obs[i] = o
        return rc.CalibrationDataset(model_points=data.model_points, observations=tuple(obs))

    def fits(self, data):
        A = camera_small()
        yield lambda: rc.linear_initialize(data, 3)
        yield lambda: rc.calibrate(data, 3)
        yield lambda: rc.fit_distortion(data, A, 3)
        yield lambda: rc.compare_models(data, range(10))

    def test_failing_view_is_named(self):
        data = self.with_views({2: self.COLLINEAR})
        for fit in self.fits(data):
            with pytest.raises(
                rc.DegenerateConfiguration,
                match=r"^view 2, correspondences underdetermine the homography",
            ):
                fit()

    def test_coincident_view_is_named(self):
        data = self.with_views({3: self.COINCIDENT})
        for fit in self.fits(data):
            with pytest.raises(rc.DegenerateConfiguration, match=r"^view 3, all points coincide$"):
                fit()

    def test_first_failing_view_wins(self):
        # View 1's coincident points fail before its SVD, view 0's collinear
        # points after it; view 0 comes first, with its own reason.
        data = self.with_views({0: self.COLLINEAR, 1: self.COINCIDENT})
        for fit in self.fits(data):
            with pytest.raises(
                rc.DegenerateConfiguration,
                match=r"^view 0, correspondences underdetermine the homography",
            ):
                fit()

    @pytest.mark.parametrize(
        "target, reason",
        [
            (np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), r"^need at least 4 points, got 3$"),
            (np.tile([0.5, -0.5], (4, 1)), r"^model points all coincide$"),
        ],
        ids=["too-few", "coincident"],
    )
    def test_target_failure_names_no_view(self, target, reason):
        views = self.with_views({}).observations
        data = rc.CalibrationDataset(
            model_points=target, observations=tuple(o[: len(target)] for o in views)
        )
        for fit in self.fits(data):
            with pytest.raises(rc.DegenerateConfiguration, match=reason):
                fit()

    def test_one_view_call_raises_the_bare_error(self):
        with pytest.raises(rc.DegenerateConfiguration, match=r"^correspondences") as info:
            rc.estimate_homography(self.with_views({}).model_points, self.COLLINEAR)
        assert info.value.view == 0

    def test_first_failing_pose_wins(self):
        A = rc.IntrinsicParams(alpha=800.0, gamma=0.0, u0=320.0, beta=800.0, v0=240.0)
        plane = pose_homography(
            A, rc.Extrinsics(rotation=(0.2, -0.1, 0.05), translation=(0.3, 0.2, 0.0))
        ).matrix
        good = pose_homography(A, poses_three()[0]).matrix
        parallel = np.array([[1.0, 0, 0], [1, 0, 0], [0, 0, 1]])
        with np.errstate(all="raise"):
            for stack, view, kind in [
                ((good, plane, parallel), 1, rc.BehindCamera),
                ((good, parallel, plane), 1, rc.DegenerateConfiguration),
            ]:
                with pytest.raises(kind) as info:
                    calib_mod._poses(A, np.stack(stack))
                assert info.value.view == view
                assert type(info.value) is kind


class TestObjective:
    def test_zero_on_exact_data(self, exact3):
        data, spec = exact3
        J = rc.compute_objective(spec.intrinsics, spec.extrinsics, spec.model, data)
        assert J == 0.0

    def test_single_point_offset(self):
        A = camera_830()
        ext = poses_three()[0]
        model = rc.DistortionModel(model_id=2, coefficients=(-0.1,))
        world = np.array([[0.0, 0.0, 0.0]])
        proj = rc.project_distorted(A, ext, model, world)
        data = rc.CalibrationDataset(
            model_points=world[:, :2], observations=(proj + [[3.0, 4.0]],)
        )
        J = rc.compute_objective(A, (ext,), model, data)
        assert J == pytest.approx(25.0, abs=1e-9)

    def test_noise_sets_objective_scale(self):
        # At the generating parameters the residuals are exactly the injected
        # noise, so E[J] = 2 N n sigma^2.
        sigma, total = 0.5, 0.0
        for seed in range(50):
            data, spec = synth_dataset(sigma=sigma, seed=seed)
            total += rc.compute_objective(
                spec.intrinsics, spec.extrinsics, spec.model, data
            )
        mean = total / 50.0
        expect = 2.0 * 3 * 64 * sigma**2
        assert abs(mean - expect) < 0.1 * expect

    def test_depth_failure_names_view_and_point(self, exact3):
        data, spec = exact3
        broken = list(spec.extrinsics)
        broken[1] = rc.Extrinsics(
            rotation=broken[1].rotation, translation=(0.0, 0.0, -5.0)
        )
        with pytest.raises(rc.NonPositiveDepth, match=r"view 1, point 0"):
            rc.compute_objective(spec.intrinsics, tuple(broken), spec.model, data)

    def test_singular_profile_names_view(self, exact3):
        # View 1 sees point 0 at x = 0.5, y = 0 on the unit plane, where
        # model 4 with k = -2 has den = 1 - 2 r = 0; view 0 stays regular.
        data, spec = exact3
        X0, Y0, _ = data.world_points[0]
        broken = list(spec.extrinsics)
        broken[1] = rc.Extrinsics(rotation=np.zeros(3), translation=(0.5 - X0, -Y0, 1.0))
        model = rc.DistortionModel(model_id=4, coefficients=(-2.0,))
        rc.project_distorted(spec.intrinsics, broken[0], model, data.world_points)
        with pytest.raises(rc.SingularProfile, match=r"view 1, model 4 denominator"):
            rc.compute_objective(spec.intrinsics, tuple(broken), model, data)

    def test_repeatable_bits(self, noisy3):
        data, spec = noisy3
        a = rc.compute_objective(spec.intrinsics, spec.extrinsics, spec.model, data)
        b = rc.compute_objective(spec.intrinsics, spec.extrinsics, spec.model, data)
        assert a == b

    def test_matches_manual_sum(self, noisy3):
        data, spec = noisy3
        J = rc.compute_objective(spec.intrinsics, spec.extrinsics, spec.model, data)
        manual = 0.0
        for ext, obs in zip(spec.extrinsics, data.observations):
            proj = rc.project_distorted(spec.intrinsics, ext, spec.model, data.world_points)
            manual += float(np.sum((proj - obs) ** 2))
        assert J == pytest.approx(manual, rel=1e-12)

    def test_extrinsics_count_mismatch(self, exact3):
        data, spec = exact3
        with pytest.raises(ValueError):
            rc.compute_objective(spec.intrinsics, spec.extrinsics[:2], spec.model, data)


class TestProjectDistorted:
    def test_matches_pixel_composition(self):
        A = camera_830()
        world = np.column_stack([rc.planar_grid(5, 5, 1.2), np.zeros(25)])
        checked = 0
        for (session, mid, model), ext in zip(
            session_models(), itertools.cycle(poses_three())
        ):
            got = rc.project_distorted(A, ext, model, world)
            ideal = rc.project_ideal(A, ext, world)
            want = np.array([rc.distort_pixel(A, model, p) for p in ideal])
            assert np.allclose(got, want, rtol=1e-10, atol=1e-10)
            checked += len(world)
        assert checked >= 300

    def test_zero_coefficients_match_ideal(self):
        A = camera_small()
        ext = poses_three()[2]
        world = np.column_stack([rc.planar_grid(4, 4), np.zeros(16)])
        model = rc.DistortionModel(model_id=3, coefficients=(0.0, 0.0))
        assert np.allclose(
            rc.project_distorted(A, ext, model, world),
            rc.project_ideal(A, ext, world),
            atol=1e-12,
        )

    def test_behind_camera_names_point(self):
        A = camera_830()
        ext = rc.Extrinsics(rotation=(0.0, 0.0, 0.0), translation=(0.0, 0.0, 5.0))
        world = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -9.0]])
        model = rc.DistortionModel(model_id=1, coefficients=(-0.1,))
        with pytest.raises(rc.NonPositiveDepth, match=r"point 1"):
            rc.project_distorted(A, ext, model, world)

    @pytest.mark.parametrize("shape", [(4, 2), (3,), (2, 3, 3)])
    def test_world_points_must_be_n_by_3(self, shape):
        ext = rc.Extrinsics(rotation=(0.0, 0.0, 0.0), translation=(0.0, 0.0, 5.0))
        model = rc.DistortionModel(model_id=1, coefficients=(-0.1,))
        want = rf"^world_points must be an \(n, 3\) array, got shape {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=want):
            rc.project_distorted(camera_830(), ext, model, np.zeros(shape))

    @pytest.mark.parametrize("model_id", [0, 1, 4, 9])
    def test_nan_point_is_named(self, model_id):
        # Model 0 has no denominator: a nan point is not a SingularProfile.
        ext = rc.Extrinsics(rotation=(0.0, 0.0, 0.0), translation=(0.0, 0.0, 5.0))
        model = rc.DistortionModel(model_id, (0.01,) * rc.coefficient_arity(model_id))
        world = np.zeros((3, 3))
        world[1, 0] = np.nan
        with pytest.raises(ValueError, match=r"^world point 1 has a nan coordinate"):
            rc.project_distorted(camera_830(), ext, model, world)

    # A pose is finite, so Z^c = -inf comes from a world point at Z = -inf.
    # That pose tilts, so that no entry of R's third column is 0 (0 * inf is nan).
    @pytest.mark.parametrize(
        "rotation, tz, Z, shown",
        [((0.0, 0.0, 0.0), -5.0, 0.0, "-5.0"), ((0.1, 0.1, 0.0), 5.0, -np.inf, "-inf")],
        ids=["-5.0--5.0", "-inf--inf"],
    )
    def test_depth_error_prints_a_plain_float(self, rotation, tz, Z, shown):
        ext = rc.Extrinsics(rotation=rotation, translation=(0.0, 0.0, tz))
        model = rc.DistortionModel(model_id=1, coefficients=(-0.1,))
        world = np.zeros((2, 3))
        world[0, 2] = Z
        with pytest.raises(rc.NonPositiveDepth) as exc:
            rc.project_distorted(camera_830(), ext, model, world)
        assert str(exc.value) == f"point 0: Z^c = {shown}"


class TestRefine:
    TIGHT = rc.OptimizerOptions(step_tolerance=1e-15, objective_tolerance=1e-15)

    def test_exact_optimum_returns_unchanged(self, exact3):
        # At J = 0 no trial point can satisfy the descent condition, so the
        # search stops immediately and hands back the starting point.
        data, spec = exact3
        J0 = rc.compute_objective(spec.intrinsics, spec.extrinsics, spec.model, data)
        initial = rc.CalibrationResult(
            intrinsics=spec.intrinsics,
            extrinsics=spec.extrinsics,
            model=spec.model,
            objective=J0,
            iterations=0,
            converged=False,
        )
        res = rc.refine(initial, data)
        assert res.objective == 0.0
        assert res.iterations == 0
        assert res.intrinsics.as_tuple() == spec.intrinsics.as_tuple()

    def test_restart_at_fitted_optimum(self, noisy3):
        data, _ = noisy3
        first = rc.calibrate(data, 2)
        res = rc.refine(first, data)
        assert res.converged
        assert res.objective <= first.objective
        assert res.iterations <= 10

    def test_trace_never_increases(self, noisy3):
        data, _ = noisy3
        res = rc.calibrate(data, 3)
        trace = np.array(res.objective_trace)
        assert np.all(np.diff(trace) <= 0.0)
        assert res.objective == trace.min()

    def test_deterministic(self, noisy3):
        data, _ = noisy3
        a = rc.calibrate(data, 2)
        b = rc.calibrate(data, 2)
        assert a.objective == b.objective
        assert a.iterations == b.iterations
        assert a.status == b.status
        assert a.model.coefficients == b.model.coefficients

    def test_iteration_cap(self, noisy3):
        data, _ = noisy3
        opts = rc.OptimizerOptions(
            step_tolerance=1e-15,
            objective_tolerance=1e-15,
            max_iterations=5,
            max_function_evaluations=10**6,
        )
        res = rc.calibrate(data, 3, opts)
        assert res.status == "max_iterations"
        assert not res.converged
        assert res.iterations == 5

    def test_evaluation_cap(self, noisy3):
        data, _ = noisy3
        opts = rc.OptimizerOptions(
            step_tolerance=1e-15,
            objective_tolerance=1e-15,
            max_iterations=10**4,
            max_function_evaluations=30,
        )
        res = rc.calibrate(data, 3, opts)
        assert res.status == "max_function_evaluations"
        assert not res.converged
        assert res.evaluations <= 30
        assert res.objective <= res.objective_trace[0]

    def test_evaluation_cap_between_iterations(self, trend):
        # One iteration of model 3 takes n evaluations; a cap of n stops the
        # fit before the second, at the point the one-iteration fit returns.
        one = rc.calibrate(trend[0], 3, rc.OptimizerOptions(max_iterations=1))
        n = one.evaluations
        capped = rc.calibrate(trend[0], 3, rc.OptimizerOptions(max_function_evaluations=n))
        assert capped.status == "max_function_evaluations"
        assert (capped.iterations, capped.evaluations) == (1, n)
        assert capped.objective_trace == one.objective_trace
        assert capped.intrinsics == one.intrinsics
        assert capped.model == one.model
        for a, b in zip(capped.extrinsics, one.extrinsics):
            assert a.rotation.tobytes() == b.rotation.tobytes()
            assert a.translation.tobytes() == b.translation.tobytes()

    def test_freeze_intrinsics(self, exact3):
        data, spec = exact3
        res = rc.fit_distortion(data, spec.intrinsics, 3)
        assert res.intrinsics.as_tuple() == spec.intrinsics.as_tuple()
        assert res.objective < 1e-6
        assert np.allclose(res.model.coefficients, spec.model.coefficients, atol=5e-3)

    @staticmethod
    def refine_on_a_ramp(exact3, monkeypatch, J0):
        data, spec = exact3
        monkeypatch.setattr(calib_mod, "_residuals", ramp_residuals(J0))
        initial = rc.CalibrationResult(
            intrinsics=spec.intrinsics,
            extrinsics=spec.extrinsics,
            model=spec.model,
            objective=J0,
            iterations=0,
            converged=False,
        )
        return rc.refine(initial, data)

    def test_line_search_failure_is_reported(self, exact3, monkeypatch):
        J0 = 4.0
        res = self.refine_on_a_ramp(exact3, monkeypatch, J0)
        assert res.status == "line_search_failure"
        assert not res.converged
        assert res.objective == J0
        assert res.iterations == 0
        assert res.objective_trace == (J0,)

    @pytest.mark.parametrize(
        "stop",
        ["max_iterations", "max_function_evaluations", "line_search_failure",
         "stationary", "tolerance"],
    )
    def test_converged_and_iterations_follow_the_stop(self, stop, noisy3, exact3, monkeypatch):
        # converged is True exactly for the three stops at an optimum, and
        # iterations counts the accepted steps: one per trace entry after J0.
        data, _ = noisy3
        if stop == "max_iterations":
            res = rc.calibrate(data, 3, replace(self.TIGHT, max_iterations=5))
        elif stop == "max_function_evaluations":
            res = rc.calibrate(data, 3, replace(self.TIGHT, max_function_evaluations=30))
        elif stop == "line_search_failure":
            res = self.refine_on_a_ramp(exact3, monkeypatch, 4.0)
        elif stop == "stationary":
            res = rc.calibrate(synth_dataset(sigma=0.01, seed=11)[0], 3, self.TIGHT)
        else:
            res = rc.calibrate(data, 3)
        want = {stop} if stop != "tolerance" else {"step_tolerance", "objective_tolerance"}
        assert res.status in want
        assert res.converged == (
            res.status in {"stationary", "step_tolerance", "objective_tolerance"}
        )
        assert res.iterations == len(res.objective_trace) - 1

    def test_resolution_limited_stop_is_stationary(self):
        # With both tolerances below double resolution the fit runs until no
        # damped step lowers J, where the first trial predicts a decrease
        # below J's rounding floor: the optimum, not a failed search.
        data, _ = synth_dataset(sigma=0.01, seed=11)
        res = rc.calibrate(data, 3, self.TIGHT)
        assert res.status == "stationary"
        assert res.converged
        # That stop is the failed trial's, not the zero-gradient test's: the
        # gradient 2 J^T r stays far above that test's floor of 1e-9 J.
        row = calib_mod._row(res.intrinsics, res.model, res.extrinsics)
        pts3 = data.world_points
        r = residuals(3, row, pts3, np.stack(data.observations))
        _, b = calib_mod._normal_equations(jacobian(3, row, pts3, 7), r)
        assert 2.0 * np.abs(b).max() >= 100.0 * 1e-9 * max(1.0, res.objective)
        assert res.objective_trace[-1] == res.objective
        assert res.objective <= rc.calibrate(data, 3).objective
        # The evaluation cap keeps priority when it is reached on that stop.
        capped = rc.calibrate(
            data, 3, replace(self.TIGHT, max_function_evaluations=res.evaluations)
        )
        assert capped.status == "max_function_evaluations"
        assert not capped.converged
        assert capped.objective == res.objective

    @pytest.mark.parametrize("sigma, seed", [(0.01, 11), (1e-3, 12)])
    def test_low_noise_optimum_is_stationary(self, sigma, seed):
        # At low noise J is small against the pixels, and its rounding floor,
        # eps (J + 2 sum |r| |m|), lies orders of magnitude above eps J; the
        # last trial's promise falls between the two. A restart from the
        # result finds no step that lowers J by more than that floor, so it
        # stops where it starts.
        data, _ = synth_dataset(sigma=sigma, seed=seed)
        res = rc.calibrate(data, 3, self.TIGHT)
        assert res.status == "stationary" and res.converged
        obs = np.stack(data.observations)
        row = calib_mod._row(res.intrinsics, res.model, res.extrinsics)
        r = residuals(3, row, data.world_points, obs)
        floor = np.finfo(float).eps * (res.objective + 2.0 * np.abs(r * obs).sum())
        again = rc.refine(res, data, self.TIGHT)
        assert 0.0 <= res.objective - again.objective < floor
        assert again.iterations == 0 and again.status == "stationary"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_first_step_leaves_the_stop_to_the_next(self, monkeypatch):
        # The restart's first solved step is nan: that trial predicts nan and
        # reads J = nan. The next, damped trial's prediction is the first
        # finite one; it lies below the rounding floor, so the restart still
        # stops stationary where it starts.
        data, _ = synth_dataset(sigma=1e-3, seed=12)
        res = rc.calibrate(data, 3, self.TIGHT)
        assert res.status == "stationary"
        solve = np.linalg.solve
        calls = []

        def first_step_nan(a, b):
            calls.append(solve(a, b))
            return np.full_like(calls[-1], math.nan) if len(calls) == 1 else calls[-1]

        monkeypatch.setattr(np.linalg, "solve", first_step_nan)
        again = rc.refine(res, data, self.TIGHT)
        assert len(calls) > 1
        assert again.status == "stationary" and again.converged
        assert again.iterations == 0 and again.objective == res.objective

    def test_step_across_pole_is_rejected(self, trend):
        # Model 4 is 1 / (1 + k r). From k = 2.5 the undamped step lands at
        # k < 0 with 1 + k r < 0 for some point, where J is not finite; the
        # damping must rise until a step lowers J.
        data, _ = trend
        start = rc.linear_initialize(data, 4)
        start = replace(start, model=rc.DistortionModel(model_id=4, coefficients=(2.5,)))
        row = calib_mod._row(start.intrinsics, start.model, start.extrinsics)
        kernel = lambda trial: residuals(4, trial, data.world_points, np.stack(data.observations))
        r0 = kernel(row)
        J0 = calib_mod._objective(r0)
        N, b = calib_mod._normal_equations(jacobian(4, row, data.world_points, 6), r0)
        undamped = row.copy()
        undamped[calib_mod._row_index(4, data.n_views)] += np.linalg.solve(N, -b)
        with np.errstate(over="ignore", invalid="ignore"):
            J_undamped = calib_mod._objective(kernel(undamped))
        assert undamped[8] < 0.0 and not math.isfinite(J_undamped)  # k, in slot d1

        res = rc.refine(start, data)
        trace = np.array(res.objective_trace)
        assert trace[0] == J0
        assert np.isfinite(trace).all() and np.all(np.diff(trace) <= 0.0)
        assert math.isfinite(res.objective) and res.objective <= J0
        assert np.isfinite(res.model.coefficients).all()
        assert np.isfinite(res.intrinsics.as_tuple()).all()
        for e in res.extrinsics:
            assert np.isfinite(e.rotation).all() and np.isfinite(e.translation).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("angle", [1e100, 1e200, math.inf, math.nan])
    def test_far_rotation_step_is_rejected(self, noisy3, monkeypatch, angle):
        # The first solved step turns view 0 about x by a far or non-finite
        # angle. The trial reads as rejected, with J = inf where the angle is
        # not finite, and the damping rises as after any other rejection. At
        # 1e200 the trial's predicted decrease overflows, without a warning.
        data, _ = noisy3
        start = rc.linear_initialize(data, 3)
        m = 5 + 2
        solve, objective = np.linalg.solve, calib_mod._objective
        seen = []

        def first_step_far(a, b):
            step = solve(a, b)
            if len(seen) == 1:
                step[m] = angle
            return step

        def spy(r):
            seen.append(objective(r))
            return seen[-1]

        monkeypatch.setattr(np.linalg, "solve", first_step_far)
        monkeypatch.setattr(calib_mod, "_objective", spy)
        res = rc.refine(start, data)
        J0, first_trial = seen[:2]
        assert first_trial > J0
        if not math.isfinite(angle):
            assert first_trial == math.inf
        assert res.objective_trace[0] == J0 and first_trial not in res.objective_trace
        assert res.converged and res.objective < J0
        for e in res.extrinsics:
            assert np.isfinite(e.rotation).all() and np.linalg.norm(e.rotation) <= math.pi

    def test_far_point_takes_an_accepted_step(self):
        # Model 4, f = 1 / (1 + k r), uses no r^2. Its far point sits at r =
        # 1e156, whose square overflows, yet projects to the finite pixel
        # (1920, 240); no kernel may read the batch row's 0 in an absent slot
        # there as 0 r^2 = nan, which stopped the fit at its start.
        A = rc.IntrinsicParams(alpha=800.0, gamma=0.0, u0=320.0, beta=800.0, v0=240.0)
        model = rc.DistortionModel(4, (0.5,))
        ext = rc.Extrinsics(rotation=np.zeros(3), translation=np.array([0.0, 0.0, 1e-10]))
        target = np.array([[1e146, 0.0], [0.1, 0.1]])
        world = np.column_stack([target, np.zeros(2)])
        observations = rc.project_distorted(A, ext, model, world) + 0.5
        data = rc.CalibrationDataset(target, (observations,))
        start = rc.CalibrationResult(A, (ext,), model, 1.0, 0, False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = rc.refine(start, data, freeze_intrinsics=True)
        assert res.objective_trace[0] == 1.0
        assert res.iterations >= 1 and res.objective < 1.0
        assert res.status == "step_tolerance"

    def test_recovers_ground_truth(self, exact3):
        data, spec = exact3
        res = rc.calibrate(data, 3)
        assert res.converged
        assert res.objective < 1e-6
        assert np.allclose(res.model.coefficients, (-0.1, -0.15), atol=5e-3)
        assert abs(res.intrinsics.alpha - 830.0) < 0.01 * 830.0

    def test_linear_stage_exact_for_pinhole(self):
        data, spec = synth_dataset(model_id=1, k=(0.0,), sigma=0.0)
        start = rc.linear_initialize(data, 1)
        assert start.status == "linear"
        assert start.objective < 1e-10
        assert start.objective_trace == (start.objective,)

    def test_initial_extrinsics_mismatch(self, exact3):
        data, spec = exact3
        bad = rc.CalibrationResult(
            intrinsics=spec.intrinsics,
            extrinsics=spec.extrinsics[:1],
            model=spec.model,
            objective=0.0,
            iterations=0,
            converged=False,
        )
        with pytest.raises(ValueError):
            rc.refine(bad, data)

    def test_nonfinite_initial_rejected(self, exact3):
        data, spec = exact3
        behind = tuple(
            rc.Extrinsics(rotation=e.rotation, translation=(0.0, 0.0, -5.0))
            for e in spec.extrinsics
        )
        bad = rc.CalibrationResult(
            intrinsics=spec.intrinsics,
            extrinsics=behind,
            model=spec.model,
            objective=0.0,
            iterations=0,
            converged=False,
        )
        with pytest.raises(ValueError):
            rc.refine(bad, data)

    def test_objective_matches_recompute(self, noisy3):
        data, _ = noisy3
        res = rc.calibrate(data, 2)
        again = rc.compute_objective(res.intrinsics, res.extrinsics, res.model, data)
        assert again == res.objective


def test_batch_row_layout(noisy3):
    # For every model: the intrinsics, the five slots with 0 in an absent
    # one and view v's pose at 10 + 6v; _unpack reads the row back as floats
    # and pose copies, and _row of what it reads has the row's bytes.
    _, spec = noisy3
    for mid in range(10):
        k = tuple(0.1 * (i + 1) for i in range(rc.coefficient_arity(mid)))
        model = rc.DistortionModel(mid, k)
        row = calib_mod._row(spec.intrinsics, model, spec.extrinsics)
        assert row.shape == (10 + 6 * len(spec.extrinsics),)
        assert tuple(row[:5]) == spec.intrinsics.as_tuple()
        slots = [0.0] * 5
        for slot, c in zip(calib_mod._TERMS[mid], k, strict=True):
            slots[slot] = c
        assert list(row[5:10]) == slots, mid
        for v, e in enumerate(spec.extrinsics):
            assert np.array_equal(row[10 + 6 * v : 13 + 6 * v], e.rotation)
            assert np.array_equal(row[13 + 6 * v : 16 + 6 * v], e.translation)
        A, got, extrinsics = calib_mod._unpack(row, mid)
        assert A == spec.intrinsics and got == model
        assert all(type(v) is float for v in A.as_tuple() + got.coefficients)
        assert calib_mod._row(A, got, extrinsics).tobytes() == row.tobytes()
        row[:] = 0.0  # the poses are copies, not views of the row
        for e, want in zip(extrinsics, spec.extrinsics, strict=True):
            assert np.array_equal(e.rotation, want.rotation)
            assert np.array_equal(e.translation, want.translation)


@pytest.fixture(scope="module")
def jacobian_points():
    """Per set name: its data, its linear start and its points lifted off the plane."""
    rng = np.random.default_rng(5)
    out = {}
    for name, (data, _) in (("trend", trend_dataset()), ("wide", wide_dataset(1))):
        lifted = data.world_points.copy()
        lifted[:, 2] = rng.uniform(-0.5, 0.5, len(lifted))
        out[name] = (data, rc.linear_initialize(data, 0), lifted)
    return out


class TestJacobian:
    """calibration._jacobian against the finite-difference reference in _helpers."""

    @staticmethod
    def free(model_id, frozen):
        """m, the count of free globals, with or without the intrinsics."""
        return rc.coefficient_arity(model_id) + (0 if frozen else 5)

    @pytest.mark.parametrize("model_id", range(10))
    @pytest.mark.parametrize("name", ["trend", "wide"])
    def test_matches_forward_difference(self, jacobian_points, name, model_id):
        # At the linear start and 3 iterations on, on the planar points and
        # on the same poses with the points lifted off the plane, with the
        # intrinsics free and frozen.
        data, base, lifted = jacobian_points[name]
        zero = rc.DistortionModel(model_id, (0.0,) * rc.coefficient_arity(model_id))
        start = replace(base, model=zero)
        later = rc.refine(start, data, rc.OptimizerOptions(max_iterations=3))
        assert later.iterations == 3 and any(later.model.coefficients)
        for fit in (start, later):
            params = calib_mod._row(fit.intrinsics, fit.model, fit.extrinsics)
            for pts3 in (data.world_points, lifted):
                for frozen in (False, True):
                    assert_jacobian_close(model_id, params, pts3, self.free(model_id, frozen))

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("name", ["trend", "wide"])
    def test_normal_equations_match_dense_products(self, jacobian_points, name, frozen):
        # The per-view assembly against J^T J and J^T r of the dense Jacobian,
        # with the intrinsics free and frozen (m = arity).
        data, base, _ = jacobian_points[name]
        model = rc.DistortionModel(9, (0.1, -0.05, 0.08))
        params = calib_mod._row(base.intrinsics, model, base.extrinsics)
        m = self.free(9, frozen)
        J = jacobian(9, params, data.world_points, m)
        r = residuals(9, params, data.world_points, np.stack(data.observations))
        N, b = calib_mod._normal_equations(J, r)
        dense = jacobian_columns(J).reshape(len(N), -1)
        scale = np.abs(N).max()
        assert np.abs(N - dense @ dense.T).max() <= 1e-12 * scale
        assert np.abs(b - dense @ r.ravel()).max() <= 1e-12 * np.abs(b).max()
        for v, w in itertools.permutations(range(data.n_views), 2):
            assert not N[m + 6 * v : m + 6 * v + 6, m + 6 * w : m + 6 * w + 6].any()

    def test_rotation_at_zero_tiny_and_half_turn(self, trend):
        # View 0 at w = 0 exactly, view 1 at a tiny w and view 2 at |w| = pi
        # exactly, an upside-down camera; the other views keep their poses.
        # The target sits at Z = 0 and at Z = 0.3, which moves R's third
        # column too.
        data, spec = trend
        model = rc.DistortionModel(9, (0.1, -0.05, 0.08))
        params = calib_mod._row(spec.intrinsics, model, spec.extrinsics)
        half_turn = np.array([0.1, -0.1, 1.0])
        half_turn *= math.pi / np.linalg.norm(half_turn)
        for v, w in enumerate([np.zeros(3), np.array([4e-9, -3e-9, 2e-9]), half_turn]):
            params[10 + 6 * v : 10 + 6 * v + 3] = w
        for pts3 in (data.world_points, data.world_points + [0.0, 0.0, 0.3]):
            assert_jacobian_close(9, params, pts3, 8)

    @pytest.mark.parametrize("model_id", [1, 3, 4, 6, 7, 8])
    def test_point_on_the_optical_axis(self, model_id):
        # Models with odd powers of r have a kink in f at r = 0; the map
        # (x, y) -> f (x, y) still has the derivative f(0) I = I there.
        A = camera_830()
        grid = np.linspace(-1.0, 1.0, 5)
        pts3 = np.array([(X, Y, 0.0) for X in grid for Y in grid])
        axis = rc.Extrinsics(rotation=np.zeros(3), translation=(0.0, 0.0, 5.0))
        tilted = rc.Extrinsics(rotation=(0.1, -0.2, 0.05), translation=(0.2, 0.1, 6.0))
        k = (0.2, -0.1, 0.05)[: rc.coefficient_arity(model_id)]
        params = calib_mod._row(A, rc.DistortionModel(model_id, k), (axis, tilted))
        m = self.free(model_id, False)
        assert_jacobian_close(model_id, params, pts3, m)
        J = jacobian(model_id, params, pts3, m)
        on_axis = 12  # the world origin
        want = np.array([[A.alpha, 0.0], [A.gamma, A.beta]]) / 5.0
        assert np.allclose(J[0, m + 3 : m + 5, :, on_axis], want, rtol=1e-15, atol=0.0)

    def test_model4_near_its_pole(self, trend):
        # 1 + k r falls to 0.01 at the farthest point: f = 100 there. The
        # forward difference's truncation error grows as 1 / D (1.2e-6 of the
        # column here), so the reference is the central difference.
        data, _ = trend
        start = rc.linear_initialize(data, 4)
        params = calib_mod._row(start.intrinsics, start.model, start.extrinsics)
        r_max = forward_pass(4, params, data.world_points)[3].max()
        params[8] = -(1.0 - 0.01) / r_max  # k, in slot d1
        assert_jacobian_close(4, params, data.world_points, 6, central=True)
        # Closer in, down to just above DENOM_EPS, every entry stays finite.
        params[8] = -(1.0 - 1e-11) / r_max
        assert np.isfinite(jacobian(4, params, data.world_points, 6)).all()

    def test_random_models_and_poses(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        unit = st.floats(-1.0, 1.0)

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @hypothesis.given(
            model_id=st.integers(0, 9),
            k=st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
            w=st.lists(st.floats(-1.2, 1.2), min_size=3, max_size=3),
            t=st.tuples(unit, unit, st.floats(3.0, 10.0)),
            seed=st.integers(0, 2**32 - 1),
            lift=st.booleans(),
            frozen=st.booleans(),
        )
        def check(model_id, k, w, t, seed, lift, frozen):
            rng = np.random.default_rng(seed)
            pts3 = np.column_stack([rng.uniform(-1.5, 1.5, (12, 2)), np.zeros(12)])
            if lift:
                pts3[:, 2] = rng.uniform(-1.0, 1.0, 12)
            model = rc.DistortionModel(model_id, k[: rc.coefficient_arity(model_id)])
            ext = rc.Extrinsics(rotation=w, translation=t)
            pc = rc.world_to_camera(ext, pts3)
            hypothesis.assume((pc[:, 2] > 1.0).all())
            r = np.hypot(pc[:, 0] / pc[:, 2], pc[:, 1] / pc[:, 2])
            # Away from a pole, where central differences stay accurate.
            _, den = distortion_mod._rational(distortion_mod._slots(model_id, model.coefficients))
            hypothesis.assume((np.abs(np.polynomial.polynomial.polyval(r, den)) > 0.1).all())
            params = calib_mod._row(camera_830(), model, (ext,))
            m = self.free(model_id, frozen)
            assert_jacobian_close(model_id, params, pts3, m, central=True)

        check()


class TestModelAxis:
    """_frame and _jacobian over a model axis against M = 1 calls, byte for byte."""

    @pytest.fixture(scope="class")
    def batch(self, jacobian_points):
        # Models 0-9, each three iterations from the trend set's linear start,
        # so every row holds its own nonzero coefficients and poses.
        data, base, _ = jacobian_points["trend"]
        opts = rc.OptimizerOptions(max_iterations=3)
        rows = []
        for m in range(10):
            zero = rc.DistortionModel(m, (0.0,) * rc.coefficient_arity(m))
            fit = rc.refine(replace(base, model=zero), data, opts)
            rows.append(calib_mod._row(fit.intrinsics, fit.model, fit.extrinsics))
        return data, np.array(rows)

    @staticmethod
    def assert_fit_slice(stacked, alone, i):
        """Fit i's view rows of each stacked part hold the bytes of its M = 1 part."""
        for a, b in zip(stacked, alone, strict=True):
            got = a[i * len(b) : (i + 1) * len(b)]
            assert got.shape == b.shape and got.tobytes() == b.tobytes()

    def test_frame_slices_match_single_calls(self, batch):
        data, rows = batch
        models = list(range(10))
        for pts3 in (data.world_points, data.world_points + [0.0, 0.0, 0.3]):
            target = calib_mod._target(pts3)
            stacked = calib_mod._frame(models, rows, target)
            for m in models:
                self.assert_fit_slice(stacked, calib_mod._frame((m,), rows[m : m + 1], target), m)

    @pytest.mark.parametrize("free", [0, 5], ids=["free", "frozen"])
    def test_jacobian_columns_match_single_calls(self, batch, free):
        # The stacked Jacobian over all five slots against each fit's own,
        # with the intrinsics' columns and, as a batch of frozen fits takes
        # it, without them.
        data, rows = batch
        models = list(range(10))
        target = calib_mod._target(data.world_points)
        slots = list(range(5))
        stacked = calib_mod._jacobian(rows, calib_mod._frame(models, rows, target)[:5], slots, free)
        for m in models:
            own = list(calib_mod._TERMS[m])
            frame = calib_mod._frame((m,), rows[m : m + 1], target)[:5]
            alone = calib_mod._jacobian(rows[m : m + 1], frame, own, free)
            got = stacked[:, calib_mod._columns(m, slots, free)]
            assert np.isfinite(got).all()
            assert calib_mod._columns(m, own, free) == list(range(alone.shape[1]))
            self.assert_fit_slice([got], [alone], m)

    def test_overflowing_radius_takes_each_fits_own_slots(self, batch):
        # View 0 of a model-5 row moved 1e150 to the side at depth 1e-6: r is
        # about 1e156, so r * r overflows. f = 1 / (1 + k r^2) is then 0 and
        # the pixel the finite principal point, as alone, though model 0's
        # slots beside it read 0 r^2 = nan in model 5's absent n2 and n4.
        data, rows = batch
        far = rows[5].copy()
        far[10:16] = [0.0, 0.0, 0.0, 1e150, 0.0, 1e-6]
        target = calib_mod._target(data.world_points)
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = calib_mod._frame((0, 5), np.array([rows[0], far]), target)
            alone = calib_mod._frame((5,), far[None], target)
        assert (alone[3][0] > math.sqrt(np.finfo(float).max)).all()
        assert np.isfinite(alone[5]).all()
        self.assert_fit_slice(stacked, calib_mod._frame((0,), rows[:1], target), 0)
        self.assert_fit_slice(stacked, alone, 1)


class TestObjectiveKernel:
    @staticmethod
    def residuals(model_id, params, data):
        obs = np.stack(data.observations)
        return residuals(model_id, params, data.world_points, obs)

    def test_invalid_rows_read_inf(self, trend):
        data, spec = trend
        pts3 = data.world_points
        model = rc.DistortionModel(model_id=4, coefficients=(0.05,))
        valid = calib_mod._row(spec.intrinsics, model, spec.extrinsics)
        behind = valid.copy()
        behind[10 + 5 :: 6] = -5.0  # every view's translation z
        # Model 4 is 1 / (1 + k r): k = -1/r at view 0's first point makes
        # the denominator vanish there.
        pc = rc.world_to_camera(spec.extrinsics[0], pts3[0])
        singular = valid.copy()
        singular[8] = -1.0 / math.hypot(pc[0] / pc[2], pc[1] / pc[2])  # k, in slot d1

        assert math.isfinite(calib_mod._objective(self.residuals(4, valid, data)))
        for bad in (behind, singular):
            r = self.residuals(4, bad, data)
            assert np.isnan(r[0, 0]).all()
            assert calib_mod._objective(r) == math.inf

    def test_point_behind_camera_voids_only_its_view(self, trend):
        data, spec = trend
        pts3 = data.world_points
        model = rc.DistortionModel(model_id=5, coefficients=(0.2,))
        valid = calib_mod._row(spec.intrinsics, model, spec.extrinsics)
        # Shift view 2 back along its optical axis until exactly its nearest
        # point lies behind the camera.
        depth = rc.world_to_camera(spec.extrinsics[2], pts3)[:, 2]
        j = int(np.argmin(depth))
        nearest, second = np.sort(depth)[:2]
        behind = valid.copy()
        behind[10 + 6 * 2 + 5] -= 0.5 * (nearest + second)  # view 2's translation z

        r_valid = self.residuals(5, valid, data)
        r = self.residuals(5, behind, data)
        others = [0, 1, 3, 4]
        assert np.isfinite(r_valid).all()
        assert np.array_equal(r[others], r_valid[others])
        assert np.isnan(r[2, j]).all()
        assert np.isfinite(np.delete(r[2], j, axis=0)).all()
        assert calib_mod._objective(r) == math.inf

        u, v = np.moveaxis(forward_pass(5, behind, pts3)[5], -1, 0)
        u0, v0 = np.moveaxis(forward_pass(5, valid, pts3)[5], -1, 0)
        assert np.array_equal(u[others], u0[others])
        assert np.array_equal(v[others], v0[others])
        assert not np.isfinite(u[2, j]) and not np.isfinite(v[2, j])
        assert np.isfinite(np.delete(u[2], j)).all()

    def test_nonpositive_focal_row_reads_inf(self, trend):
        data, spec = trend
        valid = calib_mod._row(spec.intrinsics, spec.model, spec.extrinsics)
        assert math.isfinite(calib_mod._objective(self.residuals(0, valid, data)))
        for i, value in [(0, -1.0), (3, 0.0)]:  # alpha, beta
            flat = valid.copy()
            flat[i] = value
            r = self.residuals(0, flat, data)
            assert np.isnan(r).all()
            assert calib_mod._objective(r) == math.inf


class TestLeastSquaresOracle:
    """refine's final J against MINPACK's Levenberg-Marquardt, same start."""

    def oracle_objective(self, start, data):
        optimize = pytest.importorskip("scipy.optimize")
        model_id = start.model.model_id
        obs = np.stack(data.observations)

        row = calib_mod._row(start.intrinsics, start.model, start.extrinsics)
        index = calib_mod._row_index(model_id, data.n_views)  # no absent slot is fitted

        def kernel(theta):
            row[index] = theta
            return residuals(model_id, row, data.world_points, obs).ravel()

        sol = optimize.least_squares(
            kernel, row[index], method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15
        )
        return float(sol.fun @ sol.fun)

    def assert_matches(self, start, data):
        want = self.oracle_objective(start, data)
        got = rc.refine(start, data)
        assert abs(got.objective - want) <= 1e-6 * want, (start.model.model_id, got, want)
        return got

    def test_trend_models(self, trend):
        data, _ = trend
        base = rc.linear_initialize(data, 0)
        for mid in range(10):
            zero = rc.DistortionModel(mid, (0.0,) * rc.coefficient_arity(mid))
            self.assert_matches(replace(base, model=zero), data)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_wide_set(self, seed):
        data, _ = wide_dataset(seed)
        self.assert_matches(rc.linear_initialize(data, 9), data)

    def test_upside_down_poses(self):
        # Every camera is turned by pi, where the refined rotations keep
        # crossing the half turn; each result still has its angle in [0, pi].
        data, _ = synth_dataset(sigma=0.3, seed=2, poses=poses_upside_down())
        got = self.assert_matches(rc.linear_initialize(data, 3), data)
        for e in got.extrinsics:
            assert np.linalg.norm(e.rotation) <= math.pi


class TestCompareModels:
    CHEAP = rc.OptimizerOptions(
        step_tolerance=1.0,
        objective_tolerance=1.0,
        max_iterations=1,
        max_function_evaluations=10**6,
    )

    def test_shared_initialization(self):
        for seed in range(5):
            data, _ = synth_dataset(model_id=0, k=(-0.2, 0.05), sigma=0.3, seed=seed)
            report = rc.compare_models(data, range(10), self.CHEAP)
            starts = {r.initial_objective for r in report.rows}
            assert len(starts) == 1

    def test_single_model_noise_free(self):
        data, _ = synth_dataset(model_id=0, k=(-0.2, 0.05), sigma=0.0)
        report = rc.compare_models(data, [0])
        row = report.rows[0]
        assert row.model_id == 0 and row.rank == 0
        assert row.converged
        assert row.objective < 1e-6

    def test_trend_rows_are_finite(self, trend):
        data, _ = trend
        report = rc.compare_models(data, range(10))
        for row in report.rows:
            assert math.isfinite(row.objective)
            assert np.all(np.isfinite(row.coefficients))
            assert np.all(np.isfinite(row.intrinsics.as_tuple()))

    def test_ranks_follow_objective(self, noisy3):
        data, _ = noisy3
        opts = rc.OptimizerOptions(max_iterations=25, max_function_evaluations=4000)
        report = rc.compare_models(data, range(10), opts)
        want = sorted(report.rows, key=lambda r: (r.objective, r.model_id))
        for rank, row in enumerate(want):
            assert row.rank == rank

    def test_failure_after_first_step_propagates(self, noisy3, monkeypatch):
        # Model 5's fit raises once its first step is accepted, that is at its
        # second Jacobian request: compare_models raises that error, as
        # calibrate would, and reports no row. The fits are the generators
        # _lock_step drives.
        data, _ = noisy3
        real = calib_mod._fit

        def flaky(model_id, theta, observations, opts, free):
            fit = real(model_id, theta, observations, opts, free)
            request, jacobians = next(fit), 0
            while True:
                jacobians += request is None
                if model_id == 5 and jacobians >= 2:
                    raise rc.SingularProfile("synthetic failure")
                try:
                    request = fit.send((yield request))
                except StopIteration as stop:
                    return stop.value

        monkeypatch.setattr(calib_mod, "_fit", flaky)
        opts = rc.OptimizerOptions(max_iterations=20, max_function_evaluations=4000)
        with pytest.raises(rc.SingularProfile, match="^synthetic failure$"):
            rc.compare_models(data, [3, 5, 7], opts)

    @pytest.mark.parametrize("stop", ["default", "max_iterations", "max_function_evaluations",
                                      "line_search_failure"])
    @pytest.mark.parametrize("name", ["trend", "noisy3"])
    def test_rows_equal_solo_fits(self, name, stop, trend, noisy3, monkeypatch):
        # Each row of the lock-step batch is _fit_row of calibrate alone, every
        # float by its bytes: at the defaults; at 12 iterations, where models
        # 8 and 9 stop on the cap on the trend set and the others converge; at
        # 9 evaluations; and on TestRefine's ramp, where every search fails.
        data, _ = {"trend": trend, "noisy3": noisy3}[name]
        opts = {
            "max_iterations": rc.OptimizerOptions(max_iterations=12),
            "max_function_evaluations": rc.OptimizerOptions(max_function_evaluations=9),
        }.get(stop)
        if stop == "line_search_failure":
            alpha = rc.linear_initialize(data, 0).intrinsics.alpha
            monkeypatch.setattr(calib_mod, "_residuals", ramp_residuals(4.0, alpha))
        report = rc.compare_models(data, range(10), opts)
        statuses = set()
        for row in report.rows:
            fit = rc.calibrate(data, row.model_id, opts)
            statuses.add(fit.status)
            assert row_bytes(row) == row_bytes(calib_mod._fit_row(fit, row.rank)), row.model_id
        if stop == "line_search_failure":
            assert statuses == {stop}
        elif stop == "max_function_evaluations":
            assert stop in statuses
        elif name == "trend" and stop == "max_iterations":
            assert {r.model_id for r in report.rows if not r.converged} == {8, 9}

    def test_empty_model_list(self, noisy3):
        data, _ = noisy3
        with pytest.raises(ValueError, match="at least one model id"):
            rc.compare_models(data, [])

    def test_start_objective_computed_once(self, noisy3, monkeypatch):
        data, _ = noisy3
        calls = []
        real = calib_mod.compute_objective

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(calib_mod, "compute_objective", counted)
        report = rc.compare_models(data, range(10), self.CHEAP)
        assert len(calls) == 1
        assert {r.initial_objective for r in report.rows} == {real(*calls[0])}

    def test_duplicate_ids_collapse(self, noisy3):
        data, _ = noisy3
        report = rc.compare_models(data, [3, 0, 3], self.CHEAP)
        assert [r.model_id for r in report.rows] == [0, 3]

    def test_model_ids_are_integers(self, noisy3):
        # As in calibrate: int() would fit 2.5 as model 2 and "3" as model 3.
        data, _ = noisy3
        for bad in (2.5, "3"):
            with pytest.raises(rc.UnknownModel, match="no distortion model with id"):
                rc.compare_models(data, [0, bad], self.CHEAP)
        report = rc.compare_models(data, [np.int64(3), 3], self.CHEAP)
        assert [r.model_id for r in report.rows] == [3]
        assert type(report.rows[0].model_id) is int


class TestNestedModels:
    """A richer model started from a nested simpler optimum never does worse."""

    def test_three_extends_two(self):
        data, _ = trend_dataset()
        r2 = rc.calibrate(data, 2)
        warm = replace(
            r2, model=rc.DistortionModel(model_id=3, coefficients=(0.0, r2.model.coefficients[0]))
        )
        r3 = rc.refine(warm, data)
        assert r3.objective_trace[0] == r2.objective
        assert r3.objective <= r2.objective + 1e-9

    def test_seven_extends_five(self):
        data, _ = trend_dataset()
        r5 = rc.calibrate(data, 5)
        warm = replace(
            r5, model=rc.DistortionModel(model_id=7, coefficients=(0.0, r5.model.coefficients[0]))
        )
        r7 = rc.refine(warm, data)
        assert r7.objective_trace[0] == r5.objective
        assert r7.objective <= r5.objective + 1e-9


class TestTypes:
    def test_dataset_shape_checks(self):
        good = rc.planar_grid(3, 3)
        for shape in ((4, 3), (0, 2)):
            with pytest.raises(ValueError, match=r"^model_points must be an \(n, 2\) array$"):
                rc.CalibrationDataset(model_points=np.zeros(shape), observations=(np.zeros(shape),))
        with pytest.raises(ValueError):
            rc.CalibrationDataset(model_points=good, observations=())
        with pytest.raises(ValueError, match="view 1"):
            rc.CalibrationDataset(
                model_points=good, observations=(np.zeros((9, 2)), np.zeros((8, 2)))
            )

    def test_dataset_rejects_non_finite_values(self):
        good = rc.planar_grid(3, 3)
        for bad in (np.nan, np.inf, float("1e400")):
            obs = good * 10.0
            obs[4, 1] = bad
            with pytest.raises(ValueError, match="view 1 observations must be finite"):
                rc.CalibrationDataset(model_points=good, observations=(good, obs))
            pts = good.copy()
            pts[0, 0] = bad
            with pytest.raises(ValueError, match="model_points must be finite"):
                rc.CalibrationDataset(model_points=pts, observations=(good,))

    def test_dataset_world_points(self):
        grid = rc.planar_grid(3, 2, 2.0)
        data = rc.CalibrationDataset(model_points=grid, observations=(np.zeros((6, 2)),))
        assert data.n_points == 6 and data.n_views == 1
        assert data.world_points.shape == (6, 3)
        assert np.all(data.world_points[:, 2] == 0.0)

    def test_options_validation(self):
        for bad in [
            dict(step_tolerance=0.0),
            dict(objective_tolerance=-1e-3),
            dict(max_iterations=0),
            dict(max_function_evaluations=-5),
            dict(step_tolerance=math.nan),
            dict(objective_tolerance=math.nan),
            dict(max_iterations=math.nan),
            dict(max_function_evaluations=math.nan),
        ]:
            with pytest.raises(ValueError, match="must be positive"):
                rc.OptimizerOptions(**bad)

    @pytest.mark.parametrize("name", ["max_iterations", "max_function_evaluations"])
    def test_counts_are_integers(self, name):
        # 2.5 iterations would run 2, and 3.5 evaluations allow 4.
        for bad in (2.5, 3.5, 4.0):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
                rc.OptimizerOptions(**{name: bad})
        opts = rc.OptimizerOptions(**{name: np.int64(3)})
        assert getattr(opts, name) == 3 and type(getattr(opts, name)) is int
        # An int past the float range is a count all the same.
        assert getattr(rc.OptimizerOptions(**{name: 10**400}), name) == 10**400

    @pytest.mark.parametrize("name", ["step_tolerance", "objective_tolerance"])
    def test_infinite_tolerance_rejected(self, name):
        # An infinite tolerance would stop a fit at once, reported converged;
        # an int past the float range counts as one.
        for big in (math.inf, 10**400):
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                rc.OptimizerOptions(**{name: big})

    def test_report_ordering_enforced(self):
        A = camera_830()
        row = lambda mid, rank: rc.ModelFitRow(
            model_id=mid, objective=1.0, rank=rank, coefficients=(0.0,), intrinsics=A
        )
        with pytest.raises(ValueError):
            rc.ModelFitReport(rows=(row(3, 0), row(1, 1)))
        with pytest.raises(ValueError):
            rc.ModelFitReport(rows=(row(1, 0), row(2, 0)))
        with pytest.raises(ValueError, match="strictly increasing model ids, got \\[3, 3\\]"):
            rc.ModelFitReport(rows=(row(3, 0), row(3, 1)))
        with pytest.raises(rc.UnknownModel):
            rc.ModelFitReport(rows=(row(3, 0), row(99, 1)))
