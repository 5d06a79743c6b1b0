import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import radialcal as rc
import radialcal.calibration as calib_mod
from _helpers import (
    camera_830,
    camera_small,
    poses_five_close,
    poses_three,
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

    def test_apply_identity(self):
        pts = np.array([[0.5, -1.0], [2.0, 3.0]])
        out = rc.apply_homography(rc.Homography(matrix=np.eye(3)), pts)
        assert np.allclose(out, pts, atol=1e-15)


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

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rc.estimate_homography(rc.planar_grid(2, 2), rc.planar_grid(3, 2))


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


class TestRefine:
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

    def test_freeze_intrinsics(self, exact3):
        data, spec = exact3
        res = rc.fit_distortion(data, spec.intrinsics, 3)
        assert res.intrinsics.as_tuple() == spec.intrinsics.as_tuple()
        assert res.objective < 1e-6
        assert np.allclose(res.model.coefficients, spec.model.coefficients, atol=5e-3)

    def test_line_search_failure_is_reported(self, exact3, monkeypatch):
        data, spec = exact3
        J0 = 4.0

        def ramp(model_id, params, pts3, observations):
            # J = J0 + (1 + s if s > 0 else -s) in one residual of view 0: the
            # forward-difference Jacobian sees a steep descent towards s < 0
            # that no actual trial point can realize.
            s = params[:, 0] - 830.0
            r = np.zeros((len(params), *observations.shape))
            r[:, 0, 0, 0] = np.sqrt(J0 + np.where(s > 0.0, 1.0 + s, -s))
            return r

        monkeypatch.setattr(calib_mod, "_residuals", ramp)
        initial = rc.CalibrationResult(
            intrinsics=spec.intrinsics,
            extrinsics=spec.extrinsics,
            model=spec.model,
            objective=J0,
            iterations=0,
            converged=False,
        )
        res = rc.refine(initial, data)
        assert res.status == "line_search_failure"
        assert not res.converged
        assert res.objective == J0
        assert res.iterations == 0
        assert res.objective_trace == (J0,)

    def test_step_across_pole_is_rejected(self, trend):
        # Model 4 is 1 / (1 + k r). From k = 2.5 the undamped step lands at
        # k < 0 with 1 + k r < 0 for some point, where J is not finite; the
        # damping must rise until a step lowers J.
        data, _ = trend
        start = rc.linear_initialize(data, 4)
        start = replace(start, model=rc.DistortionModel(model_id=4, coefficients=(2.5,)))
        theta = calib_mod._pack(start.intrinsics, start.model, start.extrinsics)
        kernel = lambda rows: calib_mod._residuals(
            4, rows, data.world_points, np.stack(data.observations)
        )
        r0 = kernel(theta[None])[0]
        J0 = calib_mod._total(calib_mod._squared_terms(r0))
        N, b = calib_mod._normal_equations(*calib_mod._jacobian(kernel, theta, r0, 6), r0)
        undamped = theta + np.linalg.solve(N, -b)
        with np.errstate(over="ignore", invalid="ignore"):
            J_undamped = calib_mod._total(calib_mod._squared_terms(kernel(undamped[None])[0]))
        assert undamped[5] < 0.0 and not math.isfinite(J_undamped)

        res = rc.refine(start, data)
        trace = np.array(res.objective_trace)
        assert trace[0] == J0
        assert np.isfinite(trace).all() and np.all(np.diff(trace) <= 0.0)
        assert math.isfinite(res.objective) and res.objective <= J0
        assert np.isfinite(res.model.coefficients).all()
        assert np.isfinite(res.intrinsics.as_tuple()).all()
        for e in res.extrinsics:
            assert np.isfinite(e.rotation).all() and np.isfinite(e.translation).all()

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


def unpack_at(theta_full, model_id, data):
    """Intrinsics, extrinsics and model of a packed parameter vector."""
    intr, k, rotations, translations = calib_mod._unpack(theta_full, model_id, data.n_views)
    A = rc.IntrinsicParams(alpha=intr[0], gamma=intr[1], u0=intr[2], beta=intr[3], v0=intr[4])
    extrinsics = tuple(
        rc.Extrinsics(rotation=w, translation=t) for w, t in zip(rotations, translations)
    )
    return A, extrinsics, rc.DistortionModel(model_id=model_id, coefficients=k)


def residuals_at(theta_full, model_id, data):
    """Residuals (V, P, 2) at a packed vector, recomputed view by view in full."""
    A, extrinsics, model = unpack_at(theta_full, model_id, data)
    return np.stack(
        [
            rc.project_distorted(A, ext, model, data.world_points) - obs
            for ext, obs in zip(extrinsics, data.observations)
        ]
    )


class TestObjectiveKernel:
    def jacobian(self, data, start, freeze_intrinsics=False, hole=None):
        """_jacobian at start's packed vector, with what a check needs.

        hole, if given, post-processes the kernel's (rows, residuals) to
        knock out probes.
        """
        model_id = start.model.model_id
        theta_full = calib_mod._pack(start.intrinsics, start.model, start.extrinsics)
        frozen = theta_full[:5] if freeze_intrinsics else theta_full[:0]
        theta = theta_full[len(frozen) :]
        obs = np.stack(data.observations)

        def kernel(rows):
            full = np.concatenate([np.broadcast_to(frozen, (len(rows), len(frozen))), rows], 1)
            r = calib_mod._residuals(model_id, full, data.world_points, obs)
            return r if hole is None else hole(rows, r)

        r0 = residuals_at(theta_full, model_id, data)
        m = len(theta) - 6 * data.n_views
        Jg, Jp = calib_mod._jacobian(kernel, theta, r0, m)
        h = calib_mod._FD_STEP * np.maximum(1.0, np.abs(theta))
        h = (theta + h) - theta
        return theta, frozen, r0, m, Jg, Jp, h

    def column(self, Jg, Jp, m, i):
        """Column i of the full Jacobian, shape (V, P, 2)."""
        if i < m:
            return Jg[i]
        v, q = divmod(i - m, 6)
        col = np.zeros_like(Jp[0])
        col[v] = Jp[q, v]
        return col

    def assert_jacobian_exact(self, data, start, freeze_intrinsics=False):
        # Every column the one batched call assembles must be the forward
        # difference a full recompute at the perturbed vector gives.
        model_id = start.model.model_id
        theta, frozen, r0, m, Jg, Jp, h = self.jacobian(data, start, freeze_intrinsics)
        assert Jg.shape == (m, *r0.shape) and Jp.shape == (6, *r0.shape)
        for i in range(len(theta)):
            plus = theta.copy()
            plus[i] += h[i]
            want = (residuals_at(np.concatenate([frozen, plus]), model_id, data) - r0) / h[i]
            assert np.array_equal(self.column(Jg, Jp, m, i), want)

    def test_jacobian_matches_full_recompute(self, trend):
        data, _ = trend
        base = rc.linear_initialize(data, 0)
        few = rc.OptimizerOptions(max_iterations=3)
        for mid in range(10):
            start = replace(
                base,
                model=rc.DistortionModel(
                    model_id=mid, coefficients=(0.0,) * rc.coefficient_arity(mid)
                ),
            )
            self.assert_jacobian_exact(data, start)
            # A few iterations in, the coefficients are no longer zero.
            self.assert_jacobian_exact(data, rc.refine(start, data, few))

    def test_jacobian_matches_with_frozen_intrinsics(self, trend):
        data, spec = trend
        start = rc.fit_distortion(data, spec.intrinsics, 9, rc.OptimizerOptions(max_iterations=3))
        self.assert_jacobian_exact(data, start, freeze_intrinsics=True)

    def test_nonfinite_forward_probe_takes_backward_difference(self, trend):
        # Knock out the forward probe of coefficient k1 everywhere, that of
        # view 2's pose coordinate 1 in view 2 only, and both probes of alpha.
        data, _ = trend
        start = rc.refine(rc.linear_initialize(data, 3), data, rc.OptimizerOptions(max_iterations=3))
        theta0 = calib_mod._pack(start.intrinsics, start.model, start.extrinsics)
        m = 5 + rc.coefficient_arity(3)
        pose = m + 6 * 2 + 1

        def hole(rows, r):
            r = r.copy()
            r[rows[:, 5] > theta0[5]] = np.nan
            r[rows[:, pose] > theta0[pose], 2, 0, 1] = np.nan
            r[rows[:, 0] != theta0[0], 0, 3] = np.nan
            return r

        theta, _, r0, _, Jg, Jp, h = self.jacobian(data, start, hole=hole)
        for i in range(len(theta)):
            got = self.column(Jg, Jp, m, i)
            if i == 0:
                assert not got.any()
                continue
            moved = theta.copy()
            if i in (5, pose):
                moved[i] -= h[i]
                want = (r0 - residuals_at(moved, 3, data)) / h[i]
            else:
                moved[i] += h[i]
                want = (residuals_at(moved, 3, data) - r0) / h[i]
            assert np.array_equal(got, want), i

    def test_rows_do_not_depend_on_their_batch(self, trend):
        data, spec = trend
        pts3 = data.world_points
        obs = np.stack(data.observations)
        model = rc.DistortionModel(model_id=4, coefficients=(0.05,))
        valid = calib_mod._pack(spec.intrinsics, model, spec.extrinsics)
        behind = valid.copy()
        behind[6 + 5 :: 6] = -5.0  # every view's translation z
        # Model 4 is 1 / (1 + k r): k = -1/r at view 0's first point makes
        # the denominator vanish there.
        pc = rc.world_to_camera(spec.extrinsics[0], pts3[0])
        singular = valid.copy()
        singular[5] = -1.0 / math.hypot(pc[0] / pc[2], pc[1] / pc[2])
        kernel = lambda rows: calib_mod._view_terms(4, np.array(rows), pts3, obs)

        alone = kernel([valid])
        assert np.isfinite(alone).all()
        for rows, at in [
            ([valid, behind], 0),
            ([behind, valid], 1),
            ([singular, valid, behind], 1),
            ([singular, behind, valid, valid], 2),
        ]:
            got = kernel(rows)
            assert np.array_equal(got[at], alone[0])
        for bad in (behind, singular):
            terms = kernel([bad])[0]
            assert np.isinf(terms[0])
            assert calib_mod._total(terms) == math.inf
        assert np.isinf(kernel([behind])).all()

    def test_point_behind_camera_voids_only_its_view(self, trend):
        data, spec = trend
        pts3 = data.world_points
        obs = np.stack(data.observations)
        model = rc.DistortionModel(model_id=5, coefficients=(0.2,))
        valid = calib_mod._pack(spec.intrinsics, model, spec.extrinsics)
        # Shift view 2 back along its optical axis until exactly its nearest
        # point lies behind the camera.
        depth = rc.world_to_camera(spec.extrinsics[2], pts3)[:, 2]
        j = int(np.argmin(depth))
        nearest, second = np.sort(depth)[:2]
        behind = valid.copy()
        behind[6 + 6 * 2 + 5] -= 0.5 * (nearest + second)  # view 2's translation z
        rows = np.array([valid, behind])

        terms = calib_mod._view_terms(5, rows, pts3, obs)
        assert np.isfinite(terms[0]).all()
        others = [0, 1, 3, 4]
        assert np.isinf(terms[1, 2])
        assert np.array_equal(terms[1, others], terms[0, others])

        u, v = calib_mod._project(5, rows, pts3)
        assert np.array_equal(u[1, others], u[0, others])
        assert np.array_equal(v[1, others], v[0, others])
        assert not np.isfinite(u[1, 2, j]) and not np.isfinite(v[1, 2, j])
        assert np.isfinite(np.delete(u[1, 2], j)).all()

    def test_nonpositive_focal_row_reads_inf(self, trend):
        data, spec = trend
        valid = calib_mod._pack(spec.intrinsics, spec.model, spec.extrinsics)
        flat = valid.copy()
        flat[3] = 0.0  # beta
        terms = calib_mod._view_terms(
            0, np.array([flat, valid]), data.world_points, np.stack(data.observations)
        )
        assert np.isinf(terms[0]).all()
        assert np.isfinite(terms[1]).all()


class TestLeastSquaresOracle:
    """refine's final J against MINPACK's Levenberg-Marquardt, same start."""

    def oracle_objective(self, start, data):
        optimize = pytest.importorskip("scipy.optimize")
        model_id = start.model.model_id
        obs = np.stack(data.observations)

        def residuals(theta):
            return calib_mod._residuals(model_id, theta[None], data.world_points, obs)[0].ravel()

        theta0 = calib_mod._pack(start.intrinsics, start.model, start.extrinsics)
        sol = optimize.least_squares(
            residuals, theta0, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15
        )
        return float(sol.fun @ sol.fun)

    def assert_matches(self, start, data):
        want = self.oracle_objective(start, data)
        got = rc.refine(start, data)
        assert abs(got.objective - want) <= 1e-6 * want, (start.model.model_id, got, want)

    def test_trend_models(self, trend):
        data, _ = trend
        base = rc.linear_initialize(data, 0)
        for mid in range(10):
            self.assert_matches(calib_mod._start(data, mid, base.intrinsics, base.extrinsics), data)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_wide_set(self, seed):
        data, _ = wide_dataset(seed)
        self.assert_matches(rc.linear_initialize(data, 9), data)


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

    def test_failed_model_recorded(self, noisy3, monkeypatch):
        data, _ = noisy3
        real = calib_mod.refine

        def flaky(initial, data_, opts=None, freeze_intrinsics=False):
            if initial.model.model_id == 5:
                raise rc.SingularProfile("synthetic failure")
            return real(initial, data_, opts, freeze_intrinsics)

        monkeypatch.setattr(calib_mod, "refine", flaky)
        opts = rc.OptimizerOptions(max_iterations=20, max_function_evaluations=4000)
        report = rc.compare_models(data, [3, 5, 7], opts)
        rows = {r.model_id: r for r in report.rows}
        assert not rows[5].converged
        assert rows[5].objective == rows[5].initial_objective
        assert rows[5].rank == 2
        assert rows[3].objective < rows[5].objective
        assert rows[7].objective < rows[5].objective

    def test_duplicate_ids_collapse(self, noisy3):
        data, _ = noisy3
        report = rc.compare_models(data, [3, 0, 3], self.CHEAP)
        assert [r.model_id for r in report.rows] == [0, 3]


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
        with pytest.raises(ValueError):
            rc.CalibrationDataset(model_points=np.zeros((4, 3)), observations=(np.zeros((4, 3)),))
        with pytest.raises(ValueError):
            rc.CalibrationDataset(model_points=good, observations=())
        with pytest.raises(ValueError, match="view 1"):
            rc.CalibrationDataset(
                model_points=good, observations=(np.zeros((9, 2)), np.zeros((8, 2)))
            )

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
        ]:
            with pytest.raises(ValueError):
                rc.OptimizerOptions(**bad)

    def test_report_ordering_enforced(self):
        A = camera_830()
        row = lambda mid, rank: rc.ModelFitRow(
            model_id=mid, objective=1.0, rank=rank, coefficients=(0.0,), intrinsics=A
        )
        with pytest.raises(ValueError):
            rc.ModelFitReport(rows=(row(3, 0), row(1, 1)))
        with pytest.raises(ValueError):
            rc.ModelFitReport(rows=(row(1, 0), row(2, 0)))
