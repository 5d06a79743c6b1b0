"""Plane-based calibration and the multi-model comparison harness.

Pipeline: per-view homographies (normalized DLT), intrinsics from the
absolute-conic constraints, extrinsics by decomposing A^-1 H, then joint
Levenberg-Marquardt refinement of intrinsics + distortion coefficients + all
poses, minimizing the sum of squared pixel distances between observations
and distorted forward projections:

    J = sum_i sum_j || m_ij - distort(project(A, R_i, t_i, M_j)) ||^2

compare_models runs the linear stage once and refines every requested
distortion model from that identical starting point (coefficients at zero),
ranking models by final J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DEPTH_EPS,
    Extrinsics,
    IntrinsicParams,
    Mat,
    Vec,
    rotation_from_matrix,
    rotation_to_matrix,
)
from .distortion import DistortionModel, _checked, _profile, coefficient_arity
from .errors import (
    BehindCamera,
    DegenerateConfiguration,
    NonPositiveDepth,
    RadialCalError,
    SingularConfiguration,
)

# Relative singular-value floor below which the conic constraint system is
# considered rank-deficient (parallel target planes land around 1e-19 here,
# well-posed pose sets around 1e-4).
RANK_EPS = 1e-8


@dataclass(frozen=True, slots=True)
class CalibrationDataset:
    """Planar model points plus index-aligned per-view pixel observations.

    model_points has shape (n, 2); the world Z coordinate is implicitly 0.
    observations is one (n, 2) pixel array per view.
    """

    model_points: Mat
    observations: tuple[Mat, ...]

    def __post_init__(self):
        pts = np.asarray(self.model_points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise ValueError("model_points must be an (n, 2) array")
        if not np.isfinite(pts).all():
            raise ValueError("model_points must be finite")
        obs = tuple(np.asarray(o, dtype=float) for o in self.observations)
        if not obs:
            raise ValueError("dataset needs at least one view")
        for i, o in enumerate(obs):
            if o.shape != pts.shape:
                raise ValueError(
                    f"view {i} has shape {o.shape}, expected {pts.shape}"
                )
            if not np.isfinite(o).all():
                raise ValueError(f"view {i} observations must be finite")
        object.__setattr__(self, "model_points", pts)
        object.__setattr__(self, "observations", obs)

    @property
    def n_points(self) -> int:
        return self.model_points.shape[0]

    @property
    def n_views(self) -> int:
        return len(self.observations)

    @property
    def world_points(self) -> Mat:
        """Model points lifted to 3-D with Z = 0, shape (n, 3)."""
        return np.column_stack([self.model_points, np.zeros(self.n_points)])


@dataclass(frozen=True, slots=True)
class Homography:
    """Plane-to-image projective map, Frobenius-normalized.

    residual is the largest pixel reprojection error over the points the
    matrix was fitted from (zero for manually built homographies).
    """

    matrix: Mat
    residual: float = 0.0

    def __post_init__(self):
        H = np.asarray(self.matrix, dtype=float)
        if H.shape != (3, 3):
            raise ValueError("homography must be 3x3")
        H = H / np.linalg.norm(H)
        if H[2, 2] < 0:
            H = -H
        object.__setattr__(self, "matrix", H)


@dataclass(frozen=True, slots=True)
class OptimizerOptions:
    """Termination settings for refine (defaults match the library's tests).

    step_tolerance bounds the largest accepted step relative to
    max(1, |theta_i|), and objective_tolerance the relative fall of J over
    two consecutive accepted steps. max_function_evaluations counts residual
    evaluations: the start, each Jacobian (one batched kernel call, or two
    when a forward probe is not finite) and each trial step count one each.
    """

    step_tolerance: float = 1e-5
    objective_tolerance: float = 1e-5
    max_iterations: int = 120
    max_function_evaluations: int = 8000

    def __post_init__(self):
        for name in (
            "step_tolerance",
            "objective_tolerance",
            "max_iterations",
            "max_function_evaluations",
        ):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True, slots=True)
class CalibrationResult:
    """Parameters plus the objective they achieve on their dataset."""

    intrinsics: IntrinsicParams
    extrinsics: tuple[Extrinsics, ...]
    model: DistortionModel
    objective: float
    iterations: int
    converged: bool
    status: str = ""
    evaluations: int = 0
    objective_trace: tuple[float, ...] = ()


@dataclass(frozen=True, slots=True)
class ModelFitRow:
    """One line of a comparison report."""

    model_id: int
    objective: float
    rank: int
    coefficients: tuple[float, ...]
    intrinsics: IntrinsicParams
    converged: bool = True
    iterations: int = 0
    initial_objective: float | None = None


@dataclass(frozen=True, slots=True)
class ModelFitReport:
    """Comparison rows in model-id order; ranks follow ascending objective."""

    rows: tuple[ModelFitRow, ...]

    def __post_init__(self):
        rows = tuple(self.rows)
        ids = [r.model_id for r in rows]
        if ids != sorted(ids):
            raise ValueError("report rows must be sorted by model_id")
        if sorted(r.rank for r in rows) != list(range(len(rows))):
            raise ValueError("ranks must be a permutation of 0..n-1")
        object.__setattr__(self, "rows", rows)


def apply_homography(H: Homography, points: Mat) -> Mat:
    """Map (n, 2) points through H and dehomogenize."""
    pts = np.asarray(points, dtype=float)
    ph = np.column_stack([pts, np.ones(len(pts))]) @ H.matrix.T
    return ph[:, :2] / ph[:, 2:3]


def _isotropic_normalization(pts: Mat) -> Mat:
    """Similarity moving the centroid to the origin at mean distance sqrt(2)."""
    centroid = pts.mean(axis=0)
    mean_dist = float(np.sqrt(((pts - centroid) ** 2).sum(axis=1)).mean())
    if mean_dist < 1e-12:
        raise DegenerateConfiguration("all points coincide")
    s = math.sqrt(2.0) / mean_dist
    return np.array(
        [[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]]
    )


def estimate_homography(model_points: Mat, image_points: Mat) -> Homography:
    """Normalized direct linear transform from >= 4 correspondences.

    Raises DegenerateConfiguration when the correspondences do not determine
    a unique homography (too few points, collinear or duplicated points).
    """
    mp = np.asarray(model_points, dtype=float)
    ip = np.asarray(image_points, dtype=float)
    if mp.shape != ip.shape or mp.ndim != 2 or mp.shape[1] != 2:
        raise ValueError("point sets must share shape (n, 2)")
    if len(mp) < 4:
        raise DegenerateConfiguration(f"need at least 4 points, got {len(mp)}")
    Tm = _isotropic_normalization(mp)
    Ti = _isotropic_normalization(ip)
    mh = np.column_stack([mp, np.ones(len(mp))]) @ Tm.T
    ih = np.column_stack([ip, np.ones(len(ip))]) @ Ti.T
    # Two DLT rows per correspondence: [0, -m, v m] and [m, 0, -u m].
    L = np.zeros((2 * len(mp), 9))
    L[0::2, 3:6] = -mh
    L[0::2, 6:9] = ih[:, 1:2] * mh
    L[1::2, 0:3] = mh
    L[1::2, 6:9] = -ih[:, 0:1] * mh
    # The thin SVD: the 2n x 2n left factor is never used.
    _, s, Vt = np.linalg.svd(L, full_matrices=False)
    # A unique solution needs rank 8: one vanishing direction, not two.
    if s[7] < 1e-10 * s[0]:
        raise DegenerateConfiguration(
            "correspondences underdetermine the homography (collinear points?)"
        )
    H = np.linalg.inv(Ti) @ Vt[-1].reshape(3, 3) @ Tm
    fitted = Homography(matrix=H)
    err = float(np.max(np.linalg.norm(apply_homography(fitted, mp) - ip, axis=1)))
    return Homography(matrix=fitted.matrix, residual=err)


def _conic_row(H: Mat, i: int, j: int) -> Vec:
    hi, hj = H[:, i], H[:, j]
    return np.array(
        [
            hi[0] * hj[0],
            hi[0] * hj[1] + hi[1] * hj[0],
            hi[1] * hj[1],
            hi[2] * hj[0] + hi[0] * hj[2],
            hi[2] * hj[1] + hi[1] * hj[2],
            hi[2] * hj[2],
        ]
    )


def estimate_intrinsics_linear(homographies) -> IntrinsicParams:
    """Closed-form intrinsics from the absolute-conic constraints.

    Each homography contributes two linear constraints on the symmetric
    conic B = A^-T A^-1; the stacked system's null vector yields B, from
    which the five parameters unfold in closed form.

    Raises SingularConfiguration when fewer than three views are given or
    the constraint system is rank-deficient (parallel target planes give the
    same two constraints repeatedly).
    """
    Hs = [h.matrix for h in homographies]
    if len(Hs) < 3:
        raise SingularConfiguration(f"need at least 3 views, got {len(Hs)}")
    V = []
    for H in Hs:
        V.append(_conic_row(H, 0, 1))
        V.append(_conic_row(H, 0, 0) - _conic_row(H, 1, 1))
    V = np.asarray(V)
    _, s, Vt = np.linalg.svd(V)
    if s[4] < RANK_EPS * s[0]:
        raise SingularConfiguration(
            "conic constraints are rank-deficient (near-parallel target planes)"
        )
    b = Vt[-1]
    if b[0] < 0:
        b = -b
    B11, B12, B22, B13, B23, B33 = b
    den = B11 * B22 - B12 * B12
    if B11 <= 0 or den <= 0:
        raise SingularConfiguration("recovered conic is not positive definite")
    v0 = (B12 * B13 - B11 * B23) / den
    lam = B33 - (B13 * B13 + v0 * (B12 * B13 - B11 * B23)) / B11
    if lam <= 0:
        raise SingularConfiguration("recovered conic is not positive definite")
    alpha = math.sqrt(lam / B11)
    beta = math.sqrt(lam * B11 / den)
    gamma = -B12 * alpha * alpha * beta / lam
    u0 = gamma * v0 / beta - B13 * alpha * alpha / lam
    return IntrinsicParams(alpha=alpha, beta=beta, gamma=gamma, u0=u0, v0=v0)


def estimate_extrinsics(A: IntrinsicParams, H: Homography) -> Extrinsics:
    """Decompose A^-1 H into a rotation and translation.

    The two leading columns of A^-1 H are the first two rotation columns up
    to a common scale; the third rotation column is their cross product and
    the result is snapped to the nearest orthonormal matrix. The overall
    sign is chosen so the plane origin sits at positive depth.

    Raises BehindCamera when the depth sign cannot be fixed (plane passes
    through the projection center).
    """
    Ainv = A.matrix_inv
    h1, h2, h3 = (Ainv @ H.matrix[:, i] for i in range(3))
    scale = 1.0 / float(np.linalg.norm(h1))
    r1, r2, t = scale * h1, scale * h2, scale * h3
    if abs(t[2]) < DEPTH_EPS:
        raise BehindCamera("target plane passes through the camera center")
    if t[2] < 0:
        r1, r2, t = -r1, -r2, -t
    Q = np.column_stack([r1, r2, np.cross(r1, r2)])
    U, _, Vt = np.linalg.svd(Q)
    R = U @ Vt
    if np.linalg.det(R) < 0:
        R = U @ np.diag([1.0, 1.0, -1.0]) @ Vt
    return Extrinsics(rotation=rotation_from_matrix(R), translation=t)


# ---------------------------------------------------------------------------
# Parameter packing and the projection kernel.
#
# theta = [alpha, gamma, u0, beta, v0,
#          k_1 .. k_arity,
#          w_1 (3), t_1 (3), ..., w_N (3), t_N (3)]
# ---------------------------------------------------------------------------


def _pack(A: IntrinsicParams, model: DistortionModel, extrinsics) -> np.ndarray:
    parts = [*A.as_tuple(), *model.coefficients]
    for e in extrinsics:
        parts += e.rotation.tolist() + e.translation.tolist()
    return np.array(parts)


def _unpack(theta: np.ndarray, model_id: int, n_views: int):
    """The inverse of _pack: (intrinsics, model, extrinsics) of a packed theta.

    The pose vectors are copies, so no result aliases theta.
    """
    base = 5 + coefficient_arity(model_id)
    poses = theta[base:].reshape(n_views, 6)
    return (
        IntrinsicParams.from_tuple(theta[:5]),
        DistortionModel(model_id=model_id, coefficients=tuple(theta[5:base])),
        tuple(Extrinsics(rotation=p[:3].copy(), translation=p[3:].copy()) for p in poses),
    )


def _project(model_id: int, params: np.ndarray, pts3: Mat, strict: bool = False):
    """Distorted pixels of pts3 under a batch of packed parameter rows.

    params is (B, 5 + arity + 6V), each row laid out as theta above, and
    pts3 is (P, 3). Every step is elementwise numpy over (B, V, P) arrays, so
    a row's values never depend on the rows beside it. Returns u and v, each
    (B, V, P). A point below DEPTH_EPS, or one where the profile denominator
    is below DENOM_EPS, has no pixel: its u and v are nan, and the other
    points keep theirs. With strict=True, for one row and one view, such a
    point raises NonPositiveDepth (naming the first point) or SingularProfile
    instead.

    The camera-frame stage (rotation, R P + t, the depth test, x, y and r)
    runs only for row 0 and for the rows whose pose block is not bit for bit
    row 0's (0.0 and -0.0 differ); every other row takes row 0's x, y and r,
    the values its own computation would give, so a row's values still never
    depend on its batch. Most of _jacobian's probe rows move an intrinsic or
    a coefficient and keep the pose, so they share the stage.
    """
    arity = coefficient_arity(model_id)
    head = params[:, : 5 + arity]
    poses = params[:, 5 + arity :]
    take = None
    if len(params) > 1:
        bits = poses.view(np.int64)
        moved = (bits != bits[0]).any(axis=1)
        moved[0] = True
        if not moved.all():
            take = np.where(moved, np.cumsum(moved) - 1, 0)
            poses = poses[moved]
    pose = poses.reshape(len(poses), -1, 6)
    # Intrinsics and coefficients broadcast over (B, V, P) as (B, 1, 1) columns.
    alpha, gamma, u0, beta, v0, *k = head.T[:, :, None, None]
    R = rotation_to_matrix(pose[..., :3])
    # Camera frame, shape (B, V, 3, P): column j of R times coordinate j. A
    # planar target (Z = 0) skips the third column.
    Pc = R[..., 0, None] * pts3[:, 0] + R[..., 1, None] * pts3[:, 1] + pose[..., 3:, None]
    if pts3[:, 2].any():
        Pc += R[..., 2, None] * pts3[:, 2]
    z = Pc[..., 2, :]
    low = z < DEPTH_EPS
    if low.any():
        if strict:
            _, _, j = np.argwhere(low)[0]
            raise NonPositiveDepth(f"point {j}: Z^c = {float(z[0, 0, j])!r}")
        z = np.where(low, np.nan, z)
    x = Pc[..., 0, :] / z
    y = Pc[..., 1, :] / z
    r = np.hypot(x, y)
    if take is not None:
        x, y, r = x[take], y[take], r[take]
    f = _profile(model_id, k, r)
    if strict:
        _checked(model_id, r, f)
    xd = x * f
    yd = y * f
    return alpha * xd + gamma * yd + u0, beta * yd + v0


def _residuals(model_id: int, params: np.ndarray, pts3: Mat, observations) -> np.ndarray:
    """The residual kernel: predicted minus observed pixels, shape (B, V, P, 2).

    observations is the (V, P, 2) stack of pixel observations. A point that
    _project leaves without a pixel, and every point of a row whose focal
    scale alpha or beta is <= 0, has nan residuals.
    """
    u, v = _project(model_id, params, pts3)
    r = np.stack([u - observations[..., 0], v - observations[..., 1]], axis=-1)
    r[(params[:, 0] <= 0.0) | (params[:, 3] <= 0.0)] = np.nan
    return r


def _squared_terms(r: np.ndarray) -> np.ndarray:
    """Per-view sums of squared residuals, shape (..., V); a nan view reads inf."""
    du = r[..., 0]
    dv = r[..., 1]
    terms = np.sum(du * du + dv * dv, axis=-1)
    terms[np.isnan(terms)] = np.inf
    return terms


def _view_terms(model_id: int, params: np.ndarray, pts3: Mat, observations) -> np.ndarray:
    """The objective kernel: per-view squared pixel error sums, shape (B, V).

    A view with a point that _project leaves without a pixel, and every view
    of a row whose focal scale alpha or beta is <= 0, reads inf.
    """
    return _squared_terms(_residuals(model_id, params, pts3, observations))


def _total(terms: np.ndarray):
    """J from per-view terms, summed view by view in order along the last axis.

    A fixed order makes J a function of the per-view terms alone, so a J
    assembled from terms evaluated in different batches equals a full
    recompute bit for bit.
    """
    J = terms[..., 0]
    for i in range(1, terms.shape[-1]):
        J = J + terms[..., i]
    return J


def project_distorted(
    A: IntrinsicParams, ext: Extrinsics, model: DistortionModel, world_points: Mat
) -> Mat:
    """Distorted forward projection of (n, 3) world points, in pixels.

    Raises NonPositiveDepth naming the first point below DEPTH_EPS and
    SingularProfile when a profile denominator vanishes.
    """
    pts = np.asarray(world_points, dtype=float)
    u, v = _project(model.model_id, _pack(A, model, (ext,))[None], pts, strict=True)
    return np.column_stack([u[0, 0], v[0, 0]])


def compute_objective(
    A: IntrinsicParams,
    extrinsics,
    model: DistortionModel,
    data: CalibrationDataset,
) -> float:
    """Sum of squared pixel distances between observations and predictions.

    One call of the objective kernel that refine uses, with the per-view
    sums added in view order, so J of a refined result recomputes to its
    objective bit for bit. A view with a point below DEPTH_EPS or a
    vanishing profile denominator raises NonPositiveDepth or SingularProfile
    naming the first such view.
    """
    extrinsics = tuple(extrinsics)
    if len(extrinsics) != data.n_views:
        raise ValueError(
            f"got {len(extrinsics)} extrinsics for {data.n_views} views"
        )
    pts3 = data.world_points
    terms = _view_terms(
        model.model_id,
        _pack(A, model, extrinsics)[None],
        pts3,
        np.stack(data.observations),
    )[0]
    if not np.isfinite(terms).all():
        for i, ext in enumerate(extrinsics):
            try:
                project_distorted(A, ext, model, pts3)
            except RadialCalError as exc:
                raise type(exc)(f"view {i}, {exc}") from None
    return float(_total(terms))


# Relative forward-difference step of the Jacobian: the square root of the
# float64 epsilon balances truncation against rounding error.
_FD_STEP = math.sqrt(np.finfo(float).eps)
# Levenberg-Marquardt damping at the first step, and the damping past which
# refine reports line_search_failure: a step there is about 1e-16 of the
# scaled gradient step -b_i / N_ii, the relative resolution of a double.
_DAMPING_START = 1e-3
_DAMPING_LIMIT = 1e16


def _jacobian(residuals, theta: np.ndarray, r0: np.ndarray, m: int):
    """Forward-difference Jacobian blocks of the residuals at theta.

    residuals maps (B, n) parameter rows to (B, V, P, 2) residuals, r0 is the
    residual at theta, and theta holds m global entries (free intrinsics and
    coefficients) before the 6V pose entries. Returns Jg of shape
    (m, V, P, 2), the derivatives along the global entries, and Jp of shape
    (6, V, P, 2), where Jp[q, v] is the derivative along view v's pose
    coordinate q; the other views do not depend on that coordinate.

    One kernel call of m + 6 rows probes every entry: a row per global entry,
    and a row per pose coordinate q that moves q in every view at once, since
    a view's pose moves only that view's residuals. With the step h_i =
    sqrt(eps) max(1, |theta_i|), rounded so that theta_i + h_i - theta_i is
    h_i, each derivative is (r(theta + h_i e_i) - r(theta)) / h_i, bit for
    bit what a full recompute at the perturbed vector gives. Where that
    forward probe leaves a residual non-finite (a pole of the profile, or a
    point behind the camera), the backward difference from a second call of
    the same shape takes its place, and a derivative non-finite both ways
    reads 0.
    """
    n_views = len(r0)
    h = _FD_STEP * np.maximum(1.0, np.abs(theta))
    h = (theta + h) - theta
    glob = np.arange(m)
    pose = m + 6 * np.arange(n_views)[:, None] + np.arange(6)
    # The step of probe row i in view v, shaped (m + 6, V, 1, 1).
    steps = np.concatenate([np.repeat(h[:m, None], n_views, axis=1), h[pose].T])
    steps = steps[..., None, None]

    def probe(sign: float):
        rows = np.repeat(theta[None], m + 6, axis=0)
        rows[glob, glob] += sign * h[glob]
        rows[m + np.arange(6), pose] += sign * h[pose]
        r = residuals(rows)
        ok = np.isfinite(r).all(axis=(2, 3))
        ok[:m] = ok[:m].all(axis=1, keepdims=True)
        return r, ok[..., None, None]

    r_fwd, ok_fwd = probe(1.0)
    D = (r_fwd - r0) / steps
    if not ok_fwd.all():
        r_bwd, ok_bwd = probe(-1.0)
        D = np.where(ok_fwd, D, np.where(ok_bwd, (r0 - r_bwd) / steps, 0.0))
    return D[:m], D[m:]


def _normal_equations(Jg: np.ndarray, Jp: np.ndarray, r: np.ndarray):
    """J^T J and J^T r of the full Jacobian, assembled from _jacobian's blocks.

    J^T J is block-arrowhead: the global-global block, one global-pose block
    per view, and one 6 x 6 block per view; pose blocks of different views
    are zero.
    """
    m, n_views = len(Jg), len(r)
    n = m + 6 * n_views
    N = np.zeros((n, n))
    N[:m, :m] = np.einsum("ivpc,jvpc->ij", Jg, Jg)
    cross = np.einsum("ivpc,qvpc->ivq", Jg, Jp).reshape(m, -1)
    N[:m, m:] = cross
    N[m:, :m] = cross.T
    views = np.arange(n_views)
    poses = np.zeros((n_views, 6, n_views, 6))
    poses[views, :, views, :] = np.einsum("qvpc,svpc->vqs", Jp, Jp)
    N[m:, m:] = poses.reshape(6 * n_views, 6 * n_views)
    b = np.concatenate(
        [np.einsum("ivpc,vpc->i", Jg, r), np.einsum("qvpc,vpc->vq", Jp, r).ravel()]
    )
    return N, b


def refine(
    initial: CalibrationResult,
    data: CalibrationDataset,
    opts: OptimizerOptions | None = None,
    freeze_intrinsics: bool = False,
) -> CalibrationResult:
    """Jointly minimize the objective by Levenberg-Marquardt.

    Parameters are the 5 intrinsics, the model's coefficients and all 6N
    pose entries; freeze_intrinsics pins the first five. The residual
    r(theta), predicted minus observed pixels of shape (V, P, 2), comes from
    the one projection kernel, and J = ||r||^2 is its per-view sums added in
    view order, so J of the result recomputes to its objective bit for bit.

    Each iteration takes the forward-difference Jacobian in one batched
    kernel call (see _jacobian), assembles J^T J and J^T r block by block,
    and solves (J^T J + lambda diag(J^T J)) delta = -J^T r densely. A trial
    point whose J is lower is accepted and lambda is rescaled by the gain
    ratio (Madsen, Nielsen and Tingleff 2004, section 3.2); otherwise, also
    where J is not finite, lambda rises and the step is solved again. The
    residual at the start, each Jacobian and each trial count as one
    function evaluation.

    Termination: relative step below step_tolerance, relative objective
    improvement below objective_tolerance on two consecutive iterations, a
    numerically zero gradient or no lower J where the iteration's first
    trial predicted a decrease below eps J (both stationary: J is at the
    optimum to double resolution), or the iteration/evaluation caps. The caps
    and line_search_failure (no damped step lowered J before lambda passed
    its limit) report converged=False carrying the best point reached; the
    accepted-step objective sequence (objective_trace) is decreasing by
    construction.
    """
    opts = opts or OptimizerOptions()
    model_id = initial.model.model_id
    n_views = data.n_views
    if len(initial.extrinsics) != n_views:
        raise ValueError("initial extrinsics count does not match the dataset")

    theta_full = _pack(initial.intrinsics, initial.model, initial.extrinsics)
    frozen = theta_full[:5] if freeze_intrinsics else theta_full[:0]
    theta = theta_full[len(frozen) :].copy()
    m = len(theta) - 6 * n_views
    pts3 = data.world_points
    observations = np.stack(data.observations)

    def residuals(rows: np.ndarray) -> np.ndarray:
        if len(frozen):
            rows = np.concatenate(
                [np.broadcast_to(frozen, (len(rows), len(frozen))), rows], axis=1
            )
        return _residuals(model_id, rows, pts3, observations)

    r = residuals(theta[None])[0]
    J = float(_total(_squared_terms(r)))
    evals = 1
    if not math.isfinite(J):
        raise ValueError("initial parameters do not give a finite objective")
    trace = [J]
    iterations = 0
    status = "max_iterations"
    converged = False
    lam, nu = _DAMPING_START, 2.0
    flat_streak = 0
    while iterations < opts.max_iterations:
        if evals >= opts.max_function_evaluations:
            status = "max_function_evaluations"
            break
        N, b = _normal_equations(*_jacobian(residuals, theta, r, m), r)
        evals += 1
        if 2.0 * float(np.max(np.abs(b))) <= 1e-9 * max(1.0, J):
            status, converged = "stationary", True
            break
        scale = np.diag(N).copy()
        scale[scale <= 0.0] = 1.0
        accepted = False
        first_predicted = math.inf  # the decrease the first trial predicts
        while lam <= _DAMPING_LIMIT and evals < opts.max_function_evaluations:
            step = np.linalg.solve(N + np.diag(lam * scale), -b)
            if first_predicted == math.inf:
                first_predicted = float(step @ (lam * scale * step - b))
            trial = theta + step
            # A far trial may overflow; it reads inf and is rejected.
            with np.errstate(over="ignore", invalid="ignore"):
                r_new = residuals(trial[None])[0]
                J_new = float(_total(_squared_terms(r_new)))
            evals += 1
            if J_new < J:
                accepted = True
                break
            lam *= nu
            nu *= 2.0
        if not accepted:
            if evals >= opts.max_function_evaluations:
                status = "max_function_evaluations"
            elif first_predicted < np.finfo(float).eps * J:
                # The first trial promised less than J's last bit: J is at
                # the optimum to double resolution, not stuck on a bad residual.
                status, converged = "stationary", True
            else:
                status = "line_search_failure"
            break
        predicted = float(step @ (lam * scale * step - b))
        rho = min(1.0, (J - J_new) / predicted) if predicted > 0.0 else 1.0
        lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
        nu = 2.0
        iterations += 1
        trace.append(J_new)
        rel_step = float(np.max(np.abs(step) / np.maximum(1.0, np.abs(theta))))
        rel_dJ = (J - J_new) / max(1.0, J_new)
        theta, r, J = trial, r_new, J_new
        if rel_step < opts.step_tolerance:
            status, converged = "step_tolerance", True
            break
        flat_streak = flat_streak + 1 if rel_dJ < opts.objective_tolerance else 0
        if flat_streak >= 2:
            status, converged = "objective_tolerance", True
            break

    A, model, extrinsics = _unpack(np.concatenate([frozen, theta]), model_id, n_views)
    return CalibrationResult(
        intrinsics=A,
        extrinsics=extrinsics,
        model=model,
        objective=J,
        iterations=iterations,
        converged=converged,
        status=status,
        evaluations=evals,
        objective_trace=tuple(trace),
    )


def _start(
    data: CalibrationDataset, model_id: int, A: IntrinsicParams | None = None
) -> CalibrationResult:
    """A refinement start for model_id with k = 0 and its objective J0.

    One homography per view gives the poses under A, and without A, the
    intrinsics come from the homographies first.
    """
    homographies = [
        estimate_homography(data.model_points, obs) for obs in data.observations
    ]
    if A is None:
        A = estimate_intrinsics_linear(homographies)
    extrinsics = tuple(estimate_extrinsics(A, H) for H in homographies)
    model = DistortionModel(model_id, (0.0,) * coefficient_arity(model_id))
    J0 = compute_objective(A, extrinsics, model, data)
    return CalibrationResult(
        intrinsics=A,
        extrinsics=extrinsics,
        model=model,
        objective=J0,
        iterations=0,
        converged=False,
        status="linear",
        objective_trace=(J0,),
    )


def linear_initialize(data: CalibrationDataset, model_id: int) -> CalibrationResult:
    """Linear estimation stage: homographies, intrinsics, extrinsics, k = 0."""
    return _start(data, model_id)


def calibrate(
    data: CalibrationDataset, model_id: int, opts: OptimizerOptions | None = None
) -> CalibrationResult:
    """Full pipeline for a single distortion model."""
    return refine(linear_initialize(data, model_id), data, opts)


def fit_distortion(
    data: CalibrationDataset,
    A: IntrinsicParams,
    model_id: int,
    opts: OptimizerOptions | None = None,
) -> CalibrationResult:
    """Fit distortion coefficients and poses under known, fixed intrinsics.

    Extrinsics are initialized per view from the homography decomposition
    using the supplied intrinsics; refinement then optimizes coefficients
    and poses only.
    """
    return refine(_start(data, model_id, A), data, opts, freeze_intrinsics=True)


def _fit_row(result: CalibrationResult, rank: int) -> ModelFitRow:
    """The report row of one fit."""
    return ModelFitRow(
        model_id=result.model.model_id,
        objective=result.objective,
        rank=rank,
        coefficients=result.model.coefficients,
        intrinsics=result.intrinsics,
        converged=result.converged,
        iterations=result.iterations,
        initial_objective=result.objective_trace[0] if result.objective_trace else None,
    )


def compare_models(
    data: CalibrationDataset, model_ids, opts: OptimizerOptions | None = None
) -> ModelFitReport:
    """Fit every requested model from one shared linear initialization.

    The linear stage and its objective J0 run once; each model is refined
    from the identical intrinsics/extrinsics with its coefficients at zero,
    where every profile is exactly 1, so J0 is every row's initial objective.
    A model whose refinement fails is recorded with converged=False instead
    of aborting the report. An empty model_ids raises ValueError.
    """
    model_ids = sorted(set(int(m) for m in model_ids))
    if not model_ids:
        raise ValueError("compare_models needs at least one model id")
    base = linear_initialize(data, model_ids[0])
    results: dict[int, CalibrationResult] = {}
    for mid in model_ids:
        start = replace(base, model=DistortionModel(mid, (0.0,) * coefficient_arity(mid)))
        try:
            results[mid] = refine(start, data, opts)
        except RadialCalError:
            results[mid] = replace(start, converged=False, status="failed")
    order = sorted(model_ids, key=lambda m: (results[m].objective, m))
    ranks = {mid: rank for rank, mid in enumerate(order)}
    rows = tuple(_fit_row(results[mid], ranks[mid]) for mid in model_ids)
    return ModelFitReport(rows=rows)
