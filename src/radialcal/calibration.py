"""Plane-based calibration and the multi-model comparison harness.

Pipeline: per-view homographies (one normalized DLT over all views),
intrinsics from the absolute-conic constraints, extrinsics by decomposing
A^-1 H over all views, then joint Levenberg-Marquardt refinement of
intrinsics + distortion coefficients + all poses, minimizing the sum of
squared pixel distances between observations and distorted forward
projections:

    J = sum_i sum_j || m_ij - distort(project(A, R_i, t_i, M_j)) ||^2

compare_models runs the linear stage once and refines every requested
distortion model from that identical starting point (coefficients at zero),
ranking models by final J. The fits run in lock step: each round makes one
forward pass and one Jacobian over a leading model axis for every fit still
running, while each fit keeps its own damping, acceptance test and stop
rule, so every fit takes the bits it takes alone. A fit's parameters have
one layout, the batch row (_row) that every model shares, and a batch has
one freeze setting for all its fits. A fit starts from its row and ends in
its CalibrationResult; an error in any fit propagates. refine is a batch of
one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .core import (
    DEPTH_EPS,
    Extrinsics,
    IntrinsicParams,
    Mat,
    Vec,
    _compose_rotation,
    _count,
    _finite_points,
    _no_nan,
    _real,
    rotation_from_matrix,
    rotation_to_matrix,
)
from .distortion import (
    _D1,
    _N4,
    _TERMS,
    DistortionModel,
    _checked,
    _profile,
    _slots,
    coefficient_arity,
)
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
        pts = _finite_points("model_points", self.model_points)
        if not len(pts):
            raise ValueError("model_points must be an (n, 2) array")
        obs = tuple(np.asarray(o, dtype=float) for o in self.observations)
        if not obs:
            raise ValueError("dataset needs at least one view")
        for i, o in enumerate(obs):
            if o.shape != pts.shape:
                raise ValueError(
                    f"view {i} has shape {o.shape}, expected {pts.shape}"
                )
            _finite_points(f"view {i} observations", o)
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
        if not np.isfinite(H).all() or not H.any():
            raise ValueError(f"homography must be finite and nonzero, got {H.tolist()}")
        H = H / np.linalg.norm(H)
        if H[2, 2] < 0:
            H = -H
        object.__setattr__(self, "matrix", H)


@dataclass(frozen=True, slots=True)
class OptimizerOptions:
    """Termination settings for refine (defaults match the library's tests).

    step_tolerance bounds the largest accepted step relative to
    max(1, |theta_i|), a rotation's step delta_i against max(1, |w_i|) of its
    axis-angle entry, and objective_tolerance the relative fall of J over
    two consecutive accepted steps. max_function_evaluations counts residual
    evaluations: the start, each Jacobian and each trial step count one each.
    A field that is nan or not a real number (numbers.Real), an infinite
    tolerance, which would stop a fit at once as converged, and a count that
    is not an integer (operator.index) raise ValueError naming the field.
    The tolerances are stored as floats and the counts as ints. The CLI
    reads its optimizer defaults from here.
    """

    step_tolerance: float = 1e-5
    objective_tolerance: float = 1e-5
    max_iterations: int = 120
    max_function_evaluations: int = 8000

    def __post_init__(self):
        for name in [f.name for f in fields(self)]:
            value = _real(name, getattr(self, name))
            if not value > 0:
                raise ValueError(f"{name} must be positive")
            if name.endswith("tolerance"):
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite")
                object.__setattr__(self, name, value)
        for name in ("max_iterations", "max_function_evaluations"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))


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


def _lift(pts: np.ndarray) -> np.ndarray:
    """(..., P, 2) points as homogeneous (..., P, 3) rows with a last entry of 1."""
    return np.concatenate([pts, np.ones(pts.shape[:-1] + (1,))], axis=-1)


def apply_homography(H: Homography, points: Mat) -> Mat:
    """Map (n, 2) points through H and dehomogenize; ValueError unless points
    is an (n, 2) array of finite points."""
    ph = _lift(_finite_points("points", points)) @ H.matrix.T
    return ph[:, :2] / ph[:, 2:3]


def _norm(v: np.ndarray) -> np.ndarray:
    """The lengths (...) of (..., n) vectors, each the root of one dot product
    as np.linalg.norm takes it (a sum of squares may differ in the last bit)."""
    return np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0, 0]


def _isotropic_normalization(pts: np.ndarray):
    """Similarities (..., 3, 3) moving each (P, 2) set's centroid to the origin
    at mean distance sqrt(2), and the mask (...) of sets whose points all
    coincide (mean distance below 1e-12), which get a unit scale instead."""
    centroid = pts.mean(axis=-2)
    mean_dist = np.sqrt(((pts - centroid[..., None, :]) ** 2).sum(axis=-1)).mean(axis=-1)
    coincide = mean_dist < 1e-12
    s = math.sqrt(2.0) / np.where(coincide, 1.0, mean_dist)
    T = np.zeros(s.shape + (3, 3))
    T[..., 0, 0] = T[..., 1, 1] = s
    T[..., :2, 2] = -s[..., None] * centroid
    T[..., 2, 2] = 1.0
    return T, coincide


def _homographies(model_points: Mat, image_points: np.ndarray) -> tuple[Homography, ...]:
    """The normalized DLT of one (P, 2) target against a (V, P, 2) stack of views.

    The target is normalized and lifted once; the views' (V, 2P, 9) design
    matrices share one stacked SVD, and the fit residuals are taken over the
    stack. A view's residual is taken through H / ||H|| with H[2, 2] >= 0,
    the matrix a Homography holds, and the Homography built from that scales
    it once more, so both keep the bits of the per-view fits.

    Raises DegenerateConfiguration for a target of fewer than 4 points or of
    coincident points, and else for the first view in view order without a
    unique homography, that view's index set as error.view.
    """
    mp, ip = model_points, image_points
    if len(mp) < 4:
        raise DegenerateConfiguration(f"need at least 4 points, got {len(mp)}")
    Tm, coincide = _isotropic_normalization(mp)
    if coincide:
        raise DegenerateConfiguration("model points all coincide")
    Ti, coincide = _isotropic_normalization(ip)
    lifted = _lift(mp)
    mh = lifted @ Tm.T
    ih = _lift(ip) @ Ti.transpose(0, 2, 1)
    # Two DLT rows per correspondence: [0, -m, v m] and [m, 0, -u m].
    L = np.zeros((len(ip), 2 * len(mp), 9))
    L[:, 0::2, 3:6] = -mh
    L[:, 0::2, 6:9] = ih[..., 1:2] * mh
    L[:, 1::2, 0:3] = mh
    L[:, 1::2, 6:9] = -ih[..., 0:1] * mh
    # The thin SVD: the 2n x 2n left factor is never used.
    _, s, Vt = np.linalg.svd(L, full_matrices=False)
    # A unique solution needs rank 8: one vanishing direction, not two.
    failed = coincide | (s[:, 7] < 1e-10 * s[:, 0])
    if failed.any():
        i = int(failed.argmax())
        reason = "all points coincide" if coincide[i] else (
            "correspondences underdetermine the homography (collinear points?)"
        )
        error = DegenerateConfiguration(reason)
        error.view = i
        raise error
    H = np.linalg.inv(Ti) @ Vt[:, -1].reshape(-1, 3, 3) @ Tm
    H = H / _norm(H.reshape(-1, 9))[:, None, None]
    H = np.where(H[:, 2:, 2:] < 0, -H, H)
    ph = lifted @ H.transpose(0, 2, 1)
    err = np.max(np.linalg.norm(ph[..., :2] / ph[..., 2:3] - ip, axis=-1), axis=-1)
    return tuple(Homography(matrix=h, residual=e) for h, e in zip(H, err.tolist()))


def estimate_homography(model_points: Mat, image_points: Mat) -> Homography:
    """Normalized direct linear transform from >= 4 correspondences.

    Raises ValueError for a non-finite point and DegenerateConfiguration when
    the correspondences do not determine a unique homography (too few points,
    collinear or duplicated points).
    """
    mp = _finite_points("model_points", model_points)
    ip = _finite_points("image_points", image_points)
    if mp.shape != ip.shape:
        raise ValueError("point sets must share shape (n, 2)")
    return _homographies(mp, ip[None])[0]


def _conic_rows(H: np.ndarray, i: int, j: int) -> np.ndarray:
    """Every (3, 3) homography's constraint row h_i^T B h_j on the conic b, shape (V, 6)."""
    hi, hj = H[..., i].T, H[..., j].T
    return np.stack(
        [
            hi[0] * hj[0],
            hi[0] * hj[1] + hi[1] * hj[0],
            hi[1] * hj[1],
            hi[2] * hj[0] + hi[0] * hj[2],
            hi[2] * hj[1] + hi[1] * hj[2],
            hi[2] * hj[2],
        ],
        axis=-1,
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
    Hs = np.stack(Hs)
    V = np.empty((2 * len(Hs), 6))
    V[0::2] = _conic_rows(Hs, 0, 1)
    V[1::2] = _conic_rows(Hs, 0, 0) - _conic_rows(Hs, 1, 1)
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


def _poses(A: IntrinsicParams, H: np.ndarray) -> tuple[Extrinsics, ...]:
    """estimate_extrinsics over a (V, 3, 3) stack of homography matrices.

    Each cross product is one np.cross over the stack. Raises the one-view
    call's error for the first view in view order that has no pose, that
    view's index set as error.view.
    """
    # h[v, i] is column i of A^-1 H_v, one matrix-vector product each.
    h = (A.matrix_inv @ H.transpose(0, 2, 1)[..., None])[..., 0]
    h1, h2, h3 = h[:, 0], h[:, 1], h[:, 2]
    n1, n2 = _norm(h1), _norm(h2)
    degenerate = _norm(np.cross(h1, h2)) <= 1e-12 * n1 * n2
    scale = 1.0 / np.where(degenerate, 1.0, n1)[:, None]
    r1, r2, t = scale * h1, scale * h2, scale * h3
    behind = np.abs(t[:, 2]) < DEPTH_EPS
    failed = degenerate | behind
    if failed.any():
        i = int(failed.argmax())
        if degenerate[i]:
            error = DegenerateConfiguration(f"no pose explains homography {H[i].tolist()}")
        else:
            error = BehindCamera("target plane passes through the camera center")
        error.view = i
        raise error
    flip = t[:, 2:] < 0
    r1, r2, t = np.where(flip, -r1, r1), np.where(flip, -r2, r2), np.where(flip, -t, t)
    Q = np.stack([r1, r2, np.cross(r1, r2)], axis=-1)
    U, _, Vt = np.linalg.svd(Q)
    R = U @ Vt
    reflected = np.linalg.det(R) < 0
    if reflected.any():
        R[reflected] = U[reflected] @ np.diag([1.0, 1.0, -1.0]) @ Vt[reflected]
    return tuple(
        Extrinsics(rotation=rotation_from_matrix(Rv), translation=tv) for Rv, tv in zip(R, t)
    )


def estimate_extrinsics(A: IntrinsicParams, H: Homography) -> Extrinsics:
    """Decompose A^-1 H into a rotation and translation.

    The two leading columns of A^-1 H are the first two rotation columns up
    to a common scale; the third rotation column is their cross product and
    the result is snapped to the nearest orthonormal matrix. The overall
    sign is chosen so the plane origin sits at positive depth.

    Raises DegenerateConfiguration when no rotation explains H, those columns
    being parallel or zero (|h1 x h2| <= 1e-12 |h1| |h2|), and BehindCamera
    when the depth sign cannot be fixed (plane through the projection center).
    """
    return _poses(A, H.matrix[None])[0]


# ---------------------------------------------------------------------------
# The batch row and the projection kernel.
# ---------------------------------------------------------------------------


def _row(A: IntrinsicParams, model: DistortionModel, extrinsics) -> np.ndarray:
    """The batch row of (A, model, extrinsics), the one layout of a fit's
    parameters: [alpha, gamma, u0, beta, v0, n1, n2, n4, d1, d2, w_1, t_1,
    ..., w_N, t_N], the intrinsics in as_tuple's order, the five slots of
    distortion._slots with 0 in an absent one, then view v's axis-angle
    rotation w_v and translation t_v from entry 10 + 6v. Every model shares
    it, so the rows of several fits stack along a model axis."""
    parts = [*A.as_tuple(), *(0.0 if k is None else k for k in model._slots)]
    for e in extrinsics:
        parts += e.rotation.tolist() + e.translation.tolist()
    return np.array(parts)


def _row_index(model_id: int, n_views: int) -> np.ndarray:
    """Where a fit's entries sit in its batch row, in its Jacobian's column
    order: the intrinsics, the coefficients' slots and the poses."""
    return np.concatenate(
        [np.arange(5), np.add(5, _TERMS[model_id]), np.arange(10, 10 + 6 * n_views)]
    )


def _unpack(row: np.ndarray, model_id: int):
    """The inverse of _row: (intrinsics, model, extrinsics) of a batch row,
    with pose vectors that are copies, so no result aliases the row."""
    poses = row[10:].reshape(-1, 6)
    return (
        IntrinsicParams.from_tuple(row[:5]),
        DistortionModel(model_id=model_id, coefficients=tuple(row[np.add(5, _TERMS[model_id])])),
        tuple(Extrinsics(rotation=p[:3].copy(), translation=p[3:].copy()) for p in poses),
    )


def _per_fit(rows: np.ndarray, n_views: int):
    """The ten global entries of M batch rows, each as values that broadcast
    over the fits' stacked (M V, P) view rows: the row's own numbers in a
    batch of one, else (M V, 1) columns, a fit's value repeated per view
    (a number and its (1, 1) array give the same bits; the array costs a
    broadcast)."""
    if len(rows) == 1:
        return rows[0, :10]
    return np.repeat(rows[:, :10], n_views, axis=0).T[:, :, None]


def _target(pts3: Mat):
    """(P, 3) world points as the contiguous coordinate rows X, Y, Z that
    _frame takes, Z None when every point lies on the plane Z = 0."""
    X, Y, Z = np.array(pts3, dtype=float).T.copy()
    return X, Y, (Z if Z.any() else None)


def _frame(models, rows: np.ndarray, target):
    """The forward pass of M fits over a target of P points (see _target):
    P^c (M V, 3, P), then x, y, r, f (M V, P) and the pixels (M V, P, 2).

    models holds the fits' model ids and rows their (M, 10 + 6V) batch rows
    (see _row); fit i's views are rows i V to (i + 1) V - 1 of each
    part, so a batch of one gives its (V, ...) arrays. P^c = R P + t,
    column j of R times coordinate j (a planar target skips the third),
    (x, y) = (X, Y) / Z, r = hypot(x, y), f(r) from the row's slots and the
    pixel A f (x, y): all nan below DEPTH_EPS, and f and the pixel at a
    vanishing profile denominator. _lock_step hands an accepted trial's
    frame on to _jacobian.

    Every step is elementwise, so a fit's slice holds the bits of its M = 1
    call: a slot no fit uses is skipped, as _profile skips an absent one,
    and an absent slot's 0 term adds nothing, except where r * r overflows
    and 0 r^2 reads nan; f is then taken fit by fit from its own slots.
    """
    pose = rows[:, 10:].reshape(-1, 6)
    n_views = len(pose) // len(rows)
    alpha, gamma, u0, beta, v0, *slots = _per_fit(rows, n_views)
    R = rotation_to_matrix(pose[:, :3])
    X, Y, Z = target
    Pc = R[..., 0, None] * X + R[..., 1, None] * Y + pose[:, 3:, None]
    if Z is not None:
        Pc += R[..., 2, None] * Z
    z = Pc[:, 2]
    low = z < DEPTH_EPS
    if low.any():
        z = np.where(low, np.nan, z)
    x = Pc[:, 0] / z
    y = Pc[:, 1] / z
    r = np.hypot(x, y)
    terms = {_TERMS[m] for m in models}
    used = set().union(*terms)
    f = _profile([k if s in used else None for s, k in enumerate(slots)], r)
    if len(terms) > 1 and (r > 1e154).any():
        per_fit = r.reshape(len(rows), n_views, -1)
        f = np.concatenate([_profile(_slots(m, row[np.add(5, _TERMS[m])]), rm)
                            for m, row, rm in zip(models, rows, per_fit)])
    xd = x * f
    yd = y * f
    pixels = np.empty(x.shape + (2,))
    np.add(alpha * xd + gamma * yd, u0, out=pixels[..., 0])
    np.add(beta * yd, v0, out=pixels[..., 1])
    return Pc, x, y, r, f, pixels


def _frame_of(A: IntrinsicParams, model: DistortionModel, extrinsics, pts3: Mat):
    """The _frame of one fit over (P, 3) world points, a batch of one."""
    return _frame((model.model_id,), _row(A, model, extrinsics)[None], _target(pts3))


def _check(model_id: int, frame) -> None:
    """NonPositiveDepth for a frame's first point below DEPTH_EPS, else
    SingularProfile for its first nan f; points are taken in view order."""
    Pc, _, _, r, f, _ = frame
    low = Pc[:, 2] < DEPTH_EPS
    if low.any():
        v, j = np.argwhere(low)[0]
        raise NonPositiveDepth(f"point {j}: Z^c = {float(Pc[v, 2, j])!r}")
    _checked(model_id, r, f)


def _residuals(params: np.ndarray, pixels, observations) -> np.ndarray:
    """The residual kernel: predicted minus observed pixels, shape (V, P, 2).

    params is one batch row (see _row), pixels its _frame's pixels and
    observations the (V, P, 2) stack of pixel observations. A point whose
    pixel is nan has nan residuals, and so has every point when the focal
    scale alpha or beta is <= 0.
    """
    if params[0] <= 0.0 or params[3] <= 0.0:
        return np.full(observations.shape, np.nan)
    return pixels - observations


def _objective(r: np.ndarray) -> float:
    """J of the (V, P, 2) residuals: per-view sums of squares added in view order.

    A view with a nan residual reads inf, so J is inf. The fixed order makes
    J a function of the per-view sums alone, so refine's J of a result and
    compute_objective's agree bit for bit.
    """
    squares = r * r
    J = 0.0
    for term in np.add(squares[..., 0], squares[..., 1]).sum(axis=-1).tolist():
        J += term
    return math.inf if math.isnan(J) else J


def project_distorted(
    A: IntrinsicParams, ext: Extrinsics, model: DistortionModel, world_points: Mat
) -> Mat:
    """Distorted forward projection of (n, 3) world points, in pixels.

    Raises ValueError for world_points of another shape or naming the first
    point with a nan coordinate, NonPositiveDepth naming the first point
    below DEPTH_EPS or, with none, SingularProfile when a profile
    denominator vanishes.
    """
    pts3 = np.asarray(world_points, dtype=float)
    if pts3.ndim != 2 or pts3.shape[1] != 3:
        raise ValueError(f"world_points must be an (n, 3) array, got shape {pts3.shape}")
    _no_nan(pts3)
    frame = _frame_of(A, model, (ext,), pts3)
    _check(model.model_id, frame)
    return frame[5][0]


def _views(A: IntrinsicParams, extrinsics, model: DistortionModel, pts3: Mat) -> np.ndarray:
    """Distorted pixels (V, P, 2) of (P, 3) world points in every view, in one _frame.

    The first view i with a point without a pixel raises as project_distorted
    does, prefixed "view i, ".
    """
    frame = _frame_of(A, model, extrinsics, pts3)
    bad = np.isnan(frame[4]).any(axis=1)
    if bad.any():
        i = int(bad.argmax())
        try:
            _check(model.model_id, tuple(a[i : i + 1] for a in frame))
        except RadialCalError as exc:
            raise type(exc)(f"view {i}, {exc}") from None
    return frame[5]


def compute_objective(
    A: IntrinsicParams,
    extrinsics,
    model: DistortionModel,
    data: CalibrationDataset,
) -> float:
    """Sum of squared pixel distances between observations and predictions.

    The projection and objective kernels that refine uses, so J of a refined
    result recomputes to its objective bit for bit. A view with a point below
    DEPTH_EPS or a vanishing profile denominator raises NonPositiveDepth or
    SingularProfile naming the first such view (see _views).
    """
    extrinsics = tuple(extrinsics)
    if len(extrinsics) != data.n_views:
        raise ValueError(
            f"got {len(extrinsics)} extrinsics for {data.n_views} views"
        )
    pixels = _views(A, extrinsics, model, data.world_points)
    return _objective(pixels - np.stack(data.observations))


# Levenberg-Marquardt damping at the first step, and the damping past which
# refine reports line_search_failure: a step there is about 1e-16 of the
# scaled gradient step -b_i / N_ii, the relative resolution of a double.
_DAMPING_START = 1e-3
_DAMPING_LIMIT = 1e16
_EPS = float(np.finfo(float).eps)


def _jacobian(rows: np.ndarray, frame, slots, free: int) -> np.ndarray:
    """Analytic Jacobian of M fits' residuals, per fit and view.

    rows are the fits' batch rows (see _row), frame the first five parts of
    their _frame, slots the ascending slots whose coefficient columns are
    taken and free the batch's freeze setting: 0 to take the five
    intrinsics' columns before them, or 5 to leave them out. Returns J of
    shape (M V, w + 6, 2, P), w = 5 - free + len(slots), fit i's views in
    rows i V to (i + 1) V - 1 as in _frame: J[k, j, c] is the derivative of
    view row k's pixel coordinate c (u, then v) along global j < w (the
    intrinsics, then the slots' coefficients), then along that view's pose
    coordinate j - w (rotation, then translation), which no other view
    depends on. A fit takes its own columns (_columns).

    With f = N / D (0 in an absent slot, as distortion._rational holds it),
    (x_d, y_d) = f (x, y) and (u, v) = (alpha x_d + gamma y_d + u0, beta y_d
    + v0), the chain runs:

    * intrinsics: d(u, v)/d(alpha, gamma, u0, beta, v0) is (x_d, 0),
      (y_d, 0), (1, 0), (0, y_d), (0, 1);
    * coefficients, one per slot: df/dk = r^p / D for the slot of a term
      r^p of N and -f r^p / D for one of D;
    * distortion map: d(x_d, y_d)/d(x, y) = f I + f' (x, y)^T (x, y) / r
      with f' = (N' - f D') / D, which is f I at r = 0;
    * projection: (x, y) = (X / Z, Y / Z) of P^c;
    * pose: dP^c/dt = I, and the rotation is stepped in local coordinates,
      R <- exp([delta]x) R as refine takes it, so dP^c/d(delta_j) at delta
      = 0 is e_j x R P.

    At an accepted row every depth is at least DEPTH_EPS and every |D| at
    least DENOM_EPS, so r and every entry are finite, and an absent slot's
    0 term changes no bit. Every step is elementwise, so a fit's columns
    hold the bits of its M = 1 call.
    """
    pose = rows[:, 10:].reshape(-1, 6)
    alpha, gamma, u0, beta, v0, n1, n2, n4, d1, d2 = _per_fit(rows, len(pose) // len(rows))
    Pc, x, y, r, f = frame

    # D and the slopes N' and D' in r.
    r2 = r * r
    D = 1.0 + d1 * r + d2 * r2
    dN = n1 + 2.0 * n2 * r + 4.0 * n4 * (r2 * r)
    dD = d1 + 2.0 * d2 * r
    df = (dN - f * dD) / D

    # Column i's u and v derivatives go to J[:, i, 0] and J[:, i, 1], each
    # (M V, P), so that no product broadcasts along a trailing axis of 2;
    # every entry is written in place, the intrinsics' zero halves too.
    n_rows, n_points = x.shape
    m = 5 - free + len(slots)
    J = np.empty((n_rows, m + 6, 2, n_points))
    if free == 0:
        J[:, :3, 1] = 0.0
        J[:, 3:5, 0] = 0.0
        np.multiply(x, f, out=J[:, 0, 0])
        np.multiply(y, f, out=J[:, 1, 0])
        J[:, 2, 0] = 1.0
        J[:, 3, 1] = J[:, 1, 0]
        J[:, 4, 1] = 1.0
    # (alpha x + gamma y, beta y), the pixel offset from (u0, v0) per unit f,
    # times df/dk: r^p / D along a term of N, -f r^p / D along a term of D.
    # The ray goes to the first coefficient row, which is scaled last.
    ray = J[:, 5 - free]
    np.add(alpha * x, gamma * y, out=ray[:, 0])
    np.multiply(beta, y, out=ray[:, 1])
    powers = (r, r2, r2 * r2 if _N4 in slots else None, r, r2)
    for i, slot in reversed(list(enumerate(slots, start=5 - free))):
        d = powers[slot] / D if slot < _D1 else -f * powers[slot] / D
        np.multiply(ray, d[:, None], out=J[:, i])

    # d(x_d, y_d)/d(x, y), with unit (x, y) / r zero at r = 0.
    safe = r + (r == 0.0)
    ex, ey = x / safe, y / safe
    dfx = df * x
    dxx = f + dfx * ex
    dxy = dfx * ey
    dyy = f + df * y * ey
    # The pixel derivatives along x and along y, divided by Z, are those along
    # X and Y of P^c, and -(x, y) weighs them into the one along Z; dP^c/dt = I.
    inv_z = 1.0 / Pc[:, 2]
    g0, g1, g2 = J[:, m + 3], J[:, m + 4], J[:, m + 5]
    np.multiply(alpha * dxx + gamma * dxy, inv_z, out=g0[:, 0])
    np.multiply(beta * dxy, inv_z, out=g0[:, 1])
    np.multiply(alpha * dxy + gamma * dyy, inv_z, out=g1[:, 0])
    np.multiply(beta * dyy, inv_z, out=g1[:, 1])
    np.negative(x[:, None] * g0 + y[:, None] * g1, out=g2)

    # d/d(delta_j) of g . P^c is e_j . (R P x g).
    X, Y, Z = (Pc - pose[:, 3:, None])[:, :, None].transpose(1, 0, 2, 3)
    np.subtract(Y * g2, Z * g1, out=J[:, m])
    np.subtract(Z * g0, X * g2, out=J[:, m + 1])
    np.subtract(X * g1, Y * g0, out=J[:, m + 2])
    return J


def _columns(model_id: int, slots, free: int) -> list[int]:
    """A fit's columns of a _jacobian taken over slots with free, in
    _row_index's order: the intrinsics it steps, its coefficients and its pose."""
    m = 5 - free + len(slots)
    coefficients = [5 - free + slots.index(s) for s in _TERMS[model_id]]
    return [*range(5 - free), *coefficients, *range(m, m + 6)]


def _normal_equations(J: np.ndarray, r: np.ndarray):
    """J^T J and J^T r from _jacobian's (V, m + 6, 2, P) blocks and the (V, P, 2) r.

    Two batched products give every view's Gram block G_v = J_v J_v^T and
    g_v = J_v r_v. J^T J is block-arrowhead (Triggs et al. 2000, "Bundle
    adjustment - a modern synthesis"): the global block sums the G_v's m x
    m corners, and each view adds its global-pose and 6 x 6 pose blocks;
    pose blocks of different views are zero.
    """
    n_views, width = J.shape[:2]
    m = width - 6
    blocks = J.reshape(n_views, width, -1)
    G = blocks @ blocks.transpose(0, 2, 1)
    g = (blocks @ r.transpose(0, 2, 1).reshape(n_views, -1, 1))[..., 0]
    N = np.zeros((m + 6 * n_views,) * 2)
    N[:m, :m] = G[:, :m, :m].sum(axis=0)
    cross = G[:, :m, m:].transpose(1, 0, 2).reshape(m, -1)
    N[:m, m:] = cross
    N[m:, :m] = cross.T
    views = np.arange(n_views)
    N[m:, m:].reshape(n_views, 6, n_views, 6)[views, :, views, :] = G[:, m:, m:]
    return N, np.concatenate([g[:, :m].sum(axis=0), g[:, m:].ravel()])


def _fit(
    model_id: int,
    theta: np.ndarray,
    observations: np.ndarray,
    opts: OptimizerOptions,
    free: int,
):
    """refine's Levenberg-Marquardt loop for one fit, as a generator.

    theta is the fit's start, its batch row (see _row), which the fit never
    writes to, and observations the batch's (V, P, 2) stack of pixel
    observations. A step moves the row positions _row_index gives from its
    free-th on, free 0 or 5 (the intrinsics frozen). The fit yields each
    evaluation it needs and receives its result: a row for the forward pass
    there (its _frame pixels), or None for its Jacobian columns (see
    _columns) at the row last evaluated for it. Its normal equations, solve,
    damping, acceptance test, stop rules and evaluation count are its own;
    it returns its CalibrationResult. _lock_step drives the fits.
    """
    n_views = len(observations)
    stepped = _row_index(model_id, n_views)[free:]

    r = _residuals(theta, (yield theta), observations)
    J = _objective(r)
    evals = 1
    if not math.isfinite(J):
        raise ValueError("initial parameters do not give a finite objective")
    trace = [J]
    # theta's rotations as floats, the ones each trial composes its turns with
    rotations = theta[10:].reshape(n_views, 6)[:, :3].tolist()
    status = "max_iterations"
    lam, nu = _DAMPING_START, 2.0
    flat_streak = 0
    while len(trace) <= opts.max_iterations:
        if evals >= opts.max_function_evaluations:
            status = "max_function_evaluations"
            break
        N, b = _normal_equations((yield None), r)
        evals += 1
        if 2.0 * float(np.abs(b).max()) <= 1e-9 * max(1.0, J):
            status = "stationary"
            break
        # J's rounding floor: a residual p - m carries the rounding of the pixel
        # p, about eps |m|, which moves J by 2 eps |r| |m|. No smaller fall counts.
        floor = _EPS * (J + 2.0 * float(np.abs(r * observations).sum()))
        scale = np.diag(N).copy()
        scale[scale <= 0.0] = 1.0
        first_predicted = math.inf  # the first finite decrease a trial predicts
        while lam <= _DAMPING_LIMIT and evals < opts.max_function_evaluations:
            step = np.linalg.solve(N + np.diag(lam * scale), -b)
            trial = theta.copy()
            trial[stepped] += step
            turns = step[-6 * n_views :].reshape(n_views, 6)[:, :3].tolist()
            turned = list(map(_compose_rotation, turns, rotations))
            trial[10:].reshape(n_views, 6)[:, :3] = turned
            # A far trial may overflow; J then reads inf or nan and is rejected.
            # _lock_step runs the trial and sends its pixels under np.errstate
            # ignoring overflow and invalid values, so this warns nothing.
            pixels = yield trial
            predicted = float(step @ (lam * scale * step - b))
            trial_r = _residuals(trial, pixels, observations)
            point = trial, trial_r, _objective(trial_r)
            evals += 1
            if first_predicted == math.inf and math.isfinite(predicted):
                first_predicted = predicted
            if J - point[-1] > floor:
                break
            lam *= nu
            nu *= 2.0
        else:  # no trial was accepted
            if evals >= opts.max_function_evaluations:
                status = "max_function_evaluations"
            elif first_predicted < floor:
                # The first trial promised less than that floor: J is at the
                # optimum to double resolution, not stuck on a bad residual.
                status = "stationary"
            else:
                status = "line_search_failure"
            break
        rel_step = float((np.abs(step) / np.maximum(1.0, np.abs(theta[stepped]))).max())
        rel_dJ = (J - point[-1]) / max(1.0, point[-1])
        rho = min(1.0, (J - point[-1]) / predicted) if predicted > 0.0 else 1.0
        theta, r, J = point
        rotations = turned  # the floats the accepted trial stored
        lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
        nu = 2.0
        trace.append(J)
        if rel_step < opts.step_tolerance:
            status = "step_tolerance"
            break
        flat_streak = flat_streak + 1 if rel_dJ < opts.objective_tolerance else 0
        if flat_streak >= 2:
            status = "objective_tolerance"
            break

    A, model, extrinsics = _unpack(theta, model_id)
    return CalibrationResult(
        intrinsics=A,
        extrinsics=extrinsics,
        model=model,
        objective=J,
        iterations=len(trace) - 1,
        converged=status in ("stationary", "step_tolerance", "objective_tolerance"),
        status=status,
        evaluations=evals,
        objective_trace=tuple(trace),
    )


def _lock_step(
    data: CalibrationDataset, opts: OptimizerOptions | None, starts, free: int = 0
) -> list[CalibrationResult]:
    """Refine every start of starts, (model_id, batch row) pairs (see _row),
    on data as one _fit each, the fits in lock step and all with the one
    freeze setting free (see _fit).

    A fit asks for a Jacobian after its start and after each accepted
    trial, then for a trial's forward pass, so each round serves in that
    order: one _jacobian call for every fit that asks for one, from the
    frame of the previous round, where its row was evaluated; then one
    _frame call, under np.errstate ignoring overflow and invalid values as a
    trial's evaluation needs, for every fit's row, whose pixels each fit
    also takes under it. Both run over a leading model axis, and every fit
    receives its own slice at once: its columns of the Jacobian in
    _row_index's order, or its pixels. Every step is elementwise or per
    fit, so a fit takes the bits it takes alone.

    A fit leaves the batch when it returns; the results come back in
    starts' order. An error in any fit propagates.
    """
    opts = opts or OptimizerOptions()
    observations = np.stack(data.observations)
    models = [model_id for model_id, _ in starts]
    fits = [_fit(model_id, row, observations, opts, free) for model_id, row in starts]
    target = _target(data.world_points)
    V = data.n_views
    results = [None] * len(fits)
    requests = {}  # each live fit's next request: a row, or None for its Jacobian

    def send(i, reply):
        try:
            requests[i] = fits[i].send(reply)
        except StopIteration as stop:
            results[i] = stop.value
            del requests[i]

    for i in range(len(fits)):
        requests[i] = None
        send(i, None)
    evaluated = rows = frame = None  # the fits, rows and _frame of the last forward pass
    while requests:
        jacobian = [i for i, request in requests.items() if request is None]
        if jacobian:
            if jacobian != evaluated:
                at = np.array([evaluated.index(i) for i in jacobian])
                views = (V * at[:, None] + np.arange(V)).ravel()
                rows, frame = rows[at], [a[views] for a in frame[:5]]
            slots = sorted({s for i in jacobian for s in _TERMS[models[i]]})
            J = _jacobian(rows, frame[:5], slots, free)
            for j, i in enumerate(jacobian):
                if len(_TERMS[models[i]]) == len(slots):
                    columns = slice(None)  # all of them, without a copy
                else:
                    columns = _columns(models[i], slots, free)
                send(i, J[j * V : (j + 1) * V, columns])
            # No view of J outlives the round, so the next round's J can reuse
            # its memory.
            del J
        if requests:
            evaluated, rows = list(requests), np.array(list(requests.values()))
            with np.errstate(over="ignore", invalid="ignore"):
                frame = _frame([models[i] for i in evaluated], rows, target)
                for j, i in enumerate(evaluated):
                    send(i, frame[5][j * V : (j + 1) * V])
    return results


def refine(
    initial: CalibrationResult,
    data: CalibrationDataset,
    opts: OptimizerOptions | None = None,
    freeze_intrinsics: bool = False,
) -> CalibrationResult:
    """Jointly minimize the objective by Levenberg-Marquardt.

    The batch row theta (see _row) holds the 5 intrinsics, the model's
    coefficients in their slots and all 6N pose entries; a step moves the
    intrinsics, the coefficients and the poses, or, with freeze_intrinsics,
    the last two only. The residual r(theta), predicted minus observed
    pixels of shape (V, P, 2), comes from _residuals, and J = ||r||^2 from
    _objective, so compute_objective of the result recomputes its objective
    bit for bit.

    Each iteration takes the analytic Jacobian (see _jacobian) from the
    camera frame its point's residuals were computed from, forms J^T J and
    J^T r from per-view Gram blocks (_normal_equations), and solves (J^T J
    + lambda diag(J^T J)) delta = -J^T r densely. A trial is theta + delta,
    except that each view's rotation steps locally, R <- exp([delta_v]x) R,
    and is stored as that product's axis-angle w in [0, pi]
    (core._compose_rotation), the w each trial is evaluated from. A trial
    whose J falls by more than J's rounding floor eps (J + 2 sum |r| |m|), m
    the observed pixels, is accepted and lambda rescaled by the gain ratio
    (Madsen, Nielsen and Tingleff 2004, section 3.2); otherwise, also where
    J is not finite, lambda rises and the step is solved again. The residual
    at the start, each Jacobian and each trial count as one function
    evaluation.

    Termination: relative step below step_tolerance, relative objective
    improvement below objective_tolerance on two consecutive iterations, a
    numerically zero gradient or no accepted trial where the iteration's
    first finite predicted decrease is below that floor (both stationary:
    J is at the optimum to double resolution), or the iteration/evaluation
    caps. converged follows from that stop status alone: the caps and
    line_search_failure (no damped step lowered J by more than the floor
    before lambda passed its limit) report converged=False carrying the best
    point reached. iterations is the number of accepted steps, and the
    accepted-step objective sequence (objective_trace, one entry longer) is
    decreasing by construction.

    The loop is one fit of the lock-step batch (_fit, _lock_step) that
    compare_models runs over several models; refine runs a batch of one
    from initial's batch row, and a fit keeps its own damping and stop rule
    in either.
    """
    if len(initial.extrinsics) != data.n_views:
        raise ValueError("initial extrinsics count does not match the dataset")
    row = _row(initial.intrinsics, initial.model, initial.extrinsics)
    free = 5 if freeze_intrinsics else 0
    return _lock_step(data, opts, [(initial.model.model_id, row)], free)[0]


def _start(
    data: CalibrationDataset, model_id: int, A: IntrinsicParams | None = None
) -> CalibrationResult:
    """A refinement start for model_id with k = 0 and its objective J0.

    One homography per view gives the poses under A, and without A, the
    intrinsics come from the homographies first. The DLT and the pose
    decomposition each run once over all views. An error they mark with a
    view (error.view, the first failing view i) is raised again prefixed
    "view i, "; a failure of the target or of the conic solve names no view.
    """
    try:
        homographies = _homographies(data.model_points, np.stack(data.observations))
        if A is None:
            A = estimate_intrinsics_linear(homographies)
        extrinsics = _poses(A, np.stack([H.matrix for H in homographies]))
    except RadialCalError as error:
        if not hasattr(error, "view"):
            raise
        raise type(error)(f"view {error.view}, {error}") from None
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
    The models are refined in lock step as one batch (_lock_step) from the
    start's one batch row: each fit keeps its own damping and stop rule and
    leaves the batch when it stops, so a row holds the bits of calibrate on
    that model. An error in any fit propagates, as from calibrate. An empty
    model_ids raises ValueError, and an id that is not an integer in 0..9
    UnknownModel, as in calibrate.
    """
    model_ids = list(model_ids)
    for m in model_ids:
        coefficient_arity(m)  # UnknownModel unless m is an integer in 0..9
    model_ids = sorted(set(map(operator.index, model_ids)))
    if not model_ids:
        raise ValueError("compare_models needs at least one model id")
    base = linear_initialize(data, model_ids[0])
    # With k = 0 every slot holds 0.0, so this row is every model's start.
    row = _row(base.intrinsics, base.model, base.extrinsics)
    results = dict(zip(model_ids, _lock_step(data, opts, [(m, row) for m in model_ids])))
    order = sorted(model_ids, key=lambda m: (results[m].objective, m))
    ranks = {mid: rank for rank, mid in enumerate(order)}
    rows = tuple(_fit_row(results[mid], ranks[mid]) for mid in model_ids)
    return ModelFitReport(rows=rows)
