"""Shared builders for the test suite."""

import math

import numpy as np

import radialcal as rc
import radialcal.calibration as calibration


def camera_830() -> rc.IntrinsicParams:
    return rc.IntrinsicParams(alpha=830.0, gamma=0.15, u0=304.0, beta=830.5, v0=207.0)


def camera_small() -> rc.IntrinsicParams:
    return rc.IntrinsicParams(alpha=260.0, gamma=-0.3, u0=140.0, beta=255.0, v0=113.0)


def poses_three() -> tuple[rc.Extrinsics, ...]:
    raw = [
        ((0.25, -0.2, 0.1), (0.3, -0.2, 14.0)),
        ((-0.3, 0.25, -0.15), (-0.4, 0.3, 13.0)),
        ((0.15, 0.35, 0.2), (0.2, 0.4, 15.0)),
    ]
    return tuple(
        rc.Extrinsics(rotation=np.array(w), translation=np.array(t)) for w, t in raw
    )


def poses_upside_down() -> tuple[rc.Extrinsics, ...]:
    """Three cameras turned by exactly pi about axes tilted 0.1-0.25 rad off Z."""
    raw = [
        ((0.15, -0.1, 1.0), (0.3, -0.2, 14.0)),
        ((-0.2, 0.1, 1.0), (-0.4, 0.3, 13.0)),
        ((0.05, 0.25, 1.0), (0.2, 0.4, 15.0)),
    ]
    return tuple(
        rc.Extrinsics(rotation=math.pi / np.linalg.norm(a) * np.array(a), translation=np.array(t))
        for a, t in raw
    )


def poses_five_close() -> tuple[rc.Extrinsics, ...]:
    """Five poses with the target filling more of the frame (stronger rays)."""
    raw = [
        ((0.30, -0.20, 0.10), (0.3, -0.2, 7.0)),
        ((-0.35, 0.25, -0.15), (-0.4, 0.3, 6.5)),
        ((0.15, 0.40, 0.20), (0.2, 0.4, 7.5)),
        ((-0.20, -0.30, 0.05), (-0.2, -0.3, 7.2)),
        ((0.40, 0.10, -0.25), (0.1, 0.2, 6.8)),
    ]
    return tuple(
        rc.Extrinsics(rotation=np.array(w), translation=np.array(t)) for w, t in raw
    )


def synth_dataset(
    model_id=3,
    k=(-0.1, -0.15),
    sigma=0.0,
    seed=1,
    camera=None,
    poses=None,
    grid=8,
    spacing=1.0,
):
    spec = rc.SynthSpec(
        intrinsics=camera or camera_830(),
        extrinsics=poses or poses_three(),
        model=rc.DistortionModel(model_id=model_id, coefficients=tuple(k)),
        sigma=sigma,
        seed=seed,
        model_points=rc.planar_grid(grid, grid, spacing),
    )
    return rc.generate_synthetic(spec)


def trend_dataset():
    """The strongly distorted noisy dataset used by the ranking-trend tests."""
    data, spec = synth_dataset(
        model_id=0,
        k=(-0.35, 0.163),
        sigma=0.2,
        seed=20240817,
        camera=camera_small(),
        poses=poses_five_close(),
    )
    return data, spec


def wide_dataset(seed):
    """A 68-parameter set: model 9 on 10 seeded poses of a 12 x 12 grid.

    Poses tilt about a random axis by 0.2-0.5 rad at 15-19 units, sigma is
    0.3 px; a seed gives the benchmark's calibrate-wide set.
    """
    rng = np.random.default_rng(seed)
    poses = []
    for _ in range(10):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        rotation = axis * rng.uniform(0.2, 0.5)
        translation = np.array(
            [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(15.0, 19.0)]
        )
        poses.append(rc.Extrinsics(rotation=rotation, translation=translation))
    return synth_dataset(
        model_id=9, k=(0.4, -0.01, 0.6), sigma=0.3, seed=seed, poses=tuple(poses), grid=12
    )


def session_models():
    """Every (session, model_id>=1, DistortionModel) with fitted coefficients."""
    out = []
    for session in rc.reference_sessions():
        for mid in range(1, 10):
            k = rc.reference_coefficients(session, mid)
            out.append((session, mid, rc.DistortionModel(model_id=mid, coefficients=k)))
    return out


def disk_points(rng, n, radius=0.5):
    """Area-uniform points in the disk of the given radius, shape (n, 2)."""
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def random_intrinsics(rng) -> rc.IntrinsicParams:
    return rc.IntrinsicParams(
        alpha=rng.uniform(100.0, 1000.0),
        gamma=rng.uniform(-5.0, 5.0),
        u0=rng.uniform(100.0, 500.0),
        beta=rng.uniform(100.0, 1000.0),
        v0=rng.uniform(80.0, 400.0),
    )


def forward_pass(model_id, row, pts3):
    """calibration._frame of one batch row over (P, 3) points, as a batch of one."""
    return calibration._frame((model_id,), row[None], calibration._target(pts3))


def residuals(model_id, row, pts3, observations):
    """calibration._residuals of one batch row over (P, 3) points, from its pixels."""
    return calibration._residuals(row, forward_pass(model_id, row, pts3)[5], observations)


def jacobian(model_id, row, pts3, m):
    """calibration._jacobian of one batch row over (P, 3) points, from the row's
    frame: the (V, m + 6, 2, P) columns of its last m globals and its poses."""
    slots = list(calibration._TERMS[model_id])
    free = 5 + len(slots) - m
    return calibration._jacobian(row[None], forward_pass(model_id, row, pts3)[:5], slots, free)


def difference_jacobian(model_id, row, pts3, m, central=False):
    """Reference Jacobian of calibration._residuals by finite differences.

    row is one batch row (see calibration._row) whose last m globals and
    every pose entry are free, as in calibration._jacobian; their row
    positions come from calibration._row_index. Returns one column per free
    entry, shape (m + 6V, V, P, 2); each is a full recompute of _residuals
    on a single row, forward or central. A step h along a view's rotation
    entry j is the local step refine takes, R(w) <- R(h e_j) R(w), formed
    here through the rotation matrices with rotation_to_matrix and
    rotation_from_matrix; every other entry steps by adding h.

    Column i's step moves the pixels by about eps^(1/2) (forward) or
    eps^(1/3) (central) of the largest pixel coordinate, which balances
    rounding against truncation whatever the parameter's units; a pilot
    forward difference with the step sqrt(eps) max(1, |row_i|) sizes it.
    """
    n_views = (len(row) - 10) // 6
    index = calibration._row_index(model_id, n_views)
    zero = np.zeros((n_views, len(pts3), 2))  # residuals are then the pixels

    def rotation_entry(i):  # (start of the view's rotation, j), or None
        offset = i - 10
        return (i - offset % 6, offset % 6) if offset >= 0 and offset % 6 < 3 else None

    def pixels(i, h):
        trial = row.copy()
        if (entry := rotation_entry(i)) is None:
            trial[i] += h
        else:
            w = trial[entry[0] : entry[0] + 3]
            step = np.zeros(3)
            step[entry[1]] = h
            w[:] = rc.rotation_from_matrix(rc.rotation_to_matrix(step) @ rc.rotation_to_matrix(w))
        return residuals(model_id, trial, pts3, zero)

    base = pixels(0, 0.0)

    def column(i, h, central):
        if rotation_entry(i) is None:
            h = (row[i] + h) - row[i]
        if central:
            return (pixels(i, h) - pixels(i, -h)) / (2.0 * h)
        return (pixels(i, h) - base) / h

    eps = np.finfo(float).eps
    size = np.abs(base).max() * eps ** (1.0 / 3.0 if central else 0.5)
    columns = []
    for i in index[len(index) - m - 6 * n_views :]:
        pilot = column(i, math.sqrt(eps) * max(1.0, abs(row[i])), False)
        slope = np.abs(pilot).max()
        columns.append(column(i, size / slope, central) if slope > 0.0 else pilot)
    return np.array(columns)


def jacobian_columns(J):
    """calibration._jacobian's (V, m + 6, 2, P) blocks as difference_jacobian's columns."""
    n_views, width, _, n_points = J.shape
    m = width - 6
    columns = J.transpose(1, 0, 3, 2)  # (m + 6, V, P, 2)
    poses = np.zeros((n_views, 6, n_views, n_points, 2))
    for v in range(n_views):
        poses[v, :, v] = columns[m:, v]
    return np.concatenate([columns[:m], poses.reshape(6 * n_views, n_views, n_points, 2)])


def assert_jacobian_close(model_id, row, pts3, m, central=False, bound=1e-6):
    """calibration._jacobian at a batch row, within bound of each reference column's largest."""
    got = jacobian_columns(jacobian(model_id, row, pts3, m))
    want = difference_jacobian(model_id, row, pts3, m, central)
    assert np.isfinite(got).all()
    flat = lambda a: a.reshape(len(a), -1)
    err = np.abs(flat(got) - flat(want)).max(axis=1)
    scale = np.abs(flat(want)).max(axis=1)
    bad = np.flatnonzero(err > bound * scale)
    assert not len(bad), (model_id, bad, err[bad] / np.maximum(scale[bad], 1e-300))


def loop_homography(model_points, image_points):
    """The one-view normalized DLT written out view by view, as a reference.

    Each step is the library's arithmetic in its order, through np.linalg
    on one view, so the stacked DLT must give the same bits. Returns (H,
    residual); H is normalized twice, as the library's Homography holds it.
    """
    mp, ip = np.asarray(model_points, float), np.asarray(image_points, float)

    def normalization(pts):
        centroid = pts.mean(axis=0)
        s = math.sqrt(2.0) / float(np.sqrt(((pts - centroid) ** 2).sum(axis=1)).mean())
        return np.array([[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]])

    def unit(H):
        H = H / np.linalg.norm(H)
        return -H if H[2, 2] < 0 else H

    Tm, Ti = normalization(mp), normalization(ip)
    mh = np.column_stack([mp, np.ones(len(mp))]) @ Tm.T
    ih = np.column_stack([ip, np.ones(len(ip))]) @ Ti.T
    L = np.zeros((2 * len(mp), 9))
    L[0::2, 3:6] = -mh
    L[0::2, 6:9] = ih[:, 1:2] * mh
    L[1::2, 0:3] = mh
    L[1::2, 6:9] = -ih[:, 0:1] * mh
    H = unit(np.linalg.inv(Ti) @ np.linalg.svd(L, full_matrices=False)[2][-1].reshape(3, 3) @ Tm)
    ph = np.column_stack([mp, np.ones(len(mp))]) @ H.T
    return unit(H), float(np.max(np.linalg.norm(ph[:, :2] / ph[:, 2:3] - ip, axis=1)))


def loop_extrinsics(A, H):
    """The one-view decomposition of A^-1 H with np.cross and np.linalg, as a reference.

    Returns (R, t) for a pose that exists; the stacked decomposition must
    give the same bits.
    """
    Ainv = A.matrix_inv
    h1, h2, h3 = (Ainv @ H[:, i] for i in range(3))
    scale = 1.0 / float(np.linalg.norm(h1))
    r1, r2, t = scale * h1, scale * h2, scale * h3
    if t[2] < 0:
        r1, r2, t = -r1, -r2, -t
    U, _, Vt = np.linalg.svd(np.column_stack([r1, r2, np.cross(r1, r2)]))
    R = U @ Vt
    if np.linalg.det(R) < 0:
        R = U @ np.diag([1.0, 1.0, -1.0]) @ Vt
    return R, t
