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


def residuals(model_id, params, pts3, observations):
    """calibration._residuals of one packed row over (P, 3) points, from the row's frame."""
    frame = calibration._frame(model_id, params, pts3)
    return calibration._residuals(params, frame, observations)


def jacobian(model_id, params, pts3, m):
    """calibration._jacobian of one packed row over (P, 3) points, from the row's frame."""
    frame = calibration._frame(model_id, params, pts3)
    return calibration._jacobian(model_id, params, frame, m)


def difference_jacobian(model_id, params, pts3, m, central=False):
    """Reference Jacobian of calibration._residuals by finite differences.

    params is one packed row (see calibration._pack) whose last m + 6V
    entries are free, as in calibration._jacobian. Returns one column per
    free entry, shape (m + 6V, V, P, 2); each is a full recompute of
    _residuals on a single row, forward or central. A step h along a
    view's rotation entry j is the local step refine takes, R(w) <- R(h e_j)
    R(w), formed here through the rotation matrices with
    rotation_to_matrix and rotation_from_matrix; every other entry steps by
    adding h.

    Column i's step moves the pixels by about eps^(1/2) (forward) or
    eps^(1/3) (central) of the largest pixel coordinate, which balances
    rounding against truncation whatever the parameter's units; a pilot
    forward difference with the step sqrt(eps) max(1, |theta_i|) sizes it.
    """
    n_views = (len(params) - 5 - rc.coefficient_arity(model_id)) // 6
    first_pose = len(params) - 6 * n_views
    zero = np.zeros((n_views, len(pts3), 2))  # residuals are then the pixels

    def rotation_entry(i):  # (start of the view's rotation, j), or None
        offset = i - first_pose
        return (i - offset % 6, offset % 6) if offset >= 0 and offset % 6 < 3 else None

    def pixels(i, h):
        row = params.copy()
        if (entry := rotation_entry(i)) is None:
            row[i] += h
        else:
            w = row[entry[0] : entry[0] + 3]
            step = np.zeros(3)
            step[entry[1]] = h
            w[:] = rc.rotation_from_matrix(rc.rotation_to_matrix(step) @ rc.rotation_to_matrix(w))
        return residuals(model_id, row, pts3, zero)

    base = pixels(0, 0.0)

    def column(i, h, central):
        if rotation_entry(i) is None:
            h = (params[i] + h) - params[i]
        if central:
            return (pixels(i, h) - pixels(i, -h)) / (2.0 * h)
        return (pixels(i, h) - base) / h

    eps = np.finfo(float).eps
    size = np.abs(base).max() * eps ** (1.0 / 3.0 if central else 0.5)
    columns = []
    for i in range(len(params) - m - 6 * n_views, len(params)):
        pilot = column(i, math.sqrt(eps) * max(1.0, abs(params[i])), False)
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


def assert_jacobian_close(model_id, params, pts3, m, central=False, bound=1e-6):
    """calibration._jacobian at params, within bound of each reference column's largest."""
    got = jacobian_columns(jacobian(model_id, params, pts3, m))
    want = difference_jacobian(model_id, params, pts3, m, central)
    assert np.isfinite(got).all()
    flat = lambda a: a.reshape(len(a), -1)
    err = np.abs(flat(got) - flat(want)).max(axis=1)
    scale = np.abs(flat(want)).max(axis=1)
    bad = np.flatnonzero(err > bound * scale)
    assert not len(bad), (model_id, bad, err[bad] / np.maximum(scale[bad], 1e-300))
