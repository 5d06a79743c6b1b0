"""The benchmark's workloads.

Each workload builds its inputs from a seed (``setup``), runs one pass of
the work a user would run (``run_pass``), turns the passes of a run into
its task time and details (``summary``), and in the traced run times layer
functions directly (``micro``). Every call into the library goes through a module attribute
(``calibration.compare_models``, ``cli.main``, ...), so the tracer's
wrappers see it. ``reference`` only supplies coefficients.
"""

from __future__ import annotations

import io
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from radialcal import calibration, cli, core, dataio, distortion, reference, undistortion

clock = time.perf_counter

# Pixel tolerance of an undistorted point against the generated truth.
UNDISTORT_TOL_PX = 1e-6


class Checks:
    """Counts correctness checks; a failure is reported, never swallowed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def sample_calls(fn, argsets, n: int) -> np.ndarray:
    """Durations in seconds of n single calls, cycling through argsets."""
    out = np.empty(n)
    m = len(argsets)
    for i in range(n):
        args = argsets[i % m]
        t0 = clock()
        fn(*args)
        out[i] = clock() - t0
    return out


def median_us(fn, argsets, n: int) -> float:
    return float(np.median(sample_calls(fn, argsets, n))) * 1e6


def disk_points(rng, n: int, radius: float = 0.5) -> np.ndarray:
    """Area-uniform points in the disk of the given radius, shape (n, 2)."""
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def rms_px(objective: float, n_obs: int) -> float:
    """RMS pixel distance for a summed squared objective over n_obs points."""
    return math.sqrt(objective / n_obs)


class CalibrationWorkload:
    """Shared parts of the two workloads that fit planar calibration data.

    ``setup`` builds one or more datasets (``sets``), each written to its own
    directory; passes cycle through them. Layer timings use the first set.
    """

    name = ""

    def __init__(self):
        self.sets: list[tuple[dataio.SynthSpec, calibration.CalibrationDataset, Path]] = []
        self.last = None
        self._passes = 0

    def _build(self, specs, workdir: Path) -> None:
        self.sets = []
        for i, spec in enumerate(specs):
            data, resolved = dataio.generate_synthetic(spec)
            path = workdir / f"{self.name}-{i}"
            dataio.write_dataset(path, data)
            self.sets.append((resolved, data, path))

    def rewind(self) -> None:
        """Start the next pass from the first dataset again."""
        self._passes = 0

    def _next_set(self):
        i = self._passes % len(self.sets)
        self._passes += 1
        return i, self.sets[i]

    def sizes(self) -> dict:
        data = self.sets[0][1]
        return {"sets": len(self.sets), "views": data.n_views, "points": data.n_points}

    def _report(self) -> calibration.ModelFitReport:
        raise NotImplementedError

    def micro(self) -> dict[str, float]:
        s, data, path = self.sets[0]
        mp = data.model_points
        views = [(mp, obs) for obs in data.observations]
        hom_s = sample_calls(calibration.estimate_homography, views, 1000)
        homs = [calibration.estimate_homography(mp, obs) for obs in data.observations]
        A_lin = calibration.estimate_intrinsics_linear(homs)
        world = data.world_points
        truth = [(s.intrinsics, s.extrinsics, s.model, data)]
        r = np.hypot(*core.normalize(s.intrinsics, data.observations[0]).T)
        scratch = path.with_name(path.name + "-write")
        distort_s = sample_calls(
            distortion.distort_pixel,
            [(s.intrinsics, s.model, obs) for obs in data.observations],
            200,
        )
        return {
            "calibration.compute_objective_us": median_us(
                calibration.compute_objective, truth, 300
            ),
            "calibration.estimate_homography_us_p50": float(np.percentile(hom_s, 50)) * 1e6,
            "calibration.estimate_homography_us_p99": float(np.percentile(hom_s, 99)) * 1e6,
            "calibration.estimate_intrinsics_linear_us": median_us(
                calibration.estimate_intrinsics_linear, [(homs,)], 300
            ),
            "calibration.estimate_extrinsics_us": median_us(
                calibration.estimate_extrinsics, [(A_lin, H) for H in homs], 300
            ),
            "calibration.linear_initialize_ms": median_us(
                calibration.linear_initialize, [(data, s.model.model_id)], 20
            ) / 1e3,
            "core.rotation_to_matrix_us": median_us(
                core.rotation_to_matrix, [(e.rotation,) for e in s.extrinsics], 2000
            ),
            "core.project_ideal_us": median_us(
                core.project_ideal, [(s.intrinsics, e, world) for e in s.extrinsics], 1000
            ),
            "distortion.distort_pixel_ns_per_pt": float(np.median(distort_s))
            / data.n_points * 1e9,
            "distortion.eval_profile_us": median_us(
                distortion.eval_profile, [(s.model, float(v)) for v in r], 2000
            ),
            "dataio.load_dataset_ms": median_us(dataio.load_dataset, [(path,)], 20) / 1e3,
            "dataio.write_dataset_ms": median_us(
                dataio.write_dataset, [(scratch, data)], 20
            ) / 1e3,
            "dataio.render_report_us": median_us(
                dataio.render_report, [(self._report(),)], 300
            ),
        }


def _trend_spec(seed: int) -> dataio.SynthSpec:
    """The strongly distorted trend set of the test suite, noise from seed.

    Seed 20240817 reproduces the suite's ``trend_dataset`` exactly.
    """
    poses = (
        ((0.30, -0.20, 0.10), (0.3, -0.2, 7.0)),
        ((-0.35, 0.25, -0.15), (-0.4, 0.3, 6.5)),
        ((0.15, 0.40, 0.20), (0.2, 0.4, 7.5)),
        ((-0.20, -0.30, 0.05), (-0.2, -0.3, 7.2)),
        ((0.40, 0.10, -0.25), (0.1, 0.2, 6.8)),
    )
    return dataio.SynthSpec(
        intrinsics=core.IntrinsicParams(
            alpha=260.0, gamma=-0.3, u0=140.0, beta=255.0, v0=113.0
        ),
        extrinsics=tuple(
            core.Extrinsics(rotation=np.array(w), translation=np.array(t))
            for w, t in poses
        ),
        model=distortion.DistortionModel(model_id=0, coefficients=(-0.35, 0.163)),
        sigma=0.2,
        seed=seed,
        model_points=dataio.planar_grid(8, 8, 1.0),
    )


class CompareTrend(CalibrationWorkload):
    """load_dataset, compare_models(0-9), render_report on the trend set.

    A run uses three noise draws of the trend set (the seed itself, then
    seed + 10**6 and seed + 2 * 10**6), one per pass in turn, because the
    optimiser's work varies with the noise. ``task_s`` averages over the
    three, so one run's figure does not hinge on one draw.
    """

    name = "compare-trend"
    models = tuple(range(10))
    noise_draws = 3

    def setup(self, seed: int, workdir: Path) -> None:
        self._build([_trend_spec(seed + i * 10**6) for i in range(self.noise_draws)], workdir)

    def sizes(self) -> dict:
        return {**super().sizes(), "models": len(self.models)}

    def run_pass(self, checks: Checks) -> dict:
        i, (_, _, path) = self._next_set()
        t0 = clock()
        data = dataio.load_dataset(path)
        report = calibration.compare_models(data, self.models)
        text = dataio.render_report(report)
        dt = clock() - t0
        self.last = report
        J = {row.model_id: row.objective for row in report.rows}
        tol = calibration.OptimizerOptions().objective_tolerance
        where = f"trend set {i}"
        checks.check(len(report.rows) == 10, f"{where}: report has {len(report.rows)} rows")
        checks.check(all(math.isfinite(v) for v in J.values()), f"{where}: non-finite J {J}")
        checks.check(
            all(J[m] < J[s] for m in (7, 8, 9) for s in range(1, 7)),
            f"{where}: models 7/8/9 do not all beat models 1-6: {J}",
        )
        checks.check(J[3] <= J[1], f"{where}: J3={J[3]!r} > J1={J[1]!r}")
        checks.check(J[7] <= J[5], f"{where}: J7={J[7]!r} > J5={J[5]!r}")
        checks.check(J[8] <= J[7] + tol, f"{where}: J8={J[8]!r} > J7+{tol}")
        lines = text.splitlines()
        checks.check(
            text.startswith(dataio.REPORT_HEADER + "\n") and len(lines) == 11,
            f"{where}: rendered report has {len(lines)} lines, header {lines[:1]}",
        )
        return {
            "set": i,
            "s": dt,
            "J_sum": float(sum(J.values())),
            "unconverged": sum(not row.converged for row in report.rows),
        }

    def _report(self):
        return self.last or calibration.compare_models(self.sets[0][1], self.models)

    def summary(self, passes: list[dict]) -> tuple[float, dict]:
        per_set = {}
        for p in passes:
            per_set.setdefault(p["set"], []).append(p["s"])
        task_s = float(np.mean([np.mean(v) for v in per_set.values()]))
        first = next(p for p in passes if p["set"] == 0)
        return task_s, {
            "compare_s": (task_s, "s"),
            "compare_J_sum": (first["J_sum"], "px^2"),
            "compare_J_sum_all_sets": (
                float(np.mean([p["J_sum"] for p in passes[:self.noise_draws]])), "px^2"),
            "fits_unconverged": (first["unconverged"], "count"),
        }


def _wide_poses(rng, n: int = 10) -> tuple[core.Extrinsics, ...]:
    """Seeded poses: random tilt axes, 0.2-0.5 rad, target 15-19 units away."""
    poses = []
    for _ in range(n):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        rotation = axis * rng.uniform(0.2, 0.5)
        translation = np.array(
            [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(15.0, 19.0)]
        )
        poses.append(core.Extrinsics(rotation=rotation, translation=translation))
    return tuple(poses)


class CalibrateWide(CalibrationWorkload):
    """One calibrate with model 9 on 10 seeded poses of a 12x12 grid."""

    name = "calibrate-wide"
    model_id = 9

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        spec = dataio.SynthSpec(
            intrinsics=core.IntrinsicParams(
                alpha=830.0, gamma=0.15, u0=304.0, beta=830.5, v0=207.0
            ),
            extrinsics=_wide_poses(rng),
            model=distortion.DistortionModel(
                model_id=self.model_id, coefficients=(0.4, -0.01, 0.6)
            ),
            sigma=0.3,
            seed=seed,
            model_points=dataio.planar_grid(12, 12, 1.0),
        )
        self._build([spec], workdir)
        spec, _, path = self.sets[0]
        self.sets[0] = (spec, dataio.load_dataset(path), path)

    def sizes(self) -> dict:
        arity = distortion.coefficient_arity(self.model_id)
        views = self.sets[0][1].n_views
        return {**super().sizes(), "models": 1, "parameters": 5 + arity + 6 * views}

    def run_pass(self, checks: Checks) -> dict:
        _, (spec, data, _) = self._next_set()
        t0 = clock()
        res = calibration.calibrate(data, self.model_id)
        dt = clock() - t0
        self.last = res
        trace = np.asarray(res.objective_trace)
        checks.check(math.isfinite(res.objective), f"J = {res.objective!r}")
        checks.check(
            len(trace) > 0 and bool(np.all(np.diff(trace) <= 0.0)),
            "objective_trace increases",
        )
        checks.check(
            len(trace) > 0 and res.objective <= trace[0],
            f"J={res.objective!r} above the initial J",
        )
        A, T = res.intrinsics, spec.intrinsics
        return {
            "s": dt,
            "rms_px": rms_px(res.objective, data.n_views * data.n_points),
            "focal_rel_err": max(abs(A.alpha - T.alpha) / T.alpha,
                                 abs(A.beta - T.beta) / T.beta),
            "evaluations": res.evaluations,
        }

    def _report(self):
        res = self.last or calibration.calibrate(self.sets[0][1], self.model_id)
        row = calibration.ModelFitRow(
            model_id=res.model.model_id,
            objective=res.objective,
            rank=0,
            coefficients=res.model.coefficients,
            intrinsics=res.intrinsics,
        )
        return calibration.ModelFitReport(rows=(row,))

    def summary(self, passes: list[dict]) -> tuple[float, dict]:
        task_s = float(np.mean([p["s"] for p in passes]))
        return task_s, {
            "calibrate_s": (task_s, "s"),
            "calibrate_rms_px": (passes[0]["rms_px"], "px"),
            "calibrate_focal_rel_err": (passes[0]["focal_rel_err"], "1"),
            "calibrate_evaluations": (passes[0]["evaluations"], "count"),
        }


@dataclass
class Stream:
    """One undistort-points invocation: model, camera, input text and truth."""

    session: str
    model: distortion.DistortionModel
    A: core.IntrinsicParams
    argv: list[str]
    text: str
    observed: np.ndarray
    truth: np.ndarray


class UndistortStream:
    """The undistort-points CLI in-process, plus single undistort_pixel calls."""

    name = "undistort-stream"
    closed_points = 500  # per (session, model) for models 1-9
    numeric_points = 1500  # per session for model 0
    singles_per_stream = 100  # one-off undistort_pixel calls per pass

    def __init__(self):
        self._next_single = 0

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        d = workdir / self.name
        d.mkdir(parents=True, exist_ok=True)
        self.streams: list[Stream] = []
        for session in reference.reference_sessions():
            rows = {row.model_id: row for row in reference.reference_report(session).rows}
            for mid in range(10):
                A = rows[mid].intrinsics
                model = distortion.DistortionModel(
                    model_id=mid, coefficients=reference.reference_coefficients(session, mid)
                )
                n = self.numeric_points if mid == 0 else self.closed_points
                truth = core.denormalize(A, disk_points(rng, n))
                observed = distortion.distort_pixel(A, model, truth)
                path = d / f"{session}-{mid}.txt"
                dataio.write_intrinsics(path, A)
                coeffs = ",".join(repr(float(k)) for k in model.coefficients)
                argv = ["undistort-points", "--model", str(mid),
                        f"--coeffs={coeffs}", "--intrinsics", str(path)]
                text = "".join(f"{u!r} {v!r}\n" for u, v in observed.tolist())
                self.streams.append(Stream(session, model, A, argv, text, observed, truth))
        self.closed = [s for s in self.streams if s.model.model_id != 0]
        self.numeric = [s for s in self.streams if s.model.model_id == 0]

    def rewind(self) -> None:
        """Start the next pass's single calls from the first points again."""
        self._next_single = 0

    def sizes(self) -> dict:
        return {
            "streams": len(self.streams),
            "closed_points_per_pass": sum(len(s.truth) for s in self.closed),
            "numeric_points_per_pass": sum(len(s.truth) for s in self.numeric),
            "models": 10,
            "sessions": len(reference.reference_sessions()),
        }

    def _run_stream(self, st: Stream, checks: Checks) -> float:
        out = io.StringIO()
        saved = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = io.StringIO(st.text), out
        try:
            t0 = clock()
            code = cli.main(st.argv)
            dt = clock() - t0
        finally:
            sys.stdin, sys.stdout = saved
        label = f"undistort-points {st.session} model {st.model.model_id}"
        checks.check(code == 0, f"{label}: exit code {code}")
        got = np.array(out.getvalue().split(), dtype=float)
        ok = got.size == st.truth.size
        err = float(np.max(np.abs(got.reshape(-1, 2) - st.truth))) if ok else math.inf
        checks.check(ok and err <= UNDISTORT_TOL_PX,
                     f"{label}: {got.size // 2} points, max error {err!r} px")
        return dt

    def _singles(self, checks: Checks) -> np.ndarray:
        """One-off undistort_pixel calls, each timed, on the closed-form points."""
        n = self.singles_per_stream * len(self.closed)
        out = np.empty(n)
        worst = 0.0
        for i in range(n):
            st = self.closed[i % len(self.closed)]
            j = (self._next_single + i // len(self.closed)) % len(st.truth)
            pd = st.observed[j]
            t0 = clock()
            p = undistortion.undistort_pixel(st.A, st.model, pd)
            out[i] = clock() - t0
            worst = max(worst, float(np.max(np.abs(p - st.truth[j]))))
        self._next_single += self.singles_per_stream
        checks.check(worst <= UNDISTORT_TOL_PX, f"single undistort_pixel error {worst!r} px")
        return out

    def run_pass(self, checks: Checks) -> dict:
        closed_s = sum(self._run_stream(st, checks) for st in self.closed)
        numeric_s = sum(self._run_stream(st, checks) for st in self.numeric)
        singles = self._singles(checks)
        n_closed = sum(len(st.truth) for st in self.closed)
        n_numeric = sum(len(st.truth) for st in self.numeric)
        return {
            "s": closed_s + numeric_s + float(singles.sum()),
            "closed_pts_per_s": n_closed / closed_s,
            "numeric_pts_per_s": n_numeric / numeric_s,
            "single_us": singles * 1e6,
        }

    def summary(self, passes: list[dict]) -> tuple[float, dict]:
        task_s = float(np.mean([p["s"] for p in passes]))
        singles = np.concatenate([p["single_us"] for p in passes])
        return task_s, {
            "undistort_closed_pts_per_s": (
                float(np.mean([p["closed_pts_per_s"] for p in passes])), "1/s"),
            "undistort_numeric_pts_per_s": (
                float(np.mean([p["numeric_pts_per_s"] for p in passes])), "1/s"),
            "undistort_single_us_p50": (float(np.percentile(singles, 50)), "us"),
            "undistort_single_us_p99": (float(np.percentile(singles, 99)), "us"),
            "undistort_single_calls": (int(singles.size), "count"),
        }

    def micro(self) -> dict[str, float]:
        def normalized(streams, per_stream):
            return [(st.model, core.normalize(st.A, st.observed[j]))
                    for st in streams for j in range(per_stream)]

        closed_args = normalized(self.closed, 40)
        numeric_args = normalized(self.numeric, 200)
        lengths = np.array([len(st.truth) for st in self.streams])
        distort_s = sample_calls(
            distortion.distort_pixel, [(st.A, st.model, st.truth) for st in self.streams], 300
        )
        r = [(st.model, float(np.hypot(*core.normalize(st.A, st.truth[j]))))
             for st in self.streams for j in range(20)]
        out = {
            "undistortion.undistort_normalized_us.closed": median_us(
                undistortion.undistort_normalized, closed_args, 4000),
            "undistortion.undistort_normalized_us.numeric": median_us(
                undistortion.undistort_normalized, numeric_args, 1000),
            "undistortion.undistort_numeric_us": median_us(
                undistortion.undistort_numeric, closed_args, 1000),
            "distortion.distort_pixel_ns_per_pt": float(np.median(
                distort_s / np.resize(lengths, len(distort_s)))) * 1e9,
            "distortion.eval_profile_us": median_us(distortion.eval_profile, r, 4000),
        }
        try:
            reduce, solve = undistortion.branch_reduce, undistortion.solve_cubic_closed
            cubic, eps = undistortion.CubicProblem, undistortion.COEFF_EPS
            aux_from_slope = distortion.RadialAuxiliaries.from_slope
        except AttributeError:
            return out  # no scalar branch reduction in this version: those read 0
        branches, cubics = [], []
        for model, pd in closed_args:
            xd, yd = (pd[0], pd[1]) if abs(pd[0]) >= abs(pd[1]) else (pd[1], pd[0])
            aux = aux_from_slope(yd / xd, +1)
            branches.append((model, float(xd), aux))
            a = reduce(model, float(xd), aux)
            if len(a) == 4 and abs(a[3]) >= eps:
                cubics.append((cubic(y=-a[0] / a[1], p=a[2] / a[1], q=a[3] / a[1]),))
        out["undistortion.branch_reduce_us"] = median_us(reduce, branches, 4000)
        out["undistortion.solve_cubic_closed_us"] = median_us(solve, cubics, 4000)
        return out


WORKLOADS = {w.name: w for w in (CompareTrend, UndistortStream, CalibrateWide)}
