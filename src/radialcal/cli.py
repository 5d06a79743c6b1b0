"""Command-line surface.

Subcommands: calibrate, compare, fit-distortion, undistort-points, synth,
roundtrip-check. Reports go to standard output as complete TSV tables;
diagnostics go to the error stream. Exit status is 0 on success. A bad option
value is a usage error, exit 2: a value that argparse's own type rejects
prints argparse's error, and one that a library type (or roundtrip-check's
range check) rejects prints "usage error: <its message>". A domain error (a
bad data or camera file, degenerate geometry, a tolerance violation) prints
"error: <its message>" and exits 1. main parses with one parser built once
per process, so an in-process caller pays for the argparse tree only on its
first call. A token that starts with '-' and then a digit, '.' and a digit,
"inf" or "nan" is the value of the option before it; the optimizer options
default to OptimizerOptions'. Every subcommand builds its library objects
from the option values before it reads a file, so a bad option value is a
usage error whatever the files hold.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys
from pathlib import Path

import numpy as np

from .calibration import (
    CalibrationResult,
    ModelFitReport,
    OptimizerOptions,
    _fit_row,
    calibrate,
    compare_models,
    fit_distortion,
)
from .core import Extrinsics, IntrinsicParams
from .dataio import (
    SynthSpec,
    _parse_rows,
    generate_synthetic,
    load_dataset,
    load_intrinsics,
    planar_grid,
    render_report,
    truth_record,
    write_dataset,
)
from .distortion import (
    MODEL_IDS,
    DistortionModel,
    coefficient_arity,
    distort_normalized,
)
from .errors import RadialCalError
from .reference import reference_coefficients, reference_sessions
from .undistortion import undistort_normalized, undistort_pixel


class _UsageError(Exception):
    pass


def _parse_model_ids(text: str) -> list[int]:
    """Parse "0-9", "0,3,8", or a mix like "0-3,7" into sorted model ids."""
    ids: set[int] = set()
    for token in text.split(","):
        token = token.strip()
        lo, _, hi = token.partition("-") if "-" in token[1:] else (token, "", token)
        try:
            lo_i, hi_i = int(lo), int(hi)
            if lo_i > hi_i:
                raise ValueError
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad model list {text!r}; use forms like '0-9' or '0,3,8'"
            ) from None
        # The ends are checked before the range expands: it may span billions.
        if lo_i not in MODEL_IDS or hi_i not in MODEL_IDS:
            raise argparse.ArgumentTypeError(f"unknown model ids in {token!r}")
        ids.update(range(lo_i, hi_i + 1))
    return sorted(ids)


def _parse_seed(text: str) -> int:
    """A --seed value: numpy's generators take only non-negative integers."""
    try:
        seed = int(text)
        if seed < 0:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad seed {text!r}; use a non-negative integer"
        ) from None
    return seed


def _parse_coeff_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad coefficient list {text!r}; use comma-separated numbers"
        ) from None


def _usage(make, *args, **kwargs):
    """make(*args, **kwargs), a library object built from option values: a
    value it rejects with a ValueError is a usage error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _opts(args: argparse.Namespace) -> OptimizerOptions:
    return _usage(
        OptimizerOptions,
        step_tolerance=args.tol_x,
        objective_tolerance=args.tol_fun,
        max_iterations=args.max_iter,
        max_function_evaluations=args.max_fevals,
    )


def _single_row_report(result: CalibrationResult) -> int:
    """Write one fit's report row, warn if it did not converge, and return 0."""
    sys.stdout.write(render_report(ModelFitReport(rows=(_fit_row(result, 0),))))
    if not result.converged:
        print(f"warning: did not converge ({result.status})", file=sys.stderr)
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    opts = _opts(args)
    return _single_row_report(calibrate(load_dataset(args.data), args.model, opts))


def _cmd_compare(args: argparse.Namespace) -> int:
    opts = _opts(args)
    report = compare_models(load_dataset(args.data), args.models, opts)
    sys.stdout.write(render_report(report))
    return 0


def _cmd_fit_distortion(args: argparse.Namespace) -> int:
    opts = _opts(args)
    data = load_dataset(args.data)
    A = load_intrinsics(args.intrinsics)
    return _single_row_report(fit_distortion(data, A, args.model, opts))


def _cmd_undistort_points(args: argparse.Namespace) -> int:
    model = _usage(DistortionModel, model_id=args.model, coefficients=args.coeffs)
    A = load_intrinsics(args.intrinsics)
    # Every line parses before any point is inverted, in one array call.
    undistorted = undistort_pixel(A, model, _parse_rows(sys.stdin, 2, "<stdin>"))
    sys.stdout.write(("%r %r\n" * len(undistorted)) % tuple(undistorted.ravel().tolist()))
    return 0


# Canned camera poses for the generator: modest tilts, target comfortably in
# front of the camera for unit grid spacing. Cycled (with a depth bump) when
# more views are requested than the bank holds.
_POSE_BANK = (
    ((0.25, -0.2, 0.1), (0.3, -0.2, 14.0)),
    ((-0.3, 0.25, -0.15), (-0.4, 0.3, 13.0)),
    ((0.15, 0.35, 0.2), (0.2, 0.4, 15.0)),
    ((-0.2, -0.3, 0.05), (-0.2, -0.3, 13.5)),
    ((0.4, 0.1, -0.25), (0.1, 0.2, 14.5)),
)


def _default_poses(n: int) -> tuple[Extrinsics, ...]:
    poses = []
    for i in range(n):
        w, t = _POSE_BANK[i % len(_POSE_BANK)]
        bump = 0.7 * (i // len(_POSE_BANK))
        poses.append(
            Extrinsics(rotation=np.array(w), translation=np.array(t) + [0, 0, bump])
        )
    return tuple(poses)


def _cmd_synth(args: argparse.Namespace) -> int:
    coeffs = args.coeffs
    if coeffs is None:
        coeffs = (0.0,) * coefficient_arity(args.model)
    spec = _usage(
        SynthSpec,
        intrinsics=IntrinsicParams(alpha=800.0, gamma=0.0, u0=320.0, beta=800.0, v0=240.0),
        extrinsics=_default_poses(args.views),
        model=_usage(DistortionModel, model_id=args.model, coefficients=coeffs),
        sigma=args.sigma,
        seed=args.seed,
        model_points=_usage(planar_grid, args.grid, args.grid, args.spacing),
    )
    if args.intrinsics:
        spec = dataclasses.replace(spec, intrinsics=load_intrinsics(args.intrinsics))
    dataset, resolved = generate_synthetic(spec)
    out = Path(args.out)
    write_dataset(out, dataset)
    (out / "truth.json").write_text(
        json.dumps(truth_record(resolved), indent=2) + "\n", encoding="utf-8"
    )
    print(
        f"wrote {dataset.n_views} views of {dataset.n_points} points to {out}",
        file=sys.stderr,
    )
    return 0


def _cmd_roundtrip_check(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise _UsageError(f"--samples must be at least 1, got {args.samples}")
    if not 0.0 < args.radius < np.inf:
        raise _UsageError(f"--radius must be finite and positive, got {args.radius}")
    if not 0.0 <= args.tol < np.inf:
        raise _UsageError(f"--tol must be finite and nonnegative, got {args.tol}")
    rng = np.random.default_rng(args.seed)
    lines = ["model\tmax_error"]
    failed = False
    for mid in args.models:
        worst = 0.0
        for session in reference_sessions():
            k = reference_coefficients(session, mid)
            model = DistortionModel(model_id=mid, coefficients=k)
            theta = rng.uniform(0.0, 2.0 * np.pi, args.samples)
            r = args.radius * np.sqrt(rng.uniform(0.0, 1.0, args.samples))
            pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
            q = undistort_normalized(model, distort_normalized(model, pts))
            worst = max(worst, float(np.max(np.abs(q - pts), initial=0.0)))
        lines.append(f"{mid}\t{worst:.3e}")
        if worst > args.tol:
            failed = True
    sys.stdout.write("".join(line + "\n" for line in lines))
    if failed:
        print(f"error: round-trip error above {args.tol:g}", file=sys.stderr)
        return 1
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose negative-number rule, argparse's own test of
    which tokens after an option are values, also takes exponents, inf, nan
    and comma lists: "-1e-9", "-.5", "-inf", "-0.1,-0.2". Subparsers inherit
    the class; no option string matches the rule, as all but -h start "--".
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    defaults = OptimizerOptions()
    fitting = argparse.ArgumentParser(add_help=False)
    group = fitting.add_argument_group("optimizer options")
    group.add_argument("--tol-x", type=float, default=defaults.step_tolerance, metavar="T",
                       help="relative step tolerance (default %(default)g)")
    group.add_argument("--tol-fun", type=float, default=defaults.objective_tolerance,
                       metavar="T", help="relative objective tolerance (default %(default)g)")
    group.add_argument("--max-iter", type=int, default=defaults.max_iterations, metavar="N",
                       help="iteration cap (default %(default)d)")
    group.add_argument("--max-fevals", type=int, default=defaults.max_function_evaluations,
                       metavar="N", help="residual evaluation cap, a Jacobian counting as "
                       "one (default %(default)d)")
    fitting.add_argument("--data", required=True, help="dataset directory")
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", type=int, required=True, choices=sorted(MODEL_IDS))
    camera = argparse.ArgumentParser(add_help=False)
    camera.add_argument("--intrinsics", required=True,
                        help="file with one 'alpha gamma u0 beta v0' line")

    parser = _Parser(
        prog="radialcal",
        description="Plane-based camera calibration with analytically "
        "invertible radial distortion models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", parents=[fitting, model],
                       help="fit one model to a dataset directory")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("compare", parents=[fitting],
                       help="fit several models and rank them by objective")
    p.add_argument("--models", type=_parse_model_ids, default="0-9",
                   help="model ids, e.g. '0-9' or '0,3,8' (default 0-9)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("fit-distortion", parents=[fitting, model, camera],
                       help="fit coefficients and poses under fixed intrinsics")
    p.set_defaults(func=_cmd_fit_distortion)

    p = sub.add_parser("undistort-points", parents=[model, camera],
                       help="undistort 'u v' pixel pairs from standard input")
    p.add_argument("--coeffs", type=_parse_coeff_list, required=True,
                   help="comma-separated coefficients, e.g. '-0.0215,-0.1566'")
    p.set_defaults(func=_cmd_undistort_points)

    p = sub.add_parser("synth", parents=[model],
                       help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--coeffs", type=_parse_coeff_list, default=None,
                   help="comma-separated coefficients (default all zero)")
    p.add_argument("--views", type=int, default=3)
    p.add_argument("--grid", type=int, default=8, help="grid side length (default 8)")
    p.add_argument("--spacing", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=0.0, help="pixel noise sigma")
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--intrinsics", default=None,
                   help="intrinsics file (default: a generic 800-focal camera)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("roundtrip-check",
                       help="verify distort/undistort inversion accuracy")
    p.add_argument("--models", type=_parse_model_ids, default="1-9")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--radius", type=float, default=0.5)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.set_defaults(func=_cmd_roundtrip_check)

    return parser


# One parser serves every main call; build_parser still returns a new one.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (RadialCalError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
