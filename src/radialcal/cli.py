"""Command-line surface.

Subcommands: calibrate, compare, fit-distortion, undistort-points, synth,
roundtrip-check. Reports go to standard output as complete TSV tables;
diagnostics go to the error stream. Exit status 0 on success, 1 on domain
errors (unreadable data, degenerate geometry, tolerance violations), 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import json
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
from .errors import ParseError, RadialCalError
from .reference import reference_coefficients, reference_sessions
from .undistortion import undistort_normalized, undistort_pixel


class _UsageError(Exception):
    pass


def _parse_model_ids(text: str) -> list[int]:
    """Parse "0-9", "0,3,8", or a mix like "0-3,7" into sorted model ids."""
    ids: set[int] = set()
    for token in text.split(","):
        token = token.strip()
        try:
            if "-" in token[1:]:
                lo, _, hi = token.partition("-")
                lo_i, hi_i = int(lo), int(hi)
                if lo_i > hi_i:
                    raise ValueError
                ids.update(range(lo_i, hi_i + 1))
            else:
                ids.add(int(token))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad model list {text!r}; use forms like '0-9' or '0,3,8'"
            ) from None
    unknown = sorted(i for i in ids if i not in MODEL_IDS)
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown model ids: {unknown}")
    return sorted(ids)


def _parse_coeff_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad coefficient list {text!r}; use comma-separated numbers"
        ) from None


def _opts(args: argparse.Namespace) -> OptimizerOptions:
    try:
        return OptimizerOptions(
            step_tolerance=args.tol_x,
            objective_tolerance=args.tol_fun,
            max_iterations=args.max_iter,
            max_function_evaluations=args.max_fevals,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _make_model(model_id: int, coefficients: tuple[float, ...]) -> DistortionModel:
    try:
        return DistortionModel(model_id=model_id, coefficients=coefficients)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _single_row_report(result: CalibrationResult) -> str:
    return render_report(ModelFitReport(rows=(_fit_row(result, 0),)))


def _cmd_calibrate(args: argparse.Namespace) -> int:
    data = load_dataset(args.data)
    result = calibrate(data, args.model, _opts(args))
    sys.stdout.write(_single_row_report(result))
    if not result.converged:
        print(f"warning: did not converge ({result.status})", file=sys.stderr)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    data = load_dataset(args.data)
    report = compare_models(data, args.models, _opts(args))
    sys.stdout.write(render_report(report))
    return 0


def _cmd_fit_distortion(args: argparse.Namespace) -> int:
    data = load_dataset(args.data)
    A = load_intrinsics(args.intrinsics)
    result = fit_distortion(data, A, args.model, _opts(args))
    sys.stdout.write(_single_row_report(result))
    if not result.converged:
        print(f"warning: did not converge ({result.status})", file=sys.stderr)
    return 0


def _cmd_undistort_points(args: argparse.Namespace) -> int:
    A = load_intrinsics(args.intrinsics)
    model = _make_model(args.model, args.coeffs)
    points = []
    for lineno, raw in enumerate(sys.stdin, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 2:
            raise ParseError("<stdin>", lineno, f"expected 2 values, got {len(parts)}")
        try:
            points.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ParseError("<stdin>", lineno, "not a decimal number") from None
    # Every line parses before any point is inverted, in one array call.
    undistorted = undistort_pixel(A, model, np.array(points).reshape(-1, 2))
    sys.stdout.write("".join(map("{!r} {!r}\n".format, *undistorted.T.tolist())))
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
    if args.intrinsics:
        A = load_intrinsics(args.intrinsics)
    else:
        A = IntrinsicParams(alpha=800.0, gamma=0.0, u0=320.0, beta=800.0, v0=240.0)
    coeffs = args.coeffs
    if coeffs is None:
        coeffs = (0.0,) * coefficient_arity(args.model)
    model = _make_model(args.model, coeffs)
    try:
        spec = SynthSpec(
            intrinsics=A,
            extrinsics=_default_poses(args.views),
            model=model,
            sigma=args.sigma,
            seed=args.seed,
            model_points=planar_grid(args.grid, args.grid, args.spacing),
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
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


def build_parser() -> argparse.ArgumentParser:
    opt = argparse.ArgumentParser(add_help=False)
    group = opt.add_argument_group("optimizer options")
    group.add_argument("--tol-x", type=float, default=1e-5, metavar="T",
                       help="relative step tolerance (default 1e-5)")
    group.add_argument("--tol-fun", type=float, default=1e-5, metavar="T",
                       help="relative objective tolerance (default 1e-5)")
    group.add_argument("--max-iter", type=int, default=120, metavar="N",
                       help="iteration cap (default 120)")
    group.add_argument("--max-fevals", type=int, default=8000, metavar="N",
                       help="residual evaluation cap, a Jacobian counting as one "
                            "(default 8000)")

    parser = argparse.ArgumentParser(
        prog="radialcal",
        description="Plane-based camera calibration with analytically "
        "invertible radial distortion models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", parents=[opt],
                       help="fit one model to a dataset directory")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--model", type=int, required=True, choices=sorted(MODEL_IDS))
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("compare", parents=[opt],
                       help="fit several models and rank them by objective")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--models", type=_parse_model_ids, default="0-9",
                   help="model ids, e.g. '0-9' or '0,3,8' (default 0-9)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("fit-distortion", parents=[opt],
                       help="fit coefficients and poses under fixed intrinsics")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--model", type=int, required=True, choices=sorted(MODEL_IDS))
    p.add_argument("--intrinsics", required=True,
                   help="file with one 'alpha gamma u0 beta v0' line")
    p.set_defaults(func=_cmd_fit_distortion)

    p = sub.add_parser("undistort-points",
                       help="undistort 'u v' pixel pairs from standard input")
    p.add_argument("--model", type=int, required=True, choices=sorted(MODEL_IDS))
    p.add_argument("--coeffs", type=_parse_coeff_list, required=True,
                   help="comma-separated coefficients, e.g. '-0.0215,-0.1566'")
    p.add_argument("--intrinsics", required=True,
                   help="file with one 'alpha gamma u0 beta v0' line")
    p.set_defaults(func=_cmd_undistort_points)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--model", type=int, required=True, choices=sorted(MODEL_IDS))
    p.add_argument("--coeffs", type=_parse_coeff_list, default=None,
                   help="comma-separated coefficients (default all zero)")
    p.add_argument("--views", type=int, default=3)
    p.add_argument("--grid", type=int, default=8, help="grid side length (default 8)")
    p.add_argument("--spacing", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=0.0, help="pixel noise sigma")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--intrinsics", default=None,
                   help="intrinsics file (default: a generic 800-focal camera)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("roundtrip-check",
                       help="verify distort/undistort inversion accuracy")
    p.add_argument("--models", type=_parse_model_ids, default="1-9")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--radius", type=float, default=0.5)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_roundtrip_check)

    return parser


def _attach_coeffs(argv: list[str]) -> list[str]:
    """Rewrite "--coeffs -0.1,-0.2" as "--coeffs=-0.1,-0.2".

    argparse takes a separate value starting with '-' for an option unless
    it reads as one negative number, which a comma-separated list does not.
    Abbreviations of --coeffs ("--coef") are rewritten the same way and left
    to argparse to resolve.
    """
    out: list[str] = []
    for tok in argv:
        negative = len(tok) > 1 and tok[0] == "-" and tok[1] in "0123456789."
        prev = out[-1] if out else ""
        if negative and len(prev) > 2 and "--coeffs".startswith(prev):
            out[-1] = f"--coeffs={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_coeffs(sys.argv[1:] if argv is None else list(argv)))
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
