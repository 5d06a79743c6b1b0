"""Dataset files, synthetic data generation, and report rendering.

A dataset directory holds model.txt (planar target points, "X Y" per line,
world Z fixed at 0) plus image001.txt, image002.txt, ... with the matching
pixel observations "u v", index-aligned line by line. Views are ordered by
file number; write_dataset pads it to at least three digits and to as many as
the view count has. Any other image*.txt name, or two files with one number,
fails the load. Lines starting with '#' and blank lines are skipped, and one
UTF-8 byte-order mark starting a file is dropped. Values are written back at
full %.17g precision so a write/load cycle is exact.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .calibration import CalibrationDataset, ModelFitReport, _views
from .core import Extrinsics, IntrinsicParams, Mat, _count, _finite_points, _real
from .distortion import DistortionModel
from .errors import CountMismatch, ParseError

REPORT_HEADER = "model\tJ\trank\tk1\tk2\tk3\talpha\tgamma\tu0\tbeta\tv0"


def _parse_rows(lines, width: int, name: str) -> Mat:
    """The rows of width numbers in lines of point text, as an (n, width)
    array; n may be 0.

    Each line is str.split; blank lines and lines whose first field starts
    with '#' are skipped. One leading U+FEFF (a UTF-8 byte-order mark) is
    dropped from the first line; anywhere else it is not a number. Every line
    is split and every value converted by float in one pass; only when that
    fails are the lines scanned again, one by one, so that ParseError names
    name, the first bad line's number and what is wrong with it.
    """
    lines = iter(lines)
    split = [next(lines, "").removeprefix("\ufeff").split(), *map(str.split, lines)]
    # split() drops the whitespace strip() would, so the first field starts
    # with '#' exactly when the stripped line does.
    rows = [parts for parts in split if parts and parts[0][0] != "#"]
    if all(len(parts) == width for parts in rows):
        try:
            return np.array(list(map(float, chain.from_iterable(rows)))).reshape(-1, width)
        except ValueError:
            pass
    for lineno, parts in enumerate(split, start=1):
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != width:
            raise ParseError(name, lineno, f"expected {width} values, got {len(parts)}")
        try:
            list(map(float, parts))
        except ValueError:
            raise ParseError(name, lineno, "not a decimal number") from None


def _read_rows(path: Path, width: int, label: str) -> Mat:
    with open(path, encoding="utf-8") as fh:
        rows = _parse_rows(fh, width, str(path))
    if not len(rows):
        raise ParseError(str(path), 0, f"no {label} lines found")
    return rows


def load_dataset(path) -> CalibrationDataset:
    """Read model.txt plus every image*.txt from a dataset directory.

    Views are ordered by the number in imageN.txt (ASCII digits), so image2.txt
    comes before image10.txt. Any other image*.txt name, two files with one
    number (image1.txt, image001.txt) or a value that is not finite raises
    ValueError naming the files. Each file is read by _parse_rows: one split
    and convert pass, a leading byte-order mark dropped, and a ParseError
    naming the file and line of the first malformed line.
    """
    d = Path(path)
    model_file = d / "model.txt"
    if not model_file.is_file():
        raise FileNotFoundError(f"missing {model_file}")
    model_points = _read_rows(model_file, 2, "point")
    model_points = _finite_points(f"{model_file}: model_points", model_points)
    views: dict[int, Path] = {}
    for f in sorted(d.glob("image*.txt")):
        match = re.fullmatch(r"image([0-9]+)\.txt", f.name)
        if match is None:
            raise ValueError(f"{f}: not a view file name; use image<number>.txt")
        n = int(match[1])
        if n in views:
            raise ValueError(f"{views[n]} and {f} share view number {n}")
        views[n] = f
    if not views:
        raise FileNotFoundError(f"no image*.txt files in {d}")
    image_files = [views[n] for n in sorted(views)]
    observations = []
    for i, f in enumerate(image_files):
        pts = _read_rows(f, 2, "point")
        if len(pts) != len(model_points):
            raise CountMismatch(str(f), len(model_points), len(pts))
        observations.append(_finite_points(f"{f}: view {i} observations", pts))
    return CalibrationDataset(
        model_points=model_points, observations=tuple(observations)
    )


def _write_rows(path: Path, rows: Mat) -> None:
    """Write rows of numbers to path, one line each, every value as %.17g
    and separated by one space: the whole text in one format and one write."""
    rows = np.asarray(rows, dtype=float)
    line = " ".join(["%.17g"] * rows.shape[1]) + "\n"
    path.write_text(line * len(rows) % tuple(rows.ravel().tolist()), encoding="utf-8")


def write_dataset(path, data: CalibrationDataset) -> None:
    """Write a dataset directory in the model.txt / imageNNN.txt layout.

    load_dataset reads every image*.txt in the directory, so one this write
    would not overwrite would join the dataset as a view: before writing
    anything, FileExistsError names each such file. Each file is one
    formatted write of its rows, every value as %.17g.
    """
    d = Path(path)
    width = max(3, len(str(data.n_views)))
    names = [f"image{i:0{width}d}.txt" for i in range(1, data.n_views + 1)]
    stale = sorted(f.name for f in d.glob("image*.txt") if f.name not in names)
    if stale:
        raise FileExistsError(
            f"{d} holds views this dataset would not overwrite: {', '.join(stale)}"
        )
    d.mkdir(parents=True, exist_ok=True)
    _write_rows(d / "model.txt", data.model_points)
    for name, obs in zip(names, data.observations):
        _write_rows(d / name, obs)


def load_intrinsics(path) -> IntrinsicParams:
    """Read one "alpha gamma u0 beta v0" line.

    Values IntrinsicParams rejects raise ValueError naming the file.
    """
    rows = _read_rows(Path(path), 5, "intrinsics")
    if len(rows) != 1:
        raise ParseError(str(path), 0, f"expected 1 intrinsics line, got {len(rows)}")
    try:
        return IntrinsicParams.from_tuple(rows[0])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_intrinsics(path, A: IntrinsicParams) -> None:
    _write_rows(Path(path), [A.as_tuple()])


def planar_grid(rows: int = 8, cols: int = 8, spacing: float = 1.0) -> Mat:
    """Centered rows x cols target grid in world units, shape (rows*cols, 2).

    rows and cols are integers (operator.index) and spacing a real number
    (numbers.Real); any other raises ValueError naming it.
    """
    rows, cols = _count("rows", rows), _count("cols", cols)
    if rows < 1 or cols < 1 or not 0 < _real("spacing", spacing) < math.inf:
        raise ValueError("grid needs positive dimensions and a finite positive spacing")
    xs = (np.arange(cols) - (cols - 1) / 2.0) * spacing
    ys = (np.arange(rows) - (rows - 1) / 2.0) * spacing
    X, Y = np.meshgrid(xs, ys)
    return np.column_stack([X.ravel(), Y.ravel()])


@dataclass(frozen=True, slots=True)
class SynthSpec:
    """Everything that determines a synthetic dataset, including the seed.

    seed is a non-negative integer (operator.index), as numpy's generators
    take it, sigma a finite real number >= 0 (stored as a float) and
    model_points None or a finite (n, 2) array; any other value raises
    ValueError naming the field.
    """

    intrinsics: IntrinsicParams
    extrinsics: tuple[Extrinsics, ...]
    model: DistortionModel
    sigma: float = 0.0
    seed: int = 0
    model_points: Mat | None = None

    def __post_init__(self):
        object.__setattr__(self, "extrinsics", tuple(self.extrinsics))
        if not self.extrinsics:
            raise ValueError("need at least one view")
        object.__setattr__(self, "sigma", _real("sigma", self.sigma))
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and >= 0")
        object.__setattr__(self, "seed", _count("seed", self.seed))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.model_points is not None:
            pts = _finite_points("model_points", self.model_points)
            object.__setattr__(self, "model_points", pts)


def generate_synthetic(spec: SynthSpec) -> tuple[CalibrationDataset, SynthSpec]:
    """Forward-project the target through every view, optionally adding noise.

    Observations are the distorted projections of every view, projected in
    one call that names the first view with a point without a pixel, plus
    isotropic Gaussian pixel noise of the spec's sigma: one (V, P, 2) draw
    from a generator seeded with the spec's seed, the stream of V per-view
    draws (none when sigma is 0). Returns the dataset together with the
    resolved spec: identical to the input except that a None model_points is
    replaced by the default 8x8 grid actually used.
    """
    pts2 = spec.model_points if spec.model_points is not None else planar_grid()
    resolved = replace(spec, model_points=pts2)
    world = np.column_stack([pts2, np.zeros(len(pts2))])
    uv = _views(spec.intrinsics, spec.extrinsics, spec.model, world)
    if spec.sigma > 0:
        uv = uv + np.random.default_rng(spec.seed).normal(0.0, spec.sigma, size=uv.shape)
    dataset = CalibrationDataset(model_points=pts2, observations=tuple(uv))
    return dataset, resolved


def truth_record(spec: SynthSpec) -> dict:
    """JSON-ready ground-truth document for a resolved SynthSpec."""
    A = spec.intrinsics
    return {
        "intrinsics": {
            "alpha": A.alpha,
            "gamma": A.gamma,
            "u0": A.u0,
            "beta": A.beta,
            "v0": A.v0,
        },
        "model_id": spec.model.model_id,
        "coefficients": list(spec.model.coefficients),
        "views": [
            {"rotation": [float(v) for v in e.rotation],
             "translation": [float(v) for v in e.translation]}
            for e in spec.extrinsics
        ],
        "sigma": spec.sigma,
        "seed": spec.seed,
    }


def render_report(report: ModelFitReport) -> str:
    """TSV comparison table: one row per model, 4 decimal places throughout.

    Coefficient columns k2/k3 are left empty for models with fewer than
    two/three coefficients.
    """
    lines = [REPORT_HEADER]
    for row in report.rows:
        k = list(row.coefficients)[:3]
        k += [None] * (3 - len(k))
        cells = [
            str(row.model_id),
            f"{row.objective:.4f}",
            str(row.rank),
            *("" if v is None else f"{v:.4f}" for v in k),
            *(f"{v:.4f}" for v in row.intrinsics.as_tuple()),
        ]
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"
