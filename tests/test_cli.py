"""Tests of the command-line surface.

Most tests run the CLI in this process through run_cli, which calls cli.main
with stdin, stdout and stderr swapped for in-memory text streams. That spares
a new interpreter and numpy import per call, and the test run's warning
filters (such as -W error::RuntimeWarning) hold inside the CLI too. A handful
start a fresh `python -m radialcal` through run_process, where the process
boundary is what they check: stdin decoded from bytes (CRLF line ends, a
byte-order mark), stdout encoded to bytes, and consecutive in-process calls
giving what a new process gives.
"""

import io
import json
import subprocess
import sys

import numpy as np
import pytest

import radialcal as rc
from radialcal import cli

DEFAULT_CAMERA = rc.IntrinsicParams(alpha=800.0, gamma=0.0, u0=320.0, beta=800.0, v0=240.0)


def run_cli(*args, stdin=None):
    """Run cli.main(args) in this process on the text stdin, as a fresh
    process would: argparse's SystemExit becomes the return code."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, err
    try:
        code = cli.main(list(args))
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_process(*args, stdin=b""):
    """Run `python -m radialcal args` in a fresh process, bytes in and out,
    with RuntimeWarning an error."""
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "radialcal", *args],
        input=stdin,
        capture_output=True,
    )


def parse_table(text):
    lines = text.rstrip("\n").split("\n")
    assert lines[0] == rc.REPORT_HEADER
    return [line.split("\t") for line in lines[1:]]


def synth(tmp_path_factory, *args):
    """A dataset directory generated through the CLI itself."""
    out = tmp_path_factory.mktemp("data") / "set"
    res = run_cli("synth", "--out", str(out), *args)
    assert res.returncode == 0, res.stderr
    return out


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """Noise-free model-1 dataset."""
    return synth(
        tmp_path_factory, "--model", "1", "--coeffs", "-0.05", "--views", "3", "--sigma", "0"
    )


@pytest.fixture(scope="module")
def m9_dir(tmp_path_factory):
    """Model-9 dataset: five views at 0.3 px noise."""
    return synth(
        tmp_path_factory, "--model", "9", "--coeffs=0.4,-0.01,0.6", "--views", "5",
        "--sigma", "0.3", "--seed", "1",
    )


@pytest.fixture(scope="module")
def low_noise_dir(tmp_path_factory):
    """Model-3 dataset: three views at 0.01 px noise."""
    return synth(
        tmp_path_factory, "--model", "3", "--coeffs=-0.1,-0.15", "--views", "3",
        "--sigma", "0.01", "--seed", "1",
    )


class TestSynth:
    def test_writes_expected_files(self, synth_dir):
        names = sorted(p.name for p in synth_dir.iterdir())
        assert names == ["image001.txt", "image002.txt", "image003.txt", "model.txt", "truth.json"]
        truth = json.loads((synth_dir / "truth.json").read_text())
        assert truth["model_id"] == 1
        assert truth["coefficients"] == [-0.05]
        assert truth["intrinsics"]["alpha"] == 800.0
        assert len(truth["views"]) == 3

    def test_deterministic(self, synth_dir, tmp_path):
        again = tmp_path / "again"
        res = run_cli(
            "synth", "--out", str(again), "--model", "1", "--coeffs", "-0.05",
            "--views", "3", "--sigma", "0",
        )
        assert res.returncode == 0
        for name in ["model.txt", "image001.txt", "image002.txt", "image003.txt"]:
            assert (again / name).read_bytes() == (synth_dir / name).read_bytes()

    def test_dataset_loads_and_matches_truth(self, synth_dir):
        data = rc.load_dataset(synth_dir)
        assert data.n_points == 64 and data.n_views == 3
        truth = json.loads((synth_dir / "truth.json").read_text())
        ext = tuple(
            rc.Extrinsics(rotation=v["rotation"], translation=v["translation"])
            for v in truth["views"]
        )
        model = rc.DistortionModel(
            model_id=truth["model_id"], coefficients=tuple(truth["coefficients"])
        )
        J = rc.compute_objective(DEFAULT_CAMERA, ext, model, data)
        assert J < 1e-20

    @pytest.mark.parametrize(
        "coeffs, want",
        [("-0.1,-0.2", [-0.1, -0.2]), ("-1e-3,-0.2", [-1e-3, -0.2]),
         ("-.5,-1E-3", [-0.5, -0.001])],
    )
    def test_negative_coefficient_list_as_separate_value(self, coeffs, want, tmp_path):
        out = tmp_path / "d"
        res = run_cli("synth", "--out", str(out), "--model", "3", "--coeffs", coeffs)
        assert res.returncode == 0
        assert json.loads((out / "truth.json").read_text())["coefficients"] == want

    def test_fewer_views_over_a_dataset_exit_one(self, tmp_path):
        # A three-view set over a five-view one would leave image004 and
        # image005 to load as its views: nothing is written, exit 1.
        out = tmp_path / "d"
        assert run_cli("synth", "--out", str(out), "--model", "1", "--views", "5").returncode == 0
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        res = run_cli("synth", "--out", str(out), "--model", "9", "--views", "3")
        assert res.returncode == 1 and res.stdout == ""
        err = res.stderr
        assert err.startswith("error: ") and err.endswith("image004.txt, image005.txt\n")
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before

    def test_negative_sigma_is_usage_error(self, tmp_path):
        out = tmp_path / "d"
        res = run_cli("synth", "--out", str(out), "--model", "1", "--sigma", "-1e-3")
        assert res.returncode == 2
        assert res.stderr == "usage error: sigma must be finite and >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("spacing", ["nan", "inf"])
    def test_non_finite_spacing_is_usage_error(self, spacing, tmp_path):
        out = tmp_path / "d"
        res = run_cli("synth", "--out", str(out), "--model", "1", "--spacing", spacing)
        assert res.returncode == 2
        assert res.stderr == (
            "usage error: grid needs positive dimensions and a finite positive spacing\n"
        )
        assert not out.exists()

    def test_intrinsics_file_sets_the_camera(self, tmp_path):
        cam = tmp_path / "cam.txt"
        cam.write_text("700 0.5 310 710 250\n", encoding="utf-8")
        out = tmp_path / "d"
        res = run_cli("synth", "--out", str(out), "--model", "1", "--intrinsics", str(cam))
        assert res.returncode == 0, res.stderr
        truth = json.loads((out / "truth.json").read_text())
        assert truth["intrinsics"] == {
            "alpha": 700.0, "gamma": 0.5, "u0": 310.0, "beta": 710.0, "v0": 250.0
        }

    def test_nonfinite_intrinsics_file_is_domain_error(self, tmp_path):
        cam = tmp_path / "cam.txt"
        cam.write_text("700 0 nan 700 250\n", encoding="utf-8")
        out = tmp_path / "d"
        res = run_cli("synth", "--out", str(out), "--model", "1", "--intrinsics", str(cam))
        assert res.returncode == 1
        assert res.stderr.startswith(f"error: {cam}: intrinsics must be finite")
        assert not out.exists()


class TestCalibrate:
    def test_single_model_table(self, synth_dir, m9_dir, low_noise_dir):
        # Each fit converges: one row, and no warning. The low-noise fit asks
        # for tolerances below double resolution, so it runs until no damped
        # step lowers J and stops stationary.
        for data, model, options in (
            (synth_dir, "1", ()),
            (m9_dir, "9", ()),
            (low_noise_dir, "3", ("--tol-x", "1e-15", "--tol-fun", "1e-15")),
        ):
            res = run_cli("calibrate", "--data", str(data), "--model", model, *options)
            assert res.returncode == 0 and res.stderr == ""
            rows = parse_table(res.stdout)
            assert len(rows) == 1
            row = rows[0]
            assert row[0] == model and row[2] == "0"
            assert abs(float(row[6]) - 800.0) < 8.0
            if model == "1":  # noise-free: the generating coefficient
                assert float(row[1]) < 1e-3
                assert abs(float(row[3]) + 0.05) < 5e-3
                assert row[4] == "" and row[5] == ""

    def test_unconverged_fit_warns(self, m9_dir):
        # One iteration cannot reach the noisy optimum: the row still prints.
        res = run_cli("calibrate", "--data", str(m9_dir), "--model", "9", "--max-iter", "1")
        assert res.returncode == 0
        assert [row[0] for row in parse_table(res.stdout)] == ["9"]
        assert res.stderr == "warning: did not converge (max_iterations)\n"
        # compare warns once per unconverged row, in model-id order, after
        # its report; the report and the exit code are unchanged.
        res = run_cli("compare", "--data", str(m9_dir), "--models", "8,9", "--max-iter", "1")
        assert res.returncode == 0
        assert [row[0] for row in parse_table(res.stdout)] == ["8", "9"]
        assert res.stderr == (
            "warning: model 8 did not converge\nwarning: model 9 did not converge\n"
        )
        res = run_cli("compare", "--data", str(m9_dir), "--models", "8,9")
        assert res.returncode == 0 and res.stderr == ""

    def test_compare_ranks(self, synth_dir):
        res = run_cli("compare", "--data", str(synth_dir), "--models", "1,2")
        assert res.returncode == 0, res.stderr
        rows = parse_table(res.stdout)
        assert [r[0] for r in rows] == ["1", "2"]
        assert sorted(r[2] for r in rows) == ["0", "1"]
        # The generating model fits the data better.
        assert float(rows[0][1]) < float(rows[1][1])

    def test_model_range_syntax(self, synth_dir):
        res = run_cli(
            "compare", "--data", str(synth_dir), "--models", "1-3",
            "--max-iter", "4", "--tol-x", "1e-12", "--tol-fun", "1e-12",
        )
        assert res.returncode == 0
        rows = parse_table(res.stdout)
        assert [r[0] for r in rows] == ["1", "2", "3"]


class TestFitDistortion:
    def test_intrinsics_pinned(self, synth_dir, m9_dir, tmp_path):
        cam = tmp_path / "cam.txt"
        rc.write_intrinsics(cam, DEFAULT_CAMERA)
        for data, model in ((synth_dir, "1"), (m9_dir, "9")):
            res = run_cli(
                "fit-distortion", "--data", str(data), "--model", model,
                "--intrinsics", str(cam),
            )
            assert res.returncode == 0 and res.stderr == ""  # converged
            rows = parse_table(res.stdout)
            assert len(rows) == 1
            row = rows[0]
            assert row[0] == model
            assert row[6] == "800.0000" and row[9] == "800.0000"
            assert row[7] == "0.0000" and row[8] == "320.0000" and row[10] == "240.0000"
            if model == "1":  # noise-free: the generating coefficient
                assert abs(float(row[3]) + 0.05) < 1e-3
                assert float(row[1]) < 1e-6


# F = r / (1 + 1e250 r) rises to F_max = 1e-250, and f(r_b) underflows to 0
# at r_b = 1e100: under this camera (1, 0) px, 1e-251 normalized, still inverts.
CAMERA_1E251 = rc.IntrinsicParams(alpha=1e251, gamma=0.0, u0=0.0, beta=1e251, v0=0.0)


class TestUndistortPoints:
    def test_inverts_distorted_pixels(self, tmp_path):
        # Distortions of 40 known preimages under a skewed camera, then the
        # principal point and one pixel: model 0 goes the numeric route and
        # model 9 solves a cubic, also with coefficients of 1e300, whose N and
        # D overflow at the end of the domain.
        rng = np.random.default_rng(31)
        ideal = np.column_stack(
            [rng.uniform(150.0, 480.0, 40), rng.uniform(120.0, 360.0, 40)]
        )
        pair = [[320.0, 240.0], [400.5, 300.25]]
        tiny = [[0.0, 0.0], [1.0, 0.0]]
        for A, model_id, coeffs, pixels in (
            (rc.IntrinsicParams(alpha=640.0, gamma=0.4, u0=311.0, beta=655.0, v0=242.0),
             7, "0.1,-0.25", None),
            (DEFAULT_CAMERA, 0, "-0.2,0.05", pair),
            (DEFAULT_CAMERA, 9, "0.4,-0.01,0.6", pair),
            (DEFAULT_CAMERA, 9, "1e300,1e300,1e300", pair),
            (CAMERA_1E251, 4, "1e250", tiny),
            (CAMERA_1E251, 8, "0,1e250,0", tiny),
        ):
            cam = tmp_path / "cam.txt"
            rc.write_intrinsics(cam, A)
            model = rc.DistortionModel(model_id, tuple(map(float, coeffs.split(","))))
            if pixels is None:
                distorted = np.array([rc.distort_pixel(A, model, p) for p in ideal])
            else:
                distorted = np.array(pixels)
            text = "# distorted input\n" + "\n".join(
                f"{u:.17g} {v:.17g}" for u, v in distorted
            ) + "\n\n# end\n"
            res = run_cli(
                "undistort-points", "--model", str(model_id), f"--coeffs={coeffs}",
                "--intrinsics", str(cam), stdin=text,
            )
            assert res.returncode == 0, res.stderr
            got = np.array(
                [[float(t) for t in line.split()] for line in res.stdout.strip().split("\n")]
            )
            assert got.shape == distorted.shape
            if pixels is None:
                assert np.max(np.abs(got - ideal)) < 1e-6
            # Each point re-distorts onto its input.
            assert np.max(np.abs(rc.distort_pixel(A, model, got) - distorted)) < 1e-6

    def test_negative_coefficient_list_as_separate_value(self, tmp_path):
        # The form shown in the help text: a list whose first entry is
        # negative, passed as its own argument.
        cam = tmp_path / "cam.txt"
        rc.write_intrinsics(cam, DEFAULT_CAMERA)
        model = rc.DistortionModel(model_id=3, coefficients=(-0.0215, -0.1566))
        ideal = np.array([[400.0, 300.0], [200.0, 150.0], [320.0, 240.0]])
        distorted = np.array([rc.distort_pixel(DEFAULT_CAMERA, model, p) for p in ideal])
        for flag in ("--coeffs", "--coef"):
            res = run_cli(
                "undistort-points", "--model", "3", flag, "-0.0215,-0.1566",
                "--intrinsics", str(cam),
                stdin="".join(f"{u:.17g} {v:.17g}\n" for u, v in distorted),
            )
            assert res.returncode == 0, res.stderr
            got = np.array([[float(t) for t in line.split()] for line in res.stdout.splitlines()])
            assert np.max(np.abs(got - ideal)) < 1e-6

    def test_bad_input_line_fails_with_empty_stdout(self, tmp_path):
        cam = tmp_path / "cam.txt"
        rc.write_intrinsics(cam, DEFAULT_CAMERA)
        res = run_cli(
            "undistort-points", "--model", "2", "--coeffs", "-0.1",
            "--intrinsics", str(cam), stdin="100 100\n1 2 3\n",
        )
        assert res.returncode == 1
        assert res.stdout == ""
        assert "error:" in res.stderr

    def test_out_of_range_point_fails_with_empty_stdout(self, tmp_path):
        # Pixel (1920, 240) is the normalized point (2, 0), past the peak of
        # F(x) = x/(1 + 0.205 x^2) near 1.104: it has no preimage.
        cam = tmp_path / "cam.txt"
        rc.write_intrinsics(cam, DEFAULT_CAMERA)
        res = run_cli(
            "undistort-points", "--model", "5", "--coeffs", "0.205",
            "--intrinsics", str(cam), stdin="330 250\n1920 240\n310 230\n",
        )
        assert res.returncode == 1
        assert res.stdout == ""
        assert "model 5 has no admissible preimage for (2.0, 0.0)" in res.stderr

    def test_parse_error_is_reported_before_inversion(self, tmp_path):
        # Every line is parsed before any point is inverted.
        cam = tmp_path / "cam.txt"
        rc.write_intrinsics(cam, DEFAULT_CAMERA)
        res = run_cli(
            "undistort-points", "--model", "5", "--coeffs", "0.205",
            "--intrinsics", str(cam), stdin="1920 240\n330 x\n",
        )
        assert res.returncode == 1
        assert res.stdout == ""
        assert "<stdin>:2: not a decimal number" in res.stderr


    def test_stdin_layout_and_output_bytes(self, tmp_path):
        # Comments, blank lines, tabs, trailing spaces, CRLF line ends and
        # digit separators parse as float() reads them, and stdout is the
        # repr of each coordinate of the array result.
        cam = tmp_path / "cam.txt"
        rc.write_intrinsics(cam, DEFAULT_CAMERA)
        model = rc.DistortionModel(model_id=3, coefficients=(-0.0215, -0.1566))
        text = "# u v\r\n400.5\t300.25  \r\n\r\n \t\n1_0 2_0.5\n  # 1 2\n-3e2 +7\n320 240"
        want = rc.undistort_pixel(
            DEFAULT_CAMERA, model,
            np.array([[400.5, 300.25], [10.0, 20.5], [-300.0, 7.0], [320.0, 240.0]]),
        )
        res = run_process(
            "undistort-points", "--model", "3", "--coeffs=-0.0215,-0.1566",
            "--intrinsics", str(cam), stdin=text.encode(),
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout == "".join(f"{u!r} {v!r}\n" for u, v in want.tolist()).encode()

    def test_formfeed_and_nbsp_separate_fields(self, tmp_path):
        # Form feeds and no-break spaces are whitespace to str.split as to
        # str.strip, so they separate fields and blank out lines.
        cam = tmp_path / "cam.txt"
        rc.write_intrinsics(cam, DEFAULT_CAMERA)
        text = "\x0c# u v\n400.5\xa0300.25\x0c\n\xa0\x0c\n\xa0320\x0c240\n"
        res = run_cli(
            "undistort-points", "--model", "2", "--coeffs=-0.19",
            "--intrinsics", str(cam), stdin=text,
        )
        assert res.returncode == 0, res.stderr
        want = rc.undistort_pixel(
            DEFAULT_CAMERA, rc.DistortionModel(2, (-0.19,)),
            np.array([[400.5, 300.25], [320.0, 240.0]]),
        )
        assert res.stdout == "".join(f"{u!r} {v!r}\n" for u, v in want.tolist())

    def test_byte_order_mark_starts_the_input(self, tmp_path):
        # One leading UTF-8 BOM is dropped; on a later line it fails the line.
        cam = tmp_path / "cam.txt"
        rc.write_intrinsics(cam, DEFAULT_CAMERA)
        argv = ("undistort-points", "--model", "2", "--coeffs=-0.19", "--intrinsics", str(cam))
        bom = b"\xef\xbb\xbf"
        res = run_process(*argv, stdin=bom + b"400.5 300.25\n320 240\n")
        assert res.returncode == 0, res.stderr
        want = rc.undistort_pixel(
            DEFAULT_CAMERA, rc.DistortionModel(2, (-0.19,)),
            np.array([[400.5, 300.25], [320.0, 240.0]]),
        )
        assert res.stdout == "".join(f"{u!r} {v!r}\n" for u, v in want.tolist()).encode()
        res = run_process(*argv, stdin=b"400.5 300.25\n" + bom + b"320 240\n")
        assert res.returncode == 1 and res.stdout == b""
        assert res.stderr == b"error: <stdin>:2: not a decimal number\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_radicals_bisect(self, tmp_path):
        # With k = 1e103 model 3's cubic radicals overflow a float; the point
        # is bisected instead, with no warning. Its preimage lies about
        # 1e-49 px from the principal point, so it prints as (320, 240).
        cam = tmp_path / "cam.txt"
        rc.write_intrinsics(cam, DEFAULT_CAMERA)
        res = run_cli(
            "undistort-points", "--model", "3", "--coeffs=1e103,1e103",
            "--intrinsics", str(cam), stdin="320 240\n400.5 300.25\n",
        )
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        model = rc.DistortionModel(3, (1e103, 1e103))
        want = rc.denormalize(DEFAULT_CAMERA, rc.undistort_numeric(
            model, rc.normalize(DEFAULT_CAMERA, np.array([[320.0, 240.0], [400.5, 300.25]]))))
        assert res.stdout == "".join(f"{u!r} {v!r}\n" for u, v in want.tolist())

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 2\n3 x\n4 5 6\n", "<stdin>:2: not a decimal number"),
            ("1 2\n4 5 6\n3 x\n", "<stdin>:2: expected 2 values, got 3"),
            ("# 1\n\n1 2\n\n3 4\n5e 6\n7\n", "<stdin>:6: not a decimal number"),
            ("1 2\n3 4\n# x y z\n5\n", "<stdin>:4: expected 2 values, got 1"),
        ],
    )
    def test_parse_error_names_the_first_bad_line(self, tmp_path, text, message):
        cam = tmp_path / "cam.txt"
        rc.write_intrinsics(cam, DEFAULT_CAMERA)
        res = run_cli(
            "undistort-points", "--model", "2", "--coeffs", "-0.1",
            "--intrinsics", str(cam), stdin=text,
        )
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == f"error: {message}\n"


class TestRoundtripCheck:
    def test_passes_at_default_tolerance(self):
        # Models 1-9 by default; model 0 goes the numeric route.
        for options, models in (((), range(1, 10)), (("--models", "0-9"), range(10))):
            res = run_cli("roundtrip-check", "--samples", "200", *options)
            assert res.returncode == 0, res.stderr
            lines = res.stdout.strip().split("\n")
            data_lines = [l for l in lines if "\t" in l and not l.startswith("model")]
            assert len(data_lines) == len(models)
            for line in data_lines:
                mid, err = line.split("\t")
                assert int(mid) in models
                assert float(err) < 1e-9

    def test_impossible_tolerance_fails_with_full_table(self):
        res = run_cli("roundtrip-check", "--samples", "50", "--tol", "1e-30")
        assert res.returncode == 1
        data_lines = [
            l for l in res.stdout.strip().split("\n")
            if "\t" in l and not l.startswith("model")
        ]
        assert len(data_lines) == 9

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_overflow_names_no_denominator(self):
        # Model 0's r^4 overflows far out; it has no denominator to vanish.
        res = run_cli("roundtrip-check", "--models", "0", "--radius", "1e300")
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error: model 0 profile is undefined at r=")

    @pytest.mark.parametrize(
        "option, value",
        [("--samples", "0"), ("--samples", "-1"), ("--radius", "0"), ("--radius", "-0.5"),
         ("--radius", "nan"), ("--radius", "inf"), ("--tol", "nan"), ("--tol", "-0.5"),
         ("--tol", "inf"), ("--tol", "-1e-9"), ("--tol", "-inf"), ("--radius", "-nan")],
    )
    def test_out_of_range_option_is_usage_error(self, option, value):
        res = run_cli("roundtrip-check", "--samples", "5", option, value)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith(f"usage error: {option} must be ")


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 2

    def test_bad_model_value(self, synth_dir):
        res = run_cli("calibrate", "--data", str(synth_dir), "--model", "12")
        assert res.returncode == 2

    def test_bad_models_list(self, synth_dir):
        res = run_cli("compare", "--data", str(synth_dir), "--models", "1-")
        assert res.returncode == 2
        res = run_cli("compare", "--data", str(synth_dir), "--models", "3,11")
        assert res.returncode == 2
        # A range's ends are checked before it expands into a list of ids.
        res = run_cli("compare", "--data", str(synth_dir), "--models", "0-100000")
        assert res.returncode == 2
        assert len(res.stderr) < 300

    def test_reversed_model_range(self, synth_dir):
        res = run_cli("compare", "--data", str(synth_dir), "--models", "5-3")
        assert res.returncode == 2
        assert res.stderr.endswith(
            "argument --models: bad model list '5-3'; use forms like '0-9' or '0,3,8'\n"
        )

    def test_bad_coefficient_list(self, tmp_path):
        cam = tmp_path / "cam.txt"
        rc.write_intrinsics(cam, DEFAULT_CAMERA)
        res = run_cli(
            "undistort-points", "--model", "3", "--coeffs", "0.1,abc",
            "--intrinsics", str(cam), stdin="100 100\n",
        )
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.endswith(
            "argument --coeffs: bad coefficient list '0.1,abc'; use comma-separated numbers\n"
        )

    def test_one_point_target_names_no_view(self, tmp_path):
        out = tmp_path / "one-point"
        res = run_cli("synth", "--out", str(out), "--model", "1", "--views", "3", "--grid", "1")
        assert res.returncode == 0, res.stderr
        res = run_cli("calibrate", "--data", str(out), "--model", "1")
        assert res.returncode == 1
        assert res.stderr == "error: need at least 4 points, got 1\n"

    def test_missing_required_argument(self):
        assert run_cli("calibrate", "--model", "1").returncode == 2

    def test_wrong_coefficient_count(self, tmp_path):
        cam = tmp_path / "cam.txt"
        rc.write_intrinsics(cam, DEFAULT_CAMERA)
        res = run_cli(
            "undistort-points", "--model", "8", "--coeffs", "0.1",
            "--intrinsics", str(cam), stdin="100 100\n",
        )
        assert res.returncode == 2
        assert "usage error" in res.stderr

    def test_nonfinite_coefficient_is_usage_error(self, tmp_path):
        cam = tmp_path / "cam.txt"
        rc.write_intrinsics(cam, DEFAULT_CAMERA)
        for coeffs in ("inf", "nan"):
            res = run_cli(
                "undistort-points", "--model", "2", f"--coeffs={coeffs}",
                "--intrinsics", str(cam), stdin="400.5 300.25\n",
            )
            assert res.returncode == 2
            assert res.stdout == ""
            assert "usage error" in res.stderr and "must be finite" in res.stderr

    def test_nonfinite_intrinsics_file_is_domain_error(self, tmp_path):
        cam = tmp_path / "cam.txt"
        cam.write_text("800 0 nan 800 240\n", encoding="utf-8")
        res = run_cli(
            "undistort-points", "--model", "2", "--coeffs=-0.19",
            "--intrinsics", str(cam), stdin="400.5 300.25\n",
        )
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == (
            f"error: {cam}: intrinsics must be finite, got (alpha, gamma, u0, beta, v0) = "
            "(800.0, 0.0, nan, 800.0, 240.0)\n"
        )

    def test_nonfinite_dataset_value_is_domain_error(self, synth_dir, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        for f in synth_dir.glob("*.txt"):
            (data / f.name).write_text(f.read_text())
        lines = (data / "image002.txt").read_text().splitlines()
        lines[3] = "nan 1"
        (data / "image002.txt").write_text("\n".join(lines) + "\n")
        res = run_cli("calibrate", "--data", str(data), "--model", "1")
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == f"error: {data / 'image002.txt'}: view 1 observations must be finite\n"

    def test_missing_dataset_is_domain_error(self):
        res = run_cli("calibrate", "--data", "/no/such/dir", "--model", "1")
        assert res.returncode == 1
        assert res.stdout == ""
        assert "error:" in res.stderr

    @pytest.mark.parametrize(
        "command, option, name",
        [("calibrate", "--tol-x", "step_tolerance"),
         ("compare", "--tol-fun", "objective_tolerance"),
         ("fit-distortion", "--tol-x", "step_tolerance")],
    )
    def test_nan_optimizer_tolerance_is_usage_error(
        self, synth_dir, tmp_path, command, option, name
    ):
        cam = tmp_path / "cam.txt"
        rc.write_intrinsics(cam, DEFAULT_CAMERA)
        argv = [command, "--data", str(synth_dir), option, "nan"]
        argv += ["--models", "1"] if command == "compare" else ["--model", "1"]
        argv += ["--intrinsics", str(cam)] if command == "fit-distortion" else []
        res = run_cli(*argv)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == f"usage error: {name} must be positive\n"

    @pytest.mark.parametrize(
        "command, option, name",
        [("calibrate", "--tol-x", "step_tolerance"),
         ("compare", "--tol-fun", "objective_tolerance")],
    )
    def test_infinite_optimizer_tolerance_is_usage_error(self, synth_dir, command, option, name):
        # A fit would stop at once and report converged.
        argv = [command, "--data", str(synth_dir), option, "inf"]
        argv += ["--models", "1"] if command == "compare" else ["--model", "1"]
        res = run_cli(*argv)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == f"usage error: {name} must be finite\n"

    @pytest.mark.parametrize(
        "argv, message",
        [(["fit-distortion", "--data", "D", "--model", "9", "--intrinsics", "nan.txt",
           "--tol-x", "nan"], "step_tolerance must be positive"),
         (["undistort-points", "--model", "2", "--coeffs=inf", "--intrinsics", "nan.txt"],
          "model 2 coefficients must be finite, got (inf,)"),
         (["calibrate", "--data", "missing", "--model", "9", "--max-iter", "0"],
          "max_iterations must be positive"),
         (["compare", "--data", "missing", "--max-fevals", "0"],
          "max_function_evaluations must be positive"),
         (["synth", "--out", "X", "--model", "2", "--intrinsics", "nan.txt", "--sigma", "-1"],
          "sigma must be finite and >= 0")],
    )
    def test_option_values_are_checked_before_any_file_is_read(
        self, synth_dir, tmp_path, argv, message
    ):
        # Every file here is bad or missing: the bad option value still
        # decides the exit status.
        (tmp_path / "nan.txt").write_text("800 0 nan 800 240\n", encoding="utf-8")
        paths = {"D": str(synth_dir), "nan.txt": str(tmp_path / "nan.txt"),
                 "missing": str(tmp_path / "missing"), "X": str(tmp_path / "X")}
        res = run_cli(*(paths.get(a, a) for a in argv), stdin="400.5 300.25\n")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == f"usage error: {message}\n"
        assert not (tmp_path / "X").exists()

    @pytest.mark.parametrize(
        "argv",
        [["calibrate", "--model", "1"], ["compare"],
         ["fit-distortion", "--model", "1", "--intrinsics", "cam.txt"]],
    )
    def test_optimizer_defaults_are_the_library_defaults(self, argv):
        args = cli.build_parser().parse_args([*argv, "--data", "d"])
        assert cli._opts(args) == rc.OptimizerOptions()

    @pytest.mark.parametrize(
        "argv",
        [["roundtrip-check", "--samples", "10"],
         ["synth", "--model", "1", "--sigma", "0.3"]],
    )
    def test_negative_seed_is_usage_error(self, tmp_path, argv):
        # numpy's generators take only non-negative seeds: argparse rejects
        # the value and names the option, before anything is written.
        out = tmp_path / "data"
        argv = argv + ["--out", str(out)] if argv[0] == "synth" else argv
        res = run_cli(*argv, "--seed", "-1")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "argument --seed: " in res.stderr and "non-negative integer" in res.stderr
        assert not out.exists()

    def test_bad_optimizer_option(self, synth_dir):
        res = run_cli(
            "calibrate", "--data", str(synth_dir), "--model", "1", "--max-iter", "0"
        )
        assert res.returncode == 2


class TestInProcess:
    """Consecutive cli.main calls in one process share one parser and give
    what a fresh process gives."""

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_consecutive_undistort_points_calls(self, tmp_path):
        cam = tmp_path / "cam.txt"
        rc.write_intrinsics(cam, DEFAULT_CAMERA)
        stdin = "# u v\n400.5 300.25\n\n100 50\n320 240\n"
        for argv in (
            ("undistort-points", "--model", "3", "--coeffs=-0.0215,-0.1566",
             "--intrinsics", str(cam)),
            ("undistort-points", "--model", "0", "--coeffs", "-0.05,0.01",
             "--intrinsics", str(cam)),
        ):
            res = run_cli(*argv, stdin=stdin)
            fresh = run_process(*argv, stdin=stdin.encode())
            assert res.returncode == fresh.returncode == 0
            assert res.stdout == fresh.stdout.decode()
            assert len(res.stdout.splitlines()) == 3

    def test_usage_error_then_valid_call(self, tmp_path):
        cam = tmp_path / "cam.txt"
        rc.write_intrinsics(cam, DEFAULT_CAMERA)
        res = run_cli("undistort-points", "--model", "12", "--coeffs", "0.1",
                      "--intrinsics", str(cam))
        assert res.returncode == 2
        argv = ("undistort-points", "--model", "2", "--coeffs=-0.19",
                "--intrinsics", str(cam))
        res = run_cli(*argv, stdin="400.5 300.25\n")
        fresh = run_process(*argv, stdin=b"400.5 300.25\n")
        assert res.returncode == fresh.returncode == 0
        assert res.stdout == fresh.stdout.decode() != ""

    def test_compare_default_models_after_a_model_list(self, synth_dir):
        for argv, models in (
            (("compare", "--data", str(synth_dir), "--models", "0,3"), [0, 3]),
            (("compare", "--data", str(synth_dir)), list(range(10))),
        ):
            res = run_cli(*argv)
            fresh = run_process(*argv)
            assert res.returncode == fresh.returncode == 0
            assert res.stdout == fresh.stdout.decode()
            assert sorted(int(row[0]) for row in parse_table(res.stdout)) == models


_DEFAULTS = rc.OptimizerOptions()
OPTIMIZER_DEFAULTS = {
    "tol_x": _DEFAULTS.step_tolerance, "tol_fun": _DEFAULTS.objective_tolerance,
    "max_iter": _DEFAULTS.max_iterations, "max_fevals": _DEFAULTS.max_function_evaluations,
}

# A minimal command line of each subcommand and what it parses to, defaults
# included.
MINIMAL_PARSES = [
    (["calibrate", "--data", "d", "--model", "1"],
     {**OPTIMIZER_DEFAULTS, "data": "d", "model": 1}),
    (["compare", "--data", "d"],
     {**OPTIMIZER_DEFAULTS, "data": "d", "models": list(range(10))}),
    (["fit-distortion", "--data", "d", "--model", "1", "--intrinsics", "cam.txt"],
     {**OPTIMIZER_DEFAULTS, "data": "d", "model": 1, "intrinsics": "cam.txt"}),
    (["undistort-points", "--model", "2", "--coeffs=-0.19", "--intrinsics", "cam.txt"],
     {"model": 2, "coeffs": (-0.19,), "intrinsics": "cam.txt"}),
    (["synth", "--out", "o", "--model", "1"],
     {"out": "o", "model": 1, "coeffs": None, "views": 3, "grid": 8, "spacing": 1.0,
      "sigma": 0.0, "seed": 0, "intrinsics": None}),
    (["roundtrip-check"],
     {"models": list(range(1, 10)), "samples": 10000, "radius": 0.5, "tol": 1e-09, "seed": 0}),
]


class TestParser:
    @pytest.mark.parametrize(
        "argv, want", MINIMAL_PARSES, ids=[argv[0] for argv, _ in MINIMAL_PARSES]
    )
    def test_minimal_command_line(self, argv, want):
        got = vars(cli.build_parser().parse_args(argv))
        del got["func"]
        assert got == {"command": argv[0], **want}
