import io
import json
import subprocess
import sys

import numpy as np
import pytest

import radialcal as rc
from radialcal import cli

DEFAULT_CAMERA = rc.IntrinsicParams(alpha=800.0, gamma=0.0, u0=320.0, beta=800.0, v0=240.0)


def run_cli(*args, stdin=None, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "radialcal", *args],
        input=stdin,
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def parse_table(text):
    lines = text.rstrip("\n").split("\n")
    assert lines[0] == rc.REPORT_HEADER
    return [line.split("\t") for line in lines[1:]]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """Noise-free model-1 dataset generated through the CLI itself."""
    out = tmp_path_factory.mktemp("data") / "m1"
    res = run_cli(
        "synth", "--out", str(out), "--model", "1", "--coeffs", "-0.05",
        "--views", "3", "--sigma", "0",
    )
    assert res.returncode == 0, res.stderr
    return out


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
        "coeffs, want", [("-0.1,-0.2", [-0.1, -0.2]), ("-1e-3,-0.2", [-1e-3, -0.2])]
    )
    def test_negative_coefficient_list_as_separate_value(self, coeffs, want, tmp_path):
        out = tmp_path / "d"
        code = cli.main(["synth", "--out", str(out), "--model", "3", "--coeffs", coeffs])
        assert code == 0
        assert json.loads((out / "truth.json").read_text())["coefficients"] == want

    def test_fewer_views_over_a_dataset_exit_one(self, tmp_path, capsys):
        # A three-view set over a five-view one would leave image004 and
        # image005 to load as its views: nothing is written, exit 1.
        out = tmp_path / "d"
        assert cli.main(["synth", "--out", str(out), "--model", "1", "--views", "5"]) == 0
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        capsys.readouterr()
        code = cli.main(["synth", "--out", str(out), "--model", "9", "--views", "3"])
        got, err = capsys.readouterr()
        assert code == 1 and got == ""
        assert err.startswith("error: ") and err.endswith("image004.txt, image005.txt\n")
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before

    def test_negative_sigma_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "d"
        code = cli.main(["synth", "--out", str(out), "--model", "1", "--sigma", "-1e-3"])
        _, err = capsys.readouterr()
        assert code == 2
        assert err == "usage error: sigma must be finite and >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("spacing", ["nan", "inf"])
    def test_non_finite_spacing_is_usage_error(self, spacing, tmp_path, capsys):
        out = tmp_path / "d"
        code = cli.main(["synth", "--out", str(out), "--model", "1", "--spacing", spacing])
        _, err = capsys.readouterr()
        assert code == 2
        assert err == (
            "usage error: grid needs positive dimensions and a finite positive spacing\n"
        )
        assert not out.exists()


class TestCalibrate:
    def test_single_model_table(self, synth_dir):
        res = run_cli("calibrate", "--data", str(synth_dir), "--model", "1")
        assert res.returncode == 0, res.stderr
        rows = parse_table(res.stdout)
        assert len(rows) == 1
        row = rows[0]
        assert row[0] == "1" and row[2] == "0"
        assert float(row[1]) < 1e-3
        assert abs(float(row[3]) + 0.05) < 5e-3
        assert row[4] == "" and row[5] == ""
        assert abs(float(row[6]) - 800.0) < 8.0

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
    def test_intrinsics_pinned(self, synth_dir, tmp_path):
        cam = tmp_path / "cam.txt"
        rc.write_intrinsics(cam, DEFAULT_CAMERA)
        res = run_cli(
            "fit-distortion", "--data", str(synth_dir), "--model", "1",
            "--intrinsics", str(cam),
        )
        assert res.returncode == 0, res.stderr
        row = parse_table(res.stdout)[0]
        assert row[6] == "800.0000" and row[9] == "800.0000"
        assert row[7] == "0.0000" and row[8] == "320.0000" and row[10] == "240.0000"
        assert abs(float(row[3]) + 0.05) < 1e-3
        assert float(row[1]) < 1e-6


class TestUndistortPoints:
    def test_inverts_distorted_pixels(self, tmp_path):
        cam = tmp_path / "cam.txt"
        A = rc.IntrinsicParams(alpha=640.0, gamma=0.4, u0=311.0, beta=655.0, v0=242.0)
        rc.write_intrinsics(cam, A)
        model = rc.DistortionModel(model_id=7, coefficients=(0.1, -0.25))
        rng = np.random.default_rng(31)
        ideal = np.column_stack(
            [rng.uniform(150.0, 480.0, 40), rng.uniform(120.0, 360.0, 40)]
        )
        distorted = np.array([rc.distort_pixel(A, model, p) for p in ideal])
        text = "# distorted input\n" + "\n".join(
            f"{u:.17g} {v:.17g}" for u, v in distorted
        ) + "\n\n# end\n"
        res = run_cli(
            "undistort-points", "--model", "7", "--coeffs", "0.1,-0.25",
            "--intrinsics", str(cam), stdin=text,
        )
        assert res.returncode == 0, res.stderr
        got = np.array(
            [[float(t) for t in line.split()] for line in res.stdout.strip().split("\n")]
        )
        assert got.shape == ideal.shape
        assert np.max(np.abs(got - ideal)) < 1e-6

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
        res = subprocess.run(
            [sys.executable, "-m", "radialcal", "undistort-points", "--model", "3",
             "--coeffs=-0.0215,-0.1566", "--intrinsics", str(cam)],
            input=text.encode(), capture_output=True,
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

    def test_overflowing_radicals_bisect(self, tmp_path):
        # With k = 1e103 model 3's cubic radicals overflow a float; the point
        # is bisected instead, with no warning. Its preimage lies about
        # 1e-49 px from the principal point, so it prints as (320, 240).
        cam = tmp_path / "cam.txt"
        rc.write_intrinsics(cam, DEFAULT_CAMERA)
        res = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "radialcal",
             "undistort-points", "--model", "3", "--coeffs=1e103,1e103",
             "--intrinsics", str(cam)],
            input="320 240\n400.5 300.25\n", capture_output=True, text=True,
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
        res = run_cli("roundtrip-check", "--samples", "200")
        assert res.returncode == 0, res.stderr
        lines = res.stdout.strip().split("\n")
        data_lines = [l for l in lines if "\t" in l and not l.startswith("model")]
        assert len(data_lines) == 9
        for line in data_lines:
            mid, err = line.split("\t")
            assert int(mid) in range(1, 10)
            assert float(err) < 1e-9

    def test_impossible_tolerance_fails_with_full_table(self):
        res = run_cli("roundtrip-check", "--samples", "50", "--tol", "1e-30")
        assert res.returncode == 1
        data_lines = [
            l for l in res.stdout.strip().split("\n")
            if "\t" in l and not l.startswith("model")
        ]
        assert len(data_lines) == 9

    @pytest.mark.parametrize(
        "option, value",
        [("--samples", "0"), ("--samples", "-1"), ("--radius", "0"), ("--radius", "-0.5"),
         ("--radius", "nan"), ("--radius", "inf"), ("--tol", "nan"), ("--tol", "-0.5"),
         ("--tol", "inf"), ("--tol", "-1e-9")],
    )
    def test_out_of_range_option_is_usage_error(self, option, value, capsys):
        code = cli.main(["roundtrip-check", "--samples", "5", option, value])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(f"usage error: {option} must be ")


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
        self, synth_dir, tmp_path, capsys, command, option, name
    ):
        cam = tmp_path / "cam.txt"
        rc.write_intrinsics(cam, DEFAULT_CAMERA)
        argv = [command, "--data", str(synth_dir), option, "nan"]
        argv += ["--models", "1"] if command == "compare" else ["--model", "1"]
        argv += ["--intrinsics", str(cam)] if command == "fit-distortion" else []
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == f"usage error: {name} must be positive\n"

    def test_bad_optimizer_option(self, synth_dir):
        res = run_cli(
            "calibrate", "--data", str(synth_dir), "--model", "1", "--max-iter", "0"
        )
        assert res.returncode == 2


class TestInProcess:
    """Consecutive cli.main calls in one process share one parser."""

    @staticmethod
    def main(capsys, monkeypatch, *args, stdin=""):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        return cli.main(list(args)), capsys.readouterr().out

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_consecutive_undistort_points_calls(self, tmp_path, capsys, monkeypatch):
        cam = tmp_path / "cam.txt"
        rc.write_intrinsics(cam, DEFAULT_CAMERA)
        stdin = "# u v\n400.5 300.25\n\n100 50\n320 240\n"
        for argv in (
            ("undistort-points", "--model", "3", "--coeffs=-0.0215,-0.1566",
             "--intrinsics", str(cam)),
            ("undistort-points", "--model", "0", "--coeffs", "-0.05,0.01",
             "--intrinsics", str(cam)),
        ):
            code, out = self.main(capsys, monkeypatch, *argv, stdin=stdin)
            res = run_cli(*argv, stdin=stdin)
            assert code == res.returncode == 0
            assert out == res.stdout
            assert len(out.splitlines()) == 3

    def test_usage_error_then_valid_call(self, tmp_path, capsys, monkeypatch):
        cam = tmp_path / "cam.txt"
        rc.write_intrinsics(cam, DEFAULT_CAMERA)
        with pytest.raises(SystemExit) as exc:
            self.main(capsys, monkeypatch, "undistort-points", "--model", "12",
                      "--coeffs", "0.1", "--intrinsics", str(cam))
        assert exc.value.code == 2
        argv = ("undistort-points", "--model", "2", "--coeffs=-0.19",
                "--intrinsics", str(cam))
        code, out = self.main(capsys, monkeypatch, *argv, stdin="400.5 300.25\n")
        res = run_cli(*argv, stdin="400.5 300.25\n")
        assert code == res.returncode == 0
        assert out == res.stdout != ""

    def test_compare_default_models_after_a_model_list(self, synth_dir, capsys, monkeypatch):
        for argv, models in (
            (("compare", "--data", str(synth_dir), "--models", "0,3"), [0, 3]),
            (("compare", "--data", str(synth_dir)), list(range(10))),
        ):
            code, out = self.main(capsys, monkeypatch, *argv)
            res = run_cli(*argv)
            assert code == res.returncode == 0
            assert out == res.stdout
            assert sorted(int(row[0]) for row in parse_table(out)) == models
