import json
import math

import numpy as np
import pytest

import radialcal as rc
from _helpers import camera_830, poses_three, synth_dataset
from radialcal.dataio import _parse_rows, _write_rows

BOM = "\ufeff"


class TestDatasetFiles:
    def test_write_load_round_trip(self, tmp_path):
        data, _ = synth_dataset(sigma=0.4, seed=12)
        rc.write_dataset(tmp_path / "d", data)
        back = rc.load_dataset(tmp_path / "d")
        assert np.array_equal(back.model_points, data.model_points)
        assert back.n_views == data.n_views
        for a, b in zip(back.observations, data.observations):
            assert np.array_equal(a, b)

    def test_thousand_views_load_in_order(self, tmp_path):
        # Names padded to four digits from 1,000 views up sort in view order.
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        obs = tuple(pts + i for i in range(1001))
        data = rc.CalibrationDataset(model_points=pts, observations=obs)
        rc.write_dataset(tmp_path / "d", data)
        back = rc.load_dataset(tmp_path / "d")
        assert (tmp_path / "d" / "image0001.txt").is_file()
        assert np.array_equal(np.stack(back.observations), np.stack(obs))

    def test_views_load_by_number_and_stray_names_fail(self, tmp_path):
        # Names from outside the program: unpadded numbers load in numeric
        # order, and a name that is not image<number>.txt or that repeats a
        # number fails, naming the files.
        d = tmp_path / "d"
        d.mkdir()
        (d / "model.txt").write_text("0 0\n")
        for n in (1, 2, 10):
            (d / f"image{n}.txt").write_text(f"{n} 0\n")
        back = rc.load_dataset(d)
        assert [obs[0, 0] for obs in back.observations] == [1.0, 2.0, 10.0]
        (d / "image_notes.txt").write_text("0 0\n")
        with pytest.raises(ValueError, match=r"image_notes\.txt: not a view file name"):
            rc.load_dataset(d)
        (d / "image_notes.txt").unlink()
        (d / "image001.txt").write_text("0 0\n")
        with pytest.raises(ValueError) as err:
            rc.load_dataset(d)
        assert str(err.value) == f"{d / 'image001.txt'} and {d / 'image1.txt'} share view number 1"

    def test_stale_views_refuse_the_write(self, tmp_path):
        # A five-view set, then a three-view one into the same directory: the
        # old image004 and image005 would load as views of the new set.
        five, _ = synth_dataset(sigma=0.4, seed=12, poses=poses_three() + poses_three()[:2])
        three, _ = synth_dataset(sigma=0.0)
        d = tmp_path / "d"
        rc.write_dataset(d, five)
        before = {f.name: f.read_bytes() for f in d.iterdir()}
        with pytest.raises(FileExistsError, match=r"image004\.txt, image005\.txt$"):
            rc.write_dataset(d, three)
        assert {f.name: f.read_bytes() for f in d.iterdir()} == before
        # The same views may be written over.
        rc.write_dataset(d, five)
        assert {f.name: f.read_bytes() for f in d.iterdir()} == before
        # Once the stale views are gone, the smaller set writes.
        (d / "image004.txt").unlink()
        (d / "image005.txt").unlink()
        rc.write_dataset(d, three)
        assert rc.load_dataset(d).n_views == 3

    def test_comments_and_blanks_skipped(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        (d / "model.txt").write_text("# target\n\n0 0\n1 0\n\n# done\n0 1\n")
        (d / "image001.txt").write_text("10 20\n30 40\n50 60\n")
        data = rc.load_dataset(d)
        assert data.n_points == 3
        assert data.observations[0][2, 1] == 60.0

    def test_byte_order_mark_starts_a_file(self, tmp_path):
        # One leading U+FEFF, as editors save UTF-8 with a BOM, is dropped;
        # anywhere else it is not a number.
        d = tmp_path / "d"
        d.mkdir()
        (d / "model.txt").write_text(BOM + "0 0\n1 0\n", encoding="utf-8")
        (d / "image001.txt").write_text(BOM + "# u v\n10 20\n30 40\n", encoding="utf-8")
        data = rc.load_dataset(d)
        assert data.model_points.tolist() == [[0.0, 0.0], [1.0, 0.0]]
        assert data.observations[0].tolist() == [[10.0, 20.0], [30.0, 40.0]]
        for text, line in ((BOM + BOM + "10 20\n30 40\n", 1), ("10 20\n" + BOM + "30 40\n", 2),
                           ("10 20\n30 " + BOM + "40\n", 2)):
            (d / "image001.txt").write_text(text, encoding="utf-8")
            with pytest.raises(rc.ParseError) as err:
                rc.load_dataset(d)
            assert (err.value.line, err.value.reason) == (line, "not a decimal number")

    def test_wrong_width_names_line(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        (d / "model.txt").write_text("0 0\n1.0 2.0 extra\n")
        (d / "image001.txt").write_text("0 0\n1 1\n")
        with pytest.raises(rc.ParseError) as err:
            rc.load_dataset(d)
        assert err.value.line == 2
        assert "model.txt" in err.value.file

    def test_non_numeric(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        (d / "model.txt").write_text("0 0\nnope 2\n")
        (d / "image001.txt").write_text("0 0\n1 1\n")
        with pytest.raises(rc.ParseError) as err:
            rc.load_dataset(d)
        assert err.value.line == 2

    def test_empty_file(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        (d / "model.txt").write_text("# nothing here\n")
        (d / "image001.txt").write_text("0 0\n")
        with pytest.raises(rc.ParseError) as err:
            rc.load_dataset(d)
        assert err.value.line == 0

    def test_count_mismatch(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        (d / "model.txt").write_text("0 0\n1 1\n")
        (d / "image001.txt").write_text("0 0\n1 1\n2 2\n")
        with pytest.raises(rc.CountMismatch) as err:
            rc.load_dataset(d)
        assert err.value.expected == 2
        assert err.value.got == 3

    def test_non_finite_value_names_its_file(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        (d / "model.txt").write_text("0 0\n1 1\n")
        (d / "image001.txt").write_text("0 0\n1 1\n")
        (d / "image002.txt").write_text("0 0\n1e400 1\n")
        with pytest.raises(ValueError) as err:
            rc.load_dataset(d)
        assert str(err.value) == f"{d / 'image002.txt'}: view 1 observations must be finite"
        (d / "model.txt").write_text("0 nan\n1 1\n")
        with pytest.raises(ValueError) as err:
            rc.load_dataset(d)
        assert str(err.value) == f"{d / 'model.txt'}: model_points must be finite"

    def test_missing_model_file(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        (d / "image001.txt").write_text("0 0\n")
        with pytest.raises(FileNotFoundError):
            rc.load_dataset(d)

    def test_no_image_files(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        (d / "model.txt").write_text("0 0\n")
        with pytest.raises(FileNotFoundError):
            rc.load_dataset(d)


class TestIntrinsicsFile:
    def test_round_trip(self, tmp_path):
        A = camera_830()
        rc.write_intrinsics(tmp_path / "cam.txt", A)
        back = rc.load_intrinsics(tmp_path / "cam.txt")
        assert back.as_tuple() == A.as_tuple()

    def test_wrong_width(self, tmp_path):
        (tmp_path / "cam.txt").write_text("830 0.1 304 830.5\n")
        with pytest.raises(rc.ParseError):
            rc.load_intrinsics(tmp_path / "cam.txt")

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("800 0 nan 800 240",
             "intrinsics must be finite, got (alpha, gamma, u0, beta, v0) = "
             "(800.0, 0.0, nan, 800.0, 240.0)"),
            ("800 0 320 -800 240", "focal scales must be positive, got alpha=800.0, beta=-800.0"),
        ],
    )
    def test_rejected_values_name_the_file(self, tmp_path, line, reason):
        cam = tmp_path / "cam.txt"
        cam.write_text(line + "\n")
        with pytest.raises(ValueError) as exc:
            rc.load_intrinsics(cam)
        assert str(exc.value) == f"{cam}: {reason}"

    def test_byte_order_mark_starts_the_file(self, tmp_path):
        cam = tmp_path / "cam.txt"
        cam.write_bytes(b"\xef\xbb\xbf800 0 320 800 240\n")
        assert rc.load_intrinsics(cam).as_tuple() == (800.0, 0.0, 320.0, 800.0, 240.0)

    def test_two_lines_rejected(self, tmp_path):
        (tmp_path / "cam.txt").write_text("830 0.1 304 830.5 207\n1 0 0 1 0\n")
        with pytest.raises(rc.ParseError):
            rc.load_intrinsics(tmp_path / "cam.txt")


def _format_per_value(rows) -> bytes:
    """The text of one format per value, one join per row: the reference."""
    return "".join(" ".join(format(v, ".17g") for v in row) + "\n" for row in rows).encode()


def _parse_per_line(lines, width, name):
    """One line at a time, converting as it goes: the reference."""
    flat = []
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != width:
            raise rc.ParseError(name, lineno, f"expected {width} values, got {len(parts)}")
        try:
            flat += map(float, parts)
        except ValueError:
            raise rc.ParseError(name, lineno, "not a decimal number") from None
    return np.array(flat).reshape(-1, width)


def _outcome(parse, lines, width, name):
    try:
        rows = parse(lines, width, name)
    except rc.ParseError as exc:
        return exc.file, exc.line, exc.reason
    return rows.shape, rows.tobytes()


EDGE_FLOATS = (0.0, -0.0, 5e-324, -2.2250738585072009e-308, math.inf, -math.inf, math.nan,
               1.7976931348623157e308, -1.7976931348623157e308)


class TestTextKernels:
    """_write_rows and _parse_rows against the per-value and per-line code
    they replace: the same bytes, the same arrays, the same errors."""

    @pytest.mark.parametrize("width", [2, 5])
    def test_write_matches_per_value_format(self, width, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        value = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
        row = st.lists(value, min_size=width, max_size=width)

        @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @hypothesis.given(rows=st.lists(row, max_size=6))
        @hypothesis.example(rows=[])
        def check(rows):
            rows = np.array(rows, dtype=float).reshape(-1, width)
            path = tmp_path / "rows.txt"
            _write_rows(path, rows)
            assert path.read_bytes() == _format_per_value(rows)
            if not np.isfinite(rows).all():
                return
            back = _parse_rows(path.read_text(encoding="utf-8").splitlines(), width, str(path))
            assert back.shape == rows.shape and back.tobytes() == rows.tobytes()
            if width == 2 and len(rows):
                d = tmp_path / "d"
                rc.write_dataset(d, rc.CalibrationDataset(rows, (rows[::-1], rows)))
                for name, want in (("model.txt", rows), ("image001.txt", rows[::-1]),
                                   ("image002.txt", rows)):
                    assert (d / name).read_bytes() == _format_per_value(want)
                data = rc.load_dataset(d)
                assert data.model_points.tobytes() == rows.tobytes()
                want = np.stack([rows[::-1], rows])
                assert np.stack(data.observations).tobytes() == want.tobytes()
            if width == 5:
                for values in rows:
                    try:
                        A = rc.IntrinsicParams.from_tuple(values)
                    except ValueError:
                        continue  # a camera the type rejects
                    cam = tmp_path / "cam.txt"
                    rc.write_intrinsics(cam, A)
                    assert cam.read_bytes() == _format_per_value([values])
                    back = np.array(rc.load_intrinsics(cam).as_tuple())
                    assert back.tobytes() == values.tobytes()

        check()

    @pytest.mark.parametrize("width", [2, 5])
    @pytest.mark.parametrize("source", ["model.txt", "cam.txt", "<stdin>"])
    def test_parse_matches_per_line_loop(self, width, source, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        numbers = st.one_of(
            st.floats().map(repr),
            st.sampled_from(["1_000", "inf", "-nan", "-0", "1e400", "+7", "-.5e-3", "5e-324"]),
        )
        bad = st.sampled_from(["1x", "#2", "1__0", "0x10", "e5", "--1", "nan1"])
        sep = st.sampled_from([" ", "  ", "\t", "\x0c", "\r", " \t\x0c"])
        pad = st.sampled_from(["", " ", "\t", "\x0c"])
        end = st.sampled_from(["", "\n", "\r\n"])

        def lines_of(token):
            fields = st.one_of(st.lists(token, min_size=width, max_size=width),
                               st.lists(token, min_size=1, max_size=width + 2))
            data = st.builds(lambda a, s, f, b, e: a + s.join(f) + b + e,
                             pad, sep, fields, pad, end)
            blank = st.builds(lambda a, e: a + e,
                              st.sampled_from(["", " ", "\t", "\r", "\x0c"]), end)
            comment = st.builds(lambda a, t, e: a + "#" + t + e, pad,
                                st.text(" 0123456789.#xe", max_size=8), end)
            return st.lists(st.one_of(data, data, blank, comment), max_size=8)

        @hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
        @hypothesis.given(lines=st.one_of(lines_of(numbers), lines_of(st.one_of(numbers, bad))))
        def check(lines):
            if source == "<stdin>":
                want = _outcome(_parse_per_line, lines, width, source)
                assert _outcome(_parse_rows, lines, width, source) == want
                return
            path = tmp_path / source
            path.write_text("".join(lines), encoding="utf-8")
            with open(path, encoding="utf-8") as fh:
                want = _outcome(_parse_per_line, fh, width, str(path))
            with open(path, encoding="utf-8") as fh:
                assert _outcome(_parse_rows, fh, width, str(path)) == want

        check()


class TestPlanarGrid:
    def test_shape_and_centering(self):
        g = rc.planar_grid(3, 5, 2.0)
        assert g.shape == (15, 2)
        assert np.allclose(g.mean(axis=0), [0.0, 0.0], atol=1e-15)
        assert g[:, 0].max() - g[:, 0].min() == pytest.approx(8.0)
        assert g[:, 1].max() - g[:, 1].min() == pytest.approx(4.0)

    def test_default_is_unit_eight_by_eight(self):
        g = rc.planar_grid()
        assert g.shape == (64, 2)
        assert g[0, 0] == -3.5 and g[-1, 1] == 3.5

    def test_validation(self):
        with pytest.raises(ValueError):
            rc.planar_grid(0, 4)
        for spacing in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                rc.planar_grid(4, 4, spacing)

    def test_counts_are_integers(self):
        # 2.5 rows would give 3 rows off centre (y = -0.75, 0.25, 1.25).
        for args, name in (((2.5, 2), "rows"), ((2, 3.0), "cols"), (("2", 2), "rows")):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                rc.planar_grid(*args)
        assert np.array_equal(rc.planar_grid(np.int64(2), 3), rc.planar_grid(2, 3))


class TestSynthetic:
    def test_noise_free_truth_has_zero_objective(self):
        data, spec = synth_dataset(sigma=0.0)
        J = rc.compute_objective(spec.intrinsics, spec.extrinsics, spec.model, data)
        assert J == 0.0

    def test_distortion_actually_applied(self):
        data, spec = synth_dataset(model_id=3, k=(-0.1, -0.15), sigma=0.0)
        straight = rc.DistortionModel(model_id=3, coefficients=(0.0, 0.0))
        J = rc.compute_objective(spec.intrinsics, spec.extrinsics, straight, data)
        assert J > 1.0

    def test_same_seed_reproduces(self):
        a, _ = synth_dataset(sigma=0.7, seed=123)
        b, _ = synth_dataset(sigma=0.7, seed=123)
        for x, y in zip(a.observations, b.observations):
            assert np.array_equal(x, y)

    def test_different_seed_differs(self):
        a, _ = synth_dataset(sigma=0.7, seed=123)
        b, _ = synth_dataset(sigma=0.7, seed=124)
        assert not np.array_equal(a.observations[0], b.observations[0])

    def test_default_grid_resolved(self):
        spec = rc.SynthSpec(
            intrinsics=camera_830(),
            extrinsics=poses_three(),
            model=rc.DistortionModel(model_id=1, coefficients=(-0.1,)),
        )
        data, resolved = rc.generate_synthetic(spec)
        assert resolved.model_points is not None
        assert np.array_equal(resolved.model_points, rc.planar_grid())
        assert data.n_points == 64

    def test_behind_camera_names_view(self):
        spec = rc.SynthSpec(
            intrinsics=camera_830(),
            extrinsics=(
                rc.Extrinsics(rotation=(0.0, 0.0, 0.0), translation=(0.0, 0.0, -3.0)),
            ),
            model=rc.DistortionModel(model_id=1, coefficients=(0.0,)),
        )
        with pytest.raises(rc.NonPositiveDepth, match=r"view 0"):
            rc.generate_synthetic(spec)

    def test_depth_error_names_view_and_point(self):
        front, behind = (
            rc.Extrinsics(rotation=(0.0, 0.0, 0.0), translation=(0.0, 0.0, z)) for z in (1.0, -1.0)
        )
        spec = rc.SynthSpec(
            intrinsics=camera_830(),
            extrinsics=(front, behind),
            model=rc.DistortionModel(model_id=1, coefficients=(0.0,)),
            model_points=np.array([[0.0, 0.0], [1.0, 0.0]]),
        )
        with pytest.raises(rc.NonPositiveDepth) as exc:
            rc.generate_synthetic(spec)
        assert str(exc.value) == "view 1, point 0: Z^c = -1.0"

    def test_singular_profile_names_view(self):
        # Model 5 with k = -1 is 1 / (1 - r^2), singular at the point (1, 0)
        # on the unit plane of either view.
        view = rc.Extrinsics(rotation=(0.0, 0.0, 0.0), translation=(0.0, 0.0, 1.0))
        spec = rc.SynthSpec(
            intrinsics=camera_830(),
            extrinsics=(view, view),
            model=rc.DistortionModel(model_id=5, coefficients=(-1.0,)),
            model_points=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]),
        )
        with pytest.raises(rc.SingularProfile) as exc:
            rc.generate_synthetic(spec)
        assert str(exc.value) == "view 0, model 5 denominator vanished at r=1.0"

    def test_spec_validation(self):
        A = camera_830()
        model = rc.DistortionModel(model_id=1, coefficients=(0.0,))
        with pytest.raises(ValueError):
            rc.SynthSpec(intrinsics=A, extrinsics=(), model=model)
        with pytest.raises(ValueError):
            rc.SynthSpec(
                intrinsics=A, extrinsics=poses_three(), model=model, sigma=-0.1
            )
        with pytest.raises(ValueError):
            rc.SynthSpec(
                intrinsics=A,
                extrinsics=poses_three(),
                model=model,
                model_points=np.zeros((4, 3)),
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("model_id", [0, 1])
    def test_non_finite_target_point(self, model_id, bad):
        # Caught at construction, before any projection could blame the profile
        # or the depth for it.
        target = rc.planar_grid(2, 2)
        target[1, 0] = bad
        model = rc.DistortionModel(model_id, (0.0,) * rc.coefficient_arity(model_id))
        with pytest.raises(ValueError, match="^model_points must be finite$"):
            rc.SynthSpec(intrinsics=camera_830(), extrinsics=poses_three(), model=model,
                         model_points=target)

    def test_seed_is_a_non_negative_integer(self):
        # With sigma 0 no generator is drawn from, so nothing else would see
        # the seed before truth.json records it.
        spec = dict(intrinsics=camera_830(), extrinsics=poses_three(),
                    model=rc.DistortionModel(model_id=1, coefficients=(0.0,)))
        for sigma in (0.0, 0.5):
            for seed, message in ((-1, "^seed must be >= 0, got -1$"),
                                  (1.5, "^seed must be an integer, got 1.5$"),
                                  ("3", "^seed must be an integer, got '3'$")):
                with pytest.raises(ValueError, match=message):
                    rc.SynthSpec(**spec, sigma=sigma, seed=seed)
        resolved = rc.SynthSpec(**spec, seed=np.int64(7))
        assert resolved.seed == 7 and type(resolved.seed) is int

    def test_truth_record_is_json_ready(self):
        _, spec = synth_dataset(sigma=0.5, seed=9)
        doc = json.loads(json.dumps(rc.truth_record(spec)))
        assert doc["model_id"] == 3
        assert doc["coefficients"] == [-0.1, -0.15]
        assert doc["intrinsics"]["alpha"] == 830.0
        assert len(doc["views"]) == 3
        assert doc["views"][1]["translation"] == [-0.4, 0.3, 13.0]
        assert doc["sigma"] == 0.5 and doc["seed"] == 9


class TestRenderReport:
    def test_header_only_for_empty_report(self):
        out = rc.render_report(rc.ModelFitReport(rows=()))
        assert out == rc.REPORT_HEADER + "\n"

    def test_single_coefficient_row_layout(self):
        rep = rc.reference_report("microsoft")
        out = rc.render_report(rep)
        lines = out.split("\n")
        assert lines[0] == rc.REPORT_HEADER
        assert (
            lines[6]
            == "5\t147.0000\t6\t0.2050\t\t\t831.0863\t0.2139\t303.9647\t831.1368\t206.5175"
        )
        assert out.endswith("\n")

    def test_three_coefficient_row_has_no_blanks(self):
        out = rc.render_report(rc.reference_report("desktop"))
        row8 = out.split("\n")[9].split("\t")
        assert row8[0] == "8"
        assert all(cell != "" for cell in row8)
        assert len(row8) == 11

    def test_every_session_renders_ten_rows(self):
        for session in rc.reference_sessions():
            out = rc.render_report(rc.reference_report(session))
            lines = out.rstrip("\n").split("\n")
            assert len(lines) == 11
            for line in lines[1:]:
                assert len(line.split("\t")) == 11
