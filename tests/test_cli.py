import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsar
from lsar import IngestError, LsarError, cli, generate_ar, report
from lsar.cli import EXIT_DATA, EXIT_NUMERICAL, main
from lsar.report import WRITE_CHUNK, read_series, write_series
from lsar.series import ARGeneratorSpec, TimeSeries


def run(argv):
    return main(argv)


def series_file(tmp_path, values, name="series.csv"):
    path = tmp_path / name
    write_series(str(path), TimeSeries(np.asarray(values, dtype=float)))
    return str(path)


def body_lines(path):
    with open(path) as fh:
        return [ln for ln in fh if not ln.startswith("#")]


class TestGenerate:
    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["generate", "--phi", "0.5", "--sigma", "1", "--n", "1000",
                "--seed", "7"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(body_lines(a)) == 1001  # header + 1000 rows

    def test_zero_length_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run(["generate", "--n", "0", "--out", str(tmp_path / "x.csv")])
        assert info.value.code == 2

    def test_explosive_coefficients_trip_guard(self, tmp_path, capsys):
        code = run(["generate", "--phi", "1.5", "--n", "100000",
                    "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_NUMERICAL
        assert "DivergenceError" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_nonfinite_sigma_is_data_error(self, tmp_path, capsys, sigma):
        out = tmp_path / "x.csv"
        code = run(["generate", "--phi", "0.5", "--n", "100", "--sigma", sigma,
                    "--out", str(out)])
        assert code == EXIT_DATA
        assert "DataError noise_std must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("phi", ["nan", "inf"])
    def test_nonfinite_phi_is_data_error(self, tmp_path, capsys, phi):
        out = tmp_path / "x.csv"
        code = run(["generate", "--phi", "0.5", phi, "--n", "100", "--out", str(out)])
        assert code == EXIT_DATA
        assert (f"DataError coefficients must be finite, got phi_2 = {phi}"
                in capsys.readouterr().err)
        assert not out.exists()


class TestIngest:
    def test_log_diff_matches_core_op(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text(f"1\n{math.e}\n{math.e**3}\n")
        out = tmp_path / "out.csv"
        code = run(["ingest", "--input", str(raw), "--transform", "log_diff",
                    "--out", str(out)])
        assert code == 0
        series = read_series(str(out))
        np.testing.assert_allclose(series.values, [1.0, 2.0], atol=1e-12)
        stdout = capsys.readouterr().out
        assert "original_n=3" in stdout
        assert "transformed_n=2" in stdout

    def test_column_by_name(self, tmp_path):
        raw = tmp_path / "multi.csv"
        raw.write_text("t,r8\n0,1.0\n1,2.0\n2,3.0\n")
        out = tmp_path / "out.csv"
        assert run(["ingest", "--input", str(raw), "--column", "r8",
                    "--out", str(out)]) == 0
        np.testing.assert_allclose(read_series(str(out)).values, [1, 2, 3])

    def test_missing_column_lists_headers(self, tmp_path, capsys):
        raw = tmp_path / "multi.csv"
        raw.write_text("t,r8\n0,1.0\n1,2.0\n")
        code = run(["ingest", "--input", str(raw), "--column", "r9",
                    "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_DATA
        assert "r8" in capsys.readouterr().err

    def test_unparsable_cell_reports_row(self, tmp_path, capsys):
        raw = tmp_path / "bad.csv"
        raw.write_text("y\n1.0\noops\n")
        code = run(["ingest", "--input", str(raw),
                    "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_DATA
        assert "row 3" in capsys.readouterr().err

    def test_empty_delimiter_is_ingest_error(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("1.0\n2.0\n3.0\n")
        code = run(["ingest", "--input", str(raw), "--delimiter", "",
                    "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_DATA
        assert "IngestError" in capsys.readouterr().err


def line_scan_read_series(path, column=None, delimiter=",", has_header=None):
    """Reference semantics of ``read_series``: every line parsed in Python."""
    with open(path, encoding="utf-8-sig") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise IngestError(f"{path} contains no data rows")
    first = lines[0].split(delimiter)
    header = None
    if has_header is None:
        has_header = not report._is_number(first[0])
    if has_header:
        header = [h.strip() for h in first]
        lines = lines[1:]
    if column is None:
        if header is not None and len(header) > 1:
            raise IngestError(f"{path} has {len(header)} columns; pick one of {header}")
        col_idx = 0
    elif column.isdigit() or (column.startswith("-") and column[1:].isdigit()):
        col_idx = int(column)
    else:
        if header is None or column not in header:
            available = header if header is not None else "(no header row)"
            raise IngestError(f"column {column!r} not found; available: {available}")
        col_idx = header.index(column)
    values = np.empty(len(lines))
    for row_no, line in enumerate(lines):
        fields = line.split(delimiter)
        try:
            values[row_no] = float(fields[col_idx])
        except (IndexError, ValueError) as err:
            data_row = row_no + (2 if has_header else 1)
            why = f"the row has {len(fields)} field(s)" if isinstance(err, IndexError) else err
            raise IngestError(
                f"{path}: cannot parse column {col_idx} at row {data_row}: {why}"
            ) from err
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0]) + (2 if has_header else 1)
        raise IngestError(f"{path}: non-finite value at row {bad}")
    return TimeSeries(values)


def outcome(reader, *args):
    """The values' bytes, or the error's type and message."""
    try:
        return "ok", reader(*args).values.tobytes()
    except LsarError as err:
        return type(err).__name__, str(err)


CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1_0", "nan", "-inf", "-0", " 2.5 ", "1e400", "1e-400", ".5",
                     "+3", "oops", "", "1.5 # note", "#x", "4\x1c", "y", "close"]),
)


@st.composite
def delimited_files(draw):
    """(text, delimiter): numbers, blank and ``#`` lines, headers, ragged rows."""
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    row = st.lists(CELLS, min_size=1, max_size=3).map(delimiter.join)
    special = st.sampled_from(["", "   ", "# note", "#5", f"#{delimiter}5", "y",
                               f"t{delimiter}close{delimiter}volume", f"{delimiter}7"])
    lines = draw(st.lists(st.one_of(row, row, row, special), max_size=12))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    return text, delimiter


class TestReadSeries:
    @given(case=delimited_files(),
           column=st.sampled_from([None, "0", "1", "-1", "2", "close", "y"]),
           has_header=st.sampled_from([None, True, False]))
    @settings(max_examples=400, deadline=None)
    def test_matches_line_scan(self, tmp_path_factory, case, column, has_header):
        text, delimiter = case
        path = str(tmp_path_factory.getbasetemp() / "mixed.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        args = (path, column, delimiter, has_header)
        assert outcome(read_series, *args) == outcome(line_scan_read_series, *args)

    def test_plain_files_skip_the_line_scan(self, tmp_path, monkeypatch):
        values = np.random.default_rng(2).normal(size=200)
        single = series_file(tmp_path, values)
        multi = tmp_path / "multi.csv"
        multi.write_text("# source: test\n\nt,close,volume\n"
                         + "".join(f"{t},{v!r},7\n" for t, v in enumerate(values.tolist())))

        def no_scan(*args):
            raise AssertionError("line scan used")

        monkeypatch.setattr(report, "_scan_column", no_scan)
        assert read_series(single).values.tobytes() == values.tobytes()
        assert read_series(str(multi), "close").values.tobytes() == values.tobytes()

    def test_comment_line_in_other_column_is_skipped(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("a,b\n1,2\n#,5\n3,4\n")
        np.testing.assert_array_equal(read_series(str(path), "b").values, [2.0, 4.0])

    def test_leading_tab_is_stripped_before_splitting(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("\t1\t2\n\t3\t4\n")
        np.testing.assert_array_equal(
            read_series(str(path), "1", delimiter="\t").values, [2.0, 4.0])

    def test_separator_control_character_is_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,b\n1\x1c,2\n3,4\n")
        with pytest.raises(IngestError, match="at row 2"):
            read_series(str(path), "a")

    def test_missing_column_names_the_row_fields(self, tmp_path, capsys):
        path = tmp_path / "gen.csv"
        path.write_text("y\n1.5\n2.5\n")
        command = ["ingest", "--input", str(path), "--column", "5", "--out", str(tmp_path / "o")]
        assert main(command) == EXIT_DATA
        err = capsys.readouterr().err
        assert "cannot parse column 5 at row 2: the row has 1 field(s)" in err
        assert "list index out of range" not in err

    def test_undecodable_file_is_ingest_error(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_bytes(b"y\n1\n\xff\xfe\n")
        with pytest.raises(IngestError, match="cannot read"):
            read_series(str(path))

    @pytest.mark.parametrize("text, expected", [
        ("1.5\n2.5\n3.5\n4.5\n", [1.5, 2.5, 3.5, 4.5]),
        ("y\n1.5\n2.5\n", [1.5, 2.5]),
        ("1.5\n# scanned line by line\n2.5\n", [1.5, 2.5]),
    ])
    def test_byte_order_mark_is_dropped(self, tmp_path, text, expected):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        np.testing.assert_array_equal(read_series(str(path)).values, expected)

    def test_cli_import_leaves_out_scipy_signal(self):
        code = "import sys, lsar.cli; print('scipy.signal' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"

    def test_cli_import_and_ingest_leave_out_scipy_linalg(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("t,close\n0,1.0\n1,1.5\n2,1.2\n3,1.4\n")
        argv = ["ingest", "--input", str(raw), "--column", "close",
                "--transform", "log_diff_center", "--out", str(tmp_path / "o.csv")]
        code = ("import sys, lsar.cli\n"
                "imported = 'scipy.linalg' in sys.modules\n"
                f"status = lsar.cli.main({argv!r})\n"
                "print(imported, status, 'scipy.linalg' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.splitlines()[-1] == "False 0 False"

    @pytest.mark.parametrize("command", [
        ["lsar", "--pbar", "3", "--fraction", "0.2"],
        ["fit", "--p", "3"],
        ["pacf", "--exact", "--pbar", "3"],
    ])
    def test_solving_commands_leave_out_scipy_linalg(self, tmp_path, command):
        # The solves load scipy's compiled LAPACK/BLAS wrappers only.
        values = generate_ar(ARGeneratorSpec(np.array([0.5, -0.2]), 1.0, 500, seed=2)).values
        path = series_file(tmp_path, values.tolist())
        argv = [command[0], "--input", path, *command[1:], "--out", str(tmp_path / "o.csv")]
        code = ("import sys, lsar.cli\n"
                f"status = lsar.cli.main({argv!r})\n"
                "print(status, 'scipy.linalg' in sys.modules, "
                "'scipy.linalg._flapack' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.splitlines()[-1] == "0 False True"

    def test_cli_import_leaves_out_hashlib(self):
        # The series sidecar and the audit checksum import hashlib when used.
        code = "import sys, lsar.cli; print('hashlib' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"


class TestFit:
    def test_hand_system(self, tmp_path, capsys):
        path = series_file(tmp_path, [1.0, 2.0, 3.0])
        assert run(["fit", "--input", path, "--p", "1"]) == 0
        stdout = capsys.readouterr().out
        phi_line = next(ln for ln in stdout.splitlines() if "phi=" in ln)
        assert abs(float(phi_line.split("=")[1]) - 1.6) < 1e-12

    def test_rank_deficiency_exit_code(self, tmp_path, capsys):
        path = series_file(tmp_path, [3.0, 3.0, 3.0, 3.0])
        code = run(["fit", "--input", path, "--p", "2"])
        assert code == EXIT_NUMERICAL
        assert "RankDeficiencyError" in capsys.readouterr().err


class TestPacf:
    def test_exact_noiseless_recurrence(self, tmp_path, capsys):
        path = series_file(tmp_path, (0.5 ** np.arange(30)).tolist())
        out = tmp_path / "pacf.csv"
        code = run(["pacf", "--exact", "--input", path, "--pbar", "3",
                    "--out", str(out)])
        assert code == 0
        assert "selected_order=1" in capsys.readouterr().out
        lines = body_lines(out)
        assert lines[0].strip() == "lag,pacf,bandwidth"
        values = [float(ln.split(",")[1]) for ln in lines[1:]]
        np.testing.assert_allclose(values[0], 0.5, atol=1e-10)
        # Higher lags of the exact recurrence are rank-deficient: undefined.
        assert np.isnan(values[1]) and np.isnan(values[2])


class TestLsar:
    def test_report_body_reproducible(self, tmp_path, capsys):
        gen = tmp_path / "y.csv"
        assert run(["generate", "--phi", "0.6", "-0.4", "--n", "20000",
                    "--seed", "5", "--out", str(gen)]) == 0
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["lsar", "--input", str(gen), "--pbar", "8",
                "--fraction", "0.05", "--seed", "2",
                "--bandwidth-multiplier", "2.0"]
        assert run(args + ["--out", str(out_a)]) == 0
        first = capsys.readouterr().out
        assert "p*=2" in first
        assert run(args + ["--out", str(out_b)]) == 0
        assert body_lines(out_a) == body_lines(out_b)
        header = body_lines(out_a)[0].strip().split(",")
        assert header == ["p", "window", "s", "clamp_count", "residual_norm",
                          "pacf", "bandwidth"]

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_extreme_scale_is_numerical_error(self, tmp_path, capsys, scale):
        # The squares of the values overflow (1e160) or underflow to zero
        # (1e-170) although every value is finite and nonzero.
        y = generate_ar(ARGeneratorSpec(np.array([0.6, -0.4]), 1.0, 50_000, seed=3))
        path = series_file(tmp_path, y.values * scale)
        code = run(["lsar", "--input", path, "--pbar", "10", "--fraction", "0.01"])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERICAL
        assert "NumericalError" in err
        assert "all lagged values are zero" not in err

    @pytest.mark.parametrize("flags", [
        ["--epsilon", "1e-200"],   # epsilon^2 underflows to zero
        ["--constant", "1e308"],   # the size overflows to inf
        ["--beta", "1e-320"],      # so does 1 / beta
        ["--constant", "nan"],
    ])
    def test_unusable_sample_size_is_data_error(self, tmp_path, capsys, flags):
        y = generate_ar(ARGeneratorSpec(np.array([0.6, -0.4]), 1.0, 2000, seed=3))
        path = series_file(tmp_path, y.values)
        code = run(["lsar", "--input", path, "--pbar", "5", *flags])
        assert code == EXIT_DATA
        assert "SampleSizeError" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_bandwidth_multiplier_is_data_error(self, tmp_path, capsys, value):
        y = generate_ar(ARGeneratorSpec(np.array([0.6, -0.4]), 1.0, 2000, seed=3))
        path = series_file(tmp_path, y.values)
        code = run(["lsar", "--input", path, "--pbar", "5", "--fraction", "0.1",
                    "--bandwidth-multiplier", value])
        assert code == EXIT_DATA
        assert "bandwidth_multiplier must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["lsar"], ["pacf", "--sampled"]])
    def test_uncentred_input_is_flagged(self, tmp_path, capsys, command):
        # The no-intercept model fits a +1000 offset as a near-unit root.
        y = generate_ar(ARGeneratorSpec(np.array([0.6, -0.4]), 1.0, 50_000, seed=3))
        args = command + ["--pbar", "10", "--fraction", "0.01", "--seed", "1"]
        bodies = {}
        for name, values in (("offset", y.values + 1000.0),
                             ("centred", y.values - y.values.mean())):
            out = tmp_path / f"{name}.csv"
            path = series_file(tmp_path, values, name=f"{name}-in.csv")
            assert run(args + ["--input", path, "--out", str(out)]) == 0
            said = [ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith("lsar: warning=uncentred")]
            with open(out) as fh:
                meta = [ln for ln in fh if ln.startswith("# warning=uncentred")]
            assert bool(said) == bool(meta) == (name == "offset")
            bodies[name] = body_lines(out)
        assert bodies["offset"][0] == bodies["centred"][0]

    def test_uncentred_warning_threshold(self):
        def flagged(values):
            return bool(cli.warn_if_uncentred(TimeSeries(np.array(values))))
        assert not flagged([1.0, -1.0, 1.0, -1.0])
        assert flagged([3.0, 3.0])
        assert not flagged([0.0, 0.0])
        # Neither overflow nor underflow of the squares changes the verdict.
        for scale in (1e160, 1e-170):
            assert not flagged([scale, -scale])
            assert flagged([3.0 * scale, 2.0 * scale])

    @pytest.mark.parametrize("command", [["lsar"], ["pacf", "--sampled"]])
    def test_report_records_the_refreshes(self, tmp_path, command):
        y = generate_ar(ARGeneratorSpec(np.array([0.6, -0.4]), 1.0, 20_000, seed=5))
        path = series_file(tmp_path, y.values)
        out = tmp_path / "o.csv"
        assert run(command + ["--input", path, "--pbar", "10", "--fraction", "0.05",
                              "--out", str(out)]) == 0
        with open(out) as fh:
            meta = dict(ln[2:].rstrip("\n").split("=", 1) for ln in fh if ln.startswith("# "))
        assert meta["refresh_orders"] == "1,2,3,4,5,7,9"
        assert float(meta["refresh_ratio"]) == 0.8

    def test_skipped_residuals_are_nan(self, tmp_path):
        # Only orders 1-4, 6 and 8 precede a refresh (at 2-5, 7 and 9).
        y = generate_ar(ARGeneratorSpec(np.array([0.6, -0.4]), 1.0, 20_000, seed=5))
        path = series_file(tmp_path, y.values)
        out = tmp_path / "o.csv"
        assert run(["lsar", "--input", path, "--pbar", "10", "--fraction", "0.05",
                    "--out", str(out)]) == 0
        rows = [ln.strip().split(",") for ln in body_lines(out)[1:]]
        assert [r[4] == "nan" for r in rows] == [p not in (1, 2, 3, 4, 6, 8)
                                                 for p in range(1, 11)]

    def test_tiny_beta_is_blamed(self, tmp_path, capsys):
        path = series_file(tmp_path, generate_ar(ARGeneratorSpec(
            np.array([0.5]), 1.0, 50, seed=1)).values)
        code = run(["lsar", "--input", path, "--pbar", "3", "--epsilon", "0.999",
                    "--beta", "1e-300"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "theoretical sample size 9.23e+300 exceeds row count 47; beta is too small" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--constant", "1000", "3.14e+04 exceeds row count 299; constant is too large"),
        ("--delta0", "1e-300", "3.77e+04 exceeds row count 299; delta is too small"),
    ], ids=["constant", "delta0"])
    def test_given_constant_or_delta_is_blamed(self, tmp_path, capsys, flag, value, message):
        # --pbar 1 runs on this series with both options at their defaults.
        path = series_file(tmp_path, generate_ar(ARGeneratorSpec(
            np.array([0.5]), 1.0, 300, seed=1)).values)
        code = run(["lsar", "--input", path, "--pbar", "1", flag, value])
        assert code == EXIT_DATA
        assert f"theoretical sample size {message} for this data size" in capsys.readouterr().err

    def test_constant_and_delta_are_blamed_together(self, tmp_path, capsys):
        # Neither option alone back at its default fits; both together do.
        path = series_file(tmp_path, generate_ar(ARGeneratorSpec(
            np.array([0.5]), 1.0, 300, seed=1)).values)
        code = run(["lsar", "--input", path, "--pbar", "1", "--constant", "1000",
                    "--delta0", "1e-300"])
        assert code == EXIT_DATA == 3
        assert ("theoretical sample size 9.43e+06 exceeds row count 299; constant and delta "
                "together are too strict for this data size") in capsys.readouterr().err

    def test_clamped_sample_size_is_said_once(self, tmp_path, capsys):
        path = series_file(tmp_path, generate_ar(ARGeneratorSpec(
            np.array([0.5]), 1.0, 50, seed=1)).values)
        code = run(["pacf", "--sampled", "--input", path, "--pbar", "3", "--fraction", "0.999"])
        assert code == 0
        captured = capsys.readouterr()
        said = [ln for ln in captured.out.splitlines() if ln.startswith("lsar: warning=")]
        assert said == ["lsar: warning=sample size at fraction 0.999 exceeds the row count; "
                        "clamped to the row count"]
        assert "UserWarning" not in captured.err

    def test_zero_residual_abort_reported(self, tmp_path, capsys):
        path = series_file(tmp_path, (0.5 ** np.arange(200)).tolist())
        code = run(["lsar", "--input", path, "--pbar", "5",
                    "--fraction", "0.2", "--seed", "0"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "aborted_at=1" in stdout
        assert "p*=1" in stdout


class TestEval:
    def test_mpre_study_writes_csv_and_text(self, tmp_path):
        gen = tmp_path / "y.csv"
        assert run(["generate", "--phi", "0.5", "--n", "2000", "--seed", "3",
                    "--out", str(gen)]) == 0
        out = tmp_path / "mpre.csv"
        code = run(["eval", "mpre", "--input", str(gen), "--pbar", "4",
                    "--fraction", "0.05", "--out", str(out)])
        assert code == 0
        lines = body_lines(out)
        assert lines[0].strip() == "p,mpre,bound_linear,bound_log,time_exact,time_approx"
        assert len(lines) == 5
        twin = tmp_path / "mpre.txt"
        assert twin.exists()
        with open(twin) as fh:
            assert "rng=philox" in fh.read()

    def test_ratios_study(self, tmp_path):
        gen = tmp_path / "y.csv"
        assert run(["generate", "--phi", "0.6", "-0.3", "--n", "3000",
                    "--seed", "4", "--out", str(gen)]) == 0
        out = tmp_path / "ratios.csv"
        code = run(["eval", "ratios", "--input", str(gen), "--p", "2",
                    "--sizes", "50,100", "--reps", "10", "--seed", "0",
                    "--out", str(out)])
        assert code == 0
        lines = body_lines(out)
        assert lines[0].strip() == "s,scheme,rel_param_err,resid_ratio,excluded"
        assert len(lines) == 5  # two sizes x two schemes

    def test_ratios_sizes_must_be_integers(self, tmp_path, capsys):
        gen = series_file(tmp_path, np.arange(1.0, 50.0).tolist())
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as info:
            run(["eval", "ratios", "--input", gen, "--p", "2", "--sizes", "abc",
                 "--out", str(out)])
        assert info.value.code == 2
        assert "comma-separated integers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_ratios_reps_must_be_positive(self, tmp_path, capsys, reps):
        gen = series_file(tmp_path, np.random.default_rng(2).normal(size=200).tolist())
        out = tmp_path / "o.csv"
        code = run(["eval", "ratios", "--input", gen, "--p", "2", "--sizes", "50",
                    "--reps", reps, "--out", str(out)])
        assert code == EXIT_DATA
        assert f"reps must be >= 1, got {reps}" in capsys.readouterr().err
        assert not out.exists()

    def test_nonfinite_c_log_is_data_error(self, tmp_path, capsys):
        gen = series_file(tmp_path, np.random.default_rng(2).normal(size=200).tolist())
        out = tmp_path / "o.csv"
        code = run(["eval", "bounds", "--input", gen, "--pbar", "3", "--c-log", "nan",
                    "--out", str(out)])
        assert code == EXIT_DATA
        assert "c_log must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("pbar", ["3", "5"])
    def test_bounds_on_a_rank_deficient_design_is_numerical_error(self, tmp_path, capsys,
                                                                   pbar):
        # sin(0.3 t) obeys an exact order-2 recurrence, so the lag-3 design
        # has rank 2, and its kappa_p is undefined however far pbar reaches.
        gen = series_file(tmp_path, np.sin(0.3 * np.arange(2000)).tolist())
        out = tmp_path / "o.csv"
        code = run(["eval", "bounds", "--input", gen, "--pbar", pbar, "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert "RankDeficiencyError" in capsys.readouterr().err
        assert not out.exists()

    def test_lag_study_requires_pbar(self, tmp_path, capsys):
        gen = series_file(tmp_path, np.arange(1.0, 50.0).tolist())
        with pytest.raises(SystemExit) as info:
            run(["eval", "mpre", "--input", gen, "--out", str(tmp_path / "o.csv")])
        assert info.value.code == 2
        assert "required: --pbar" in capsys.readouterr().err

    @pytest.mark.parametrize("study", ["mpre", "bounds", "timing"])
    def test_lags_past_half_the_series_are_data_error(self, tmp_path, capsys, study):
        gen = series_file(tmp_path, np.random.default_rng(2).normal(size=3000).tolist())
        out = tmp_path / "o.csv"
        code = run(["eval", study, "--input", gen, "--pbar", "2000", "--out", str(out)])
        assert code == EXIT_DATA
        assert "max_lag 2000 exceeds n/2 = 1500" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_delta_is_blamed(self, tmp_path, capsys):
        gen = series_file(tmp_path, np.random.default_rng(2).normal(size=3000).tolist())
        code = run(["eval", "mpre", "--input", gen, "--pbar", "3", "--beta", "1",
                    "--delta0", "1e-320", "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_DATA
        assert "delta is too small for this data size" in capsys.readouterr().err


class TestAtomicWrites:
    def test_no_partial_files_left(self, tmp_path):
        path = series_file(tmp_path, [1.0, 2.0, 3.0])
        assert run(["fit", "--input", path, "--p", "1",
                    "--out", str(tmp_path / "fit.csv")]) == 0
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []

    @pytest.mark.parametrize("command", [["generate", "--phi", "0.5", "--n", "100"],
                                         ["fit", "--p", "2"]], ids=["generate", "fit"])
    def test_missing_directory_is_data_error(self, tmp_path, capsys, command):
        if command[0] == "fit":
            command = command + ["--input", series_file(tmp_path, [1.0, 2.0, 0.5, 1.5])]
        out = str(tmp_path / "missing" / "x.csv")
        assert run(command + ["--out", out]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines() == [
            f"lsar: error=DataError cannot write {out}: No such file or directory"]
        leftovers = [f for _, _, files in os.walk(tmp_path) for f in files
                     if f.startswith(".report-")]
        assert leftovers == []

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_files_get_the_umask_mode(self, tmp_path, umask, mode):
        gen = tmp_path / "g.csv"
        old = os.umask(umask)
        try:
            assert run(["generate", "--phi", "0.5", "--n", "100", "--out", str(gen)]) == 0
            assert run(["eval", "ratios", "--input", str(gen), "--p", "1", "--sizes", "20",
                        "--reps", "2", "--out", str(tmp_path / "r.csv")]) == 0
        finally:
            os.umask(old)
        for name in ("g.csv", "g.csv" + report.SIDECAR_SUFFIX, "r.csv", "r.txt"):
            assert os.stat(tmp_path / name).st_mode & 0o777 == mode, name


class TestWriteSeries:
    def test_bytes_match_csv_report_path(self, tmp_path):
        rng = np.random.default_rng(0)
        values = np.concatenate([
            [-0.0, 0.0, 1e-300, -1e-300, 1e308, -1e308, 5e-324, 0.1, 1.0 / 3.0],
            rng.normal(size=1000) * 10.0 ** rng.integers(-20, 20, size=1000),
        ])
        fast = tmp_path / "fast.csv"
        reference = tmp_path / "reference.csv"
        write_series(str(fast), TimeSeries(values))
        report.write_csv_report(str(reference), ["y"], [[float(v)] for v in values], {})
        assert fast.read_bytes() == reference.read_bytes()
        assert fast.read_bytes().startswith(b"y\n-0\n0\n1e-300\n")
        np.testing.assert_array_equal(read_series(str(fast)).values, values)

    @pytest.mark.parametrize("size", [WRITE_CHUNK - 1, WRITE_CHUNK, WRITE_CHUNK + 1])
    def test_bytes_across_chunk_boundaries(self, tmp_path, size):
        values = np.random.default_rng(size).normal(size=size) * 1e3
        path = tmp_path / "y.csv"
        write_series(str(path), TimeSeries(values))
        expected = "y\n" + "".join(f"{v:.17g}\n" for v in values.tolist())
        assert path.read_bytes() == expected.encode()

    def test_text_is_written_in_chunks(self, tmp_path):
        # The text of 10^6 values is about 22 MB, and the Python floats and
        # tuple behind a one-pass format take about 32 MB more.
        series = TimeSeries(np.random.default_rng(1).normal(size=1_000_000))
        tracemalloc.start()
        try:
            write_series(str(tmp_path / "y.csv"), series)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308]),
)


def forge_sidecar(path, values):
    """A sidecar for the text at ``path`` that holds ``values`` instead."""
    import hashlib

    payload = np.asarray(values, dtype="<f8").tobytes()
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read() + payload).digest()
    with open(path + report.SIDECAR_SUFFIX, "wb") as fh:
        fh.write(report.SIDECAR_MAGIC + digest + payload)


class TestSidecar:
    @given(values=st.lists(FINITE, min_size=2, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_same_bits_with_and_without_sidecar(self, tmp_path_factory, values):
        path = str(tmp_path_factory.getbasetemp() / "round.csv")
        expected = np.array(values, dtype=float).tobytes()
        write_series(path, TimeSeries(np.array(values)))
        assert report._read_sidecar(path).tobytes() == expected
        assert read_series(path).values.tobytes() == expected
        os.unlink(path + report.SIDECAR_SUFFIX)
        assert read_series(path).values.tobytes() == expected

    def test_layout(self, tmp_path):
        path = series_file(tmp_path, [1.5, -2.0, 3.25])
        with open(path + report.SIDECAR_SUFFIX, "rb") as fh:
            data = fh.read()
        assert data[:8] == report.SIDECAR_MAGIC and len(data) == 8 + 32 + 3 * 8
        assert np.frombuffer(data[40:], dtype="<f8").tolist() == [1.5, -2.0, 3.25]

    def test_edited_text_wins(self, tmp_path):
        path = series_file(tmp_path, [1.5, 2.5, 3.5])
        with open(path, "r+b") as fh:
            text = fh.read()
            fh.seek(0)
            fh.write(text.replace(b"2.5", b"2.7"))
        assert report._read_sidecar(path) is None
        np.testing.assert_array_equal(read_series(path).values, [1.5, 2.7, 3.5])

    @pytest.mark.parametrize("damage", ["empty", "short head", "cut value", "extra byte",
                                        "flipped payload", "wrong magic", "garbage"])
    def test_damaged_sidecar_is_ignored(self, tmp_path, damage):
        values = [1.5, 2.5, 3.5, 4.5]
        path = series_file(tmp_path, values)
        sidecar = path + report.SIDECAR_SUFFIX
        with open(sidecar, "rb") as fh:
            data = bytearray(fh.read())
        if damage == "empty":
            data = b""
        elif damage == "short head":
            data = data[:20]
        elif damage == "cut value":
            data = data[:-3]
        elif damage == "extra byte":
            data += b"\0"
        elif damage == "flipped payload":
            data[-1] ^= 1
        elif damage == "wrong magic":
            data[7] ^= 1
        else:
            data = np.random.default_rng(0).bytes(len(data))
        with open(sidecar, "wb") as fh:
            fh.write(data)
        assert report._read_sidecar(path) is None
        np.testing.assert_array_equal(read_series(path).values, values)

    @pytest.mark.parametrize("kwargs", [{"column": "y"}, {"column": "0"}, {"delimiter": ";"},
                                        {"has_header": True}])
    def test_non_default_reads_parse_the_text(self, tmp_path, kwargs):
        path = series_file(tmp_path, [1.5, 2.5, 3.5])
        forge_sidecar(path, [7.0, 8.0, 9.0])
        np.testing.assert_array_equal(read_series(path).values, [7.0, 8.0, 9.0])
        np.testing.assert_array_equal(read_series(path, **kwargs).values, [1.5, 2.5, 3.5])

    def test_unwritable_sidecar_leaves_the_csv(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("t,close\n0,1.0\n1,1.5\n2,1.2\n3,1.4\n")
        out = tmp_path / "o.csv"
        os.mkdir(str(out) + report.SIDECAR_SUFFIX)
        assert run(["ingest", "--input", str(raw), "--column", "close",
                    "--out", str(out)]) == 0
        assert out.read_bytes() == b"y\n1\n1.5\n1.2\n1.3999999999999999\n"
        assert os.path.isdir(str(out) + report.SIDECAR_SUFFIX)
        assert [f for f in os.listdir(tmp_path) if f.endswith(".tmp")] == []
        np.testing.assert_array_equal(read_series(str(out)).values, [1.0, 1.5, 1.2, 1.4])

    @pytest.mark.parametrize("command", [["lsar"], ["pacf", "--sampled"]])
    def test_report_body_same_without_sidecar(self, tmp_path, command):
        gen = tmp_path / "y.csv"
        assert run(["generate", "--phi", "0.5", "-0.3", "--n", "5000", "--seed", "4",
                    "--out", str(gen)]) == 0
        args = [*command, "--input", str(gen), "--pbar", "6", "--fraction", "0.05",
                "--seed", "1"]
        assert run(args + ["--out", str(tmp_path / "a.csv")]) == 0
        os.unlink(str(gen) + report.SIDECAR_SUFFIX)
        assert run(args + ["--out", str(tmp_path / "b.csv")]) == 0
        assert body_lines(tmp_path / "a.csv") == body_lines(tmp_path / "b.csv")


class TestBlasThreads:
    @staticmethod
    def imported_env(env):
        code = ("import os, lsar; "
                "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        return out.split()

    def base_env(self):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        return env

    def test_default_is_one_thread(self):
        assert self.imported_env(self.base_env()) == ["1", "1"]

    def test_user_value_wins(self):
        env = self.base_env()
        env["OPENBLAS_NUM_THREADS"] = "2"
        assert self.imported_env(env) == ["2", "1"]

    @staticmethod
    def reported_threads(env, numpy_first):
        code = ("import numpy; " if numpy_first else "") + (
            "from lsar.cli import runtime_metadata; "
            "print(runtime_metadata()['blas_threads'])")
        return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True).stdout.strip()

    def test_metadata_when_lsar_loads_numpy(self):
        assert self.reported_threads(self.base_env(), numpy_first=False) == "1"

    def test_metadata_when_numpy_was_loaded_first(self):
        env = self.base_env()
        assert (self.reported_threads(env, numpy_first=True)
                == "default (numpy loaded before lsar)")
        env["OPENBLAS_NUM_THREADS"] = "2"
        assert (self.reported_threads(env, numpy_first=True)
                == "2 (numpy loaded before lsar)")

    def test_reports_record_threads_and_numpy(self, tmp_path):
        gen = series_file(tmp_path, np.random.default_rng(1).normal(size=500).tolist())
        out = tmp_path / "run.csv"
        assert run(["lsar", "--input", gen, "--pbar", "3", "--fraction", "0.2",
                    "--out", str(out)]) == 0
        with open(out) as fh:
            meta = dict(ln[2:].strip().split("=", 1) for ln in fh if ln.startswith("# "))
        # The test process may have loaded numpy first; the subprocess tests
        # above pin both import orders.
        assert meta["blas_threads"] == lsar.BLAS_THREADS
        assert meta["numpy"] == np.__version__
        assert "threads" not in meta

    def test_threads_flag_removed(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--threads", "2", "fit", "--input", "x", "--p", "1"])


def _flag_cases():
    """(base argv, flag, value): a flag that the command or mode of ``base``
    does not read."""
    values = {"--epsilon": "0.3", "--delta0": "0.05", "--fraction": "0.1", "--beta": "1",
              "--constant": "2", "--seed": "1", "--bandwidth-multiplier": "2",
              "--delta-mode": "geometric", "--p": "2", "--pbar": "3", "--sizes": "50",
              "--reps": "2", "--c-log": "2"}
    theoretical = ["--epsilon", "--delta0", "--beta", "--constant"]
    table = [
        (["pacf", "--exact", "--pbar", "3"], theoretical + ["--fraction", "--seed",
                                                            "--bandwidth-multiplier"]),
        (["pacf", "--pbar", "3"], ["--seed"]),
        (["lsar", "--pbar", "3", "--fraction", "0.1"], theoretical + ["--delta-mode"]),
        (["pacf", "--sampled", "--pbar", "3", "--fraction", "0.1"], theoretical),
        (["eval", "mpre", "--pbar", "3", "--fraction", "0.1"], theoretical),
        (["eval", "timing", "--pbar", "3", "--fraction", "0.1"], theoretical),
        (["eval", "mpre", "--pbar", "3"], ["--p", "--sizes", "--reps", "--c-log"]),
        (["eval", "timing", "--pbar", "3"], ["--p", "--sizes", "--reps", "--c-log"]),
        (["eval", "bounds", "--pbar", "3"], ["--fraction", "--delta0", "--beta", "--constant",
                                             "--p", "--sizes", "--reps"]),
        (["eval", "ratios", "--p", "2", "--sizes", "50", "--reps", "2"],
         ["--pbar", "--epsilon", "--delta0", "--fraction", "--beta", "--constant", "--c-log"]),
    ]
    return [pytest.param(base, flag, values[flag], id=" ".join(base[:2]) + " " + flag)
            for base, flags in table for flag in flags]


# Commands and studies that take --seed, with their other required flags.
SEEDED = [["generate", "--n", "100"], ["pacf", "--sampled", "--pbar", "3"],
          ["lsar", "--pbar", "3"], ["eval", "mpre", "--pbar", "3"],
          ["eval", "timing", "--pbar", "3"], ["eval", "bounds", "--pbar", "3"],
          ["eval", "ratios", "--p", "2", "--sizes", "50", "--reps", "2"]]


class TestFlags:
    @pytest.fixture(scope="class")
    def series(self, tmp_path_factory):
        y = generate_ar(ARGeneratorSpec(np.array([0.5]), 1.0, 2000, seed=6))
        return series_file(tmp_path_factory.mktemp("flags"), y.values)

    @pytest.mark.parametrize("base, flag, value", _flag_cases())
    def test_unread_flag_is_usage_error(self, series, tmp_path, capsys, base, flag, value):
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as info:
            run([*base, "--input", series, flag, value, "--out", str(out)])
        assert info.value.code == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert re.search(rf"{re.escape(flag)}[: ]", error), error
        assert not out.exists()

    @pytest.mark.parametrize("command", SEEDED, ids=lambda c: " ".join(c[:2]))
    def test_negative_seed_is_usage_error(self, series, tmp_path, capsys, command):
        argv = [*command, "--seed", "-1", "--out", str(tmp_path / "o.csv")]
        if command[0] != "generate":
            argv += ["--input", series]
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2
        assert "--seed: expected a non-negative integer, got '-1'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, command", [
        pytest.param(argv, command, id=" ".join(argv)) for argv, command in [
            (["pacf", "--exact", "--pbar", "3", "--seed", "1"], "pacf"),
            (["pacf", "--pbar", "0"], "pacf"),
            (["generate", "--n", "1"], "generate"),
            (["lsar", "--pbar", "3", "--bogus", "1"], "lsar"),
            (["eval", "bounds", "--pbar", "3", "--zzz"], "eval bounds"),
        ]])
    def test_usage_error_shows_the_command_usage(self, series, tmp_path, capsys, argv,
                                                 command):
        argv = [*argv, "--out", str(tmp_path / "o.csv")]
        if argv[0] != "generate":
            argv += ["--input", series]
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2
        assert capsys.readouterr().err.startswith(f"usage: lsar {command} [-h]")

    RUNTIME = {"blas_threads", "numpy"}
    THEORETICAL = {"epsilon", "delta0", "beta", "constant", "delta_mode", "rng", "seed"}
    FRACTION = {"fraction", "rng", "seed"}
    LSAR = {"command", "n", "pbar", "bandwidth_multiplier", "selected_order",
            "total_wall_time", "refresh_ratio", "refresh_orders", "factored_rows"} | RUNTIME
    PACF = {"command", "mode", "n", "pbar", "effective_sample", "selected_order"} | RUNTIME
    REFRESH = {"refresh_ratio", "refresh_orders", "factored_rows"}
    EVAL = {"command", "n"} | RUNTIME

    METADATA_CASES = [
        (["lsar", "--pbar", "3", "--fraction", "0.1"], LSAR | FRACTION),
        (["lsar", "--pbar", "3", "--beta", "1"], LSAR | THEORETICAL),
        (["pacf", "--sampled", "--pbar", "3", "--fraction", "0.1"],
         PACF | {"bandwidth_multiplier"} | REFRESH | FRACTION),
        (["pacf", "--sampled", "--pbar", "3", "--beta", "1"],
         PACF | {"bandwidth_multiplier"} | REFRESH | THEORETICAL),
        (["pacf", "--exact", "--pbar", "3"], PACF),
        (["fit", "--p", "2"], {"command", "p", "n", "sigma2", "residual_norm"} | RUNTIME),
        (["eval", "mpre", "--pbar", "3", "--fraction", "0.1"], EVAL | FRACTION),
        (["eval", "mpre", "--pbar", "3", "--beta", "1"], EVAL | THEORETICAL),
        (["eval", "timing", "--pbar", "3", "--fraction", "0.1"], EVAL | FRACTION),
        (["eval", "bounds", "--pbar", "3"], EVAL | {"epsilon", "c_log"}),
        (["eval", "ratios", "--p", "2", "--sizes", "50", "--reps", "2"],
         EVAL | {"p", "reps", "rng", "seed"}),
    ]

    @pytest.mark.parametrize("argv, keys", [pytest.param(argv, keys, id=" ".join(argv))
                                            for argv, keys in METADATA_CASES])
    def test_metadata_records_the_options_read(self, series, tmp_path, argv, keys):
        out = tmp_path / "o.csv"
        assert run([*argv, "--input", series, "--out", str(out)]) == 0
        with open(out) as fh:
            meta = dict(ln[2:].rstrip("\n").split("=", 1) for ln in fh if ln.startswith("# "))
        assert set(meta) == keys

    def test_metadata_values_are_the_rule_in_use(self, series, tmp_path):
        out = tmp_path / "o.csv"
        assert run(["lsar", "--input", series, "--pbar", "3", "--beta", "1",
                    "--delta-mode", "geometric", "--seed", "4", "--out", str(out)]) == 0
        with open(out) as fh:
            meta = dict(ln[2:].rstrip("\n").split("=", 1) for ln in fh if ln.startswith("# "))
        assert {k: meta[k] for k in self.THEORETICAL | {"bandwidth_multiplier"}} == {
            "epsilon": "0.5", "delta0": "0.10000000000000001", "beta": "1", "constant": "4",
            "delta_mode": "geometric", "rng": "philox", "seed": "4",
            "bandwidth_multiplier": "1"}
