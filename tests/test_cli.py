import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsar
from lsar import IngestError, LsarError, cli, generate_ar, report
from lsar.cli import EXIT_DATA, EXIT_NUMERICAL, WRITE_CHUNK, main, read_series, write_series
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
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise IngestError(f"{path} contains no data rows")
    first = lines[0].split(delimiter)
    header = None
    if has_header is None:
        has_header = not cli._is_number(first[0])
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
            raise IngestError(
                f"{path}: cannot parse column {col_idx} at row {data_row}: {err}"
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

        monkeypatch.setattr(cli, "_scan_column", no_scan)
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

    def test_undecodable_file_is_ingest_error(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_bytes(b"y\n1\n\xff\xfe\n")
        with pytest.raises(IngestError, match="cannot read"):
            read_series(str(path))

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

    def test_lag_study_requires_pbar(self, tmp_path, capsys):
        gen = series_file(tmp_path, np.arange(1.0, 50.0).tolist())
        code = run(["eval", "mpre", "--input", gen,
                    "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_DATA


class TestAtomicWrites:
    def test_no_partial_files_left(self, tmp_path):
        path = series_file(tmp_path, [1.0, 2.0, 3.0])
        assert run(["fit", "--input", path, "--p", "1",
                    "--out", str(tmp_path / "fit.csv")]) == 0
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []


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
