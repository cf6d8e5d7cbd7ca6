"""Command-line surface.

Subcommands: ``generate`` (synthetic AR series), ``ingest`` (delimited text
to a series file, with optional transform), ``fit`` (full CMLE), ``pacf``
(exact or sampled trace), ``lsar`` (order selection + fit), ``eval``
(mpre / bounds / ratios / timing studies).

All machine-readable output goes to CSV reports written atomically; stdout
summary lines are prefixed ``lsar:`` for scraping.  Exit codes: 2 usage,
3 data errors, 4 numerical errors.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
import warnings

import numpy as np

from . import BLAS_THREADS, evalbench, report
from .driver import DeltaMode, LsarConfig, run_lsar
from .errors import DataError, IngestError, LsarError, NumericalError
from .exact import exact_pacf, fit_ols
from .sampling import RNG_NAME, SampleSizeRule, SizeMode
from .series import ARGeneratorSpec, TimeSeries, center, generate_ar, log_diff, \
    make_design

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def say(line: str):
    print(f"lsar: {line}")


def fmt(value: float) -> str:
    return report.FLOAT_FORMAT % value


# The line scan skips lines that start with ``#`` wherever they are, which
# numpy's reader would parse, and float() rejects the separators
# \x1c-\x1f that numpy strips as whitespace.  Files holding any of these
# characters are read by the scan alone.
SCAN_ONLY_CHARS = "#\x1c\x1d\x1e\x1f"
# Values formatted per chunk by ``write_series``: about 0.4 MB of text and
# 4 MB of working arrays.
WRITE_CHUNK = 2**14
# ``write_series`` puts a binary copy of the values next to the text, in
# ``<path>.lsarbin``: 8 bytes of magic and version, the SHA-256 of the text's
# bytes followed by the payload, then the payload, little-endian float64.
SIDECAR_SUFFIX = ".lsarbin"
SIDECAR_MAGIC = b"LSARF64\x01"
# Bytes of text hashed per read when a sidecar is checked.
HASH_CHUNK = 1 << 20


def read_series(path: str, column: str | None = None, delimiter: str = ",",
                has_header: bool | None = None) -> TimeSeries:
    """Load one numeric column from a delimited text file.

    ``column`` may be a header name or a 0-based index.  With the default
    arguments this reads the single-column files written by ``generate``
    and ``ingest``.  Blank lines and lines starting with ``#`` are skipped.
    The column is parsed by numpy's C reader; a file that reader rejects, or
    might read differently, is parsed line by line, which names the first
    bad row.  A UTF-8 byte-order mark is dropped.

    With the default arguments a file whose sidecar (see ``write_series``)
    matches its bytes is not parsed: the sidecar holds the same values.
    """
    if column is None and delimiter == "," and has_header is None:
        values = _read_sidecar(path)
        if values is not None:
            return TimeSeries(values)
    if not delimiter:
        raise IngestError("the delimiter must not be empty")
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for skipped, first in enumerate(fh):
                if first.strip() and not first.startswith("#"):
                    break
            else:
                raise IngestError(f"{path} contains no data rows")
            chunks = itertools.chain([first], iter(functools.partial(fh.read, 1 << 20), ""))
            scan_only = any(c in chunk for chunk in chunks for c in SCAN_ONLY_CHARS)
    except (OSError, UnicodeDecodeError) as err:
        raise IngestError(f"cannot read {path}: {err}") from err
    fields = first.strip().split(delimiter)
    header: list[str] | None = None
    if has_header is None:
        has_header = not _is_number(fields[0])
    if has_header:
        header = [h.strip() for h in fields]
        skipped += 1
    if column is None:
        if header is not None and len(header) > 1:
            raise IngestError(
                f"{path} has {len(header)} columns; pick one of {header}"
            )
        col_idx = 0
    elif column.isdigit() or (column.startswith("-") and column[1:].isdigit()):
        col_idx = int(column)
    else:
        if header is None or column not in header:
            available = header if header is not None else "(no header row)"
            raise IngestError(f"column {column!r} not found; available: {available}")
        col_idx = header.index(column)
    values = None
    # Splitting a stripped line on whitespace is not how numpy splits it.
    if not scan_only and len(delimiter) == 1 and not delimiter.isspace():
        try:
            with warnings.catch_warnings():
                # A file without data rows reads as empty; TimeSeries rejects it.
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(path, delimiter=delimiter, comments=None,
                                    usecols=col_idx, skiprows=skipped, ndmin=1,
                                    encoding="utf-8-sig")
        except (ValueError, OverflowError, OSError):
            pass
    if values is None:
        values = _scan_column(path, col_idx, delimiter, has_header)
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0]) + (2 if has_header else 1)
        raise IngestError(f"{path}: non-finite value at row {bad}")
    return TimeSeries(values)


def _scan_column(path: str, col_idx: int, delimiter: str, has_header: bool) -> np.ndarray:
    """Parse column ``col_idx`` line by line; errors name the data row."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    except (OSError, UnicodeDecodeError) as err:
        raise IngestError(f"cannot read {path}: {err}") from err
    if has_header:
        lines = lines[1:]
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
    return values


def _read_sidecar(path: str) -> np.ndarray | None:
    """The values of ``path``'s sidecar, or None unless its digest matches
    the bytes of ``path`` followed by the payload."""
    try:
        with open(path + SIDECAR_SUFFIX, "rb") as fh:
            head = fh.read(len(SIDECAR_MAGIC) + 32)
            if not head.startswith(SIDECAR_MAGIC):
                return None
            values = np.fromfile(fh, dtype="<f8")
            if fh.read(1):  # a partial value at the end
                return None
        import hashlib

        digest = hashlib.sha256()
        buffer = memoryview(bytearray(HASH_CHUNK))
        with open(path, "rb") as fh:
            while size := fh.readinto(buffer):
                digest.update(buffer[:size])
        digest.update(values)
    except OSError:
        return None
    return values if digest.digest() == head[len(SIDECAR_MAGIC):] else None


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def write_series(path: str, series: TimeSeries):
    """Single-column ``y`` report without metadata, and its sidecar.

    Values are formatted ``WRITE_CHUNK`` at a time by ``report.float_lines``,
    so the text of the whole column never exists at once.  The sidecar
    (``SIDECAR_SUFFIX``) is best-effort: if it cannot be written, the text
    alone holds the series and ``read_series`` parses it.
    """
    import hashlib

    values = series.values
    digest = hashlib.sha256()

    def chunks():
        yield b"y\n"
        for start in range(0, values.size, WRITE_CHUNK):
            yield report.float_lines(values[start: start + WRITE_CHUNK]).encode()

    def hashed(chunks):
        for chunk in chunks:
            digest.update(chunk)
            yield chunk

    report._atomic_write(path, hashed(chunks()), binary=True)
    payload = np.ascontiguousarray(values, dtype="<f8")
    digest.update(payload)
    try:
        report._atomic_write(path + SIDECAR_SUFFIX, [SIDECAR_MAGIC, digest.digest(), payload],
                             binary=True)
    except DataError:
        pass


def runtime_metadata() -> dict:
    """What a report needs to diagnose a run: BLAS threads and numpy version.

    ``blas_threads`` is the setting numpy's BLAS was loaded with (see
    ``lsar.BLAS_THREADS``); ``Generator.choice`` streams are not promised
    stable across numpy releases, hence the version.
    """
    return {"blas_threads": BLAS_THREADS, "numpy": np.__version__}


def warn_if_uncentred(series: TimeSeries) -> dict:
    """Say a warning when |mean| exceeds the standard deviation.

    The AR model has no intercept, so it fits such an offset as a
    near-unit root and selects an order that says nothing about the
    dynamics around the mean.  Returns the warning as report metadata.
    """
    peak = float(np.abs(series.values).max())
    if peak == 0.0:
        return {}
    # Scaled to a peak of 1, the squares behind the std neither overflow
    # nor underflow, and the comparison does not depend on the scale.
    unit = series.values / peak
    mean = abs(float(unit.mean())) * peak
    std = float(unit.std()) * peak
    if mean <= std:
        return {}
    warning = (f"uncentred input: |mean| {mean:.6g} exceeds std {std:.6g}; "
               "the model has no intercept, so center the series first "
               "(ingest --transform center)")
    say(f"warning={warning}")
    return {"warning": warning}


def _size_rule(args) -> SampleSizeRule:
    if args.fraction is not None:
        return SampleSizeRule(
            mode=SizeMode.FRACTION,
            epsilon=args.epsilon,
            delta=args.delta0,
            fraction=args.fraction,
        )
    return SampleSizeRule(
        mode=SizeMode.THEORETICAL,
        epsilon=args.epsilon,
        delta=args.delta0,
        beta=args.beta,
        constant=args.constant,
    )


def _int_list(text: str) -> list[int]:
    try:
        return [int(item) for item in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _add_sampling_flags(parser, pbar_required=True):
    parser.add_argument("--pbar", type=int, required=pbar_required,
                        help="largest lag / max order to consider")
    parser.add_argument("--epsilon", type=float, default=0.5)
    parser.add_argument("--delta0", type=float, default=0.1)
    parser.add_argument("--fraction", type=float, default=None,
                        help="sample-size fraction of n (else theoretical rule)")
    parser.add_argument("--beta", type=float, default=None,
                        help="fixed misestimation factor for the theoretical rule")
    parser.add_argument("--constant", type=float, default=4.0,
                        help="hidden constant of the theoretical sample-size rule")
    parser.add_argument("--seed", type=int, default=0)


def cmd_generate(args) -> int:
    spec = ARGeneratorSpec(
        coefficients=np.array(args.phi, dtype=float),
        noise_std=args.sigma,
        n=args.n,
        seed=args.seed,
        burn_in=args.burn_in,
    )
    series = generate_ar(spec)
    write_series(args.out, series)
    say(f"n={series.n}")
    say(f"seed={args.seed}")
    say(f"out={args.out}")
    return 0


TRANSFORMS = ("none", "center", "log_diff", "log_diff_center")


def cmd_ingest(args) -> int:
    series = read_series(
        args.input,
        column=args.column,
        delimiter=args.delimiter,
        has_header=args.has_header,
    )
    original_n = series.n
    if args.transform in ("log_diff", "log_diff_center"):
        series = log_diff(series)
    if args.transform in ("center", "log_diff_center"):
        series = center(series)
    write_series(args.out, series)
    say(f"original_n={original_n}")
    say(f"transformed_n={series.n}")
    say(f"min={fmt(float(series.values.min()))}")
    say(f"max={fmt(float(series.values.max()))}")
    say(f"mean={fmt(float(series.values.mean()))}")
    return 0


def cmd_fit(args) -> int:
    series = read_series(args.input)
    fit = fit_ols(make_design(series, args.p))
    say("phi=" + ",".join(fmt(c) for c in fit.coefficients))
    say(f"sigma2={fmt(fit.noise_variance)}")
    say(f"residual_norm={fmt(fit.residual_norm)}")
    if args.out:
        rows = [(k + 1, float(c)) for k, c in enumerate(fit.coefficients)]
        meta = {"command": "fit", "p": args.p, "n": series.n,
                "sigma2": fit.noise_variance, "residual_norm": fit.residual_norm}
        report.write_csv_report(args.out, ["lag", "phi"], rows, meta)
    return 0


def cmd_pacf(args) -> int:
    series = read_series(args.input)
    uncentred = warn_if_uncentred(series) if args.sampled else {}
    if args.sampled:
        cfg = LsarConfig(
            max_order=args.pbar,
            size_rule=_size_rule(args),
            bandwidth_multiplier=args.bandwidth_multiplier,
            seed=args.seed,
        )
        trace = run_lsar(series, cfg).pacf
    else:
        trace = exact_pacf(series, args.pbar)
    say(f"selected_order={trace.selected_order}")
    if args.out:
        rows = [
            (int(lag), float(est), float(band))
            for lag, est, band in zip(trace.lags, trace.estimates, trace.bandwidth)
        ]
        meta = {"command": "pacf", "mode": "sampled" if args.sampled else "exact",
                "n": series.n, "pbar": args.pbar, "effective_sample": trace.effective_sample,
                "rng": RNG_NAME, "seed": args.seed, "selected_order": trace.selected_order,
                **uncentred}
        report.write_csv_report(args.out, ["lag", "pacf", "bandwidth"], rows, meta)
    return 0


def cmd_lsar(args) -> int:
    series = read_series(args.input)
    uncentred = warn_if_uncentred(series)
    cfg = LsarConfig(
        max_order=args.pbar,
        size_rule=_size_rule(args),
        bandwidth_multiplier=args.bandwidth_multiplier,
        seed=args.seed,
        delta_mode=DeltaMode(args.delta_mode),
        refit_full=args.refit_full,
    )
    result = run_lsar(series, cfg)
    say(f"p*={result.selected_order}")
    if result.aborted_at is not None:
        say(f"aborted_at={result.aborted_at}")
        say(f"abort_reason={result.abort_reason}")
    if result.weak_selection:
        say("warning=no lag reached the zero-confidence band")
    if result.final_fit is not None:
        say("phi=" + ",".join(fmt(c) for c in result.final_fit.coefficients))
    if args.out:
        # Report bodies are bit-reproducible for a fixed seed, so per-order
        # wall times stay out of the rows; only the total goes into metadata.
        rows = [
            (r.p, r.window, r.sample_size, r.clamp_count, float(r.residual_norm),
             float(r.pacf_estimate), float(r.bandwidth))
            for r in result.per_order_log
        ]
        total_time = sum(r.wall_time for r in result.per_order_log)
        meta = {"command": "lsar", "n": series.n, "pbar": args.pbar,
                "epsilon": args.epsilon, "delta0": args.delta0,
                "fraction": args.fraction if args.fraction is not None else "",
                "bandwidth_multiplier": args.bandwidth_multiplier,
                "delta_mode": args.delta_mode, "rng": RNG_NAME, "seed": args.seed,
                "selected_order": result.selected_order,
                "total_wall_time": float(total_time), **runtime_metadata(), **uncentred}
        report.write_csv_report(
            args.out,
            ["p", "window", "s", "clamp_count", "residual_norm", "pacf",
             "bandwidth"],
            rows,
            meta,
        )
    return 0


def cmd_eval(args) -> int:
    series = read_series(args.input)
    rule = _size_rule(args)
    meta = {"rng": RNG_NAME, "seed": args.seed, "n": series.n,
            "command": f"eval.{args.study}", **runtime_metadata()}
    if args.study in ("mpre", "bounds", "timing"):
        if args.pbar is None:
            raise DataError(f"eval {args.study} needs --pbar")
        lag_rows = {p: [float("nan")] * 5 for p in range(1, args.pbar + 1)}
        if args.study == "mpre":
            for p, value in evalbench.mpre_curve(series, args.pbar, rule, args.seed):
                lag_rows[p][0] = value
        elif args.study == "bounds":
            for p, linear, logv in evalbench.bound_curves(series, args.pbar,
                                                          args.epsilon, args.c_log):
                lag_rows[p][1] = linear
                lag_rows[p][2] = logv
        else:
            for p, t_exact, t_approx in evalbench.timing_study(
                series, args.pbar, rule, args.seed
            ):
                lag_rows[p][3] = t_exact
                lag_rows[p][4] = t_approx
        rows = [(p, *vals) for p, vals in sorted(lag_rows.items())]
        header = evalbench.LAG_HEADER
    elif args.study == "ratios":
        if args.p is None:
            raise DataError("eval ratios needs --p (the fixed fit order)")
        rows = evalbench.ratio_study(series, args.p, args.sizes, args.reps, args.seed)
        header = evalbench.SIZE_HEADER
        meta["p"] = args.p
        meta["reps"] = args.reps
    else:
        raise DataError(f"unknown study {args.study!r}")
    report.write_csv_report(args.out, header, rows, meta)
    text_out = args.out + ".txt" if not args.out.endswith(".csv") \
        else args.out[:-4] + ".txt"
    report.write_text_report(text_out, header, rows, meta)
    say(f"study={args.study}")
    say(f"out={args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsar",
        description="AR model fitting and order selection via leverage-score sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="simulate a seeded AR series")
    g.add_argument("--phi", type=float, nargs="*", default=[])
    g.add_argument("--sigma", type=float, default=1.0)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--burn-in", type=int, default=None)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    i = sub.add_parser("ingest", help="extract and transform a column of delimited text")
    i.add_argument("--input", required=True)
    i.add_argument("--column", default=None, help="header name or 0-based index")
    i.add_argument("--transform", choices=TRANSFORMS, default="none")
    i.add_argument("--delimiter", default=",")
    i.add_argument("--has-header", action=argparse.BooleanOptionalAction, default=None)
    i.add_argument("--out", required=True)
    i.set_defaults(func=cmd_ingest)

    f = sub.add_parser("fit", help="full-data conditional MLE at a fixed order")
    f.add_argument("--input", required=True)
    f.add_argument("--p", type=int, required=True)
    f.add_argument("--out", default=None)
    f.set_defaults(func=cmd_fit)

    p = sub.add_parser("pacf", help="PACF trace, exact or sampled")
    p.add_argument("--input", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", dest="sampled", action="store_false", default=False)
    mode.add_argument("--sampled", dest="sampled", action="store_true")
    _add_sampling_flags(p)
    p.add_argument("--bandwidth-multiplier", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pacf)

    l = sub.add_parser("lsar", help="order selection + sampled fit")
    l.add_argument("--input", required=True)
    _add_sampling_flags(l)
    l.add_argument("--bandwidth-multiplier", type=float, default=1.0)
    l.add_argument("--delta-mode", choices=[m.value for m in DeltaMode],
                   default=DeltaMode.PER_ORDER.value)
    l.add_argument("--refit-full", action="store_true")
    l.add_argument("--out", default=None)
    l.set_defaults(func=cmd_lsar)

    e = sub.add_parser("eval", help="evaluation studies")
    e.add_argument("study", choices=["mpre", "bounds", "ratios", "timing"])
    e.add_argument("--input", required=True)
    _add_sampling_flags(e, pbar_required=False)
    e.add_argument("--p", type=int, default=None, help="fixed order for ratios")
    e.add_argument("--sizes", type=_int_list, default="200,300,400,500,600,700,800,900,1000")
    e.add_argument("--reps", type=int, default=100)
    e.add_argument("--c-log", type=float, default=1.0)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "n", None) is not None and args.command == "generate" and args.n < 2:
        parser.error("--n must be >= 2")
    if getattr(args, "pbar", None) is not None and args.pbar < 1:
        parser.error("--pbar must be >= 1")
    try:
        return args.func(args)
    except NumericalError as err:
        print(f"lsar: error={type(err).__name__} {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except LsarError as err:
        print(f"lsar: error={type(err).__name__} {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
