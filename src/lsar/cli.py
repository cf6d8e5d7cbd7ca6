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
from .driver import LsarConfig, run_lsar
from .errors import DataError, IngestError, LsarError, NumericalError
from .exact import exact_pacf, fit_ols
from .sampling import RNG_NAME, DeltaMode, SampleSizeRule, SizeMode
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


# A flag that some mode of its command does not read parses to None when
# absent, so that giving it can be told from its default (SampleSizeRule's
# or LsarConfig's).  The size rule's flags that --fraction leaves unread:
THEORETICAL_FLAGS = ("epsilon", "delta0", "beta", "constant", "delta_mode")
# The flags that pacf reads only with --sampled:
SAMPLED_FLAGS = ("epsilon", "delta0", "fraction", "beta", "constant", "seed",
                 "bandwidth_multiplier")


def _unread_flag(args) -> str | None:
    """The usage error for a given flag that the chosen mode does not read."""
    if args.command == "pacf" and not args.sampled:
        flags, reason = SAMPLED_FLAGS, "only pacf --sampled reads it"
    elif getattr(args, "fraction", None) is not None:
        flags, reason = THEORETICAL_FLAGS, "not allowed with argument --fraction"
    else:
        return None
    for dest in flags:
        if getattr(args, dest, None) is not None:
            return f"argument --{dest.replace('_', '-')}: {reason}"
    return None


def _given(**options) -> dict:
    """The options whose flags were given, that is, are not None."""
    return {key: value for key, value in options.items() if value is not None}


def _size_rule(args, delta_mode: str | None = None) -> SampleSizeRule:
    if args.fraction is not None:
        return SampleSizeRule(SizeMode.FRACTION, fraction=args.fraction)
    return SampleSizeRule(SizeMode.THEORETICAL, **_given(
        epsilon=args.epsilon, delta=args.delta0, beta=args.beta, constant=args.constant,
        delta_mode=DeltaMode(delta_mode) if delta_mode else None))


def _lsar_config(args, delta_mode: str | None = None, refit_full: bool = False) -> LsarConfig:
    """The sampled run of ``lsar`` and ``pacf --sampled``."""
    return LsarConfig(max_order=args.pbar, size_rule=_size_rule(args, delta_mode),
                      refit_full=refit_full,
                      **_given(seed=args.seed, bandwidth_multiplier=args.bandwidth_multiplier))


def sampling_metadata(rule: SampleSizeRule, seed: int) -> dict:
    """The options that set a sampled run's draws: the size rule's (in
    fraction mode only ``fraction``), the generator and its seed.  An empty
    ``beta`` is the rule's p-dependent default."""
    if rule.mode is SizeMode.FRACTION:
        options = {"fraction": rule.fraction}
    else:
        options = {"epsilon": rule.epsilon, "delta0": rule.delta,
                   "beta": "" if rule.beta is None else rule.beta,
                   "constant": rule.constant, "delta_mode": rule.delta_mode.value}
    return {**options, "rng": RNG_NAME, "seed": seed}


def _int_list(text: str) -> list[int]:
    try:
        return [int(item) for item in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _add_rule_flags(parser):
    """--pbar and the size rule's flags."""
    parser.add_argument("--pbar", type=int, required=True,
                        help="largest lag / max order to consider")
    parser.add_argument("--epsilon", type=float,
                        help="error of the theoretical rule (default 0.5)")
    parser.add_argument("--delta0", type=float,
                        help="failure probability of the theoretical rule (default 0.1)")
    parser.add_argument("--fraction", type=float,
                        help="sample-size fraction of n (else the theoretical rule)")
    parser.add_argument("--beta", type=float,
                        help="fixed misestimation factor of the theoretical rule")
    parser.add_argument("--constant", type=float,
                        help="hidden constant of the theoretical rule (default 4)")


def _add_run_flags(parser):
    """The flags of a sampled run: the size rule's, the seed and the band."""
    _add_rule_flags(parser)
    parser.add_argument("--seed", type=_seed, help="sampler seed (default 0)")
    parser.add_argument("--bandwidth-multiplier", type=float,
                        help="scale of the 1.96/sqrt(s) selection band (default 1)")


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
    meta = {"command": "pacf", "n": series.n, "pbar": args.pbar}
    if args.sampled:
        uncentred = warn_if_uncentred(series)
        cfg = _lsar_config(args)
        trace = run_lsar(series, cfg).pacf
        meta.update(mode="sampled", **sampling_metadata(cfg.size_rule, cfg.seed),
                    bandwidth_multiplier=cfg.bandwidth_multiplier)
    else:
        uncentred = {}
        trace = exact_pacf(series, args.pbar)
        meta["mode"] = "exact"
    say(f"selected_order={trace.selected_order}")
    if args.out:
        rows = [
            (int(lag), float(est), float(band))
            for lag, est, band in zip(trace.lags, trace.estimates, trace.bandwidth)
        ]
        meta.update(effective_sample=trace.effective_sample,
                    selected_order=trace.selected_order, **uncentred)
        report.write_csv_report(args.out, ["lag", "pacf", "bandwidth"], rows, meta)
    return 0


def cmd_lsar(args) -> int:
    series = read_series(args.input)
    uncentred = warn_if_uncentred(series)
    cfg = _lsar_config(args, args.delta_mode, args.refit_full)
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
                **sampling_metadata(cfg.size_rule, cfg.seed),
                "bandwidth_multiplier": cfg.bandwidth_multiplier,
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


def _lag_rows(first: int, results) -> list[tuple]:
    """``LAG_HEADER`` rows of a study's (p, *values): the values from value
    column ``first`` on, nan in the other columns."""
    nan = float("nan")
    return [(p, *[nan] * first, *values, *[nan] * (5 - first - len(values)))
            for p, *values in results]


def _write_study(args, series: TimeSeries, header, rows, meta: dict) -> int:
    """Write an ``eval`` report and its ``.txt`` twin."""
    meta = {"command": f"eval.{args.study}", "n": series.n, **meta, **runtime_metadata()}
    report.write_csv_report(args.out, header, rows, meta)
    text_out = args.out + ".txt" if not args.out.endswith(".csv") \
        else args.out[:-4] + ".txt"
    report.write_text_report(text_out, header, rows, meta)
    say(f"study={args.study}")
    say(f"out={args.out}")
    return 0


def cmd_eval_sweep(args) -> int:
    """``eval mpre`` and ``eval timing``: sweeps under the size rule."""
    series = read_series(args.input)
    rule = _size_rule(args)
    if args.study == "mpre":
        first, results = 0, evalbench.mpre_curve(series, args.pbar, rule, args.seed)
    else:
        first, results = 3, evalbench.timing_study(series, args.pbar, rule, args.seed)
    return _write_study(args, series, evalbench.LAG_HEADER, _lag_rows(first, results),
                        sampling_metadata(rule, args.seed))


def cmd_eval_bounds(args) -> int:
    series = read_series(args.input)
    results = evalbench.bound_curves(series, args.pbar, args.epsilon, args.c_log)
    return _write_study(args, series, evalbench.LAG_HEADER, _lag_rows(1, results),
                        {"epsilon": args.epsilon, "c_log": args.c_log})


def cmd_eval_ratios(args) -> int:
    series = read_series(args.input)
    rows = evalbench.ratio_study(series, args.p, args.sizes, args.reps, args.seed)
    return _write_study(args, series, evalbench.SIZE_HEADER, rows,
                        {"p": args.p, "reps": args.reps, "rng": RNG_NAME, "seed": args.seed})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsar",
        description="AR model fitting and order selection via leverage-score sampling",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name, help, func):
        # No abbreviated flags: ``eval mpre --p`` must not pass for --pbar.
        parser = subparsers.add_parser(name, help=help, allow_abbrev=False)
        parser.set_defaults(func=func)
        return parser

    g = command(sub, "generate", "simulate a seeded AR series", cmd_generate)
    g.add_argument("--phi", type=float, nargs="*", default=[])
    g.add_argument("--sigma", type=float, default=1.0)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=_seed, default=0)
    g.add_argument("--burn-in", type=int, default=None)
    g.add_argument("--out", required=True)

    i = command(sub, "ingest", "extract and transform a column of delimited text", cmd_ingest)
    i.add_argument("--input", required=True)
    i.add_argument("--column", default=None, help="header name or 0-based index")
    i.add_argument("--transform", choices=TRANSFORMS, default="none")
    i.add_argument("--delimiter", default=",")
    i.add_argument("--has-header", action=argparse.BooleanOptionalAction, default=None)
    i.add_argument("--out", required=True)

    f = command(sub, "fit", "full-data conditional MLE at a fixed order", cmd_fit)
    f.add_argument("--input", required=True)
    f.add_argument("--p", type=int, required=True)
    f.add_argument("--out", default=None)

    p = command(sub, "pacf", "PACF trace, exact or sampled", cmd_pacf)
    p.add_argument("--input", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", dest="sampled", action="store_false", default=False)
    mode.add_argument("--sampled", dest="sampled", action="store_true")
    _add_run_flags(p)
    p.add_argument("--out", default=None)

    l = command(sub, "lsar", "order selection + sampled fit", cmd_lsar)
    l.add_argument("--input", required=True)
    _add_run_flags(l)
    l.add_argument("--delta-mode", choices=[m.value for m in DeltaMode],
                   help="per-order failure probability of the theoretical rule "
                        "(default per_order)")
    l.add_argument("--refit-full", action="store_true")
    l.add_argument("--out", default=None)

    studies = sub.add_parser("eval", help="evaluation studies").add_subparsers(
        dest="study", required=True)
    for name, help in (("mpre", "score error per lag"),
                       ("timing", "exact vs sampled time per lag")):
        e = command(studies, name, help, cmd_eval_sweep)
        e.add_argument("--input", required=True)
        _add_rule_flags(e)
        e.add_argument("--seed", type=_seed, default=0)
        e.add_argument("--out", required=True)

    b = command(studies, "bounds", "error-bound curves per lag", cmd_eval_bounds)
    b.add_argument("--input", required=True)
    b.add_argument("--pbar", type=int, required=True)
    b.add_argument("--epsilon", type=float, default=0.5)
    b.add_argument("--c-log", type=float, default=1.0)
    b.add_argument("--seed", type=_seed, default=0, help="not read (no draws)")
    b.add_argument("--out", required=True)

    r = command(studies, "ratios", "sampled vs full estimates per sample size", cmd_eval_ratios)
    r.add_argument("--input", required=True)
    r.add_argument("--p", type=int, required=True, help="fixed fit order")
    r.add_argument("--sizes", type=_int_list, default="200,300,400,500,600,700,800,900,1000")
    r.add_argument("--reps", type=int, default=100)
    r.add_argument("--seed", type=_seed, default=0)
    r.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate" and args.n < 2:
        parser.error("--n must be >= 2")
    if getattr(args, "pbar", None) is not None and args.pbar < 1:
        parser.error("--pbar must be >= 1")
    unread = _unread_flag(args)
    if unread:
        parser.error(unread)
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
