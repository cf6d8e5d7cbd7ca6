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
import sys
import warnings

import numpy as np

from . import BLAS_THREADS, evalbench, report
from .driver import REFRESH_RATIO, LsarConfig, run_lsar
from .errors import LsarError, NumericalError
from .exact import exact_pacf, fit_ols
from .report import format_value, read_series, write_series
from .sampling import RNG_NAME, DeltaMode, SampleSizeRule
from .series import ARGeneratorSpec, TimeSeries, center, generate_ar, log_diff, \
    make_design

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def say(line: str):
    print(f"lsar: {line}")


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
    """The rule of the given flags; with --fraction, `_unread_flag` has
    refused every theoretical one."""
    return SampleSizeRule(**_given(
        fraction=args.fraction, epsilon=args.epsilon, delta=args.delta0, beta=args.beta,
        constant=args.constant, delta_mode=DeltaMode(delta_mode) if delta_mode else None))


def _lsar_config(args, delta_mode: str | None = None, refit_full: bool = False) -> LsarConfig:
    """The sampled run of ``lsar`` and ``pacf --sampled``."""
    return LsarConfig(max_order=args.pbar, size_rule=_size_rule(args, delta_mode),
                      refit_full=refit_full,
                      **_given(seed=args.seed, bandwidth_multiplier=args.bandwidth_multiplier))


def sampling_metadata(rule: SampleSizeRule, seed: int) -> dict:
    """The options that set a sampled run's draws: the size rule's (in
    fraction mode only ``fraction``), the generator and its seed.  An empty
    ``beta`` is the rule's p-dependent default."""
    if rule.fraction is not None:
        options = {"fraction": rule.fraction}
    else:
        options = {"epsilon": rule.epsilon, "delta0": rule.delta,
                   "beta": "" if rule.beta is None else rule.beta,
                   "constant": rule.constant, "delta_mode": rule.delta_mode.value}
    return {**options, "rng": RNG_NAME, "seed": seed}


def refresh_metadata(result) -> dict:
    """The refreshing orders, the ratio that picks them and the rows they factored."""
    refreshed = [r for r in result.per_order_log if r.refreshed]
    return {"refresh_ratio": REFRESH_RATIO,
            "refresh_orders": ",".join(str(r.p) for r in refreshed),
            "factored_rows": sum(r.sample_size for r in refreshed)}


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


def _at_least(low: int):
    """The argparse type of an integer flag whose values start at ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse's message for a ValueError: "invalid int value"
    return parse


def _add_rule_flags(parser):
    """--pbar and the size rule's flags."""
    parser.add_argument("--pbar", type=_at_least(1), required=True,
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
    say(f"min={format_value(float(series.values.min()))}")
    say(f"max={format_value(float(series.values.max()))}")
    say(f"mean={format_value(float(series.values.mean()))}")
    return 0


def cmd_fit(args) -> int:
    series = read_series(args.input)
    fit = fit_ols(make_design(series, args.p))
    say("phi=" + ",".join(format_value(c) for c in fit.coefficients))
    say(f"sigma2={format_value(fit.noise_variance)}")
    say(f"residual_norm={format_value(fit.residual_norm)}")
    if args.out:
        rows = [(k + 1, float(c)) for k, c in enumerate(fit.coefficients)]
        meta = {"command": "fit", "p": args.p, "n": series.n,
                "sigma2": fit.noise_variance, "residual_norm": fit.residual_norm,
                **runtime_metadata()}
        report.write_csv_report(args.out, ["lag", "phi"], rows, meta)
    return 0


def cmd_pacf(args) -> int:
    series = read_series(args.input)
    meta = {"command": "pacf", "n": series.n, "pbar": args.pbar}
    if args.sampled:
        uncentred = warn_if_uncentred(series)
        cfg = _lsar_config(args)
        result = run_lsar(series, cfg)
        trace = result.pacf
        meta.update(mode="sampled", **sampling_metadata(cfg.size_rule, cfg.seed),
                    bandwidth_multiplier=cfg.bandwidth_multiplier, **refresh_metadata(result))
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
                    selected_order=trace.selected_order, **runtime_metadata(), **uncentred)
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
        say("phi=" + ",".join(format_value(c) for c in result.final_fit.coefficients))
    if args.out:
        # Report bodies are bit-reproducible for a fixed seed, so per-order
        # wall times stay out of the rows; only the total goes into metadata.
        rows = [
            (r.p, r.window, r.sample_size, r.clamp_count, float(r.residual_norm),
             float(r.pacf_estimate), float(r.bandwidth))
            for r in result.per_order_log
        ]
        meta = {"command": "lsar", "n": series.n, "pbar": args.pbar,
                **sampling_metadata(cfg.size_rule, cfg.seed),
                "bandwidth_multiplier": cfg.bandwidth_multiplier,
                **refresh_metadata(result), "selected_order": result.selected_order,
                "total_wall_time": result.wall_time, **runtime_metadata(), **uncentred}
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
        # ``main`` reports usage errors through the parser that ran.
        parser = subparsers.add_parser(name, help=help, allow_abbrev=False)
        parser.set_defaults(func=func, parser=parser)
        return parser

    g = command(sub, "generate", "simulate a seeded AR series", cmd_generate)
    g.add_argument("--phi", type=float, nargs="*", default=[])
    g.add_argument("--sigma", type=float, default=1.0)
    g.add_argument("--n", type=_at_least(2), required=True)
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
    b.add_argument("--pbar", type=_at_least(1), required=True)
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
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    unread = _unread_flag(args)
    if unread:
        args.parser.error(unread)
    try:
        with warnings.catch_warnings(record=True) as caught:  # each said once, below
            warnings.simplefilter("always", UserWarning)
            try:
                return args.func(args)
            finally:
                for message in dict.fromkeys(str(w.message) for w in caught):
                    say(f"warning={message}")
    except NumericalError as err:
        print(f"lsar: error={type(err).__name__} {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except LsarError as err:
        print(f"lsar: error={type(err).__name__} {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
