"""Desk-scale evaluation studies: score-approximation error curves, error
bound curves, sampled-versus-full estimate ratios, a uniform-sampling
baseline, and timing comparisons.

All studies emit plot-ready tabular rows; rendering is downstream tooling's
job.  Column orders are fixed:

* per-lag rows: ``p, mpre, bound_linear, bound_log, time_exact, time_approx``
* per-sample-size rows: ``s, scheme, rel_param_err, resid_ratio, excluded``
"""

from __future__ import annotations

import math
import time

import numpy as np

from .errors import DataError, RankDeficiencyError
from .exact import LeverageScores, _check_rank, check_max_lag, exact_leverage, \
    fit_from_coefficients, fit_ols, nested_factors, solve_ols
from .recursion import approximate_sweep
from .sampling import SampleSizeRule, SamplingPlan, draw_plan, make_rng, reduced_fit
from .series import TimeSeries, make_design

LAG_HEADER = ("p", "mpre", "bound_linear", "bound_log", "time_exact", "time_approx")
SIZE_HEADER = ("s", "scheme", "rel_param_err", "resid_ratio", "excluded")
# Row-sampling schemes of `ratio_study`, in row order.
SCHEMES = ("leverage", "uniform")
# `timing_study` discards WARMUP runs, then takes the median of REPETITIONS.
WARMUP, REPETITIONS = 1, 3


def _triangular_spectrum(r: np.ndarray) -> tuple[float, float]:
    """Largest/smallest singular value of an upper-triangular factor of full
    rank by `_check_rank`."""
    _check_rank(np.diag(r), r.shape[0])
    singular = np.linalg.svd(r, compute_uv=False)
    return float(singular[0]), float(singular[-1])


def conditioning_kappa(r: np.ndarray) -> float:
    """Condition number ``smax / smin`` of an upper-triangular factor."""
    smax, smin = _triangular_spectrum(r)
    return smax / smin


def conditioning(r: np.ndarray) -> float:
    """eta, the conditioning entering the sampled-OLS error bounds, from the
    R factor of a design's ``[X | y]``.

    With xi the fraction of the response captured by the fit,
    ``|X phi| / |y|``, and kappa the condition number of X, eta is
    ``kappa * sqrt(xi^-2 - 1)``.  For a (q + 1, q + 1) ``r``, kappa
    comes from the singular values of ``R[:q, :q]``, and with
    ``Q^T y = R[:, q]``, ``|X phi| = |R[:q, q]|`` and ``|y| = |R[:q+1, q]|``.
    """
    q = r.shape[1] - 1
    kappa = conditioning_kappa(r[:q, :q])
    explained = float(np.linalg.norm(r[:q, q]))
    total = float(np.linalg.norm(r[:, q]))
    xi = min(explained / total, 1.0) if total > 0 else 1.0
    return kappa * math.sqrt(max(xi**-2 - 1.0, 0.0))


def mpre(exact: LeverageScores, approx: LeverageScores) -> float:
    """Maximum pointwise relative error of approximate scores."""
    if len(exact) != len(approx):
        raise DataError(
            f"score lengths differ: {len(exact)} vs {len(approx)}"
        )
    zero = np.flatnonzero(exact.scores == 0)
    if zero.size:
        raise DataError(
            f"exact score is zero at index {int(zero[0])}; relative error undefined"
        )
    return float(np.max(np.abs(approx.scores - exact.scores) / exact.scores))


def mpre_curve(
    series: TimeSeries,
    max_lag: int,
    size_rule: SampleSizeRule,
    seed: int,
) -> list[tuple[int, float]]:
    """Observed MPRE per lag from one fully-approximate sweep.

    The exact sweep runs on the same growing windows, so both sides see
    identical designs; they share the order-1 scores, whose MPRE is 0.
    """
    check_max_lag(max_lag, series.n)
    return [(exact.p, mpre(exact.scores, approx.scores))
            for exact, approx in zip(approximate_sweep(series, max_lag),
                                     approximate_sweep(series, max_lag, size_rule, seed))]


def bound_linear_value(eta: float, kappa_p: float, p: int, epsilon: float) -> float:
    return (1.0 + 3.0 * eta * kappa_p**2) * (p - 1) * math.sqrt(epsilon)


def bound_curves(
    series: TimeSeries,
    max_lag: int,
    epsilon: float,
    c_log: float = 1.0,
) -> list[tuple[int, float, float]]:
    """Per-lag error-bound curves: the proven (p - 1) factor and the
    conjectured scaled log(p) variant.

    The bound at lag p needs eta of the order-(p - 1) fit on the first
    n - 1 values, and kappa_p of the order-p design.  That fit's windows
    are the order-p design's rows, so lag p's `nested_factors` factor cut
    to (p, p) is the R of both.

    Row format: (p, bound_linear, bound_log).
    """
    if not 0 < epsilon < 1:
        raise DataError(f"epsilon must be in (0,1), got {epsilon}")
    if not 0 < c_log < math.inf:
        raise DataError(f"c_log must be positive and finite, got {c_log}")
    check_max_lag(max_lag, series.n)
    rows = []
    for p, f in zip(range(max_lag, 1, -1), nested_factors(series, max_lag)):
        r = f[:p, :p]
        linear = bound_linear_value(conditioning(r), conditioning_kappa(r), p, epsilon)
        rows.append((p, linear, linear / (p - 1) * c_log * math.log(p)))
    return [(1, 0.0, 0.0)] + rows[::-1] if max_lag >= 1 else []


def uniform_plan(m_rows: int, s: int, *seed_words) -> SamplingPlan:
    """Uniform with-replacement baseline plan with the matching rescaling."""
    rng = make_rng(*seed_words)
    indices = rng.integers(0, m_rows, size=s)
    return SamplingPlan(indices.astype(np.int64), np.full(s, math.sqrt(m_rows / s)))


def ratio_study(
    series: TimeSeries,
    p: int,
    sizes: list[int],
    reps: int,
    seed: int,
) -> list[tuple[int, str, float, float, int]]:
    """Sampled-versus-full estimate quality per sample size and scheme.

    For each (s, scheme): the mean over reps of ``|phi_s - phi| / |phi|``
    and ``|r_s| / |r|``.  Rank-deficient reduced fits are excluded and
    counted in the last column.
    """
    if reps < 1:
        raise DataError(f"reps must be >= 1, got {reps}")
    design = make_design(series, p)
    if any(s < p + 1 for s in sizes):
        raise DataError(f"all sample sizes must be >= p + 1 = {p + 1}")
    full = fit_ols(design)
    phi_norm = float(np.linalg.norm(full.coefficients))
    scores = exact_leverage(design)
    cdf = scores.cdf()
    rows = []
    for s in sizes:
        for scheme in SCHEMES:
            err_sum = 0.0
            ratio_sum = 0.0
            excluded = 0
            for rep in range(reps):
                try:
                    if scheme == "leverage":
                        plan = draw_plan(scores, s, seed, p, s, rep, 0, cdf=cdf)
                    else:
                        plan = uniform_plan(design.row_count, s, seed, p, s, rep, 1)
                    phi = solve_ols(reduced_fit(design, plan))
                    fit = fit_from_coefficients(design, phi)
                except RankDeficiencyError:
                    excluded += 1
                    continue
                err_sum += float(
                    np.linalg.norm(fit.coefficients - full.coefficients)
                ) / phi_norm
                ratio_sum += fit.residual_norm / full.residual_norm
            used = reps - excluded
            if used == 0:
                raise DataError(
                    f"every reduced fit at s={s}, scheme={scheme} was rank deficient"
                )
            rows.append((s, scheme, err_sum / used, ratio_sum / used, excluded))
    return rows


def timing_study(
    series: TimeSeries,
    max_lag: int,
    size_rule: SampleSizeRule,
    seed: int,
) -> list[tuple[int, float, float]]:
    """Per-lag wall time of exact scores versus the approximate sweep.

    Monotonic clock, ``WARMUP`` discarded runs, then the median of
    ``REPETITIONS`` runs per lag.  Within a run the two alternate lag by
    lag, so load that comes and goes on the host hits both columns alike.
    Row format: (p, time_exact, time_approx).
    """
    check_max_lag(max_lag, series.n)
    runs = np.empty((REPETITIONS, max_lag, 2))
    for run in range(WARMUP + REPETITIONS):
        sweep = approximate_sweep(series, max_lag, size_rule, seed)
        for p in range(1, max_lag + 1):
            window = series.prefix(series.n - max_lag + p)
            t0 = time.perf_counter()
            exact_leverage(make_design(window, p))
            t1 = time.perf_counter()
            next(sweep)
            if run >= WARMUP:
                runs[run - WARMUP, p - 1] = t1 - t0, time.perf_counter() - t1
    median = np.median(runs, axis=0)
    return [(p, float(exact), float(approx))
            for p, (exact, approx) in enumerate(median, start=1)]
