"""Recursive leverage-score computation for lagged AR designs.

The Toeplitz structure of the design makes the order-p scores an update of
the order-(p-1) scores: the increment is the normalized squared residual of
the order-(p-1) fit on a window one observation shorter.  One sweep,
`approximate_sweep`, runs the recursion.  Its row policy decides which rows
each of those fits uses:

* all rows (no size rule) -- full-data fits, all read from one nested R
  factor, so the scores are exact and equal the hat-matrix diagonal;
* sampled rows (a size rule) -- reduced fits on rows drawn from the current
  scores: the fully-approximate recursion of LSAR, which carries only
  approximated scores, built from sampled-fit residuals, forward.

For a target order p on a series of length n, intermediate order q runs on
the window of the first ``n - p + q`` observations, so every score vector
in the sweep has the same length ``n - p``.

Order q refreshes, forming new scores and their CDF, when r/q <= the sweep's
``refresh_ratio``, r being the last order that did; the default 1.0 is the
paper's every order.  The orders in between draw from the last CDF, a
beta-approximation that the size rule of Drineas et al. (JMLR 2012) allows,
and solve the reduced problem only.  A refresh at q, scheduled or forced by a
rank-deficient stale draw, adds q - r times the normalized squared residual
of order q - 1, the only full-design residual the sweep forms, squared in
place into the new scores: beside the series a refresh holds two n-vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DataError, NumericalError, RankDeficiencyError, ZeroResidualError
from .exact import LeverageScores, nested_factors, solve_ols
from .sampling import SampleSizeRule, draw_plan, reduced_fit, sample_size
from .series import TimeSeries, make_design

# Residual norms at or below this fraction of the window norm count as an
# exact fit, for which the recursion increment is undefined.
ZERO_RESIDUAL_RTOL = 1e-14


@dataclass(frozen=True)
class RecursionState:
    """Carried state of one recursion sweep after finishing order ``p``.

    ``coefficients`` are the order-p solve on the current window.  ``scores``
    are those the plan was drawn from, formed at this order when
    ``refreshed`` in the buffer of the order-(p - 1) residual; its norm is
    ``residual_norm``, NaN at order 1 and without a refresh.
    """

    p: int
    scores: LeverageScores
    coefficients: np.ndarray
    residual_norm: float
    window: int
    sample_size: int
    refreshed: bool


def ar1_scores(series: TimeSeries) -> LeverageScores:
    """Base case: order-1 scores are ``y_i^2 / sum_{t<n} y_t^2``."""
    y = series.values
    with np.errstate(over="ignore"):
        total = float(np.dot(y[:-1], y[:-1]))
    if not math.isfinite(total):
        raise NumericalError(
            "order-1 scores undefined: the sum of squared lagged values overflows"
        )
    if total <= 0:
        if np.any(y[:-1]):
            raise NumericalError(
                "order-1 scores undefined: the squares of the lagged values underflow"
            )
        raise DataError("order-1 scores undefined: all lagged values are zero")
    return LeverageScores.from_scores(y[:-1] ** 2 / total)


def _advance(scores: LeverageScores, residuals, norm, clamp: bool, weight: int = 1):
    """In place, ``residuals`` becomes ``scores + weight * (residuals / norm)**2``.

    Approximate scores can leave [0, 1] through sampled-residual noise only;
    with ``clamp`` they are clamped before the distribution is formed and
    the clamp count is reported.  Exact scores are never clamped.
    """
    updated = np.square(residuals, out=residuals)
    updated /= norm**2 / weight  # exact for weight 1
    updated += scores.scores
    clamp_count = 0
    # Both terms are nonnegative, so only the upper bound can be crossed.
    # The mask is built only when some score crossed it, which is rare.
    if clamp and updated.max() > 1.0:
        over = updated > 1.0
        clamp_count = int(np.count_nonzero(over))
        updated[over] = 1.0
    return LeverageScores.from_scores(updated, clamp_count)


def approximate_sweep(
    series: TimeSeries,
    target_order: int,
    size_rule: SampleSizeRule | None = None,
    seed: int = 0,
    refresh_ratio: float = 1.0,
) -> Iterator[RecursionState]:
    """Run the recursion up to ``target_order``, yielding the state per order.

    At order q the window holds the first ``n - target_order + q``
    observations.  The yielded state's coefficients are the order-q solve on
    that window; the next refresh forms their residuals.

    Without ``size_rule`` every fit reads the first `nested_factors` factor:
    all rows, so the scores are exact.  With one, every fit is a reduced
    solve on rows drawn from the last refreshed scores, as many as
    ``size_rule`` sets at the failure probability
    ``size_rule.delta_at(q, target_order)``.  A rank-deficient reduced system
    is resampled once with a fresh seed offset before erroring.  The exact
    sweep refreshes every order.  Deterministic given ``seed``.
    """
    n = series.n
    if target_order < 1 or n - target_order < 1:
        raise DataError(f"bad sweep bounds: target {target_order}, n {n}")
    last_refresh, scores, phi, cdf = 0, None, None, None
    factor = next(nested_factors(series, target_order)) if size_rule is None else None
    for q in range(1, target_order + 1):
        window = series.prefix(n - target_order + q)
        refresh = last_refresh / q <= refresh_ratio
        residual_norm = math.nan
        if q == 1:
            scores = ar1_scores(window)
            # |window|^2, grown by one square per order below.
            window_norm2 = float(np.dot(window.values, window.values))
        else:
            last = float(window.values[-1])
            window_norm2 += last * last
        design = make_design(window, q)
        while True:  # twice only when a draw from stale scores is rank deficient
            if q > 1 and refresh:
                cdf = None  # freed before the residual is formed
                residuals = make_design(series.prefix(window.n - 1), q - 1).residuals(phi)
                residual_norm = float(np.linalg.norm(residuals))
                # A perfect previous fit makes the increment 0/0; abort rather
                # than mask it, since every later order would inherit the damage.
                if residual_norm <= ZERO_RESIDUAL_RTOL * math.sqrt(window_norm2):
                    raise ZeroResidualError(q - 1, residual_norm)
                scores = _advance(scores, residuals, residual_norm, size_rule is not None,
                                  q - last_refresh)
            last_refresh = q if refresh else last_refresh
            if size_rule is None:
                s = design.row_count
                phi = solve_ols(factor[:q + 1, :q + 1])[::-1]
                break
            s = sample_size(size_rule, q, window.n, size_rule.delta_at(q, target_order))
            cdf = scores.cdf() if cdf is None else cdf
            try:
                phi = _reduced_fit_with_retry(design, scores, cdf, s, seed, q)
                break
            except RankDeficiencyError:
                if refresh:
                    raise
                # Stale scores can starve rows this order needs, as after an
                # outlier or a perfect fit: refresh this order and draw again.
                refresh = True
        yield RecursionState(p=q, scores=scores, coefficients=phi, residual_norm=residual_norm,
                             window=window.n, sample_size=s, refreshed=refresh)


def _reduced_fit_with_retry(design, scores, cdf, s, seed, q):
    # With-replacement draws can hit a degenerate row multiset; one retry
    # with a fresh seed offset keeps the pipeline deterministic given seed.
    try:
        return reduced_fit(design, draw_plan(scores, s, seed, q, 0, cdf=cdf))
    except RankDeficiencyError:
        return reduced_fit(design, draw_plan(scores, s, seed, q, 1, cdf=cdf))
