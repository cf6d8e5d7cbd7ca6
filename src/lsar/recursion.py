"""Recursive leverage-score computation for lagged AR designs.

The Toeplitz structure of the design makes the order-p scores an update of
the order-(p-1) scores: the increment is the normalized squared residual of
the order-(p-1) fit on a window one observation shorter.  One sweep,
`approximate_sweep`, runs the recursion.  Its row policy decides which rows
each of those fits uses:

* all rows (no size rule) -- full-data fits, so the scores are exact;
* sampled rows (a size rule) -- reduced fits on rows drawn from the current
  scores: the fully-approximate recursion of LSAR, which carries only
  approximated scores, built from sampled-fit residuals, forward.

For a target order p on a series of length n, intermediate order q runs on
the window of the first ``n - p + q`` observations, so every score vector
in the sweep has the same length ``n - p``.

Order q refreshes, forming new scores and their CDF, when r/q <= the sweep's
``refresh_ratio``, r being the last order that did; the default 1.0 is the
paper's every order.  A refresh at q adds q - r times the normalized squared
residual of order q - 1, the only full-design residual the sweep forms,
squared in place into the new scores: beside the series a refresh holds two
n-vectors.  It draws one plan for the orders up to the next refresh, sized
for the last; stale scores are a beta-approximation that the size rule of
Drineas et al. (JMLR 2012) allows.  One QR of its rows serves them all
(`augmented_r`, whose leading blocks are the nested fits), and a
rank-deficient block forces a refresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DataError, NumericalError, RankDeficiencyError, ZeroResidualError
from .exact import LeverageScores, augmented_r, solve_ols
from .sampling import SampleSizeRule, draw_plan, reduced_fit, sample_size
from .series import TimeSeries, make_design

# Residual norms at or below this fraction of the window norm count as an
# exact fit, for which the recursion increment is undefined.
ZERO_RESIDUAL_RTOL = 1e-14


@dataclass(frozen=True)
class RecursionState:
    """Carried state of one recursion sweep after finishing order ``p``.

    ``coefficients`` are the order-p solve on the current window, from a
    plan of ``sample_size`` rows.  ``scores`` are formed at this order when
    ``refreshed``, in the buffer of the order-(p - 1) residual; its norm is
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
    observations, and the state's coefficients are the order-q solve on it,
    from the leading (q + 1, q + 1) block of the `augmented_r` of its
    interval's plan; the next refresh forms their residuals.  Without
    ``size_rule`` one interval takes every row, so the scores are exact.
    With one, each refresh draws a plan with seed words (seed, q, attempt)
    for the orders before the next scheduled one, e the last, of as many rows
    as ``size_rule`` sets at e and ``size_rule.delta_at(e, target_order)``;
    it draws again with attempt 1 if the block at q is rank deficient.  The
    exact sweep refreshes every order.  Deterministic given ``seed``.
    """
    n = series.n
    if target_order < 1 or n - target_order < 1:
        raise DataError(f"bad sweep bounds: target {target_order}, n {n}")
    last_refresh, scores, phi, cdf, factor = 0, None, None, None, None
    for q in range(1, target_order + 1):
        window = n - target_order + q
        refresh = last_refresh / q <= refresh_ratio
        residual_norm = math.nan
        if q == 1:
            scores = ar1_scores(series.prefix(window))
            # |window|^2, grown by one square per order below.
            window_norm2 = float(np.dot(series.values[:window], series.values[:window]))
        else:
            last = float(series.values[window - 1])
            window_norm2 += last * last
        attempt = 0
        while True:  # again only when the factor is rank deficient at q
            if q > 1 and refresh and not attempt:
                cdf = None  # freed before the residual is formed
                residuals = make_design(series.prefix(window - 1), q - 1).residuals(phi)
                residual_norm = float(np.linalg.norm(residuals))
                # A perfect previous fit makes the increment 0/0; abort rather
                # than mask it, since every later order would inherit the damage.
                if residual_norm <= ZERO_RESIDUAL_RTOL * math.sqrt(window_norm2):
                    raise ZeroResidualError(q - 1, residual_norm)
                scores = _advance(scores, residuals, residual_norm, size_rule is not None,
                                  q - last_refresh)
            last_refresh = q if refresh else last_refresh
            if factor is None or size_rule is not None and refresh:
                # The interval ends before the next scheduled refresh.
                e = next((k - 1 for k in range(q + 1, target_order + 1) if size_rule
                          and last_refresh / k <= refresh_ratio), target_order)
                design = make_design(series.prefix(n - target_order + e), e)
                if size_rule is None:
                    s, factor = design.row_count, augmented_r(design)
                else:
                    s = sample_size(size_rule, e, design.series.n,
                                    size_rule.delta_at(e, target_order))
                    cdf = scores.cdf() if cdf is None else cdf
                    factor = reduced_fit(design, draw_plan(scores, s, seed, q, attempt, cdf=cdf))
            try:
                phi = solve_ols(factor[:q + 1, :q + 1])
                break
            except RankDeficiencyError:
                if size_rule is None or attempt:
                    raise
                # A first order's draw can hit a degenerate row multiset: redraw
                # with a fresh seed offset.  Later, stale scores can starve rows
                # the order needs, as after an outlier or a perfect fit: refresh.
                attempt, refresh = int(refresh), True
        yield RecursionState(p=q, scores=scores, coefficients=phi, residual_norm=residual_norm,
                             window=window, sample_size=s, refreshed=refresh)
