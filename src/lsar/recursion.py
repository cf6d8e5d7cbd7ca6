"""Recursive leverage-score computation for lagged AR designs.

The Toeplitz structure of the design makes the order-p scores an update of
the order-(p-1) scores: the increment is the normalized squared residual of
the order-(p-1) fit on a window one observation shorter.  Three variants
live here:

* exact recursion -- full-data fits at every intermediate order;
* quasi-approximate scores -- exact previous-order scores plus a
  sampled-residual increment (diagnostics only);
* fully-approximate scores -- the practical recursion that carries only
  approximated scores and sampled residuals forward.

For a target order p on a series of length n, intermediate order q runs on
the window of the first ``n - p + q`` observations, so every score vector
in the sweep has the same length ``n - p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DataError, DistributionError, NumericalError, RankDeficiencyError, \
    ZeroResidualError
from .exact import ARFit, LeverageScores, Provenance, fit_ols
from .sampling import SampleSizeRule, SamplingPlan, distribution_checksum, draw_plan, \
    reduced_fit, sample_size
from .series import TimeSeries, make_design

# Residual norms at or below this fraction of the window norm count as an
# exact fit, for which the recursion increment is undefined.
ZERO_RESIDUAL_RTOL = 1e-14


@dataclass(frozen=True)
class RecursionState:
    """Carried state of one recursion sweep after finishing order ``p``.

    ``residuals`` come from the order-p fit on the current window and are
    what advances the scores to order p + 1 on a window one longer.
    """

    p: int
    scores: LeverageScores
    fit: ARFit
    window: int
    sample_size: int

    @property
    def residuals(self) -> np.ndarray:
        return self.fit.residuals

    @property
    def residual_norm2(self) -> float:
        return self.fit.residual_norm**2


def ar1_scores(series: TimeSeries, provenance=Provenance.EXACT) -> LeverageScores:
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
    return LeverageScores.from_scores(1, y[:-1] ** 2 / total, provenance)


def _check_residual(fit: ARFit, window_norm: float):
    if fit.residual_norm <= ZERO_RESIDUAL_RTOL * window_norm:
        raise ZeroResidualError(fit.order)


def _advance(scores: LeverageScores, fit: ARFit, provenance: Provenance):
    """Score update: previous scores plus normalized squared residuals.

    Approximate scores can leave [0, 1] through sampled-residual noise only;
    they are clamped before the distribution is formed and the clamp count
    is reported.  Exact scores are never clamped.
    """
    updated = np.square(fit.residuals)
    updated /= fit.residual_norm**2
    updated += scores.scores
    clamp_count = 0
    # Both terms are nonnegative, so only the upper bound can be crossed.
    # The mask is built only when some score crossed it, which is rare.
    if provenance is not Provenance.EXACT and updated.max() > 1.0:
        over = updated > 1.0
        clamp_count = int(np.count_nonzero(over))
        updated[over] = 1.0
    return LeverageScores.from_scores(
        fit.order + 1, updated, provenance, clamp_count=clamp_count
    )


def exact_recursive_scores(series: TimeSeries, p: int) -> LeverageScores:
    """Exact leverage scores at order ``p`` via the recursion.

    Intermediate fits are full-data OLS solves on the growing windows; the
    result matches the hat-matrix diagonal of the order-p design.
    """
    n = series.n
    if p < 1 or n - p < p:
        raise DataError(f"order p={p} needs n - p >= p, got n={n}")
    window = series.prefix(n - p + 1)
    scores = ar1_scores(window)
    for q in range(1, p):
        fit = fit_ols(make_design(window, q))
        _check_residual(fit, float(np.linalg.norm(window.values)))
        window = series.prefix(n - p + q + 1)
        scores = _advance(scores, fit, Provenance.EXACT)
    return scores


def quasi_scores(series: TimeSeries, p: int, plan: SamplingPlan) -> LeverageScores:
    """Diagnostic variant: exact order-(p-1) scores plus a sampled-residual
    increment.

    The plan must have been drawn from the exact order-(p-1) distribution on
    the window of the first n - 1 observations; the plan checksum is audited
    against that distribution.
    """
    if p < 2:
        raise DataError(f"quasi scores need p >= 2, got {p}")
    window = series.prefix(series.n - 1)
    prev = exact_recursive_scores(window, p - 1)
    if plan.source_distribution_checksum != distribution_checksum(prev.distribution):
        raise DistributionError(
            "plan was not drawn from the exact order-(p-1) distribution "
            "(checksum mismatch)"
        )
    fit = reduced_fit(make_design(window, p - 1), plan)
    _check_residual(fit, float(np.linalg.norm(window.values)))
    return _advance(prev, fit, Provenance.QUASI)


def approximate_sweep(
    series: TimeSeries,
    target_order: int,
    size_rule: SampleSizeRule,
    seed: int,
    delta0: float | None = None,
    delta_for_order=None,
    identity_plans: bool = False,
    window_offset: int | None = None,
) -> Iterator[RecursionState]:
    """Drive the fully-approximate recursion, yielding state per order.

    At order q the window holds the first ``n - offset + q`` observations,
    where ``offset`` defaults to ``target_order`` (standalone use) and is the
    driver's max order inside the order-selection loop.  The yielded state's
    fit is the reduced OLS solve at order q on that window; its residuals
    feed the order q + 1 score update.

    Per-order failure probability is ``delta0 / q`` when ``delta0`` is given;
    ``delta_for_order`` (a callable q -> delta) overrides that; otherwise the
    rule's own delta applies.  A rank-deficient reduced system is resampled
    once with a fresh seed offset before erroring.  Deterministic given
    ``seed``.
    """
    n = series.n
    offset = target_order if window_offset is None else window_offset
    if target_order < 1 or offset < target_order or n - offset < 1:
        raise DataError(
            f"bad sweep bounds: target {target_order}, offset {offset}, n {n}"
        )
    if delta_for_order is None and delta0 is not None:
        delta_for_order = lambda q: delta0 / q
    scores = fit = None
    for q in range(1, target_order + 1):
        window = series.prefix(n - offset + q)
        if q == 1:
            scores = ar1_scores(window, Provenance.EXACT)
            # |window|^2, grown by one square per order below.
            window_norm2 = float(np.dot(window.values, window.values))
        else:
            last = float(window.values[-1])
            window_norm2 += last * last
            # A perfect previous fit makes the increment 0/0; abort rather
            # than mask it, since every later order would inherit the damage.
            _check_residual(fit, math.sqrt(window_norm2))
            scores = _advance(scores, fit, Provenance.FULLY_APPROXIMATE)
            # Spent: once the consumer has let go of the last state, as
            # run_lsar does, its arrays are freed before this order's solve.
            fit = None
        delta = None if delta_for_order is None else delta_for_order(q)
        design = make_design(window, q)
        if identity_plans:
            s = design.row_count
            fit = reduced_fit(design, SamplingPlan.identity(design.row_count))
        else:
            s = sample_size(size_rule, q, window.n, delta=delta)
            fit = _reduced_fit_with_retry(design, scores, s, seed, q)
        yield RecursionState(p=q, scores=scores, fit=fit, window=window.n, sample_size=s)


def _reduced_fit_with_retry(design, scores, s, seed, q):
    # With-replacement draws can hit a degenerate row multiset; one retry
    # with a fresh seed offset keeps the pipeline deterministic given seed.
    for attempt in (0, 1):
        plan = draw_plan(scores, s, seed, q, attempt)
        try:
            return reduced_fit(design, plan)
        except RankDeficiencyError:
            if attempt == 1:
                raise
    raise AssertionError("unreachable")


def fully_approx_scores(
    series: TimeSeries,
    p: int,
    size_rule: SampleSizeRule,
    seed: int,
    delta0: float | None = None,
    identity_plans: bool = False,
) -> RecursionState:
    """Fully-approximate leverage scores at order ``p``.

    Order 1 is exact, order 2 uses the sampled increment on top of exact
    order-1 scores, and orders >= 3 recurse on previously approximated
    scores.  Returns the final state: scores at order p plus the order-p
    reduced fit whose residuals would advance the recursion further.
    """
    state = None
    for state in approximate_sweep(
        series, p, size_rule, seed, delta0=delta0, identity_plans=identity_plans
    ):
        pass
    return state
