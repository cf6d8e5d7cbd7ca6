"""Order selection and fitting by leverage-score sampling (the LSAR loop).

One pass over orders p = 1..max_order with a window growing by one
observation per order: maintain fully-approximate leverage scores, solve a
reduced OLS problem per order, record its last coefficient as the sampled
PACF estimate, and pick the selected order as the largest lag whose |PACF|
reaches the zero-confidence band ``1.96/sqrt(s)`` of that lag's plan size.

The PACF estimate at lag p is taken from the reduced fit of the same
iteration; computing it before the fit would need a second fitting pass and
has no support in the error analysis.

Only the orders ``REFRESH_RATIO`` picks, or a rank-deficient stale fit
forces, refresh the scores (`lsar.recursion`), draw a plan and count clamps;
each forms the residual norm of the order before it, NaN at the others.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, ZeroResidualError
from .exact import ARFit, PacfTrace, ZERO_CONFIDENCE_Z, check_max_lag, \
    fit_from_coefficients, fit_ols, select_order
from .recursion import approximate_sweep
from .sampling import SampleSizeRule
from .series import TimeSeries, make_design

# Refreshes 13 of 40 orders and 17 of 100: 1-5, 7, 9, 12, 15, 19, 24, ...
REFRESH_RATIO = 0.8


@dataclass(frozen=True)
class LsarConfig:
    max_order: int
    size_rule: SampleSizeRule
    bandwidth_multiplier: float = 1.0
    seed: int = 0
    refit_full: bool = False

    def __post_init__(self):
        if self.max_order < 1:
            raise DataError(f"max_order must be >= 1, got {self.max_order}")
        if not 0 < self.bandwidth_multiplier < math.inf:
            raise DataError("bandwidth_multiplier must be positive and finite, "
                            f"got {self.bandwidth_multiplier}")


@dataclass(frozen=True)
class OrderRecord:
    """One order's row of the run log; runs with the same seed give equal rows."""

    p: int
    window: int
    sample_size: int
    clamp_count: int
    residual_norm: float
    pacf_estimate: float
    bandwidth: float
    refreshed: bool


@dataclass(frozen=True)
class LsarResult:
    selected_order: int
    final_fit: ARFit | None
    pacf: PacfTrace
    per_order_log: tuple[OrderRecord, ...]
    wall_time: float  # of the whole sweep
    aborted_at: int | None = None
    abort_reason: str | None = None

    @property
    def weak_selection(self) -> bool:
        """True when no lag cleared the band (selected_order == 0)."""
        return self.selected_order == 0


def run_lsar(series: TimeSeries, cfg: LsarConfig) -> LsarResult:
    """Select the AR order and fit its coefficients from sampled rows.

    Deterministic given ``cfg.seed``.  A zero-residual (perfect) fit stops
    the loop early and is reported on the result rather than raised; order
    selection then runs over the lags already reached.
    """
    check_max_lag(cfg.max_order, series.n)
    records: list[OrderRecord] = []
    # Only each order's coefficients are kept, no residual; the selected
    # order's norm is recomputed once below, so memory stays O(n).
    coefficients: list[np.ndarray] = []
    aborted_at = None
    abort_reason = None
    start = time.perf_counter()
    try:
        for state in approximate_sweep(series, cfg.max_order, cfg.size_rule, cfg.seed,
                                       REFRESH_RATIO):
            band = cfg.bandwidth_multiplier * ZERO_CONFIDENCE_Z / math.sqrt(state.sample_size)
            if records:  # the norm of the previous order's residual, if formed
                records[-1] = replace(records[-1], residual_norm=state.residual_norm)
            records.append(OrderRecord(
                p=state.p, window=state.window, sample_size=state.sample_size,
                clamp_count=state.scores.clamp_count if state.refreshed else 0,
                residual_norm=math.nan, pacf_estimate=float(state.coefficients[-1]),
                bandwidth=band, refreshed=state.refreshed))
            coefficients.append(state.coefficients)
            # Let go of this order's scores before the sweep computes the
            # next order, so they are freed as soon as it has advanced them.
            del state
    except ZeroResidualError as err:
        aborted_at = err.order
        abort_reason = str(err)
        records[-1] = replace(records[-1], residual_norm=err.residual_norm)
    wall_time = time.perf_counter() - start

    estimates = np.array([r.pacf_estimate for r in records])
    bands = np.array([r.bandwidth for r in records])
    selected = select_order(estimates, bands)
    pacf = PacfTrace(estimates=estimates, bandwidth=bands,
                     effective_sample=records[-1].sample_size, selected_order=selected)
    final_fit = None
    if selected >= 1 and cfg.refit_full:
        final_fit = fit_ols(make_design(series, selected))
    elif selected >= 1:
        window = series.prefix(records[selected - 1].window)
        final_fit = fit_from_coefficients(make_design(window, selected),
                                          coefficients[selected - 1])
    return LsarResult(selected_order=selected, final_fit=final_fit, pacf=pacf,
                      per_order_log=tuple(records), wall_time=wall_time,
                      aborted_at=aborted_at, abort_reason=abort_reason)
