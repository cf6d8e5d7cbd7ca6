import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsar import (
    ARGeneratorSpec,
    DataError,
    DeltaMode,
    LsarConfig,
    LsarError,
    SampleSizeRule,
    TimeSeries,
    fit_ols,
    generate_ar,
    make_design,
    run_lsar,
)
import lsar.series
from lsar.driver import REFRESH_RATIO
from lsar.recursion import approximate_sweep

from conftest import reduced_solve

FRACTION_RULE = SampleSizeRule(fraction=0.05)


def run_outcome(series, cfg):
    """A run's per-order log, as bytes so that NaNs compare equal, with its
    selection and final fit; or the error raised."""
    try:
        result = run_lsar(series, cfg)
    except LsarError as err:
        return type(err), str(err)
    log = np.array([dataclasses.astuple(r) for r in result.per_order_log])
    fit = result.final_fit
    return (log.tobytes(), result.selected_order, result.aborted_at,
            None if fit is None else (fit.coefficients.tobytes(), fit.residual_norm))


class TestRunLsar:
    def test_refresh_holds_two_n_vectors(self):
        # No CDF outlives the draw that searches it, and a refresh's residual
        # becomes the new scores in place: beside the series, the old
        # scores and that one buffer are alive, plus a row block of a solve.
        # Holding the residual next to the new scores would make it three.
        y = generate_ar(ARGeneratorSpec(np.array([0.6, -0.4]), 1.0, 10**6, seed=3))
        cfg = LsarConfig(max_order=40, size_rule=SampleSizeRule(fraction=1e-3))
        tracemalloc.start()
        try:
            run_lsar(y, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.3 * y.values.nbytes

    def test_noiseless_recurrence_aborts_after_perfect_fit(self):
        y = TimeSeries(0.5 ** np.arange(10_000, dtype=float))
        cfg = LsarConfig(max_order=5, size_rule=FRACTION_RULE, seed=0)
        result = run_lsar(y, cfg)
        assert result.aborted_at == 1
        assert "residual" in result.abort_reason
        assert len(result.per_order_log) == 1
        assert result.per_order_log[0].residual_norm < 1e-10
        np.testing.assert_allclose(
            result.per_order_log[0].pacf_estimate, 0.5, atol=1e-10
        )
        assert result.selected_order == 1
        assert result.final_fit.residual_norm < 1e-10

    def test_recovers_low_order_fixture(self):
        y = generate_ar(ARGeneratorSpec(np.array([0.6, -0.4]), 1.0, 20_000, seed=5))
        cfg = LsarConfig(
            max_order=8, size_rule=FRACTION_RULE, seed=2,
            bandwidth_multiplier=2.0,
        )
        result = run_lsar(y, cfg)
        assert result.selected_order == 2
        assert result.final_fit.coefficients.size == 2
        np.testing.assert_allclose(
            result.final_fit.coefficients, [0.6, -0.4], atol=0.1
        )

    def test_white_noise_selects_nothing_or_barely(self):
        y = generate_ar(ARGeneratorSpec(np.array([]), 1.0, 100_000, seed=11))
        cfg = LsarConfig(
            max_order=20,
            size_rule=SampleSizeRule(fraction=0.01),
            seed=0,
        )
        result = run_lsar(y, cfg)
        bands = np.array([r.bandwidth for r in result.per_order_log])
        ratio = np.max(np.abs(result.pacf.estimates) / bands)
        assert result.weak_selection or ratio <= 1.7

    def test_deterministic_per_order_log(self):
        y = generate_ar(ARGeneratorSpec(np.array([0.5, -0.2]), 1.0, 5000, seed=9))
        cfg = LsarConfig(max_order=6, size_rule=FRACTION_RULE, seed=4)
        a = run_lsar(y, cfg)
        b = run_lsar(y, cfg)
        assert a.per_order_log == b.per_order_log
        np.testing.assert_array_equal(
            a.final_fit.coefficients, b.final_fit.coefficients
        )

    @settings(max_examples=40, deadline=None)
    @given(phi=st.lists(st.floats(-0.45, 0.45), min_size=1, max_size=2),
           n=st.integers(100, 2000), max_order=st.integers(1, 12),
           fraction=st.sampled_from([0.05, 0.3]), data_seed=st.integers(0, 2**16),
           seed=st.integers(0, 2**32 - 1))
    def test_same_seed_same_log(self, phi, n, max_order, fraction, data_seed, seed):
        # Each refresh turns its residual buffer into the new scores in
        # place; a second run on the same input must not tell the difference.
        y = generate_ar(ARGeneratorSpec(np.array(phi), 1.0, n, seed=data_seed))
        cfg = LsarConfig(max_order=max_order, seed=seed,
                         size_rule=SampleSizeRule(fraction=fraction))
        assert run_outcome(y, cfg) == run_outcome(y, cfg)

    def test_window_bookkeeping(self):
        y = generate_ar(ARGeneratorSpec(np.array([0.5]), 1.0, 3000, seed=1))
        cfg = LsarConfig(max_order=7, size_rule=FRACTION_RULE, seed=0)
        result = run_lsar(y, cfg)
        for record in result.per_order_log:
            assert record.window == y.n - 7 + record.p

    def test_pacf_trace_consistency(self):
        y = generate_ar(ARGeneratorSpec(np.array([0.6, -0.4]), 1.0, 20_000, seed=5))
        cfg = LsarConfig(max_order=8, size_rule=FRACTION_RULE, seed=2,
                         bandwidth_multiplier=2.0)
        result = run_lsar(y, cfg)
        assert result.pacf.selected_order == result.selected_order
        np.testing.assert_array_equal(
            result.pacf.estimates,
            [r.pacf_estimate for r in result.per_order_log],
        )
        np.testing.assert_allclose(
            result.pacf.bandwidth,
            [2.0 * 1.96 / np.sqrt(r.sample_size) for r in result.per_order_log],
        )

    def test_final_fit_is_the_sweeps_own_fit(self):
        y = generate_ar(ARGeneratorSpec(np.array([0.6, -0.4]), 1.0, 20_000, seed=5))
        cfg = LsarConfig(max_order=8, size_rule=FRACTION_RULE, seed=2,
                         bandwidth_multiplier=2.0)
        result = run_lsar(y, cfg)
        assert result.selected_order >= 1
        # The sweep that refreshes every order forms the selected order's
        # residual at the next order, on the same window.
        sweep = list(approximate_sweep(y, cfg.max_order, cfg.size_rule, cfg.seed))
        own, following = sweep[result.selected_order - 1: result.selected_order + 1]
        assert result.final_fit.coefficients.size == own.p
        assert np.array_equal(result.final_fit.coefficients, own.coefficients)
        assert result.final_fit.residual_norm == following.residual_norm

    def test_refit_full_uses_full_design(self):
        y = generate_ar(ARGeneratorSpec(np.array([0.6, -0.4]), 1.0, 20_000, seed=5))
        cfg = LsarConfig(max_order=8, size_rule=FRACTION_RULE, seed=2,
                         bandwidth_multiplier=2.0, refit_full=True)
        result = run_lsar(y, cfg)
        assert result.final_fit.coefficients.size == result.selected_order
        full = fit_ols(make_design(y, result.selected_order))
        assert np.array_equal(result.final_fit.coefficients, full.coefficients)

    def test_geometric_delta_mode_runs(self):
        y = generate_ar(ARGeneratorSpec(np.array([0.5]), 1.0, 3000, seed=1))
        rule = SampleSizeRule(
            epsilon=0.5, delta=0.1, beta=1.0,
            delta_mode=DeltaMode.GEOMETRIC,
        )
        cfg = LsarConfig(max_order=5, size_rule=rule, seed=0)
        result = run_lsar(y, cfg)
        assert len(result.per_order_log) == 5

    def test_series_too_short(self):
        y = generate_ar(ARGeneratorSpec(np.array([0.5]), 1.0, 40, seed=0))
        cfg = LsarConfig(max_order=20, size_rule=FRACTION_RULE, seed=0)
        with pytest.raises(DataError):
            run_lsar(y, cfg)

    def test_config_validation(self):
        with pytest.raises(DataError):
            LsarConfig(max_order=0, size_rule=FRACTION_RULE)
        with pytest.raises(DataError, match="delta must be in"):
            SampleSizeRule(delta=1.5, fraction=0.05)
        for multiplier in (0.0, math.nan, math.inf):
            with pytest.raises(DataError, match="positive and finite"):
                LsarConfig(max_order=5, size_rule=FRACTION_RULE,
                           bandwidth_multiplier=multiplier)


AR2 = generate_ar(ARGeneratorSpec(np.array([0.6, -0.4]), 1.0, 20_000, seed=5))
SCHEDULE_40 = [1, 2, 3, 4, 5, 7, 9, 12, 15, 19, 24, 30, 38]


def noiseless_ar5(n=10_000):
    phi = np.array([0.5, -0.3, 0.2, 0.1, -0.15])
    y = np.zeros(n)
    y[:5] = [1.0, -0.5, 0.7, 0.2, -0.9]
    for t in range(5, n):
        y[t] = phi @ y[t - 5:t][::-1]
    return TimeSeries(y)


class TestLazyRefresh:
    @pytest.mark.parametrize("pbar, orders", [
        (40, SCHEDULE_40),
        (100, SCHEDULE_40 + [48, 60, 75, 94]),
    ])
    def test_geometric_schedule(self, pbar, orders):
        result = run_lsar(AR2, LsarConfig(max_order=pbar, size_rule=FRACTION_RULE, seed=1))
        assert [r.p for r in result.per_order_log if r.refreshed] == orders

    def test_one_residual_pass_per_refresh_plus_the_final_fit(self, monkeypatch):
        # 12 orders precede a refresh at pbar = 40, and the selected order's
        # fit is recomputed once; every order of the full recursion took one.
        calls = []
        real_apply = lsar.series.ARDesign.apply

        def apply_spy(design, phi):
            calls.append(design.p)
            return real_apply(design, phi)

        monkeypatch.setattr(lsar.series.ARDesign, "apply", apply_spy)
        cfg = LsarConfig(max_order=40, size_rule=FRACTION_RULE, seed=1, bandwidth_multiplier=2.0)
        result = run_lsar(AR2, cfg)
        assert result.selected_order == 2
        assert calls == [q - 1 for q in SCHEDULE_40[1:]] + [2]

    def test_first_five_orders_match_the_every_order_sweep(self, monkeypatch):
        import lsar.recursion

        plans = []
        real_draw = lsar.recursion.draw_plan

        def draw_spy(*args, **kwargs):
            plans.append(real_draw(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(lsar.recursion, "draw_plan", draw_spy)
        cfg = LsarConfig(max_order=8, size_rule=FRACTION_RULE, seed=2)
        lazy = run_lsar(AR2, cfg).per_order_log
        lazy_plans, plans[:] = plans[:], []
        full = list(approximate_sweep(AR2, 8, cfg.size_rule, cfg.seed))
        # Intervals [1], [2], [3], [4], [5, 6] and [7, 8]: orders 1-5 draw
        # the every-order sweep's plans, and orders 1-4 also solve its factors.
        assert len(lazy_plans) == 6
        for q in range(5):
            assert np.array_equal(lazy_plans[q].indices, plans[q].indices)
            assert np.array_equal(lazy_plans[q].weights, plans[q].weights)
            assert lazy[q].sample_size == full[q].sample_size
        for q in range(4):
            assert lazy[q].pacf_estimate == float(full[q].coefficients[-1])
        # Order 6 solves order 5's plan, factored once for both orders.
        assert not lazy[5].refreshed and lazy[5].sample_size == lazy[4].sample_size
        design = make_design(AR2.prefix(AR2.n - 2), 6)
        np.testing.assert_allclose(lazy[5].pacf_estimate,
                                   reduced_solve(design, lazy_plans[4])[-1], rtol=1e-12)

    def test_one_draw_per_refresh(self, monkeypatch):
        # The fits of an interval share its one plan, so a run without a
        # rank-deficient draw draws once per refresh, at the refreshing order.
        import lsar.recursion

        drawn = []
        real_draw = lsar.recursion.draw_plan

        def draw_spy(scores, s, *seed_words, cdf):
            drawn.append(seed_words)
            return real_draw(scores, s, *seed_words, cdf=cdf)

        monkeypatch.setattr(lsar.recursion, "draw_plan", draw_spy)
        result = run_lsar(AR2, LsarConfig(max_order=40, size_rule=FRACTION_RULE, seed=1))
        assert [r.p for r in result.per_order_log if r.refreshed] == SCHEDULE_40
        assert drawn == [(1, q, 0) for q in SCHEDULE_40]

    def test_report_marks_what_was_skipped(self):
        result = run_lsar(AR2, LsarConfig(max_order=40, size_rule=FRACTION_RULE, seed=1))
        before_refresh = {q - 1 for q in SCHEDULE_40[1:]}
        for r in result.per_order_log:
            assert math.isnan(r.residual_norm) == (r.p not in before_refresh)

    def test_clamps_are_counted_at_refreshes_only(self):
        # The rows holding a 100-sigma spike get scores above 1, which are
        # clamped; the stale orders fit on rows drawn from those clamped
        # scores but report no clamps of their own.
        y = np.random.default_rng(0).normal(size=4000)
        y[1000] = 100.0
        series = TimeSeries(y)
        log = run_lsar(series, LsarConfig(max_order=10, size_rule=FRACTION_RULE)).per_order_log
        states = approximate_sweep(series, 10, FRACTION_RULE, 0, REFRESH_RATIO)
        stale = [s.scores.clamp_count for s in states if not s.refreshed]
        assert stale and any(stale)
        assert all(r.clamp_count == 0 for r in log if not r.refreshed)
        assert any(r.clamp_count for r in log if r.refreshed)

    def test_rank_deficient_stale_draw_forces_a_refresh(self):
        # At order 6 the order-5 scores put nearly all mass on the five rows
        # holding the spike, too few for six columns: the sweep refreshes
        # there, off the schedule, instead of failing.
        y = np.random.default_rng(0).normal(size=4000)
        y[1000] = 1e4
        result = run_lsar(TimeSeries(y), LsarConfig(max_order=10, size_rule=FRACTION_RULE))
        log = result.per_order_log
        refreshed = [r.p for r in log if r.refreshed]
        assert len(log) == 10
        assert 6 in refreshed and set(refreshed) > {1, 2, 3, 4, 5, 7, 9}
        # A forced refresh records the residual norm it formed, as a
        # scheduled one does, on the order before it.  From 6 on, each
        # order's block of the last plan's factor is rank deficient too, so
        # every order refreshes.
        assert [r.p for r in log if not math.isnan(r.residual_norm)] == list(range(1, 10))
        np.testing.assert_allclose([log[4].residual_norm, log[5].residual_norm,
                                    log[8].residual_norm],
                                   [10000.199051, 10000.198863, 10000.198704], rtol=1e-9)

    def test_held_states_survive_forced_and_scheduled_refreshes(self):
        # On the spike series of the test above, the refreshes at 2-5 are
        # scheduled and those at 6-10 forced, all while every earlier state
        # is held: none of the buffers a refresh writes may be one of those.
        y = np.random.default_rng(0).normal(size=4000)
        y[1000] = 1e4
        held = []
        for state in approximate_sweep(TimeSeries(y), 10, FRACTION_RULE, 0, REFRESH_RATIO):
            for old, copies in held:
                np.testing.assert_array_equal(old.scores.scores, copies[0])
                np.testing.assert_array_equal(old.coefficients, copies[1])
            held.append((state, [state.scores.scores.copy(), state.coefficients.copy()]))
        refreshed = [state.p for state, _ in held if state.refreshed]
        assert len(held) == 10
        assert 6 in refreshed and set(refreshed) > {1, 2, 3, 4, 5, 7, 9}

    def test_noiseless_ar5_abort_names_the_perfect_order(self):
        # The order-5 fit is perfect, but order 6 does not refresh, so no
        # residual checks it there.  Its stale draw is rank deficient (the
        # lag-1 column is a combination of the others), which forces the
        # refresh that finds the zero residual: the abort names order 5, as
        # when every order refreshes.
        cfg = LsarConfig(max_order=10, size_rule=FRACTION_RULE, seed=0)
        result = run_lsar(noiseless_ar5(), cfg)
        assert result.aborted_at == 5
        assert "residual norm is zero at order 5" in result.abort_reason
        assert [r.p for r in result.per_order_log] == [1, 2, 3, 4, 5]
        assert result.per_order_log[-1].residual_norm < 1e-10
        assert result.selected_order == 5
