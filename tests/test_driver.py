import weakref

import numpy as np
import pytest

from lsar import (
    ARGeneratorSpec,
    DataError,
    DeltaMode,
    FitSource,
    LsarConfig,
    SampleSizeRule,
    SizeMode,
    TimeSeries,
    generate_ar,
    run_lsar,
)
from lsar.recursion import approximate_sweep

FRACTION_RULE = SampleSizeRule(SizeMode.FRACTION, fraction=0.05)


def strip_wall_time(record):
    return (record.p, record.window, record.sample_size, record.clamp_count,
            record.residual_norm, record.pacf_estimate, record.bandwidth)


class TestRunLsar:
    def test_previous_residuals_are_freed_before_the_next_draw(self, monkeypatch):
        # Memory stays at one order's O(n) arrays plus one row block of the
        # solve: when order q draws its plan, no earlier order's residual
        # vector is alive.
        import lsar.recursion

        residuals = []
        alive_at_draw = []
        real_fit, real_draw = lsar.recursion.reduced_fit, lsar.recursion.draw_plan

        def fit_spy(design, plan):
            fit = real_fit(design, plan)
            residuals.append(weakref.ref(fit.residuals))
            return fit

        def draw_spy(*args):
            alive_at_draw.append(sum(ref() is not None for ref in residuals))
            return real_draw(*args)

        monkeypatch.setattr(lsar.recursion, "reduced_fit", fit_spy)
        monkeypatch.setattr(lsar.recursion, "draw_plan", draw_spy)
        y = generate_ar(ARGeneratorSpec(np.array([0.6, -0.4]), 1.0, 5000, seed=3))
        run_lsar(y, LsarConfig(max_order=6, size_rule=FRACTION_RULE, seed=0))
        assert alive_at_draw == [0] * 6

    def test_noiseless_recurrence_aborts_after_perfect_fit(self):
        y = TimeSeries(0.5 ** np.arange(10_000, dtype=float))
        cfg = LsarConfig(max_order=5, size_rule=FRACTION_RULE, seed=0)
        result = run_lsar(y, cfg)
        assert result.aborted_at == 1
        assert "residual" in result.abort_reason
        assert len(result.per_order_log) == 1
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
        assert result.final_fit.order == 2
        np.testing.assert_allclose(
            result.final_fit.coefficients, [0.6, -0.4], atol=0.1
        )

    def test_white_noise_selects_nothing_or_barely(self):
        y = generate_ar(ARGeneratorSpec(np.array([]), 1.0, 100_000, seed=11))
        cfg = LsarConfig(
            max_order=20,
            size_rule=SampleSizeRule(SizeMode.FRACTION, fraction=0.01),
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
        assert [strip_wall_time(r) for r in a.per_order_log] == [
            strip_wall_time(r) for r in b.per_order_log
        ]
        np.testing.assert_array_equal(
            a.final_fit.coefficients, b.final_fit.coefficients
        )

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
            result.pacf.per_lag_bandwidth,
            [2.0 * 1.96 / np.sqrt(r.sample_size) for r in result.per_order_log],
        )

    def test_final_fit_is_the_sweeps_own_fit(self):
        y = generate_ar(ARGeneratorSpec(np.array([0.6, -0.4]), 1.0, 20_000, seed=5))
        cfg = LsarConfig(max_order=8, size_rule=FRACTION_RULE, seed=2,
                         bandwidth_multiplier=2.0)
        result = run_lsar(y, cfg)
        assert result.selected_order >= 1
        sweep = list(approximate_sweep(y, cfg.max_order, cfg.size_rule, cfg.seed,
                                       delta0=cfg.delta0, window_offset=cfg.max_order))
        own = sweep[result.selected_order - 1].fit
        assert result.final_fit.source is FitSource.SAMPLED
        assert result.final_fit.order == own.order
        assert np.array_equal(result.final_fit.coefficients, own.coefficients)
        assert np.array_equal(result.final_fit.residuals, own.residuals)
        assert result.final_fit.residual_norm == own.residual_norm
        assert result.final_fit.noise_variance == own.noise_variance

    def test_refit_full_uses_full_design(self):
        y = generate_ar(ARGeneratorSpec(np.array([0.6, -0.4]), 1.0, 20_000, seed=5))
        cfg = LsarConfig(max_order=8, size_rule=FRACTION_RULE, seed=2,
                         bandwidth_multiplier=2.0, refit_full=True)
        result = run_lsar(y, cfg)
        assert result.final_fit.source is FitSource.FULL
        assert result.final_fit.order == result.selected_order

    def test_geometric_delta_mode_runs(self):
        y = generate_ar(ARGeneratorSpec(np.array([0.5]), 1.0, 3000, seed=1))
        rule = SampleSizeRule(
            SizeMode.THEORETICAL, epsilon=0.5, delta=0.1, beta=1.0
        )
        cfg = LsarConfig(max_order=5, size_rule=rule, seed=0,
                         delta_mode=DeltaMode.GEOMETRIC)
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
        with pytest.raises(DataError):
            LsarConfig(max_order=5, size_rule=FRACTION_RULE, delta0=1.5)
        with pytest.raises(DataError):
            LsarConfig(max_order=5, size_rule=FRACTION_RULE,
                       bandwidth_multiplier=0.0)
