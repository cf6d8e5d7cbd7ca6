import math

import numpy as np
import pytest

from lsar import (
    ARGeneratorSpec,
    DataError,
    DistributionError,
    Provenance,
    SampleSizeRule,
    SamplingPlan,
    SizeMode,
    TimeSeries,
    ZeroResidualError,
    exact_leverage,
    exact_recursive_scores,
    fully_approx_scores,
    generate_ar,
    make_design,
    quasi_scores,
)
from lsar.evalbench import conditioning, conditioning_kappa
from lsar.exact import ARFit, FitSource, LeverageScores
from lsar.recursion import _advance, approximate_sweep, ar1_scores
from lsar.sampling import draw_plan, sample_size

from conftest import hat_diagonal

FRACTION_RULE = SampleSizeRule(SizeMode.FRACTION, fraction=0.05)


class TestExactRecursion:
    def test_base_case(self):
        scores = exact_recursive_scores(TimeSeries(np.array([1.0, 2, 3])), 1)
        np.testing.assert_allclose(scores.scores, [0.2, 0.8], atol=1e-14)
        assert scores.provenance is Provenance.EXACT

    def test_two_by_two_against_hat_oracle(self):
        series = TimeSeries(np.array([1.0, 2, 1, 3]))
        scores = exact_recursive_scores(series, 2)
        oracle = hat_diagonal(make_design(series, 2).materialize())
        np.testing.assert_allclose(scores.scores, oracle, atol=1e-10)

    def test_oracle_sweep(self, ar1_series):
        # The module's primary check: the recursion reproduces the hat-matrix
        # diagonal at every order.
        for p in range(1, 11):
            recursive = exact_recursive_scores(ar1_series, p)
            direct = exact_leverage(make_design(ar1_series, p))
            np.testing.assert_allclose(
                recursive.scores, direct.scores, atol=1e-8
            )

    def test_monotone_in_order(self, ar2_series):
        # Each recursion step only adds a nonnegative increment.
        for p in range(2, 6):
            current = exact_recursive_scores(ar2_series, p).scores
            previous = exact_recursive_scores(
                ar2_series.prefix(ar2_series.n - 1), p - 1
            ).scores
            assert np.all(current - previous >= -1e-12)

    def test_range_and_sum(self, ar2_series):
        for p in (1, 4, 8):
            scores = exact_recursive_scores(ar2_series, p).scores
            assert scores.min() >= 0.0 and scores.max() <= 1.0 + 1e-12
            assert abs(scores.sum() - p) < 1e-8

    def test_zero_residual_aborts(self, noiseless_half):
        with pytest.raises(ZeroResidualError) as info:
            exact_recursive_scores(noiseless_half, 2)
        assert info.value.order == 1

    def test_insufficient_data(self):
        with pytest.raises(DataError):
            exact_recursive_scores(TimeSeries(np.arange(6.0)), 4)

    def test_all_zero_lag_column(self):
        with pytest.raises(DataError):
            ar1_scores(TimeSeries(np.array([0.0, 0.0, 5.0])))


class TestQuasiScores:
    def test_identity_plan_collapses_to_exact(self, ar1_series):
        for p in (2, 3, 5):
            window = ar1_series.prefix(ar1_series.n - 1)
            prev = exact_recursive_scores(window, p - 1)
            plan = SamplingPlan.identity(window.n - (p - 1))
            # The identity plan's source is the uniform distribution; rebuild
            # it against the exact distribution it claims to come from.
            plan = SamplingPlan(
                indices=plan.indices,
                weights=plan.weights,
                source_distribution=prev.distribution,
            )
            quasi = quasi_scores(ar1_series, p, plan)
            exact = exact_recursive_scores(ar1_series, p)
            np.testing.assert_allclose(quasi.scores, exact.scores, atol=1e-10)
            assert quasi.provenance is Provenance.QUASI

    def test_rejects_plan_from_other_distribution(self, ar1_series):
        window = ar1_series.prefix(ar1_series.n - 1)
        wrong = exact_leverage(make_design(window, 3))
        plan = draw_plan(wrong, 50, 0)
        with pytest.raises(DistributionError):
            quasi_scores(ar1_series, 2, plan)

    def test_rejects_plan_without_source(self, ar1_series):
        plan = SamplingPlan(indices=np.arange(10), weights=np.ones(10))
        assert plan.source_distribution_checksum == ""
        with pytest.raises(DistributionError):
            quasi_scores(ar1_series, 2, plan)

    def test_order_below_two_rejected(self, ar1_series):
        plan = SamplingPlan.identity(10)
        with pytest.raises(DataError):
            quasi_scores(ar1_series, 1, plan)

    def test_monte_carlo_deviation_bound(self, ar2_series):
        # Probabilistic score-error bound at order 2: the sampled increment
        # deviates from the exact one by at most (1 + 3 eta kappa^2) sqrt(eps)
        # in at least 90% of trials.
        epsilon = 0.5
        window = ar2_series.prefix(ar2_series.n - 1)
        prev = exact_recursive_scores(window, 1)
        prev_cond = conditioning(window, 1)
        kappa2 = conditioning_kappa(ar2_series, 2)
        bound = (1 + 3 * prev_cond.eta * kappa2**2) * math.sqrt(epsilon)
        rule = SampleSizeRule(
            SizeMode.THEORETICAL, epsilon=epsilon, delta=0.1, beta=1.0,
            constant=4.0,
        )
        s = sample_size(rule, 1, window.n)
        exact = exact_recursive_scores(ar2_series, 2)
        hits = 0
        for trial in range(50):
            plan = draw_plan(prev, s, 99, trial)
            quasi = quasi_scores(ar2_series, 2, plan)
            deviation = np.max(
                np.abs(quasi.scores - exact.scores) / exact.scores
            )
            hits += deviation <= bound
        assert hits >= 45


class TestFullyApproxScores:
    def test_order_one_is_exact(self, ar1_series):
        state = fully_approx_scores(ar1_series, 1, FRACTION_RULE, seed=0)
        exact = exact_leverage(make_design(ar1_series, 1))
        np.testing.assert_allclose(state.scores.scores, exact.scores, atol=1e-12)

    def test_identity_plans_collapse_to_exact(self, ar1_series):
        for p in (2, 4, 6):
            state = fully_approx_scores(
                ar1_series, p, FRACTION_RULE, seed=0, identity_plans=True
            )
            exact = exact_recursive_scores(ar1_series, p)
            np.testing.assert_allclose(
                state.scores.scores, exact.scores, atol=1e-10
            )

    def test_deterministic_given_seed(self, ar2_series):
        a = fully_approx_scores(ar2_series, 5, FRACTION_RULE, seed=42)
        b = fully_approx_scores(ar2_series, 5, FRACTION_RULE, seed=42)
        np.testing.assert_array_equal(a.scores.scores, b.scores.scores)
        np.testing.assert_array_equal(a.fit.coefficients, b.fit.coefficients)

    def test_scores_clamped_and_counted(self, ar2_series):
        state = fully_approx_scores(ar2_series, 6, FRACTION_RULE, seed=1)
        scores = state.scores.scores
        assert scores.min() >= 0.0 and scores.max() <= 1.0
        assert state.scores.clamp_count >= 0
        assert state.scores.provenance is Provenance.FULLY_APPROXIMATE

    def test_advance_clamps_approximate_scores_only(self):
        previous = LeverageScores.from_scores(1, np.array([0.9, 0.5, 0.1]), Provenance.EXACT)
        fit = ARFit(order=1, coefficients=np.zeros(1), residuals=np.array([0.8, 0.6, 0.0]),
                    residual_norm=1.0, noise_variance=1.0 / 3.0, source=FitSource.SAMPLED)
        clamped = _advance(previous, fit, Provenance.FULLY_APPROXIMATE)
        np.testing.assert_array_equal(clamped.scores, [1.0, 0.86, 0.1])
        assert clamped.clamp_count == 1
        assert clamped.total == 1.96
        exact = _advance(previous, fit, Provenance.EXACT)
        np.testing.assert_array_equal(exact.scores, [0.9 + 0.64, 0.86, 0.1])
        assert exact.clamp_count == 0

    def test_residual_norm_consistent(self, ar2_series):
        state = fully_approx_scores(ar2_series, 3, FRACTION_RULE, seed=2)
        np.testing.assert_allclose(
            state.residual_norm2,
            float(np.sum(state.residuals**2)),
            rtol=1e-10,
        )


class TestApproximateSweep:
    def test_window_bookkeeping(self, ar2_series):
        target = 6
        states = list(
            approximate_sweep(ar2_series, target, FRACTION_RULE, seed=0)
        )
        assert [s.p for s in states] == list(range(1, target + 1))
        for state in states:
            assert state.window == ar2_series.n - target + state.p
            assert len(state.scores) == ar2_series.n - target

    def test_sampling_distribution_is_never_formed(self, ar2_series):
        # draw_plan works from the scores and their total, so no order of
        # the sweep stores pi = scores / total next to the scores.
        states = list(approximate_sweep(ar2_series, 6, FRACTION_RULE, seed=0))
        assert [s.p for s in states] == list(range(1, 7))
        assert all("distribution" not in vars(s.scores) for s in states)

    def test_driver_window_offset(self, ar2_series):
        states = list(
            approximate_sweep(
                ar2_series, 3, FRACTION_RULE, seed=0, window_offset=10
            )
        )
        assert [s.window for s in states] == [
            ar2_series.n - 10 + p for p in (1, 2, 3)
        ]

    def test_zero_residual_yields_then_aborts(self, noiseless_half):
        sweep = approximate_sweep(noiseless_half, 3, FRACTION_RULE, seed=0)
        first = next(sweep)
        assert first.p == 1
        np.testing.assert_allclose(first.fit.coefficients, [0.5], atol=1e-10)
        with pytest.raises(ZeroResidualError):
            next(sweep)

    def test_bad_bounds_rejected(self, ar1_series):
        with pytest.raises(DataError):
            list(approximate_sweep(ar1_series, 0, FRACTION_RULE, seed=0))
        with pytest.raises(DataError):
            list(
                approximate_sweep(
                    ar1_series, 5, FRACTION_RULE, seed=0, window_offset=3
                )
            )
