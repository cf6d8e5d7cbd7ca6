import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsar.recursion
import lsar.series
from lsar import (
    ARGeneratorSpec,
    DataError,
    SampleSizeRule,
    TimeSeries,
    ZeroResidualError,
    exact_leverage,
    generate_ar,
    make_design,
)
from lsar.driver import REFRESH_RATIO
from lsar.evalbench import conditioning, conditioning_kappa
from lsar.exact import LeverageScores, augmented_r
from lsar.recursion import _advance, approximate_sweep, ar1_scores
from lsar.sampling import draw_plan, sample_size

from conftest import hat_diagonal, reduced_solve

FRACTION_RULE = SampleSizeRule(fraction=0.05)
SCALE_SERIES = generate_ar(ARGeneratorSpec(np.array([0.6, -0.4]), 1.0, 2000, seed=11))


class TestExactRecursion:
    def test_base_case(self):
        *_, state = approximate_sweep(TimeSeries(np.array([1.0, 2, 3])), 1)
        scores = state.scores
        np.testing.assert_allclose(scores.scores, [0.2, 0.8], atol=1e-14)

    def test_two_by_two_against_hat_oracle(self):
        series = TimeSeries(np.array([1.0, 2, 1, 3]))
        *_, state = approximate_sweep(series, 2)
        oracle = hat_diagonal(make_design(series, 2).materialize())
        np.testing.assert_allclose(state.scores.scores, oracle, atol=1e-10)

    def test_oracle_sweep(self, ar1_series):
        # The module's primary check: the recursion reproduces the hat-matrix
        # diagonal at every order.
        for p in range(1, 11):
            *_, recursive = approximate_sweep(ar1_series, p)
            direct = exact_leverage(make_design(ar1_series, p))
            np.testing.assert_allclose(
                recursive.scores.scores, direct.scores, atol=1e-8
            )

    def test_monotone_in_order(self, ar2_series):
        # Each recursion step only adds a nonnegative increment.
        for p in range(2, 6):
            *_, current = approximate_sweep(ar2_series, p)
            *_, previous = approximate_sweep(ar2_series.prefix(ar2_series.n - 1), p - 1)
            assert np.all(current.scores.scores - previous.scores.scores >= -1e-12)

    def test_range_and_sum(self, ar2_series):
        for p in (1, 4, 8):
            *_, state = approximate_sweep(ar2_series, p)
            scores = state.scores.scores
            assert scores.min() >= 0.0 and scores.max() <= 1.0 + 1e-12
            assert abs(scores.sum() - p) < 1e-8

    def test_zero_residual_aborts(self, noiseless_half):
        with pytest.raises(ZeroResidualError) as info:
            list(approximate_sweep(noiseless_half, 2))
        assert info.value.order == 1

    def test_insufficient_data(self):
        # The order-p design of n values has n - p rows; none is an error.
        with pytest.raises(DataError):
            list(approximate_sweep(TimeSeries(np.arange(6.0)), 6))

    def test_all_zero_lag_column(self):
        with pytest.raises(DataError):
            ar1_scores(TimeSeries(np.array([0.0, 0.0, 5.0])))


class TestQuasiScores:
    def test_monte_carlo_deviation_bound(self, ar2_series):
        # Probabilistic score-error bound at order 2: the sampled increment
        # on top of the exact order-1 scores (the quasi-approximate scores)
        # deviates from the exact one by at most (1 + 3 eta kappa^2) sqrt(eps)
        # in at least 90% of trials.
        epsilon = 0.5
        window = ar2_series.prefix(ar2_series.n - 1)
        prev = ar1_scores(window)
        prev_eta = conditioning(augmented_r(make_design(window, 1)))
        kappa2 = conditioning_kappa(augmented_r(make_design(ar2_series, 2))[:2, :2])
        bound = (1 + 3 * prev_eta * kappa2**2) * math.sqrt(epsilon)
        rule = SampleSizeRule(
            epsilon=epsilon, delta=0.1, beta=1.0,
            constant=4.0,
        )
        s = sample_size(rule, 1, window.n, rule.delta)
        *_, exact = approximate_sweep(ar2_series, 2)
        design = make_design(window, 1)
        hits = 0
        cdf = prev.cdf()
        for trial in range(50):
            phi = reduced_solve(design, draw_plan(prev, s, 99, trial, cdf=cdf))
            residuals = design.residuals(phi)
            quasi = _advance(prev, residuals, np.linalg.norm(residuals), clamp=True)
            deviation = np.max(
                np.abs(quasi.scores - exact.scores.scores) / exact.scores.scores
            )
            hits += deviation <= bound
        assert hits >= 45


class TestFullyApproxScores:
    def test_order_one_is_exact(self, ar1_series):
        *_, state = approximate_sweep(ar1_series, 1, FRACTION_RULE, seed=0)
        exact = exact_leverage(make_design(ar1_series, 1))
        np.testing.assert_allclose(state.scores.scores, exact.scores, atol=1e-12)

    def test_identity_plans_collapse_to_exact(self, ar1_series):
        # The sweep without a size rule fits on every row; its scores are
        # checked against the independent Q-free hat diagonal.
        for p in (2, 4, 6):
            *_, state = approximate_sweep(ar1_series, p)
            exact = exact_leverage(make_design(ar1_series, p))
            np.testing.assert_allclose(
                state.scores.scores, exact.scores, atol=1e-10
            )
            assert state.sample_size == ar1_series.n - p

    def test_deterministic_given_seed(self, ar2_series):
        *_, a = approximate_sweep(ar2_series, 5, FRACTION_RULE, seed=42)
        *_, b = approximate_sweep(ar2_series, 5, FRACTION_RULE, seed=42)
        np.testing.assert_array_equal(a.scores.scores, b.scores.scores)
        np.testing.assert_array_equal(a.coefficients, b.coefficients)

    def test_scores_clamped_and_counted(self, ar2_series):
        *_, state = approximate_sweep(ar2_series, 6, FRACTION_RULE, seed=1)
        scores = state.scores.scores
        assert scores.min() >= 0.0 and scores.max() <= 1.0
        assert state.scores.clamp_count >= 0

    def test_advance_clamps_approximate_scores_only(self):
        # Each call consumes its residual array: it becomes the new scores.
        previous = LeverageScores.from_scores(np.array([0.9, 0.5, 0.1]))
        residuals = np.array([0.8, 0.6, 0.0])
        clamped = _advance(previous, residuals, 1.0, clamp=True)
        assert clamped.scores is residuals
        np.testing.assert_array_equal(clamped.scores, [1.0, 0.86, 0.1])
        assert clamped.clamp_count == 1
        assert clamped.total == 1.96
        exact = _advance(previous, np.array([0.8, 0.6, 0.0]), 1.0, clamp=False)
        np.testing.assert_array_equal(exact.scores, [0.9 + 0.64, 0.86, 0.1])
        assert exact.clamp_count == 0

    def test_residual_norm_consistent(self, ar2_series):
        *_, previous, state = approximate_sweep(ar2_series, 3, FRACTION_RULE, seed=2)
        design = make_design(ar2_series.prefix(previous.window), previous.p)
        residuals = design.responses - design.materialize() @ previous.coefficients
        np.testing.assert_allclose(state.residual_norm, np.linalg.norm(residuals), rtol=1e-10)


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
        fields = {f.name for f in dataclasses.fields(LeverageScores)}
        states = list(approximate_sweep(ar2_series, 6, FRACTION_RULE, seed=0))
        assert [s.p for s in states] == list(range(1, 7))
        assert all(set(vars(s.scores)) == fields for s in states)

    def test_zero_residual_yields_then_aborts(self, noiseless_half):
        sweep = approximate_sweep(noiseless_half, 3, FRACTION_RULE, seed=0)
        first = next(sweep)
        assert first.p == 1
        np.testing.assert_allclose(first.coefficients, [0.5], atol=1e-10)
        with pytest.raises(ZeroResidualError):
            next(sweep)

    @pytest.mark.parametrize("rule", [
        FRACTION_RULE,
        SampleSizeRule(epsilon=0.5, delta=0.1, beta=1.0),
    ], ids=["fraction", "theoretical"])
    def test_interval_factor_matches_direct_solves(self, ar2_series, rule, monkeypatch):
        # Each order reads its fit from the leading block of its interval's
        # factor; solving that order's own design on the same plan agrees.
        plans = []
        real_draw = lsar.recursion.draw_plan

        def draw_spy(*args, **kwargs):
            plans.append(real_draw(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(lsar.recursion, "draw_plan", draw_spy)
        pbar, n = 20, ar2_series.n
        states = list(approximate_sweep(ar2_series, pbar, rule, 4, REFRESH_RATIO))
        assert len(plans) == sum(s.refreshed for s in states) == 10
        intervals = 0
        for state in states:
            intervals += state.refreshed
            plan = plans[intervals - 1]
            assert state.sample_size == plan.size
            direct = reduced_solve(make_design(ar2_series.prefix(n - pbar + state.p), state.p),
                                   plan)
            assert (np.linalg.norm(state.coefficients - direct)
                    <= 1e-12 * np.linalg.norm(direct))

    def test_bad_bounds_rejected(self, ar1_series):
        with pytest.raises(DataError):
            list(approximate_sweep(ar1_series, 0, FRACTION_RULE, seed=0))

    @pytest.mark.parametrize("ratio", [-1.0, math.nan])
    def test_a_ratio_that_never_refreshes_is_rejected(self, ar1_series, ratio):
        # Order 1 must refresh to draw the first plan.
        with pytest.raises(DataError, match="refresh ratio"):
            list(approximate_sweep(ar1_series, 3, FRACTION_RULE, 0, ratio))

    @pytest.mark.parametrize("rule", [None, FRACTION_RULE], ids=["full", "sampled"])
    def test_residuals_are_formed_by_the_next_refresh_only(self, ar2_series, rule,
                                                          monkeypatch):
        # Every order refreshes, so the residual of each order but the last
        # is formed once, by the next order's refresh, and the last's never.
        calls = []
        real_apply = lsar.series.ARDesign.apply

        def apply_spy(design, phi):
            calls.append(design.p)
            return real_apply(design, phi)

        monkeypatch.setattr(lsar.series.ARDesign, "apply", apply_spy)
        assert len(list(approximate_sweep(ar2_series, 6, rule, seed=0))) == 6
        assert calls == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("rule", [None, FRACTION_RULE], ids=["full", "sampled"])
    @pytest.mark.parametrize("spike", [0.0, 1e4], ids=["ar2", "outlier"])
    def test_each_draw_builds_the_cdf_it_searches(self, ar2_series, rule, spike,
                                                   monkeypatch):
        # No CDF is carried from one order to the next: one is built for each
        # draw, also for a refresh that a rank-deficient block forced (the
        # outlier's order 6), and the exact sweep, which draws nothing, builds none.
        events = []
        real_cdf, real_draw = LeverageScores.cdf, lsar.recursion.draw_plan

        def cdf_spy(scores):
            events.append("cdf")
            return real_cdf(scores)

        def draw_spy(*args, **kwargs):
            events.append("draw")
            return real_draw(*args, **kwargs)

        monkeypatch.setattr(LeverageScores, "cdf", cdf_spy)
        monkeypatch.setattr(lsar.recursion, "draw_plan", draw_spy)
        y = ar2_series.values.copy()
        y[1000] += spike
        states = list(approximate_sweep(TimeSeries(y), 10, rule, 0, REFRESH_RATIO))
        refreshed = [s.p for s in states if s.refreshed]
        assert (6 in refreshed) == (spike > 0 and rule is not None)
        assert events == ["cdf", "draw"] * (len(refreshed) if rule else 0)

    @pytest.mark.parametrize("rule, ratio", [
        (None, 1.0), (FRACTION_RULE, 1.0), (None, REFRESH_RATIO), (FRACTION_RULE, REFRESH_RATIO),
    ], ids=["full", "sampled", "full-lazy", "sampled-lazy"])
    def test_held_states_survive_next(self, ar2_series, rule, ratio):
        # No array the sweep has yielded may change after it advances, on
        # refreshing orders and on those that draw from stale scores.
        held = []
        for state in approximate_sweep(ar2_series, 10, rule, seed=0, refresh_ratio=ratio):
            for old, copies in held:
                np.testing.assert_array_equal(old.scores.scores, copies[0])
                np.testing.assert_array_equal(old.coefficients, copies[1])
            arrays = (state.scores.scores, state.coefficients)
            held.append((state, [a.copy() for a in arrays]))
        assert len(held) == 10
        assert [s.p for s, _ in held if s.refreshed] == (
            list(range(1, 11)) if ratio == 1.0 else [1, 2, 3, 4, 5, 7, 9])


class TestScaleInvariance:
    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(-200, 200))
    def test_power_of_two_scaling_is_exact(self, k):
        # Multiplying by 2^k is exact in floating point, so scores and
        # coefficients must not move and every residual norm scales by 2^k.
        scaled = TimeSeries(np.ldexp(SCALE_SERIES.values, k))
        for rule in (None, FRACTION_RULE):
            base = list(approximate_sweep(SCALE_SERIES, 6, rule, seed=3))
            moved = list(approximate_sweep(scaled, 6, rule, seed=3))
            assert len(moved) == len(base) == 6
            for a, b in zip(base, moved):
                np.testing.assert_array_equal(b.scores.scores, a.scores.scores)
                np.testing.assert_array_equal(b.coefficients, a.coefficients)
                assert b.p == 1 or b.residual_norm == math.ldexp(a.residual_norm, k)
