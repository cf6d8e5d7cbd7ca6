import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsar import (
    DeltaMode,
    DistributionError,
    LeverageScores,
    RankDeficiencyError,
    SampleSizeError,
    SampleSizeRule,
    SamplingPlan,
    SizeMode,
    TimeSeries,
    exact_leverage,
    fit_ols,
    make_design,
)
from lsar.exact import fit_from_coefficients
from lsar.sampling import (
    RNG_NAME,
    distribution_checksum,
    draw_plan,
    make_rng,
    reduced_fit,
    sample_size,
)

from conftest import reduced_solve


def scores_from_distribution(pi: np.ndarray) -> LeverageScores:
    return LeverageScores.from_scores(np.asarray(pi, dtype=float))


class TestDrawPlan:
    def test_uniform_four_rows_unit_weights(self):
        scores = scores_from_distribution([1, 1, 1, 1])
        plan = draw_plan(scores, 4, 0, cdf=scores.cdf())
        np.testing.assert_allclose(plan.weights, np.ones(4))
        assert plan.size == 4

    def test_point_mass(self):
        scores = scores_from_distribution([1.0, 0.0, 0.0])
        plan = draw_plan(scores, 3, 0, cdf=scores.cdf())
        np.testing.assert_array_equal(plan.indices, [0, 0, 0])
        np.testing.assert_allclose(plan.weights, np.full(3, 1 / np.sqrt(3)))

    def test_deterministic_given_seed(self):
        scores = scores_from_distribution(np.arange(1.0, 101.0))
        a = draw_plan(scores, 50, 7, 3, cdf=scores.cdf())
        b = draw_plan(scores, 50, 7, 3, cdf=scores.cdf())
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_empirical_frequencies_match_distribution(self):
        rng = np.random.default_rng(0)
        raw = rng.exponential(size=100_000)
        scores = scores_from_distribution(raw)
        s = 1000
        plan = draw_plan(scores, s, 12, cdf=scores.cdf())
        pi = scores.scores / scores.total
        top = np.argsort(pi)[-20:]
        counts = np.bincount(plan.indices, minlength=pi.size)
        for i in top:
            sd = np.sqrt(s * pi[i] * (1 - pi[i]))
            assert abs(counts[i] - s * pi[i]) <= 3 * sd + 1

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.one_of(st.integers(1, 20), st.integers(1, 10_000)),
        shape=st.sampled_from(["dense", "zeros", "denormal", "one_hot"]),
        content_seed=st.integers(0, 2**32 - 1),
        seed_words=st.tuples(st.integers(0, 2**31), st.integers(0, 200)),
        s_fraction=st.floats(0.0, 1.0),
    )
    def test_indices_match_generator_choice(self, n, shape, content_seed, seed_words,
                                            s_fraction):
        # The inverse-CDF draw must reproduce Generator.choice bit for bit,
        # so sampled reports keep their stream.
        rng = np.random.default_rng(content_seed)
        raw = rng.exponential(size=n)
        raw /= raw.sum()  # so that denormal entries stay denormal in pi
        if shape == "zeros":
            raw[rng.random(n) < 0.7] = 0.0
            raw[rng.integers(n)] = 1.0
        elif shape == "denormal":
            raw[rng.random(n) < 0.5] = 5e-324 * rng.integers(1, 1000)
        elif shape == "one_hot":
            raw[:] = 0.0
            raw[rng.integers(n)] = 1.0
        s = 1 + int(s_fraction * (2 * n - 1))
        scores = scores_from_distribution(raw)
        plan = draw_plan(scores, s, *seed_words, cdf=scores.cdf())
        expected = make_rng(*seed_words).choice(
            n, size=s, replace=True, p=scores.scores / scores.total
        )
        np.testing.assert_array_equal(plan.indices, expected)

    def test_size_must_be_positive(self):
        scores = scores_from_distribution([1, 1])
        with pytest.raises(SampleSizeError):
            draw_plan(scores, 0, 0, cdf=scores.cdf())

    def test_zero_score_distribution_rejected(self):
        with pytest.raises(Exception):
            scores_from_distribution([0.0, 0.0])

    def test_rng_is_named(self):
        assert RNG_NAME == "philox"
        # Two generators with the same seed words produce the same stream.
        a = make_rng(1, 2).integers(0, 1000, size=5)
        b = make_rng(1, 2).integers(0, 1000, size=5)
        np.testing.assert_array_equal(a, b)


class TestSampleSize:
    def test_fraction_paper_scale(self):
        rule = SampleSizeRule(SizeMode.FRACTION, fraction=0.001)
        assert sample_size(rule, 20, 2_000_000, rule.delta) == 2000

    def test_fraction_floor(self):
        rule = SampleSizeRule(SizeMode.FRACTION, fraction=0.001)
        assert sample_size(rule, 5, 1000, rule.delta) == 6

    def test_theoretical_arithmetic(self):
        rule = SampleSizeRule(
            SizeMode.THEORETICAL, epsilon=0.5, delta=0.1, beta=1.0, constant=1.0
        )
        # ceil(1 * 10 * ln(100) / (1 * 0.25)) = ceil(184.2) = 185
        assert sample_size(rule, 10, 100_000, rule.delta) == 185

    def test_delta_override(self):
        rule = SampleSizeRule(
            SizeMode.THEORETICAL, epsilon=0.5, delta=0.1, beta=1.0, constant=1.0
        )
        assert sample_size(rule, 10, 100_000, delta=0.01) > 185

    def test_default_beta_floor(self):
        # With p sqrt(eps) >= 1 the misestimation factor hits its floor 0.1.
        rule = SampleSizeRule(SizeMode.THEORETICAL, epsilon=0.25, delta=0.1)
        big = sample_size(rule, 10, 10_000_000, rule.delta)
        fixed = SampleSizeRule(
            SizeMode.THEORETICAL, epsilon=0.25, delta=0.1, beta=0.1
        )
        assert big == sample_size(fixed, 10, 10_000_000, fixed.delta)

    def test_fraction_clamps_with_warning(self):
        rule = SampleSizeRule(SizeMode.FRACTION, fraction=0.9)
        with pytest.warns(UserWarning, match="clamped to the row count"):
            assert sample_size(rule, 8, 10, rule.delta) == 2

    def test_theoretical_overflow_errors(self):
        rule = SampleSizeRule(
            SizeMode.THEORETICAL, epsilon=0.01, delta=0.1, beta=1.0
        )
        with pytest.raises(SampleSizeError, match="epsilon is too small"):
            sample_size(rule, 10, 200, rule.delta)

    def test_tiny_beta_is_blamed(self):
        # beta = 1 would give 10 rows here, so beta, not epsilon, is the cause.
        rule = SampleSizeRule(SizeMode.THEORETICAL, epsilon=0.999, beta=1e-300)
        with pytest.raises(SampleSizeError,
                           match=r"sample size 9\.23e\+300 exceeds .*; beta is too small"):
            sample_size(rule, 1, 50, rule.delta)

    def test_large_constant_is_blamed(self):
        # The default constant 4 would give 8 rows here.
        rule = SampleSizeRule(SizeMode.THEORETICAL, constant=1000.0)
        with pytest.raises(SampleSizeError,
                           match=r"sample size 3\.14e\+04 exceeds .* 299; constant is too large"):
            sample_size(rule, 1, 300, rule.delta)

    def test_tiny_delta_is_blamed(self):
        # The default delta 0.1 would give 8 rows here.
        rule = SampleSizeRule(SizeMode.THEORETICAL, delta=1e-300)
        with pytest.raises(SampleSizeError,
                           match=r"sample size 3\.77e\+04 exceeds .* 299; delta is too small"):
            sample_size(rule, 1, 300, rule.delta)

    @pytest.mark.parametrize("delta_mode", list(DeltaMode))
    def test_vanishing_delta_is_blamed(self, delta_mode):
        # delta0 / 2 and delta0 / 3, the geometric schedule's value, are 0.0.
        rule = SampleSizeRule(SizeMode.THEORETICAL, delta=5e-324, delta_mode=delta_mode)
        assert rule.delta_at(2, 3) == 0.0
        with pytest.raises(SampleSizeError, match="size inf exceeds .*; delta is too small"):
            sample_size(rule, 2, 300, rule.delta_at(2, 3))

    def test_underflowing_epsilon_squared_is_blamed(self):
        rule = SampleSizeRule(SizeMode.THEORETICAL, epsilon=1e-170, beta=0.5)
        with pytest.raises(SampleSizeError, match="size inf exceeds .*; epsilon is too small"):
            sample_size(rule, 1, 300, rule.delta)

    def test_overflowing_log_blames_delta(self):
        rule = SampleSizeRule(SizeMode.THEORETICAL, epsilon=0.5, beta=1.0)
        with pytest.raises(SampleSizeError, match="delta is too small"):
            sample_size(rule, 3, 3000, delta=1e-320)

    @pytest.mark.parametrize("delta", [0.1, 0.05, 0.9, 1e-6, 1e-300])
    def test_delta_at_keeps_both_schedules(self, delta):
        # Bit for bit delta0 / q, and 1 - (1 - delta0)**(1/max_order) in its
        # expm1/log1p form.  The plain power loses digits of delta0 in
        # 1 - delta0, 1.5e-9 relative at 1e-6 and max_order 100; at 1e-300
        # 1 - delta0 rounds to 1 and the power is 0.
        per_order = SampleSizeRule(SizeMode.THEORETICAL, delta=delta)
        geometric = SampleSizeRule(SizeMode.THEORETICAL, delta=delta,
                                   delta_mode=DeltaMode.GEOMETRIC)
        for max_order in (1, 7, 40, 100):
            power = 1.0 - (1.0 - delta) ** (1.0 / max_order)
            for q in range(1, max_order + 1):
                assert per_order.delta_at(q, max_order) == delta / q
                value = geometric.delta_at(q, max_order)
                assert value == -math.expm1(math.log1p(-delta) / max_order)
                if delta >= 1e-6:
                    assert math.isclose(value, power, rel_tol=1e-8)
                else:
                    assert 0.0 == power < value

    def test_tiny_geometric_delta_does_not_underflow(self):
        # 1 - 1e-17 rounds to 1, which made the geometric delta 0.0 and the
        # size infinite.
        rule = SampleSizeRule(SizeMode.THEORETICAL, delta=1e-17, beta=1.0,
                              delta_mode=DeltaMode.GEOMETRIC)
        delta = rule.delta_at(2, 40)
        assert math.isclose(delta, 2.5e-19, rel_tol=1e-12)
        assert sample_size(rule, 2, 10**6, delta) == 1393

    def test_constant_and_delta_are_blamed_together(self):
        # Either option alone back at its default still gives 31447 or 37736
        # rows; both give 126.
        rule = SampleSizeRule(SizeMode.THEORETICAL, constant=1000.0, delta=1e-300)
        with pytest.raises(SampleSizeError, match=r"sample size 9\.43e\+06 exceeds .* 299; "
                           "constant and delta together are too strict for this data size"):
            sample_size(rule, 1, 300, rule.delta)

    def test_invalid_parameters(self):
        with pytest.raises(SampleSizeError):
            SampleSizeRule(SizeMode.THEORETICAL, epsilon=1.5)
        with pytest.raises(SampleSizeError):
            SampleSizeRule(SizeMode.FRACTION, fraction=None)
        with pytest.raises(SampleSizeError):
            SampleSizeRule(SizeMode.THEORETICAL, beta=0.0)
        # A fraction would be ignored by the theoretical size.
        with pytest.raises(SampleSizeError, match="theoretical mode takes no fraction"):
            SampleSizeRule(SizeMode.THEORETICAL, fraction=0.5)


class TestReducedFit:
    def test_identity_plan_equals_full_fit(self, ar1_series):
        design = make_design(ar1_series, 3)
        full = fit_ols(design)
        m = design.row_count
        reduced = fit_from_coefficients(
            design, reduced_solve(design, SamplingPlan(np.arange(m), np.ones(m))))
        np.testing.assert_allclose(
            reduced.coefficients, full.coefficients, atol=1e-10
        )
        np.testing.assert_allclose(
            reduced.residual_norm, full.residual_norm, rtol=1e-10
        )

    def test_residuals_on_full_design(self, ar2_series):
        design = make_design(ar2_series, 2)
        scores = exact_leverage(design)
        plan = draw_plan(scores, 100, 3, cdf=scores.cdf())
        phi = reduced_solve(design, plan)
        residuals = design.residuals(phi)
        assert residuals.size == design.row_count
        x = design.materialize()
        np.testing.assert_allclose(residuals, design.responses - x @ phi, atol=1e-10)
        fit = fit_from_coefficients(design, phi)
        assert fit.residual_norm == np.linalg.norm(residuals)
        assert fit.residual_norm >= fit_ols(design).residual_norm - 1e-12

    def test_hand_built_plan_matches_weighted_lstsq(self, ar2_series):
        design = make_design(ar2_series, 3)
        plan = SamplingPlan(
            indices=np.array([0, 7, 7, 42, 100, 2500, 4996], dtype=np.int64),
            weights=np.array([0.5, 1.0, 1.0, 2.0, 0.25, 3.0, 1.5]),
        )
        phi = reduced_solve(design, plan)
        x_w = design.materialize()[plan.indices] * plan.weights[:, None]
        y_w = design.responses[plan.indices] * plan.weights
        expected = np.linalg.lstsq(x_w, y_w, rcond=None)[0]
        np.testing.assert_allclose(phi, expected, atol=1e-10)

    def test_out_of_range_indices_rejected(self, ar1_series):
        design = make_design(ar1_series, 2)
        bad = SamplingPlan(
            indices=np.array([design.row_count], dtype=np.int64),
            weights=np.array([1.0]),
        )
        with pytest.raises(DistributionError):
            reduced_fit(design, bad)

    def test_degenerate_sample_rank_deficient(self, ar1_series):
        design = make_design(ar1_series, 3)
        # Three copies of the same row cannot span three columns.
        plan = SamplingPlan(
            indices=np.zeros(3, dtype=np.int64),
            weights=np.ones(3),
        )
        with pytest.raises(RankDeficiencyError):
            reduced_solve(design, plan)


class TestUnbiasedness:
    def test_sketched_norm_is_unbiased(self, ar1_series):
        # E |S X phi|^2 = |X phi|^2 under the rescaled sampling scheme.
        design = make_design(ar1_series.prefix(53), 3)
        scores = exact_leverage(design)
        phi = np.array([0.4, -0.2, 0.1])
        target = float(np.linalg.norm(design.materialize() @ phi) ** 2)
        total = 0.0
        plans = 10_000
        cdf = scores.cdf()
        for k in range(plans):
            plan = draw_plan(scores, 10, 5, k, cdf=cdf)
            sketched = design.rows[plan.indices] * plan.weights[:, None]
            total += float(np.linalg.norm(sketched @ phi) ** 2)
        assert abs(total / plans / target - 1.0) < 0.05


class TestChecksum:
    def test_checksum_tracks_content(self):
        a = distribution_checksum(np.array([0.5, 0.5]))
        b = distribution_checksum(np.array([0.5, 0.5]))
        c = distribution_checksum(np.array([0.4, 0.6]))
        assert a == b != c
