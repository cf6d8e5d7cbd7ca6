import math
import sys

import numpy as np
import pytest

from lsar import (
    ARGeneratorSpec,
    DataError,
    LeverageScores,
    LsarConfig,
    NumericalError,
    RankDeficiencyError,
    SampleSizeRule,
    TimeSeries,
    approximate_sweep,
    exact_leverage,
    exact_pacf,
    generate_ar,
    make_design,
    run_lsar,
)
from lsar import evalbench, exact
from lsar.evalbench import (
    bound_curves,
    bound_linear_value,
    conditioning,
    conditioning_kappa,
    mpre,
    mpre_curve,
    ratio_study,
    timing_study,
    uniform_plan,
    _triangular_spectrum,
)
from lsar.exact import augmented_r, fit_from_coefficients
from lsar.sampling import SamplingPlan

from conftest import contaminated_series, reduced_solve

FRACTION_RULE = SampleSizeRule(fraction=0.05)


def make_scores(values):
    return LeverageScores.from_scores(np.asarray(values, dtype=float))


class TestMpre:
    def test_hand_example(self):
        value = mpre(make_scores([0.2, 0.8]), make_scores([0.25, 0.7]))
        assert abs(value - 0.25) < 1e-12

    def test_identity_is_zero(self):
        scores = make_scores([0.3, 0.7])
        assert mpre(scores, scores) == 0.0

    def test_zero_exact_score_rejected(self):
        exact = LeverageScores(np.array([0.0, 1.0]), 1.0)
        with pytest.raises(DataError, match="index 0"):
            mpre(exact, make_scores([0.1, 0.9]))

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            mpre(make_scores([1.0]), make_scores([0.5, 0.5]))

    def test_scale_invariance(self):
        # Leverage scores are invariant under y -> c y, so the observed MPRE
        # curve is too (c a power of two keeps the arithmetic bit-identical).
        y = generate_ar(ARGeneratorSpec(np.array([0.5, -0.2]), 1.0, 2000, seed=6))
        scaled = TimeSeries(4.0 * y.values)
        base = mpre_curve(y, 5, FRACTION_RULE, seed=3)
        rescaled = mpre_curve(scaled, 5, FRACTION_RULE, seed=3)
        for (p1, v1), (p2, v2) in zip(base, rescaled):
            assert p1 == p2
            assert abs(v1 - v2) < 1e-10


class TestMpreCurve:
    def test_matches_per_lag_exact_leverage(self, ar2_series):
        # The per-lag reference: exact scores from one factorization per lag.
        rows = mpre_curve(ar2_series, 8, FRACTION_RULE, seed=1)
        assert [p for p, _ in rows] == list(range(1, 9))
        assert rows[0] == (1, 0.0)
        sweep = approximate_sweep(ar2_series, 8, FRACTION_RULE, seed=1)
        for state, (p, value) in list(zip(sweep, rows))[1:]:
            exact = exact_leverage(make_design(ar2_series.prefix(state.window), p))
            assert value == pytest.approx(mpre(exact, state.scores), rel=1e-11, abs=0)


# Each exact path, and the full-row sweep, at pbar = 6.
EXACT_PATHS = {
    "exact_pacf": lambda y: exact_pacf(y, 6),
    "bound_curves": lambda y: bound_curves(y, 6, 0.25),
    "mpre_curve": lambda y: mpre_curve(y, 6, FRACTION_RULE, seed=0),
    "exact_sweep": lambda y: list(approximate_sweep(y, 6)),
}


@pytest.mark.parametrize("path", sorted(EXACT_PATHS))
def test_one_full_row_factor_per_call(path, ar2_series, monkeypatch):
    # Every lag reads the nested factors of one order-6 R; the sampled
    # sweep of mpre_curve factors only the rows it draws.
    full_row = []

    def spy(design, indices=None, weights=None):
        if indices is None:
            full_row.append(design.p)
        return augmented_r(design, indices, weights)

    for name, module in list(sys.modules.items()):
        if name.startswith("lsar") and getattr(module, "augmented_r", None) is augmented_r:
            monkeypatch.setattr(module, "augmented_r", spy)
    EXACT_PATHS[path](ar2_series.prefix(500))
    assert full_row == [6]


@pytest.mark.parametrize("path", sorted(EXACT_PATHS))
def test_series_is_never_written(path, ar2_series):
    # The folds must not write the series' read-only values in place.
    y = ar2_series.prefix(500)
    before = y.values.tobytes()
    EXACT_PATHS[path](y)
    assert y.values.tobytes() == before
    assert not y.values.flags.writeable


@pytest.mark.parametrize("path", ["bound_curves", "exact_pacf"])
def test_failing_nested_fold_is_numerical_error(path, ar2_series, monkeypatch):
    # The nested factors fold one row per lag; a LAPACK failure there
    # surfaces with its info, as in the row-block folds of augmented_r.
    fold = exact.lapack.dtpqrt

    def failing_on_one_row(l, nb, a, b, **overwrite):
        if b.shape[0] == 1:
            return a, b, np.zeros((nb, a.shape[1])), -4
        return fold(l, nb, a, b, **overwrite)

    monkeypatch.setattr(exact.lapack, "dtpqrt", failing_on_one_row)
    with pytest.raises(NumericalError, match=r"\(1, 6\) row block failed: LAPACK info=-4"):
        EXACT_PATHS[path](ar2_series.prefix(500))


class TestBoundCurves:
    def test_zero_eta_arithmetic(self):
        assert abs(bound_linear_value(0.0, 5.0, 2, 0.01) - 0.1) < 1e-12

    def test_order_one_is_zero(self, ar2_series):
        rows = bound_curves(ar2_series.prefix(500), 3, 0.25)
        assert rows[0] == (1, 0.0, 0.0)

    def test_monotone_in_epsilon(self, ar2_series):
        window = ar2_series.prefix(500)
        small = bound_curves(window, 4, 0.1)
        large = bound_curves(window, 4, 0.4)
        for (_, lo, _), (_, hi, _) in zip(small[1:], large[1:]):
            assert hi >= lo

    def test_epsilon_range(self, ar2_series):
        with pytest.raises(DataError):
            bound_curves(ar2_series, 3, 1.5)

    @pytest.mark.parametrize("c_log", [math.nan, math.inf, 0.0, -1.0])
    def test_c_log_must_be_positive_and_finite(self, ar2_series, c_log):
        with pytest.raises(DataError, match="c_log must be positive and finite"):
            bound_curves(ar2_series.prefix(500), 3, 0.25, c_log)

    def test_no_lags_no_rows(self, ar2_series):
        assert bound_curves(ar2_series, 0, 0.25) == []

    @pytest.mark.parametrize("p", [2, 5, 20])
    def test_whole_r_of_shorter_fit_gives_kappa_p(self, ar2_series, p):
        # The order-(p - 1) [X | y] of the first n - 1 values is the order-p
        # design with its lag-1 column moved last.
        r = augmented_r(make_design(ar2_series.prefix(ar2_series.n - 1), p - 1))
        singular = np.linalg.svd(make_design(ar2_series, p).materialize(), compute_uv=False)
        np.testing.assert_allclose(
            conditioning_kappa(r), singular[0] / singular[-1], rtol=1e-12
        )

    def test_matches_two_qr_reference(self, ar2_series):
        # Two factorizations per lag: a QR of the order-(p - 1) panel of the
        # first n - 1 values for kappa, xi and eta, and a second QR of the
        # order-p design for kappa_p.
        epsilon, c_log = 0.25, 1.5
        rows = bound_curves(ar2_series, 8, epsilon, c_log)
        assert [row[0] for row in rows] == list(range(1, 9))
        shorter = ar2_series.prefix(ar2_series.n - 1)
        for p, linear, log_variant in rows[1:]:
            design = make_design(shorter, p - 1)
            r = np.linalg.qr(
                np.column_stack([design.materialize(), design.responses]), mode="r"
            )
            singular = np.linalg.svd(r[: p - 1, : p - 1], compute_uv=False)
            kappa = singular[0] / singular[-1]
            xi = np.linalg.norm(r[: p - 1, p - 1]) / np.linalg.norm(r[:, p - 1])
            eta = kappa * math.sqrt(xi**-2 - 1.0)
            singular_p = np.linalg.svd(
                np.linalg.qr(make_design(ar2_series, p).materialize(), mode="r"),
                compute_uv=False,
            )
            kappa_p = singular_p[0] / singular_p[-1]
            expected = (1.0 + 3.0 * eta * kappa_p**2) * (p - 1) * math.sqrt(epsilon)
            np.testing.assert_allclose(linear, expected, rtol=1e-12)
            np.testing.assert_allclose(
                log_variant, expected / (p - 1) * c_log * math.log(p), rtol=1e-12
            )

    def test_mpre_below_bound_on_fixture(self, ar2_series):
        curve = dict(mpre_curve(ar2_series, 6, FRACTION_RULE, seed=0))
        bounds = {p: b for p, b, _ in bound_curves(ar2_series, 6, 0.25)}
        for p in range(2, 7):
            assert curve[p] <= bounds[p]


class TestConditioning:
    def test_eta_formula(self, ar2_series):
        design = make_design(ar2_series.prefix(800), 2)
        x, y = design.materialize(), design.responses
        u, singular, _ = np.linalg.svd(x, full_matrices=False)
        kappa = singular[0] / singular[-1]
        xi = np.linalg.norm(u.T @ y) / np.linalg.norm(y)  # |X phi| / |y|
        assert kappa >= 1.0
        assert 0 < xi <= 1.0
        np.testing.assert_allclose(
            conditioning(augmented_r(design)), kappa * np.sqrt(xi**-2 - 1), rtol=1e-12
        )

    def test_triangular_spectrum_matches_svd(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(60, 5))
        r = np.linalg.qr(a, mode="r")
        smax, smin = _triangular_spectrum(r)
        singular = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(smax, singular[0], rtol=1e-5)
        np.testing.assert_allclose(smin, singular[-1], rtol=1e-5)


    def test_triangular_spectrum_when_start_vector_is_an_eigenvector(self):
        # R^T R has the all-ones vector as an eigenvector whose eigenvalue is
        # neither the largest nor the smallest, the start that stalls power
        # iteration.
        p = 4
        basis, _ = np.linalg.qr(
            np.column_stack([np.ones(p), np.random.default_rng(3).normal(size=(p, p - 1))])
        )
        gram = basis @ np.diag([2.0, 5.0, 1.0, 0.5]) @ basis.T
        r = np.linalg.cholesky(gram).T
        smax, smin = _triangular_spectrum(r)
        singular = np.linalg.svd(r, compute_uv=False)
        np.testing.assert_allclose(smax / smin, singular[0] / singular[-1], rtol=1e-12)
        np.testing.assert_allclose(smax / smin, np.sqrt(10.0), rtol=1e-12)

    def test_triangular_spectrum_zero_diagonal_rank_deficient(self):
        r = np.triu(np.ones((3, 3)))
        r[1, 1] = 0.0
        with pytest.raises(RankDeficiencyError) as err:
            _triangular_spectrum(r)
        assert err.value.numerical_rank == 2


class TestRatioStudy:
    def test_identity_plan_degenerate_check(self, ar2_series):
        design = make_design(ar2_series, 2)
        m = design.row_count
        fit = fit_from_coefficients(
            design, reduced_solve(design, SamplingPlan(np.arange(m), np.ones(m))))
        from lsar import fit_ols

        full = fit_ols(design)
        assert np.linalg.norm(fit.coefficients - full.coefficients) < 1e-10
        assert abs(fit.residual_norm / full.residual_norm - 1.0) < 1e-10

    def test_residual_ratio_at_least_one(self, ar2_series):
        rows = ratio_study(ar2_series, 2, [50, 100], reps=20, seed=0)
        for _, _, rel_err, resid_ratio, excluded in rows:
            assert resid_ratio >= 1.0 - 1e-10
            assert rel_err >= 0.0
            assert excluded >= 0

    def test_cdf_is_built_once(self, ar2_series, monkeypatch):
        # Every leverage draw of the study samples the same exact scores.
        calls = []
        real_cdf = LeverageScores.cdf

        def cdf_spy(scores):
            calls.append(len(scores))
            return real_cdf(scores)

        monkeypatch.setattr(LeverageScores, "cdf", cdf_spy)
        ratio_study(ar2_series, 2, [50, 100], reps=5, seed=0)
        assert calls == [ar2_series.n - 2]

    def test_sizes_must_be_determined(self, ar2_series):
        with pytest.raises(DataError):
            ratio_study(ar2_series, 4, [3], reps=5, seed=0)

    def test_leverage_beats_uniform_on_contaminated_data(self):
        base = ARGeneratorSpec(np.array([0.6, -0.4, 0.2]), 1.0, 10_000, seed=8)
        series = contaminated_series(base, contamination_rate=0.002, factor=50.0)
        rows = ratio_study(series, 3, [100, 200, 400], reps=30, seed=1)
        by_size = {}
        for s, scheme, rel_err, _, _ in rows:
            by_size.setdefault(s, {})[scheme] = rel_err
        wins = sum(
            1 for cell in by_size.values() if cell["leverage"] < cell["uniform"]
        )
        assert wins >= 2


class TestUniformPlan:
    def test_weights_and_range(self):
        plan = uniform_plan(100, 25, 4)
        np.testing.assert_allclose(plan.weights, np.full(25, 2.0))
        assert plan.indices.min() >= 0 and plan.indices.max() < 100


class TestTimingStudy:
    def test_small_series_emits_rows(self):
        y = generate_ar(ARGeneratorSpec(np.array([0.5]), 1.0, 500, seed=2))
        rows = timing_study(y, 4, FRACTION_RULE, seed=0)
        assert [r[0] for r in rows] == [1, 2, 3, 4]
        for _, t_exact, t_approx in rows:
            assert t_exact >= 0.0 and t_approx >= 0.0


class TestDeltaSchedule:
    def test_lsar_mpre_and_timing_draw_the_same_sizes(self, monkeypatch):
        # Under the theoretical rule s depends on the per-order failure
        # probability, so equal sizes mean one schedule, delta0 / q.
        y = generate_ar(ARGeneratorSpec(np.array([0.5]), 1.0, 3000, seed=2))
        rule = SampleSizeRule(epsilon=0.5, delta=0.1, beta=1.0)
        log = run_lsar(y, LsarConfig(max_order=5, size_rule=rule)).per_order_log
        expected = [r.sample_size for r in log]
        sweeps = []

        def recording(series, target_order, size_rule=None, seed=0):
            # mpre_curve's exact sweep draws no sizes.
            sizes = []
            if size_rule is not None:
                sweeps.append(sizes)
            for state in approximate_sweep(series, target_order, size_rule, seed):
                sizes.append(state.sample_size)
                yield state

        monkeypatch.setattr(evalbench, "approximate_sweep", recording)
        mpre_curve(y, 5, rule, seed=0)
        timing_study(y, 5, rule, seed=0)
        assert sweeps == [expected] * (1 + evalbench.WARMUP + evalbench.REPETITIONS)


class TestContaminatedSeries:
    def test_deterministic_and_amplified(self):
        base = ARGeneratorSpec(np.array([0.5]), 1.0, 5000, seed=8)
        a = contaminated_series(base)
        b = contaminated_series(base)
        np.testing.assert_array_equal(a.values, b.values)
        clean = generate_ar(base)
        changed = np.count_nonzero(a.values != clean.values)
        # 0.1% of 5000 points, minus any that were exactly zero already.
        assert 1 <= changed <= 5
