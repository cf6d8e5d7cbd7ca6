import numpy as np
import pytest
from scipy.linalg import lapack, solve_triangular

from lsar import (
    ARGeneratorSpec,
    DataError,
    LeverageScores,
    NumericalError,
    Provenance,
    RankDeficiencyError,
    TimeSeries,
    exact_leverage,
    exact_pacf,
    fit_ols,
    generate_ar,
    make_design,
    select_order,
)
import lsar.exact
from lsar.exact import QR_BLOCK, _qr, solve_ols

from conftest import hat_diagonal


class TestFitOls:
    def test_hand_system(self):
        # Regressing [2, 3] on [1, 2]: phi = (1*2 + 2*3) / (1 + 4) = 8/5.
        fit = fit_ols(make_design(TimeSeries(np.array([1.0, 2, 3])), 1))
        np.testing.assert_allclose(fit.coefficients, [1.6], atol=1e-14)
        np.testing.assert_allclose(fit.residuals, [0.4, -0.2], atol=1e-14)
        np.testing.assert_allclose(
            fit.noise_variance, (0.4**2 + 0.2**2) / 2, atol=1e-14
        )

    def test_noiseless_recurrence_fits_exactly(self, noiseless_half):
        fit = fit_ols(make_design(noiseless_half, 1))
        np.testing.assert_allclose(fit.coefficients, [0.5], atol=1e-12)
        assert fit.residual_norm < 1e-12

    def test_constant_series_rank_deficient(self):
        with pytest.raises(RankDeficiencyError) as info:
            fit_ols(make_design(TimeSeries(np.full(4, 3.0)), 2))
        assert info.value.numerical_rank < info.value.required_rank == 2

    def test_residuals_recomputable_and_orthogonal(self, ar2_series):
        for p in (1, 2, 4, 7):
            design = make_design(ar2_series, p)
            fit = fit_ols(design)
            x = design.materialize()
            np.testing.assert_allclose(
                fit.residuals, design.responses - x @ fit.coefficients,
                atol=1e-10,
            )
            scale = np.linalg.norm(x) * np.linalg.norm(design.responses)
            assert np.max(np.abs(x.T @ fit.residuals)) <= 1e-8 * scale


def panel(a, b):
    return np.asfortranarray(np.column_stack([a, b]))


def dgeqrf_solve(a):
    """Reference solve: the blocked Householder QR ``dgeqrf``, R only."""
    p = a.shape[1] - 1
    r = lapack.dgeqrf(np.array(a, order="F"))[0]
    return solve_triangular(r[:p, :p], r[:p, p])


class TestSolveOls:
    def test_matches_lstsq(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(40, 6))
        b = rng.normal(size=40)
        expected = np.linalg.lstsq(a, b, rcond=None)[0]
        np.testing.assert_allclose(solve_ols(panel(a, b)), expected, atol=1e-10)

    def test_ill_conditioned_matches_lstsq(self):
        rng = np.random.default_rng(6)
        u, _ = np.linalg.qr(rng.normal(size=(200, 6)))
        v, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        a = u @ np.diag(np.logspace(0, -8, 6)) @ v.T
        assert 0.5e8 < np.linalg.cond(a) < 2e8
        b = a @ rng.normal(size=6) + 1e-3 * rng.normal(size=200)
        expected = np.linalg.lstsq(a, b, rcond=None)[0]
        phi = solve_ols(panel(a, b))
        # At kappa 1e8 the coefficients themselves are only determined to
        # about kappa * eps; the fitted values are well posed.
        np.testing.assert_allclose(
            a @ phi, a @ expected, atol=1e-10 * np.linalg.norm(b)
        )
        np.testing.assert_allclose(phi, expected, rtol=1e-6)

    def test_panel_is_overwritten_in_place(self):
        rng = np.random.default_rng(7)
        a = panel(rng.normal(size=(30, 3)), rng.normal(size=30))
        before = a.copy()
        solve_ols(a)
        assert not np.array_equal(a, before)

    @pytest.mark.parametrize("p", [3, 5])
    def test_rank_deficiency_reports_same_rank_as_full_qr(self, p):
        rng = np.random.default_rng(p)
        x = rng.normal(size=(50, p))
        x[:, -1] = 2.0 * x[:, 0]
        with pytest.raises(RankDeficiencyError) as full_qr:
            _qr(x, p)
        with pytest.raises(RankDeficiencyError) as r_only:
            solve_ols(panel(x, rng.normal(size=50)))
        assert r_only.value.numerical_rank == full_qr.value.numerical_rank == p - 1
        assert r_only.value.required_rank == p

    def test_fewer_rows_than_columns_rank_deficient(self):
        rng = np.random.default_rng(8)
        with pytest.raises(RankDeficiencyError) as err:
            solve_ols(panel(rng.normal(size=(2, 4)), rng.normal(size=2)))
        assert err.value.numerical_rank == 2

    @pytest.mark.parametrize("rows, p", [
        (2, 1), (10, 1), (5000, 1),                          # p + 1 = 2
        (5, 3), (QR_BLOCK - 1, 6), (QR_BLOCK, QR_BLOCK - 1),  # fewer rows than the block
        (4, 4), (2, 2),                                      # s = p < p + 1
        (60, 40), (3000, 40), (18421, 100),
    ])
    def test_agrees_with_dgeqrf_reference(self, rows, p):
        rng = np.random.default_rng(rows * 1000 + p)
        a = panel(rng.normal(size=(rows, p)), rng.normal(size=rows))
        expected = dgeqrf_solve(a)
        phi = solve_ols(a)
        assert np.linalg.norm(phi - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_empty_panel_is_rank_deficient(self):
        with pytest.raises(RankDeficiencyError) as err:
            solve_ols(np.empty((0, 4), order="F"))
        assert err.value.numerical_rank == 0

    def test_lapack_failure_is_numerical_error(self, monkeypatch):
        def failing(nb, a, overwrite_a=False):
            return a, np.zeros((nb, min(a.shape))), -2
        monkeypatch.setattr(lsar.exact.lapack, "dgeqrt", failing)
        with pytest.raises(NumericalError, match="info=-2"):
            solve_ols(panel(np.eye(3), np.ones(3)))

    def test_singular_triangular_solve_is_numerical_error(self, monkeypatch):
        def singular(r, b):
            raise np.linalg.LinAlgError("singular matrix")
        monkeypatch.setattr(lsar.exact, "solve_triangular", singular)
        with pytest.raises(NumericalError, match="singular"):
            solve_ols(panel(np.eye(3), np.ones(3)))


class TestExactLeverage:
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_score_sum_is_numerical_error(self, bad):
        with pytest.raises(NumericalError):
            LeverageScores.from_scores(1, np.array([0.5, bad]), Provenance.EXACT)

    def test_order_one_closed_form(self):
        scores = exact_leverage(make_design(TimeSeries(np.array([1.0, 2, 3])), 1))
        np.testing.assert_allclose(scores.scores, [0.2, 0.8], atol=1e-14)

    def test_sum_is_order_and_range(self, ar2_series):
        for p in (1, 3, 6):
            scores = exact_leverage(make_design(ar2_series, p))
            assert abs(scores.scores.sum() - p) < 1e-8
            assert scores.scores.min() >= 0.0
            assert scores.scores.max() <= 1.0 + 1e-12
            assert abs(scores.distribution.sum() - 1.0) < 1e-12

    def test_matches_hat_matrix_oracle(self):
        rng = np.random.default_rng(30)
        y = TimeSeries(rng.normal(size=30))
        design = make_design(y, 3)
        scores = exact_leverage(design)
        np.testing.assert_allclose(
            scores.scores, hat_diagonal(design.materialize()), atol=1e-8
        )

    def test_row_norm_bounded_by_spectral_times_root_score(self, ar1_series):
        # Each row norm is at most |X| * sqrt(score), with |X| the spectral
        # norm: high-leverage rows are the long ones.
        design = make_design(ar1_series, 4)
        x = design.materialize()
        spectral = np.linalg.norm(x, 2)
        scores = exact_leverage(design).scores
        row_norms = np.linalg.norm(x, axis=1)
        assert np.all(row_norms <= spectral * np.sqrt(scores) + 1e-8)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        x = make_design(TimeSeries(rng.normal(size=40)), 3).materialize()
        perm = rng.permutation(x.shape[0])
        base = hat_diagonal(x)
        q, _ = np.linalg.qr(x[perm])
        permuted = np.einsum("ij,ij->i", q, q)
        np.testing.assert_allclose(permuted, base[perm], atol=1e-10)


def sample_partial_correlation(y: np.ndarray, h: int) -> float:
    """Partial correlation oracle: correlate the residuals of y_t and
    y_{t+h} after regressing both on the intermediate lags."""
    windows = np.array([y[t:t + h + 1] for t in range(len(y) - h)])
    first, last = windows[:, 0], windows[:, -1]
    if h == 1:
        return float(np.corrcoef(first, last)[0, 1])
    z = np.column_stack([windows[:, 1:-1], np.ones(len(windows))])
    ra = first - z @ np.linalg.lstsq(z, first, rcond=None)[0]
    rb = last - z @ np.linalg.lstsq(z, last, rcond=None)[0]
    return float(np.dot(ra, rb) / (np.linalg.norm(ra) * np.linalg.norm(rb)))


class TestExactPacf:
    def test_hand_system(self):
        trace = exact_pacf(TimeSeries(np.array([1.0, 2, 3])), 1)
        np.testing.assert_allclose(trace.estimates, [1.6], atol=1e-14)

    def test_noiseless_recurrence_cuts_off(self, noiseless_half):
        # Lags >= 2 of an exact recurrence have exactly collinear design
        # columns, so they are recorded as undefined rather than zero and
        # can never drive the selection.
        trace = exact_pacf(noiseless_half, 3)
        np.testing.assert_allclose(trace.estimates[0], 0.5, atol=1e-12)
        assert np.all(np.isnan(trace.estimates[1:]))
        assert trace.selected_order == 1

    def test_white_noise_stays_inside_inflated_band(self):
        y = generate_ar(ARGeneratorSpec(np.array([]), 1.0, 100_000, seed=11))
        trace = exact_pacf(y, 20)
        assert np.all(np.abs(trace.estimates) < 3 * trace.bandwidth)

    def test_matches_partial_correlation_definition(self):
        y = generate_ar(ARGeneratorSpec(np.array([0.6, -0.3]), 1.0, 200, seed=21))
        trace = exact_pacf(y, 5)
        for h in range(1, 6):
            assert abs(
                sample_partial_correlation(y.values, h) - trace.estimates[h - 1]
            ) < 0.05

    def test_bandwidth_and_effective_sample(self, ar2_series):
        trace = exact_pacf(ar2_series, 10)
        assert trace.effective_sample == ar2_series.n - 10
        np.testing.assert_allclose(
            trace.bandwidth, 1.96 / np.sqrt(ar2_series.n - 10)
        )

    def test_max_lag_guard(self, ar1_series):
        with pytest.raises(DataError):
            exact_pacf(ar1_series, ar1_series.n // 2 + 1)
        with pytest.raises(DataError):
            exact_pacf(ar1_series, 0)

    def test_rank_deficient_lag_recorded_as_nan(self):
        # A constant series defeats every lag >= 2 but not selection.
        trace = exact_pacf(TimeSeries(np.full(20, 2.0)), 3)
        assert np.all(np.isnan(trace.estimates[1:]))
        assert trace.selected_order in (0, 1)


class TestSelectOrder:
    def test_largest_significant_lag(self):
        assert select_order(np.array([0.5, 0.01, 0.3, 0.02]), 0.1) == 3

    def test_none_significant(self):
        assert select_order(np.array([0.01, -0.02]), 0.1) == 0

    def test_nan_lags_skipped(self):
        assert select_order(np.array([0.5, np.nan, 0.05]), 0.1) == 1

    def test_per_lag_bands(self):
        estimates = np.array([0.5, 0.2, 0.2])
        bands = np.array([0.1, 0.25, 0.15])
        assert select_order(estimates, bands) == 3
