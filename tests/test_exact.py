import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lapack, solve_triangular

from lsar import (
    ARGeneratorSpec,
    DataError,
    LeverageScores,
    NumericalError,
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
from lsar.exact import QR_BLOCK, _check_rank, augmented_r, nested_factors, solve_ols
from lsar.sampling import SamplingPlan, reduced_fit
from lsar.series import BLOCK_BYTES

from conftest import hat_diagonal


class TestFitOls:
    def test_hand_system(self):
        # Regressing [2, 3] on [1, 2]: phi = (1*2 + 2*3) / (1 + 4) = 8/5.
        design = make_design(TimeSeries(np.array([1.0, 2, 3])), 1)
        fit = fit_ols(design)
        np.testing.assert_allclose(fit.coefficients, [1.6], atol=1e-14)
        np.testing.assert_allclose(design.residuals(fit.coefficients), [0.4, -0.2], atol=1e-14)
        np.testing.assert_allclose(fit.residual_norm, math.hypot(0.4, 0.2), atol=1e-14)
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
            residuals = design.residuals(fit.coefficients)
            x = design.materialize()
            np.testing.assert_allclose(
                residuals, design.responses - x @ fit.coefficients,
                atol=1e-10,
            )
            assert fit.residual_norm == np.linalg.norm(residuals)
            scale = np.linalg.norm(x) * np.linalg.norm(design.responses)
            assert np.max(np.abs(x.T @ residuals)) <= 1e-8 * scale


def _qr(matrix: np.ndarray, required_rank: int):
    """Reference thin QR (Q formed) with the relative rank check on diag(R)."""
    q, r = np.linalg.qr(matrix)
    _check_rank(np.diag(r), required_rank)
    return q, r


def panel(a, b):
    return np.asfortranarray(np.column_stack([a, b]))


def r_factor(a):
    """Reference R: one ``dgeqrt`` of the whole panel, zero rows below s."""
    rows, cols = a.shape
    qr = lapack.dgeqrt(min(QR_BLOCK, rows, cols), np.array(a, order="F"))[0]
    r = np.zeros((cols, cols))
    r[:min(rows, cols)] = np.triu(qr[:cols])
    return r


def gathered(design, indices=None, weights=None):
    """Reference gather: rows ``indices`` of ``[X | y]`` in window order, lag
    p first, by plain indexing."""
    a = panel(design.rows[:, ::-1], design.responses)
    if indices is not None:
        a = a[indices]
    return a if weights is None else a * weights[:, None]


def dgeqrf_solve(a):
    """Reference solve of a window-order panel: the blocked Householder QR
    ``dgeqrf``, R only, with the coefficients turned to lag 1 first."""
    p = a.shape[1] - 1
    r = lapack.dgeqrf(np.array(a, order="F"))[0]
    return solve_triangular(r[:p, :p], r[:p, p])[::-1]


def signed(r):
    """R with rows flipped to a nonnegative diagonal (R is unique up to that)."""
    return r * np.where(np.diag(r) < 0, -1.0, 1.0)[:, None]


def block_rows(p):
    return max(p + 1, BLOCK_BYTES // (8 * (p + 1)))


def random_design(n, p, seed):
    return make_design(TimeSeries(np.random.default_rng(seed).normal(size=n)), p)


class TestSolveOls:
    def test_matches_lstsq(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(40, 6))
        b = rng.normal(size=40)
        expected = np.linalg.lstsq(a, b, rcond=None)[0]
        # solve_ols reads its factor's columns in window order, last lag first.
        np.testing.assert_allclose(solve_ols(r_factor(panel(a[:, ::-1], b))), expected,
                                   atol=1e-10)

    def test_ill_conditioned_matches_lstsq(self):
        rng = np.random.default_rng(6)
        u, _ = np.linalg.qr(rng.normal(size=(200, 6)))
        v, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        a = u @ np.diag(np.logspace(0, -8, 6)) @ v.T
        assert 0.5e8 < np.linalg.cond(a) < 2e8
        b = a @ rng.normal(size=6) + 1e-3 * rng.normal(size=200)
        expected = np.linalg.lstsq(a, b, rcond=None)[0]
        phi = solve_ols(r_factor(panel(a[:, ::-1], b)))
        # At kappa 1e8 the coefficients themselves are only determined to
        # about kappa * eps; the fitted values are well posed.
        np.testing.assert_allclose(
            a @ phi, a @ expected, atol=1e-10 * np.linalg.norm(b)
        )
        np.testing.assert_allclose(phi, expected, rtol=1e-6)

    @pytest.mark.parametrize("p", [3, 5])
    def test_rank_deficiency_reports_same_rank_as_full_qr(self, p):
        rng = np.random.default_rng(p)
        x = rng.normal(size=(50, p))
        x[:, -1] = 2.0 * x[:, 0]
        with pytest.raises(RankDeficiencyError) as full_qr:
            _qr(x, p)
        with pytest.raises(RankDeficiencyError) as r_only:
            solve_ols(r_factor(panel(x, rng.normal(size=50))))
        assert r_only.value.numerical_rank == full_qr.value.numerical_rank == p - 1
        assert r_only.value.required_rank == p

    def test_fewer_rows_than_columns_rank_deficient(self):
        design = random_design(50, 4, 8)
        with pytest.raises(RankDeficiencyError) as err:
            solve_ols(augmented_r(design, np.array([3, 17]), np.ones(2)))
        assert err.value.numerical_rank == 2

    @pytest.mark.parametrize("rows, p", [
        (2, 1), (10, 1), (5000, 1),                          # p + 1 = 2
        (5, 3), (23, 6),                                     # few rows
        (24, 23),                                            # s = p + 1
        (4, 4), (2, 2),                                      # s = p, fewer rows than nb
        (60, 40), (3000, 40), (18421, 100),
    ])
    def test_agrees_with_dgeqrf_reference(self, rows, p):
        rng = np.random.default_rng(rows * 1000 + p)
        design = random_design(rows + p + 50, p, rows)
        indices = rng.choice(design.row_count, rows, replace=False)
        weights = rng.uniform(0.5, 2.0, rows)
        expected = dgeqrf_solve(gathered(design, indices, weights))
        phi = solve_ols(augmented_r(design, indices, weights))
        assert np.linalg.norm(phi - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_empty_panel_is_rank_deficient(self):
        # No rows fold into the zero R, which the rank check then rejects.
        r = augmented_r(random_design(20, 3, 1), np.empty(0, dtype=np.intp), np.empty(0))
        assert np.array_equal(r, np.zeros((4, 4)))
        with pytest.raises(RankDeficiencyError) as err:
            solve_ols(r)
        assert err.value.numerical_rank == 0
        assert err.value.required_rank == 3

    def test_lapack_failure_is_numerical_error(self, monkeypatch):
        def failing(l, nb, a, b, overwrite_a=False, overwrite_b=False):
            return a, b, np.zeros((nb, a.shape[1])), -2
        monkeypatch.setattr(lsar.exact.lapack, "dtpqrt", failing)
        with pytest.raises(NumericalError, match="info=-2"):
            fit_ols(random_design(20, 2, 1))

    def test_singular_triangular_solve_is_numerical_error(self, monkeypatch):
        def singular(a, b, lower=0, trans=0):
            return b, 2
        monkeypatch.setattr(lsar.exact.lapack, "dtrtrs", singular)
        with pytest.raises(NumericalError, match="singular matrix: .* at diagonal 1"):
            solve_ols(r_factor(panel(np.eye(3), np.ones(3))))


class TestSolveTriangular:
    @pytest.mark.parametrize("p", [1, 2, 6, 40, 100])
    def test_bit_identical_to_scipy_on_streamed_factors(self, p):
        r = augmented_r(random_design(4 * p + 300, p, p))
        expected = solve_triangular(r[:p, :p], r[:p, p])
        assert np.array_equal(solve_ols(r), expected[::-1])

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bit_identical_to_scipy_at_kappa_1e8(self, order):
        rng = np.random.default_rng(16)
        u, _ = np.linalg.qr(rng.normal(size=(300, 8)))
        v, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        a = u @ np.diag(np.logspace(0, -8, 8)) @ v.T
        b = a @ rng.normal(size=8) + 1e-3 * rng.normal(size=300)
        r = np.asarray(r_factor(panel(a, b)), order=order)
        expected = solve_triangular(r[:8, :8], r[:8, 8])
        assert np.array_equal(solve_ols(r), expected[::-1])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_factor_is_numerical_error(self, bad):
        rng = np.random.default_rng(17)
        r = r_factor(panel(rng.normal(size=(20, 3)), rng.normal(size=20)))
        r[0, 2] = bad  # off the diagonal, so the rank check passes
        with pytest.raises(NumericalError, match="infs or NaNs"):
            solve_ols(r)

    def test_singular_factor_is_numerical_error(self, monkeypatch):
        # Past the rank check, LAPACK itself reports the zero pivot.
        monkeypatch.setattr(lsar.exact, "_check_rank", lambda diag, rank: None)
        r = np.triu(np.ones((3, 3)))
        r[1, 1] = 0.0
        with pytest.raises(NumericalError, match="resolution failed at diagonal 1"):
            solve_ols(r)


class TestWrapperLoading:
    def test_missing_wrapper_is_import_error(self):
        with pytest.raises(ImportError, match="scipy.linalg._no_such_wrapper"):
            lsar.exact._load_wrapper("_no_such_wrapper")

    def test_scipy_linalg_imports_after_the_wrappers_and_shares_them(self):
        # In a fresh process: lsar loads the wrappers without the package,
        # then the package imports over them and computes bit for bit alike.
        code = textwrap.dedent("""
            import sys
            import numpy as np
            from lsar import exact
            ours = (exact.lapack, exact.blas)
            assert "scipy.linalg" not in sys.modules
            from scipy.linalg import blas, lapack
            rng = np.random.default_rng(0)
            a = np.asfortranarray(rng.normal(size=(50, 6)))
            b = np.asfortranarray(rng.normal(size=(20, 6)))
            r = np.triu(rng.normal(size=(6, 6))) + 6.0 * np.eye(6)
            y = rng.normal(size=6)
            results = []
            for lap, bl in (ours, (lapack, blas)):
                qr = lap.dgeqrt(4, a)[0]
                top = np.asfortranarray(np.triu(qr[:6]))
                folded = lap.dtpqrt(0, 4, top, b)[0]
                x = lap.dtrtrs(r.T, y, lower=1, trans=1)[0]
                rows = bl.dtrsm(1.0, np.asfortranarray(r), b, side=1)
                results.append((qr, folded, x, rows))
            print(all(np.array_equal(u, v) for u, v in zip(*results)))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "True"


def traced_peak(call) -> int:
    """Peak bytes traced by tracemalloc while ``call`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAugmentedR:
    @pytest.mark.parametrize("p, rows", [
        (100, block_rows(100) - 1), (100, block_rows(100)),
        (100, block_rows(100) + 1),           # the last block is one row
        (7, 3 * block_rows(7) + 1),
        (6, 4), (6, 7),                        # s < p + 1 and s = p + 1
        (1, 1), (1, 2),
    ])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_one_shot_dgeqrt(self, p, rows, weighted):
        rng = np.random.default_rng(rows + p)
        design = random_design(rows + p + 30, p, p)
        indices = rng.choice(design.row_count, rows, replace=False)
        weights = rng.uniform(0.5, 2.0, rows) if weighted else None
        expected = r_factor(gathered(design, indices, weights))
        r = augmented_r(design, indices, weights)
        assert r.shape == (p + 1, p + 1)
        assert np.array_equal(r, np.triu(r))
        assert (np.linalg.norm(signed(r) - signed(expected))
                <= 1e-12 * np.linalg.norm(expected))

    @pytest.mark.parametrize("p, rows", [
        (100, block_rows(100) - 1), (100, block_rows(100)), (100, block_rows(100) + 1),
        (3, 2 * block_rows(3) + 1), (1, 2),
    ])
    def test_all_rows_in_order(self, p, rows):
        design = random_design(rows + p, p, rows)
        assert design.row_count == rows
        expected = r_factor(gathered(design))
        r = augmented_r(design)
        assert (np.linalg.norm(signed(r) - signed(expected))
                <= 1e-12 * np.linalg.norm(expected))

    def test_fold_failure_is_numerical_error(self, monkeypatch):
        def failing(l, nb, a, b, overwrite_a=False, overwrite_b=False):
            return a, b, np.zeros((nb, a.shape[1])), -3
        monkeypatch.setattr(lsar.exact.lapack, "dtpqrt", failing)
        design = random_design(block_rows(5) + 20, 5, 2)
        with pytest.raises(NumericalError, match="info=-3"):
            augmented_r(design)

    def test_reduced_fit_holds_no_panel(self):
        # The whole weighted panel of 18 421 sampled rows at p = 100 would be
        # 14.9 MB; the solve holds one row block of about 512 KiB at a time.
        p, s = 100, 18_421
        design = random_design(20_000, p, 3)
        rng = np.random.default_rng(4)
        plan = SamplingPlan(rng.integers(0, design.row_count, s), rng.uniform(0.5, 2.0, s))
        peak = traced_peak(lambda: reduced_fit(design, plan))
        assert peak < 5e6, peak

    def test_fit_ols_holds_no_panel(self):
        # The full [X | y] panel at n = 10^5, p = 100 would be 80 MB.
        design = random_design(100_000, 100, 5)
        peak = traced_peak(lambda: fit_ols(design))
        assert peak < 5e6, peak


class TestExactLeverage:
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_score_sum_is_numerical_error(self, bad):
        with pytest.raises(NumericalError):
            LeverageScores.from_scores(np.array([0.5, bad]))

    def test_order_one_closed_form(self):
        scores = exact_leverage(make_design(TimeSeries(np.array([1.0, 2, 3])), 1))
        np.testing.assert_allclose(scores.scores, [0.2, 0.8], atol=1e-14)

    def test_sum_is_order_and_range(self, ar2_series):
        for p in (1, 3, 6):
            scores = exact_leverage(make_design(ar2_series, p))
            assert abs(scores.scores.sum() - p) < 1e-8
            assert scores.scores.min() >= 0.0
            assert scores.scores.max() <= 1.0 + 1e-12
            assert abs((scores.scores / scores.total).sum() - 1.0) < 1e-12

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

    def test_q_free_scores_match_q_path_when_ill_conditioned(self):
        # A sinusoid obeys an exact order-2 recurrence, so at p = 3 tiny
        # noise alone keeps the columns apart: kappa is about 1e8.  Scores
        # from X R^-1 lose about kappa * eps against Householder Q.
        t = np.arange(3000)
        noise = np.random.default_rng(9).normal(size=t.size)
        design = make_design(TimeSeries(np.cos(0.3 * t) + 1e-8 * noise), 3)
        x = design.materialize()
        kappa = np.linalg.cond(x)
        assert 0.5e8 < kappa < 2e8
        q, _ = _qr(x, 3)
        expected = np.einsum("ij,ij->i", q, q)
        scores = exact_leverage(design).scores
        tol = 10 * kappa * np.finfo(float).eps
        np.testing.assert_allclose(scores, expected, rtol=0, atol=tol * expected.max())
        assert abs(scores.sum() - 3) < tol * 3

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

    def test_matches_per_lag_fits(self, ar2_series):
        # The per-lag reference: one full-design fit per lag.
        trace = exact_pacf(ar2_series, 12)
        reference = [fit_ols(make_design(ar2_series, h)).coefficients[-1] for h in range(1, 13)]
        np.testing.assert_allclose(trace.estimates, reference, rtol=0, atol=1e-14)

    def test_rank_deficient_lag_recorded_as_nan(self):
        # A constant series defeats every lag >= 2 but not selection.
        trace = exact_pacf(TimeSeries(np.full(20, 2.0)), 3)
        assert np.all(np.isnan(trace.estimates[1:]))
        assert trace.selected_order in (0, 1)


class TestNestedFactors:
    def test_each_factor_is_an_r_of_its_windows(self, ar2_series):
        # Held all at once, so a factor written by a later fold would show.
        y = ar2_series.values
        factors = list(nested_factors(ar2_series, 9))
        assert [f.shape for f in factors] == [(h + 1, h + 1) for h in range(9, 0, -1)]
        for h, f in zip(range(9, 0, -1), factors):
            windows = np.lib.stride_tricks.sliding_window_view(y, h + 1)[: y.size - h]
            gram = windows.T @ windows
            np.testing.assert_allclose(f.T @ f, gram, rtol=0, atol=1e-13 * np.abs(gram).max())
            assert not np.tril(f, -1).any()

    def test_leading_blocks_are_the_growing_window_fits(self, ar2_series):
        n, h = ar2_series.n, 7
        # Factor 7 is the third, after those of lags 9 and 8.
        f = list(nested_factors(ar2_series, 9))[2]
        for q in range(1, h + 1):
            expected = fit_ols(make_design(ar2_series.prefix(n - h + q), q)).coefficients
            np.testing.assert_allclose(solve_ols(f[: q + 1, : q + 1]), expected,
                                       rtol=1e-12, atol=1e-14)


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
