import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsar import (
    ARGeneratorSpec,
    DataError,
    DivergenceError,
    NonpositiveValueError,
    OrderRangeError,
    TimeSeries,
    center,
    generate_ar,
    log_diff,
    make_design,
)
from lsar.series import APPLY_BLOCK, BLOCK_BYTES


class TestTimeSeries:
    def test_rejects_short_series(self):
        with pytest.raises(DataError):
            TimeSeries(np.array([1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(DataError, match="index 2"):
            TimeSeries(np.array([1.0, 2.0, np.nan, 4.0]))

    def test_rejects_2d(self):
        with pytest.raises(DataError):
            TimeSeries(np.zeros((3, 3)))

    def test_values_read_only(self):
        series = TimeSeries(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            series.values[0] = 9.0

    def test_prefix(self):
        series = TimeSeries(np.arange(10.0))
        assert series.prefix(4).n == 4
        np.testing.assert_array_equal(series.prefix(4).values, [0, 1, 2, 3])

    def test_prefix_is_a_read_only_view(self):
        series = TimeSeries(np.arange(10.0))
        head = series.prefix(4)
        assert np.shares_memory(head.values, series.values)
        assert not head.values.flags.writeable
        with pytest.raises(DataError):
            series.prefix(1)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_outside_data_is_validated(self, bad):
        with pytest.raises(DataError, match="index 1"):
            TimeSeries([0.0, bad, 2.0])


class TestMakeDesign:
    def test_four_points_order_two(self):
        design = make_design(TimeSeries(np.array([1.0, 2, 3, 4])), 2)
        np.testing.assert_array_equal(design.materialize(), [[2, 1], [3, 2]])
        np.testing.assert_array_equal(design.responses, [3, 4])

    def test_three_points_order_one(self):
        design = make_design(TimeSeries(np.array([1.0, 2, 3])), 1)
        np.testing.assert_array_equal(design.materialize(), [[1], [2]])
        np.testing.assert_array_equal(design.responses, [2, 3])

    def test_order_out_of_range(self):
        series = TimeSeries(np.array([1.0, 2, 3, 4]))
        with pytest.raises(OrderRangeError):
            make_design(series, 4)
        with pytest.raises(OrderRangeError):
            make_design(series, 3)
        with pytest.raises(OrderRangeError):
            make_design(series, 0)

    @given(
        data=st.data(),
        values=st.lists(
            st.floats(-100, 100, allow_nan=False), min_size=3, max_size=50
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_match_reversed_slices(self, data, values):
        y = np.asarray(values)
        p = data.draw(st.integers(1, len(y) - 2))
        design = make_design(TimeSeries(y), p)
        assert design.row_count == len(y) - p
        for i in range(design.row_count):
            np.testing.assert_array_equal(design.rows[i], y[i:i + p][::-1])
            assert design.responses[i] == y[i + p]

    def test_nested_design_block_structure(self):
        # Row i at order p is the newest lag prepended to the shorter
        # design's row i: the block identity driving the score recursion.
        rng = np.random.default_rng(0)
        y = rng.normal(size=30)
        for p in range(2, 6):
            outer = make_design(TimeSeries(y), p)
            inner = make_design(TimeSeries(y[: len(y) - 1]), p - 1)
            for i in range(inner.row_count):
                np.testing.assert_array_equal(
                    outer.rows[i], np.concatenate([[y[i + p - 1]], inner.rows[i]])
                )

    def test_apply_matches_materialized(self):
        rng = np.random.default_rng(1)
        y = TimeSeries(rng.normal(size=60))
        for p in (1, 2, 5, 11):
            design = make_design(y, p)
            phi = rng.normal(size=p)
            np.testing.assert_allclose(
                design.apply(phi), design.materialize() @ phi, atol=1e-12
            )

    @pytest.mark.parametrize("p", [1, 2, 7, 40, 100, 128])
    def test_apply_is_the_full_convolution_slice(self, p):
        # The blocked product adds the products in another order than
        # numpy's convolution, so it is held to the worst-case rounding
        # error of a p-term dot product against the exactly rounded slice.
        rng = np.random.default_rng(p)
        y = rng.normal(size=5003)
        design = make_design(TimeSeries(y), p)
        phi = rng.normal(size=p)
        applied = design.apply(phi)
        assert_within_dot_product_error(applied, design.materialize(), phi)
        np.testing.assert_allclose(applied, design.materialize() @ phi,
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 7, 17, 40, 100])
    @pytest.mark.parametrize("tail", [0, 1, -1])
    def test_apply_at_block_boundaries(self, p, tail):
        # Row counts that are a multiple of the block B, one more than a
        # multiple, and one less.
        b = max(APPLY_BLOCK, -(-(p - 1) // APPLY_BLOCK) * APPLY_BLOCK)
        m = 5 * b + tail
        rng = np.random.default_rng(m * 1000 + p)
        design = make_design(TimeSeries(rng.normal(size=m + p)), p)
        phi = rng.normal(size=p)
        assert_within_dot_product_error(design.apply(phi), design.materialize(), phi)

    @pytest.mark.parametrize("p", [1, 2, 7, 40, 100])
    def test_apply_without_a_full_block(self, p):
        rng = np.random.default_rng(p)
        design = make_design(TimeSeries(rng.normal(size=p + 2)), p)
        phi = rng.normal(size=p)
        assert_within_dot_product_error(design.apply(phi), design.materialize(), phi)

    @given(data=st.data(), n=st.integers(3, 400))
    @settings(max_examples=80, deadline=None)
    def test_apply_at_any_length_and_order(self, data, n):
        p = data.draw(st.integers(1, min(n - 2, 140)))
        rng = np.random.default_rng(n * 1000 + p)
        design = make_design(TimeSeries(rng.normal(size=n)), p)
        phi = rng.normal(size=p)
        assert_within_dot_product_error(design.apply(phi), design.materialize(), phi)

    def test_apply_returns_a_fresh_writable_array(self):
        y = np.arange(1.0, 200.0)
        design = make_design(TimeSeries(y), 3)
        applied = design.apply([1, 0, 0])
        assert applied.dtype == np.float64
        assert applied.flags.writeable and applied.flags.c_contiguous
        assert not np.shares_memory(applied, design.series.values)
        np.testing.assert_array_equal(applied, y[2:-1])

    @pytest.mark.parametrize("p", [2, 5])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_blocks_are_fortran_ordered_weighted_windows(self, p, weighted):
        # A block in C order would make each LAPACK fold copy it first.
        step = max(p + 1, BLOCK_BYTES // (8 * (p + 1)))
        rng = np.random.default_rng(p)
        y = rng.normal(size=2 * step + 3 + p)
        design = make_design(TimeSeries(y), p)

        def check(blocks, sizes, expected):
            assert [block.shape for block in blocks] == [(b, p + 1) for b in sizes]
            for block in blocks:
                assert block.dtype == np.float64 and block.flags.f_contiguous
                assert block.flags.writeable and not np.shares_memory(block, y)
            np.testing.assert_array_equal(np.concatenate(blocks), expected)

        # One row; one full block; a full block then one row; then 7 rows.
        for count in (1, step, step + 1, step + 7):
            indices = rng.integers(0, design.row_count, count)
            weights = rng.uniform(0.5, 2.0, count) if weighted else np.ones(count)
            windows = np.array([y[i:i + p + 1] for i in indices]) * weights[:, None]
            check(list(design.blocks(indices, weights if weighted else None)),
                  [count] if count <= step else [step, count - step], windows)
        # Every row in order: two full blocks and a partial one.
        check(list(design.blocks()), [step, step, 3],
              np.lib.stride_tricks.sliding_window_view(y, p + 1))


def exactly_rounded_dots(rows, phi):
    """``rows @ phi`` with each entry rounded once from the exact sum.

    Each product is split exactly into a head and a tail (Dekker's
    TwoProduct), and ``math.fsum`` adds all of them exactly.
    """
    def split(a):
        c = 134217729.0 * a  # 2**27 + 1
        hi = c - (c - a)
        return hi, a - hi

    prod = rows * phi
    rh, rl = split(rows)
    ph, pl = split(np.asarray(phi, dtype=np.float64))
    err = ((rh * ph - prod) + rh * pl + rl * ph) + rl * pl
    return np.array([math.fsum(np.concatenate(pair)) for pair in zip(prod, err)])


def assert_within_dot_product_error(applied, rows, phi):
    """|applied - exact| <= gamma_p * (|X| @ |phi|), whatever the order of
    summation (Higham, Accuracy and Stability of Numerical Algorithms,
    section 3.1), with gamma_p
    taken as p * eps, twice p times the unit roundoff."""
    assert applied.shape == (rows.shape[0],)
    exact = exactly_rounded_dots(rows, phi)
    bound = rows.shape[1] * np.finfo(np.float64).eps * (np.abs(rows) @ np.abs(phi))
    assert np.all(np.abs(applied - exact) <= bound)


class TestCenter:
    def test_simple(self):
        out = center(TimeSeries(np.array([1.0, 2, 3])))
        np.testing.assert_allclose(out.values, [-1, 0, 1], atol=1e-15)

    def test_constant(self):
        out = center(TimeSeries(np.array([5.0, 5.0])))
        np.testing.assert_allclose(out.values, [0, 0], atol=1e-15)

    def test_idempotent_on_zero_mean(self):
        y = np.array([-1.0, 0.5, 0.5])
        out = center(TimeSeries(y))
        np.testing.assert_allclose(out.values, y, atol=1e-12)


class TestLogDiff:
    def test_exact_logs(self):
        out = log_diff(TimeSeries(np.array([1.0, math.e, math.e**3])))
        np.testing.assert_allclose(out.values, [1.0, 2.0], atol=1e-12)

    def test_constant(self):
        out = log_diff(TimeSeries(np.array([2.0, 2.0, 2.0])))
        np.testing.assert_allclose(out.values, [0.0, 0.0], atol=1e-15)

    def test_nonpositive_value_reported(self):
        with pytest.raises(NonpositiveValueError) as info:
            log_diff(TimeSeries(np.array([1.0, 0.0, 3.0])))
        assert info.value.index == 1
        assert "2 1-based" in str(info.value)

    @given(
        values=st.lists(st.floats(0.01, 1e6, allow_nan=False), min_size=3,
                        max_size=40)
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, values):
        y = np.asarray(values)
        diffs = log_diff(TimeSeries(y)).values
        rebuilt = y[0] * np.exp(np.cumsum(diffs))
        np.testing.assert_allclose(rebuilt, y[1:], rtol=1e-10)


class TestGenerateAr:
    def test_white_noise_moments(self):
        spec = ARGeneratorSpec(np.array([]), 1.0, 100_000, seed=0)
        y = generate_ar(spec).values
        assert abs(y.mean()) < 0.02
        assert abs(y.var() - 1.0) < 0.05

    def test_ar1_stationary_variance(self):
        # AR(1) stationary variance is sigma^2 / (1 - phi^2) = 4/3.
        spec = ARGeneratorSpec(np.array([0.5]), 1.0, 100_000, seed=0)
        y = generate_ar(spec).values
        assert abs(y.var() - 4.0 / 3.0) < 0.05

    def test_deterministic(self):
        spec = ARGeneratorSpec(np.array([0.7, -0.2]), 2.0, 5000, seed=123)
        np.testing.assert_array_equal(
            generate_ar(spec).values, generate_ar(spec).values
        )

    def test_divergence_guard(self):
        spec = ARGeneratorSpec(np.array([1.5]), 1.0, 100_000, seed=0)
        with pytest.raises(DivergenceError):
            generate_ar(spec)

    def test_invalid_noise_std(self):
        with pytest.raises(DataError):
            ARGeneratorSpec(np.array([0.5]), 0.0, 100, seed=0)

    @pytest.mark.parametrize("noise_std", [math.nan, math.inf])
    def test_nonfinite_noise_std(self, noise_std):
        with pytest.raises(DataError, match="noise_std must be positive and finite"):
            ARGeneratorSpec(np.array([0.5]), noise_std, 100, seed=0)

    def test_burn_in_default(self):
        spec = ARGeneratorSpec(np.array([0.5, 0.1]), 1.0, 100, seed=0)
        assert spec.effective_burn_in == 10 * 2 + 1000
        explicit = ARGeneratorSpec(np.array([0.5]), 1.0, 100, seed=0, burn_in=3)
        assert explicit.effective_burn_in == 3
