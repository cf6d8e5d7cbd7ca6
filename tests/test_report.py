import hashlib
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsar.cli import read_series, write_series
from lsar.report import FLOAT_FORMAT, float_lines
from lsar.series import TimeSeries


def reference(values):
    return "".join(FLOAT_FORMAT % v + "\n" for v in values)


def check(values):
    values = np.asarray(values, dtype=np.float64)
    assert float_lines(values) == reference(values.tolist())


def near_ties(q):
    """Doubles a with a * 10**q = N + 1/2 +- 2**-s, N in [1e16, 1e17), for
    the largest s that has any: the products closest to a rounding tie."""
    five = 5**q
    for s in range(60, 0, -1):
        mod = 1 << s
        inverse = pow(five, -1, mod)
        found = []
        for sign in (1, -1):
            start = ((mod >> 1) + sign) * inverse % mod
            for m in range(start + ((1 << 52) - start + mod - 1) // mod * mod, 1 << 53, mod):
                if 10**16 * mod <= m * five < 10**17 * mod:
                    found.append(math.ldexp(m, -(s + q)))
        if found:
            return s, found
    return None, []


class TestFloatLines:
    def test_powers_of_ten_and_neighbours(self):
        values = []
        for k in range(-7, 18):
            x = 10.0**k
            values += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
        check(values + [-v for v in values])

    def test_range_edges(self):
        # The double nearest 1e-6 lies below 10^-6: its 17 digits are
        # 9.9999999999999995e-07, although rounding them once more gives 1e-06.
        check([1e-6, math.nextafter(1e-6, 1.0), math.nextafter(1e-6, 0.0),
               1e17, math.nextafter(1e17, 0.0), math.nextafter(1e17, math.inf)])
        assert float_lines(np.array([1e-6])) == "9.9999999999999995e-07\n"

    def test_ties_round_half_even(self):
        check([1e15 + 0.25, 1e15 + 0.75, -(1e15 + 0.25), 2.5e15 + 0.25])
        assert float_lines(np.array([1e15 + 0.25, 1e15 + 0.75])) == \
            "1000000000000000.2\n1000000000000000.8\n"

    @pytest.mark.parametrize("q", [17, 20, 22])
    def test_products_next_to_a_tie(self, q):
        s, values = near_ties(q)
        assert values
        for a in values:
            exact = Fraction(a) * 10**q
            assert abs(exact - math.floor(exact) - Fraction(1, 2)) == Fraction(1, 2**s)
        check(values + [-a for a in values])

    def test_values_outside_the_exact_range(self):
        check([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1e-300, 1e300,
               math.inf, -math.inf, math.nan])

    def test_rounding_carries_into_the_exponent(self):
        check([float("9" * k) for k in range(1, 18)]
              + [99999999999999999.0 * 10.0**-k for k in range(1, 23)])

    def test_empty(self):
        assert float_lines(np.array([])) == ""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
    def test_matches_percent_format(self, values):
        check(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_matches_percent_format_on_bit_patterns(self, words):
        values = np.array(words, dtype=np.uint64).view(np.float64)
        check(values[np.isfinite(values)])


# A series that takes both of float_lines' paths: zeros, a subnormal, the
# double nearest 1e-6 (written both ways), 1e17 and two fast-path values.
PINNED_VALUES = [0.0, -0.0, 5e-324, 9.9999999999999995e-07, 1e-06, 1e17, -1 / 3, 123456.789]
PINNED_SHA256 = {
    "": "76ff2189ae50e94ce74656c3a7b13e170cada875e590cf0a5a3b7e37ef4e6769",
    ".lsarbin": "b7752e6140d685e6cb819cb67fb568b9d4facab4524c2a672c93af4dc47ced4a",
}


def test_series_file_bytes_are_pinned(tmp_path):
    path = str(tmp_path / "y.csv")
    expected = np.array(PINNED_VALUES).tobytes()
    write_series(path, TimeSeries(np.array(PINNED_VALUES)))
    for suffix, digest in PINNED_SHA256.items():
        with open(path + suffix, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, suffix
    assert read_series(path).values.tobytes() == expected
    os.unlink(path + ".lsarbin")
    assert read_series(path).values.tobytes() == expected
