"""Time series container, stationarity transforms, lagged design view,
and seeded synthetic AR generation.

The design matrix of an AR(p) regression is Toeplitz: row i (0-based) is
``[y[i+p-1], y[i+p-2], ..., y[i]]`` with response ``y[i+p]``.  `ARDesign`
exposes that matrix as a zero-copy view over the series; materialization
is explicit and only used by oracles.  Solves gather the rows they need of
the augmented panel ``[X | y]`` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, DivergenceError, NonpositiveValueError, OrderRangeError

DIVERGENCE_GUARD = 1e12


@dataclass(frozen=True)
class TimeSeries:
    """An ordered vector of real observations.

    All public indexing is 0-based.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise DataError(f"series must be one-dimensional, got shape {values.shape}")
        if values.size < 2:
            raise DataError(f"series needs at least 2 observations, got {values.size}")
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise DataError(f"non-finite value at index {bad} (0-based; {bad + 1} 1-based)")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.size

    def prefix(self, m: int) -> "TimeSeries":
        """First ``m`` observations, as a view-backed series.

        The values were validated when this series was built, so only the
        length is checked again.
        """
        values = self.values[:m]
        if values.size < 2:
            raise DataError(f"series needs at least 2 observations, got {values.size}")
        view = object.__new__(TimeSeries)
        object.__setattr__(view, "values", values)
        return view


@dataclass(frozen=True)
class ARDesign:
    """Implicit lagged design matrix for an AR(p) regression on a series.

    Row i is the reversed slice ``y[i:i+p]`` and the response is ``y[i+p]``
    (0-based).  Storage is a strided view into the series, independent of p.
    """

    series: TimeSeries
    p: int

    def __post_init__(self):
        n = self.series.n
        if self.p < 1 or self.p > n - 2:
            raise OrderRangeError(
                f"order p={self.p} out of range for series of length {n}; "
                f"need 1 <= p <= {n - 2}"
            )

    @property
    def row_count(self) -> int:
        return self.series.n - self.p

    @property
    def rows(self) -> np.ndarray:
        """All rows as a read-only strided view (no copy)."""
        y = self.series.values
        return sliding_window_view(y, self.p)[: self.row_count, ::-1]

    @property
    def responses(self) -> np.ndarray:
        return self.series.values[self.p:]

    def row(self, i: int) -> np.ndarray:
        return self.rows[i]

    def response(self, i: int) -> float:
        return float(self.series.values[self.p + i])

    def materialize(self) -> np.ndarray:
        """Dense contiguous copy of the design matrix (explicitly O(n p))."""
        return np.ascontiguousarray(self.rows)

    def panel(self, indices: np.ndarray | None = None,
              weights: np.ndarray | None = None) -> np.ndarray:
        """Rows ``indices`` of ``[X | y]``, scaled by ``weights``.

        The result is a fresh Fortran-ordered ``(s, p + 1)`` array gathered
        straight from the series: column k holds ``y[i + p - 1 - k]`` and the
        last column the response ``y[i + p]``.  Without ``indices`` every row
        is taken in order.
        """
        y = self.series.values
        p = self.p
        s = self.row_count if indices is None else indices.size
        out = np.empty((s, p + 1), order="F")
        for col, lag in enumerate([*range(p - 1, -1, -1), p]):
            if indices is None:
                out[:, col] = y[lag: lag + s]
            else:
                np.take(y[lag:], indices, out=out[:, col])
        if weights is not None:
            out *= weights[:, None]
        return out

    def apply(self, phi: np.ndarray) -> np.ndarray:
        """Compute ``X @ phi`` in O(n p) without materializing the matrix.

        The result is a fresh array, which callers may overwrite.
        """
        phi = np.asarray(phi, dtype=np.float64)
        # (X phi)[i] = sum_k phi[k] y[i + p - 1 - k] is the valid-mode
        # convolution of y[:-1] with phi.
        return np.convolve(self.series.values[:-1], phi, mode="valid")

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        """Compute ``X.T @ v`` in O(n p) without materializing the matrix."""
        v = np.asarray(v, dtype=np.float64)
        y = self.series.values
        # (X^T v)[k] = sum_i y[i + p - 1 - k] v[i], a sliding correlation.
        full = np.correlate(y, v, mode="full")
        out = full[self.series.n - 1 - self.p: self.series.n - 1]
        return out[::-1].copy()


@dataclass(frozen=True)
class ARGeneratorSpec:
    """Parameters for simulating ``Y_t = sum_k phi_k Y_{t-k} + W_t`` with
    Gaussian white noise ``W_t ~ N(0, noise_std**2)``.

    Stationarity of the coefficients is the caller's responsibility; the
    generator guards against divergence instead of checking polynomial roots.
    """

    coefficients: np.ndarray
    noise_std: float
    n: int
    seed: int
    burn_in: int | None = None

    def __post_init__(self):
        phi = np.atleast_1d(np.asarray(self.coefficients, dtype=np.float64))
        object.__setattr__(self, "coefficients", phi)
        if self.noise_std <= 0:
            raise DataError(f"noise_std must be positive, got {self.noise_std}")
        if self.n < 2:
            raise DataError(f"series length must be >= 2, got {self.n}")
        if self.burn_in is not None and self.burn_in < 0:
            raise DataError(f"burn_in must be nonnegative, got {self.burn_in}")

    @property
    def order(self) -> int:
        return self.coefficients.size

    @property
    def effective_burn_in(self) -> int:
        if self.burn_in is not None:
            return self.burn_in
        return 10 * self.order + 1000


def make_design(series: TimeSeries, p: int) -> ARDesign:
    """Lagged design view of ``series`` at order ``p``."""
    return ARDesign(series, p)


def center(series: TimeSeries) -> TimeSeries:
    """Subtract the sample mean."""
    return TimeSeries(series.values - series.values.mean())


def log_diff(series: TimeSeries) -> TimeSeries:
    """Logarithm followed by lag-1 differencing; output has length n - 1.

    Every value must be strictly positive.
    """
    y = series.values
    nonpos = np.flatnonzero(y <= 0)
    if nonpos.size:
        i = int(nonpos[0])
        raise NonpositiveValueError(i, float(y[i]))
    return TimeSeries(np.diff(np.log(y)))


def generate_ar(spec: ARGeneratorSpec) -> TimeSeries:
    """Simulate an AR process; deterministic and bit-identical given the seed.

    The recurrence starts from zeros, runs for ``burn_in`` extra steps that
    are discarded, and aborts if any value exceeds the divergence guard.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(spec.seed)))
    total = spec.n + spec.effective_burn_in
    w = rng.normal(0.0, spec.noise_std, size=total)
    if spec.order == 0:
        y = w
    else:
        # Imported here: scipy.signal takes longer to import than the rest
        # of lsar, and no other command needs it.
        from scipy.signal import lfilter

        a = np.concatenate(([1.0], -spec.coefficients))
        y = lfilter([1.0], a, w)
    peak = float(np.max(np.abs(y)))
    if not np.isfinite(peak) or peak > DIVERGENCE_GUARD:
        raise DivergenceError(
            f"generated values reached magnitude {peak:.3e} "
            f"(guard {DIVERGENCE_GUARD:.0e}); coefficients are likely non-causal"
        )
    return TimeSeries(y[spec.effective_burn_in:].copy())
