"""Time series container, stationarity transforms, lagged design view,
and seeded synthetic AR generation.

The design matrix of an AR(p) regression is Toeplitz: row i (0-based) is
``[y[i+p-1], y[i+p-2], ..., y[i]]`` with response ``y[i+p]``.  `ARDesign`
exposes that matrix as a zero-copy view over the series; materialization
is explicit and only used by oracles.  Solves read the rows they need of
the augmented matrix ``[X | y]`` as the windows ``y[i : i + p + 1]``, the
lag columns in reverse, in row blocks of about 512 KiB instead
(`ARDesign.blocks`), so no solve holds more than one block.  The
full-design product ``X @ phi`` behind every residual (`ARDesign.residuals`)
is a blocked Toeplitz matrix product over the series (`ARDesign.apply`),
which runs at matrix-matrix (BLAS-3) speed for every order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, DivergenceError, NonpositiveValueError, OrderRangeError

DIVERGENCE_GUARD = 1e12
# The residual kernel's block B is p - 1 rounded up to a multiple of this.
APPLY_BLOCK = 16
# Bytes of one gathered row block of [X | y], small enough to stay in L2
# while it is scaled and factored.  On a core with 2 MiB of L2, the solves
# of a pbar = 100 run took about 15 % less time than with 1 MiB blocks, and
# 256 KiB was no faster.
BLOCK_BYTES = 2**19


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

    def materialize(self) -> np.ndarray:
        """Dense contiguous copy of the design matrix (explicitly O(n p))."""
        return np.ascontiguousarray(self.rows)

    def blocks(self, indices: np.ndarray | None = None,
               weights: np.ndarray | None = None):
        """Windows ``y[i : i + p + 1]`` of the rows ``indices``, scaled by
        ``weights``, in row blocks.

        Row i of ``[X | y]`` in window order is ``[y[i], ..., y[i + p]]``:
        the lags from p down to 1, then the response.  Yields fresh
        Fortran-ordered ``(b, p + 1)`` arrays of at most
        ``max(p + 1, BLOCK_BYTES // (8 (p + 1)))`` rows each, the layout
        LAPACK folds without a copy.  Without ``indices`` every row is taken
        in order.  Only one block is built at a time, so a caller that
        consumes each block before the next never holds more.
        """
        windows = sliding_window_view(self.series.values, self.p + 1)
        s = self.row_count if indices is None else indices.size
        step = max(self.p + 1, BLOCK_BYTES // (8 * (self.p + 1)))
        for start in range(0, s, step):
            stop = min(start + step, s)
            rows = windows[start:stop] if indices is None else windows[indices[start:stop]]
            yield (np.array(rows, order="F") if weights is None
                   else np.multiply(rows, weights[start:stop, None], order="F"))

    def apply(self, phi: np.ndarray) -> np.ndarray:
        """Compute ``X @ phi`` in O(n p) without materializing the matrix.

        ``(X phi)[i] = sum_k phi[k] y[i + p - 1 - k]`` is the valid-mode
        convolution of ``x = y[:-1]`` with phi, computed as a blocked
        Toeplitz matrix product.  With ``x_b`` the b-th run of B values of
        x, output block b is ``[x_b, x_{b+1}] @ T``, where the 2B x B band
        ``T[t + j, t] = phi[p - 1 - j]`` and B >= p - 1.  The even blocks
        read x as rows of 2B values from offset 0, the odd ones from offset
        B, so each half is one GEMM written straight into the output.  The
        last outputs, fewer than 2B, are a small dense product.

        The result is a fresh array, which callers may overwrite.
        """
        phi = np.asarray(phi, dtype=np.float64)
        x = self.series.values[:-1]
        p = self.p
        b = max(APPLY_BLOCK, -(-(p - 1) // APPLY_BLOCK) * APPLY_BLOCK)
        # band[r, c] = padded[r - c + b - 1], and padded holds phi reversed
        # from index b - 1 on, so band[t + j, t] = phi[p - 1 - j].
        padded = np.zeros(3 * b - 1)
        padded[b - 1: b - 1 + p] = phi[::-1]
        band = np.ascontiguousarray(sliding_window_view(padded, b)[: 2 * b, ::-1])
        blocks = max(x.size // b - 1, 0)
        out = np.empty(self.row_count)
        head = out[: blocks * b].reshape(blocks, b)
        even, odd = (blocks + 1) // 2, blocks // 2
        np.matmul(x[: even * 2 * b].reshape(even, 2 * b), band, out=head[0::2])
        np.matmul(x[b: b + odd * 2 * b].reshape(odd, 2 * b), band, out=head[1::2])
        done = blocks * b
        # Nothing is left when B = p - 1 and x splits into whole blocks.
        if done < out.size:
            out[done:] = sliding_window_view(x[done:], p) @ phi[::-1]
        return out

    def residuals(self, phi: np.ndarray) -> np.ndarray:
        """``y - X @ phi``, subtracted in place in `apply`'s fresh array."""
        residuals = self.apply(phi)
        return np.subtract(self.responses, residuals, out=residuals)


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
        bad = np.flatnonzero(~np.isfinite(phi))
        if bad.size:
            raise DataError(f"coefficients must be finite, got phi_{bad[0] + 1} = {phi[bad[0]]}")
        if not 0 < self.noise_std < math.inf:
            raise DataError(f"noise_std must be positive and finite, got {self.noise_std}")
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
