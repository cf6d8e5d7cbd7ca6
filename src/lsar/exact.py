"""Ground-truth computations on the full lagged design.

The conditional MLE of an AR(p) model is the OLS solution of regressing
``y[p:]`` on its p lagged values.  Everything here goes through one
Householder QR, `augmented_r`, which returns only the R factor of the
chosen rows of ``[X | y]``.  It reads the rows in blocks of about 512 KiB:
LAPACK's recursive compact-WY QR (``dgeqrt``, Elmroth & Gustavson) factors
the first block and ``dtpqrt`` folds each later one into R, both mostly in
matrix-matrix products.  The triangular system ``R[:p, :p] phi = R[:p, p]``
gives the coefficients.  Exact leverage scores are the squared row norms of
Q = X R^-1, computed block by block, so Q is never formed either.  Normal
equations are deliberately avoided; the kappa^2 conditioning loss would
contaminate the score oracles.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError, RankDeficiencyError
from .series import ARDesign, TimeSeries, make_design

RANK_RTOL = 1e-10
# Block size of the compact-WY QR of the first row block and of each fold.
# On 512 KiB row blocks, the solves of a pbar = 100 run took about 15 % less
# time with 8 than with 24.
QR_BLOCK = 8
ZERO_CONFIDENCE_Z = 1.96


class FitSource(enum.Enum):
    FULL = "full"
    SAMPLED = "sampled"


class Provenance(enum.Enum):
    EXACT = "exact"
    QUASI = "quasi"
    FULLY_APPROXIMATE = "fully_approximate"


@dataclass(frozen=True)
class ARFit:
    """One fitted AR(p) regression: coefficients, residuals and noise MSE.

    ``residuals`` are always evaluated on the full design, even when the
    coefficients came from a sampled (reduced) solve.
    """

    order: int
    coefficients: np.ndarray
    residuals: np.ndarray
    residual_norm: float
    noise_variance: float
    source: FitSource

    def __post_init__(self):
        self.coefficients.setflags(write=False)
        self.residuals.setflags(write=False)


@dataclass(frozen=True)
class LeverageScores:
    """Per-row leverage scores and the induced sampling distribution."""

    order: int
    scores: np.ndarray
    provenance: Provenance
    distribution: np.ndarray
    clamp_count: int = 0

    def __post_init__(self):
        self.scores.setflags(write=False)
        self.distribution.setflags(write=False)

    @classmethod
    def from_scores(cls, order, scores, provenance, clamp_count=0):
        total = scores.sum()
        if not math.isfinite(total):
            raise NumericalError(f"leverage scores sum to {total}; no sampling distribution")
        if total <= 0:
            raise DataError("all leverage scores are zero; no sampling distribution")
        return cls(order, scores, provenance, scores / total, clamp_count)

    def __len__(self) -> int:
        return self.scores.size


@dataclass(frozen=True)
class PacfTrace:
    """Partial autocorrelation estimates for lags 1..len(estimates).

    Undefined lags (rank-deficient fits) are stored as NaN and never
    participate in order selection.  ``bandwidth`` is the zero-confidence
    half-width 1.96/sqrt(effective_sample); with per-lag sample sizes the
    optional ``per_lag_bandwidth`` takes precedence for selection.
    """

    estimates: np.ndarray
    bandwidth: float
    effective_sample: int
    selected_order: int
    per_lag_bandwidth: np.ndarray | None = None

    @property
    def lags(self) -> np.ndarray:
        return np.arange(1, self.estimates.size + 1)


def select_order(estimates: np.ndarray, bandwidth) -> int:
    """Largest lag whose |PACF| reaches the band; 0 when none does.

    ``bandwidth`` may be a scalar or a per-lag array.  NaN lags are skipped.
    """
    band = np.broadcast_to(np.asarray(bandwidth, dtype=np.float64), estimates.shape)
    with np.errstate(invalid="ignore"):
        hits = np.flatnonzero(np.abs(estimates) >= band)
    return int(hits[-1] + 1) if hits.size else 0


def _check_rank(diag: np.ndarray, required_rank: int):
    """Relative rank check on the diagonal of a triangular factor."""
    diag = np.abs(diag)
    scale = diag.max() if diag.size else 0.0
    rank = int(np.count_nonzero(diag > RANK_RTOL * scale)) if scale > 0 else 0
    if rank < required_rank:
        raise RankDeficiencyError(rank, required_rank)


def __getattr__(name):
    """``blas``, ``lapack`` and ``solve_triangular``, imported from scipy on
    first use.

    Importing scipy.linalg costs more than the rest of lsar, and commands
    that never solve (``ingest``, ``generate``) should not pay for it.  The
    names are then cached as module globals, where tests may patch them.
    """
    if name not in ("blas", "lapack", "solve_triangular"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.linalg import blas, lapack, solve_triangular

    globals().update(blas=blas, lapack=lapack, solve_triangular=solve_triangular)
    return globals()[name]


# Attribute lookups on the module object fall back to ``__getattr__``.
_this = sys.modules[__name__]


def augmented_r(design: ARDesign, indices: np.ndarray | None = None,
                weights: np.ndarray | None = None) -> np.ndarray:
    """R factor of the rows ``indices`` of ``[X | y]``, scaled by ``weights``.

    A sequential TSQR (Demmel, Grigori, Hoemmen & Langou, 2012) over the
    row blocks of `ARDesign.blocks`: ``dgeqrt`` factors the first block and
    ``dtpqrt`` folds each later one into R, so the rows are never held all
    at once.  The result is the ``(p + 1, p + 1)`` upper-triangular
    Fortran-ordered R; with fewer than p + 1 rows its last rows are zero.
    Without ``indices`` every row is taken.
    """
    p = design.p
    nb = min(QR_BLOCK, p + 1)
    r = None
    for block in design.blocks(indices, weights):
        if r is None:
            k = min(block.shape[0], p + 1)
            block, _, info = _this.lapack.dgeqrt(min(nb, k), block, overwrite_a=True)
            r = np.zeros((p + 1, p + 1), order="F")
            r[:k] = np.triu(block[:k])
        else:
            # dtpqrt reads and writes only the upper triangle of r.
            r, _, _, info = _this.lapack.dtpqrt(0, nb, r, block, overwrite_a=True,
                                                overwrite_b=True)
        if info != 0:
            raise NumericalError(f"QR of a {block.shape} row block failed: LAPACK info={info}")
    if r is None:
        raise RankDeficiencyError(0, p)
    return r


def solve_ols(r: np.ndarray) -> np.ndarray:
    """Least-squares coefficients from the R factor of ``[X | y]``.

    The coefficients solve ``R[:p, :p] phi = R[:p, p]``, so Q is never
    formed.  The rank check is relative, on the diagonal of ``R[:p, :p]``.
    """
    p = r.shape[1] - 1
    _check_rank(np.diag(r[:p, :p]), p)
    try:
        return _this.solve_triangular(r[:p, :p], r[:p, p])
    except ValueError as err:
        # LinAlgError (a singular factor) is a ValueError, as is the
        # rejection of a non-finite factor.
        raise NumericalError(f"triangular solve failed: {err}") from err


def fit_from_coefficients(design: ARDesign, phi: np.ndarray, source: FitSource) -> ARFit:
    """The fit with coefficients ``phi``, its residuals on the full design.

    The noise-variance estimate is ``|r|^2 / (n - p)``.
    """
    residuals = design.apply(phi)
    np.subtract(design.responses, residuals, out=residuals)
    rnorm = float(np.linalg.norm(residuals))
    return ARFit(
        order=design.p,
        coefficients=phi,
        residuals=residuals,
        residual_norm=rnorm,
        noise_variance=rnorm**2 / design.row_count,
        source=source,
    )


def fit_ols(design: ARDesign) -> ARFit:
    """Conditional MLE of the AR coefficients at the design's order."""
    return fit_from_coefficients(design, solve_ols(augmented_r(design)), FitSource.FULL)


def exact_leverage(design: ARDesign) -> LeverageScores:
    """Exact leverage scores: squared row norms of the orthonormal factor.

    With X = QR, row i of Q is ``x_i R^-1``.  R comes from `augmented_r`,
    and a second pass over the row blocks solves for those rows block by
    block, so neither X nor Q is formed.
    """
    p = design.p
    r = np.asfortranarray(augmented_r(design)[:p, :p])
    _check_rank(np.diag(r), p)
    scores = np.empty(design.row_count)
    start = 0
    for block in design.blocks():
        # X_b R^-1 in place of the block's first p columns (side=1: right).
        rows = _this.blas.dtrsm(1.0, r, block[:, :p], side=1, overwrite_b=True)
        np.einsum("ij,ij->i", rows, rows, out=scores[start: start + rows.shape[0]])
        start += rows.shape[0]
    return LeverageScores.from_scores(p, scores, Provenance.EXACT)


def exact_pacf(series: TimeSeries, max_lag: int) -> PacfTrace:
    """PACF trace from full-data OLS fits at each lag 1..max_lag.

    The estimate at lag h is the last coefficient of the order-h CMLE.
    Rank-deficient lags are recorded as NaN.
    """
    n = series.n
    if max_lag < 1:
        raise DataError(f"max_lag must be >= 1, got {max_lag}")
    if max_lag > n // 2:
        raise DataError(
            f"max_lag {max_lag} exceeds n/2 = {n // 2}; the tail fits would "
            "be too short to be meaningful"
        )
    estimates = np.full(max_lag, np.nan)
    for h in range(1, max_lag + 1):
        try:
            estimates[h - 1] = fit_ols(make_design(series, h)).coefficients[-1]
        except RankDeficiencyError:
            pass
    effective = n - max_lag
    bandwidth = ZERO_CONFIDENCE_Z / math.sqrt(effective)
    return PacfTrace(
        estimates=estimates,
        bandwidth=bandwidth,
        effective_sample=effective,
        selected_order=select_order(estimates, bandwidth),
    )
