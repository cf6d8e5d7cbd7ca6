"""Ground-truth computations on the full lagged design.

The conditional MLE of an AR(p) model is the OLS solution of regressing
``y[p:]`` on its p lagged values.  Everything here goes through one
Householder QR, `augmented_r`, which returns only the R factor of the
chosen rows of ``[X | y]``, taken as they lie in the series: the windows
``[y[i], ..., y[i + p]]``, lag p first and the response last.  It reads the
rows in blocks of about 512 KiB and folds each into R with LAPACK's
compact-WY ``dtpqrt``, mostly in matrix-matrix products, starting from a
zero R: folding a block into a zero R gives that block's R.  The
triangular system ``R[:p, :p] phi = R[:p, p]`` gives the coefficients
(`solve_ols`), and the leading (q + 1, q + 1) block of R is the R factor of
the order-q windows on the same rows, so one R holds the fits of every order
1..p, and `nested_factors` turns it into those of every lag: each exact
path factors its rows once.  Exact leverage scores are the squared row
norms of Q = X R^-1, computed block by block, so Q is never formed either.
Normal equations are deliberately avoided; the kappa^2 conditioning loss
would contaminate the score oracles.  A fit keeps its full-design residual
norm only, so no `ARFit` holds an O(n) array.

The LAPACK and BLAS routines come straight from scipy's compiled f2py
wrappers, ``scipy.linalg._flapack`` and ``scipy.linalg._fblas``, loaded by
file location on first use.  The ``scipy.linalg`` package itself is never
imported: executing its ``__init__`` costs 0.14-0.22 s and 23 MiB per
process on a 2-vCPU VM, more than importing the rest of lsar, while the two
wrappers load in about 5 ms.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

import numpy as np

from .errors import RANK_RTOL, DataError, NumericalError, RankDeficiencyError
from .series import ARDesign, TimeSeries, make_design

# Block size of the compact-WY QR of each fold.
# On 512 KiB row blocks, the solves of a pbar = 100 run took about 15 % less
# time with 8 than with 24.
QR_BLOCK = 8
ZERO_CONFIDENCE_Z = 1.96


@dataclass(frozen=True)
class ARFit:
    """One fitted AR(p) regression: coefficients, residual norm and noise MSE.

    The norm is that of the full-design residual, which is not kept, even
    when the coefficients came from a sampled (reduced) solve.
    """

    coefficients: np.ndarray
    residual_norm: float
    noise_variance: float

    def __post_init__(self):
        self.coefficients.setflags(write=False)


@dataclass(frozen=True)
class LeverageScores:
    """Per-row leverage scores and their sum, which normalizes them into the
    sampling distribution."""

    scores: np.ndarray
    total: float
    clamp_count: int = 0

    def __post_init__(self):
        self.scores.setflags(write=False)

    @classmethod
    def from_scores(cls, scores, clamp_count=0):
        total = scores.sum()
        if not math.isfinite(total):
            raise NumericalError(f"leverage scores sum to {total}; no sampling distribution")
        if total <= 0:
            raise DataError("all leverage scores are zero; no sampling distribution")
        return cls(scores, float(total), clamp_count)

    def __len__(self) -> int:
        return self.scores.size

    def cdf(self) -> np.ndarray:
        """CDF of the sampling distribution; pi = scores / total is formed
        only here and, by `draw_plan`, at the drawn rows."""
        cdf = np.divide(self.scores, self.total)
        np.cumsum(cdf, out=cdf)
        cdf /= cdf[-1]
        return cdf


@dataclass(frozen=True)
class PacfTrace:
    """Partial autocorrelation estimates for lags 1..len(estimates).

    Undefined lags (rank-deficient fits) are stored as NaN and never
    participate in order selection.  ``bandwidth`` holds each lag's
    zero-confidence half-width 1.96/sqrt(s) for that lag's sample size s;
    ``effective_sample`` is the sample size of the last lag.
    """

    estimates: np.ndarray
    bandwidth: np.ndarray
    effective_sample: int
    selected_order: int

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


# The module attribute each wrapper is reached by, and its scipy.linalg name.
_WRAPPERS = {"lapack": "_flapack", "blas": "_fblas"}


def _load_wrapper(name: str):
    """scipy's compiled wrapper module ``scipy.linalg.<name>``, loaded from
    its file without executing ``scipy/linalg/__init__.py``.

    A module of that name already in ``sys.modules`` is reused; a freshly
    loaded one is registered there, so a later ``import scipy.linalg`` in
    the same process shares it.
    """
    full_name = f"scipy.linalg.{name}"
    module = sys.modules.get(full_name)
    if module is not None:
        return module
    scipy_spec = PathFinder.find_spec("scipy")
    spec = None
    if scipy_spec is not None and scipy_spec.submodule_search_locations:
        spec = PathFinder.find_spec(
            full_name, [os.path.join(location, "linalg")
                        for location in scipy_spec.submodule_search_locations])
    if spec is None:
        raise ImportError(f"lsar needs scipy's compiled module {full_name}, "
                          "which was not found", name=full_name)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[full_name] = module
    return module


def __getattr__(name):
    """``lapack`` and ``blas``: scipy's LAPACK and BLAS wrappers, loaded on
    first use.

    Commands that never solve (``ingest``, ``generate``) load neither.  The
    modules are then cached as module globals, where tests may patch them.
    """
    if name not in _WRAPPERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _load_wrapper(_WRAPPERS[name])
    globals()[name] = module
    return module


# Attribute lookups on the module object fall back to ``__getattr__``.
_this = sys.modules[__name__]


def _fold(r: np.ndarray, block: np.ndarray) -> np.ndarray:
    """R factor of ``[r; block]`` for an upper-triangular ``r``, by
    ``dtpqrt``, which may overwrite both.  A LAPACK failure raises
    `NumericalError`."""
    r, _, _, info = _this.lapack.dtpqrt(0, min(QR_BLOCK, r.shape[1]), r, block,
                                        overwrite_a=True, overwrite_b=True)
    if info != 0:
        raise NumericalError(f"QR of a {block.shape} row block failed: LAPACK info={info}")
    return r


def augmented_r(design: ARDesign, indices: np.ndarray | None = None,
                weights: np.ndarray | None = None) -> np.ndarray:
    """R factor of the windows ``y[i : i + p + 1]`` of the rows ``indices``,
    scaled by ``weights``.

    Its leading (q + 1, q + 1) block is the R factor of the windows
    ``y[i : i + q + 1]`` of the same rows, so `solve_ols` of that block is
    the order-q fit on them (Björck 1996, §2.7).  A sequential TSQR
    (Demmel, Grigori, Hoemmen & Langou, 2012): starting from a zero R, each
    row block of `ARDesign.blocks` is folded in, so the rows are never held
    all at once.  The result is the ``(p + 1, p + 1)`` upper-triangular
    Fortran-ordered R.  With fewer than p + 1 rows, an empty plan included,
    it is rank deficient, and `solve_ols` rejects it.  Without ``indices``
    every row is taken.
    """
    r = np.zeros((design.p + 1, design.p + 1), order="F")
    for block in design.blocks(indices, weights):
        r = _fold(r, block)
    return r


def nested_factors(series: TimeSeries, max_lag: int):
    """Fresh R factors of the windows ``[y[i], ..., y[i + h]]`` over rows
    i < n - h, for h = max_lag down to 1, from one `augmented_r`.

    Factor h without its last column, plus the row ``y[n - h:]``, is factor
    h - 1; ``solve_ols`` of factor h gives the order-h fit.
    """
    y = series.values
    f = augmented_r(make_design(series, max_lag))
    for h in range(max_lag, 0, -1):
        yield f
        if h > 1:
            # Folds copies: neither the yielded factor nor the series is written.
            f = _fold(f[:h, :h].copy(order="F"), y[None, -h:].copy())


def solve_ols(r: np.ndarray) -> np.ndarray:
    """Least-squares coefficients, lag 1 first, from the window-order R
    factor of ``[X | y]`` (`augmented_r`).

    The coefficients, lag p first, solve ``R[:p, :p] phi = R[:p, p]``, so Q
    is never formed.  The rank check is relative, on the diagonal of
    ``R[:p, :p]``.  The solve is ``dtrtrs`` on the transpose, the call
    ``scipy.linalg.solve_triangular`` makes for a non-contiguous ``R[:p, :p]``,
    so the result is bit-identical to scipy's, reversed.  A non-finite or
    singular factor raises `NumericalError`.
    """
    p = r.shape[1] - 1
    _check_rank(np.diag(r[:p, :p]), p)
    if not np.isfinite(r[:p]).all():
        raise NumericalError("triangular solve failed: array must not contain infs or NaNs")
    phi, info = _this.lapack.dtrtrs(r[:p, :p].T, r[:p, p], lower=1, trans=1)
    if info > 0:
        raise NumericalError("triangular solve failed: singular matrix: "
                             f"resolution failed at diagonal {info - 1}")
    if info < 0:
        raise NumericalError(f"triangular solve failed: illegal value in argument {-info} "
                             "of dtrtrs")
    return phi[::-1]


def fit_from_coefficients(design: ARDesign, phi: np.ndarray) -> ARFit:
    """The fit with coefficients ``phi``, normed on the full design.

    The residual r is dropped once normed; the noise variance is ``|r|^2 / (n - p)``.
    """
    rnorm = float(np.linalg.norm(design.residuals(phi)))
    return ARFit(coefficients=phi, residual_norm=rnorm,
                 noise_variance=rnorm**2 / design.row_count)


def fit_ols(design: ARDesign) -> ARFit:
    """Conditional MLE of the AR coefficients at the design's order."""
    return fit_from_coefficients(design, solve_ols(augmented_r(design)))


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
    return LeverageScores.from_scores(scores)


def check_max_lag(max_lag: int, n: int):
    """Reject lag ranges past n/2, whose longest fits keep too few rows."""
    if max_lag > n // 2:
        raise DataError(
            f"max_lag {max_lag} exceeds n/2 = {n // 2}; the tail fits would "
            "be too short to be meaningful"
        )


def exact_pacf(series: TimeSeries, max_lag: int) -> PacfTrace:
    """PACF trace from full-data OLS fits at each lag 1..max_lag.

    The estimate at lag h is the lag-h coefficient of the order-h CMLE, read
    from `nested_factors`.  Rank-deficient lags are recorded as NaN.
    """
    n = series.n
    if max_lag < 1:
        raise DataError(f"max_lag must be >= 1, got {max_lag}")
    check_max_lag(max_lag, n)
    estimates = np.full(max_lag, np.nan)
    for h, f in zip(range(max_lag, 0, -1), nested_factors(series, max_lag)):
        try:
            estimates[h - 1] = solve_ols(f)[-1]
        except RankDeficiencyError:
            pass
    effective = n - max_lag
    bandwidth = np.full(max_lag, ZERO_CONFIDENCE_Z / math.sqrt(effective))
    return PacfTrace(
        estimates=estimates,
        bandwidth=bandwidth,
        effective_sample=effective,
        selected_order=select_order(estimates, bandwidth),
    )
