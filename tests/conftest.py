"""Shared fixtures: seeded synthetic series and small oracle helpers."""

# lsar before numpy, as the ``lsar`` command loads them: numpy's BLAS gets
# lsar's one-thread default only if it is not loaded yet.
from lsar import ARGeneratorSpec, TimeSeries, generate_ar, make_rng
from lsar.exact import solve_ols
from lsar.sampling import reduced_fit

import numpy as np
import pytest


def phi_from_partial_autocorrs(ks):
    """AR coefficients whose partial autocorrelations are ``ks``.

    One reflection step per lag; all |k| < 1 guarantees a causal process,
    which makes this the safe way to build high-order test fixtures.
    """
    phi = np.array([ks[0]], dtype=float)
    for k in ks[1:]:
        phi = np.concatenate([phi - k * phi[::-1], [k]])
    return phi


# Partial autocorrelations of the AR(20) fixture; the large value at lag 20
# keeps the last PACF estimate well clear of the zero-confidence band.
AR20_PARTIALS = [0.5, -0.4, 0.3, -0.25, 0.2, -0.15, 0.12, -0.1, 0.1, -0.08,
                 0.08, -0.06, 0.06, -0.05, 0.05, -0.05, 0.05, -0.05, 0.05, 0.35]

AR20_COEFFS = phi_from_partial_autocorrs(AR20_PARTIALS)

AR5_COEFFS = np.array([0.5, -0.3, 0.2, -0.1, 0.1])


def contaminated_series(
    base: ARGeneratorSpec,
    contamination_rate: float = 0.001,
    factor: float = 50.0,
) -> TimeSeries:
    """AR base series with a sprinkle of amplified points.

    Multiplying a small fraction of observations by a large factor creates
    high-leverage rows, the regime where score-proportional sampling should
    beat the uniform baseline.
    """
    clean = generate_ar(base)
    rng = make_rng(base.seed, 0xC0)
    count = max(1, int(round(contamination_rate * clean.n)))
    idx = rng.choice(clean.n, size=count, replace=False)
    values = clean.values.copy()
    values[idx] *= factor
    return TimeSeries(values)


def reduced_solve(design, plan) -> np.ndarray:
    """Coefficients, lag 1 first, of the weighted OLS on the plan's rows."""
    return solve_ols(reduced_fit(design, plan))


def hat_diagonal(x: np.ndarray) -> np.ndarray:
    """Leverage-score oracle: diag(X (X^T X)^{-1} X^T) by explicit inverse."""
    gram_inv = np.linalg.inv(x.T @ x)
    return np.einsum("ij,jk,ik->i", x, gram_inv, x)


@pytest.fixture
def ar1_series():
    return generate_ar(ARGeneratorSpec(np.array([0.5]), 1.0, 400, seed=7))


@pytest.fixture
def ar2_series():
    return generate_ar(ARGeneratorSpec(np.array([0.6, -0.4]), 1.0, 5000, seed=3))


@pytest.fixture
def noiseless_half():
    """Exact recurrence y_t = 0.5 y_{t-1} from y_0 = 1 (no noise)."""
    y = 0.5 ** np.arange(40)
    return TimeSeries(y)
