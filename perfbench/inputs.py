"""Seeded synthetic inputs for the lsar benchmark, built with numpy only.

Each workload's input files are a pure function of the workload seed.  They
are written once per seed into the benchmark's work directory and reused by
later runs with the same seed; generation is never timed.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np

# Bump when the generated bytes change, so stale caches are rebuilt.
GENERATOR_VERSION = 1

INGEST_PHI = (0.6, -0.4)
INGEST_SIGMA = 0.01
INGEST_PRICES = 10**6 + 1

# Partial autocorrelations of the AR(20) process of the acceptance suite;
# the large value at lag 20 keeps the last PACF estimate clear of the band.
AR20_PARTIALS = (0.5, -0.4, 0.3, -0.25, 0.2, -0.15, 0.12, -0.1, 0.1, -0.08,
                 0.08, -0.06, 0.06, -0.05, 0.05, -0.05, 0.05, -0.05, 0.05, 0.35)
DEEP_N = 250_000
EVAL_N = 100_000
BURN_IN = 2_000


def phi_from_partials(partials) -> np.ndarray:
    """AR coefficients whose partial autocorrelations are ``partials``
    (one Levinson reflection step per lag)."""
    phi = np.array([partials[0]], dtype=float)
    for k in partials[1:]:
        phi = np.concatenate([phi - k * phi[::-1], [k]])
    return phi


AR20_PHI = phi_from_partials(AR20_PARTIALS)


def simulate_ar(phi, sigma: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """``y_t = sum_k phi_k y_{t-k} + w_t`` from zeros, burn-in discarded."""
    phi = np.asarray(phi, dtype=float)
    q = phi.size
    w = rng.normal(0.0, sigma, size=n + BURN_IN).tolist()
    y = [0.0] * q + w
    rev = phi[::-1].tolist()
    for t in range(q, len(y)):
        acc = y[t]
        lags = y[t - q:t]
        for c, v in zip(rev, lags):
            acc += c * v
        y[t] = acc
    return np.array(y[q + BURN_IN:])


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def _write_column(path: str, values: np.ndarray):
    # repr() round-trips every float exactly, as the CLI's own writer does.
    with open(path, "w") as fh:
        fh.write("y\n")
        fh.write("\n".join(map(repr, values.tolist())))
        fh.write("\n")


def write_prices(path: str, seed: int, rows: int):
    """3-column ``t,close,volume`` CSV of ``rows`` prices whose log returns
    are AR(2) with ``INGEST_PHI`` and ``INGEST_SIGMA``."""
    rng = _rng(seed, 1)
    returns = simulate_ar(INGEST_PHI, INGEST_SIGMA, rows - 1, rng)
    log_price = np.concatenate(([0.0], np.cumsum(returns)))
    close = 100.0 * np.exp(log_price)
    volume = rng.integers(1_000, 100_000, size=rows)
    with open(path, "w") as fh:
        fh.write("t,close,volume\n")
        fh.write("".join(f"{t},{c!r},{v}\n"
                         for t, (c, v) in enumerate(zip(close.tolist(), volume.tolist()))))


def ar20_series(seed: int, n: int) -> np.ndarray:
    """The AR(20) series of ``seed``; shorter series are prefixes of longer
    ones, because the noise stream is drawn in order."""
    return simulate_ar(AR20_PHI, 1.0, n, _rng(seed, 2))


def bound_linear_reference(y: np.ndarray, max_lag: int, epsilon: float) -> list[float]:
    """``bound_linear`` per lag recomputed from the definitions.

    kappa is the ratio of extreme singular values of the lagged design
    (SVD), xi is ``|X phi| / |y|`` for the least-squares fit (lstsq), and
    ``eta = kappa * sqrt(xi^-2 - 1)``.  Lag p combines eta of order p - 1 on
    the first n - 1 observations with kappa of order p on all n.
    """
    def design(values, p):
        x = np.lib.stride_tricks.sliding_window_view(values, p)[: values.size - p, ::-1]
        return np.ascontiguousarray(x), values[p:]

    def kappa(x):
        sv = np.linalg.svd(x, compute_uv=False)
        return float(sv[0] / sv[-1])

    out = [0.0]
    for p in range(2, max_lag + 1):
        x, resp = design(y[:-1], p - 1)
        phi = np.linalg.lstsq(x, resp, rcond=None)[0]
        xi = min(float(np.linalg.norm(x @ phi) / np.linalg.norm(resp)), 1.0)
        eta = kappa(x) * np.sqrt(max(xi**-2 - 1.0, 0.0))
        kappa_p = kappa(design(y, p)[0])
        out.append(float((1.0 + 3.0 * eta * kappa_p**2) * (p - 1) * np.sqrt(epsilon)))
    return out


def prepare(workdir: str, workload: str, seed: int, n: int,
            bound_lags: int | None = None, bound_epsilon: float | None = None) -> dict:
    """Input files of ``workload`` at ``seed`` with ``n`` observations.

    The returned dict holds the file paths and, when ``bound_lags`` is given,
    the recomputed ``bound_linear`` per lag.  A cached copy built by this
    generator version is reused; one cached input set is kept per workload.
    """
    root = os.path.join(workdir, "inputs", workload)
    cache = os.path.join(root, f"seed{seed}-n{n}")
    manifest = os.path.join(cache, "manifest.json")
    if os.path.exists(manifest):
        with open(manifest) as fh:
            info = json.load(fh)
        if info.get("version") == GENERATOR_VERSION:
            return info
    if os.path.isdir(root):
        shutil.rmtree(root)
    os.makedirs(cache)
    info = {"version": GENERATOR_VERSION, "seed": seed, "n": n}
    if workload == "ingest_long":
        info["prices"] = os.path.join(cache, "prices.csv")
        write_prices(info["prices"], seed, n)
    else:
        y = ar20_series(seed, n)
        info["series"] = os.path.join(cache, "series.csv")
        _write_column(info["series"], y)
        if bound_lags is not None:
            info["bound_linear"] = bound_linear_reference(y, bound_lags, bound_epsilon)
    with open(manifest, "w") as fh:
        json.dump(info, fh)
    return info
