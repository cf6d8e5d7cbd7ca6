"""Row-sampling plans and the reduced (sampled) OLS solve.

A plan holds with-replacement row draws from a score distribution together
with the rescaling weights ``1/sqrt(s * pi_i)`` that keep ``|S X phi|^2``
an unbiased estimator of ``|X phi|^2``.  Plans are drawn with the Philox
counter-based generator so they reproduce across platforms; the generator
name is recorded in every emitted report.
"""

from __future__ import annotations

import enum
import hashlib
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, DistributionError, SampleSizeError
from .exact import ARFit, FitSource, LeverageScores, augmented_r, fit_from_coefficients, \
    solve_ols
from .series import ARDesign

RNG_NAME = "philox"

DEFAULT_THEORETICAL_CONSTANT = 4.0
DEFAULT_BETA_FLOOR = 0.1
DEFAULT_BETA_COEFF = 1.0


def make_rng(*seed_words) -> np.random.Generator:
    """Philox generator keyed by a tuple of integers."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed_words)))


def distribution_checksum(distribution: np.ndarray) -> str:
    """Short audit hash of a sampling distribution."""
    return hashlib.sha256(np.ascontiguousarray(distribution).tobytes()).hexdigest()[:16]


@dataclass(frozen=True)
class SamplingPlan:
    """With-replacement row draws plus their rescaling weights.

    ``source_distribution`` is the read-only distribution the rows were
    drawn from, kept by reference; it is hashed only when the audit
    checksum is read.  Hand-built plans may leave it out.
    """

    indices: np.ndarray
    weights: np.ndarray
    source_distribution: np.ndarray | None = None

    def __post_init__(self):
        self.indices.setflags(write=False)
        self.weights.setflags(write=False)
        if self.source_distribution is not None:
            self.source_distribution.setflags(write=False)

    @property
    def size(self) -> int:
        return self.indices.size

    @cached_property
    def source_distribution_checksum(self) -> str:
        """Audit hash of the source distribution; empty when it is unknown."""
        if self.source_distribution is None:
            return ""
        return distribution_checksum(self.source_distribution)

    @classmethod
    def identity(cls, m_rows: int) -> "SamplingPlan":
        """Every row exactly once with unit weight (S = I up to scaling).

        The source is the uniform distribution, for which s = m makes every
        weight 1/sqrt(m * 1/m) = 1.
        """
        return cls(
            indices=np.arange(m_rows, dtype=np.int64),
            weights=np.ones(m_rows),
            source_distribution=np.full(m_rows, 1.0 / m_rows),
        )


class SizeMode(enum.Enum):
    THEORETICAL = "theoretical"
    FRACTION = "fraction"


@dataclass(frozen=True)
class SampleSizeRule:
    """How to choose the number of sampled rows at a given order.

    theoretical: ``s = ceil(c * p * ln(p/delta) / (beta * epsilon^2))``,
    natural log, with the hidden big-O constant exposed as ``c``.  When
    ``beta`` is None it defaults to the misestimation-factor form
    ``max(beta_floor, 1 - beta_coeff * p * sqrt(epsilon))``.

    fraction: ``s = ceil(fraction * n)``.

    Both modes are floored at p + 1 so the reduced system is determined.
    """

    mode: SizeMode
    epsilon: float = 0.5
    delta: float = 0.1
    beta: float | None = None
    constant: float = DEFAULT_THEORETICAL_CONSTANT
    fraction: float | None = None
    beta_floor: float = DEFAULT_BETA_FLOOR
    beta_coeff: float = DEFAULT_BETA_COEFF

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise SampleSizeError(f"epsilon must be in (0,1), got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise SampleSizeError(f"delta must be in (0,1), got {self.delta}")
        if self.beta is not None and not 0 < self.beta <= 1:
            raise SampleSizeError(f"beta must be in (0,1], got {self.beta}")
        if self.mode is SizeMode.FRACTION:
            if self.fraction is None or not 0 < self.fraction < 1:
                raise SampleSizeError(
                    f"fraction mode needs fraction in (0,1), got {self.fraction}"
                )
        elif self.constant <= 0:
            raise SampleSizeError(f"constant must be positive, got {self.constant}")


def sample_size(rule: SampleSizeRule, p: int, n: int, delta: float | None = None) -> int:
    """Sample size at order ``p`` for a series of length ``n``.

    ``delta`` overrides the rule's failure probability (the driver passes
    delta0/p per iteration).  In fraction mode an oversized s is clamped to
    the row count with a warning; in theoretical mode it is an error, since
    it signals a misconfigured epsilon.
    """
    if delta is None:
        delta = rule.delta
    if rule.mode is SizeMode.FRACTION:
        s = math.ceil(rule.fraction * n)
    else:
        beta = rule.beta
        if beta is None:
            beta = max(rule.beta_floor, 1.0 - rule.beta_coeff * p * math.sqrt(rule.epsilon))
        raw = rule.constant * p * math.log(p / delta) / (beta * rule.epsilon**2)
        s = math.ceil(max(raw, 0.0))
    s = max(s, p + 1)
    m_rows = n - p
    if s > m_rows:
        if rule.mode is SizeMode.FRACTION:
            warnings.warn(
                f"sample size {s} exceeds row count {m_rows}; clamping",
                stacklevel=2,
            )
            s = m_rows
        else:
            raise SampleSizeError(
                f"theoretical sample size {s} exceeds row count {m_rows}; "
                "epsilon is too small for this data size"
            )
    return s


def draw_plan(scores: LeverageScores, s: int, *seed_words) -> SamplingPlan:
    """Draw ``s`` i.i.d. rows from the score distribution, with replacement.

    Deterministic given the seed words.
    """
    if s < 1:
        raise SampleSizeError(f"sample size must be >= 1, got {s}")
    pi = scores.distribution
    # Inverse-CDF draws, the computation ``Generator.choice(p=pi)`` performs,
    # without its re-checks that pi is finite, nonnegative and sums to one:
    # ``LeverageScores`` guarantees all three.
    cdf = np.cumsum(pi)
    cdf /= cdf[-1]
    uniforms = make_rng(*seed_words).random(s)
    # The search runs on the sorted keys, where each lookup starts from the
    # previous one, and the hits are scattered back into draw order.
    order = np.argsort(uniforms)
    indices = np.empty(s, dtype=np.intp)
    indices[order] = np.searchsorted(cdf, uniforms[order], side="right")
    weights = 1.0 / np.sqrt(s * pi[indices])
    return SamplingPlan(
        indices=indices,
        weights=weights,
        source_distribution=pi,
    )


def reduced_fit(design: ARDesign, plan: SamplingPlan) -> ARFit:
    """Weighted OLS on the sampled rows; residuals on the full design.

    The sampled rows of ``[X | y]``, scaled by the plan weights, are
    folded block by block into one R factor for the solve.
    """
    if plan.indices.size and (plan.indices.min() < 0 or plan.indices.max() >= design.row_count):
        raise DistributionError(
            f"plan indices out of range for design with {design.row_count} rows"
        )
    phi = solve_ols(augmented_r(design, plan.indices, plan.weights))
    return fit_from_coefficients(design, phi, FitSource.SAMPLED)
