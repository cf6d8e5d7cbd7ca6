"""Row-sampling plans and the reduced (sampled) OLS solve.

A plan holds with-replacement row draws from a score distribution together
with the rescaling weights ``1/sqrt(s * pi_i)`` that keep ``|S X phi|^2``
an unbiased estimator of ``|X phi|^2``.  Plans are drawn with the Philox
counter-based generator so they reproduce across platforms; the generator
name is recorded in every emitted report.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DistributionError, SampleSizeError
from .exact import LeverageScores, augmented_r
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
    # Imported here, which keeps hashlib out of `import lsar.cli`, ingest,
    # fit and pacf --exact.  A sampled process loads it anyway: importing
    # numpy.random, which the first `make_rng` does, imports secrets, hmac
    # and hashlib.
    import hashlib

    return hashlib.sha256(np.ascontiguousarray(distribution).tobytes()).hexdigest()[:16]


@dataclass(frozen=True)
class SamplingPlan:
    """With-replacement row draws plus their rescaling weights, both made
    read-only."""

    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.indices.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def size(self) -> int:
        return self.indices.size


class DeltaMode(enum.Enum):
    """How the failure probability at order q of a sweep to ``max_order``
    derives from delta0, the size rule's ``delta``."""

    PER_ORDER = "per_order"    # delta0 / q
    GEOMETRIC = "geometric"    # constant 1 - (1 - delta0)**(1/max_order)


@dataclass(frozen=True)
class SampleSizeRule:
    """How to choose the number of sampled rows at a given order.

    With a ``fraction`` the rule is in fraction mode: ``s = ceil(fraction * n)``,
    and the other fields go unread.

    Without one it is theoretical: ``s = ceil(c * p * ln(p/delta) / (beta *
    epsilon^2))``, natural log, with the hidden big-O constant exposed as
    ``c``.  When ``beta`` is None it defaults to the misestimation-factor
    form ``max(DEFAULT_BETA_FLOOR, 1 - DEFAULT_BETA_COEFF * p * sqrt(epsilon))``.
    The theoretical size at order q of a sweep takes delta from
    ``delta_at``, as ``delta_mode`` says.

    Both modes are floored at p + 1 so the reduced system is determined.
    """

    epsilon: float = 0.5
    delta: float = 0.1
    beta: float | None = None
    constant: float = DEFAULT_THEORETICAL_CONSTANT
    fraction: float | None = None
    delta_mode: DeltaMode = DeltaMode.PER_ORDER

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise SampleSizeError(f"epsilon must be in (0,1), got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise SampleSizeError(f"delta must be in (0,1), got {self.delta}")
        if self.beta is not None and not 0 < self.beta <= 1:
            raise SampleSizeError(f"beta must be in (0,1], got {self.beta}")
        if self.fraction is not None:
            if not 0 < self.fraction < 1:
                raise SampleSizeError(f"fraction must be in (0,1), got {self.fraction}")
        elif not 0 < self.constant < math.inf:
            raise SampleSizeError(f"constant must be positive and finite, got {self.constant}")

    def delta_at(self, q: int, max_order: int) -> float:
        """Failure probability at order ``q`` of a sweep to ``max_order``."""
        if self.delta_mode is DeltaMode.GEOMETRIC:
            return -math.expm1(math.log1p(-self.delta) / max_order)
        return self.delta / q


def sample_size(rule: SampleSizeRule, p: int, n: int, delta: float) -> int:
    """Sample size at order ``p`` for a series of length ``n`` and failure
    probability ``delta``, which only the theoretical mode reads.

    In fraction mode an oversized s is clamped to the row count with a
    warning; in theoretical mode it is an error naming the option to blame.
    """
    m_rows = n - p
    if rule.fraction is not None:
        s = max(math.ceil(rule.fraction * n), p + 1)
        if s > m_rows:
            # The same text at every order, so the CLI says it once.
            warnings.warn(f"sample size at fraction {rule.fraction} exceeds the row "
                          "count; clamped to the row count", stacklevel=2)
        return min(s, m_rows)
    beta = rule.beta
    if beta is None:
        beta = max(DEFAULT_BETA_FLOOR, 1.0 - DEFAULT_BETA_COEFF * p * math.sqrt(rule.epsilon))
    # ln(p / delta) is infinite when p / delta overflows or delta underflowed
    # to zero.  When beta * epsilon^2 underflows to zero or the quotient
    # overflows, the size is infinite, which exceeds every row count.
    log = math.log(p / delta) if delta > 0 else math.inf

    def size(constant=rule.constant, log=log, scale=beta * rule.epsilon**2):
        raw = constant * p * log / scale if scale > 0 else math.inf
        return max(math.ceil(raw) if raw < math.inf else raw, p + 1)

    s = size()
    if s <= m_rows:
        return s
    # A given beta, constant or delta is to blame when it alone, set back to
    # its default (beta to 1), fits; all of them together when only that
    # fits.  Either schedule scales delta about as delta0.
    default = SampleSizeRule
    resets = {name: reset for name, given, reset in (
        ("beta", rule.beta is not None, {"scale": rule.epsilon**2}),
        ("constant", rule.constant != default.constant, {"constant": default.constant}),
        ("delta", rule.delta != default.delta,
         {"log": log + math.log(rule.delta / default.delta)})) if given}
    alone = [name for name, reset in resets.items() if size(**reset) <= m_rows]
    if log == math.inf:
        cause = "delta is too small"
    elif alone:
        cause = f"{alone[0]} is too {'large' if alone[0] == 'constant' else 'small'}"
    elif len(resets) > 1 and size(**{key: value for reset in resets.values()
                                     for key, value in reset.items()}) <= m_rows:
        cause = f"{' and '.join(resets)} together are too strict"
    else:
        cause = "epsilon is too small"
    raise SampleSizeError(f"theoretical sample size {s:.3g} exceeds row count {m_rows}; "
                          f"{cause} for this data size")


def draw_plan(scores: LeverageScores, s: int, *seed_words, cdf: np.ndarray) -> SamplingPlan:
    """Draw ``s`` i.i.d. rows from the score distribution, with replacement.

    ``cdf`` is ``scores.cdf()``, which callers build once per set of scores.
    Deterministic given the seed words.
    """
    if s < 1:
        raise SampleSizeError(f"sample size must be >= 1, got {s}")
    # Inverse-CDF draws, the computation ``Generator.choice(p=pi)`` performs
    # for pi = scores / total, without its re-checks that pi is finite,
    # nonnegative and sums to one: ``LeverageScores`` guarantees all three.
    uniforms = make_rng(*seed_words).random(s)
    # The search runs on the sorted keys, where each lookup starts from the
    # previous one, and the hits are scattered back into draw order.
    order = np.argsort(uniforms)
    indices = np.empty(s, dtype=np.intp)
    indices[order] = np.searchsorted(cdf, uniforms[order], side="right")
    weights = 1.0 / np.sqrt(s * (scores.scores[indices] / scores.total))
    return SamplingPlan(indices, weights)


def reduced_fit(design: ARDesign, plan: SamplingPlan) -> np.ndarray:
    """`augmented_r` of the sampled rows, scaled by the plan weights; the
    leading (q + 1, q + 1) block of it gives the order-q fit on those rows.

    No O(n) pass is made: a refresh's `ARDesign.residuals`, or
    `fit_from_coefficients` for a norm, forms the full-design residual.
    """
    if plan.indices.size and (plan.indices.min() < 0 or plan.indices.max() >= design.row_count):
        raise DistributionError(
            f"plan indices out of range for design with {design.row_count} rows"
        )
    return augmented_r(design, plan.indices, plan.weights)
