"""Exception hierarchy shared by all lsar modules.

Errors are grouped into three classes that the CLI maps onto exit codes:
usage problems (argparse handles those), data problems (`DataError`), and
numerical problems (`NumericalError`).
"""


class LsarError(Exception):
    """Base class for all library errors."""


class DataError(LsarError):
    """Input data is malformed or violates a domain precondition."""


class NumericalError(LsarError):
    """A numerical procedure failed (rank deficiency, degenerate residuals)."""


class OrderRangeError(DataError):
    """Requested AR order is out of the admissible range for the series."""


class NonpositiveValueError(DataError):
    """A value that must be strictly positive is not.

    ``index`` is the 0-based position of the first offending value (the
    1-based position is ``index + 1``).
    """

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(
            f"nonpositive value {value!r} at index {index} (0-based; "
            f"{index + 1} 1-based)"
        )


class DivergenceError(NumericalError):
    """The synthetic AR recurrence exceeded the magnitude guard."""


# Relative tolerance of the rank check on a triangular factor's diagonal.
RANK_RTOL = 1e-10


class RankDeficiencyError(NumericalError):
    """A least-squares design is numerically rank deficient."""

    def __init__(self, numerical_rank: int, required_rank: int):
        self.numerical_rank = numerical_rank
        self.required_rank = required_rank
        super().__init__(
            f"design is rank deficient: numerical rank {numerical_rank}, "
            f"required {required_rank} (tolerance {RANK_RTOL:g} relative)"
        )


class ZeroResidualError(NumericalError):
    """An intermediate fit was exact, so the score recursion is undefined."""

    def __init__(self, order: int, residual_norm: float):
        self.order = order
        self.residual_norm = residual_norm
        super().__init__(
            f"residual norm is zero at order {order}; the leverage-score "
            "recursion increment is undefined"
        )


class SampleSizeError(DataError):
    """A sample-size rule produced an unusable sample size."""


class DistributionError(DataError):
    """A sampling distribution is invalid or inconsistent with its plan."""


class IngestError(DataError):
    """A delimited input file could not be parsed into a numeric series."""
