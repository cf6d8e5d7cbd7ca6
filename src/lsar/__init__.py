"""Leverage-score sampling for fitting AR models to large time series."""

import os

# The solves here are small, skinny QR factorizations, on which BLAS
# threads spin rather than help.  Default to one thread; this only takes
# effect when lsar is imported before numpy, as the ``lsar`` command does.
# A value already set in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .driver import DeltaMode, LsarConfig, LsarResult, OrderRecord, run_lsar
from .errors import (
    DataError,
    DistributionError,
    DivergenceError,
    IngestError,
    LsarError,
    NonpositiveValueError,
    NumericalError,
    OrderRangeError,
    RankDeficiencyError,
    SampleSizeError,
    ZeroResidualError,
)
from .exact import (
    ARFit,
    FitSource,
    LeverageScores,
    PacfTrace,
    Provenance,
    exact_leverage,
    exact_pacf,
    fit_ols,
    select_order,
)
from .recursion import (
    RecursionState,
    approximate_sweep,
    ar1_scores,
    exact_recursive_scores,
    fully_approx_scores,
    quasi_scores,
)
from .sampling import (
    RNG_NAME,
    SampleSizeRule,
    SamplingPlan,
    SizeMode,
    distribution_checksum,
    draw_plan,
    make_rng,
    reduced_fit,
    sample_size,
)
from .series import (
    ARDesign,
    ARGeneratorSpec,
    TimeSeries,
    center,
    generate_ar,
    log_diff,
    make_design,
)

__version__ = "0.1.0"
