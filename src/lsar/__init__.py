"""Leverage-score sampling for fitting AR models to large time series."""

import os
import sys

# The solves here are small, skinny QR factorizations, on which BLAS
# threads spin rather than help.  Default to one thread; a value already
# set in the environment wins.  OpenBLAS reads the setting once, when it is
# loaded, so numpy's BLAS only gets it when lsar is imported before numpy,
# as the ``lsar`` command does.  BLAS_THREADS is what reports record.
_numpy_first = "numpy" in sys.modules
_preset = os.environ.get("OPENBLAS_NUM_THREADS", "default")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
BLAS_THREADS = (f"{_preset} (numpy loaded before lsar)" if _numpy_first
                else os.environ["OPENBLAS_NUM_THREADS"])

from .driver import LsarConfig, LsarResult, OrderRecord, run_lsar
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
    LeverageScores,
    PacfTrace,
    exact_leverage,
    exact_pacf,
    fit_ols,
    select_order,
)
from .recursion import RecursionState, approximate_sweep, ar1_scores
from .sampling import (
    RNG_NAME,
    DeltaMode,
    SampleSizeRule,
    SamplingPlan,
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
