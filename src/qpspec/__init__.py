"""Arithmetic certificates and Lyapunov analysis for quasiperiodic
Schrodinger operators with meromorphic sampling potentials."""

from .arithmetic import (
    ContinuedFraction,
    IndexValue,
    beta,
    cf_from_coeffs,
    cf_from_real,
    cf_to_text,
    delta_index,
    gamma,
    golden_cf,
    liouville_cf,
    qualifying_levels,
    silver_cf,
    sine_product_check,
    torus_norm,
)
from .cocycle import (
    LyapunovEstimate,
    TransferMatrix2,
    lyapunov,
    product,
    step_A,
)
from .errors import (
    BudgetError,
    ConfigError,
    DegenerateModelError,
    ExcludedPhaseError,
    InvalidInputError,
    NumericError,
    OrbitPoleError,
    OutputError,
    PoleProximityError,
    PrecisionExhaustedError,
    QPSpecError,
    RangeError,
    SubsequenceError,
)
from .gordon import (
    GordonCertificate,
    GordonLhs,
    exclusion_certificate,
    exclusion_certificates,
    gordon_lhs_uniform,
    gordon_matrices,
    smallness_check,
)
from .potential import (
    MeromorphicPotential,
    eval_V,
    f_product_check,
    make_amo,
    make_custom,
    make_maryland,
)
from .spectral import (
    RegimeClassification,
    classify_regime,
    lyapunov_scan,
    sturm_count,
    truncated_spectrum,
)

__version__ = "0.1.0"
