"""framelab: numerical experiments on redundant tight frames.

Construction of tight frames (scaled orthonormal unions, harmonic frames,
difference-set equiangular tight frames), random-erasure transmission with
unbiased reconstruction, exhaustive erasure-robustness certificates,
Bernoulli sign-inequality estimation, and matrix probing.
"""

from .errors import (
    BudgetExceeded,
    ConfigInvalid,
    FramelabError,
    IllConditioned,
    InvalidDimension,
    InvalidExponent,
    InvalidProbability,
    InvalidRowSet,
    LengthMismatch,
    NonFiniteEntry,
    NoSuchSet,
    OutOfRange,
    RankDeficient,
    ShapeMismatch,
    Singular,
    TooLarge,
    UnsupportedDistribution,
)
from .linalg import (
    DenseMatrix,
    condition_number,
    condition_numbers,
    frame_operator,
    gram_matrix,
    operator_norm,
    operator_norms,
    schatten_norm,
    singular_values,
)
from .frames import (
    DifferenceSet,
    Frame,
    TightnessReport,
    check_tight,
    coherence,
    difference_set_etf,
    find_difference_set,
    harmonic_frame,
    renormalize,
    scaled_onb_frame,
    welch_bound,
)
from .erasure import (
    ErasureMask,
    ErasureTrialReport,
    deterministic_unit_vector,
    exact_error_expectation,
    mc_error_estimate,
    reconstruct,
    redundancy_sweep,
)
from .robustness import (
    CertifyResult,
    NerCertificate,
    certify,
    min_cond_bound,
    worst_condition,
)
from .inequalities import (
    InequalityEstimate,
    SignEnsemble,
    StirlingBound,
    exact_sign_expectation,
    khintchine_check,
    khintchine_constant,
    rudelson_check,
    stirling_bound_check,
)
from .probing import (
    ConcentrationEstimate,
    build_dictionary,
    check_scaled_isometry,
    circulant_dictionary,
    concentration_estimate,
    contraction_check,
    probe_roundtrip,
    recover_coefficients,
    regroup,
)

__version__ = "0.2.0"
