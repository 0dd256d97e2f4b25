"""Exact piecewise-linear homeomorphisms of the real line, Koopman L^p
actions on step functions, the Mazur map, and Kazhdan-constant upper-bound
estimators."""

from .bounds import (
    BoundReport,
    bound_report,
    corollary_bound,
    estimate_lp,
    estimate_p2,
    kappa_max,
    kappa_transfer,
    log_power_bound_check,
    phi,
    phi_crossover,
    phi_inv,
    theorem_check,
)
from .errors import (
    DomainError,
    KazhlipError,
    ResourceLimitError,
    SchemaError,
)
from .groupact import (
    GeneratorSet,
    Word,
    ball,
    global_fixed_set,
    word_evaluate,
)
from .intervals import IntervalUnion
from .koopman import (
    StepFunction,
    inner_product,
    koopman_apply,
    koopman_distortion,
    lp_norm,
    mazur_map,
    normalize,
    subtract,
    window_vector,
)
from .limits import (
    ActionSequence,
    LimitDiagnostic,
    limit_translation_diagnostic,
    lip_trend,
    normalize_stage,
)
from .plmap import PLHomeo, format_rational, parse_rational
from .precision import get_precision, precision, set_precision

__version__ = "0.1.0"
