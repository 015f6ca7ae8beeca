"""Haar-multiplier toolkit: dyadic combinatorics, square-function norms,
stopping-time block decompositions, summing weights for coefficient
multipliers, and lattice factorizations, all on finite Haar expansions."""

from .atomic import (
    AtomicDecomposition,
    AtomicPiece,
    DecompositionReport,
    appendix_constant,
    decompose,
    verify_decomposition,
)
from .dyadic import (
    DyadicInterval,
    IntervalFamily,
    carleson_constant,
    generation_decay_verdicts,
    generations,
    is_block,
)
from .errors import (
    DegenerateThetaError,
    EmptyFamilyError,
    ExpansionFormatError,
    VerificationError,
    ZeroInputError,
)
from .haar import (
    HaarExpansion,
    convexify,
    hp_norm,
    l2_norm,
    tl_norm,
)
from .pietsch import (
    MultiplierReport,
    PietschMeasure,
    check_multiplier_bound,
    check_multiplier_bounds,
    validate_measure,
    weights_hp,
    weights_tl,
    weights_vector,
)
from .pisier import (
    Factorization,
    factorize,
    theta,
    verify_factorization,
    x0_norm_estimate,
)

__all__ = [
    "AtomicDecomposition",
    "AtomicPiece",
    "DecompositionReport",
    "DegenerateThetaError",
    "DyadicInterval",
    "EmptyFamilyError",
    "ExpansionFormatError",
    "Factorization",
    "HaarExpansion",
    "IntervalFamily",
    "MultiplierReport",
    "PietschMeasure",
    "VerificationError",
    "ZeroInputError",
    "appendix_constant",
    "carleson_constant",
    "check_multiplier_bound",
    "check_multiplier_bounds",
    "convexify",
    "decompose",
    "factorize",
    "generation_decay_verdicts",
    "generations",
    "hp_norm",
    "is_block",
    "l2_norm",
    "theta",
    "tl_norm",
    "validate_measure",
    "verify_decomposition",
    "verify_factorization",
    "weights_hp",
    "weights_tl",
    "weights_vector",
    "x0_norm_estimate",
]
