"""Exact arithmetic for cyclic-group-invariant special polynomials.

The package constructs the basic invariant polynomial of each supported
group family, applies the tensor operation G = F - H + H*F, analyzes the
achievable numbers of terms (equivalently, the possible sparsity of an
affine coefficient map) with exact rational linear programming, and
certifies gaps via exhaustive bounded-degree sweeps plus the postage-stamp
closure.
"""

from .affinefamily import (
    AffineFamily,
    LinearForm,
    ParamSpec,
    PatternResult,
    SlotSpec,
    build_coefficient_family,
    instantiate,
    pattern_feasible,
)
from .construct import (
    basic_poly,
    basic_poly_closed,
    basic_poly_product,
    coefficient_c,
    is_prime,
    mod_reduction_check,
)
from .gapsearch import (
    AchievabilityReport,
    achievable_set,
    closure_frontier,
    frobenius_closure,
    search_targets,
    verify_fixtures,
    verify_gap_theorem,
)
from .groups import (
    GroupSpec,
    algebra_generators,
    enumerate_invariant_monomials,
    is_invariant,
    is_invariant_monomial,
    parse_group,
)
from .polycore import (
    DimensionMismatchError,
    Monomial,
    Polynomial,
    dominates,
    is_one_on_hyperplane,
    term_count,
)
from .rat import Rat, rat_str
from .sweep import L0Report, run_l0_sweep
from .transform import (
    SpecialReport,
    degree_bound,
    quotient_H,
    tensor_step,
    validate_special,
)

__all__ = [
    "AffineFamily",
    "AchievabilityReport",
    "DimensionMismatchError",
    "GroupSpec",
    "L0Report",
    "LinearForm",
    "Monomial",
    "ParamSpec",
    "PatternResult",
    "Polynomial",
    "Rat",
    "SlotSpec",
    "SpecialReport",
    "achievable_set",
    "algebra_generators",
    "basic_poly",
    "basic_poly_closed",
    "basic_poly_product",
    "build_coefficient_family",
    "closure_frontier",
    "coefficient_c",
    "degree_bound",
    "dominates",
    "enumerate_invariant_monomials",
    "frobenius_closure",
    "instantiate",
    "is_invariant",
    "is_invariant_monomial",
    "is_one_on_hyperplane",
    "is_prime",
    "mod_reduction_check",
    "parse_group",
    "pattern_feasible",
    "quotient_H",
    "rat_str",
    "run_l0_sweep",
    "search_targets",
    "tensor_step",
    "term_count",
    "validate_special",
    "verify_fixtures",
    "verify_gap_theorem",
]

__version__ = "0.1.0"
