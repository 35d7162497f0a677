"""Additive and multiplicative Ramanujan-Hardy numbers in arbitrary bases.

The taxicab number 1729 reproduces itself as 19 * 91, the digit sum
times its reversal.  This package classifies, searches, and constructs
the two generalizations of that property (b-ARH: X + X^R, b-MRH:
X * X^R, with X a multiple of the digit sum), with exact arithmetic at
any size and provably complete per-multiplier enumerations.
"""

from .bounds import BoundSpec, digit_bound, digit_sum_cap, floor_log
from .classify import (
    ARH,
    MRH,
    NIVEN,
    ClassifyResult,
    VerifyFailure,
    Witness,
    arh_witnesses,
    classify,
    is_niven,
    is_quadratic_niven,
    is_strongly_quadratic_niven,
    mrh_witnesses,
    verify_witness,
)
from .families import (
    FamilyInstance,
    FamilyParameterError,
    FamilyReport,
    gen_all_ones,
    gen_alternating,
    gen_niven_not_mrh,
    gen_repunit12,
    gen_square_family,
    verify_family,
)
from .oeis import first_terms
from .search import (
    ALLOW,
    FORBID,
    SearchConfig,
    count_not_sum_of_reversal,
    formula_lower_bound,
    numbers_for_multiplier,
    palindromic_square_search,
    paper_bound_conflicts,
    scan_numbers,
    scan_range,
)
from .tables import CountsReport, DiscrepancyReport, reproduce_table, section1_counts

__all__ = [
    "ALLOW",
    "ARH",
    "BoundSpec",
    "ClassifyResult",
    "CountsReport",
    "DiscrepancyReport",
    "FORBID",
    "FamilyInstance",
    "FamilyParameterError",
    "FamilyReport",
    "MRH",
    "NIVEN",
    "SearchConfig",
    "VerifyFailure",
    "Witness",
    "arh_witnesses",
    "classify",
    "count_not_sum_of_reversal",
    "digit_bound",
    "digit_sum_cap",
    "first_terms",
    "floor_log",
    "formula_lower_bound",
    "gen_all_ones",
    "gen_alternating",
    "gen_niven_not_mrh",
    "gen_repunit12",
    "gen_square_family",
    "is_niven",
    "is_quadratic_niven",
    "is_strongly_quadratic_niven",
    "mrh_witnesses",
    "numbers_for_multiplier",
    "palindromic_square_search",
    "paper_bound_conflicts",
    "reproduce_table",
    "scan_numbers",
    "scan_range",
    "section1_counts",
    "verify_family",
    "verify_witness",
]
