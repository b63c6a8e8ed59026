"""Recovery of a hidden square-free monic polynomial over F_p from
quadratic-character queries, with tools to check the character-sum
bounds that make recovery work and to simulate the k-copy quantum
identification measurement classically.
"""

from .ffield import PrimeModulus, chi_table, is_prime_u64
from .limits import DEFAULT_OP_BUDGET, BudgetExceeded
from .oracle import OracleSession
from .poly import (
    MonicPoly,
    format_poly,
    is_squarefree,
    parse_poly,
    poly_from_index,
    poly_index,
    random_squarefree,
    squarefree_count,
)
from .reconstruct import (
    AlgorithmParams,
    RecoveryReport,
    brute_force_recover,
    query_lower_bound,
    short_window_recover,
    two_stage_recover,
)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmParams",
    "BudgetExceeded",
    "DEFAULT_OP_BUDGET",
    "MonicPoly",
    "OracleSession",
    "PrimeModulus",
    "RecoveryReport",
    "brute_force_recover",
    "chi_table",
    "format_poly",
    "is_prime_u64",
    "is_squarefree",
    "parse_poly",
    "poly_from_index",
    "poly_index",
    "query_lower_bound",
    "random_squarefree",
    "short_window_recover",
    "squarefree_count",
    "two_stage_recover",
]
