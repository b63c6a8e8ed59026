"""Recovery of a hidden square-free monic polynomial over F_p from
quadratic-character queries, with tools to check the character-sum
bounds that make recovery work and to simulate the k-copy quantum
identification measurement classically.
"""

from .ffield import (
    FpElement,
    PrimeModulus,
    chi_ext_table,
    chi_table,
    is_prime_u64,
    jacobi_symbol,
    legendre,
    legendre_euler,
    legendre_ext,
    mod_pow,
)
from .limits import DEFAULT_ENUM_LIMIT, DEFAULT_OP_BUDGET, BudgetExceeded
from .oracle import OracleSession
from .poly import (
    MonicPoly,
    enumerate_monic,
    format_poly,
    is_perfect_square,
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
    "DEFAULT_ENUM_LIMIT",
    "DEFAULT_OP_BUDGET",
    "FpElement",
    "MonicPoly",
    "OracleSession",
    "PrimeModulus",
    "RecoveryReport",
    "brute_force_recover",
    "chi_ext_table",
    "chi_table",
    "enumerate_monic",
    "format_poly",
    "is_perfect_square",
    "is_prime_u64",
    "is_squarefree",
    "jacobi_symbol",
    "legendre",
    "legendre_euler",
    "legendre_ext",
    "mod_pow",
    "parse_poly",
    "poly_from_index",
    "poly_index",
    "query_lower_bound",
    "random_squarefree",
    "short_window_recover",
    "squarefree_count",
    "two_stage_recover",
]
