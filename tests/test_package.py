"""The public names: every ``__all__`` entry resolves, and the package's list is fixed.

perfbench's tracer picks what it wraps from each module's ``__all__`` and
skips a name that does not resolve, so a stale entry would go unseen.
"""

import importlib
import pkgutil

import hiddenpoly

PUBLIC = [
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
    "jacobi_symbol",
    "parse_poly",
    "poly_from_index",
    "poly_index",
    "query_lower_bound",
    "random_squarefree",
    "short_window_recover",
    "squarefree_count",
    "two_stage_recover",
]


def test_every_all_entry_resolves():
    modules = [hiddenpoly] + [
        importlib.import_module(f"hiddenpoly.{info.name}")
        for info in pkgutil.iter_modules(hiddenpoly.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)
    assert hiddenpoly.__all__ == PUBLIC
