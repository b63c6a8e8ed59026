"""Operation budgets guarding against accidental exponential blowups."""

from __future__ import annotations

DEFAULT_OP_BUDGET = 10**9


class BudgetExceeded(RuntimeError):
    """Raised when a requested scan exceeds its budget."""


def check_ops(n_ops: int, budget: int | None = None, label: str = "scan") -> None:
    limit = DEFAULT_OP_BUDGET if budget is None else int(budget)
    if n_ops > limit:
        raise BudgetExceeded(f"{label} needs ~{n_ops} elementary operations, budget is {limit}")
