"""Pluggable design-space search: strategies, budgets, diagnostics.

Importing this package populates the strategy registry with the four
built-ins (``anneal``, ``multistart``, ``hillclimb``, ``random``);
:func:`make_strategy` constructs any of them by name.  The explorers in
:mod:`repro.explore` import this layer — never the reverse — so
strategies stay testable on toy problems.
"""

from .anneal import AnnealingSchedule, AnnealStrategy, MultiStartAnneal
from .base import (
    BudgetMeter,
    SearchBudget,
    SearchDiagnostics,
    SearchProblem,
    SearchResult,
    SearchStrategy,
    make_strategy,
    plateau_length,
    register_strategy,
    strategy_names,
)
from .local import HillClimbStrategy, RandomSearchStrategy

__all__ = [
    "AnnealingSchedule",
    "AnnealStrategy",
    "BudgetMeter",
    "HillClimbStrategy",
    "MultiStartAnneal",
    "RandomSearchStrategy",
    "SearchBudget",
    "SearchDiagnostics",
    "SearchProblem",
    "SearchResult",
    "SearchStrategy",
    "make_strategy",
    "plateau_length",
    "register_strategy",
    "strategy_names",
]
