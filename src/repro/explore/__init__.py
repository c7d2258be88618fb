"""xp-scalar: simulated-annealing design-space exploration."""

from ..search.anneal import AnnealingSchedule
from .moves import MoveGenerator
from .sweep import ClockSweep, SweepPoint
from .xpscalar import ExplorationResult, Objective, XpScalar, ipt_objective

__all__ = [
    "AnnealingSchedule",
    "MoveGenerator",
    "ClockSweep",
    "SweepPoint",
    "ExplorationResult",
    "Objective",
    "XpScalar",
    "ipt_objective",
]
