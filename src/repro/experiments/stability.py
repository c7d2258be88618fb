"""Seed-stability analysis of the exploration pipeline.

The paper's §2.3 criticizes evaluation methodologies whose conclusions
cannot be checked in the space where they are drawn.  Annealing-based
exploration is stochastic, so the reproduction's own conclusions deserve
the same scrutiny: this module re-runs the pipeline across seeds and
reports which headline outcomes are stable (the memory outlier in the
harmonic pair, the Table 7 ordering) and how much the merits wobble.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..communal.combination import best_combination
from ..communal.merit import ideal_harmonic_ipt
from ..workloads.profile import WorkloadProfile
from .pipeline import run_pipeline
from .tables import table7_summary


@dataclass(frozen=True)
class SeedOutcome:
    """Headline results of one pipeline run."""

    seed: int
    ideal_harmonic: float
    best_single: str
    best_pair: tuple[str, ...]
    pair_includes_outlier: bool
    table7_ordered: bool


@dataclass(frozen=True)
class StabilityReport:
    """Aggregate over seeds."""

    outcomes: tuple[SeedOutcome, ...]

    @property
    def outlier_in_pair_rate(self) -> float:
        """Fraction of seeds whose harmonic pair protects the outlier."""
        return float(
            np.mean([o.pair_includes_outlier for o in self.outcomes])
        )

    @property
    def table7_ordering_rate(self) -> float:
        """Fraction of seeds with the paper's Table 7 ordering."""
        return float(np.mean([o.table7_ordered for o in self.outcomes]))

    @property
    def ideal_harmonic_cv(self) -> float:
        """Coefficient of variation of the ideal harmonic IPT."""
        values = np.array([o.ideal_harmonic for o in self.outcomes])
        return float(values.std() / values.mean())


def stability_analysis(
    seeds: Sequence[int],
    iterations: int = 1000,
    profiles: Sequence[WorkloadProfile] | None = None,
) -> StabilityReport:
    """Run the pipeline once per seed and collect headline outcomes
    (the memory outlier is mcf, as in the paper's Table 6)."""
    outcomes = []
    for seed in seeds:
        pipe = run_pipeline(
            profiles=profiles, iterations=iterations, seed=seed, cross_seed_rounds=1
        )
        cross = pipe.cross
        best1 = best_combination(cross, 1, "har")
        best2 = best_combination(cross, 2, "har")
        summary = table7_summary(cross)
        ordered = (
            summary.ideal_harmonic
            >= summary.complete_search_harmonic - 1e-9
            >= summary.surrogate_harmonic - 2e-9
        ) and summary.complete_search_harmonic >= summary.homogeneous_harmonic - 1e-9
        outcomes.append(
            SeedOutcome(
                seed=seed,
                ideal_harmonic=ideal_harmonic_ipt(cross),
                best_single=best1.configs[0],
                best_pair=best2.configs,
                pair_includes_outlier="mcf" in best2.configs,
                table7_ordered=ordered,
            )
        )
    return StabilityReport(outcomes=tuple(outcomes))
