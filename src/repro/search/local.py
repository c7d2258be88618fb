"""Baseline search strategies: greedy hill climbing and random sampling.

These exist to calibrate the annealer — the paper argues simulated
annealing earns its complexity; ``repro search-compare`` puts that claim
on a quality/cost table by running these baselines under the same move
generator, fitness function, seeds and budget.

Both strategies reuse :class:`~repro.search.anneal.AnnealingSchedule`
purely for its ``iterations`` count (they have no temperature), keep the
annealer's history semantics (best-so-far per move, including untenable
proposals), and enforce :class:`~repro.search.base.SearchBudget`
through the same :class:`~repro.search.base.BudgetMeter` polling.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, ExplorationError, TimingError
from .anneal import AnnealingSchedule
from .base import (
    BudgetMeter,
    SearchBudget,
    SearchProblem,
    SearchResult,
    SearchStrategy,
    register_strategy,
)


@register_strategy
class HillClimbStrategy(SearchStrategy):
    """Greedy local search: accept only strictly-improving moves.

    The cheapest strategy and the easiest to trap in a local optimum —
    the lower bound the annealer must beat.  Never rolls back (the
    current state *is* the best state at all times).

    Each round proposes up to ``frontier`` candidates from the current
    state, scores them, and climbs to the best strictly-improving
    candidate (ties to the earliest proposal).  ``frontier=1`` (the
    default) is the sequential climb and scores through
    ``problem.evaluate``; a wider frontier scores a round in one
    ``evaluate_many`` call.  That is a different deterministic walk, so
    the frontier width joins :meth:`identity` when above 1.

    ``max_evaluations`` stays exact (a round is clamped to the remaining
    allowance); ``max_moves``/``plateau_patience`` are checked between
    rounds.
    """

    name = "hillclimb"

    def __init__(
        self,
        schedule: AnnealingSchedule | None = None,
        budget: SearchBudget | None = None,
        frontier: int = 1,
    ) -> None:
        if frontier < 1:
            raise ExplorationError(f"frontier must be >= 1, got {frontier}")
        self.schedule = schedule or AnnealingSchedule()
        self.budget = budget
        self.frontier = frontier

    def identity(self) -> dict:
        ident = super().identity()
        if self.frontier > 1:
            ident["frontier"] = self.frontier
        return ident

    @classmethod
    def from_options(cls, schedule=None, budget=None, restarts=4, batch=1):
        return cls(schedule=schedule, budget=budget, frontier=batch)

    def run(self, problem: SearchProblem, seed: int = 0) -> SearchResult:
        rng = np.random.default_rng(seed)
        budget = self.budget
        meter = BudgetMeter(budget)

        current = problem.initial
        current_score = problem.evaluate(current)
        if current_score <= 0:
            raise ExplorationError(
                f"initial state has non-positive score {current_score}"
            )
        meter.note_evaluation()
        evaluations = 1
        accepted = 0
        history = [current_score]
        stop_reason: str | None = None

        step = 0
        iterations = self.schedule.iterations
        while step < iterations:
            stop_reason = meter.stop_reason()
            if stop_reason is not None:
                break
            width = min(self.frontier, iterations - step)
            if budget is not None and budget.max_evaluations is not None:
                width = min(width, budget.max_evaluations - meter.evaluations)
            candidates = []
            failures = 0
            for _ in range(width):
                try:
                    candidates.append(problem.propose(current, rng))
                except (TimingError, ConfigurationError):
                    failures += 1
                step += 1
            if candidates:
                # A width-1 walk scores through evaluate(): no batch events.
                scores = (
                    self.evaluate_many(problem, candidates)
                    if self.frontier > 1
                    else [problem.evaluate(candidates[0])]
                )
                evaluations += len(scores)
                for _ in scores:
                    meter.note_evaluation()
                best_i = max(range(len(scores)), key=lambda i: (scores[i], -i))
                improved = scores[best_i] > current_score
                if improved:
                    current, current_score = candidates[best_i], scores[best_i]
                    accepted += 1
                # One history entry per proposal: the round's winner lands
                # on its own slot, the rest (and every untenable
                # proposal) carry the running best.
                for i in range(len(scores)):
                    meter.note_move(improved and i == best_i)
                    history.append(current_score)
            for _ in range(failures):
                meter.note_move(improved=False)
                history.append(current_score)

        return SearchResult(
            best_state=current,
            best_score=current_score,
            evaluations=evaluations,
            accepted=accepted,
            rollbacks=0,
            history=history,
            stop_reason=stop_reason,
        )


@register_strategy
class RandomSearchStrategy(SearchStrategy):
    """Seeded random walk: accept every tenable move, remember the best.

    The "no search policy at all" baseline — pure design-space sampling
    along a neighbour chain.  Beating it is the minimum bar for any
    strategy that claims to *search*.  Every proposal depends on the one
    before it (the chain *is* the strategy), so there is no batched mode
    and the uniform ``batch`` option is ignored.
    """

    name = "random"

    def __init__(
        self,
        schedule: AnnealingSchedule | None = None,
        budget: SearchBudget | None = None,
    ) -> None:
        self.schedule = schedule or AnnealingSchedule()
        self.budget = budget

    def run(self, problem: SearchProblem, seed: int = 0) -> SearchResult:
        rng = np.random.default_rng(seed)
        meter = BudgetMeter(self.budget)

        current = problem.initial
        current_score = problem.evaluate(current)
        if current_score <= 0:
            raise ExplorationError(
                f"initial state has non-positive score {current_score}"
            )
        meter.note_evaluation()
        best, best_score = current, current_score
        evaluations = 1
        accepted = 0
        history = [best_score]
        stop_reason: str | None = None

        for _ in range(self.schedule.iterations):
            stop_reason = meter.stop_reason()
            if stop_reason is not None:
                break
            try:
                candidate = problem.propose(current, rng)
            except (TimingError, ConfigurationError):
                meter.note_move(improved=False)
                history.append(best_score)
                continue
            score = problem.evaluate(candidate)
            evaluations += 1
            meter.note_evaluation()

            improved = score > best_score
            if improved:
                best, best_score = candidate, score
            current, current_score = candidate, score
            accepted += 1
            meter.note_move(improved)
            history.append(best_score)

        return SearchResult(
            best_state=best,
            best_score=best_score,
            evaluations=evaluations,
            accepted=accepted,
            rollbacks=0,
            history=history,
            stop_reason=stop_reason,
        )
