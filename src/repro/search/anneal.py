"""Simulated annealing — the paper's search — as a pluggable strategy.

Annealing with the paper's rollback rule is one strategy among several
(``repro.explore`` re-exports the schedule for the xp-scalar API).
xp-scalar's search (§3) is a simulated-annealing process over processor
configurations with one distinctive twist: "When a configuration is
reached for which the IPT is less than half that of the optimal
configuration, the exploration process rolls back to the optimal
solution and is continued."  The strategy is generic over the state
type (a :class:`~repro.search.base.SearchProblem` supplies it) so it can
be tested independently of the processor design space.

Two strategies are defined here:

* :class:`AnnealStrategy` (``anneal``) — one annealing run; the default
  everywhere, bit-identical to the pre-strategy explorer at the default
  neighborhood width of 1;
* :class:`MultiStartAnneal` (``multistart``) — N independent annealing
  restarts with derived seeds, fanned out through the evaluation
  engine's worker pool when the problem provides a fan-out hook, with
  the best-of-N winner picked deterministically (score, then earliest
  restart).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..engine.keys import derive_seed
from ..errors import ConfigurationError, ExplorationError, TimingError
from .base import (
    BudgetMeter,
    SearchBudget,
    SearchProblem,
    SearchResult,
    SearchStrategy,
    register_strategy,
)


@dataclass(frozen=True)
class AnnealingSchedule:
    """Parameters of the annealing process.

    ``temperature`` is expressed as a *relative* score tolerance: at
    temperature T, a move that loses a fraction T of the best score so
    far is accepted with probability 1/e.  Cooling is geometric from
    ``t_initial`` to ``t_final`` over ``iterations`` steps.
    ``rollback_fraction`` is the paper's rule: scores below this fraction
    of the best-so-far snap the search back to the best state.

    The hill-climbing and random-sampling strategies reuse the schedule
    for its ``iterations`` alone (they have no temperature).
    """

    iterations: int = 2500
    t_initial: float = 0.10
    t_final: float = 0.005
    rollback_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ExplorationError(f"iterations must be >= 1: {self.iterations}")
        if not 0 < self.t_final <= self.t_initial:
            raise ExplorationError(
                f"need 0 < t_final <= t_initial, got {self.t_final}, {self.t_initial}"
            )
        if not 0 < self.rollback_fraction < 1:
            raise ExplorationError(
                f"rollback_fraction must be in (0, 1): {self.rollback_fraction}"
            )

    def temperature(self, step: int) -> float:
        """Geometric cooling."""
        if self.iterations == 1:
            return self.t_initial
        ratio = self.t_final / self.t_initial
        return self.t_initial * ratio ** (step / (self.iterations - 1))


def metropolis_accept(
    score: float,
    current_score: float,
    best_score: float,
    temperature: float,
    rng: np.random.Generator,
) -> bool:
    """Metropolis acceptance on the relative score loss."""
    loss = (current_score - score) / max(best_score, 1e-12)
    return rng.random() < math.exp(-loss / temperature)


@register_strategy
class AnnealStrategy(SearchStrategy):
    """The paper's simulated annealing, behind the strategy protocol.

    Each round proposes up to ``neighborhood`` candidates from the
    round's starting state, scores them, then applies the Metropolis
    accept and the paper's rollback rule to each candidate in proposal
    order at its own temperature step.  Proposals the timing model
    rejects (:class:`~repro.errors.TimingError` /
    :class:`~repro.errors.ConfigurationError`) still consume an
    iteration, mirroring a simulation that was not run.

    ``neighborhood=1`` (the default) is the paper's sequential walk and
    scores through ``problem.evaluate``.  A wider neighborhood scores a
    round in one ``evaluate_many`` call (the vectorized batch path when
    the problem provides one); that is a different, still fully
    deterministic, walk, so the width joins :meth:`identity` whenever
    it exceeds 1 and default run signatures are unchanged.

    ``max_evaluations`` stays exact (a round is clamped to the
    remaining allowance); ``max_moves``/``plateau_patience`` are checked
    between rounds, so a wide round may finish past the limit — the
    budget granularity a batch buys its throughput with.
    """

    name = "anneal"

    def __init__(
        self,
        schedule: AnnealingSchedule | None = None,
        budget: SearchBudget | None = None,
        neighborhood: int = 1,
    ) -> None:
        if neighborhood < 1:
            raise ExplorationError(f"neighborhood must be >= 1, got {neighborhood}")
        self.schedule = schedule or AnnealingSchedule()
        self.budget = budget
        self.neighborhood = neighborhood

    def identity(self) -> dict:
        ident = super().identity()
        if self.neighborhood > 1:
            ident["neighborhood"] = self.neighborhood
        return ident

    @classmethod
    def from_options(cls, schedule=None, budget=None, restarts=4, batch=1):
        return cls(schedule=schedule, budget=budget, neighborhood=batch)

    def run(self, problem: SearchProblem, seed: int = 0) -> SearchResult:
        rng = np.random.default_rng(seed)
        schedule = self.schedule
        budget = self.budget
        meter = BudgetMeter(budget)

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
        rollbacks = 0
        history = [best_score]
        stop_reason: str | None = None

        step = 0
        iterations = schedule.iterations
        while step < iterations:
            stop_reason = meter.stop_reason()
            if stop_reason is not None:
                break
            width = min(self.neighborhood, iterations - step)
            if budget is not None and budget.max_evaluations is not None:
                width = min(width, budget.max_evaluations - meter.evaluations)
            steps: list[int] = []
            candidates: list[object] = []
            for cand_step in range(step, step + width):
                try:
                    candidates.append(problem.propose(current, rng))
                except (TimingError, ConfigurationError):
                    meter.note_move(improved=False)
                    history.append(best_score)
                    continue
                steps.append(cand_step)
            step += width
            if not candidates:
                continue
            # A width-1 walk scores through evaluate(): no batch events.
            scores = (
                self.evaluate_many(problem, candidates)
                if self.neighborhood > 1
                else [problem.evaluate(candidates[0])]
            )
            for cand_step, candidate, score in zip(steps, candidates, scores):
                evaluations += 1
                meter.note_evaluation()
                improved = score > best_score
                if improved:
                    best, best_score = candidate, score
                if score >= current_score or metropolis_accept(
                    score,
                    current_score,
                    best_score,
                    schedule.temperature(cand_step),
                    rng,
                ):
                    current, current_score = candidate, score
                    accepted += 1
                # The paper's rollback rule: a configuration below half
                # the best-so-far IPT snaps the search back to the best
                # solution.
                if current_score < schedule.rollback_fraction * best_score:
                    current, current_score = best, best_score
                    rollbacks += 1
                meter.note_move(improved)
                history.append(best_score)

        return SearchResult(
            best_state=best,
            best_score=best_score,
            evaluations=evaluations,
            accepted=accepted,
            rollbacks=rollbacks,
            history=history,
            stop_reason=stop_reason,
        )


@register_strategy
class MultiStartAnneal(SearchStrategy):
    """Best-of-N independent annealing restarts.

    Restart ``r`` anneals under seed ``derive_seed(seed, restart=r)``
    (restart 0 is the plain seed, so a 1-restart multi-start equals the
    ``anneal`` strategy exactly).  When the problem carries a ``fanout``
    hook — explorers wire it to ``EvaluationEngine.map`` — the restarts
    run across the engine's worker pool; otherwise they run serially
    in-process.  Either way the winner is picked deterministically:
    highest score, ties to the earliest restart — so ``jobs=1`` and
    ``jobs=N`` agree bit-for-bit.

    The returned result is the winning restart's, except that
    ``evaluations`` is the *total across all restarts* — the honest
    search cost the quality/cost comparison charges multi-start for.
    """

    name = "multistart"

    def __init__(
        self,
        schedule: AnnealingSchedule | None = None,
        budget: SearchBudget | None = None,
        restarts: int = 4,
        neighborhood: int = 1,
    ) -> None:
        if restarts < 1:
            raise ExplorationError(f"restarts must be >= 1, got {restarts}")
        self.schedule = schedule or AnnealingSchedule()
        self.budget = budget
        self.restarts = restarts
        self.neighborhood = neighborhood
        self.inner = AnnealStrategy(
            schedule=self.schedule, budget=budget, neighborhood=neighborhood
        )

    def identity(self) -> dict:
        ident = {**super().identity(), "restarts": self.restarts}
        if self.neighborhood > 1:
            ident["neighborhood"] = self.neighborhood
        return ident

    @classmethod
    def from_options(cls, schedule=None, budget=None, restarts=4, batch=1):
        return cls(
            schedule=schedule, budget=budget, restarts=restarts, neighborhood=batch
        )

    def run(self, problem: SearchProblem, seed: int = 0) -> SearchResult:
        seeds = [derive_seed(seed, restart=r) for r in range(self.restarts)]
        if problem.fanout is not None:
            outcomes = list(problem.fanout(seeds, self.inner))
        else:
            outcomes = [self.inner.run(problem, seed=s) for s in seeds]
        if len(outcomes) != len(seeds) or any(o is None for o in outcomes):
            raise ExplorationError(
                f"multistart fan-out returned {len(outcomes)} results "
                f"for {len(seeds)} restarts"
            )
        winner = max(
            range(len(outcomes)), key=lambda i: (outcomes[i].best_score, -i)
        )
        total_evaluations = sum(o.evaluations for o in outcomes)
        return replace(outcomes[winner], evaluations=total_evaluations)
