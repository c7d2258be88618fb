"""The batched-evaluation protocol across the search strategies.

``SearchProblem.evaluate_many`` is an optional hook; the strategy base
class promises that (a) strategies without it fall back to a scalar
``evaluate`` loop bit-identically, (b) batching strategies
(``neighborhood``/``frontier`` > 1) stay deterministic and budget-exact,
and (c) the default (batch width 1) walk — and therefore every run
signature and golden — is untouched.  The explorer-level tests at the
bottom hold ``jobs=1 == jobs=4`` with batching on, through the real
engine and the vectorized interval model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import EvaluationEngine, ResultCache
from repro.errors import ConfigurationError, ExplorationError
from repro.explore import AnnealingSchedule, XpScalar
from repro.explore.sweep import ClockSweep
from repro.search import (
    SearchBudget,
    SearchProblem,
    make_strategy,
    strategy_names,
)
from repro.search.anneal import AnnealStrategy, MultiStartAnneal
from repro.search.local import HillClimbStrategy, RandomSearchStrategy
from repro.workloads import spec2000_profile

ITERATIONS = 60


def _evaluate(state: float) -> float:
    return 1.0 / (1.0 + state * state) + 0.1


def toy_problem(batch_sizes: list[int] | None = None,
                with_many: bool = True,
                untenable: bool = False) -> SearchProblem:
    """A 1-D score landscape with a seeded Gaussian-step neighbourhood."""

    def propose(state: float, rng: np.random.Generator) -> float:
        step = rng.normal(0.0, 0.5)
        if untenable and abs(step) > 0.6:
            raise ConfigurationError("untenable toy move")
        return state + step

    evaluate_many = None
    if with_many:
        def evaluate_many(states):
            if batch_sizes is not None:
                batch_sizes.append(len(states))
            return [_evaluate(s) for s in states]

    return SearchProblem(
        initial=3.0,
        propose=propose,
        evaluate=_evaluate,
        evaluate_many=evaluate_many,
    )


def results_equal(a, b) -> bool:
    return (
        a.best_state == b.best_state
        and a.best_score == b.best_score
        and a.evaluations == b.evaluations
        and a.accepted == b.accepted
        and a.rollbacks == b.rollbacks
        and a.history == b.history
        and a.stop_reason == b.stop_reason
    )


class TestProtocol:
    def test_fallback_without_hook_is_scalar_loop(self):
        strategy = AnnealStrategy(AnnealingSchedule(iterations=ITERATIONS))
        problem = toy_problem(with_many=False)
        scores = strategy.evaluate_many(problem, [0.0, 1.0, 2.0])
        assert scores == [_evaluate(0.0), _evaluate(1.0), _evaluate(2.0)]

    def test_hook_used_when_provided(self):
        calls: list[int] = []
        problem = toy_problem(batch_sizes=calls)
        strategy = AnnealStrategy(AnnealingSchedule(iterations=ITERATIONS))
        strategy.evaluate_many(problem, [0.0, 1.0])
        assert calls == [2]

    def test_batched_run_identical_with_and_without_hook(self):
        """The hook must never change results, only their cost."""
        for cls, kwargs in (
            (AnnealStrategy, {"neighborhood": 5}),
            (HillClimbStrategy, {"frontier": 5}),
        ):
            with_hook = cls(AnnealingSchedule(iterations=ITERATIONS), **kwargs).run(
                toy_problem(with_many=True), seed=11
            )
            without = cls(AnnealingSchedule(iterations=ITERATIONS), **kwargs).run(
                toy_problem(with_many=False), seed=11
            )
            assert results_equal(with_hook, without), cls.name

    def test_batched_strategies_feed_whole_rounds_to_the_hook(self):
        calls: list[int] = []
        strategy = AnnealStrategy(
            AnnealingSchedule(iterations=ITERATIONS), neighborhood=6
        )
        strategy.run(toy_problem(batch_sizes=calls), seed=3)
        assert calls and max(calls) == 6


class TestBatchedDeterminism:
    @pytest.mark.parametrize("cls,kwargs", [
        (AnnealStrategy, {"neighborhood": 4}),
        (HillClimbStrategy, {"frontier": 4}),
        (MultiStartAnneal, {"restarts": 2, "neighborhood": 4}),
    ], ids=["anneal", "hillclimb", "multistart"])
    def test_same_seed_same_result(self, cls, kwargs):
        schedule = AnnealingSchedule(iterations=ITERATIONS)
        first = cls(schedule, **kwargs).run(toy_problem(), seed=42)
        second = cls(schedule, **kwargs).run(toy_problem(), seed=42)
        assert results_equal(first, second)

    def test_untenable_proposals_consume_moves_not_evaluations(self):
        schedule = AnnealingSchedule(iterations=ITERATIONS)
        result = AnnealStrategy(schedule, neighborhood=4).run(
            toy_problem(untenable=True), seed=5
        )
        # Every iteration lands one history entry (tenable or not), plus
        # the initial evaluation's.
        assert len(result.history) == ITERATIONS + 1
        assert result.evaluations <= ITERATIONS + 1

    def test_max_evaluations_exact_under_batching(self):
        """The width clamp keeps the evaluation budget *exact*, not
        round-granular."""
        budget = SearchBudget(max_evaluations=10)
        schedule = AnnealingSchedule(iterations=500)
        for strategy in (
            AnnealStrategy(schedule, budget=budget, neighborhood=4),
            HillClimbStrategy(schedule, budget=budget, frontier=4),
        ):
            result = strategy.run(toy_problem(), seed=0)
            assert result.evaluations == 10, strategy.name
            assert result.stop_reason == "max_evaluations", strategy.name


class TestIdentityStability:
    def test_registry_names_unchanged(self):
        assert set(strategy_names()) == {
            "anneal", "multistart", "hillclimb", "random"
        }

    def test_default_identities_carry_no_batch_keys(self):
        """batch=1 must not perturb run signatures (goldens, resumes)."""
        schedule = AnnealingSchedule(iterations=ITERATIONS)
        assert AnnealStrategy(schedule).identity() == \
            AnnealStrategy(schedule, neighborhood=1).identity()
        assert "neighborhood" not in AnnealStrategy(schedule).identity()
        assert "frontier" not in HillClimbStrategy(schedule).identity()
        assert "neighborhood" not in MultiStartAnneal(schedule).identity()

    def test_batched_identities_differ_from_default(self):
        schedule = AnnealingSchedule(iterations=ITERATIONS)
        assert AnnealStrategy(schedule, neighborhood=4).identity()[
            "neighborhood"] == 4
        assert HillClimbStrategy(schedule, frontier=4).identity()["frontier"] == 4
        assert MultiStartAnneal(schedule, neighborhood=4).identity()[
            "neighborhood"] == 4

    def test_make_strategy_threads_batch(self):
        schedule = AnnealingSchedule(iterations=ITERATIONS)
        assert make_strategy("anneal", schedule=schedule, batch=4).neighborhood == 4
        assert make_strategy("hillclimb", schedule=schedule, batch=4).frontier == 4
        multi = make_strategy("multistart", schedule=schedule, batch=4)
        assert multi.neighborhood == 4 and multi.inner.neighborhood == 4
        # random has no batched mode; the option is ignored, not an error.
        assert isinstance(
            make_strategy("random", schedule=schedule, batch=4),
            RandomSearchStrategy,
        )

    def test_width_below_one_rejected(self):
        with pytest.raises(ExplorationError):
            AnnealStrategy(neighborhood=0)
        with pytest.raises(ExplorationError):
            HillClimbStrategy(frontier=0)

    def test_batch_one_run_is_the_sequential_walk(self):
        """neighborhood=1 routes through the original sequential annealer."""
        schedule = AnnealingSchedule(iterations=ITERATIONS)
        base = AnnealStrategy(schedule).run(toy_problem(with_many=False), seed=9)
        explicit = AnnealStrategy(schedule, neighborhood=1).run(
            toy_problem(with_many=False), seed=9
        )
        assert results_equal(base, explicit)


class TestExplorerBatching:
    """search_batch through the real explorer, engine and batch model."""

    def test_customize_with_search_batch_runs_and_respects_budget(self):
        xp = XpScalar(
            schedule=AnnealingSchedule(iterations=40),
            budget=SearchBudget(max_evaluations=25),
            search_batch=8,
        )
        outcome = xp.customize(spec2000_profile("gzip"), seed=1)
        assert outcome.score > 0
        assert outcome.annealing.evaluations == 25
        assert outcome.annealing.stop_reason == "max_evaluations"

    def test_jobs4_matches_jobs1_with_batching(self, many_cpus):
        profile = spec2000_profile("gzip")
        serial = XpScalar(
            schedule=AnnealingSchedule(iterations=40), search_batch=4
        ).customize(profile, seed=2)
        with EvaluationEngine(jobs=4, cache=ResultCache()) as engine:
            parallel = XpScalar(
                schedule=AnnealingSchedule(iterations=40),
                engine=engine,
                search_batch=4,
            ).customize(profile, seed=2)
        assert serial.config == parallel.config
        assert serial.score == parallel.score
        assert serial.result.ipt == parallel.result.ipt

    def test_clock_sweep_with_search_batch(self):
        xp = XpScalar(engine=EvaluationEngine())
        sweep = ClockSweep(xp, iterations=25, search_batch=4)
        points = sweep.run(spec2000_profile("gzip"), clocks=[0.3], seed=0)
        assert len(points) == 1
        assert points[0].score > 0
        assert points[0].clock_period_ns == 0.3
