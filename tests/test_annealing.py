"""Simulated annealing (the ``anneal`` strategy): convergence, rollback
rule, determinism."""

import numpy as np
import pytest

from repro.errors import ExplorationError, TimingError
from repro.explore import AnnealingSchedule
from repro.search import AnnealStrategy, SearchProblem, SearchResult


def quadratic_problem():
    """Maximize 10 - (x-3)^2 over floats via +/-step proposals."""

    def propose(x, rng):
        return x + rng.normal(0, 0.5)

    def evaluate(x):
        return max(0.01, 10.0 - (x - 3.0) ** 2)

    return propose, evaluate


def anneal(propose, evaluate, initial, schedule=None, seed=0):
    """One ``anneal`` run over a toy problem."""
    problem = SearchProblem(initial=initial, propose=propose, evaluate=evaluate)
    return AnnealStrategy(schedule=schedule).run(problem, seed=seed)


class TestSchedule:
    def test_geometric_cooling(self):
        s = AnnealingSchedule(iterations=100, t_initial=0.1, t_final=0.001)
        assert s.temperature(0) == pytest.approx(0.1)
        assert s.temperature(99) == pytest.approx(0.001)
        assert s.temperature(50) < s.temperature(10)

    def test_single_iteration(self):
        s = AnnealingSchedule(iterations=1)
        assert s.temperature(0) == s.t_initial

    def test_validation(self):
        with pytest.raises(ExplorationError):
            AnnealingSchedule(iterations=0)
        with pytest.raises(ExplorationError):
            AnnealingSchedule(t_initial=0.01, t_final=0.1)
        with pytest.raises(ExplorationError):
            AnnealingSchedule(rollback_fraction=1.5)


class TestConvergence:
    def test_finds_optimum(self):
        propose, evaluate = quadratic_problem()
        result = anneal(propose, evaluate, -5.0, AnnealingSchedule(iterations=2000))
        assert result.best_score > 9.9
        assert result.best_state == pytest.approx(3.0, abs=0.2)

    def test_deterministic(self):
        propose, evaluate = quadratic_problem()
        schedule = AnnealingSchedule(iterations=500)
        a = anneal(propose, evaluate, 0.0, schedule, seed=7)
        b = anneal(propose, evaluate, 0.0, schedule, seed=7)
        assert a.best_state == b.best_state
        assert a.history == b.history

    def test_different_seeds_explore_differently(self):
        propose, evaluate = quadratic_problem()
        schedule = AnnealingSchedule(iterations=50)
        first = anneal(propose, evaluate, 0.0, schedule, seed=1)
        second = anneal(propose, evaluate, 0.0, schedule, seed=2)
        assert first.best_state != second.best_state

    def test_history_is_monotone_best(self):
        propose, evaluate = quadratic_problem()
        schedule = AnnealingSchedule(iterations=300)
        history = anneal(propose, evaluate, 0.0, schedule, seed=3).history
        assert history == sorted(history)

    def test_rejects_non_positive_initial_score(self):
        with pytest.raises(ExplorationError):
            anneal(lambda x, rng: x, lambda x: 0.0, 1.0)


class TestRollback:
    def test_paper_rollback_rule_triggers(self):
        """A proposal stream that dives below half the best score must
        trigger rollbacks to the best state."""

        def propose(x, rng):
            # Mostly catastrophic proposals.
            return x * 0.1 if rng.random() < 0.8 else x * 1.5

        def evaluate(x):
            return max(1e-6, x)

        schedule = AnnealingSchedule(iterations=300, t_initial=5.0, t_final=1.0)
        result = anneal(propose, evaluate, 1.0, schedule)
        assert result.rollbacks > 0
        assert result.best_score >= 1.0

    def test_failed_proposals_are_skipped(self):
        calls = {"n": 0}

        def propose(x, rng):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise TimingError("untenable move")
            return x + rng.normal(0, 0.1)

        propose_ok, evaluate = quadratic_problem()
        schedule = AnnealingSchedule(iterations=100)
        result = anneal(propose, evaluate, 2.0, schedule, seed=1)
        # Half the proposals failed; the run still completes and returns.
        assert isinstance(result, SearchResult)
        assert result.evaluations < 100

    def test_accepted_counter(self):
        propose, evaluate = quadratic_problem()
        schedule = AnnealingSchedule(iterations=200)
        result = anneal(propose, evaluate, 0.0, schedule, seed=5)
        assert 0 < result.accepted <= 200
