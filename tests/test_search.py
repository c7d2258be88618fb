"""The pluggable search subsystem (repro.search)."""

import math

import numpy as np
import pytest

from repro.errors import ExplorationError, TimingError
from repro.search import (
    AnnealingSchedule,
    AnnealStrategy,
    BudgetMeter,
    HillClimbStrategy,
    MultiStartAnneal,
    RandomSearchStrategy,
    SearchBudget,
    SearchDiagnostics,
    SearchProblem,
    SearchStrategy,
    make_strategy,
    plateau_length,
    register_strategy,
    strategy_names,
)

ALL_STRATEGIES = ("anneal", "multistart", "hillclimb", "random")


def toy_evaluate(x: int) -> float:
    """Positive, multi-modal fitness over the integers 0..100."""
    return 100.0 + 10.0 * math.sin(x / 3.0) + 0.1 * x


def toy_propose(x: int, rng: np.random.Generator) -> int:
    step = int(rng.choice([-1, 1]))
    if not 0 <= x + step <= 100:
        raise TimingError("toy boundary")
    return x + step


def toy_problem(**kwargs) -> SearchProblem:
    return SearchProblem(initial=50, propose=toy_propose, evaluate=toy_evaluate, **kwargs)


SHORT = AnnealingSchedule(iterations=200)


class TestSearchBudget:
    def test_unlimited_by_default(self):
        assert SearchBudget().unlimited

    @pytest.mark.parametrize(
        "field", ["max_evaluations", "max_moves", "plateau_patience"]
    )
    def test_limits_must_be_positive(self, field):
        with pytest.raises(ExplorationError):
            SearchBudget(**{field: 0})

    def test_any_limit_clears_unlimited(self):
        assert not SearchBudget(max_moves=5).unlimited


class TestBudgetMeter:
    def test_no_budget_never_stops(self):
        meter = BudgetMeter(None)
        for _ in range(1000):
            meter.note_evaluation()
            meter.note_move(improved=False)
        assert meter.stop_reason() is None

    def test_max_evaluations(self):
        meter = BudgetMeter(SearchBudget(max_evaluations=3))
        for _ in range(3):
            assert meter.stop_reason() is None
            meter.note_evaluation()
        assert meter.stop_reason() == "max_evaluations"

    def test_max_moves(self):
        meter = BudgetMeter(SearchBudget(max_moves=2))
        meter.note_move(True)
        meter.note_move(True)
        assert meter.stop_reason() == "max_moves"

    def test_plateau_resets_on_improvement(self):
        meter = BudgetMeter(SearchBudget(plateau_patience=3))
        meter.note_move(False)
        meter.note_move(False)
        meter.note_move(True)  # improvement resets the plateau
        meter.note_move(False)
        meter.note_move(False)
        assert meter.stop_reason() is None
        meter.note_move(False)
        assert meter.stop_reason() == "plateau"


class TestPlateauLength:
    def test_short_histories(self):
        assert plateau_length([]) == 0
        assert plateau_length([1.0]) == 0

    def test_improvement_on_last_move(self):
        assert plateau_length([1.0, 1.0, 2.0]) == 0

    def test_trailing_plateau_counted(self):
        assert plateau_length([1.0, 2.0, 2.0, 2.0]) == 2


class TestRegistry:
    def test_builtins_registered(self):
        assert set(ALL_STRATEGIES) <= set(strategy_names())

    def test_unknown_name_raises(self):
        with pytest.raises(ExplorationError):
            make_strategy("gradient-descent")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ExplorationError):

            @register_strategy
            class Impostor(SearchStrategy):
                name = "anneal"

                def run(self, problem, seed=0):
                    raise NotImplementedError

    def test_unnamed_strategy_rejected(self):
        with pytest.raises(ExplorationError):

            @register_strategy
            class Nameless(SearchStrategy):
                def run(self, problem, seed=0):
                    raise NotImplementedError

    def test_make_strategy_builds_each_builtin(self):
        for name in ALL_STRATEGIES:
            strategy = make_strategy(name, schedule=SHORT)
            assert strategy.name == name
            assert strategy.identity()["strategy"] == name


class TestAnnealStrategy:
    def test_untenable_proposals_never_loop(self):
        def always_blocked(x, rng):
            raise TimingError("nothing fits")

        problem = SearchProblem(initial=5, propose=always_blocked, evaluate=toy_evaluate)
        result = AnnealStrategy(schedule=SHORT).run(problem, seed=0)
        assert result.evaluations == 1  # only the initial state
        assert len(result.history) == SHORT.iterations + 1

    def test_budget_caps_evaluations(self):
        budget = SearchBudget(max_evaluations=10)
        result = AnnealStrategy(schedule=SHORT, budget=budget).run(toy_problem(), seed=3)
        assert result.evaluations <= 10
        assert result.stop_reason == "max_evaluations"

    def test_no_budget_matches_unlimited_budget(self):
        free = AnnealStrategy(schedule=SHORT).run(toy_problem(), seed=5)
        capped = AnnealStrategy(schedule=SHORT, budget=SearchBudget()).run(
            toy_problem(), seed=5
        )
        assert free == capped


class TestHillClimb:
    def test_history_monotone(self):
        result = HillClimbStrategy(schedule=SHORT).run(toy_problem(), seed=7)
        assert result.history == sorted(result.history)
        assert result.rollbacks == 0

    def test_best_is_current(self):
        result = HillClimbStrategy(schedule=SHORT).run(toy_problem(), seed=7)
        assert result.best_score == pytest.approx(toy_evaluate(result.best_state))
        assert result.best_score == result.history[-1]

    def test_plateau_budget_stops_early(self):
        budget = SearchBudget(plateau_patience=15)
        result = HillClimbStrategy(schedule=SHORT, budget=budget).run(
            toy_problem(), seed=7
        )
        assert result.stop_reason == "plateau"
        assert len(result.history) < SHORT.iterations + 1


class TestRandomSearch:
    def test_best_tracked_over_walk(self):
        result = RandomSearchStrategy(schedule=SHORT).run(toy_problem(), seed=9)
        assert result.best_score == max(result.history)
        assert result.best_score == pytest.approx(toy_evaluate(result.best_state))

    def test_accepts_every_tenable_move(self):
        result = RandomSearchStrategy(schedule=SHORT).run(toy_problem(), seed=9)
        assert result.accepted == result.evaluations - 1


class TestMultiStart:
    def test_serial_matches_manual_best_of_n(self):
        from repro.engine import derive_seed

        strategy = MultiStartAnneal(schedule=SHORT, restarts=3)
        combined = strategy.run(toy_problem(), seed=4)
        singles = [
            AnnealStrategy(schedule=SHORT).run(toy_problem(), seed=derive_seed(4, restart=r))
            for r in range(3)
        ]
        winner = max(singles, key=lambda s: s.best_score)
        assert combined.best_state == winner.best_state
        assert combined.best_score == winner.best_score
        assert combined.evaluations == sum(s.evaluations for s in singles)

    def test_one_restart_equals_anneal_result(self):
        single = AnnealStrategy(schedule=SHORT).run(toy_problem(), seed=2)
        multi = MultiStartAnneal(schedule=SHORT, restarts=1).run(toy_problem(), seed=2)
        assert multi == single

    def test_fanout_hook_is_used(self):
        calls = []

        def fanout(seeds, inner):
            calls.append(list(seeds))
            return [inner.run(toy_problem(), seed=s) for s in seeds]

        strategy = MultiStartAnneal(schedule=SHORT, restarts=2)
        via_hook = strategy.run(toy_problem(fanout=fanout), seed=4)
        serial = MultiStartAnneal(schedule=SHORT, restarts=2).run(toy_problem(), seed=4)
        assert calls and len(calls[0]) == 2
        assert via_hook == serial

    def test_restarts_validated(self):
        with pytest.raises(ExplorationError):
            MultiStartAnneal(restarts=0)


class TestDeterminism:
    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_same_seed_same_result(self, name):
        strategy = make_strategy(name, schedule=SHORT, restarts=2)
        assert strategy.run(toy_problem(), seed=6) == strategy.run(toy_problem(), seed=6)


class TestDiagnostics:
    def test_from_result_rates(self):
        result = AnnealStrategy(schedule=SHORT).run(toy_problem(), seed=1)
        diag = SearchDiagnostics.from_result("anneal", "toy", result)
        assert diag.moves == len(result.history) - 1
        assert diag.acceptance_rate == pytest.approx(result.accepted / diag.moves)
        assert diag.plateau == plateau_length(result.history)
        payload = diag.payload()
        assert payload["strategy"] == "anneal"
        assert payload["workload"] == "toy"
        assert "trajectory" not in payload  # scalars only on the bus


class TestXpScalarIntegration:
    def test_default_equals_explicit_anneal(self):
        from repro.explore import AnnealingSchedule as Sched
        from repro.explore import XpScalar
        from repro.workloads import spec2000_profile

        profile = spec2000_profile("gzip")
        schedule = Sched(iterations=120)
        default = XpScalar(schedule=schedule).customize(profile, seed=8)
        explicit = XpScalar(schedule=schedule, strategy="anneal").customize(
            profile, seed=8
        )
        assert default.config == explicit.config
        assert default.score == explicit.score
        assert default.annealing == explicit.annealing

    def test_hillclimb_produces_valid_config(self):
        from repro.explore import AnnealingSchedule as Sched
        from repro.explore import XpScalar
        from repro.uarch import validate_config
        from repro.workloads import spec2000_profile

        xp = XpScalar(schedule=Sched(iterations=120), strategy="hillclimb")
        result = xp.customize(spec2000_profile("mcf"), seed=8)
        validate_config(result.config, xp.tech, xp.model)
        assert result.score > 0
        assert result.annealing.rollbacks == 0

    def test_multistart_fans_through_engine(self):
        from repro.explore import AnnealingSchedule as Sched
        from repro.explore import XpScalar
        from repro.workloads import spec2000_profile

        xp = XpScalar(schedule=Sched(iterations=80), strategy="multistart", restarts=2)
        result = xp.customize(spec2000_profile("gzip"), seed=8)
        single = XpScalar(schedule=Sched(iterations=80)).customize(
            spec2000_profile("gzip"), seed=8
        )
        # Restart 0 runs the plain seed, so multi-start can only match or
        # beat the single anneal — and charges for every restart.
        assert result.score >= single.score
        assert result.annealing.evaluations > single.annealing.evaluations

    def test_search_run_event_emitted(self):
        from repro.explore import AnnealingSchedule as Sched
        from repro.explore import XpScalar
        from repro.workloads import spec2000_profile

        xp = XpScalar(schedule=Sched(iterations=60))
        events = []
        xp.engine.events.subscribe(
            lambda event, payload: events.append((event, payload))
        )
        xp.customize(spec2000_profile("gzip"), seed=0)
        runs = [p for e, p in events if e == "search_run"]
        assert len(runs) == 1
        assert runs[0]["strategy"] == "anneal"
        assert runs[0]["workload"] == "gzip"
        assert xp.engine.metrics.searches == 1
        assert "searches: 1 runs" in xp.engine.metrics.summary()
