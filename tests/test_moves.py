"""Exploration moves: every proposal yields a valid configuration."""

import numpy as np
import pytest

from repro.errors import TimingError
from repro.explore import MoveGenerator
from repro.explore.moves import _MOVE_CDF, _MOVE_WEIGHTS, pick, weighted_index
from repro.uarch import DesignSpace, initial_configuration, validate_config


@pytest.fixture(scope="module")
def moves(tech, model, space):
    return MoveGenerator(tech, model, space)


def run_moves(moves, tech, model, config, method, n=60, seed=0):
    """Apply a move repeatedly; every successful proposal must validate."""
    rng = np.random.default_rng(seed)
    produced = []
    for _ in range(n):
        try:
            candidate = method(config, rng)
        except TimingError:
            continue
        except Exception as exc:  # ConfigurationError is acceptable too
            from repro.errors import ConfigurationError

            if isinstance(exc, ConfigurationError):
                continue
            raise
        validate_config(candidate, tech, model)
        produced.append(candidate)
        config = candidate
    return produced


class TestIndividualMoves:
    def test_clock_move_changes_clock(self, moves, tech, model, initial_config):
        produced = run_moves(moves, tech, model, initial_config, moves.clock_move)
        assert produced
        clocks = {round(c.clock_period_ns, 4) for c in produced}
        assert len(clocks) > 10

    def test_clock_stays_in_range(self, moves, tech, model, initial_config):
        for c in run_moves(moves, tech, model, initial_config, moves.clock_move, n=100):
            assert tech.min_clock_ns <= c.clock_period_ns <= tech.max_clock_ns

    def test_depth_move_valid(self, moves, tech, model, initial_config):
        produced = run_moves(moves, tech, model, initial_config, moves.depth_move)
        assert produced

    def test_width_move_steps_by_one(self, moves, tech, model, initial_config):
        rng = np.random.default_rng(1)
        config = initial_config
        for _ in range(20):
            try:
                candidate = moves.width_move(config, rng)
            except TimingError:
                continue
            assert abs(candidate.width - config.width) == 1
            config = candidate

    def test_size_move_respects_budget(self, moves, tech, model, initial_config):
        produced = run_moves(moves, tech, model, initial_config, moves.size_move)
        assert produced

    def test_geometry_move_keeps_cycles(self, moves, tech, model, initial_config):
        rng = np.random.default_rng(2)
        for _ in range(30):
            try:
                candidate = moves.geometry_move(initial_config, rng)
            except TimingError:
                continue
            except Exception:
                continue
            # Geometry moves re-pick shape at the same latency budget.
            assert candidate.l1.latency_cycles == initial_config.l1.latency_cycles or (
                candidate.l2.latency_cycles == initial_config.l2.latency_cycles
            )


class TestPropose:
    def test_long_walk_stays_valid(self, moves, tech, model, initial_config):
        produced = run_moves(
            moves, tech, model, initial_config, moves.propose, n=300, seed=3
        )
        assert len(produced) > 150  # most proposals succeed

    def test_walk_explores_diverse_configs(self, moves, tech, model, initial_config):
        produced = run_moves(
            moves, tech, model, initial_config, moves.propose, n=300, seed=4
        )
        widths = {c.width for c in produced}
        robs = {c.rob_size for c in produced}
        l1_caps = {c.l1.capacity_bytes for c in produced}
        assert len(widths) >= 3
        assert len(robs) >= 3
        assert len(l1_caps) >= 4

    def test_invariants_hold_along_walk(self, moves, tech, model, initial_config):
        for c in run_moves(moves, tech, model, initial_config, moves.propose, n=200):
            assert c.iq_size <= c.rob_size
            assert c.l2.capacity_bytes >= c.l1.capacity_bytes

    def test_proposal_sequence_reproducible_from_seed(
        self, moves, tech, model, initial_config
    ):
        """Two walks from the same seed propose identical configurations."""
        first = run_moves(moves, tech, model, initial_config, moves.propose, n=80, seed=17)
        second = run_moves(moves, tech, model, initial_config, moves.propose, n=80, seed=17)
        assert first == second

    def test_distinct_seeds_diverge(self, moves, tech, model, initial_config):
        first = run_moves(moves, tech, model, initial_config, moves.propose, n=80, seed=17)
        second = run_moves(moves, tech, model, initial_config, moves.propose, n=80, seed=18)
        assert first != second


class _ForcedMoveRng:
    """Minimal rng stub: always selects move index ``move`` in propose
    and answers the move's own draws with the first choice offered.

    ``propose`` picks its move with one ``random()`` draw located in the
    move cdf, so the stub answers with the midpoint of the move's cdf
    interval; uniform picks (``integers``) take the lowest index."""

    def __init__(self, move: int):
        self._move = move

    def random(self):
        lo = _MOVE_CDF[self._move - 1] if self._move else 0.0
        return (lo + _MOVE_CDF[self._move]) / 2

    def uniform(self, lo, hi):
        return hi

    def integers(self, lo, hi):
        return lo


class TestUntenableSpaces:
    """Spaces with no tenable neighbour must raise, never loop."""

    def test_width_move_with_single_width(self, tech, model, initial_config):
        space = DesignSpace(widths=(initial_config.width,))
        moves = MoveGenerator(tech, model, space)
        rng = np.random.default_rng(0)
        for _ in range(10):
            with pytest.raises(TimingError):
                moves.width_move(initial_config, rng)

    def test_size_move_with_only_oversized_buffers(self, tech, model, initial_config):
        """Every candidate size is beyond what any stage budget admits."""
        space = DesignSpace(
            rob_sizes=(65536,), iq_sizes=(65536,), lsq_sizes=(65536,)
        )
        moves = MoveGenerator(tech, model, space)
        rng = np.random.default_rng(1)
        for _ in range(10):
            with pytest.raises(TimingError):
                moves.size_move(initial_config, rng)

    def test_propose_propagates_timing_error(self, tech, model, initial_config):
        """propose must surface the move's TimingError to the caller (the
        search skips the proposal) instead of retrying internally."""
        space = DesignSpace(widths=(initial_config.width,))
        moves = MoveGenerator(tech, model, space)
        assert weighted_index(_ForcedMoveRng(move=2), _MOVE_CDF) == 2  # width_move
        with pytest.raises(TimingError):
            moves.propose(initial_config, _ForcedMoveRng(move=2))

    def test_search_survives_untenable_space(self, tech, model, initial_config):
        """A search over a space with no tenable width neighbour keeps
        skipping proposals and terminates (no infinite loop)."""
        from repro.search import AnnealingSchedule, AnnealStrategy, SearchProblem

        space = DesignSpace(widths=(initial_config.width,))
        moves = MoveGenerator(tech, model, space)

        def width_only_propose(config, rng):
            return moves.width_move(config, rng)

        problem = SearchProblem(
            initial=initial_config,
            propose=width_only_propose,
            evaluate=lambda cfg: 1.0,
        )
        strategy = AnnealStrategy(schedule=AnnealingSchedule(iterations=50))
        result = strategy.run(problem, seed=0)
        assert result.evaluations == 1
        assert result.best_state == initial_config


class TestStreamIdenticalDraws:
    """The move draws consume the RNG exactly as ``Generator.choice``.

    Walks, annealer goldens and cache keys depend on it; a numpy release
    that changes ``choice`` fails here rather than shifting goldens."""

    SEEDS = range(256)

    def test_weighted_index_matches_choice_with_p(self):
        p = np.array(_MOVE_WEIGHTS)
        for seed in self.SEEDS:
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(8):
                assert weighted_index(ours, _MOVE_CDF) == int(theirs.choice(len(p), p=p))
            assert ours.random() == theirs.random()  # streams still aligned

    def test_pick_matches_choice_of_sequence(self):
        options = [
            ("iq", "scheduler", "lsq", "l1", "l2"),
            ("rob", "iq", "lsq"),
            (-1, 1),
            (1, 2),
            [32],
            [16, 32, 64, 128],
            [32, 64, 128, 256, 512, 1024],
        ]
        for seed in self.SEEDS:
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            for seq in options:
                drawn = pick(ours, seq)
                assert type(drawn) is type(seq[0])
                assert drawn == theirs.choice(seq)
            assert ours.random() == theirs.random()
