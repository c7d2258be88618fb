"""Head-to-head strategy comparison: one benchmark set, one shared cache.

``repro search-compare`` answers the question the strategy abstraction
raises: does the paper's simulated annealing earn its complexity?  Every
registered strategy searches the same benchmarks from the same initial
configuration, under the same budget, with seeds derived from the same
base — and all evaluations route through one shared
:class:`~repro.engine.pool.EvaluationEngine`, so a configuration two
strategies both visit is simulated once.

The quality/cost ranking uses the *algorithmic* evaluation count from
each :class:`~repro.search.SearchResult` — not engine counters and not
wall time — so the ranking is bit-identical at any ``--jobs`` level
(worker-process counters are private and wall time is noise; elapsed
seconds are still reported, unranked, for context).

This module lazily imports :mod:`repro.explore` inside functions — the
package-level rule is explorers import the search layer, never the
reverse.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Sequence

from ..engine.keys import derive_seed
from ..errors import ExplorationError
from .base import SearchBudget, SearchDiagnostics, strategy_names

#: Strategies compared when the caller does not choose.
DEFAULT_STRATEGIES = ("anneal", "hillclimb", "random", "multistart")


@dataclass(frozen=True)
class CompareRow:
    """One (strategy, benchmark) cell of the comparison."""

    strategy: str
    benchmark: str
    score: float
    evaluations: int
    moves: int
    accepted: int
    acceptance_rate: float
    plateau: int
    stop_reason: str | None
    seconds: float

    def jsonable(self) -> dict[str, Any]:
        return {
            "strategy": self.strategy,
            "benchmark": self.benchmark,
            "score": self.score,
            "evaluations": self.evaluations,
            "moves": self.moves,
            "accepted": self.accepted,
            "acceptance_rate": self.acceptance_rate,
            "plateau": self.plateau,
            "stop_reason": self.stop_reason,
            "seconds": self.seconds,
        }


@dataclass
class ComparisonReport:
    """All rows plus the deterministic quality/cost ranking."""

    rows: list[CompareRow]
    ranking: list[str]
    iterations: int
    seed: int

    def render(self) -> str:
        """The quality/cost table (plus the ranking line)."""
        from ..experiments import render_table  # lazy: experiments -> explore

        headers = [
            "strategy", "benchmark", "IPT", "evals", "moves",
            "accept%", "plateau", "stop", "seconds",
        ]
        table_rows = [
            [
                row.strategy,
                row.benchmark,
                f"{row.score:.2f}",
                row.evaluations,
                row.moves,
                f"{row.acceptance_rate * 100:.0f}%",
                row.plateau,
                row.stop_reason or "schedule",
                f"{row.seconds:.2f}",
            ]
            for row in self.rows
        ]
        table = render_table(
            headers, table_rows,
            title=f"search-compare (iterations {self.iterations}, seed {self.seed})",
        )
        return table + "\nranking (quality first, cost breaks ties): " + " > ".join(
            self.ranking
        )

    def to_jsonable(self) -> dict[str, Any]:
        """JSON form for ``--out`` / the CI benchmark artifact."""
        return {
            "iterations": self.iterations,
            "seed": self.seed,
            "ranking": list(self.ranking),
            "rows": [row.jsonable() for row in self.rows],
        }

    def write_json(self, path: Any) -> None:
        """Persist the comparison atomically (write-temp + fsync + rename)."""
        from ..engine.io_atomic import write_json_atomic  # lazy: thin IO dep

        write_json_atomic(path, self.to_jsonable(), indent=2)


def _rank(rows: Sequence[CompareRow]) -> list[str]:
    """Strategies best-first: mean score down, total evaluations up, name.

    Every key is computed from deterministic per-run quantities, so the
    ranking is identical across job counts and repeat runs.
    """
    by_strategy: dict[str, list[CompareRow]] = {}
    for row in rows:
        by_strategy.setdefault(row.strategy, []).append(row)
    return sorted(
        by_strategy,
        key=lambda name: (
            -sum(r.score for r in by_strategy[name]) / len(by_strategy[name]),
            sum(r.evaluations for r in by_strategy[name]),
            name,
        ),
    )


def compare_strategies(
    profiles: Sequence[Any],
    strategies: Sequence[str] | None = None,
    iterations: int = 400,
    seed: int = 0,
    budget: SearchBudget | None = None,
    engine: Any = None,
    restarts: int = 4,
    search_batch: int = 1,
) -> ComparisonReport:
    """Run every strategy over every profile and rank them.

    All strategies share ``engine`` (one result cache); each strategy
    gets its own :class:`~repro.explore.XpScalar` facade over it.
    Benchmark ``i`` searches under seed ``derive_seed(seed, index=i)``
    for every strategy — same starting stream, different policies.
    ``search_batch`` is the candidate width of the strategies with a
    batched mode (``anneal``, ``multistart``, ``hillclimb``).
    """
    from ..explore import AnnealingSchedule, XpScalar  # lazy: explore -> search

    profiles = list(profiles)
    if not profiles:
        raise ExplorationError("search-compare needs at least one workload")
    names = list(strategies) if strategies else list(DEFAULT_STRATEGIES)
    unknown = [n for n in names if n not in strategy_names()]
    if unknown:
        raise ExplorationError(
            f"unknown strategies: {', '.join(unknown)}; "
            f"known: {', '.join(strategy_names())}"
        )

    schedule = AnnealingSchedule(iterations=iterations)
    rows: list[CompareRow] = []
    for name in names:
        xp = XpScalar(
            engine=engine,
            schedule=schedule,
            strategy=name,
            budget=budget,
            restarts=restarts,
            search_batch=search_batch,
        )
        if engine is None:
            engine = xp.engine  # first facade's engine is shared onward
        for index, profile in enumerate(profiles):
            started = time.perf_counter()
            result = xp.customize(profile, seed=derive_seed(seed, index=index))
            seconds = time.perf_counter() - started
            diagnostics = SearchDiagnostics.from_result(
                name, profile.name, result.annealing
            )
            # Mirror the row into the event stream: a journaled
            # search-compare run is analyzable post-hoc (repro trace)
            # without --stats or the JSON artifact.
            xp.engine.events.emit(
                "strategy_timing",
                strategy=name,
                benchmark=profile.name,
                seconds=seconds,
                moves=diagnostics.moves,
                evaluations=diagnostics.evaluations,
            )
            rows.append(
                CompareRow(
                    strategy=name,
                    benchmark=profile.name,
                    score=result.score,
                    evaluations=diagnostics.evaluations,
                    moves=diagnostics.moves,
                    accepted=diagnostics.accepted,
                    acceptance_rate=diagnostics.acceptance_rate,
                    plateau=diagnostics.plateau,
                    stop_reason=diagnostics.stop_reason,
                    seconds=seconds,
                )
            )
    return ComparisonReport(
        rows=rows, ranking=_rank(rows), iterations=iterations, seed=seed
    )
