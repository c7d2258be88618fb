"""The design-space search abstraction: strategies, budgets, diagnostics.

The paper's pipeline hinges on xp-scalar finding each workload's
customized optimal configuration, but *how* that optimum is searched is
a policy choice, not a fixed algorithm.  This module defines the pieces
every search policy shares:

* :class:`SearchProblem` — the thing being searched: an initial state, a
  seeded neighbour generator and a fitness function (plus an optional
  fan-out hook the multi-start strategy uses to spread restarts across
  the evaluation engine's worker pool);
* :class:`SearchStrategy` — the pluggable protocol.  A strategy maps
  ``(problem, seed)`` to a :class:`SearchResult` deterministically;
  concrete strategies register themselves under a name
  (:func:`register_strategy`) and are constructed by name via
  :func:`make_strategy`, so explorers, the pipeline and the CLI select
  them with a string (``--strategy``);
* :class:`SearchBudget` / :class:`BudgetMeter` — a uniform evaluation /
  move / plateau-patience budget enforced identically by every strategy
  (the redundancy-reduction argument: stop paying for evaluations once
  they stop buying score);
* :class:`SearchDiagnostics` — per-run convergence diagnostics (best-
  score trajectory, acceptance rate, plateau length, stop reason),
  derived from any strategy's result and emitted on the engine event bus
  as a ``search_run`` event.

This package deliberately does not import :mod:`repro.explore` — the
explorers import the search layer, never the reverse — so strategies are
testable on toy problems without the processor design space.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Generic, Sequence, TypeVar

import numpy as np

from ..errors import ExplorationError

State = TypeVar("State")

#: Neighbour generator signature shared with :class:`repro.explore.moves.MoveGenerator`.
Propose = Callable[[Any, np.random.Generator], Any]
#: Fitness signature: higher is better, must be positive.
Evaluate = Callable[[Any], float]
#: Batched fitness signature: one score per state, in state order.  Must
#: return exactly the floats ``evaluate`` would return one by one.
EvaluateMany = Callable[[Sequence[Any]], Sequence[float]]


# ----------------------------------------------------------------------
# budgets
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SearchBudget:
    """Uniform stopping budget for every search strategy.

    All limits are optional; an all-``None`` budget never stops a search
    (the strategy runs its schedule to completion, exactly as before the
    budget existed).

    Parameters
    ----------
    max_evaluations:
        Cap on fitness evaluations (the initial state's evaluation
        counts).  The search stops *before* the move that would exceed
        it — a budget of N never simulates more than N configurations.
    max_moves:
        Cap on move proposals, successful or not (an untenable move that
        raises still consumed exploration effort).
    plateau_patience:
        Stop after this many consecutive moves without a new best score
        — the "extra evaluations stopped paying" signal.
    """

    max_evaluations: int | None = None
    max_moves: int | None = None
    plateau_patience: int | None = None

    def __post_init__(self) -> None:
        for label, value in (
            ("max_evaluations", self.max_evaluations),
            ("max_moves", self.max_moves),
            ("plateau_patience", self.plateau_patience),
        ):
            if value is not None and value < 1:
                raise ExplorationError(f"{label} must be >= 1 when set: {value}")

    @property
    def unlimited(self) -> bool:
        """True when no limit is set (the search never budget-stops)."""
        return (
            self.max_evaluations is None
            and self.max_moves is None
            and self.plateau_patience is None
        )


class BudgetMeter:
    """Runtime enforcement of one :class:`SearchBudget`.

    Strategies call :meth:`note_evaluation` per fitness evaluation and
    :meth:`note_move` per proposal, and poll :meth:`stop_reason` at the
    top of each iteration.  With no budget (or an unlimited one) every
    call is a cheap no-op and :meth:`stop_reason` is always ``None`` —
    the budget-free code path is behaviourally identical to a strategy
    with no budget support at all.
    """

    def __init__(self, budget: SearchBudget | None) -> None:
        self._budget = None if budget is None or budget.unlimited else budget
        self.evaluations = 0
        self.moves = 0
        self.plateau = 0

    def note_evaluation(self) -> None:
        self.evaluations += 1

    def note_move(self, improved: bool) -> None:
        self.moves += 1
        self.plateau = 0 if improved else self.plateau + 1

    def stop_reason(self) -> str | None:
        """Why the search must stop now, or ``None`` to continue."""
        budget = self._budget
        if budget is None:
            return None
        if (
            budget.max_evaluations is not None
            and self.evaluations >= budget.max_evaluations
        ):
            return "max_evaluations"
        if budget.max_moves is not None and self.moves >= budget.max_moves:
            return "max_moves"
        if (
            budget.plateau_patience is not None
            and self.plateau >= budget.plateau_patience
        ):
            return "plateau"
        return None


# ----------------------------------------------------------------------
# problems and results
# ----------------------------------------------------------------------

#: Fan-out hook: ``(restart_seeds, inner_strategy) -> [SearchResult]``.
#: Provided by the explorer so the multi-start strategy can run its
#: restarts through the evaluation engine's worker pool; ``None`` means
#: "run restarts serially in-process".
Fanout = Callable[[Sequence[int], "SearchStrategy"], "list[SearchResult]"]


@dataclass
class SearchProblem(Generic[State]):
    """One design-space search instance, strategy-agnostic.

    ``evaluate_many`` is an optional batched fitness hook: the explorers
    wire it to the evaluation engine's vectorized batch path, and
    batching strategies (``neighborhood``/``frontier`` > 1) score a
    whole candidate set per call through it.  It must return exactly
    the floats ``evaluate`` would return one state at a time — the
    determinism suite holds both paths to bit-identity.
    """

    initial: State
    propose: Propose
    evaluate: Evaluate
    fanout: Fanout | None = None
    evaluate_many: EvaluateMany | None = None


@dataclass
class SearchResult(Generic[State]):
    """Outcome of one search run (any strategy).

    The field set is the annealer's historical result shape, so
    checkpoints, the CLI and every downstream consumer handle all
    strategies uniformly.  ``history`` is the best-score-so-far
    trajectory, one entry per move plus the initial evaluation.
    ``stop_reason`` is ``None`` when the schedule ran to completion, or
    the budget limit that ended the run early.
    """

    best_state: State
    best_score: float
    evaluations: int
    accepted: int
    rollbacks: int
    history: list[float] = field(default_factory=list)
    stop_reason: str | None = None


# ----------------------------------------------------------------------
# the strategy protocol and its registry
# ----------------------------------------------------------------------


class SearchStrategy(abc.ABC):
    """One pluggable search policy.

    Subclasses set the class attribute ``name`` (the ``--strategy``
    spelling), accept ``(schedule, budget)`` in ``__init__`` (extra
    knobs are strategy-specific), and implement :meth:`run`.  Register
    with :func:`register_strategy` to make the name constructible via
    :func:`make_strategy`.
    """

    name: ClassVar[str] = "?"

    @abc.abstractmethod
    def run(self, problem: SearchProblem, seed: int = 0) -> SearchResult:
        """Search ``problem``; deterministic for a given seed."""

    def identity(self) -> dict[str, Any]:
        """Canonically-encodable identity for run signatures.

        Two strategies with equal identities must produce bit-identical
        searches; anything that changes results (the schedule, the
        budget, restart counts) belongs here so checkpoints never resume
        across a strategy change.
        """
        return {
            "strategy": self.name,
            "schedule": getattr(self, "schedule", None),
            "budget": getattr(self, "budget", None),
        }

    def evaluate_many(
        self, problem: SearchProblem, states: Sequence[Any]
    ) -> list[float]:
        """Score a batch of states through the problem's batched hook.

        Falls back to a scalar ``problem.evaluate`` loop when the
        problem provides no batched path — bit-identical by the
        ``evaluate_many`` contract, so strategies can call this
        unconditionally.
        """
        if problem.evaluate_many is not None:
            return [float(score) for score in problem.evaluate_many(states)]
        return [problem.evaluate(state) for state in states]

    @classmethod
    def from_options(
        cls,
        schedule: Any = None,
        budget: SearchBudget | None = None,
        restarts: int = 4,
        batch: int = 1,
    ) -> "SearchStrategy":
        """Construct from the uniform option set (``restarts`` is only
        meaningful to multi-start strategies, ``batch`` only to
        strategies with a batched evaluation mode; others ignore
        them)."""
        return cls(schedule=schedule, budget=budget)  # type: ignore[call-arg]


_REGISTRY: dict[str, type[SearchStrategy]] = {}

StrategyType = TypeVar("StrategyType", bound=type[SearchStrategy])


def register_strategy(cls: StrategyType) -> StrategyType:
    """Class decorator: make ``cls`` constructible by name.

    Third-party strategies plug in the same way the built-ins do —
    subclass :class:`SearchStrategy`, set ``name``, decorate.  Re-using
    a taken name raises (silent replacement would make ``--strategy``
    ambiguous).
    """
    name = cls.name
    if not name or name == "?":
        raise ExplorationError(f"strategy {cls.__name__} must set a name")
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ExplorationError(
            f"strategy name {name!r} already registered by {existing.__name__}"
        )
    _REGISTRY[name] = cls
    return cls


def strategy_names() -> list[str]:
    """All registered strategy names, in registration order."""
    return list(_REGISTRY)


def make_strategy(
    name: str,
    schedule: Any = None,
    budget: SearchBudget | None = None,
    restarts: int = 4,
    batch: int = 1,
) -> SearchStrategy:
    """Construct a registered strategy by name."""
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ExplorationError(
            f"unknown search strategy {name!r}; known: {', '.join(_REGISTRY)}"
        )
    return cls.from_options(
        schedule=schedule, budget=budget, restarts=restarts, batch=batch
    )


# ----------------------------------------------------------------------
# convergence diagnostics
# ----------------------------------------------------------------------


def plateau_length(history: Sequence[float]) -> int:
    """Moves since the best score last improved (0 = improved on the last).

    ``history`` is a best-so-far trajectory, so the plateau is the
    length of the constant tail minus the entry that set it.
    """
    if len(history) < 2:
        return 0
    final = history[-1]
    tail = 0
    for value in reversed(history):
        if value < final:
            break
        tail += 1
    return min(tail, len(history)) - 1


@dataclass(frozen=True)
class SearchDiagnostics:
    """Per-run convergence summary, derivable from any strategy's result.

    ``trajectory`` is the full best-score history (kept on the object
    for plotting/analysis); :meth:`payload` flattens the scalars for the
    engine event bus's ``search_run`` event.
    """

    strategy: str
    workload: str
    best_score: float
    evaluations: int
    moves: int
    accepted: int
    acceptance_rate: float
    plateau: int
    rollbacks: int
    stop_reason: str | None
    trajectory: tuple[float, ...]

    @classmethod
    def from_result(
        cls, strategy: str, workload: str, result: SearchResult
    ) -> "SearchDiagnostics":
        moves = max(len(result.history) - 1, 0)
        return cls(
            strategy=strategy,
            workload=workload,
            best_score=result.best_score,
            evaluations=result.evaluations,
            moves=moves,
            accepted=result.accepted,
            acceptance_rate=result.accepted / moves if moves else 0.0,
            plateau=plateau_length(result.history),
            rollbacks=result.rollbacks,
            stop_reason=result.stop_reason,
            trajectory=tuple(result.history),
        )

    def payload(self) -> dict[str, Any]:
        """The ``search_run`` event payload (scalars only)."""
        return {
            "strategy": self.strategy,
            "workload": self.workload,
            "best_score": self.best_score,
            "evaluations": self.evaluations,
            "moves": self.moves,
            "accepted": self.accepted,
            "acceptance_rate": self.acceptance_rate,
            "plateau": self.plateau,
            "rollbacks": self.rollbacks,
            "stop_reason": self.stop_reason,
        }
