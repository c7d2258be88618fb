"""Job vocabulary of the exploration service.

A *job* is one exploration request — the service-side twin of one CLI
invocation.  :class:`JobSpec` is the validated, immutable request
(``kind`` selects which CLI path the runner mirrors); :class:`Job` is
the mutable service-side record tracking it from ``queued`` through
``running`` to ``completed``/``failed``.

Specs are deliberately *canonical*: :meth:`JobSpec.from_payload`
validates every field against the same vocabularies the CLI uses
(benchmark names, strategy registry) and fills the same defaults, so a
job submitted twice — or submitted to two replicas — has the same
content digest and therefore the same evaluation keys in the shared
result store.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any

from ..engine.keys import digest
from ..errors import ServeError
from ..search import SearchBudget, strategy_names
from ..workloads import SPEC2000_INT_NAMES

#: Every job kind the runner knows, mapped to its CLI iteration default.
JOB_KINDS = {
    "customize": 2500,
    "sweep": 600,
    "cross-matrix": 2500,
    "search-compare": 400,
    "pareto": 1,  # pareto jobs size by `samples`, not iterations
}

#: Seed defaults per kind (the CLI's: explorations 0, the pipeline 2008).
DEFAULT_SEEDS = {
    "customize": 0,
    "sweep": 0,
    "cross-matrix": 2008,
    "search-compare": 0,
    "pareto": 0,
}

#: CLI default for pareto jobs' design-space sample count.
DEFAULT_PARETO_SAMPLES = 128

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"

TERMINAL_STATES = (COMPLETED, FAILED)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ServeError(message)


@dataclass(frozen=True)
class JobSpec:
    """One validated exploration request.

    ``kind`` picks the code path (mirroring the CLI command of the same
    name); the remaining fields are that command's flags.  Instances are
    only built through :meth:`from_payload`, which normalizes defaults
    so equal requests are equal objects.
    """

    kind: str
    benchmarks: tuple[str, ...]
    iterations: int
    seed: int
    strategy: str = "anneal"
    restarts: int = 4
    max_evaluations: int | None = None
    max_moves: int | None = None
    plateau_patience: int | None = None
    clocks: tuple[float, ...] | None = None
    strategies: tuple[str, ...] | None = None
    samples: int | None = None

    @classmethod
    def from_payload(cls, payload: Any) -> "JobSpec":
        """Validate a JSON request body into a canonical spec."""
        _require(isinstance(payload, dict), "job payload must be a JSON object")
        unknown = set(payload) - {
            "kind", "benchmarks", "iterations", "seed", "strategy", "restarts",
            "max_evaluations", "max_moves", "plateau_patience", "clocks",
            "strategies", "samples", "tenant",
        }
        _require(not unknown, f"unknown job fields: {', '.join(sorted(unknown))}")

        kind = payload.get("kind")
        _require(
            kind in JOB_KINDS,
            f"unknown job kind {kind!r}; known: {', '.join(JOB_KINDS)}",
        )
        benchmarks = payload.get("benchmarks")
        _require(
            isinstance(benchmarks, (list, tuple)) and benchmarks,
            "benchmarks must be a non-empty list",
        )
        bad = [b for b in benchmarks if b not in SPEC2000_INT_NAMES]
        _require(
            not bad,
            f"unknown benchmarks: {', '.join(map(str, bad))}; "
            f"known: {', '.join(SPEC2000_INT_NAMES)}",
        )
        if kind == "sweep":
            _require(len(benchmarks) == 1, "sweep takes exactly one benchmark")

        iterations = payload.get("iterations", JOB_KINDS[kind])
        _require(
            isinstance(iterations, int) and iterations >= 1,
            f"iterations must be a positive integer, got {iterations!r}",
        )
        seed = payload.get("seed", DEFAULT_SEEDS[kind])
        _require(isinstance(seed, int), f"seed must be an integer, got {seed!r}")

        strategy = payload.get("strategy", "anneal")
        _require(
            strategy in strategy_names(),
            f"unknown strategy {strategy!r}; known: {', '.join(strategy_names())}",
        )
        restarts = payload.get("restarts", 4)
        _require(
            isinstance(restarts, int) and restarts >= 1,
            f"restarts must be a positive integer, got {restarts!r}",
        )

        def _bound(name: str) -> int | None:
            value = payload.get(name)
            if value is None:
                return None
            _require(
                isinstance(value, int) and value >= 1,
                f"{name} must be a positive integer, got {value!r}",
            )
            return value

        clocks = payload.get("clocks")
        if clocks is not None:
            _require(kind == "sweep", "clocks only apply to sweep jobs")
            _require(
                isinstance(clocks, (list, tuple))
                and clocks
                and all(isinstance(c, (int, float)) and c > 0 for c in clocks),
                "clocks must be a non-empty list of positive numbers",
            )
            clocks = tuple(float(c) for c in clocks)

        strategies = payload.get("strategies")
        if strategies is not None:
            _require(
                kind == "search-compare",
                "strategies only apply to search-compare jobs",
            )
            _require(
                isinstance(strategies, (list, tuple)) and strategies,
                "strategies must be a non-empty list",
            )
            bad = [s for s in strategies if s not in strategy_names()]
            _require(
                not bad,
                f"unknown strategies: {', '.join(map(str, bad))}; "
                f"known: {', '.join(strategy_names())}",
            )
            strategies = tuple(strategies)

        samples = payload.get("samples")
        if samples is not None:
            _require(kind == "pareto", "samples only apply to pareto jobs")
            _require(
                isinstance(samples, int) and samples >= 1,
                f"samples must be a positive integer, got {samples!r}",
            )
        elif kind == "pareto":
            samples = DEFAULT_PARETO_SAMPLES

        return cls(
            kind=kind,
            benchmarks=tuple(benchmarks),
            iterations=iterations,
            seed=seed,
            strategy=strategy,
            restarts=restarts,
            max_evaluations=_bound("max_evaluations"),
            max_moves=_bound("max_moves"),
            plateau_patience=_bound("plateau_patience"),
            clocks=clocks,
            strategies=strategies,
            samples=samples,
        )

    @property
    def budget(self) -> SearchBudget | None:
        """The per-search budget the spec requests (None when unbounded)."""
        if (
            self.max_evaluations is None
            and self.max_moves is None
            and self.plateau_patience is None
        ):
            return None
        return SearchBudget(
            max_evaluations=self.max_evaluations,
            max_moves=self.max_moves,
            plateau_patience=self.plateau_patience,
        )

    def with_budget(self, budget: SearchBudget | None) -> "JobSpec":
        """A copy whose budget fields are replaced by ``budget``."""
        return replace(
            self,
            max_evaluations=budget.max_evaluations if budget else None,
            max_moves=budget.max_moves if budget else None,
            plateau_patience=budget.plateau_patience if budget else None,
        )

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "benchmarks": list(self.benchmarks),
            "iterations": self.iterations,
            "seed": self.seed,
            "strategy": self.strategy,
            "restarts": self.restarts,
            "max_evaluations": self.max_evaluations,
            "max_moves": self.max_moves,
            "plateau_patience": self.plateau_patience,
            "clocks": list(self.clocks) if self.clocks is not None else None,
            "strategies": list(self.strategies) if self.strategies else None,
            "samples": self.samples,
        }

    @property
    def content_digest(self) -> str:
        """Content hash of the canonical spec (equal requests collide)."""
        return digest(self.to_jsonable())


def merge_budgets(
    requested: SearchBudget | None, cap: SearchBudget | None
) -> SearchBudget | None:
    """The stricter of a job's requested budget and a tenant's cap.

    Field-wise minimum with ``None`` meaning unbounded — a tenant cap
    can only tighten a job's budget, never loosen it.
    """
    if cap is None:
        return requested
    if requested is None:
        return cap

    def _tighter(a: int | None, b: int | None) -> int | None:
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    return SearchBudget(
        max_evaluations=_tighter(requested.max_evaluations, cap.max_evaluations),
        max_moves=_tighter(requested.max_moves, cap.max_moves),
        plateau_patience=_tighter(
            requested.plateau_patience, cap.plateau_patience
        ),
    )


@dataclass
class Job:
    """One submitted job's mutable service-side record.

    All mutation happens under the owning service's lock (state
    transitions run on the job-slot threads); readers take snapshots
    via :meth:`to_jsonable`.
    """

    id: str
    tenant: str
    spec: JobSpec
    state: str = QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    result: Any = None
    #: Engine/cache counter deltas attributed to this job.
    stats: dict[str, Any] = field(default_factory=dict)
    #: This job's private event journal (the SSE source).
    journal_path: Any = None
    #: Distributed-trace identity from the submitter's ``traceparent``
    #: header: the fleet-wide trace id and the caller's span id.
    trace_id: str | None = None
    parent_span_id: str | None = None

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def wall_seconds(self) -> float | None:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def to_jsonable(self, include_result: bool = False) -> dict[str, Any]:
        payload = {
            "id": self.id,
            "tenant": self.tenant,
            "state": self.state,
            "spec": self.spec.to_jsonable(),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "wall_seconds": self.wall_seconds,
            "error": self.error,
            "stats": dict(self.stats),
            "trace_id": self.trace_id,
        }
        if include_result:
            payload["result"] = self.result
        return payload
