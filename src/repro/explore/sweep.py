"""Pinned-clock design-space sweeps.

A :class:`ClockSweep` runs the xp-scalar search with the clock period
held fixed at each of a grid of values, producing the IPT-vs-clock curve
for one workload.  This is the tool behind the Figure 2 discussion (how
the unified clock re-balances unit sizings) and the calibration
ablations: the full exploration should land near each curve's peak.

Like :meth:`repro.explore.xpscalar.XpScalar.customize_all`, sweeps
checkpoint at per-point granularity: pass a
:class:`~repro.engine.CheckpointManager` and ``resume=True`` and an
interrupted sweep restores every finished grid point instead of
re-annealing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..engine import CheckpointManager
from ..engine.keys import derive_seed, digest, simulator_id
from ..engine.serialize import (
    config_from_jsonable,
    config_to_jsonable,
    search_result_from_jsonable,
    search_result_to_jsonable,
)
from ..search import (
    AnnealingSchedule,
    SearchBudget,
    SearchDiagnostics,
    SearchProblem,
    SearchResult,
    SearchStrategy,
    make_strategy,
)
from ..uarch.config import CoreConfig, initial_configuration
from ..uarch.fit import refit_config
from ..workloads.profile import WorkloadProfile
from .xpscalar import XpScalar, apply_objective, objective_identity


@dataclass(frozen=True)
class SweepPoint:
    """Best configuration found at one pinned clock period."""

    clock_period_ns: float
    score: float
    config: CoreConfig
    search: SearchResult | None = None


def _sweep_task(
    payload: tuple["ClockSweep", WorkloadProfile, float, int],
) -> SweepPoint:
    """One pinned-clock search, shaped for ``engine.map`` (picklable)."""
    sweep, profile, clock, seed = payload
    return sweep._run_at(profile, clock, seed)


def _point_to_state(point: SweepPoint) -> dict:
    """Checkpoint encoding of one :class:`SweepPoint`."""
    return {
        "clock": point.clock_period_ns,
        "score": point.score,
        "config": config_to_jsonable(point.config),
        "search": None
        if point.search is None
        else search_result_to_jsonable(point.search),
    }


def _point_from_state(state: dict) -> SweepPoint:
    """Inverse of :func:`_point_to_state` (bit-exact for all floats)."""
    search = state.get("search")
    return SweepPoint(
        clock_period_ns=state["clock"],
        score=state["score"],
        config=config_from_jsonable(state["config"]),
        search=None if search is None else search_result_from_jsonable(search),
    )


class ClockSweep:
    """Sweep the clock period, searching all other parameters at each point.

    Parameters
    ----------
    explorer:
        The :class:`XpScalar` whose engine, move generator and objective
        the sweep shares.
    iterations:
        Per-point search length (sweeps use a shorter schedule than full
        customization — the clock knob, the costliest to search, is
        pinned).
    strategy:
        Search policy per grid point: a registered name or a ready
        :class:`~repro.search.SearchStrategy`.  The default ``anneal``
        reproduces the pre-strategy sweep bit-for-bit.
    budget:
        Optional :class:`~repro.search.SearchBudget` applied to every
        point's search (only used when ``strategy`` is a name).
    restarts:
        Restart count for multi-start strategies (only used when
        ``strategy`` is a name).
    search_batch:
        Candidate batch width for strategies with a batched evaluation
        mode; ``1`` (the default) keeps the sequential, signature-stable
        walk (only used when ``strategy`` is a name).
    """

    def __init__(
        self,
        explorer: XpScalar,
        iterations: int = 600,
        strategy: str | SearchStrategy = "anneal",
        budget: SearchBudget | None = None,
        restarts: int = 4,
        search_batch: int = 1,
    ) -> None:
        self._xp = explorer
        self._iterations = iterations
        if isinstance(strategy, str):
            self._strategy: SearchStrategy = make_strategy(
                strategy,
                schedule=AnnealingSchedule(iterations=iterations),
                budget=budget,
                restarts=restarts,
                batch=search_batch,
            )
        else:
            self._strategy = strategy

    def run_signature(
        self, profile: WorkloadProfile, clocks: list[float], seed: int
    ) -> str:
        """Content hash of everything that determines a sweep.

        Checkpoints are only resumed when this matches — a changed grid,
        seed, schedule length, strategy, technology, design space or
        simulator starts fresh instead of resuming into inconsistency.
        """
        objective_id = objective_identity(self._xp.objective)
        return digest(
            profile,
            [float(c) for c in clocks],
            seed,
            self._iterations,
            self._strategy.identity(),
            self._xp.tech,
            self._xp.space,
            simulator_id(self._xp.simulator),
            objective_id,
        )

    def run(
        self,
        profile: WorkloadProfile,
        clocks: list[float] | None = None,
        seed: int = 0,
        checkpoint: CheckpointManager | None = None,
        resume: bool = False,
    ) -> list[SweepPoint]:
        """Search at each clock on the grid; returns one point per clock.

        The per-clock searches are independent, so they run across the
        explorer's engine pool when it has ``jobs > 1``; seeds are pinned
        per grid position, keeping results identical at any job count.

        With a ``checkpoint``, finished points are persisted after every
        batch; ``resume=True`` restores a matching checkpoint (see
        :meth:`run_signature`) and re-runs only the missing grid points.
        Each freshly searched point emits a ``search_run`` diagnostics
        event on the engine bus (restored points do not — no search ran).
        """
        tech = self._xp.tech
        if clocks is None:
            clocks = [
                round(c, 3)
                for c in np.linspace(tech.min_clock_ns, tech.max_clock_ns, 9)
            ]
        clocks = [float(c) for c in clocks]
        engine = self._xp.engine

        signature = self.run_signature(profile, clocks, seed)
        points: dict[int, SweepPoint] = {}
        if checkpoint is not None and checkpoint.events is None:
            checkpoint.events = engine.events
        if checkpoint is not None and resume:
            state = checkpoint.load(signature, strict=True)
            if state is not None:
                for key, entry in state.get("points", {}).items():
                    index = int(key)
                    if 0 <= index < len(clocks):
                        points[index] = _point_from_state(entry)

        def save() -> None:
            if checkpoint is None:
                return
            checkpoint.save(
                signature,
                {"points": {str(i): _point_to_state(p) for i, p in points.items()}},
            )
            engine.events.emit("checkpoint", path=str(checkpoint.path))

        pending = [(i, clock) for i, clock in enumerate(clocks) if i not in points]
        # Chunked like customize_all: a checkpoint lands every few
        # completions without starving the pool.
        chunk = 1 if engine.workers == 1 else engine.workers * 2
        try:
            with engine.phase("sweep"):
                for lo in range(0, len(pending), chunk):
                    batch = pending[lo : lo + chunk]
                    tasks = [
                        (self, profile, clock, derive_seed(seed, index=i))
                        for i, clock in batch
                    ]
                    if engine.events.tracing:
                        # Give the batch's worker task spans a meaningful
                        # parent carrying the grid points it covers.
                        with engine.events.span(
                            "sweep-batch",
                            kind="search",
                            clocks=[clock for _, clock in batch],
                        ):
                            outcomes = engine.map(_sweep_task, tasks)
                    else:
                        outcomes = engine.map(_sweep_task, tasks)
                    for (index, clock), point in zip(batch, outcomes):
                        points[index] = point
                        self._emit_search(profile, point)
                    if checkpoint is not None and len(points) < len(clocks):
                        save()
        except BaseException:
            # Interrupt/crash on the way out: flush whatever completed,
            # so a resume restores every finished grid point.
            save()
            raise
        if pending:
            save()
        return [points[i] for i in range(len(clocks))]

    def _emit_search(self, profile: WorkloadProfile, point: SweepPoint) -> None:
        """Publish one grid point's convergence diagnostics."""
        if point.search is None:
            return
        diagnostics = SearchDiagnostics.from_result(
            self._strategy.name,
            f"{profile.name}@{point.clock_period_ns:g}",
            point.search,
        )
        self._xp.engine.events.emit("search_run", **diagnostics.payload())

    def _run_at(self, profile: WorkloadProfile, clock: float, seed: int) -> SweepPoint:
        moves = self._xp._moves  # shares the explorer's move generator

        def propose(config: CoreConfig, rng: np.random.Generator) -> CoreConfig:
            candidate = moves.propose(config, rng)
            if abs(candidate.clock_period_ns - clock) > 1e-9:
                # Clock moves are pinned back to the sweep's clock.
                candidate = refit_config(
                    candidate.replace(clock_period_ns=clock),
                    self._xp.tech,
                    self._xp.model,
                    self._xp.space,
                    rng=rng,
                )
            return candidate

        start = refit_config(
            initial_configuration(self._xp.tech).replace(clock_period_ns=clock),
            self._xp.tech,
            self._xp.model,
            self._xp.space,
        )
        def evaluate_many(configs: Sequence[CoreConfig]) -> list[float]:
            results = self._xp.engine.evaluate_many(
                [(profile, cfg) for cfg in configs]
            )
            return [
                apply_objective(self._xp.objective, profile, cfg, result)
                for cfg, result in zip(configs, results)
            ]

        problem = SearchProblem(
            initial=start,
            propose=propose,
            evaluate=lambda cfg: self._xp.score(profile, cfg),
            evaluate_many=evaluate_many,
        )
        outcome = self._strategy.run(problem, seed=seed)
        return SweepPoint(
            clock_period_ns=clock,
            score=outcome.best_score,
            config=outcome.best_state,
            search=outcome,
        )
