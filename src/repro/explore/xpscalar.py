"""xp-scalar: the superscalar design-space exploration framework.

This is the reproduction of the paper's §3 tool: a simulated-annealing
search for the best architectural configuration for each workload, with
the clock period and per-unit pipeline depths as first-class knobs and
every unit sized to fit its stage budget through the CACTI-analog timing
model.  Fitness is IPT (instructions per time unit).

All simulation requests route through a
:class:`~repro.engine.pool.EvaluationEngine`, which provides result
caching, batch deduplication and (with ``jobs > 1``) process-pool
parallelism — the per-workload annealing runs of
:meth:`XpScalar.customize_all` are independent and execute concurrently.

The main entry points:

* :meth:`XpScalar.customize` — explore one workload's configuration;
* :meth:`XpScalar.customize_all` — explore a whole suite, including the
  paper's cross-seeding refinement ("If a workload was found to perform
  better on some other workload's optimal configuration, that
  configuration would replace its own configuration in order to expedite
  the exploration process") iterated to a fixed point, with optional
  checkpoint/resume for long runs;
* :func:`configurational_characteristics` lives in
  :mod:`repro.characterize` and consumes these results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from ..engine import CheckpointManager, EvaluationEngine
from ..engine.keys import derive_seed, digest, simulator_id
from ..engine.serialize import (
    config_from_jsonable,
    config_to_jsonable,
    search_result_from_jsonable,
    search_result_to_jsonable,
    simresult_from_jsonable,
    simresult_to_jsonable,
)
from ..errors import ExplorationError
from ..search import (
    AnnealingSchedule,
    SearchBudget,
    SearchDiagnostics,
    SearchProblem,
    SearchResult,
    SearchStrategy,
    make_strategy,
)
from ..sim.interval import IntervalSimulator
from ..sim.metrics import SimResult
from ..tech import CactiModel, TechnologyNode, default_technology
from ..uarch import CoreConfig, DesignSpace, initial_configuration, validate_config
from ..workloads.profile import WorkloadProfile
from .moves import MoveGenerator

#: Objective signature: maps a simulation result to the fitness to
#: maximize.  The default is IPT; power/area-aware objectives plug in
#: here (the paper's §3 notes this extension).  Objectives that need
#: the workload and configuration as well (the constrained scorers in
#: :mod:`repro.tech.power`/:mod:`repro.tech.area` and
#: :mod:`repro.design`) declare a truthy ``needs_context`` attribute
#: and are called as ``objective(profile, config, result)`` — see
#: :func:`apply_objective`.
Objective = Callable[[SimResult], float]


def ipt_objective(result: SimResult) -> float:
    """The paper's fitness: instructions per time unit."""
    return result.ipt


def apply_objective(
    objective: Objective,
    profile: WorkloadProfile,
    config: CoreConfig,
    result: SimResult,
) -> float:
    """Score ``result`` under ``objective``, passing context if asked.

    Plain objectives take the :class:`~repro.sim.metrics.SimResult`
    alone; context objectives (power/area/EPI-aware scorers) declare a
    truthy ``needs_context`` attribute and receive the workload and
    configuration too.  Duck-typed so :mod:`repro.design` never has to
    be imported here.
    """
    if getattr(objective, "needs_context", False):
        return objective(profile, config, result)  # type: ignore[call-arg]
    return objective(result)


def objective_identity(objective: Objective) -> str:
    """Stable identity of an objective for run signatures.

    Context objectives built by factories (EDP, EPI, envelopes) carry
    an ``identity`` attribute that folds their parameters in; plain
    functions fall back to their qualified name, keeping historical
    signatures (and hence resumable checkpoints) byte-stable.
    """
    ident = getattr(objective, "identity", None)
    if ident is not None:
        return str(ident() if callable(ident) else ident)
    return getattr(objective, "__qualname__", repr(objective))


@dataclass
class ExplorationResult:
    """Customization outcome for one workload."""

    workload: str
    config: CoreConfig
    score: float
    result: SimResult
    annealing: SearchResult | None = None
    cross_seeded_from: str | None = None


def _customize_task(
    payload: tuple["XpScalar", WorkloadProfile, int, CoreConfig | None],
) -> ExplorationResult:
    """One workload's annealing run, shaped for ``engine.map``.

    Module-level so it pickles by name into worker processes; the
    :class:`XpScalar` in the payload wakes up there with a serial engine
    and a private memory cache (see ``EvaluationEngine.__getstate__``).
    """
    explorer, profile, seed, initial = payload
    return explorer._customize_quiet(profile, seed=seed, initial=initial)


def _restart_task(
    payload: tuple["XpScalar", WorkloadProfile, CoreConfig, int, SearchStrategy],
) -> SearchResult:
    """One multi-start restart, shaped for ``engine.map``.

    The multi-start strategy hands its restart seeds to the explorer's
    fan-out hook, which maps this function across the engine pool.  The
    in-worker problem carries no fan-out of its own (no recursive
    fan-out) and no best-result tracking — the parent re-evaluates the
    winner, a cache hit when warm and deterministic either way.
    """
    explorer, profile, start, seed, inner = payload

    def evaluate_cfg(config: CoreConfig) -> float:
        result = explorer.engine.evaluate(profile, config)
        return apply_objective(explorer.objective, profile, config, result)

    def evaluate_many_cfg(configs: Sequence[CoreConfig]) -> list[float]:
        results = explorer.engine.evaluate_many([(profile, c) for c in configs])
        return [
            apply_objective(explorer.objective, profile, config, result)
            for config, result in zip(configs, results)
        ]

    problem = SearchProblem(
        initial=start,
        propose=explorer._moves.propose,
        evaluate=evaluate_cfg,
        evaluate_many=evaluate_many_cfg,
    )
    return inner.run(problem, seed=seed)


def _result_to_state(result: ExplorationResult) -> dict:
    """Checkpoint encoding of one :class:`ExplorationResult`."""
    annealing = result.annealing
    return {
        "workload": result.workload,
        "config": config_to_jsonable(result.config),
        "score": result.score,
        "result": simresult_to_jsonable(result.result),
        "cross_seeded_from": result.cross_seeded_from,
        "annealing": None
        if annealing is None
        else search_result_to_jsonable(annealing),
    }


def _result_from_state(state: dict) -> ExplorationResult:
    """Inverse of :func:`_result_to_state` (bit-exact for all floats)."""
    annealing = state.get("annealing")
    return ExplorationResult(
        workload=state["workload"],
        config=config_from_jsonable(state["config"]),
        score=state["score"],
        result=simresult_from_jsonable(state["result"]),
        annealing=None
        if annealing is None
        else search_result_from_jsonable(annealing),
        cross_seeded_from=state.get("cross_seeded_from"),
    )


class XpScalar:
    """Design-space explorer: one facade over moves, annealing and timing.

    Parameters
    ----------
    tech:
        Technology node (defaults to the calibrated node).
    space:
        Design-space ranges (defaults to the paper-scale space).
    simulator:
        Evaluator with an ``evaluate(profile, config) -> SimResult``
        method; defaults to the interval model.  The cycle-level
        simulator can be adapted here for (much slower) trace-driven
        exploration.  Mutually exclusive with ``engine`` (an engine
        carries its own simulator).
    schedule:
        Annealing schedule.
    objective:
        Fitness extractor (defaults to IPT).
    engine:
        Evaluation engine to route all simulations through; defaults to
        a serial engine with an in-memory result cache.  Pass an engine
        with ``jobs > 1`` to parallelize :meth:`customize_all` and the
        batched matrix fills, or one with a disk-backed cache to share
        results across processes/runs.
    strategy:
        Search policy: a registered strategy name (``"anneal"``, the
        default and the paper's search; ``"hillclimb"``; ``"random"``;
        ``"multistart"``) or a ready :class:`~repro.search.SearchStrategy`
        instance.  The default reproduces the pre-strategy explorer
        bit-for-bit.
    budget:
        Optional uniform :class:`~repro.search.SearchBudget` applied to
        every search run (only used when ``strategy`` is a name).
    restarts:
        Restart count for multi-start strategies (only used when
        ``strategy`` is a name; others ignore it).
    search_batch:
        Candidate batch width for strategies with a batched evaluation
        mode (anneal neighborhoods, hillclimb frontiers); ``1`` (the
        default) keeps the sequential, signature-stable walk.  Only used
        when ``strategy`` is a name.
    """

    def __init__(
        self,
        tech: TechnologyNode | None = None,
        space: DesignSpace | None = None,
        simulator: IntervalSimulator | None = None,
        schedule: AnnealingSchedule | None = None,
        objective: Objective = ipt_objective,
        engine: EvaluationEngine | None = None,
        strategy: str | SearchStrategy = "anneal",
        budget: SearchBudget | None = None,
        restarts: int = 4,
        search_batch: int = 1,
    ) -> None:
        self.tech = tech or default_technology()
        self.space = space or DesignSpace()
        self.model = CactiModel.shared(self.tech)
        if engine is not None:
            if simulator is not None and simulator is not engine.simulator:
                raise ExplorationError(
                    "pass the simulator through the engine, not alongside it"
                )
            self.engine = engine
            if not engine.context_bound:
                engine.bind_context(self.tech)
        else:
            # simulator=None lets the engine pick its default (the
            # vectorized batch model, scalar-compatible in results and
            # cache identity).
            self.engine = EvaluationEngine(simulator=simulator, context=self.tech)
        self.simulator = self.engine.simulator
        self.schedule = schedule or AnnealingSchedule()
        self.objective = objective
        if isinstance(strategy, str):
            self.strategy: SearchStrategy = make_strategy(
                strategy,
                schedule=self.schedule,
                budget=budget,
                restarts=restarts,
                batch=search_batch,
            )
        else:
            self.strategy = strategy
        self._moves = MoveGenerator(self.tech, self.model, self.space)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def evaluate(self, profile: WorkloadProfile, config: CoreConfig) -> SimResult:
        """Simulate one (workload, configuration) pair (cache-aware)."""
        return self.engine.evaluate(profile, config)

    def score(self, profile: WorkloadProfile, config: CoreConfig) -> float:
        """Objective value of one pair."""
        return apply_objective(
            self.objective, profile, config, self.evaluate(profile, config)
        )

    def run_signature(
        self, names: Sequence[str], seed: int, cross_seed_rounds: int
    ) -> str:
        """Content hash of everything that determines a suite exploration.

        Checkpoints are only resumed when this matches, so a changed
        schedule, seed, technology, design space, simulator or workload
        list starts fresh instead of resuming into inconsistency.
        """
        objective_id = objective_identity(self.objective)
        return digest(
            list(names),
            seed,
            cross_seed_rounds,
            self.schedule,
            self.tech,
            self.space,
            simulator_id(self.simulator),
            objective_id,
            self.strategy.identity(),
        )

    # ------------------------------------------------------------------
    # exploration
    # ------------------------------------------------------------------

    def customize(
        self,
        profile: WorkloadProfile,
        seed: int = 0,
        initial: CoreConfig | None = None,
    ) -> ExplorationResult:
        """Find a customized configuration for one workload.

        Starts from Table 3's initial configuration unless given another
        starting point, searches under the configured strategy (the
        paper's annealing by default), and returns the best
        configuration found (always validated).  Best-of-N restarts are
        the ``multistart`` strategy, which fans them through the engine
        pool.

        Emits a ``search_run`` convergence-diagnostics event on the
        engine bus (carrying the search's wall time; under a tracing
        bus the whole search is additionally bracketed as a span).
        """
        started = time.perf_counter()
        if self.engine.events.tracing:
            with self.engine.events.span(
                f"customize:{profile.name}", kind="search"
            ):
                result = self._customize_quiet(profile, seed=seed, initial=initial)
        else:
            result = self._customize_quiet(profile, seed=seed, initial=initial)
        self._emit_search(result, seconds=time.perf_counter() - started)
        return result

    def _customize_quiet(
        self,
        profile: WorkloadProfile,
        seed: int = 0,
        initial: CoreConfig | None = None,
    ) -> ExplorationResult:
        """:meth:`customize` without the diagnostics event.

        The event-free variant runs inside worker processes (whose
        private buses are discarded); the parent emits diagnostics from
        the returned results so ``jobs=1`` and ``jobs=N`` report the
        same events.
        """
        start = initial or initial_configuration(self.tech)

        # Track the SimResult behind the search's best state so the
        # winning configuration is not re-simulated after the search.
        # The update rule mirrors the annealer's (strictly-greater, in
        # evaluation order), so the tracked config matches best_state.
        tracked: tuple[float, CoreConfig, SimResult] | None = None

        def evaluate_cfg(config: CoreConfig) -> float:
            nonlocal tracked
            result = self.engine.evaluate(profile, config)
            score = apply_objective(self.objective, profile, config, result)
            if tracked is None or score > tracked[0]:
                tracked = (score, config, result)
            return score

        def evaluate_many_cfg(configs: Sequence[CoreConfig]) -> list[float]:
            # The batched twin of evaluate_cfg: one engine batch for the
            # whole candidate set, tracked updates applied in input
            # order so the strictly-greater rule picks the same winner.
            nonlocal tracked
            results = self.engine.evaluate_many([(profile, c) for c in configs])
            scores: list[float] = []
            for config, result in zip(configs, results):
                score = apply_objective(self.objective, profile, config, result)
                if tracked is None or score > tracked[0]:
                    tracked = (score, config, result)
                scores.append(score)
            return scores

        def fanout(seeds: Sequence[int], inner: SearchStrategy) -> list[SearchResult]:
            payloads = [(self, profile, start, s, inner) for s in seeds]
            return self.engine.map(_restart_task, payloads)

        problem = SearchProblem(
            initial=start,
            propose=self._moves.propose,
            evaluate=evaluate_cfg,
            fanout=fanout,
            evaluate_many=evaluate_many_cfg,
        )
        outcome = self.strategy.run(problem, seed=seed)
        best = outcome.best_state
        validate_config(best, self.tech, self.model)
        if tracked is not None and tracked[1] == best:
            final = tracked[2]
        else:  # defensive: cache makes this free when warm
            final = self.engine.evaluate(profile, best)
        return ExplorationResult(
            workload=profile.name,
            config=best,
            score=outcome.best_score,
            result=final,
            annealing=outcome,
        )

    def _emit_search(
        self, result: ExplorationResult, seconds: float | None = None
    ) -> None:
        """Publish one run's convergence diagnostics on the engine bus.

        ``seconds`` is the search's wall time when the caller measured
        it (direct :meth:`customize` calls); results harvested from
        worker processes carry no timing, so the key is simply absent —
        telemetry treats it as optional.
        """
        if result.annealing is None:
            return
        diagnostics = SearchDiagnostics.from_result(
            self.strategy.name, result.workload, result.annealing
        )
        payload = diagnostics.payload()
        if seconds is not None:
            payload["seconds"] = seconds
        self.engine.events.emit("search_run", **payload)

    def customize_all(
        self,
        profiles: Sequence[WorkloadProfile],
        seed: int = 0,
        cross_seed_rounds: int = 2,
        checkpoint: CheckpointManager | None = None,
        resume: bool = False,
    ) -> dict[str, ExplorationResult]:
        """Customize a whole suite, with the paper's cross-seeding passes.

        After the independent explorations (run concurrently when the
        engine has ``jobs > 1``), every workload is evaluated on every
        other workload's customized configuration; whenever some other
        configuration beats a workload's own, it is adopted — "If a
        workload was found to perform better on some other workload's
        optimal configuration, that configuration would replace its own
        configuration in order to expedite the exploration process."
        Each adoption round is followed by a re-annealing pass that
        continues each workload's exploration from its (possibly adopted)
        best configuration, so adopted configurations diverge again
        toward each workload's own optimum.

        With a ``checkpoint``, progress is persisted after every batch of
        explorations and every refinement round; passing ``resume=True``
        restores a matching checkpoint (same workloads, seed, schedule,
        technology, simulator — see :meth:`run_signature`) and continues
        where the interrupted run stopped.
        """
        profiles = list(profiles)
        if not profiles:
            raise ExplorationError("customize_all needs at least one workload")
        names = [p.name for p in profiles]
        if len(set(names)) != len(names):
            raise ExplorationError(f"duplicate workload names: {names}")

        signature = self.run_signature(names, seed, cross_seed_rounds)
        results: dict[str, ExplorationResult] = {}
        stage, next_round = "explore", 0
        if checkpoint is not None and checkpoint.events is None:
            # Route checkpoint quarantine reports through the engine's
            # bus so --stats (and tests) can see them.
            checkpoint.events = self.engine.events
        if checkpoint is not None and resume:
            state = checkpoint.load(signature, strict=True)
            if state is not None:
                results = {
                    name: _result_from_state(s)
                    for name, s in state.get("results", {}).items()
                    if name in set(names)
                }
                stage = state.get("stage", "explore")
                next_round = int(state.get("next_round", 0))
        if stage == "done" and set(results) == set(names):
            return results

        def save(save_stage: str, save_round: int = 0) -> None:
            if checkpoint is None:
                return
            checkpoint.save(
                signature,
                {
                    "stage": save_stage,
                    "next_round": save_round,
                    "results": {n: _result_to_state(r) for n, r in results.items()},
                },
            )
            self.engine.events.emit("checkpoint", path=str(checkpoint.path))

        if stage == "explore":
            pending = [(i, p) for i, p in enumerate(profiles) if p.name not in results]
            # Chunked so a checkpoint lands every few completions without
            # starving the pool; serial engines checkpoint per workload.
            chunk = 1 if self.engine.workers == 1 else self.engine.workers * 2
            try:
                with self.engine.phase("explore"):
                    for lo in range(0, len(pending), chunk):
                        tasks = [
                            (self, p, derive_seed(seed, index=i), None)
                            for i, p in pending[lo : lo + chunk]
                        ]
                        for outcome in self.engine.map(_customize_task, tasks):
                            results[outcome.workload] = outcome
                            self._emit_search(outcome)
                        if checkpoint is not None and len(results) < len(names):
                            save("explore")
            except BaseException:
                # Interrupt/crash on the way out: persist every finished
                # workload so a resume restores them verbatim.
                save("explore")
                raise
            next_round = 0
            save("refine", next_round)

        if stage in ("explore", "refine"):
            for round_no in range(next_round, cross_seed_rounds):
                # A refinement round is all-or-nothing: an interrupt rolls
                # back to the round boundary (results entries are replaced,
                # never mutated, so a shallow snapshot restores it) and the
                # resumed round replays identically from the same seeds.
                snapshot = dict(results)
                try:
                    with self.engine.phase(f"cross-seed-{round_no + 1}"):
                        changed = self._cross_seed_once(profiles, results)
                        # Refine: continue annealing from the current best
                        # (adopted or not); keep whichever configuration
                        # scores higher.
                        tasks = [
                            (
                                self,
                                p,
                                derive_seed(seed, index=i, round_no=round_no + 1),
                                results[p.name].config,
                            )
                            for i, p in enumerate(profiles)
                        ]
                        refined_all = self.engine.map(_customize_task, tasks)
                        for profile, refined in zip(profiles, refined_all):
                            self._emit_search(refined)
                            current = results[profile.name]
                            if refined.score > current.score:
                                refined.cross_seeded_from = current.cross_seeded_from
                                results[profile.name] = refined
                                changed = True
                except BaseException:
                    results.clear()
                    results.update(snapshot)
                    save("refine", round_no)
                    raise
                save("refine", round_no + 1)
                if not changed:
                    break
            # Recording that the rounds finished (including an early break)
            # keeps a resumed run off rounds the uninterrupted run skipped.
            save("consistency", cross_seed_rounds)
        # Final consistency pass: after the last refinement, no workload
        # should prefer another workload's configuration to its own.
        with self.engine.phase("consistency"):
            self._cross_seed_once(profiles, results)
        save("done", cross_seed_rounds)
        return results

    def _cross_seed_once(
        self,
        profiles: Sequence[WorkloadProfile],
        results: dict[str, ExplorationResult],
    ) -> bool:
        """Adoption passes, batched and iterated to a fixed point.

        Every (workload, donor-configuration) pair is evaluated in one
        deduplicated batch; adoptions can unlock further adoptions (a
        workload may prefer a configuration another workload just
        adopted), so passes repeat until none fires.  Follow-up passes
        re-request only configurations already evaluated in the first
        batch, so they are served entirely from the cache.  Returns True
        if any workload switched.
        """
        changed = False
        while True:
            # Snapshot the configurations being scored: adoptions within
            # this pass must not leak into each other, or a workload
            # could pair a donor's *new* config with the score of its
            # *old* one.  Cascades are picked up by the next pass.
            donor_config = {name: res.config for name, res in results.items()}
            pairs = []
            labels = []
            for profile in profiles:
                for other in profiles:
                    if other.name == profile.name:
                        continue
                    pairs.append((profile, donor_config[other.name]))
                    labels.append((profile.name, other.name))
            sims = self.engine.evaluate_many(pairs)
            sim_by_label = dict(zip(labels, sims))
            scores = {
                label: apply_objective(self.objective, pair[0], pair[1], sim)
                for label, pair, sim in zip(labels, pairs, sims)
            }
            fired = False
            for profile in profiles:
                own = results[profile.name]
                best_other: tuple[str, float] | None = None
                for other in profiles:
                    if other.name == profile.name:
                        continue
                    score = scores[(profile.name, other.name)]
                    if score > own.score * (1 + 1e-9) and (
                        best_other is None or score > best_other[1]
                    ):
                        best_other = (other.name, score)
                if best_other is not None:
                    donor, score = best_other
                    results[profile.name] = ExplorationResult(
                        workload=profile.name,
                        config=donor_config[donor],
                        score=score,
                        result=sim_by_label[(profile.name, donor)],
                        annealing=own.annealing,
                        cross_seeded_from=donor,
                    )
                    fired = True
            if not fired:
                return changed
            changed = True
