"""End-to-end experiment pipeline.

One call produces everything the paper's evaluation consumes:

1. the 11 SPEC2000 workload profiles,
2. a customized configuration per workload (xp-scalar annealing with
   cross-seeding — Table 4),
3. the cross-configuration IPT matrix (Table 5 / Appendix A).

The pipeline is deterministic for a given (seed, iterations) pair and
cached per process so the many benchmark targets share one exploration
run, the way the paper's three-week exploration output feeds every
result section.

All simulation goes through one :class:`~repro.engine.EvaluationEngine`:
its ``jobs`` parallelize the per-workload explorations and the matrix
fill, ``cache_dir`` persists the result cache (SQLite) and the
exploration checkpoint across processes, and ``resume`` continues an
interrupted exploration from its checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from ..characterize.configurational import (
    ConfigurationalCharacteristics,
    from_results,
)
from ..characterize.cross import CrossPerformance, cross_performance
from ..engine import (
    CheckpointManager,
    EvaluationEngine,
    FaultPlan,
    ResultCache,
    RetryPolicy,
    config_from_jsonable,
    config_to_jsonable,
    digest,
)
from ..search.anneal import AnnealingSchedule
from ..explore.xpscalar import XpScalar
from ..workloads.profile import WorkloadProfile
from ..workloads.spec2000 import spec2000_profiles

#: Default annealing budget per workload; enough for the search to
#: stabilize in the calibrated design space while keeping the full
#: 11-benchmark pipeline to a few seconds.
DEFAULT_ITERATIONS = 2500
DEFAULT_SEED = 2008  # the paper's year

#: File names used inside a ``cache_dir``.
CACHE_FILE = "results.sqlite"
CHECKPOINT_FILE = "checkpoint.json"
CROSS_CHECKPOINT_FILE = "cross-checkpoint.json"


def _cross_to_state(cross: CrossPerformance) -> dict:
    """Checkpoint encoding of a :class:`CrossPerformance` (bit-exact)."""
    return {
        "names": list(cross.names),
        "ipt": [[float(v) for v in row] for row in cross.ipt],
        "configs": [config_to_jsonable(c) for c in cross.configs],
        "weights": [float(w) for w in cross.weights],
    }


def _cross_from_state(state: dict) -> CrossPerformance:
    """Inverse of :func:`_cross_to_state`."""
    return CrossPerformance(
        names=tuple(state["names"]),
        ipt=np.asarray(state["ipt"], dtype=float),
        configs=tuple(config_from_jsonable(c) for c in state["configs"]),
        weights=tuple(state["weights"]),
    )


@dataclass
class PipelineResult:
    """Everything downstream experiments need."""

    explorer: XpScalar
    profiles: list[WorkloadProfile]
    characteristics: dict[str, ConfigurationalCharacteristics]
    cross: CrossPerformance

    @property
    def engine(self) -> EvaluationEngine:
        """The evaluation engine the run went through (metrics live here)."""
        return self.explorer.engine

    def profile(self, name: str) -> WorkloadProfile:
        """Look up one profile by benchmark name."""
        for p in self.profiles:
            if p.name == name:
                return p
        raise KeyError(f"unknown workload {name!r}")


def build_engine(
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
    policy: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
) -> EvaluationEngine:
    """Standard engine wiring for pipelines and the CLI.

    ``cache_dir`` adds a persistent SQLite result cache under it;
    without one the cache is in-memory.  ``use_cache=False`` disables
    caching entirely (every evaluation simulates).  ``policy`` overrides
    the default retry/timeout policy of pooled map tasks; ``faults``
    arms deterministic fault injection in those tasks (chaos/testing
    runs — results are unchanged) and needs a pool of two or more workers.
    The store opens only once the engine has accepted these arguments,
    so a refused engine leaves no file behind.
    """
    engine = EvaluationEngine(jobs=jobs, cache=None, policy=policy, faults=faults)
    if use_cache:
        engine.attach_cache(
            ResultCache(None if cache_dir is None else Path(cache_dir) / CACHE_FILE)
        )
    return engine


def run_pipeline(
    profiles: Sequence[WorkloadProfile] | None = None,
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = DEFAULT_SEED,
    explorer: XpScalar | None = None,
    cross_seed_rounds: int = 2,
    cache_dir: str | Path | None = None,
    resume: bool = False,
) -> PipelineResult:
    """Run exploration + characterization + cross-evaluation.

    Results are identical for a given (seed, iterations) at every
    ``jobs`` setting of the engine — including under an armed fault
    plan or a pool that dies mid-run; resilience only changes how fast
    results arrive.  Without an ``explorer`` the paper's annealing
    search runs on a :func:`build_engine` engine over ``cache_dir``; a
    caller wanting another engine, strategy or budget passes an
    ``explorer`` that brings them (``iterations`` is then only a span
    attribute).
    """
    profiles = list(profiles) if profiles is not None else spec2000_profiles()
    if explorer is None:
        explorer = XpScalar(
            schedule=AnnealingSchedule(iterations=iterations),
            engine=build_engine(cache_dir=cache_dir),
        )
    events = explorer.engine.events
    if events.tracing:
        # Root span over the whole pipeline: the explore/cross-seed/
        # cross-matrix phases nest under it, giving `repro trace
        # critical-path` a single root covering the run.
        with events.span("pipeline", kind="pipeline", seed=seed,
                         iterations=iterations):
            return _pipeline_body(
                profiles, seed, cross_seed_rounds, cache_dir, resume, explorer
            )
    return _pipeline_body(
        profiles, seed, cross_seed_rounds, cache_dir, resume, explorer
    )


def _pipeline_body(
    profiles: list[WorkloadProfile],
    seed: int,
    cross_seed_rounds: int,
    cache_dir: str | Path | None,
    resume: bool,
    explorer: XpScalar,
) -> PipelineResult:
    """The pipeline proper (exploration → characterization → matrix)."""
    checkpoint = (
        CheckpointManager(
            Path(cache_dir) / CHECKPOINT_FILE, events=explorer.engine.events
        )
        if cache_dir is not None
        else None
    )
    results = explorer.customize_all(
        profiles,
        seed=seed,
        cross_seed_rounds=cross_seed_rounds,
        checkpoint=checkpoint,
        resume=resume,
    )
    characteristics = from_results(results)
    configs = {n: c.config for n, c in characteristics.items()}
    # The cross matrix is its own checkpointed phase: a resume after the
    # exploration finished restores Table 5 without re-evaluating, so
    # the *furthest* completed phase of the pipeline survives a kill —
    # not just the exploration batches.
    cross_checkpoint = (
        CheckpointManager(
            Path(cache_dir) / CROSS_CHECKPOINT_FILE, events=explorer.engine.events
        )
        if cache_dir is not None
        else None
    )
    cross_signature = digest(
        explorer.run_signature([p.name for p in profiles], seed, cross_seed_rounds),
        [config_to_jsonable(configs[p.name]) for p in profiles],
    )
    cross = None
    if cross_checkpoint is not None and resume:
        state = cross_checkpoint.load(cross_signature, strict=True)
        if state is not None:
            cross = _cross_from_state(state)
    if cross is None:
        with explorer.engine.phase("cross-matrix"):
            cross = cross_performance(explorer, profiles, configs)
        if cross_checkpoint is not None:
            cross_checkpoint.save(cross_signature, _cross_to_state(cross))
            explorer.engine.events.emit(
                "checkpoint", path=str(cross_checkpoint.path)
            )
    return PipelineResult(
        explorer=explorer,
        profiles=profiles,
        characteristics=characteristics,
        cross=cross,
    )


@lru_cache(maxsize=2)
def default_pipeline(
    iterations: int = DEFAULT_ITERATIONS, seed: int = DEFAULT_SEED
) -> PipelineResult:
    """Process-cached pipeline over the SPEC2000 suite.

    Every benchmark target and example shares this run, so the (seconds-
    scale) exploration cost is paid once per process.
    """
    return run_pipeline(iterations=iterations, seed=seed)
