"""Per-workload (IPT, power, area) Pareto fronts.

The paper reports single-objective optima; this module reports the
whole tradeoff surface: a seeded random walk samples the legal design
space (every sampled point in both core types), the batch model
scores all samples in one ``simulate_many`` call, the power/area models
attach the other two axes, and the non-dominated subset — maximize IPT,
minimize power, minimize area — is the result.

Sampled points bypass the engine's result cache: they almost never
recur (requests sharing one cache hit 0.39% of their lookups), so a
key, a lookup and a store write per point would be pure overhead.

Dominance here is the standard strong-Pareto relation: ``a`` dominates
``b`` iff ``a`` is no worse on every axis and strictly better on at
least one.  :func:`pareto_filter` computes the front with a sort-and-
scan over the kept set; the test suite re-verifies every emitted front
with an independent brute-force O(n²) check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..engine import EvaluationEngine
from ..errors import ConfigurationError, TimingError
from ..explore.moves import MoveGenerator
from ..tech import CactiModel, TechnologyNode, default_technology
from ..tech.area import core_area_mm2
from ..uarch.config import (
    CORE_TYPES,
    CoreConfig,
    DesignSpace,
    initial_configuration,
)
from ..workloads.profile import WorkloadProfile
from .constraints import ConstraintSet, DesignError


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated design point with all three objective axes."""

    config: CoreConfig
    ipt: float
    power_w: float
    area_mm2: float
    epi_nj: float

    @property
    def metrics(self) -> tuple[float, float, float]:
        """The dominance axes: (IPT, power, area)."""
        return (self.ipt, self.power_w, self.area_mm2)


def dominates(a: DesignPoint, b: DesignPoint) -> bool:
    """Strong Pareto dominance: a >= b everywhere, > somewhere.

    IPT is maximized; power and area are minimized.
    """
    if a.ipt < b.ipt or a.power_w > b.power_w or a.area_mm2 > b.area_mm2:
        return False
    return a.ipt > b.ipt or a.power_w < b.power_w or a.area_mm2 < b.area_mm2


def pareto_filter(points: Sequence[DesignPoint]) -> list[DesignPoint]:
    """The non-dominated subset, sorted by descending IPT.

    Points with exactly equal (IPT, power, area) are collapsed to their
    first representative (in input order) so a front never carries
    duplicate metric tuples.  After the descending-IPT sort, only
    already-kept points can dominate a candidate, so one scan over the
    kept set suffices.
    """
    seen: set[tuple[float, float, float]] = set()
    distinct: list[DesignPoint] = []
    for point in points:
        if point.metrics not in seen:
            seen.add(point.metrics)
            distinct.append(point)
    order = sorted(
        range(len(distinct)),
        key=lambda i: (
            -distinct[i].ipt,
            distinct[i].power_w,
            distinct[i].area_mm2,
            i,
        ),
    )
    front: list[DesignPoint] = []
    for i in order:
        candidate = distinct[i]
        if not any(dominates(kept, candidate) for kept in front):
            front.append(candidate)
    return front


@dataclass(frozen=True)
class ParetoFront:
    """The non-dominated surface of one workload's sampled design space."""

    workload: str
    points: tuple[DesignPoint, ...]
    explored: int
    feasible: int
    constraints: ConstraintSet = field(default_factory=ConstraintSet)

    def as_jsonable(self) -> dict:
        """Plain-JSON encoding (the CLI/serve artifact schema)."""
        from ..engine.serialize import config_to_jsonable

        return {
            "workload": self.workload,
            "explored": self.explored,
            "feasible": self.feasible,
            "constraints": {
                "peak_power_w": self.constraints.peak_power_w,
                "area_mm2": self.constraints.area_mm2,
                "epi_budget_nj": self.constraints.epi_budget_nj,
            },
            "front": [
                {
                    "ipt": p.ipt,
                    "power_w": p.power_w,
                    "area_mm2": p.area_mm2,
                    "epi_nj": p.epi_nj,
                    "core_type": p.config.core_type,
                    "config": config_to_jsonable(p.config),
                }
                for p in self.points
            ],
        }

    def render(self, top: int | None = None) -> str:
        """Human-readable front table, best IPT first."""
        lines = [
            f"{self.workload}: {len(self.points)} non-dominated of "
            f"{self.feasible} feasible ({self.explored} explored)"
        ]
        shown = self.points if top is None else self.points[:top]
        lines.append(
            f"  {'IPT':>8s} {'power W':>8s} {'area mm2':>9s} "
            f"{'EPI nJ':>7s} {'type':>7s} {'clock ns':>8s} {'width':>5s}"
        )
        for p in shown:
            lines.append(
                f"  {p.ipt:8.2f} {p.power_w:8.2f} {p.area_mm2:9.2f} "
                f"{p.epi_nj:7.3f} {p.config.core_type:>7s} "
                f"{p.config.clock_period_ns:8.2f} {p.config.width:5d}"
            )
        if top is not None and len(self.points) > top:
            lines.append(f"  ... {len(self.points) - top} more")
        return "\n".join(lines)


def sample_design_space(
    samples: int,
    seed: int,
    tech: TechnologyNode | None = None,
    space: DesignSpace | None = None,
    core_types: Sequence[str] = CORE_TYPES,
) -> list[CoreConfig]:
    """Seeded random-walk sample of the legal design space.

    Walks the paper's move structure (:class:`MoveGenerator`) from the
    Table 3 initial configuration, keeping every distinct visited
    configuration; each kept point is emitted once per requested core
    type, so both core types cover the *same* structural designs and
    their fronts are directly comparable.  Deterministic in ``seed``.
    """
    if samples < 1:
        raise DesignError(f"samples must be >= 1, got {samples}")
    for core_type in core_types:
        if core_type not in CORE_TYPES:
            raise DesignError(
                f"core type must be one of {CORE_TYPES}: {core_type!r}"
            )
    tech = tech or default_technology()
    space = space or DesignSpace()
    moves = MoveGenerator(tech, CactiModel.shared(tech), space)
    rng = np.random.default_rng(seed)
    current = initial_configuration(tech)
    bases: list[CoreConfig] = [current]
    seen = {current}
    attempts = 0
    # Random walk with restarts: enough proposals to gather `samples`
    # distinct points even when many moves raise (untenable corners).
    while len(bases) < samples and attempts < 50 * samples:
        attempts += 1
        try:
            current = moves.propose(current, rng)
        except (TimingError, ConfigurationError):
            continue
        if current not in seen:
            seen.add(current)
            bases.append(current)
    return [
        base.replace(core_type=core_type)
        for base in bases[:samples]
        for core_type in core_types
    ]


class ParetoExplorer:
    """Sweep workloads' design spaces into non-dominated fronts.

    All simulation goes through one uncached
    :meth:`EvaluationEngine.simulate_many` batch per workload, vectorized
    through the batch interval model, in-process: whatever cache the
    engine carries is neither read nor written by a front.
    """

    def __init__(
        self,
        tech: TechnologyNode | None = None,
        space: DesignSpace | None = None,
        engine: EvaluationEngine | None = None,
        constraints: ConstraintSet | None = None,
    ) -> None:
        self.tech = tech or default_technology()
        self.space = space or DesignSpace()
        self.constraints = constraints or ConstraintSet()
        if engine is None:
            engine = EvaluationEngine(context=self.tech)
        elif not engine.context_bound:
            engine.bind_context(self.tech)
        self.engine = engine

    def front(
        self,
        profile: WorkloadProfile,
        samples: int = 128,
        seed: int = 0,
        configs: Sequence[CoreConfig] | None = None,
    ) -> ParetoFront:
        """One workload's Pareto front over the sampled design space.

        ``configs`` overrides the sampler (the serve/CLI path samples;
        tests may inject exact candidate sets).  Infeasible points —
        violating any active constraint — are dropped before dominance
        filtering, so the front is the non-dominated subset of the
        *feasible* region.
        """
        if configs is None:
            configs = sample_design_space(
                samples, seed, tech=self.tech, space=self.space
            )
        else:
            configs = list(configs)
        return self._front(profile, configs, self._areas(configs))

    def _areas(self, configs: Sequence[CoreConfig]) -> list[float]:
        return [core_area_mm2(self.tech, config) for config in configs]

    def _front(
        self,
        profile: WorkloadProfile,
        configs: Sequence[CoreConfig],
        areas: Sequence[float],
    ) -> ParetoFront:
        with self.engine.phase(f"pareto:{profile.name}"):
            results = self.engine.simulate_many(
                [(profile, config) for config in configs]
            )
            points = []
            for config, area, result in zip(configs, areas, results):
                measures = self.constraints.measure(
                    self.tech, profile, config, result, area_mm2=area
                )
                points.append(
                    DesignPoint(
                        config=config,
                        ipt=result.ipt,
                        power_w=measures["power_w"],
                        area_mm2=measures["area_mm2"],
                        epi_nj=measures["epi_nj"],
                    )
                )
            feasible = [
                p
                for p in points
                if self.constraints.satisfied(
                    {
                        "power_w": p.power_w,
                        "area_mm2": p.area_mm2,
                        "epi_nj": p.epi_nj,
                    }
                )
            ]
            front = ParetoFront(
                workload=profile.name,
                points=tuple(pareto_filter(feasible)),
                explored=len(points),
                feasible=len(feasible),
                constraints=self.constraints,
            )
        self.engine.events.emit(
            "pareto_front",
            workload=profile.name,
            explored=front.explored,
            feasible=front.feasible,
            front=len(front.points),
            constraints=self.constraints.identity,
        )
        return front

    def fronts(
        self,
        profiles: Sequence[WorkloadProfile],
        samples: int = 128,
        seed: int = 0,
    ) -> dict[str, ParetoFront]:
        """Fronts for a suite; the sampled configs are shared across
        workloads, so they are sampled once and each config's area is
        computed once."""
        configs = sample_design_space(
            samples, seed, tech=self.tech, space=self.space
        )
        areas = self._areas(configs)
        return {
            profile.name: self._front(profile, configs, areas)
            for profile in profiles
        }
