"""Constrained heterogeneous core-combination search (dark silicon).

The paper's §5.2 complete search picks the best *k* of the workloads'
customized (all out-of-order) configurations, unconstrained.  This
module generalizes it along both axes ROADMAP item 2 calls for:

* **core type** — every candidate configuration is offered in both core
  types (the in-order twin of a customized out-of-order core is smaller
  and cooler but slower), so the search picks *type* as well as
  configuration;
* **count under a budget** — combinations are multisets (a core may be
  replicated) and must fit a shared :class:`ConstraintSet` power/area
  envelope, the dark-silicon regime: when k big cores no longer fit the
  budget, mixes of big and little cores compete on merit.

The search reuses the communal machinery unchanged — the merit
functions only read ``names``/``weights``/``index``/``best_config_for``/
``ipt_on``, which the rectangular :class:`DesignMatrix` provides — and
with no constraints it *delegates* to
:func:`repro.communal.combination.best_combination`, reproducing the
paper's results bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb, inf
from typing import Mapping, Sequence

import numpy as np

from ..communal.combination import (
    DEFAULT_BEAM_WIDTH,
    EXACT_SUBSET_LIMIT,
    Combination,
    best_combination,
    evaluate_combination,
)
from ..communal.merit import MERITS
from ..engine import EvaluationEngine
from ..errors import CommunalError
from ..tech import TechnologyNode, default_technology
from ..tech.area import core_area_mm2
from ..tech.power import _estimate_power
from ..uarch.config import CoreConfig
from ..workloads.profile import WorkloadProfile
from .constraints import ConstraintSet, DesignError

#: Suffix naming the in-order twin of a customized configuration.
INORDER_SUFFIX = "@io"


@dataclass(frozen=True)
class CoreCandidate:
    """One selectable core: a named configuration plus its silicon cost.

    ``peak_power_w`` is the worst case over the workload population —
    the figure a shared power envelope must provision for.
    """

    name: str
    config: CoreConfig
    area_mm2: float
    peak_power_w: float

    @property
    def core_type(self) -> str:
        return self.config.core_type


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """Rectangular workloads × candidate-cores IPT matrix.

    Duck-types the members the communal merit functions and the
    combination search read (``names``, ``weights``, ``index``,
    ``best_config_for``, ``ipt_on``), with candidate columns decoupled
    from workload rows — the square :class:`CrossPerformance` special
    case is the paper's setting.
    """

    names: tuple[str, ...]
    weights: tuple[float, ...]
    candidates: tuple[CoreCandidate, ...]
    ipt: np.ndarray  # rows: workloads, columns: candidates

    def __post_init__(self) -> None:
        rows, cols = len(self.names), len(self.candidates)
        if self.ipt.shape != (rows, cols):
            raise CommunalError(
                f"IPT matrix shape {self.ipt.shape} does not match "
                f"{rows} workloads x {cols} candidates"
            )
        if len(self.weights) != rows:
            raise CommunalError("need one weight per workload")
        if (self.ipt <= 0).any():
            raise CommunalError("IPT values must be positive")
        seen = set()
        for candidate in self.candidates:
            if candidate.name in seen:
                raise CommunalError(f"duplicate candidate {candidate.name!r}")
            seen.add(candidate.name)

    @property
    def candidate_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.candidates)

    def index(self, name: str) -> int:
        """Column index of a candidate (merit functions validate with it)."""
        for i, candidate in enumerate(self.candidates):
            if candidate.name == name:
                return i
        raise CommunalError(
            f"unknown candidate {name!r}; known: "
            f"{', '.join(self.candidate_names)}"
        )

    def candidate(self, name: str) -> CoreCandidate:
        return self.candidates[self.index(name)]

    def _row(self, workload: str) -> int:
        try:
            return self.names.index(workload)
        except ValueError:
            raise CommunalError(
                f"unknown workload {workload!r}; known: {', '.join(self.names)}"
            ) from None

    def ipt_on(self, workload: str, candidate_name: str) -> float:
        return float(self.ipt[self._row(workload), self.index(candidate_name)])

    def best_config_for(self, workload: str, available: Sequence[str]) -> str:
        if not available:
            raise CommunalError("no candidates available")
        i = self._row(workload)
        return max(available, key=lambda c: self.ipt[i, self.index(c)])


def build_design_matrix(
    engine: EvaluationEngine,
    profiles: Sequence[WorkloadProfile],
    configs: Mapping[str, CoreConfig],
    tech: TechnologyNode | None = None,
    include_inorder: bool = True,
) -> DesignMatrix:
    """Evaluate every workload on every candidate core, both core types.

    ``configs`` maps workload names to their customized configurations
    (the :meth:`~repro.explore.xpscalar.XpScalar.customize_all` output);
    each also contributes its in-order twin (same structures, suffix
    ``@io``) unless ``include_inorder`` is false.  One deduplicated
    engine batch fills the whole matrix; the power/area models then
    price each candidate (peak power = worst case over workloads).
    """
    tech = tech or default_technology()
    named: list[tuple[str, CoreConfig]] = []
    for name in configs:
        config = configs[name]
        named.append((name, config.replace(core_type="ooo")))
        if include_inorder:
            named.append(
                (f"{name}{INORDER_SUFFIX}", config.replace(core_type="inorder"))
            )
    pairs = [
        (profile, config) for profile in profiles for _, config in named
    ]
    results = engine.evaluate_many(pairs)
    rows, cols = len(profiles), len(named)
    ipt = np.empty((rows, cols), dtype=float)
    areas = [core_area_mm2(tech, config) for _, config in named]
    peak_power = [0.0] * cols
    for idx, ((profile, config), result) in enumerate(zip(pairs, results)):
        i, j = divmod(idx, cols)
        ipt[i, j] = result.ipt
        power = _estimate_power(profile, config, result, areas[j]).total_w
        if power > peak_power[j]:
            peak_power[j] = power
    candidates = tuple(
        CoreCandidate(
            name=name,
            config=config,
            area_mm2=areas[j],
            peak_power_w=peak_power[j],
        )
        for j, (name, config) in enumerate(named)
    )
    return DesignMatrix(
        names=tuple(p.name for p in profiles),
        weights=tuple(p.weight for p in profiles),
        candidates=candidates,
        ipt=ipt,
    )


@dataclass(frozen=True)
class HeteroResult:
    """One constrained heterogeneous combination and its standing."""

    combination: Combination
    counts: tuple[tuple[str, int], ...]  # (candidate, copies), chosen order
    core_types: tuple[tuple[str, str], ...]  # (candidate, core type)
    total_area_mm2: float
    total_peak_power_w: float
    constraints: ConstraintSet

    @property
    def merit(self) -> float:
        return self.combination.merit

    def as_jsonable(self) -> dict:
        """Plain-JSON encoding (the CLI/serve artifact schema)."""
        types = dict(self.core_types)
        return {
            "merit_name": self.combination.merit_name,
            "merit": self.combination.merit,
            "average": self.combination.average,
            "harmonic": self.combination.harmonic,
            "contention_weighted": self.combination.contention_weighted,
            "cores": [
                {"name": name, "count": count, "core_type": types[name]}
                for name, count in self.counts
            ],
            "assignment": [list(pair) for pair in self.combination.assignment],
            "total_area_mm2": self.total_area_mm2,
            "total_peak_power_w": self.total_peak_power_w,
            "constraints": {
                "peak_power_w": self.constraints.peak_power_w,
                "area_mm2": self.constraints.area_mm2,
                "epi_budget_nj": self.constraints.epi_budget_nj,
            },
        }

    def render(self) -> str:
        parts = [
            f"merit ({self.combination.merit_name}) "
            f"{self.combination.merit:.3f}",
            f"area {self.total_area_mm2:.1f} mm2",
            f"peak power {self.total_peak_power_w:.1f} W",
        ]
        types = dict(self.core_types)
        cores = ", ".join(
            f"{name} x{count} [{types[name]}]" for name, count in self.counts
        )
        return f"{cores}\n  " + "  ".join(parts)


def _totals(
    matrix: DesignMatrix, chosen: Sequence[str]
) -> tuple[float, float]:
    area = sum(matrix.candidate(name).area_mm2 for name in chosen)
    power = sum(matrix.candidate(name).peak_power_w for name in chosen)
    return area, power


def _feasible(
    matrix: DesignMatrix, chosen: Sequence[str], constraints: ConstraintSet
) -> bool:
    area, power = _totals(matrix, chosen)
    if constraints.area_mm2 is not None and area > constraints.area_mm2:
        return False
    if constraints.peak_power_w is not None and power > constraints.peak_power_w:
        return False
    return True


def _result_from_chosen(
    matrix: DesignMatrix,
    combination: Combination,
    constraints: ConstraintSet,
) -> HeteroResult:
    chosen = combination.configs
    counts: list[tuple[str, int]] = []
    for name in chosen:
        if counts and counts[-1][0] == name:
            counts[-1] = (name, counts[-1][1] + 1)
        else:
            counts.append((name, 1))
    area, power = _totals(matrix, chosen)
    return HeteroResult(
        combination=combination,
        counts=tuple(counts),
        core_types=tuple(
            (name, matrix.candidate(name).core_type) for name, _ in counts
        ),
        total_area_mm2=area,
        total_peak_power_w=power,
        constraints=constraints,
    )


def hetero_search(
    matrix: DesignMatrix,
    k: int,
    constraints: ConstraintSet | None = None,
    merit: str = "cw-har",
    candidates: Sequence[str] | None = None,
    mode: str = "auto",
    beam_width: int = DEFAULT_BEAM_WIDTH,
) -> HeteroResult:
    """Best k-core multiset under a shared power/area envelope.

    Unconstrained, this *is* the paper's complete search: it delegates
    to :func:`~repro.communal.combination.best_combination` (subsets,
    no replication) and reproduces its result bit-identically.  With an
    active envelope, combinations become multisets enumerated in
    non-decreasing candidate order (``mode="exact"``; ``"beam"`` prunes
    each prefix level to ``beam_width``; ``"auto"`` switches on
    :data:`~repro.communal.combination.EXACT_SUBSET_LIMIT`), infeasible
    multisets are discarded, and the feasible one maximizing the merit
    wins.  Raises :class:`DesignError` when nothing fits the envelope.
    """
    constraints = constraints or ConstraintSet()
    pool = tuple(candidates) if candidates is not None else matrix.candidate_names
    for name in pool:
        matrix.index(name)  # validates
    if k < 1:
        raise CommunalError(f"k must be >= 1, got {k}")
    try:
        merit_fn = MERITS[merit]
    except KeyError:
        raise CommunalError(
            f"unknown merit {merit!r}; known: {', '.join(MERITS)}"
        ) from None
    if constraints.unconstrained:
        combination = best_combination(
            matrix, k, merit, candidates=pool, mode=mode, beam_width=beam_width
        )
        return _result_from_chosen(matrix, combination, constraints)

    if mode == "auto":
        # C(n + k - 1, k) multisets of size k over n candidates.
        mode = (
            "exact"
            if comb(len(pool) + k - 1, k) <= EXACT_SUBSET_LIMIT
            else "beam"
        )
    if mode not in ("exact", "beam"):
        raise CommunalError(
            f"unknown combination search mode {mode!r}; known: auto, exact, beam"
        )
    if beam_width < 1:
        raise CommunalError(f"beam width must be >= 1, got {beam_width}")

    def score(chosen: tuple[str, ...]) -> float:
        if not _feasible(matrix, chosen, constraints):
            return -inf
        return float(merit_fn(matrix, chosen))

    if mode == "exact":
        best: tuple[float, tuple[str, ...]] | None = None
        for subset in combinations_with_replacement(pool, k):
            value = score(subset)
            if best is None or value > best[0] + 1e-12:
                best = (value, subset)
        assert best is not None
        best_score, winner = best
    else:
        best_score, winner = _beam_multiset(pool, k, score, beam_width)
    if best_score == -inf:
        raise DesignError(
            f"no feasible {k}-core combination under {constraints.identity}"
        )
    combination = _evaluate_multiset(matrix, winner, merit)
    return _result_from_chosen(matrix, combination, constraints)


def _beam_multiset(
    pool: tuple[str, ...],
    k: int,
    score,
    width: int,
) -> tuple[float, tuple[str, ...]]:
    """Beam search over non-decreasing index multisets (see
    :func:`repro.communal.combination._best_beam` for the subset twin).

    Partial multisets are scored on their current members — feasibility
    is monotone (adding a core only adds area/power), so infeasible
    prefixes score ``-inf`` and sink out of the beam early.
    """
    level: list[tuple[int, ...]] = [()]
    scores: dict[tuple[int, ...], float] = {(): -inf}
    for _depth in range(k):
        scored: list[tuple[float, tuple[int, ...]]] = []
        for partial in level:
            start = partial[-1] if partial else 0
            for i in range(start, len(pool)):
                multiset = partial + (i,)
                names = tuple(pool[j] for j in multiset)
                scored.append((score(names), multiset))
        if len(scored) > width:
            scored.sort(key=lambda item: (-item[0], item[1]))
            scored = scored[:width]
        scores = {multiset: value for value, multiset in scored}
        level = sorted(scores)
    best: tuple[float, tuple[int, ...]] | None = None
    for multiset in level:
        value = scores[multiset]
        if best is None or value > best[0] + 1e-12:
            best = (value, multiset)
    assert best is not None
    return best[0], tuple(pool[i] for i in best[1])


def _evaluate_multiset(
    matrix: DesignMatrix, chosen: tuple[str, ...], merit: str
) -> Combination:
    """A :class:`Combination` record for one (possibly replicated) choice."""
    return evaluate_combination(matrix, chosen, merit)


def best_homogeneous(
    matrix: DesignMatrix,
    k: int,
    constraints: ConstraintSet | None = None,
    merit: str = "cw-har",
    candidates: Sequence[str] | None = None,
) -> HeteroResult:
    """The best *homogeneous* assignment: k copies of one candidate.

    The baseline every heterogeneous result is judged against (the
    paper's Table 7 "homogeneous" row, generalized to the constrained
    multiset setting).  Raises :class:`DesignError` when no candidate
    fits the envelope even alone-replicated.
    """
    constraints = constraints or ConstraintSet()
    pool = tuple(candidates) if candidates is not None else matrix.candidate_names
    try:
        merit_fn = MERITS[merit]
    except KeyError:
        raise CommunalError(
            f"unknown merit {merit!r}; known: {', '.join(MERITS)}"
        ) from None
    best: tuple[float, tuple[str, ...]] | None = None
    for name in pool:
        chosen = (name,) * k
        if not constraints.unconstrained and not _feasible(
            matrix, chosen, constraints
        ):
            continue
        value = float(merit_fn(matrix, chosen))
        if best is None or value > best[0] + 1e-12:
            best = (value, chosen)
    if best is None:
        raise DesignError(
            f"no homogeneous {k}-core combination fits {constraints.identity}"
        )
    combination = _evaluate_multiset(matrix, best[1], merit)
    return _result_from_chosen(matrix, combination, constraints)
