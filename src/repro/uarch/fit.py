"""Sizing-to-fit: the coupling between clock period and unit sizes.

This module implements the paper's central mechanical rule (§3): when the
clock period or a unit's pipeline depth changes, "the size of the issue
queue, register-file/ROB, load-store queue, L1 and L2 caches, and
processor width [are] adjusted to make their access times fit within the
number of pipeline stages assigned to them".

The solver answers two questions for every sized unit:

* given a stage budget, what is the largest legal size that fits?
* given a size, how many stages does it need?

and provides :func:`refit_config`, which repairs an entire configuration
after a clock/depth move (growing a unit's depth when even the smallest
size no longer fits); :func:`refit_units` re-fits any subset of the
unit table ``UNITS``, as a move needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigurationError, TimingError
from ..tech import CactiModel, TechnologyNode
from ..tech.unitdelay import issue_queue_ns, l1_cache_ns, l2_cache_ns, lsq_ns, regfile_ns
from .config import (
    CacheGeometry,
    CoreConfig,
    DesignSpace,
    derived_frontend_stages,
    derived_memory_cycles,
)


def fits(delay_ns: float, budget_ns: float) -> bool:
    """True when a unit delay fits a stage budget (with float slack)."""
    return delay_ns <= budget_ns + 1e-9


def max_fitting(
    sizes: Sequence[int],
    delay_of: Callable[[int], float],
    budget_ns: float,
) -> int | None:
    """Largest size whose delay fits the budget, or None if none fits.

    Delays are monotone in size, so this scans from the top.
    """
    for size in sorted(sizes, reverse=True):
        if fits(delay_of(size), budget_ns):
            return size
    return None


def min_stages(
    delay_ns: float, tech: TechnologyNode, clock_period_ns: float, max_stages: int
) -> int | None:
    """Fewest stages whose budget covers the delay, or None beyond the cap."""
    usable = tech.usable_stage_time(clock_period_ns)
    if usable <= 0:
        return None
    needed = max(1, math.ceil(delay_ns / usable - 1e-9))
    return needed if needed <= max_stages else None


# ----------------------------------------------------------------------
# the unit table
# ----------------------------------------------------------------------
#
# One entry per sized unit: its size and depth fields, delay, depth cap
# and coupling (IQ <= ROB; L2 >= L1 is checked by ``CoreConfig.fitted``).
# ``CactiModel.fit_tables`` (one per node for shared models) keeps each
# candidate's delay, computed once: scalar units keyed by (unit, sizes,
# width), caches by (space, level).  The scalar answers equal the
# brute-force scan, ``max_fitting``.


@dataclass(frozen=True)
class ScalarUnit:
    """A buffer sized in entries, pipelined over ``depth + offset``
    stages (the wake-up latency does not count the select stage)."""

    name: str
    label: str
    size_field: str
    depth_field: str
    sizes: str  # DesignSpace attribute: the legal sizes
    cap: str  # DesignSpace attribute: the deepest legal depth
    delay: Callable[[CactiModel, int, int], float]  # (model, size, width)
    offset: int = 0
    ported: bool = True  # the delay depends on the machine width
    bound: str | None = None  # the size field this unit may not exceed

    def delay_of(self, model, config: CoreConfig) -> float:
        return self.delay(model, getattr(config, self.size_field), config.width)

    def stages_of(self, config: CoreConfig) -> int:
        return getattr(config, self.depth_field) + self.offset

    def table(self, model, space, width: int) -> tuple[tuple[int, float], ...]:
        """``(size, delay)`` of every legal size, largest first."""
        sizes = getattr(space, self.sizes)
        key = (self.name, sizes, width if self.ported else 0)
        table = model.fit_tables.get(key)
        if table is None:
            table = model.fit_tables[key] = tuple(
                (size, self.delay(model, size, key[2])) for size in sorted(sizes, reverse=True)
            )
        return table

    def largest(self, model, tech, clock: float, stages: int, width: int, space) -> int | None:
        """Largest legal size whose delay fits ``stages`` at this clock."""
        return _largest_fitting(self.table(model, space, width), tech.budget(clock, stages))

    def refit(self, fields: dict, tech, model, space, rng=None) -> bool:
        """Shrink the unit to fit its depth, deepening only when forced."""
        clock = fields["clock_period_ns"]
        last = getattr(space, self.cap) + self.offset
        table = self.table(model, space, fields["width"])
        for stages in range(fields[self.depth_field] + self.offset, last + 1):
            size = _largest_fitting(table, tech.budget(clock, stages))
            if size is not None:
                fields[self.size_field] = min(fields[self.size_field], size)
                fields[self.depth_field] = stages - self.offset
                return True
        raise TimingError(
            f"no legal sizing for the {self.label} at clock {clock:.3f} ns "
            f"within {last} stages"
        )

    def deepen(self, config: CoreConfig, delta: int, tech, model, space, rng) -> dict:
        """Re-pipeline by ``delta`` stages at the largest size that fits."""
        depth = getattr(config, self.depth_field) + delta
        if not 1 - self.offset <= depth <= getattr(space, self.cap):
            raise TimingError(f"{self.label} depth move out of range")
        stages = depth + self.offset
        size = self.largest(model, tech, config.clock_period_ns, stages, config.width, space)
        if size is None:
            raise TimingError(f"no {self.label} fits {stages} stages")
        return {self.depth_field: depth, self.size_field: size}

    def fitting_sizes(self, config: CoreConfig, tech, model, space) -> list[int]:
        """Legal sizes that fit the current depth (and the ``bound``)."""
        stages = self.stages_of(config)
        cap = self.largest(model, tech, config.clock_period_ns, stages, config.width, space)
        if cap is not None and self.bound is not None:
            cap = min(cap, getattr(config, self.bound))
        return [] if cap is None else [s for s in getattr(space, self.sizes) if s <= cap]


@dataclass(frozen=True)
class CacheUnit:
    """One cache level: its geometry field holds both size and latency."""

    level: int
    name: str  # the CoreConfig field holding its geometry
    candidates: str  # DesignSpace method listing the legal geometries
    cap: str  # DesignSpace attribute: the most access cycles
    delay: Callable[[CactiModel, int, int, int], float]
    ported = False
    bound = None

    def delay_of(self, model, config: CoreConfig) -> float:
        cache = getattr(config, self.name)
        return self.delay(model, cache.nsets, cache.assoc, cache.block_bytes)

    def stages_of(self, config: CoreConfig) -> int:
        return getattr(config, self.name).latency_cycles

    def cycles_needed(self, cache: CacheGeometry, tech, model, space, clock: float) -> int | None:
        """Fewest access cycles of ``cache`` at this clock, None past the cap."""
        delay = self.delay(model, cache.nsets, cache.assoc, cache.block_bytes)
        return min_stages(delay, tech, clock, getattr(space, self.cap))

    def refit(self, fields: dict, tech, model, space, rng=None) -> bool:
        """Keep the geometry if its latency can be met, else re-pick; False
        when the pick is no refit fixed point (``fits`` admits picks whose
        latency ``cycles_needed`` would still grow)."""
        cache = fields[self.name]
        clock = fields["clock_period_ns"]
        needed = self.cycles_needed(cache, tech, model, space, clock)
        if needed is not None:
            if needed > cache.latency_cycles:
                fields[self.name] = cache_geometry(
                    cache.nsets, cache.assoc, cache.block_bytes, needed
                )
            return True
        # Untenable at this clock: pick a new geometry at the old cycle
        # count, growing the cycle count only if nothing fits.
        cap = getattr(space, self.cap)
        for cycles in range(cache.latency_cycles, cap + 1):
            pick = best_cache_geometry(model, tech, clock, cycles, space, self.level, rng=rng)
            if pick is not None:
                fields[self.name] = pick
                needed = self.cycles_needed(pick, tech, model, space, clock)
                return needed is not None and needed <= cycles
        raise TimingError(
            f"no legal L{self.level} geometry at clock {clock:.3f} ns within "
            f"{cap} cycles"
        )

    def deepen(self, config: CoreConfig, delta: int, tech, model, space, rng) -> dict:
        """Re-pipeline by ``delta`` cycles with a random fitting geometry."""
        cycles = getattr(config, self.name).latency_cycles + delta
        if not 1 <= cycles <= getattr(space, self.cap):
            raise TimingError("cache latency move out of range")
        geometry = best_cache_geometry(
            model, tech, config.clock_period_ns, cycles, space, self.level, rng=rng
        )
        if geometry is None:
            raise TimingError(f"no L{self.level} geometry fits {cycles} cycles")
        return {self.name: geometry}


IQ = ScalarUnit(
    "issue_queue", "issue queue", "iq_size", "wakeup_latency", "iq_sizes", "max_wakeup_latency",
    issue_queue_ns, offset=1, bound="rob_size",
)
ROB = ScalarUnit(
    "regfile", "register file/ROB", "rob_size", "scheduler_depth", "rob_sizes",
    "max_scheduler_depth", regfile_ns,
)
LSQ = ScalarUnit(
    "lsq", "load-store queue", "lsq_size", "lsq_depth", "lsq_sizes", "max_lsq_depth",
    lambda model, size, width: lsq_ns(model, size), ported=False,
)
L1 = CacheUnit(1, "l1", "l1_geometries", "max_l1_cycles", l1_cache_ns)
L2 = CacheUnit(2, "l2", "l2_geometries", "max_l2_cycles", l2_cache_ns)

#: Every sized unit, in refit order.
UNITS = (IQ, ROB, LSQ, L1, L2)
PORTED = tuple(unit for unit in UNITS if unit.ported)
_BOUNDED = tuple(unit for unit in UNITS if unit.bound)


def _cache_unit(level: int) -> CacheUnit:
    if level in (1, 2):
        return (L1, L2)[level - 1]
    raise ValueError(f"cache level must be 1 or 2, got {level}")


def _largest_fitting(
    table: tuple[tuple[int, float], ...], budget_ns: float
) -> int | None:
    """``max_fitting`` over a precomputed table."""
    limit = budget_ns + 1e-9
    for size, delay in table:
        if delay <= limit:
            return size
    return None


def fitting_cache_geometries(
    model: CactiModel,
    tech: TechnologyNode,
    clock_period_ns: float,
    cycles: int,
    space: DesignSpace,
    level: int,
) -> list[tuple[int, int, int]]:
    """All (nsets, assoc, block) triples of a level that fit ``cycles``."""
    key = (space, level)
    table = model.fit_tables.get(key)
    if table is None:
        unit = _cache_unit(level)
        candidates = getattr(space, unit.candidates)()
        table = model.fit_tables[key] = tuple((g, unit.delay(model, *g)) for g in candidates)
    limit = tech.budget(clock_period_ns, cycles) + 1e-9
    return [geometry for geometry, delay in table if delay <= limit]


def best_cache_geometry(
    model: CactiModel,
    tech: TechnologyNode,
    clock_period_ns: float,
    cycles: int,
    space: DesignSpace,
    level: int,
    rng: np.random.Generator | None = None,
) -> CacheGeometry | None:
    """A geometry that fits ``cycles`` at this clock, or None.

    With an RNG the pick is random among the fitting geometries (the
    paper's "randomly varied to fit"); otherwise the largest capacity
    (ties broken toward higher associativity) is returned.
    """
    fitting = fitting_cache_geometries(model, tech, clock_period_ns, cycles, space, level)
    if not fitting:
        return None
    if rng is not None:
        nsets, assoc, block = fitting[int(rng.integers(0, len(fitting)))]
    else:
        nsets, assoc, block = max(fitting, key=lambda g: (g[0] * g[1] * g[2], g[1]))
    return cache_geometry(nsets, assoc, block, cycles)


#: Every geometry a fit or move has built, one object per value.
_GEOMETRIES: dict[tuple[int, int, int, int], CacheGeometry] = {}


def cache_geometry(nsets: int, assoc: int, block: int, cycles: int) -> CacheGeometry:
    """The :class:`CacheGeometry` of these values, built once per process
    (the design space's tables bound how many there are)."""
    key = (nsets, assoc, block, cycles)
    geometry = _GEOMETRIES.get(key)
    if geometry is None:
        geometry = _GEOMETRIES[key] = CacheGeometry(nsets, assoc, block, cycles)
    return geometry


def min_cache_cycles(
    model: CactiModel,
    tech: TechnologyNode,
    clock_period_ns: float,
    geometry: CacheGeometry,
    space: DesignSpace,
    level: int,
) -> int | None:
    """Fewest access cycles for a given geometry at this clock."""
    return _cache_unit(level).cycles_needed(geometry, tech, model, space, clock_period_ns)


# ----------------------------------------------------------------------
# legality
# ----------------------------------------------------------------------

#: The units in the order :func:`validate_config` checks them.
_CHECKED = (L1, L2, IQ, ROB, LSQ)


def validate_config(
    config: CoreConfig,
    tech: TechnologyNode,
    model: CactiModel | None = None,
    space: DesignSpace | None = None,
) -> None:
    """Raise :class:`ConfigurationError` unless the configuration is legal.

    Checks the paper's fitting rule for every sized unit, the front-end
    and memory cycle derivations, the clock range, and (optionally) the
    design-space parameter ranges.
    """
    model = model or CactiModel.shared(tech)
    clock = config.clock_period_ns
    if not tech.min_clock_ns <= clock <= tech.max_clock_ns:
        raise ConfigurationError(
            f"clock {clock} ns outside [{tech.min_clock_ns}, {tech.max_clock_ns}]"
        )
    for unit in _CHECKED:
        delay = unit.delay_of(model, config)
        budget = tech.budget(clock, unit.stages_of(config))
        if delay > budget + 1e-9:
            raise ConfigurationError(
                f"unit {unit.name} needs {delay:.3f} ns but its budget is "
                f"{budget:.3f} ns (clock {clock:.2f} ns)"
            )
    frontend = derived_frontend_stages(tech, clock)
    if config.frontend_stages < frontend:
        raise ConfigurationError(
            f"front end needs >= {frontend} stages at clock {clock:.2f} ns, "
            f"got {config.frontend_stages}"
        )
    memory = derived_memory_cycles(tech, clock, config.l2.latency_cycles)
    if config.memory_cycles < memory:
        raise ConfigurationError(
            f"memory needs >= {memory} cycles at clock {clock:.2f} ns, "
            f"got {config.memory_cycles}"
        )
    if space is None:
        return
    if config.width not in space.widths:
        raise ConfigurationError(f"width={config.width} not in design space {space.widths}")
    for unit in (ROB, IQ, LSQ):
        size, legal = getattr(config, unit.size_field), getattr(space, unit.sizes)
        if size not in legal:
            raise ConfigurationError(f"{unit.size_field}={size} not in design space {legal}")
    for unit in (L1, L2):
        cache = getattr(config, unit.name)
        if (cache.nsets, cache.assoc, cache.block_bytes) not in set(
            getattr(space, unit.candidates)()
        ):
            raise ConfigurationError(
                f"L{unit.level} geometry {cache.describe()} not in design space"
            )
    for unit in (IQ, ROB, LSQ):
        depth, cap = getattr(config, unit.depth_field), getattr(space, unit.cap)
        if depth > cap:
            label = unit.depth_field.replace("_", " ")
            raise ConfigurationError(f"{label} {depth} exceeds {cap}")


def refit_units(fields: dict, units, tech, model, space, rng=None) -> bool:
    """Re-fit ``units`` of a field dict in place, clamp the IQ to the ROB
    and re-derive the front end and memory cycles.  Returns whether the
    result is a refit fixed point (see :meth:`CacheUnit.refit`)."""
    settled = True
    for unit in units:
        settled = unit.refit(fields, tech, model, space, rng) and settled
    for unit in _BOUNDED:
        fields[unit.size_field] = min(fields[unit.size_field], fields[unit.bound])
    clock = fields["clock_period_ns"]
    fields["frontend_stages"] = derived_frontend_stages(tech, clock)
    fields["memory_cycles"] = derived_memory_cycles(tech, clock, fields["l2"].latency_cycles)
    return settled


def refit_config(
    config: CoreConfig,
    tech: TechnologyNode,
    model: CactiModel,
    space: DesignSpace,
    rng: np.random.Generator | None = None,
) -> CoreConfig:
    """Repair a configuration so every unit fits its stage budget.

    Keeps each unit's pipeline depth if possible, shrinking the unit to
    the largest size that fits; when even the smallest size does not fit
    the current depth, the depth grows to the minimum that accommodates
    the smallest size.  Front-end stages and memory cycles are reset to
    their derived minimums for the (possibly new) clock.  Raises
    :class:`TimingError` when no repair exists inside the design space.
    """
    fields = dict(config.__dict__)
    refit_units(fields, UNITS, tech, model, space, rng)
    return type(config).fitted(fields)
