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
size no longer fits).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..errors import TimingError
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
# delay tables
# ----------------------------------------------------------------------
#
# A unit's delay depends only on the CACTI model and the unit's size (and
# width, for ported structures); only the budget moves with the clock.
# Each model therefore keeps, in ``CactiModel.fit_tables``, the delays of
# every candidate, computed once on first use: scalar units keyed by
# (unit, sizes, width), cache levels by (space, level).  The answers
# equal the brute-force scans (``max_fitting`` and a filter over the
# candidates): same candidate order, same ``fits`` test.

_SCALAR_DELAYS: dict[str, Callable[[CactiModel, int, int], float]] = {
    "iq": issue_queue_ns,
    "rob": regfile_ns,
    "lsq": lambda model, size, width: lsq_ns(model, size),
}


def _scalar_table(
    model: CactiModel, unit: str, sizes: Sequence[int], width: int
) -> tuple[tuple[int, float], ...]:
    """``(size, delay)`` of every candidate size, largest size first."""
    key = (unit, sizes, width)
    table = model.fit_tables.get(key)
    if table is None:
        delay_of = _SCALAR_DELAYS[unit]
        table = model.fit_tables[key] = tuple(
            (size, delay_of(model, size, width)) for size in sorted(sizes, reverse=True)
        )
    return table


def _largest_fitting(
    table: tuple[tuple[int, float], ...], budget_ns: float
) -> int | None:
    """``max_fitting`` over a precomputed table."""
    limit = budget_ns + 1e-9
    for size, delay in table:
        if delay <= limit:
            return size
    return None


def max_iq_size(
    model: CactiModel,
    tech: TechnologyNode,
    clock_period_ns: float,
    stages: int,
    width: int,
    space: DesignSpace,
) -> int | None:
    """Largest issue queue whose wake-up+select loop fits ``stages``."""
    table = _scalar_table(model, "iq", space.iq_sizes, width)
    return _largest_fitting(table, tech.budget(clock_period_ns, stages))


def max_rob_size(
    model: CactiModel,
    tech: TechnologyNode,
    clock_period_ns: float,
    stages: int,
    width: int,
    space: DesignSpace,
) -> int | None:
    """Largest ROB/register file fitting the scheduler/regfile depth."""
    table = _scalar_table(model, "rob", space.rob_sizes, width)
    return _largest_fitting(table, tech.budget(clock_period_ns, stages))


def max_lsq_size(
    model: CactiModel,
    tech: TechnologyNode,
    clock_period_ns: float,
    stages: int,
    space: DesignSpace,
) -> int | None:
    """Largest LSQ whose associative search fits the LSQ depth."""
    table = _scalar_table(model, "lsq", space.lsq_sizes, 0)
    return _largest_fitting(table, tech.budget(clock_period_ns, stages))


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
        if level == 1:
            candidates, delay_of = space.l1_geometries(), l1_cache_ns
        elif level == 2:
            candidates, delay_of = space.l2_geometries(), l2_cache_ns
        else:
            raise ValueError(f"cache level must be 1 or 2, got {level}")
        table = model.fit_tables[key] = tuple((g, delay_of(model, *g)) for g in candidates)
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
    return CacheGeometry(nsets=nsets, assoc=assoc, block_bytes=block, latency_cycles=cycles)


def min_cache_cycles(
    model: CactiModel,
    tech: TechnologyNode,
    clock_period_ns: float,
    geometry: CacheGeometry,
    space: DesignSpace,
    level: int,
) -> int | None:
    """Fewest access cycles for a given geometry at this clock."""
    if level == 1:
        delay = l1_cache_ns(model, geometry.nsets, geometry.assoc, geometry.block_bytes)
    elif level == 2:
        delay = l2_cache_ns(model, geometry.nsets, geometry.assoc, geometry.block_bytes)
    else:
        raise ValueError(f"cache level must be 1 or 2, got {level}")
    cap = space.max_l1_cycles if level == 1 else space.max_l2_cycles
    return min_stages(delay, tech, clock_period_ns, cap)


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
    clock = config.clock_period_ns

    # Issue queue: keep wakeup_latency (i.e. loop depth 1+latency) if any
    # size fits, else deepen the loop.  Repair only shrinks sizes — growth
    # happens through explicit exploration moves.
    iq_max, wakeup_stage = _refit_scalar_unit(
        current_stage=1 + config.wakeup_latency,
        max_stage=1 + space.max_wakeup_latency,
        sizer=lambda st: max_iq_size(model, tech, clock, st, config.width, space),
        unit="issue queue",
        clock=clock,
    )
    iq = min(config.iq_size, iq_max)
    wakeup_latency = wakeup_stage - 1

    rob_max, scheduler_depth = _refit_scalar_unit(
        current_stage=config.scheduler_depth,
        max_stage=space.max_scheduler_depth,
        sizer=lambda st: max_rob_size(model, tech, clock, st, config.width, space),
        unit="register file/ROB",
        clock=clock,
    )
    rob = min(config.rob_size, rob_max)

    lsq_max, lsq_depth = _refit_scalar_unit(
        current_stage=config.lsq_depth,
        max_stage=space.max_lsq_depth,
        sizer=lambda st: max_lsq_size(model, tech, clock, st, space),
        unit="load-store queue",
        clock=clock,
    )
    lsq = min(config.lsq_size, lsq_max)

    l1 = _refit_cache(config.l1, tech, model, space, clock, level=1, rng=rng)
    l2 = _refit_cache(config.l2, tech, model, space, clock, level=2, rng=rng)

    iq = min(iq, rob)  # invariant: issue queue never exceeds the ROB
    frontend = derived_frontend_stages(tech, clock)
    memory = derived_memory_cycles(tech, clock, l2.latency_cycles)

    return config.replace(
        iq_size=iq,
        wakeup_latency=wakeup_latency,
        rob_size=rob,
        scheduler_depth=scheduler_depth,
        lsq_size=lsq,
        lsq_depth=lsq_depth,
        l1=l1,
        l2=l2,
        frontend_stages=frontend,
        memory_cycles=memory,
    )


def _refit_scalar_unit(
    current_stage: int,
    max_stage: int,
    sizer: Callable[[int], int | None],
    unit: str,
    clock: float,
) -> tuple[int, int]:
    """Shrink a unit to fit its depth, deepening only when forced.

    Returns (size, stages).  The returned size is the *largest* fitting
    size; callers that want to keep a smaller current size clamp it.
    """
    for stages in range(current_stage, max_stage + 1):
        size = sizer(stages)
        if size is not None:
            return size, stages
    raise TimingError(
        f"no legal sizing for the {unit} at clock {clock:.3f} ns "
        f"within {max_stage} stages"
    )


def _refit_cache(
    cache: CacheGeometry,
    tech: TechnologyNode,
    model: CactiModel,
    space: DesignSpace,
    clock: float,
    level: int,
    rng: np.random.Generator | None,
) -> CacheGeometry:
    """Keep the cache geometry if its latency can be met, else re-pick."""
    needed = min_cache_cycles(model, tech, clock, cache, space, level)
    if needed is not None and needed <= cache.latency_cycles:
        return cache
    if needed is not None:
        return CacheGeometry(cache.nsets, cache.assoc, cache.block_bytes, needed)
    # Geometry is untenable at this clock: pick a new one at its old cycle
    # count, growing the cycle count only if nothing fits.
    cap = space.max_l1_cycles if level == 1 else space.max_l2_cycles
    for cycles in range(cache.latency_cycles, cap + 1):
        pick = best_cache_geometry(model, tech, clock, cycles, space, level, rng=rng)
        if pick is not None:
            return pick
    raise TimingError(
        f"no legal L{level} geometry at clock {clock:.3f} ns within "
        f"{cap} cycles"
    )
