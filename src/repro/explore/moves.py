"""Exploration moves over the superscalar design space.

The paper's §3 describes the move structure: "In each iteration, either
the clock period is varied, and the size of the issue queue,
register-file/ROB, load-store queue, L1 and L2 caches, and processor
width adjusted to make their access times fit within the number of
pipeline stages assigned to them, or the number of pipeline stages of a
unit is varied and its configuration appropriately adjusted."

We implement that pair of moves plus the size/geometry perturbations the
random re-fitting implies:

* **clock move** — scale the clock period, then re-fit every unit;
* **depth move** — change one unit's stage count by ±1 and re-size that
  unit to use (at most) the new budget;
* **width move** — change the machine width by ±1 (which changes the
  port counts, hence the fit, of the issue queue and register file);
* **size move** — re-size one buffer (ROB/IQ/LSQ) to a random legal size
  that fits its current budget;
* **geometry move** — re-pick one cache's geometry at random among those
  that fit its current cycle count (the paper's "randomly varied to
  fit").

Every move returns a fully re-fitted, *valid* configuration or raises
:class:`~repro.errors.TimingError` when the design space offers no
repair (the annealing engine skips such proposals).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Sequence, TypeVar

import numpy as np

from ..errors import TimingError
from ..tech import CactiModel, TechnologyNode
from ..uarch.config import CacheGeometry, CoreConfig, DesignSpace
from ..uarch.fit import (
    best_cache_geometry,
    fitting_cache_geometries,
    max_iq_size,
    max_lsq_size,
    max_rob_size,
    refit_config,
)

_CLOCK_STEP_DOWN = 0.85
_CLOCK_STEP_UP = 1.18

#: Move weights in ``propose`` order (clock, depth, width, size,
#: geometry): clock and depth moves are the paper's primary pair.
_MOVE_WEIGHTS = (0.30, 0.25, 0.15, 0.15, 0.15)
#: Their cumulative distribution, normalized exactly as numpy's
#: ``Generator.choice(n, p=...)`` normalizes it.
_MOVE_CDF = tuple((np.cumsum(_MOVE_WEIGHTS) / np.cumsum(_MOVE_WEIGHTS)[-1]).tolist())

_T = TypeVar("_T")


def weighted_index(rng: np.random.Generator, cdf: Sequence[float]) -> int:
    """Draw an index from a normalized cdf.

    Consumes the RNG exactly like ``rng.choice(len(cdf), p=weights)``
    (one ``random()`` draw located with a right-sided search), so it
    returns the same index from the same stream.
    """
    return bisect_right(cdf, rng.random())


def pick(rng: np.random.Generator, options: Sequence[_T]) -> _T:
    """Draw one option uniformly, like ``rng.choice(options)``.

    Consumes the RNG exactly as ``Generator.choice`` does for a
    sequence (one ``integers(0, len)`` draw) but returns the option
    itself rather than a numpy scalar.
    """
    return options[rng.integers(0, len(options))]


class MoveGenerator:
    """Random neighbour generator for :class:`CoreConfig` states."""

    def __init__(
        self,
        tech: TechnologyNode,
        model: CactiModel,
        space: DesignSpace,
    ) -> None:
        self._tech = tech
        self._model = model
        self._space = space

    def propose(self, config: CoreConfig, rng: np.random.Generator) -> CoreConfig:
        """One random move; always returns a re-fitted configuration."""
        moves: tuple[Callable[[CoreConfig, np.random.Generator], CoreConfig], ...] = (
            self.clock_move,
            self.depth_move,
            self.width_move,
            self.size_move,
            self.geometry_move,
        )
        move = moves[weighted_index(rng, _MOVE_CDF)]
        return move(config, rng)

    # ------------------------------------------------------------------
    # individual moves
    # ------------------------------------------------------------------

    def clock_move(self, config: CoreConfig, rng: np.random.Generator) -> CoreConfig:
        """Scale the clock period and re-fit every unit."""
        factor = rng.uniform(_CLOCK_STEP_DOWN, _CLOCK_STEP_UP)
        clock = min(
            max(config.clock_period_ns * factor, self._tech.min_clock_ns),
            self._tech.max_clock_ns,
        )
        if abs(clock - config.clock_period_ns) < 1e-6:
            raise TimingError("clock move hit the clock-range boundary")
        return refit_config(
            config.replace(clock_period_ns=clock),
            self._tech,
            self._model,
            self._space,
            rng=rng,
        )

    def depth_move(self, config: CoreConfig, rng: np.random.Generator) -> CoreConfig:
        """Re-pipeline one unit by one stage and re-size it."""
        unit = pick(rng, ("iq", "scheduler", "lsq", "l1", "l2"))
        delta = pick(rng, (-1, 1))
        space = self._space
        clock = config.clock_period_ns

        if unit == "iq":
            latency = config.wakeup_latency + delta
            if not 0 <= latency <= space.max_wakeup_latency:
                raise TimingError("wake-up latency move out of range")
            size = max_iq_size(
                self._model, self._tech, clock, 1 + latency, config.width, space
            )
            if size is None:
                raise TimingError("no issue queue fits the new wake-up depth")
            changed = config.replace(
                wakeup_latency=latency, iq_size=min(size, config.rob_size)
            )
        elif unit == "scheduler":
            depth = config.scheduler_depth + delta
            if not 1 <= depth <= space.max_scheduler_depth:
                raise TimingError("scheduler depth move out of range")
            size = max_rob_size(self._model, self._tech, clock, depth, config.width, space)
            if size is None:
                raise TimingError("no ROB fits the new scheduler depth")
            changed = config.replace(
                scheduler_depth=depth,
                rob_size=size,
                iq_size=min(config.iq_size, size),
            )
        elif unit == "lsq":
            depth = config.lsq_depth + delta
            if not 1 <= depth <= space.max_lsq_depth:
                raise TimingError("LSQ depth move out of range")
            size = max_lsq_size(self._model, self._tech, clock, depth, space)
            if size is None:
                raise TimingError("no LSQ fits the new depth")
            changed = config.replace(lsq_depth=depth, lsq_size=size)
        else:
            level = 1 if unit == "l1" else 2
            cache = config.l1 if level == 1 else config.l2
            cycles = cache.latency_cycles + delta
            cap = space.max_l1_cycles if level == 1 else space.max_l2_cycles
            if not 1 <= cycles <= cap:
                raise TimingError("cache latency move out of range")
            geometry = best_cache_geometry(
                self._model, self._tech, clock, cycles, space, level, rng=rng
            )
            if geometry is None:
                raise TimingError(f"no L{level} geometry fits {cycles} cycles")
            changed = (
                config.replace(l1=geometry) if level == 1 else config.replace(l2=geometry)
            )

        return refit_config(changed, self._tech, self._model, self._space, rng=None)

    def width_move(self, config: CoreConfig, rng: np.random.Generator) -> CoreConfig:
        """Widen or narrow the machine and re-fit the ported structures."""
        delta = pick(rng, (-1, 1))
        width = config.width + delta
        if width not in self._space.widths:
            raise TimingError("width move out of range")
        return refit_config(
            config.replace(width=width), self._tech, self._model, self._space, rng=None
        )

    def size_move(self, config: CoreConfig, rng: np.random.Generator) -> CoreConfig:
        """Re-size one buffer to a random legal size within its budget."""
        unit = pick(rng, ("rob", "iq", "lsq"))
        space = self._space
        clock = config.clock_period_ns

        if unit == "rob":
            cap = max_rob_size(
                self._model, self._tech, clock, config.scheduler_depth, config.width, space
            )
            choices = [s for s in space.rob_sizes if cap is not None and s <= cap]
            if not choices:
                raise TimingError("no legal ROB size")
            size = pick(rng, choices)
            changed = config.replace(rob_size=size, iq_size=min(config.iq_size, size))
        elif unit == "iq":
            cap = max_iq_size(
                self._model,
                self._tech,
                clock,
                1 + config.wakeup_latency,
                config.width,
                space,
            )
            choices = [
                s
                for s in space.iq_sizes
                if cap is not None and s <= min(cap, config.rob_size)
            ]
            if not choices:
                raise TimingError("no legal issue queue size")
            changed = config.replace(iq_size=pick(rng, choices))
        else:
            cap = max_lsq_size(self._model, self._tech, clock, config.lsq_depth, space)
            choices = [s for s in space.lsq_sizes if cap is not None and s <= cap]
            if not choices:
                raise TimingError("no legal LSQ size")
            changed = config.replace(lsq_size=pick(rng, choices))

        return refit_config(changed, self._tech, self._model, self._space, rng=None)

    def geometry_move(self, config: CoreConfig, rng: np.random.Generator) -> CoreConfig:
        """Randomly re-pick one cache's geometry within its cycle budget."""
        level = pick(rng, (1, 2))
        cache = config.l1 if level == 1 else config.l2
        fitting = fitting_cache_geometries(
            self._model,
            self._tech,
            config.clock_period_ns,
            cache.latency_cycles,
            self._space,
            level,
        )
        if not fitting:
            raise TimingError(f"no L{level} geometry fits the current cycles")
        nsets, assoc, block = fitting[int(rng.integers(0, len(fitting)))]
        geometry = CacheGeometry(
            nsets=nsets, assoc=assoc, block_bytes=block, latency_cycles=cache.latency_cycles
        )
        changed = config.replace(l1=geometry) if level == 1 else config.replace(l2=geometry)
        return refit_config(changed, self._tech, self._model, self._space, rng=None)
