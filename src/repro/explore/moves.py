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
repair (the annealing engine skips such proposals).  A move re-fits only
the units (:data:`repro.uarch.fit.UNITS`) whose inputs it changed.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence, TypeVar

import numpy as np

from ..errors import TimingError
from ..tech import CactiModel, TechnologyNode
from ..uarch.config import CoreConfig, DesignSpace
from ..uarch.fit import (
    IQ,
    L1,
    L2,
    LSQ,
    PORTED,
    ROB,
    UNITS,
    cache_geometry,
    fitting_cache_geometries,
    refit_units,
)

_CLOCK_STEP_DOWN = 0.85
_CLOCK_STEP_UP = 1.18

_MOVES = ("clock_move", "depth_move", "width_move", "size_move", "geometry_move")
#: Move weights in ``_MOVES`` order: clock and depth moves are the
#: paper's primary pair.
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
        #: The last few outputs used or made that are refit fixed points,
        #: by identity, least recently used first.
        self._settled: dict[int, CoreConfig] = {}

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_settled": {}}  # identities do not travel

    def propose(self, config: CoreConfig, rng: np.random.Generator) -> CoreConfig:
        """One random move; always returns a re-fitted configuration."""
        return getattr(self, _MOVES[weighted_index(rng, _MOVE_CDF)])(config, rng)

    def _refit(
        self,
        config: CoreConfig,
        changes: dict,
        units: tuple,
        rng: np.random.Generator | None = None,
    ) -> CoreConfig:
        """``config`` with a move's ``changes``, re-fitting ``units``: a
        full refit, as the other units of a fixed point refit to
        themselves.  Any other ``config`` (the initial state, a donor, a
        decoded checkpoint) gets every unit re-fitted."""
        settled = self._settled
        if settled.pop(id(config), None) is config:
            settled[id(config)] = config
        else:
            units = UNITS
        fields = {**config.__dict__, **changes}
        if ("l1" in changes or "l2" in changes) and (
            fields["l2"].capacity_bytes < fields["l1"].capacity_bytes
        ):
            type(config)(**fields)  # the new geometry broke L2 >= L1: raise it
        fixed_point = refit_units(fields, units, self._tech, self._model, self._space, rng)
        result = type(config).fitted(fields)
        if fixed_point:
            settled[id(result)] = result
            if len(settled) > 8:  # a walk moves from one of its last few states
                del settled[next(iter(settled))]
        return result

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
        return self._refit(config, {"clock_period_ns": clock}, UNITS, rng)

    def depth_move(self, config: CoreConfig, rng: np.random.Generator) -> CoreConfig:
        """Re-pipeline one unit by one stage and re-size it."""
        unit = pick(rng, UNITS)
        delta = pick(rng, (-1, 1))
        changes = unit.deepen(config, delta, self._tech, self._model, self._space, rng)
        return self._refit(config, changes, (unit,))

    def width_move(self, config: CoreConfig, rng: np.random.Generator) -> CoreConfig:
        """Widen or narrow the machine and re-fit the ported structures."""
        delta = pick(rng, (-1, 1))
        width = config.width + delta
        if width not in self._space.widths:
            raise TimingError("width move out of range")
        return self._refit(config, {"width": width}, PORTED)

    def size_move(self, config: CoreConfig, rng: np.random.Generator) -> CoreConfig:
        """Re-size one buffer to a random legal size within its budget."""
        unit = pick(rng, (ROB, IQ, LSQ))
        choices = unit.fitting_sizes(config, self._tech, self._model, self._space)
        if not choices:
            raise TimingError(f"no legal {unit.label} size")
        # The new size fits the unit's depth: only the IQ <= ROB bound moves.
        return self._refit(config, {unit.size_field: pick(rng, choices)}, ())

    def geometry_move(self, config: CoreConfig, rng: np.random.Generator) -> CoreConfig:
        """Randomly re-pick one cache's geometry within its cycle budget."""
        unit = pick(rng, (L1, L2))
        cycles = getattr(config, unit.name).latency_cycles
        fitting = fitting_cache_geometries(
            self._model, self._tech, config.clock_period_ns, cycles, self._space, unit.level
        )
        if not fitting:
            raise TimingError(f"no L{unit.level} geometry fits the current cycles")
        geometry = cache_geometry(*fitting[int(rng.integers(0, len(fitting)))], cycles)
        return self._refit(config, {unit.name: geometry}, (unit,))
