"""A move's partial refit equals the full refit it stands for.

:class:`~repro.explore.moves.MoveGenerator` re-fits only the units whose
inputs a move changed.  The reference here is each move written the
long way, one branch per unit, followed by a full :func:`refit_config`.
Both run from the same state and the same RNG state, and they must agree
on the resulting configuration, on the ``TimingError`` or
``ConfigurationError`` raised, and on the RNG state left behind.

The states are every state the annealer proposes from while it
customizes each of the 11 SPEC2000 profiles, plus the paper's initial
configuration and hand-built legal states, which are not refit fixed
points.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, TimingError
from repro.explore import AnnealingSchedule, XpScalar
from repro.explore.moves import _MOVE_CDF, MoveGenerator, pick, weighted_index
from repro.tech import CactiModel, default_technology, l1_cache_ns
from repro.uarch import (
    best_cache_geometry,
    fitting_cache_geometries,
    min_cache_cycles,
    refit_config,
    validate_config,
)
from repro.uarch.config import CacheGeometry, DesignSpace, initial_configuration
from repro.uarch.fit import IQ, LSQ, ROB
from repro.workloads import spec2000_profiles

WALK_ITERATIONS = 1000
DRAWS_PER_HANDBUILT_STATE = 150


# ----------------------------------------------------------------------
# the reference: each move with a branch per unit, then a full refit
# ----------------------------------------------------------------------


def _reference_propose(config, rng, tech, model, space):
    move = (_clock, _depth, _width, _size, _geometry)[weighted_index(rng, _MOVE_CDF)]
    return move(config, rng, tech, model, space)


def _clock(config, rng, tech, model, space):
    factor = rng.uniform(0.85, 1.18)
    clock = min(max(config.clock_period_ns * factor, tech.min_clock_ns), tech.max_clock_ns)
    if abs(clock - config.clock_period_ns) < 1e-6:
        raise TimingError("clock move hit the clock-range boundary")
    return refit_config(config.replace(clock_period_ns=clock), tech, model, space, rng=rng)


def _depth(config, rng, tech, model, space):
    unit = pick(rng, ("iq", "scheduler", "lsq", "l1", "l2"))
    delta = pick(rng, (-1, 1))
    clock = config.clock_period_ns
    if unit == "iq":
        latency = config.wakeup_latency + delta
        if not 0 <= latency <= space.max_wakeup_latency:
            raise TimingError("out of range")
        size = IQ.largest(model, tech, clock, 1 + latency, config.width, space)
        if size is None:
            raise TimingError("no fit")
        changed = config.replace(wakeup_latency=latency, iq_size=min(size, config.rob_size))
    elif unit == "scheduler":
        depth = config.scheduler_depth + delta
        if not 1 <= depth <= space.max_scheduler_depth:
            raise TimingError("out of range")
        size = ROB.largest(model, tech, clock, depth, config.width, space)
        if size is None:
            raise TimingError("no fit")
        changed = config.replace(
            scheduler_depth=depth, rob_size=size, iq_size=min(config.iq_size, size)
        )
    elif unit == "lsq":
        depth = config.lsq_depth + delta
        if not 1 <= depth <= space.max_lsq_depth:
            raise TimingError("out of range")
        size = LSQ.largest(model, tech, clock, depth, 0, space)
        if size is None:
            raise TimingError("no fit")
        changed = config.replace(lsq_depth=depth, lsq_size=size)
    else:
        level = 1 if unit == "l1" else 2
        cache = config.l1 if level == 1 else config.l2
        cycles = cache.latency_cycles + delta
        cap = space.max_l1_cycles if level == 1 else space.max_l2_cycles
        if not 1 <= cycles <= cap:
            raise TimingError("out of range")
        geometry = best_cache_geometry(model, tech, clock, cycles, space, level, rng=rng)
        if geometry is None:
            raise TimingError("no fit")
        changed = config.replace(l1=geometry) if level == 1 else config.replace(l2=geometry)
    return refit_config(changed, tech, model, space)


def _width(config, rng, tech, model, space):
    width = config.width + pick(rng, (-1, 1))
    if width not in space.widths:
        raise TimingError("out of range")
    return refit_config(config.replace(width=width), tech, model, space)


def _size(config, rng, tech, model, space):
    unit = pick(rng, ("rob", "iq", "lsq"))
    clock = config.clock_period_ns
    if unit == "rob":
        cap = ROB.largest(model, tech, clock, config.scheduler_depth, config.width, space)
        choices = [s for s in space.rob_sizes if cap is not None and s <= cap]
        if not choices:
            raise TimingError("no size")
        size = pick(rng, choices)
        changed = config.replace(rob_size=size, iq_size=min(config.iq_size, size))
    elif unit == "iq":
        cap = IQ.largest(model, tech, clock, 1 + config.wakeup_latency, config.width, space)
        choices = [
            s for s in space.iq_sizes if cap is not None and s <= min(cap, config.rob_size)
        ]
        if not choices:
            raise TimingError("no size")
        changed = config.replace(iq_size=pick(rng, choices))
    else:
        cap = LSQ.largest(model, tech, clock, config.lsq_depth, 0, space)
        choices = [s for s in space.lsq_sizes if cap is not None and s <= cap]
        if not choices:
            raise TimingError("no size")
        changed = config.replace(lsq_size=pick(rng, choices))
    return refit_config(changed, tech, model, space)


def _geometry(config, rng, tech, model, space):
    level = pick(rng, (1, 2))
    cache = config.l1 if level == 1 else config.l2
    fitting = fitting_cache_geometries(
        model, tech, config.clock_period_ns, cache.latency_cycles, space, level
    )
    if not fitting:
        raise TimingError("no geometry")
    nsets, assoc, block = fitting[int(rng.integers(0, len(fitting)))]
    geometry = CacheGeometry(nsets, assoc, block, cache.latency_cycles)
    changed = config.replace(l1=geometry) if level == 1 else config.replace(l2=geometry)
    return refit_config(changed, tech, model, space)


# ----------------------------------------------------------------------
# the comparison
# ----------------------------------------------------------------------


def _outcome(call):
    """``("ok", result)`` or the class of the error ``call`` raised."""
    try:
        return "ok", call()
    except (TimingError, ConfigurationError) as exc:
        return type(exc).__name__, None


def _fork(rng: np.random.Generator) -> np.random.Generator:
    twin = np.random.default_rng()
    twin.bit_generator.state = rng.bit_generator.state
    return twin


class _Checker:
    """Checks each ``MoveGenerator.propose`` call against the reference."""

    def __init__(self) -> None:
        self.draws = 0
        self.partial = 0  # draws whose input the generator may refit in part
        self.outcomes: dict[str, int] = {}

    def check(self, moves: MoveGenerator, propose, config, rng):
        twin = _fork(rng)
        expected = _outcome(
            lambda: _reference_propose(config, twin, moves._tech, moves._model, moves._space)
        )
        self.partial += moves._settled.get(id(config)) is config
        got = _outcome(lambda: propose(moves, config, rng))
        assert got == expected, f"draw {self.draws} from {config}"
        assert rng.bit_generator.state == twin.bit_generator.state
        self.draws += 1
        self.outcomes[got[0]] = self.outcomes.get(got[0], 0) + 1
        if got[0] != "ok":
            raise TimingError(got[0])
        return got[1]


@pytest.fixture
def checker(monkeypatch):
    """Route every ``MoveGenerator.propose`` call through a check."""
    checker = _Checker()
    propose = MoveGenerator.propose

    def checked(moves, config, rng):
        return checker.check(moves, propose, config, rng)

    monkeypatch.setattr(MoveGenerator, "propose", checked)
    return checker


def test_annealing_walks_of_all_profiles_match_full_refit(checker):
    explorer = XpScalar(schedule=AnnealingSchedule(iterations=WALK_ITERATIONS))
    for seed, profile in enumerate(spec2000_profiles()):
        explorer.customize(profile, seed=seed)
    assert checker.draws >= 10_000
    # Nearly every walk step starts from the generator's own output, so
    # the partial refit is what this checks; the rest are full refits.
    assert checker.partial >= 0.8 * checker.draws
    assert checker.outcomes["ok"] >= 0.8 * checker.draws
    assert checker.outcomes.get("TimingError", 0) > 0


def _handbuilt_states(tech, model, space):
    """Legal states that are not refit fixed points."""
    base = initial_configuration(tech)
    states = [base]
    for clock, width, rob, iq, lsq in (
        (0.25, 2, 64, 32, 32),
        (0.40, 4, 256, 64, 128),
        (0.50, 6, 128, 128, 64),
        (0.60, 8, 64, 16, 32),
        (0.33, 1, 32, 16, 32),
    ):
        state = base.replace(
            clock_period_ns=clock,
            width=width,
            rob_size=rob,
            iq_size=iq,
            lsq_size=lsq,
            memory_cycles=base.memory_cycles + 40,
            frontend_stages=base.frontend_stages + 2,
        )
        try:
            validate_config(state, tech, model, space)
        except ConfigurationError:
            continue
        states.append(state)
    return states


def test_initial_and_handbuilt_states_match_full_refit(checker):
    tech = default_technology()
    model = CactiModel.shared(tech)
    space = DesignSpace()
    states = _handbuilt_states(tech, model, space)
    assert len(states) >= 3
    moves = MoveGenerator(tech, model, space)
    for index, state in enumerate(states):
        for seed in range(DRAWS_PER_HANDBUILT_STATE):
            rng = np.random.default_rng([index, seed])
            try:
                moves.propose(state, rng)
            except (TimingError, ConfigurationError):
                pass
    assert checker.draws == len(states) * DRAWS_PER_HANDBUILT_STATE
    assert checker.partial == 0


def _unsettled_state(tech, model, space):
    """A legal state whose refit is not a refit fixed point.

    Its L1 is untenable at its clock, so the refit re-picks one, and the
    pick only fits its cycle count within ``fits``'s 1e-9 ns slack:
    :func:`min_cache_cycles` then asks for one cycle more on the next
    refit.
    """
    base = initial_configuration(tech)
    by_size = sorted(space.l1_geometries(), key=lambda g: -g[0] * g[1] * g[2])
    for cycles in range(1, space.max_l1_cycles + 1):
        for geometry in by_size:
            delay = l1_cache_ns(model, *geometry)
            clock = (delay - 5e-10) / cycles + tech.latch_latency_ns
            if not tech.min_clock_ns <= clock <= tech.max_clock_ns:
                continue
            for big in by_size:
                if big[0] * big[1] * big[2] > base.l2.capacity_bytes:
                    continue
                state = base.replace(clock_period_ns=clock, l1=CacheGeometry(*big, cycles))
                if min_cache_cycles(model, tech, clock, state.l1, space, 1) is not None:
                    break
                try:
                    once = refit_config(state, tech, model, space)
                except TimingError:
                    break
                if refit_config(once, tech, model, space) != once:
                    return state
                break
    raise AssertionError("no state found")


def test_a_refit_that_is_no_fixed_point_is_not_trusted():
    tech = default_technology()
    model = CactiModel.shared(tech)
    space = DesignSpace()
    moves = MoveGenerator(tech, model, space)
    produced = moves.width_move(_unsettled_state(tech, model, space), np.random.default_rng(0))
    assert refit_config(produced, tech, model, space) != produced
    for seed in range(20):
        rng = np.random.default_rng(seed)
        twin = _fork(rng)
        got = _outcome(lambda: moves.width_move(produced, rng))
        assert got == _outcome(lambda: _width(produced, twin, tech, model, space))


def test_initial_configuration_is_not_a_refit_fixed_point():
    """Why a state the generator did not produce gets a full refit."""
    tech = default_technology()
    initial = initial_configuration(tech)
    refitted = refit_config(initial, tech, CactiModel.shared(tech), DesignSpace())
    assert initial.memory_cycles == 172
    assert refitted.memory_cycles < initial.memory_cycles
