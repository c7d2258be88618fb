"""Size-to-fit solver: the clock/size/depth coupling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TimingError
from repro.tech import CactiModel, default_technology, issue_queue_ns, regfile_ns
from repro.uarch import (
    CacheGeometry,
    DesignSpace,
    best_cache_geometry,
    fitting_cache_geometries,
    fits,
    initial_configuration,
    max_fitting,
    max_iq_size,
    max_lsq_size,
    max_rob_size,
    min_cache_cycles,
    min_stages,
    refit_config,
    validate_config,
)


class TestPrimitives:
    def test_fits_with_slack(self):
        assert fits(1.0, 1.0)
        assert fits(1.0, 1.2)
        assert not fits(1.2, 1.0)

    def test_max_fitting_picks_largest(self):
        assert max_fitting([16, 32, 64], lambda s: s / 100, 0.4) == 32

    def test_max_fitting_none(self):
        assert max_fitting([16, 32], lambda s: s / 10, 0.4) is None

    def test_min_stages(self, tech):
        assert min_stages(0.5, tech, 0.33, max_stages=6) == 2

    def test_min_stages_beyond_cap(self, tech):
        assert min_stages(10.0, tech, 0.33, max_stages=6) is None


class TestUnitSizers:
    def test_iq_fit_consistent_with_delay(self, model, tech, space):
        size = max_iq_size(model, tech, 0.33, stages=2, width=4, space=space)
        assert size is not None
        budget = tech.budget(0.33, 2)
        assert issue_queue_ns(model, size, 4) <= budget + 1e-9
        bigger = [s for s in space.iq_sizes if s > size]
        if bigger:
            assert issue_queue_ns(model, min(bigger), 4) > budget

    def test_rob_shrinks_with_width(self, model, tech, space):
        narrow = max_rob_size(model, tech, 0.33, 2, width=2, space=space)
        wide = max_rob_size(model, tech, 0.33, 2, width=8, space=space)
        assert narrow is not None and wide is not None
        assert wide <= narrow

    def test_rob_grows_with_stages(self, model, tech, space):
        shallow = max_rob_size(model, tech, 0.25, 1, width=3, space=space)
        deep = max_rob_size(model, tech, 0.25, 3, width=3, space=space)
        if shallow is not None:
            assert deep is not None and deep >= shallow

    def test_lsq_fit(self, model, tech, space):
        size = max_lsq_size(model, tech, 0.33, stages=2, space=space)
        assert size in space.lsq_sizes


class TestCacheFitting:
    def test_fitting_geometries_all_fit(self, model, tech, space):
        budget = tech.budget(0.33, 3)
        from repro.tech import l1_cache_ns

        for geo in fitting_cache_geometries(model, tech, 0.33, 3, space, level=1):
            assert l1_cache_ns(model, *geo) <= budget + 1e-9

    def test_more_cycles_admit_bigger_caches(self, model, tech, space):
        few = fitting_cache_geometries(model, tech, 0.33, 2, space, level=1)
        many = fitting_cache_geometries(model, tech, 0.33, 5, space, level=1)
        assert set(few) <= set(many)
        cap = lambda gs: max((s * a * b for s, a, b in gs), default=0)  # noqa: E731
        assert cap(many) >= cap(few)

    def test_best_geometry_deterministic_is_max_capacity(self, model, tech, space):
        geo = best_cache_geometry(model, tech, 0.40, 5, space, level=1)
        assert geo is not None
        fitting = fitting_cache_geometries(model, tech, 0.40, 5, space, level=1)
        assert geo.capacity_bytes == max(s * a * b for s, a, b in fitting)

    def test_best_geometry_random_is_fitting(self, model, tech, space):
        rng = np.random.default_rng(0)
        geo = best_cache_geometry(model, tech, 0.40, 5, space, level=1, rng=rng)
        assert (geo.nsets, geo.assoc, geo.block_bytes) in set(
            fitting_cache_geometries(model, tech, 0.40, 5, space, level=1)
        )

    def test_min_cycles_roundtrip(self, model, tech, space):
        geo = CacheGeometry(nsets=256, assoc=2, block_bytes=64, latency_cycles=3)
        cycles = min_cache_cycles(model, tech, 0.33, geo, space, level=1)
        assert cycles is not None
        from repro.tech import l1_cache_ns

        delay = l1_cache_ns(model, 256, 2, 64)
        assert tech.budget(0.33, cycles) >= delay - 1e-9
        if cycles > 1:
            assert tech.budget(0.33, cycles - 1) < delay

    def test_invalid_level_rejected(self, model, tech, space):
        with pytest.raises(ValueError):
            fitting_cache_geometries(model, tech, 0.33, 3, space, level=3)


class TestRefit:
    def test_refit_preserves_validity(self, tech, model, space, initial_config):
        refitted = refit_config(initial_config, tech, model, space)
        validate_config(refitted, tech, model)

    def test_refit_never_grows_buffers(self, tech, model, space, initial_config):
        fast = initial_config.replace(clock_period_ns=0.20)
        refitted = refit_config(fast, tech, model, space)
        assert refitted.rob_size <= initial_config.rob_size
        assert refitted.iq_size <= initial_config.iq_size
        assert refitted.lsq_size <= initial_config.lsq_size

    def test_refit_updates_derived_counts(self, tech, model, space, initial_config):
        fast = initial_config.replace(clock_period_ns=0.20)
        refitted = refit_config(fast, tech, model, space)
        assert refitted.frontend_stages > initial_config.frontend_stages
        assert refitted.memory_cycles > initial_config.memory_cycles

    def test_refit_deepens_only_when_forced(self, tech, model, space, initial_config):
        refitted = refit_config(initial_config, tech, model, space)
        assert refitted.scheduler_depth == initial_config.scheduler_depth
        assert refitted.wakeup_latency == initial_config.wakeup_latency

    @settings(deadline=None, max_examples=25)
    @given(clock=st.floats(min_value=0.18, max_value=0.60))
    def test_refit_valid_across_clock_range(self, clock):
        tech = default_technology()
        model = CactiModel(tech)
        space = DesignSpace()
        config = initial_configuration(tech).replace(clock_period_ns=clock)
        refitted = refit_config(config, tech, model, space)
        validate_config(refitted, tech, model)
        assert refitted.clock_period_ns == pytest.approx(clock)


# ----------------------------------------------------------------------
# reference equivalence: the delay tables answer like the brute-force scan
# ----------------------------------------------------------------------


def _reference_max_iq(model, tech, clock, stages, width, space):
    budget = tech.budget(clock, stages)
    return max_fitting(space.iq_sizes, lambda s: issue_queue_ns(model, s, width), budget)


def _reference_max_rob(model, tech, clock, stages, width, space):
    budget = tech.budget(clock, stages)
    return max_fitting(space.rob_sizes, lambda s: regfile_ns(model, s, width), budget)


def _reference_max_lsq(model, tech, clock, stages, space):
    from repro.tech import lsq_ns

    budget = tech.budget(clock, stages)
    return max_fitting(space.lsq_sizes, lambda s: lsq_ns(model, s), budget)


def _reference_fitting(model, tech, clock, cycles, space, level):
    from repro.tech import l1_cache_ns, l2_cache_ns

    budget = tech.budget(clock, cycles)
    if level == 1:
        candidates, delay = space.l1_geometries(), l1_cache_ns
    else:
        candidates, delay = space.l2_geometries(), l2_cache_ns
    return [g for g in candidates if fits(delay(model, *g), budget)]


_ODD_SPACE = DesignSpace(
    widths=(1, 2, 4, 6),
    rob_sizes=(24, 48, 96, 192, 384),
    iq_sizes=(8, 12, 24, 40, 72),
    lsq_sizes=(16, 48, 80),
    l1_nsets=(32, 128, 512, 2048),
    l1_assocs=(1, 3, 4),
    l1_blocks=(8, 32, 64),
    l2_nsets=(64, 256, 1024, 4096),
    l2_assocs=(2, 6, 8),
    l2_blocks=(64, 128),
    l1_capacity_range=(2048, 256 * 1024),
    l2_capacity_range=(64 * 1024, 4 * 1024 * 1024),
    max_wakeup_latency=2,
    max_scheduler_depth=4,
    max_lsq_depth=3,
    max_l1_cycles=5,
    max_l2_cycles=20,
)


def _clock_grid(tech, model, space):
    """An even clock grid plus clocks whose budget lands exactly on a
    unit delay (the ``fits`` slack boundary)."""
    from repro.tech import l1_cache_ns, lsq_ns

    clocks = [float(c) for c in np.linspace(tech.min_clock_ns, tech.max_clock_ns, 13)]
    for stages in (1, 2, 3):
        for delay in (
            issue_queue_ns(model, space.iq_sizes[1], space.widths[1]),
            regfile_ns(model, space.rob_sizes[2], space.widths[-1]),
            lsq_ns(model, space.lsq_sizes[-1]),
            l1_cache_ns(model, *space.l1_geometries()[3]),
        ):
            clocks.append(delay / stages + tech.latch_latency_ns)
    return clocks


@pytest.mark.parametrize("space", [DesignSpace(), _ODD_SPACE], ids=["default", "odd"])
class TestTablesMatchBruteForce:
    def test_scalar_sizers(self, space, tech):
        model = CactiModel(tech)
        reference = CactiModel(tech)
        for clock in _clock_grid(tech, reference, space):
            for stages in range(1, 5):
                assert max_lsq_size(model, tech, clock, stages, space) == (
                    _reference_max_lsq(reference, tech, clock, stages, space)
                )
                for width in space.widths:
                    assert max_iq_size(model, tech, clock, stages, width, space) == (
                        _reference_max_iq(reference, tech, clock, stages, width, space)
                    )
                    assert max_rob_size(model, tech, clock, stages, width, space) == (
                        _reference_max_rob(reference, tech, clock, stages, width, space)
                    )

    def test_cache_geometries(self, space, tech):
        model = CactiModel(tech)
        reference = CactiModel(tech)
        clocks = _clock_grid(tech, reference, space)
        for level, cap in ((1, space.max_l1_cycles), (2, space.max_l2_cycles)):
            for clock in clocks:
                for cycles in range(1, cap + 1):
                    fast = fitting_cache_geometries(model, tech, clock, cycles, space, level)
                    assert type(fast) is list
                    assert fast == _reference_fitting(
                        reference, tech, clock, cycles, space, level
                    )

    def test_tables_are_built_on_first_use(self, space, tech):
        model = CactiModel(tech)
        assert model.fit_tables == {}
        max_iq_size(model, tech, 0.33, 2, space.widths[0], space)
        assert len(model.fit_tables) == 1
