"""Core configuration schema, design space, derived quantities."""

import pytest

from repro.errors import ConfigurationError
from repro.uarch import (
    CacheGeometry,
    CoreConfig,
    DesignSpace,
    derived_frontend_stages,
    derived_memory_cycles,
    initial_configuration,
    unit_budgets_ns,
    unit_delays_ns,
    validate_config,
)
from repro.units import KB


class TestCacheGeometry:
    def test_capacity(self):
        g = CacheGeometry(nsets=256, assoc=2, block_bytes=64, latency_cycles=2)
        assert g.capacity_bytes == 32 * KB

    def test_describe(self):
        g = CacheGeometry(nsets=1024, assoc=2, block_bytes=32, latency_cycles=2)
        assert g.describe() == "64K (1024x2x32, 2 cyc)"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(nsets=100, assoc=2, block_bytes=64, latency_cycles=2),
            dict(nsets=256, assoc=0, block_bytes=64, latency_cycles=2),
            dict(nsets=256, assoc=2, block_bytes=4, latency_cycles=2),
            dict(nsets=256, assoc=2, block_bytes=48, latency_cycles=2),
            dict(nsets=256, assoc=2, block_bytes=64, latency_cycles=0),
        ],
    )
    def test_rejects_bad_geometry(self, kwargs):
        with pytest.raises(ConfigurationError):
            CacheGeometry(**kwargs)


class TestCoreConfig:
    def test_initial_is_legal(self, tech, model):
        validate_config(initial_configuration(tech), tech, model)

    def test_frequency(self, initial_config):
        assert initial_config.frequency_ghz == pytest.approx(1 / 0.33)

    def test_replace_revalidates(self, initial_config):
        with pytest.raises(ConfigurationError):
            initial_config.replace(width=0)

    def test_iq_cannot_exceed_rob(self, initial_config):
        with pytest.raises(ConfigurationError):
            initial_config.replace(rob_size=32, iq_size=64)

    def test_l2_cannot_be_smaller_than_l1(self, initial_config):
        tiny_l2 = CacheGeometry(nsets=64, assoc=1, block_bytes=64, latency_cycles=4)
        with pytest.raises(ConfigurationError):
            initial_config.replace(l2=tiny_l2)

    def test_describe_mentions_key_fields(self, initial_config):
        text = initial_config.describe()
        assert "clock period" in text
        assert "ROB size" in text

    def test_pipeline_depth(self, initial_config):
        c = initial_config
        assert c.pipeline_depth == (
            c.frontend_stages + c.scheduler_depth + 1 + c.wakeup_latency
        )


class TestValidation:
    def test_clock_out_of_range(self, tech, model, initial_config):
        bad = initial_config.replace(clock_period_ns=5.0)
        with pytest.raises(ConfigurationError):
            validate_config(bad, tech, model)

    def test_unit_over_budget(self, tech, model, initial_config):
        # A 1-cycle L2 cannot possibly meet timing.
        bad = initial_config.replace(
            l2=CacheGeometry(nsets=1024, assoc=4, block_bytes=128, latency_cycles=1)
        )
        with pytest.raises(ConfigurationError) as exc:
            validate_config(bad, tech, model)
        assert "l2" in str(exc.value)

    def test_frontend_too_shallow(self, tech, model, initial_config):
        bad = initial_config.replace(frontend_stages=1)
        with pytest.raises(ConfigurationError):
            validate_config(bad, tech, model)

    def test_memory_cycles_too_few(self, tech, model, initial_config):
        bad = initial_config.replace(memory_cycles=10)
        with pytest.raises(ConfigurationError):
            validate_config(bad, tech, model)

    def test_design_space_ranges_enforced(self, tech, model, space, initial_config):
        bad = initial_config.replace(rob_size=96, iq_size=64)
        with pytest.raises(ConfigurationError):
            validate_config(bad, tech, model, space)

    def test_budgets_cover_delays_when_valid(self, tech, model, initial_config):
        delays = unit_delays_ns(model, initial_config)
        budgets = unit_budgets_ns(tech, initial_config)
        for unit, delay in delays.items():
            assert delay <= budgets[unit] + 1e-9, unit


class TestDerived:
    def test_frontend_stages_cover_latency(self, tech):
        for clock in (0.2, 0.33, 0.5):
            stages = derived_frontend_stages(tech, clock)
            assert stages * tech.usable_stage_time(clock) >= tech.frontend_latency_ns - 1e-9

    def test_frontend_deeper_at_faster_clock(self, tech):
        assert derived_frontend_stages(tech, 0.19) > derived_frontend_stages(tech, 0.45)

    def test_memory_cycles_cover_latency(self, tech):
        cycles = derived_memory_cycles(tech, 0.33, l2_latency_cycles=12)
        assert (cycles - 12) * 0.33 >= tech.memory_latency_ns - 0.34

    def test_paper_ballpark(self, tech):
        # Table 4: memory cycles ~112-321 across clocks 0.19-0.49.
        assert 100 <= derived_memory_cycles(tech, 0.45, 12) <= 180
        assert 250 <= derived_memory_cycles(tech, 0.19, 12) <= 330


class TestDesignSpace:
    def test_l1_geometries_within_capacity(self, space):
        lo, hi = space.l1_capacity_range
        for nsets, assoc, block in space.l1_geometries():
            assert lo <= nsets * assoc * block <= hi

    def test_l2_geometries_within_capacity(self, space):
        lo, hi = space.l2_capacity_range
        for nsets, assoc, block in space.l2_geometries():
            assert lo <= nsets * assoc * block <= hi

    def test_geometry_lists_nonempty(self, space):
        assert len(space.l1_geometries()) > 50
        assert len(space.l2_geometries()) > 50

    def test_empty_capacity_range_rejected(self):
        space = DesignSpace(l1_capacity_range=(1, 2))
        with pytest.raises(ConfigurationError):
            space.l1_geometries()


class TestCoreType:
    def test_default_is_out_of_order(self, initial_config):
        assert initial_config.core_type == "ooo"
        assert not initial_config.is_inorder

    def test_inorder_variant(self, initial_config):
        io = initial_config.replace(core_type="inorder")
        assert io.is_inorder
        assert io.replace(core_type="ooo") == initial_config

    def test_rejects_unknown_core_type(self, initial_config):
        with pytest.raises(ConfigurationError):
            initial_config.replace(core_type="vliw")

    def test_describe_mentions_type_only_when_inorder(self, initial_config):
        assert "core type" not in initial_config.describe()
        assert "core type" in initial_config.replace(core_type="inorder").describe()

    def test_canonical_digest_stable_at_default(self, initial_config):
        """`core_type` joined the schema late: at its default it must not
        reshuffle historical digests (cache keys, fault schedules)."""
        from repro.engine.keys import digest

        assert digest(initial_config) == digest(
            initial_config.replace(core_type="ooo")
        )
        assert digest(initial_config) != digest(
            initial_config.replace(core_type="inorder")
        )

    def test_serialization_roundtrip_and_legacy_payloads(self, initial_config):
        from repro.engine.serialize import (
            config_from_jsonable,
            config_to_jsonable,
        )

        io = initial_config.replace(core_type="inorder")
        assert config_from_jsonable(config_to_jsonable(io)) == io
        # Payloads written before the field existed decode as ooo.
        legacy = config_to_jsonable(initial_config)
        del legacy["core_type"]
        assert config_from_jsonable(legacy) == initial_config


class TestReplace:
    def test_matches_dataclasses_replace(self, initial_config):
        import dataclasses

        changes = {"width": 4, "rob_size": 256, "core_type": "inorder"}
        assert initial_config.replace(**changes) == dataclasses.replace(
            initial_config, **changes
        )

    def test_l2_smaller_than_l1_still_rejected(self, initial_config):
        big_l1 = CacheGeometry(nsets=32768, assoc=8, block_bytes=128, latency_cycles=4)
        with pytest.raises(ConfigurationError, match="smaller than L1"):
            initial_config.replace(l1=big_l1)

    def test_unknown_field_rejected(self, initial_config):
        with pytest.raises(TypeError):
            initial_config.replace(not_a_field=1)
