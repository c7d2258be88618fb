"""Content hashing of evaluation requests (repro.engine.keys)."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.engine import (
    RESTART_SEED_STRIDE,
    ROUND_SEED_STRIDE,
    canonical,
    derive_seed,
    digest,
    evaluation_key,
    simulator_id,
    unit_draw,
)
from repro.engine.keys import ENCODING_VERSION, canonical_json
from repro.errors import EngineError
from repro.sim import IntervalSimulator
from repro.tech import TechnologyNode
from repro.uarch import initial_configuration
from repro.workloads import spec2000_profile, spec2000_profiles

from .walks import generate_configs


class TestCanonical:
    def test_primitives_pass_through(self):
        assert canonical(3) == 3
        assert canonical("x") == "x"
        assert canonical(None) is None
        assert canonical(True) is True

    def test_floats_encode_via_repr(self):
        assert canonical(0.1) == {"__float__": "0.1"}
        assert canonical(1.0) != canonical(1)  # float 1.0 is not int 1

    def test_numpy_scalars_normalize(self):
        assert canonical(np.int64(5)) == 5
        assert canonical(np.float64(0.25)) == canonical(0.25)

    def test_dataclasses_carry_type_and_fields(self):
        encoded = canonical(TechnologyNode())
        assert encoded["__type__"].endswith("TechnologyNode")
        assert "latch_latency_ns" in encoded

    def test_unencodable_raises(self):
        with pytest.raises(EngineError):
            canonical(object())


class TestDigest:
    def test_deterministic(self):
        config = initial_configuration(TechnologyNode())
        assert digest(config) == digest(config)

    def test_sensitive_to_any_field(self, initial_config):
        changed = initial_config.replace(width=initial_config.width + 1)
        assert digest(initial_config) != digest(changed)

    def test_sensitive_to_nested_fields(self, initial_config):
        changed = initial_config.replace(
            l1=initial_config.l1.__class__(
                nsets=initial_config.l1.nsets,
                assoc=initial_config.l1.assoc,
                block_bytes=initial_config.l1.block_bytes,
                latency_cycles=initial_config.l1.latency_cycles + 1,
            )
        )
        assert digest(initial_config) != digest(changed)

    def test_argument_order_matters(self):
        assert digest("a", "b") != digest("b", "a")


class TestEvaluationKey:
    def test_same_inputs_same_key(self, initial_config):
        p = spec2000_profile("gzip")
        assert evaluation_key(p, initial_config) == evaluation_key(p, initial_config)

    def test_distinct_profiles_distinct_keys(self, initial_config):
        a = evaluation_key(spec2000_profile("gzip"), initial_config)
        b = evaluation_key(spec2000_profile("mcf"), initial_config)
        assert a != b

    def test_distinct_configs_distinct_keys(self, initial_config):
        p = spec2000_profile("gzip")
        other = initial_config.replace(rob_size=initial_config.rob_size * 2)
        assert evaluation_key(p, initial_config) != evaluation_key(p, other)

    def test_simulator_and_context_fold_in(self, initial_config):
        p = spec2000_profile("gzip")
        base = evaluation_key(p, initial_config)
        assert evaluation_key(p, initial_config, simulator="other@1") != base
        assert evaluation_key(p, initial_config, context="tech-x") != base

    def test_is_digest_of_profile_digest_config_and_identity(self):
        for profile in spec2000_profiles()[:3]:
            for config in generate_configs(4, seed=1):
                for simulator, context in (("", ""), ("sim@2", "ctx:é")):
                    assert evaluation_key(
                        profile, config, simulator=simulator, context=context
                    ) == digest(digest(profile), config, simulator, context)


@dataclasses.dataclass(frozen=True)
class _Holder:
    """Any field types, and a field omitted while it holds its default."""

    value: object
    extra: object = "default"
    __canonical_omit_defaults__ = frozenset({"extra"})


def _reference_json(obj):
    return json.dumps(canonical(obj), separators=(",", ":"))


#: Values the generated encoder must write exactly as the reference does.
EDGE_VALUES = [
    -0.0,
    0.0,
    1.0,
    -3.0,
    1e16,
    1e-7,
    5e-324,  # smallest subnormal
    2.2250738585072014e-308 / 3,  # another subnormal
    1.7976931348623157e308,  # largest double
    float("inf"),
    float("-inf"),
    float("nan"),
    np.float64(0.1),
    np.float32(0.5),
    np.int64(7),
    np.int8(-3),
    np.bool_(True),
    True,
    False,
    None,
    0,
    -(2**70),
    "",
    "plain",
    'quote " and \\ backslash\n',
    "non-ascii: é ☃ 𝄞",
    {"b": 1, "a": [1.5, "x"], 3: None},
    (1, 2.5, ("nested", -0.0)),
    [],
]


class TestCanonicalJson:
    """The generated encoder against its reference, ``canonical``."""

    @pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
    def test_edge_values(self, value):
        assert canonical_json(value) == _reference_json(value)

    @pytest.mark.parametrize("core_type", ["ooo", "inorder"])
    def test_generated_configs(self, core_type):
        for config in generate_configs(64, seed=5):
            config = config.replace(core_type=core_type)
            assert canonical_json(config) == _reference_json(config)

    def test_every_spec_profile(self):
        for profile in spec2000_profiles():
            assert canonical_json(profile) == _reference_json(profile)

    def test_field_values_off_the_fast_path(self, initial_config):
        odd = initial_config.replace(
            clock_period_ns=np.float64(0.25),
            width=np.int64(4),
            rob_size=np.int32(256),
            core_type="inorder",
        )
        assert canonical_json(odd) == _reference_json(odd)
        for value in EDGE_VALUES:
            for holder in (_Holder(value), _Holder(value, value)):
                assert canonical_json(holder) == _reference_json(holder)
            nested = {"config": odd, "holder": _Holder(odd, (value,))}
            assert canonical_json(nested) == _reference_json(nested)

    def test_remembered_geometries_encode_by_identity(self, initial_config):
        """A cache geometry's JSON is remembered per object, so an equal
        geometry holding a float encodes as itself, not as the int one."""
        geometry = initial_config.l1
        assert canonical_json(geometry) == canonical_json(geometry)
        twin = dataclasses.replace(geometry, assoc=float(geometry.assoc))
        assert twin == geometry
        assert canonical_json(twin) == _reference_json(twin) != canonical_json(geometry)

    def test_default_fields_are_omitted(self, initial_config):
        assert '"core_type"' not in canonical_json(initial_config)
        assert '"core_type":"inorder"' in canonical_json(
            initial_config.replace(core_type="inorder")
        )

    def test_unencodable_raises(self):
        with pytest.raises(EngineError):
            canonical_json(object())
        with pytest.raises(EngineError):
            canonical_json(TechnologyNode)  # a dataclass type, not an instance

    def test_digest_matches_reference_payload(self, initial_config):
        parts = (initial_config, "x", 1.0, None, {"k": [2]})
        payload = json.dumps(
            [ENCODING_VERSION, *(canonical(p) for p in parts)], separators=(",", ":")
        )
        assert digest(*parts) == hashlib.sha256(payload.encode()).hexdigest()
        assert digest() == hashlib.sha256(f"[{ENCODING_VERSION}]".encode()).hexdigest()


class TestDeriveSeed:
    """The one seed-derivation helper every explorer shares."""

    def test_base_passes_through(self):
        assert derive_seed(42) == 42

    def test_matches_legacy_explore_seeds(self):
        # customize_all's exploration stage used ``seed + i``.
        for i in range(12):
            assert derive_seed(2008, index=i) == 2008 + i

    def test_matches_legacy_refine_seeds(self):
        # The refinement rounds used ``seed + 1000 * (round_no + 1) + i``.
        for round_no in range(3):
            for i in range(12):
                assert (
                    derive_seed(2008, index=i, round_no=round_no + 1)
                    == 2008 + 1000 * (round_no + 1) + i
                )

    def test_matches_legacy_restart_seeds(self):
        # Restarts used ``seed + 7919 * extra``.
        for extra in range(1, 5):
            assert derive_seed(5, restart=extra) == 5 + 7919 * extra

    def test_strides_disjoint_at_paper_scale(self):
        seeds = {
            derive_seed(0, index=i, round_no=r, restart=s)
            for i in range(20)
            for r in range(4)
            for s in range(4)
        }
        assert len(seeds) == 20 * 4 * 4
        assert ROUND_SEED_STRIDE > 20 and RESTART_SEED_STRIDE > 4 * ROUND_SEED_STRIDE


class TestUnitDraw:
    def test_in_unit_interval_and_deterministic(self):
        for parts in ((0, "k", 1), ("backoff", 3, "key", 2), ("solo",)):
            value = unit_draw(*parts)
            assert 0.0 <= value < 1.0
            assert unit_draw(*parts) == value

    def test_matches_documented_payload(self):
        # The draw is SHA-256 of the "|"-joined string forms — the exact
        # payload the fault plan and retry backoff hashed before the
        # helper existed.
        expected = (
            int.from_bytes(hashlib.sha256(b"7|somekey|3").digest()[:8], "big") / 2**64
        )
        assert unit_draw(7, "somekey", 3) == expected

    def test_distinct_parts_distinct_draws(self):
        assert unit_draw(1, "k", 0) != unit_draw(1, "k", 1)
        assert unit_draw(1, "k", 0) != unit_draw(2, "k", 0)


class TestSimulatorId:
    def test_includes_class_and_version(self):
        sid = simulator_id(IntervalSimulator())
        assert "IntervalSimulator" in sid
        assert sid.endswith(f"@{IntervalSimulator.cache_version}")

    def test_version_bump_changes_id(self):
        class Patched(IntervalSimulator):
            cache_version = IntervalSimulator.cache_version + 1

        assert simulator_id(Patched()) != simulator_id(IntervalSimulator())
