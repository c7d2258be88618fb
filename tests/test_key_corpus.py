"""Key corpus: committed digests that existing stores and checkpoints use.

Cache keys (:func:`~repro.engine.keys.evaluation_key`) and run
signatures are on-disk contracts: a result store or checkpoint written
by an earlier build is only found again when the encoder still produces
the same digests.  ``tests/golden/keys.json`` pins those digests for
every SPEC2000 profile against a seeded
:func:`tests.walks.generate_configs` sample, a suite run
signature, and the edge values the encoder treats specially (a
non-default ``core_type``, integral floats, numpy scalars, non-empty
simulator and context strings).

Comparison is byte-exact.  Regenerate only together with a deliberate
``ENCODING_VERSION`` bump::

    PYTHONPATH=src python -m pytest tests/test_key_corpus.py --update-golden
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.engine import digest, evaluation_key, simulator_id
from repro.engine.keys import ENCODING_VERSION
from repro.explore import XpScalar
from repro.sim import IntervalSimulator
from repro.tech import default_technology
from repro.uarch import initial_configuration
from repro.workloads import spec2000_profiles

from .walks import generate_configs

CORPUS_PATH = Path(__file__).parent / "golden" / "keys.json"

#: Size and seed of the configuration sample every profile is keyed on.
SAMPLE = 24
SAMPLE_SEED = 11


def build_corpus() -> dict:
    tech = default_technology()
    simulator = simulator_id(IntervalSimulator())
    context = digest(tech)
    configs = generate_configs(SAMPLE, seed=SAMPLE_SEED)
    profiles = spec2000_profiles()

    evaluations = {
        profile.name: [
            evaluation_key(profile, config, simulator=simulator, context=context)
            for config in configs
        ]
        for profile in profiles
    }

    base = initial_configuration(tech)
    edges = {
        "inorder_core_type": base.replace(core_type="inorder"),
        "integral_float_clock": base.replace(clock_period_ns=1.0),
        "numpy_scalar_fields": base.replace(
            clock_period_ns=np.float64(0.25),
            width=np.int64(4),
            rob_size=np.int32(256),
            lsq_size=np.int16(32),
        ),
    }
    gzip = profiles[0]
    edge_keys = {
        name: evaluation_key(gzip, config, simulator=simulator, context=context)
        for name, config in edges.items()
    }
    edge_keys["default_strings"] = evaluation_key(gzip, base)
    edge_keys["custom_simulator_and_context"] = evaluation_key(
        gzip, base, simulator="example.Simulator@3", context="context:é/1"
    )
    edge_keys["plain_values"] = digest(
        True, None, 0, -7, 1.0, float("inf"), [1, 2.5, "x"], {"b": 1, "a": np.float32(0.5)}
    )

    xp = XpScalar(tech=tech)
    names = [profile.name for profile in profiles]
    signatures = {
        "suite_seed0_rounds1": xp.run_signature(names, 0, 1),
        "pair_seed7_rounds0": xp.run_signature(names[:2], 7, 0),
    }
    return {
        "encoding_version": ENCODING_VERSION,
        "sample": {"count": SAMPLE, "seed": SAMPLE_SEED},
        "evaluations": evaluations,
        "edges": edge_keys,
        "run_signatures": signatures,
    }


def render(corpus: dict) -> str:
    return json.dumps(corpus, indent=1, sort_keys=True) + "\n"


def test_key_corpus_is_byte_identical(update_golden):
    rendered = render(build_corpus())
    if update_golden:
        CORPUS_PATH.write_text(rendered, encoding="utf-8")
        pytest.skip("key corpus regenerated")
    assert CORPUS_PATH.read_text(encoding="utf-8") == rendered


def test_key_corpus_covers_every_profile():
    corpus = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
    assert sorted(corpus["evaluations"]) == sorted(p.name for p in spec2000_profiles())
    keys = [k for ks in corpus["evaluations"].values() for k in ks]
    assert len(set(keys)) == len(keys) == 11 * SAMPLE
