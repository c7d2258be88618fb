"""Pareto-front golden: every front point's figures, bit for bit.

``ConstraintSet.measure`` prices each sampled design point (power, area,
EPI) and ``ParetoExplorer.fronts`` keeps the non-dominated subset.
``tests/golden/pareto_fronts.json`` pins every front point's
``(ipt, power_w, area_mm2, epi_nj)`` as ``float.hex`` strings for all 11
SPEC2000 profiles over two sampler seeds, so any change to how a point
is priced or filtered that moves a single bit fails here.

Comparison is byte-exact.  Regenerate only together with a deliberate
model change::

    PYTHONPATH=src python -m pytest tests/test_pareto_golden.py --update-golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.design import ParetoExplorer
from repro.workloads import spec2000_profiles

GOLDEN_PATH = Path(__file__).parent / "golden" / "pareto_fronts.json"

#: Sampler size and seeds every profile's front is built from.
SAMPLES = 24
SEEDS = (0, 1)


def build_fronts() -> dict:
    profiles = spec2000_profiles()
    fronts = {}
    for seed in SEEDS:
        by_profile = ParetoExplorer().fronts(profiles, samples=SAMPLES, seed=seed)
        fronts[str(seed)] = {
            name: [
                [p.ipt.hex(), p.power_w.hex(), p.area_mm2.hex(), p.epi_nj.hex()]
                for p in front.points
            ]
            for name, front in by_profile.items()
        }
    return {"samples": SAMPLES, "seeds": list(SEEDS), "fronts": fronts}


def render(golden: dict) -> str:
    return json.dumps(golden, indent=1, sort_keys=True) + "\n"


def test_pareto_fronts_are_byte_identical(update_golden):
    rendered = render(build_fronts())
    if update_golden:
        GOLDEN_PATH.write_text(rendered, encoding="utf-8")
        pytest.skip("pareto golden regenerated")
    assert GOLDEN_PATH.read_text(encoding="utf-8") == rendered


def test_pareto_golden_covers_every_profile_and_seed():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    names = sorted(p.name for p in spec2000_profiles())
    assert sorted(golden["fronts"]) == [str(s) for s in SEEDS]
    for fronts in golden["fronts"].values():
        assert sorted(fronts) == names
        assert all(points for points in fronts.values())
