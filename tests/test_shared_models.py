"""Process-wide analytic-model answers: CACTI tables and miss-rate memos.

``CactiModel.shared(tech)`` hands every explorer, sampler and job of a
process the same solved geometries and fit tables of ``tech``, and every
equal ``MemoryModel`` shares one table of solved miss rates.  These
tests pin that the shared answers are exactly what the unshared
formulas compute, so results do not depend on what a process solved
before, on which thread filled a table, or on whether it is shared.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import sys
import threading

import pytest

from repro.design import ParetoExplorer
from repro.errors import WorkloadError
from repro.explore import AnnealingSchedule, XpScalar
from repro.tech import CactiModel, cacti, default_technology
from repro.uarch import DesignSpace
from repro.workloads import profile as profile_module
from repro.workloads import spec2000_profile, spec2000_profiles

#: A node other than the default, so its tables must stay apart.
OTHER_TECH = dataclasses.replace(
    default_technology(), name="test-slow-wires", sram_base_ns=0.12
)


def _geometries() -> list[tuple[int, int, int]]:
    """``(capacity, block, assoc)`` of every L1 and L2 candidate."""
    space = DesignSpace()
    return [
        (nsets * assoc * block, block, assoc)
        for nsets, assoc, block in space.l1_geometries() + space.l2_geometries()
    ]


@pytest.fixture()
def cold_tables(monkeypatch):
    """Empty process-wide tables for the duration of one test."""
    monkeypatch.setattr(cacti, "_SHARED_TABLES", {})
    monkeypatch.setattr(profile_module, "_MISS_MEMOS", {})


def _clear_tables():
    """Empty the (fixture-owned) process-wide tables in place."""
    cacti._SHARED_TABLES.clear()
    profile_module._MISS_MEMOS.clear()


def _fresh(profile):
    """An equal profile whose memory model has not looked up its memo."""
    return copy.deepcopy(profile)


class TestMissRateMemo:
    def test_memoized_rates_equal_the_formula_bit_for_bit(self):
        geometries = _geometries()
        for profile in spec2000_profiles():
            memory = profile.memory
            want = [memory._solve_miss_rate(*g).hex() for g in geometries]
            first = [memory.miss_rate(*g).hex() for g in geometries]
            warm = [memory.miss_rate(*g).hex() for g in geometries]
            fresh = _fresh(profile).memory
            assert fresh == memory and "_miss_memo" not in fresh.__dict__
            equal_model = [fresh.miss_rate(*g).hex() for g in geometries]
            assert first == warm == equal_model == want, profile.name
            assert fresh._miss_memo is memory._miss_memo

    def test_invalid_geometry_still_raises_on_a_warm_memo(self):
        memory = spec2000_profile("gzip").memory
        for geometry in _geometries():
            memory.miss_rate(*geometry)
        for bad in ((32, 64, 2), (4096, 0, 2), (4096, 64, 0)):
            with pytest.raises(WorkloadError):
                memory.miss_rate(*bad)

    def test_pickled_profile_carries_no_memo(self):
        profile = spec2000_profile("mcf")
        cold_bytes = pickle.dumps(profile)
        profile.memory.miss_rate(32 * 1024, 64, 2)
        assert "_miss_memo" in profile.memory.__dict__
        assert pickle.dumps(profile) == cold_bytes
        clone = pickle.loads(cold_bytes)
        assert "_miss_memo" not in clone.memory.__dict__
        assert clone == profile


class TestSharedCacti:
    def test_nodes_share_no_tables_and_models_keep_own_counters(self):
        default = CactiModel.shared(default_technology())
        other = CactiModel.shared(OTHER_TECH)
        assert default._memo is not other._memo
        assert default.fit_tables is not other.fit_tables
        geometry = (256, 2, 64, 2, 2)
        assert default.ram(*geometry) != other.ram(*geometry)
        assert other.ram(*geometry) == CactiModel(OTHER_TECH).ram(*geometry)

        again = CactiModel.shared(default_technology())
        assert again._memo is default._memo
        assert again.fit_tables is default.fit_tables
        hits, misses = default.memo_hits, default.memo_misses
        assert (again.memo_hits, again.memo_misses) == (0, 0)
        again.ram(*geometry)
        assert (again.memo_hits, again.memo_misses) == (1, 0)
        assert (default.memo_hits, default.memo_misses) == (hits, misses)

    def test_private_model_stays_private(self):
        shared = CactiModel.shared(default_technology())
        private = CactiModel(default_technology())
        assert private._memo is not shared._memo
        assert private.fit_tables is not shared.fit_tables
        assert not private._memo and not private.fit_tables


# ----------------------------------------------------------------------
# explorer results do not depend on the tables' history
# ----------------------------------------------------------------------

SCHEDULE = AnnealingSchedule(iterations=800)
SPECS = (("gzip", 3), ("mcf", 5), ("twolf", 1))


def _customize(name: str, seed: int):
    explorer = XpScalar(schedule=SCHEDULE)
    return explorer.customize(_fresh(spec2000_profile(name)), seed=seed)


def _fronts(seed: int = 2):
    profiles = [_fresh(p) for p in spec2000_profiles()]
    return {
        name: [
            (p.config, p.ipt.hex(), p.power_w.hex(), p.area_mm2.hex(), p.epi_nj.hex())
            for p in front.points
        ]
        for name, front in ParetoExplorer().fronts(profiles, samples=16, seed=seed).items()
    }


def _warm_with_other_work():
    """Fill the tables with a non-default node first, then other profiles."""
    XpScalar(tech=OTHER_TECH, schedule=SCHEDULE).customize(
        spec2000_profile("gzip"), seed=3
    )
    XpScalar(schedule=SCHEDULE).customize(spec2000_profile("vpr"), seed=9)
    ParetoExplorer().fronts(spec2000_profiles()[:4], samples=8, seed=7)


class TestTableHistoryIndependence:
    def _run_all(self):
        return [_customize(*spec) for spec in SPECS], _fronts()

    def test_cold_warm_and_private_tables_give_identical_results(
        self, monkeypatch, cold_tables
    ):
        cold = self._run_all()
        # Empty again, so the other work solves every shared geometry first.
        _clear_tables()
        _warm_with_other_work()
        warm = self._run_all()
        monkeypatch.setattr(CactiModel, "shared", classmethod(lambda cls, tech: cls(tech)))
        private = self._run_all()
        assert cold[0] == warm[0] == private[0]
        assert cold[1] == warm[1] == private[1]

    def test_concurrent_customize_over_shared_tables(self, cold_tables):
        serial = {spec: _customize(*spec) for spec in SPECS}
        # Start cold again so the threads fill the tables together.
        _clear_tables()
        got: dict = {}
        errors: list[BaseException] = []

        def run(spec):
            try:
                got[spec] = _customize(*spec)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(spec,)) for spec in SPECS + SPECS[:1]
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert got == serial
