"""Checkpoint/resume: atomic saves, signature guards, customize_all restarts."""

import json

import pytest

from repro.engine import CheckpointManager, EvaluationEngine
from repro.engine.serialize import (
    search_result_from_jsonable,
    search_result_to_jsonable,
)
from repro.errors import EngineError
from repro.explore import AnnealingSchedule, SweepPoint, XpScalar
from repro.explore.sweep import _point_from_state, _point_to_state
from repro.explore.xpscalar import (
    ExplorationResult,
    _result_from_state,
    _result_to_state,
)
from repro.search import SearchResult
from repro.workloads import spec2000_profile

#: The checkpoint text of :func:`fixed_search_result`, as suite and
#: sweep checkpoints have always stored it.
PINNED_SEARCH_JSON = (
    '{"best_state": {"__kind__": "CoreConfig", "__version__": 1, '
    '"clock_period_ns": 0.33, "width": 3, "rob_size": 128, "iq_size": '
    '64, "lsq_size": 64, "wakeup_latency": 1, "scheduler_depth": 2, '
    '"lsq_depth": 2, "frontend_stages": 7, "memory_cycles": 172, "l1": '
    '{"nsets": 256, "assoc": 2, "block_bytes": 64, "latency_cycles": '
    '4}, "l2": {"nsets": 1024, "assoc": 2, "block_bytes": 128, '
    '"latency_cycles": 12}, "core_type": "ooo"}, "best_score": '
    '0.30000000000000004, "evaluations": 7, "accepted": 3, '
    '"rollbacks": 1, "history": [0.25, 0.25, 0.30000000000000004], '
    '"stop_reason": "plateau"}'
)


def fixed_search_result(config) -> SearchResult:
    return SearchResult(
        best_state=config,
        best_score=0.1 + 0.2,
        evaluations=7,
        accepted=3,
        rollbacks=1,
        history=[0.25, 0.25, 0.1 + 0.2],
        stop_reason="plateau",
    )


@pytest.fixture()
def manager(tmp_path):
    return CheckpointManager(tmp_path / "runs" / "checkpoint.json")


class TestManager:
    def test_save_then_load(self, manager):
        manager.save("sig", {"stage": "explore", "done": ["gzip"]})
        assert manager.exists
        state = manager.load("sig")
        assert state == {"stage": "explore", "done": ["gzip"]}

    def test_missing_file_loads_none(self, manager):
        assert manager.load("sig") is None

    def test_signature_mismatch_loads_none(self, manager):
        manager.save("sig-a", {"stage": "done"})
        assert manager.load("sig-b") is None

    def test_corrupt_file_loads_none(self, manager):
        manager.save("sig", {"stage": "done"})
        manager.path.write_text("{truncated", encoding="utf-8")
        assert manager.load("sig") is None

    def test_foreign_json_loads_none(self, manager):
        manager.path.parent.mkdir(parents=True, exist_ok=True)
        manager.path.write_text(json.dumps({"random": "blob"}), encoding="utf-8")
        assert manager.load("sig") is None

    def test_save_overwrites_atomically(self, manager):
        manager.save("sig", {"stage": "explore"})
        manager.save("sig", {"stage": "done"})
        assert manager.load("sig") == {"stage": "done"}
        leftovers = [p for p in manager.path.parent.iterdir() if p != manager.path]
        assert leftovers == []  # no tmp files abandoned

    def test_unserializable_state_raises(self, manager):
        with pytest.raises(EngineError):
            manager.save("sig", {"bad": object()})

    def test_clear(self, manager):
        manager.save("sig", {"stage": "done"})
        manager.clear()
        assert not manager.exists
        manager.clear()  # idempotent


class TestSearchResultCodec:
    def test_encoding_is_pinned(self, initial_config):
        encoded = search_result_to_jsonable(fixed_search_result(initial_config))
        assert json.dumps(encoded) == PINNED_SEARCH_JSON

    def test_round_trip_is_bit_exact(self, initial_config):
        decoded = search_result_from_jsonable(json.loads(PINNED_SEARCH_JSON))
        assert decoded == fixed_search_result(initial_config)

    def test_suite_and_sweep_checkpoints_share_the_codec(self, initial_config):
        search = fixed_search_result(initial_config)
        sim = XpScalar().evaluate(spec2000_profile("gzip"), initial_config)
        explored = ExplorationResult("gzip", initial_config, 1.0, sim, annealing=search)
        point = SweepPoint(0.5, 0.3, initial_config, search=search)
        suite_state = json.loads(json.dumps(_result_to_state(explored)))
        sweep_state = json.loads(json.dumps(_point_to_state(point)))
        assert json.dumps(suite_state["annealing"]) == PINNED_SEARCH_JSON
        assert json.dumps(sweep_state["search"]) == PINNED_SEARCH_JSON
        assert _result_from_state(suite_state).annealing == search
        assert _point_from_state(sweep_state).search == search


class TestCustomizeAllResume:
    @staticmethod
    def _explorer():
        return XpScalar(schedule=AnnealingSchedule(iterations=150))

    def test_resume_of_finished_run_simulates_nothing(self, tmp_path):
        profiles = [spec2000_profile(n) for n in ("gzip", "mcf")]
        manager = CheckpointManager(tmp_path / "checkpoint.json")

        first = self._explorer()
        baseline = first.customize_all(
            profiles, seed=7, cross_seed_rounds=1, checkpoint=manager
        )

        # A brand-new explorer (cold cache, fresh engine) resuming from
        # the "done" checkpoint must replay the stored results verbatim.
        second = self._explorer()
        resumed = second.customize_all(
            profiles, seed=7, cross_seed_rounds=1, checkpoint=manager, resume=True
        )
        assert second.engine.metrics.evaluations == 0
        assert set(resumed) == set(baseline)
        for name in baseline:
            assert resumed[name].config == baseline[name].config
            assert resumed[name].score == baseline[name].score
            assert resumed[name].result.ipt == baseline[name].result.ipt

    def test_resume_ignored_when_signature_differs(self, tmp_path):
        profiles = [spec2000_profile(n) for n in ("gzip", "mcf")]
        manager = CheckpointManager(tmp_path / "checkpoint.json")

        first = self._explorer()
        first.customize_all(profiles, seed=7, cross_seed_rounds=1, checkpoint=manager)

        # Different seed -> different run signature -> full fresh run.
        second = self._explorer()
        second.customize_all(
            profiles, seed=8, cross_seed_rounds=1, checkpoint=manager, resume=True
        )
        assert second.engine.metrics.evaluations > 0

    def test_without_resume_flag_checkpoint_is_overwritten(self, tmp_path):
        profiles = [spec2000_profile("gzip")]
        manager = CheckpointManager(tmp_path / "checkpoint.json")
        explorer = self._explorer()
        explorer.customize_all(
            profiles, seed=3, cross_seed_rounds=0, checkpoint=manager
        )
        state = manager.load(explorer.run_signature(["gzip"], 3, 0))
        assert state is not None
        assert state["stage"] == "done"


class TestEnginePickleIsolation:
    def test_engine_round_trip_keeps_simulator_identity(self):
        import pickle

        engine = EvaluationEngine(jobs=2)
        clone = pickle.loads(pickle.dumps(engine))
        assert type(clone.simulator) is type(engine.simulator)
        engine.close()
