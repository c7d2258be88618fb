"""Evaluation engine: caching, batch dedup, map parallelism, fallbacks."""

import dataclasses

import pytest

import repro.engine.pool as pool_mod
from repro.engine import EvaluationEngine, EventBus, digest, evaluation_key, simulator_id
from repro.engine.pool import available_cpus
from repro.errors import EngineError
from repro.workloads import spec2000_profile

from .walks import generate_configs


@pytest.fixture()
def pair(initial_config):
    return spec2000_profile("gzip"), initial_config


class TestEvaluate:
    def test_caches_repeat_requests(self, pair):
        engine = EvaluationEngine()
        first = engine.evaluate(*pair)
        second = engine.evaluate(*pair)
        assert first.ipt == second.ipt
        assert engine.metrics.evaluations == 1
        assert engine.metrics.cache_hits == 1

    def test_no_cache_mode_always_simulates(self, pair):
        engine = EvaluationEngine(cache=None)
        engine.evaluate(*pair)
        engine.evaluate(*pair)
        assert engine.metrics.evaluations == 2
        assert engine.metrics.cache_hits == 0

    def test_rejects_bad_jobs(self):
        with pytest.raises(EngineError):
            EvaluationEngine(jobs=0)


class TestEvaluateMany:
    def test_preserves_order(self, initial_config):
        profiles = [spec2000_profile(n) for n in ("gzip", "mcf", "twolf")]
        pairs = [(p, initial_config) for p in profiles]
        results = EvaluationEngine().evaluate_many(pairs)
        assert [r.workload for r in results] == ["gzip", "mcf", "twolf"]

    def test_dedups_within_batch(self, pair):
        engine = EvaluationEngine()
        results = engine.evaluate_many([pair] * 7)
        assert len(results) == 7
        assert engine.metrics.evaluations == 1
        assert len({id(r) for r in results}) == 1  # literally the same object

    def test_dedups_against_cache(self, pair):
        engine = EvaluationEngine()
        engine.evaluate(*pair)
        engine.evaluate_many([pair, pair])
        assert engine.metrics.evaluations == 1

    def test_empty_batch(self):
        assert EvaluationEngine().evaluate_many([]) == []

    def test_parallel_matches_serial(self, initial_config, many_cpus):
        profiles = [spec2000_profile(n) for n in ("gzip", "mcf", "gcc", "vpr")]
        configs = [initial_config, initial_config.replace(width=4)]
        pairs = [(p, c) for p in profiles for c in configs]
        serial = EvaluationEngine(jobs=1).evaluate_many(pairs)
        with EvaluationEngine(jobs=2) as parallel_engine:
            parallel = parallel_engine.evaluate_many(pairs)
        assert [r.ipt for r in serial] == [r.ipt for r in parallel]

    def test_pooled_engine_batches_in_process(
        self, initial_config, many_cpus, monkeypatch
    ):
        """Batches never touch the pool: a jobs=4 engine starts no
        process pool, emits no task span, and matches jobs=1 exactly."""
        profiles = [spec2000_profile(n) for n in ("gzip", "mcf", "gcc", "vpr")]
        configs = [initial_config, initial_config.replace(width=4)]
        pairs = [(p, c) for p in profiles for c in configs] * 2
        serial = EvaluationEngine(jobs=1).evaluate_many(pairs)

        def no_pool(*args, **kwargs):
            raise AssertionError("evaluate_many started a process pool")

        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", no_pool)
        engine = EvaluationEngine(jobs=4)
        assert engine.workers == 4 and engine.mode == "pool"
        engine.events.tracing = True
        seen = []
        engine.events.subscribe(lambda event, payload: seen.append(event))
        with engine:
            pooled = engine.evaluate_many(pairs)
        assert pooled == serial
        assert "task_span" not in seen and "batch" in seen
        assert engine._executor is None
        assert engine.metrics.fallbacks == 0


class TestMap:
    def test_serial_map(self):
        engine = EvaluationEngine()
        assert engine.map(abs, [-1, 2, -3]) == [1, 2, 3]

    def test_parallel_map_preserves_order(self, many_cpus):
        with EvaluationEngine(jobs=2) as engine:
            assert engine.map(abs, list(range(-8, 0))) == list(range(1, 9))[::-1]

    def test_unpicklable_work_falls_back_to_serial(self, many_cpus):
        with EvaluationEngine(jobs=2) as engine:
            out = engine.map(lambda x: x + 1, [1, 2, 3])  # lambdas don't pickle
        assert out == [2, 3, 4]
        assert engine.metrics.fallbacks == 1


class TestJobClamping:
    def test_workers_bounded_by_available_cpus(self):
        engine = EvaluationEngine(jobs=512)
        assert engine.jobs == 512
        assert engine.workers <= available_cpus()

    def test_clamp_opt_out_honors_request(self, many_cpus):
        # Lifting the CPU bound is the only way past the clamp.
        assert EvaluationEngine(jobs=3).workers == 3

    def test_serial_never_clamped_up(self):
        assert EvaluationEngine(jobs=1).workers == 1


class TestContext:
    def test_context_changes_keys(self, pair):
        a = EvaluationEngine(context="tech-a")
        b = EvaluationEngine(context="tech-b")
        assert a.key_for(*pair) != b.key_for(*pair)

    def test_rebinding_different_context_raises(self):
        engine = EvaluationEngine(context="tech-a")
        with pytest.raises(EngineError):
            engine.bind_context("tech-b")

    def test_rebinding_same_context_ok(self):
        engine = EvaluationEngine(context="tech-a")
        engine.bind_context("tech-a")

    def test_key_for_matches_evaluation_key(self, tech):
        engine = EvaluationEngine(context=tech)
        identity = {"simulator": simulator_id(engine.simulator), "context": digest(tech)}
        gzip = spec2000_profile("gzip")
        # Alternating, repeated and equal-but-distinct profile objects.
        profiles = [gzip, spec2000_profile("mcf"), gzip, dataclasses.replace(gzip)]
        for profile in profiles:
            for config in generate_configs(6, seed=2):
                assert engine.key_for(profile, config) == evaluation_key(
                    profile, config, **identity
                )

    def test_bind_context_drops_the_kept_prefix(self, pair):
        engine = EvaluationEngine()
        simulator = simulator_id(engine.simulator)
        unbound = engine.key_for(*pair)
        assert unbound == evaluation_key(*pair, simulator=simulator)
        engine.bind_context("tech-a")
        assert getattr(engine, "_kept_prefix", None) is None
        bound = engine.key_for(*pair)
        assert bound == evaluation_key(*pair, simulator=simulator, context=digest("tech-a"))
        assert bound != unbound


class TestPickling:
    def test_engine_wakes_up_serial_and_private(self, pair):
        import pickle

        engine = EvaluationEngine(jobs=4)
        engine.evaluate(*pair)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.jobs == 1
        assert clone.metrics.evaluations == 0
        assert clone.key_for(*pair) == engine.key_for(*pair)  # same identity
        engine.close()


class TestEvents:
    def test_phase_timing_recorded(self):
        engine = EvaluationEngine()
        with engine.phase("warmup"):
            pass
        assert "warmup" in engine.metrics.phase_seconds

    def test_external_subscriber_sees_events(self, pair):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda event, payload: seen.append(event))
        engine = EvaluationEngine(events=bus)
        engine.evaluate(*pair)
        assert "cache_miss" in seen and "evaluation" in seen

    def test_summary_renders(self, pair):
        engine = EvaluationEngine()
        engine.evaluate(*pair)
        engine.evaluate(*pair)
        text = engine.metrics.summary()
        assert "1 simulated" in text
        assert "50.0% hit rate" in text
