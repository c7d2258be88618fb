"""Determinism and cache-economy guarantees of the evaluation engine.

The two contract-level promises from the engine work:

* ``customize_all`` is bit-identical across ``jobs=1`` and ``jobs=4`` for
  a fixed seed — parallelism must never change results;
* a second run against a warm disk cache reports a 100% hit rate and
  performs zero simulator invocations, and a warm ``cross_performance``
  fill simulates nothing.
"""

import time

import pytest

from repro.characterize import cross_performance
from repro.engine import EvaluationEngine, ResultCache
from repro.engine.pool import available_cpus
from repro.explore import AnnealingSchedule, XpScalar
from repro.workloads import spec2000_profile, spec2000_profiles

SUITE = ("gzip", "mcf", "twolf", "gcc")
SEED = 2008
ROUNDS = 1
ITERATIONS = 150


def _suite():
    return [spec2000_profile(n) for n in SUITE]


def _explorer(jobs=1, cache_path=None):
    cache = ResultCache(cache_path) if cache_path else ResultCache()
    engine = EvaluationEngine(jobs=jobs, cache=cache)
    return XpScalar(schedule=AnnealingSchedule(iterations=ITERATIONS), engine=engine)


def _run(explorer):
    return explorer.customize_all(_suite(), seed=SEED, cross_seed_rounds=ROUNDS)


class TestParallelDeterminism:
    def test_jobs4_matches_jobs1_bit_for_bit(self, many_cpus):
        serial = _run(_explorer(jobs=1))
        # many_cpus: the pool must really run, even on 1-core CI.
        with EvaluationEngine(jobs=4, cache=ResultCache()) as engine:
            parallel = _run(
                XpScalar(schedule=AnnealingSchedule(iterations=ITERATIONS), engine=engine)
            )
        assert set(serial) == set(parallel)
        for name in serial:
            assert serial[name].config == parallel[name].config, name
            assert serial[name].score == parallel[name].score, name
            assert serial[name].result.ipt == parallel[name].result.ipt, name
            assert serial[name].cross_seeded_from == parallel[name].cross_seeded_from, name

    def test_reruns_are_self_identical(self):
        first = _run(_explorer())
        second = _run(_explorer())
        for name in first:
            assert first[name].config == second[name].config
            assert first[name].score == second[name].score


class TestWarmCache:
    def test_second_run_is_all_hits_zero_simulations(self, tmp_path):
        path = tmp_path / "results.sqlite"

        cold = _explorer(cache_path=path)
        baseline = _run(cold)
        assert cold.engine.metrics.evaluations > 0
        cold.engine.close()

        warm = _explorer(cache_path=path)
        replay = _run(warm)
        assert warm.engine.metrics.evaluations == 0
        assert warm.engine.metrics.cache_hits > 0
        assert warm.engine.metrics.hit_rate == 1.0
        warm.engine.close()

        for name in baseline:
            assert replay[name].config == baseline[name].config
            assert replay[name].score == baseline[name].score

    def test_cross_matrix_simulates_nothing_when_warm(self):
        explorer = _explorer()
        results = _run(explorer)
        configs = {name: res.config for name, res in results.items()}

        # customize_all's consistency pass already simulated every
        # (workload, customized-config) pair, so the N x N fill must be
        # served from cache end to end.
        before = explorer.engine.metrics.evaluations
        cross = cross_performance(explorer, _suite(), configs)
        assert explorer.engine.metrics.evaluations == before
        assert cross.ipt.shape == (len(SUITE), len(SUITE))
        for i, name in enumerate(SUITE):
            assert cross.ipt[i, i] == pytest.approx(results[name].score)

    def test_repeat_cross_matrix_is_also_free(self):
        explorer = _explorer()
        results = _run(explorer)
        configs = {name: res.config for name, res in results.items()}
        first = cross_performance(explorer, _suite(), configs)
        before = explorer.engine.metrics.evaluations
        second = cross_performance(explorer, _suite(), configs)
        assert explorer.engine.metrics.evaluations == before
        assert (first.ipt == second.ipt).all()


@pytest.mark.skipif(
    available_cpus() < 4, reason="parallel speedup needs >= 4 usable cores"
)
def test_jobs4_at_least_twice_as_fast_as_serial():
    """The acceptance bar: the full 11-benchmark customization with
    jobs=4 beats serial by >= 2x (and matches it bit for bit)."""

    def run(jobs):
        engine = EvaluationEngine(jobs=jobs, cache=ResultCache())
        xp = XpScalar(schedule=AnnealingSchedule(iterations=1500), engine=engine)
        start = time.perf_counter()
        results = xp.customize_all(spec2000_profiles(), seed=2008, cross_seed_rounds=1)
        elapsed = time.perf_counter() - start
        engine.close()
        return elapsed, {n: (r.config, r.score) for n, r in results.items()}

    serial_time, serial = run(1)
    parallel_time, parallel = run(4)
    assert serial == parallel
    assert serial_time / parallel_time >= 2.0
