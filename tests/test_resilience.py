"""Unit tests for the resilience layer, plus engine-lifecycle regressions.

Covers the pieces :mod:`tests.test_faults` exercises only end-to-end:
the :class:`RetryPolicy` backoff math, :class:`FaultPlan` determinism
and parsing, result integrity validation and the one rule the engine
applies to a violation (raise at once, store nothing) — and the pool's
lifecycle regressions: ``close()`` after a map task raised, task errors
of any type leaving the pool in place, a failed pool construction
leaving the engine honestly in serial mode, and map tasks that hang
past their deadline.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import pickle
import time
from pathlib import Path

import pytest

from repro.engine import (
    CRASH,
    HANG,
    EvaluationEngine,
    EventBus,
    FaultPlan,
    InjectedCrash,
    InjectedHang,
    ResultCache,
    ResultIntegrityError,
    RetryPolicy,
    validate_result,
)
from repro.engine.faults import enact
from repro.engine.resilience import parse_retry_after, quarantine_file
from repro.errors import EngineError
from repro.sim.interval import IntervalSimulator
from repro.sim.metrics import SimResult
from repro.tech import default_technology
from repro.uarch import initial_configuration
from repro.workloads.synthetic import branchy, streaming


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0,
                             backoff_max_s=0.5, jitter=0.25, seed=3)
        for attempt in range(1, 8):
            d1 = policy.delay_s("some-key", attempt)
            d2 = policy.delay_s("some-key", attempt)
            assert d1 == d2
            raw = min(0.1 * 2.0 ** (attempt - 1), 0.5)
            assert raw * 0.75 <= d1 <= raw * 1.25

    def test_delays_ramp_then_clamp(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_factor=4.0,
                             backoff_max_s=0.8, jitter=0.0)
        assert policy.delay_s("k", 1) == pytest.approx(0.1)
        assert policy.delay_s("k", 2) == pytest.approx(0.4)
        assert policy.delay_s("k", 3) == pytest.approx(0.8)  # clamped
        assert policy.delay_s("k", 9) == pytest.approx(0.8)

    def test_attempt_zero_and_different_keys(self):
        policy = RetryPolicy(jitter=0.25)
        assert policy.delay_s("k", 0) == 0.0
        assert policy.delay_s("a", 1) != policy.delay_s("b", 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"timeout_s": 0.0},
            {"backoff_base_s": -0.1},
            {"backoff_factor": 0.5},
            {"jitter": 1.5},
            {"pool_restarts": -2},
        ],
    )
    def test_invalid_policies_are_rejected(self, kwargs):
        with pytest.raises(EngineError):
            RetryPolicy(**kwargs)


@pytest.mark.parametrize(
    "headers, expected",
    [
        ({}, None),
        ({"Content-Type": "application/json"}, None),
        ({"Retry-After": "2"}, 2.0),
        ({"rEtRy-AfTeR": "0.5"}, 0.5),
        ({"Retry-After": "-3"}, 0.0),
        ({"Retry-After": "soon"}, None),
        ({"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}, None),
        ({"Retry-After": "nan"}, None),
    ],
    ids=["absent", "other-header", "seconds", "mixed-case", "negative",
         "non-numeric", "http-date", "nan"],
)
def test_parse_retry_after(headers, expected):
    assert parse_retry_after(headers) == expected


class TestFaultPlan:
    def test_decisions_are_pure_and_seeded(self):
        a = FaultPlan(seed=1, crash=0.3, hang=0.2)
        b = FaultPlan(seed=1, crash=0.3, hang=0.2)
        c = FaultPlan(seed=2, crash=0.3, hang=0.2)
        decisions_a = [a.fault_for(f"k{i}", j) for i in range(30) for j in range(3)]
        decisions_b = [b.fault_for(f"k{i}", j) for i in range(30) for j in range(3)]
        decisions_c = [c.fault_for(f"k{i}", j) for i in range(30) for j in range(3)]
        assert decisions_a == decisions_b
        assert decisions_a != decisions_c
        assert {CRASH, HANG} <= set(decisions_a)

    def test_budget_guarantees_forward_progress(self):
        plan = FaultPlan(seed=0, crash=1.0, max_faults_per_key=3)
        assert plan.expected_faults("key") == [CRASH, CRASH, CRASH]
        assert plan.fault_for("key", 3) is None

    def test_parse_round_trip_and_rejection(self):
        plan = FaultPlan.parse(
            "seed=7, crash=0.1, hang=0.05, "
            "hang-seconds=0.2, max-per-key=4, hard"
        )
        assert plan == FaultPlan(
            seed=7, crash=0.1, hang=0.05,
            hang_seconds=0.2, max_faults_per_key=4, hard_crash=True,
        )
        with pytest.raises(EngineError):
            FaultPlan.parse("crsh=0.1")
        with pytest.raises(EngineError):
            FaultPlan.parse("wrong=0.1")  # no result-level faults
        with pytest.raises(EngineError):
            FaultPlan.parse("crash=lots")
        with pytest.raises(EngineError):
            FaultPlan(crash=0.7, hang=0.7)  # rates sum past 1

    def test_enact_raises_the_right_faults(self):
        crash = FaultPlan(crash=1.0, max_faults_per_key=1)
        with pytest.raises(InjectedCrash):
            enact(crash, "k", 0)
        assert enact(crash, "k", 1) is None  # budget spent: runs clean
        hang = FaultPlan(hang=1.0, hang_seconds=0.0)
        with pytest.raises(InjectedHang):
            enact(hang, "k", 0)
        assert enact(FaultPlan(), "k", 0) is None

    def test_plans_survive_pickling(self):
        plan = FaultPlan(seed=9, crash=1.0, max_faults_per_key=1)
        copy = pickle.loads(pickle.dumps(plan))
        assert copy == plan
        assert copy.fault_for("k", 0) == CRASH
        assert copy.fault_for("k", 1) is None


class TestResultValidation:
    def make_result(self, name="streaming"):
        return SimResult(
            workload=name, instructions=1000, cycles=400.0, clock_period_ns=0.25
        )

    def test_accepts_good_results(self):
        result = self.make_result()
        assert validate_result(streaming(), result) is result

    def test_rejects_wrong_workload_and_wrong_type(self):
        with pytest.raises(ResultIntegrityError):
            validate_result(streaming(), self.make_result("branchy"))
        with pytest.raises(ResultIntegrityError):
            validate_result(streaming(), "not a result")

    def test_rejects_corrupted_results(self):
        good = self.make_result()
        for corrupt in (
            dataclasses.replace(good, workload=f"!corrupt!{good.workload}"),
            dataclasses.replace(good, cycles=float("nan")),
            dataclasses.replace(good, cycles=float("inf")),
        ):
            with pytest.raises(ResultIntegrityError):
                validate_result(streaming(), corrupt)

    def test_quarantine_file_moves_and_tolerates_absence(self, tmp_path):
        victim = tmp_path / "state.json"
        victim.write_text("garbage")
        target = quarantine_file(victim)
        assert target == tmp_path / "state.json.corrupt"
        assert not victim.exists() and target.read_text() == "garbage"
        # Already gone: no error, same target reported.
        assert quarantine_file(victim) == target


# ----------------------------------------------------------------------
# engine lifecycle regressions
# ----------------------------------------------------------------------


def _poisoned(value, error=ValueError):
    """Picklable map task that raises ``error`` on one item."""
    if value == 2:
        raise error("poisoned task")
    return value


def _pairs():
    config = initial_configuration(default_technology())
    return [(streaming(), config), (branchy(), config)]


@pytest.mark.usefixtures("many_cpus")
class TestEngineLifecycle:
    def test_close_after_exception_mid_batch(self):
        """Regression: a task raising mid-map used to leave the executor
        alive behind an engine that then hung on close."""
        engine = EvaluationEngine(jobs=2)
        with pytest.raises(ValueError, match="poisoned"):
            engine.map(_poisoned, [1, 2, 3])
        assert engine._executor is None  # torn down with the exception
        engine.close()  # must not hang or raise
        engine.close()  # idempotent

    def test_context_manager_exits_cleanly_after_worker_raise(self):
        with pytest.raises(ValueError, match="poisoned"):
            with EvaluationEngine(jobs=2) as engine:
                engine.map(_poisoned, [1, 2, 3])
        assert engine._executor is None

    @pytest.mark.parametrize("error", [ValueError, TypeError, AttributeError])
    def test_task_errors_propagate_and_keep_the_pool(self, error):
        """A task's own exception propagates whatever its type: a
        ``TypeError`` or ``AttributeError`` raised inside ``fn`` is not
        a pickling failure (payloads are checked before submission), so
        it neither disables the pool nor re-runs work in-process."""
        fallbacks = []
        bus = EventBus()
        bus.subscribe(lambda e, p: fallbacks.append(p) if e == "fallback" else None)
        with EvaluationEngine(jobs=2, events=bus) as engine:
            with pytest.raises(error, match="poisoned"):
                engine.map(functools.partial(_poisoned, error=error), [1, 2, 3])
            assert engine.mode == "pool"
            assert fallbacks == []
            assert engine.map(_poisoned, [1, 3]) == [1, 3]  # pool still serves

    def test_fault_plan_needs_a_pool(self, monkeypatch):
        """A plan acts on pooled map tasks only, so an engine that has no
        pool refuses one instead of silently ignoring it."""
        with pytest.raises(EngineError, match="needs a pool"):
            EvaluationEngine(jobs=1, faults=FaultPlan(crash=0.5))
        monkeypatch.setattr("repro.engine.pool.available_cpus", lambda: 1)
        with pytest.raises(EngineError, match="needs a pool"):
            EvaluationEngine(jobs=4, faults=FaultPlan(crash=0.5))
        # A plan that can inject nothing is not armed, so any engine takes it.
        assert EvaluationEngine(jobs=1, faults=FaultPlan()).faults is None

    def test_failed_pool_construction_degrades_honestly(self, monkeypatch):
        """Regression: when the pool cannot be built the engine must stop
        claiming pool mode (workers stays the requested count otherwise)
        and still produce results serially."""
        import repro.engine.pool as pool_mod

        def explode(*args, **kwargs):
            raise OSError("no processes for you")

        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", explode)
        engine = EvaluationEngine(jobs=4)
        assert engine.mode == "pool"
        results = engine.evaluate_many(_pairs())  # batches never need the pool
        assert engine.map(abs, [-1, -2]) == [1, 2]
        assert engine.mode == "serial"
        assert engine.workers == 1
        assert engine.metrics.fallbacks == 1
        # Later work stays serial without re-attempting the pool.
        assert engine.map(abs, [-3, -4]) == [3, 4]
        assert engine.evaluate_many(_pairs()) == results
        assert engine.metrics.fallbacks == 1
        engine.close()

    def test_fallback_also_applies_to_map(self, monkeypatch):
        import repro.engine.pool as pool_mod

        monkeypatch.setattr(
            pool_mod, "ProcessPoolExecutor",
            lambda *a, **k: (_ for _ in ()).throw(OSError("nope")),
        )
        engine = EvaluationEngine(jobs=4)
        assert engine.map(abs, [-1, -2, -3]) == [1, 2, 3]
        assert engine.mode == "serial" and engine.workers == 1
        engine.close()

    def test_pickled_engine_carries_policy_not_faults(self):
        """A worker's engine keeps the retry policy but not the plan: the
        parent enacts the plan on the whole map task, and a nested hang
        would overrun that task's deadline on every attempt."""
        policy = RetryPolicy(max_retries=7, backoff_base_s=0.0)
        plan = FaultPlan(seed=4, crash=0.5)
        engine = EvaluationEngine(jobs=2, policy=policy, faults=plan)
        woken = pickle.loads(pickle.dumps(engine))
        assert woken.workers == 1  # workers never nest pools
        assert woken.policy == policy
        assert engine.faults == plan and woken.faults is None
        engine.close()

    def test_map_survives_a_hung_task(self, tmp_path):
        """A map task overrunning the deadline is retried on a fresh pool
        and succeeds once the hang condition clears."""
        marker = tmp_path / "slept-once"
        policy = RetryPolicy(
            max_retries=5, timeout_s=0.3,
            backoff_base_s=0.001, backoff_max_s=0.01, pool_restarts=4,
        )
        engine = EvaluationEngine(jobs=2, policy=policy)
        try:
            out = engine.map(
                _sleep_once_then_double, [(i, str(marker)) for i in range(4)]
            )
        finally:
            engine.close()
        assert out == [0, 2, 4, 6]
        assert engine.metrics.timeouts >= 1
        assert engine.metrics.pool_restarts >= 1

    def test_map_exhausted_retries_raise_engine_error(self):
        policy = RetryPolicy(
            max_retries=1, timeout_s=0.15,
            backoff_base_s=0.0, pool_restarts=10,
        )
        engine = EvaluationEngine(jobs=2, policy=policy)
        try:
            with pytest.raises(EngineError, match="still failing"):
                engine.map(_sleep_forever, [1, 2])
        finally:
            engine.close()


def _sleep_once_then_double(arg):
    value, marker = arg
    path = Path(marker)
    if value == 1 and not path.exists():
        path.touch()
        time.sleep(2.0)
    return value * 2


def _sleep_forever(value):
    time.sleep(30.0)
    return value


# ----------------------------------------------------------------------
# the one integrity rule: a bad result raises at once, and is not stored
# ----------------------------------------------------------------------


class _Mislabelling:
    """A simulator that mislabels the result of one configuration and
    counts every (profile, config) pair it simulates."""

    cache_version = "mislabelling-test"

    def __init__(self, bad_config):
        self.inner = IntervalSimulator()
        self.bad_config = bad_config
        self.simulated = 0

    def evaluate(self, profile, config):
        self.simulated += 1
        result = self.inner.evaluate(profile, config)
        if config == self.bad_config:
            return dataclasses.replace(result, workload="someone-else")
        return result

    def evaluate_batch(self, profile, configs):
        return [self.evaluate(profile, config) for config in configs]


class TestIntegrityRule:
    """``evaluate``, ``evaluate_many`` and ``simulate_many`` share one
    rule: a result failing validation raises
    :class:`ResultIntegrityError` after one simulation of each pair —
    no retries — and leaves no cache row for the bad pair."""

    @pytest.fixture()
    def setup(self):
        good = initial_configuration(default_technology())
        bad = good.replace(rob_size=good.rob_size * 2)
        simulator = _Mislabelling(bad)
        cache = ResultCache()
        engine = EvaluationEngine(simulator=simulator, cache=cache)
        return engine, simulator, cache, good, bad

    def test_evaluate_raises_after_one_call(self, setup):
        engine, simulator, cache, _, bad = setup
        with pytest.raises(ResultIntegrityError, match="someone-else"):
            engine.evaluate(streaming(), bad)
        assert simulator.simulated == 1
        assert engine.key_for(streaming(), bad) not in cache
        assert engine.metrics.retries == 0

    def test_evaluate_many_raises_after_one_call_per_pair(self, setup):
        engine, simulator, cache, good, bad = setup
        pairs = [(streaming(), good), (streaming(), bad)]
        with pytest.raises(ResultIntegrityError, match="someone-else"):
            engine.evaluate_many(pairs)
        assert simulator.simulated == len(pairs)
        assert engine.key_for(streaming(), bad) not in cache
        assert engine.metrics.retries == 0

    def test_simulate_many_raises_after_one_call_per_pair(self, setup):
        engine, simulator, cache, good, bad = setup
        pairs = [(streaming(), good), (streaming(), bad), (branchy(), good)]
        with pytest.raises(ResultIntegrityError, match="someone-else"):
            engine.simulate_many(pairs)
        assert simulator.simulated == len(pairs)
        assert len(cache) == 0
        assert engine.metrics.retries == 0

    def test_uncached_engine_follows_the_same_rule(self, setup):
        _, simulator, _, good, bad = setup
        engine = EvaluationEngine(simulator=simulator, cache=None)
        with pytest.raises(ResultIntegrityError):
            engine.evaluate(streaming(), bad)
        with pytest.raises(ResultIntegrityError):
            engine.evaluate_many([(streaming(), good), (streaming(), bad)])
        assert simulator.simulated == 3
