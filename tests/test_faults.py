"""Fault-matrix tests: every failure mode the engine recovers from.

The contract under test is the strongest one the engine makes: *faults
change nothing but timing*.  Pooled map tasks (whole per-workload
searches) that crash, kill their worker or hang past the deadline under
an armed :class:`~repro.engine.faults.FaultPlan` must

* complete (the per-key fault budget guarantees forward progress),
* produce results bit-identical to a fault-free run, and
* emit exactly the ``retry`` events the plan predicts (faults are
  deterministic per ``(seed, key, attempt)``, so the event stream is a
  pure function of the plan).

A corrupted cache row and a truncated checkpoint, at both ``jobs=1``
and ``jobs=4``, must be quarantined and recomputed to the same results.
In-process evaluation has no injected faults: it is deterministic, so a
bad result raises at once (``tests/test_resilience.py``).

``REPRO_FAULT_MATRIX_SEED`` selects the plan seed (default 2008, the
suite's canonical seed); the nightly CI job sweeps several.  Assertions
about *specific trigger counts* are only made at ``MATRIX_SEEDS`` — at
other seeds the tests still verify completion, bit-identity and
plan/event agreement.
"""

from __future__ import annotations

import json
import os
import sqlite3
from pathlib import Path

import pytest

from repro.engine import (
    CRASH,
    HANG,
    CheckpointManager,
    EvaluationEngine,
    EventBus,
    FaultPlan,
    ResultCache,
    RetryPolicy,
)
from repro.engine.cache import _checksum
from repro.engine.serialize import PACKED_TAG, decode_row, simresult_to_jsonable
from repro.explore import AnnealingSchedule, XpScalar
from repro.errors import EngineError
from repro.tech import default_technology
from repro.uarch import initial_configuration
from repro.workloads.synthetic import (
    branchy,
    compute_kernel,
    pointer_chasing,
    streaming,
)

SEED = int(os.environ.get("REPRO_FAULT_MATRIX_SEED", "2008"))

#: The seeds the nightly job sweeps; every map-level case below is known
#: to trigger at each of them (other seeds still check completion,
#: bit-identity and plan/event agreement).
MATRIX_SEEDS = (11, 23, 2008)

#: Every jobs>1 engine here really gets its workers, even on a small runner.
pytestmark = pytest.mark.usefixtures("many_cpus")

#: Reason labels the engine emits per injected fault kind.
REASON = {CRASH: "crash", HANG: "hang"}

#: Generous budgets: fault plans below stay well inside them, so a
#: completed run is guaranteed, not probabilistic.
POLICY = RetryPolicy(
    max_retries=10,
    backoff_base_s=0.001,
    backoff_max_s=0.01,
    pool_restarts=8,
)


@pytest.fixture(scope="module")
def pairs():
    config = initial_configuration(default_technology())
    configs = [config, config.replace(rob_size=config.rob_size * 2)]
    profiles = [compute_kernel(), branchy(), pointer_chasing(), streaming()]
    return [(p, c) for p in profiles for c in configs]


@pytest.fixture(scope="module")
def clean_results(pairs):
    with EvaluationEngine(jobs=1) as engine:
        return engine.evaluate_many(pairs)


# ----------------------------------------------------------------------
# map granularity: whole per-workload searches across the pool
# ----------------------------------------------------------------------

SUITE_ITERATIONS = 60


def _suite():
    return [compute_kernel(), branchy(), pointer_chasing(), streaming()]


def _outcomes(results):
    return {n: (r.config, r.score, r.result) for n, r in results.items()}


@pytest.fixture(scope="module")
def warm_suite():
    """A clean ``jobs=1`` suite run and the cache it leaves warm.

    Pooled runs share the cache, so the parent's own evaluations (the
    consistency pass) are all hits and every fault the parent sees is a
    map fault; workers evaluate into private caches and run clean.
    """
    cache = ResultCache()
    xp = XpScalar(
        schedule=AnnealingSchedule(iterations=SUITE_ITERATIONS),
        engine=EvaluationEngine(jobs=1, cache=cache),
    )
    return cache, _outcomes(xp.customize_all(_suite(), seed=5, cross_seed_rounds=0))


def _customize_pooled(cache, plan, policy=POLICY):
    """``customize_all`` at ``jobs=4``; returns (outcomes, events, engine)."""
    events = []
    bus = EventBus()
    bus.subscribe(lambda e, p: events.append((e, p)))
    engine = EvaluationEngine(
        jobs=4, cache=cache, events=bus, policy=policy, faults=plan
    )
    xp = XpScalar(schedule=AnnealingSchedule(iterations=SUITE_ITERATIONS), engine=engine)
    try:
        results = xp.customize_all(_suite(), seed=5, cross_seed_rounds=0)
    finally:
        engine.close()
    return _outcomes(results), events, engine


def _map_faults(plan):
    return [plan.expected_faults(f"map:{i}") for i in range(len(_suite()))]


@pytest.mark.parametrize("kind", [CRASH, HANG])
def test_map_soft_faults_are_invisible_and_fully_predicted(kind, warm_suite):
    cache, clean = warm_suite
    plan = FaultPlan(seed=SEED, hang_seconds=0.01, **{kind: 0.4})
    outcomes, events, engine = _customize_pooled(cache, plan)

    assert outcomes == clean
    expected = sorted(
        (f"map:{i}", attempt + 1, REASON[fault])
        for i, faults in enumerate(_map_faults(plan))
        for attempt, fault in enumerate(faults)
    )
    observed = sorted(
        (p["key"], p["attempt"], p["reason"]) for e, p in events if e == "retry"
    )
    assert observed == expected
    if SEED in MATRIX_SEEDS:
        assert expected, "matrix seeds should trigger this kind"
    assert engine.metrics.pool_restarts == 0 and engine.mode == "pool"


def test_hard_crash_really_breaks_and_restarts_the_pool(warm_suite):
    cache, clean = warm_suite
    plan = FaultPlan(seed=SEED, crash=0.4, hard_crash=True)
    outcomes, _, engine = _customize_pooled(cache, plan)
    assert outcomes == clean
    # At most 2 faults per key x 4 keys <= the 8 allowed restarts.
    assert engine.metrics.fallbacks == 0
    expect_any = any(CRASH in faults for faults in _map_faults(plan))
    if SEED in MATRIX_SEEDS:
        assert expect_any
    if expect_any:
        assert engine.metrics.pool_restarts >= 1


def test_hangs_past_the_deadline_time_out_and_recover(warm_suite):
    cache, clean = warm_suite
    plan = FaultPlan(seed=SEED, hang=0.4, hang_seconds=3.0)
    policy = RetryPolicy(
        max_retries=10,
        timeout_s=1.0,
        backoff_base_s=0.001,
        backoff_max_s=0.01,
        pool_restarts=8,
    )
    outcomes, events, engine = _customize_pooled(cache, plan, policy)
    assert outcomes == clean
    # Only map tasks hang (worker engines carry no plan), so the pool
    # outlives them: at most 2 hangs per key x 4 keys <= 8 restarts.
    assert engine.metrics.fallbacks == 0
    expect_any = any(HANG in faults for faults in _map_faults(plan))
    if SEED in MATRIX_SEEDS:
        assert expect_any
    if expect_any:
        names = {e for e, _ in events}
        assert {"task_timeout", "pool_restart"} <= names
        assert engine.metrics.timeouts >= 1
        assert engine.metrics.pool_restarts >= 1


def test_map_tasks_exhausting_retries_raise_engine_error(warm_suite):
    cache, _ = warm_suite
    plan = FaultPlan(seed=SEED, crash=1.0, max_faults_per_key=5)
    policy = RetryPolicy(max_retries=2, backoff_base_s=0.0)
    with pytest.raises(EngineError, match="still failing after 3 attempts"):
        _customize_pooled(cache, plan, policy)


@pytest.mark.parametrize("row_format", ["json", "packed"])
@pytest.mark.parametrize("jobs", [1, 4])
def test_corrupted_cache_row_is_quarantined_and_resimulated(
    jobs, row_format, tmp_path, pairs, clean_results
):
    db = tmp_path / "results.sqlite"
    with EvaluationEngine(jobs=1, cache=ResultCache(db)) as warm:
        assert warm.evaluate_many(pairs) == clean_results

    conn = sqlite3.connect(db)
    key, value = conn.execute("SELECT key, value FROM results LIMIT 1").fetchone()
    assert value.startswith(PACKED_TAG)
    if row_format == "json":
        # Rewrite the row as a checksummed JSON row (the format older
        # stores hold), then rename a field inside its text.
        value = json.dumps(
            simresult_to_jsonable(decode_row(value)), separators=(",", ":")
        )
        conn.execute(
            "UPDATE results SET value = ?, checksum = ? WHERE key = ?",
            (value, _checksum(value), key),
        )
        conn.execute(
            "UPDATE results SET value = replace(value, '\"cycles\"', '\"cyc1es\"') "
            "WHERE key = ?",
            (key,),
        )
    else:
        # Change one character of the packed payload.
        flipped = "B" if value[5] == "A" else "A"
        conn.execute(
            "UPDATE results SET value = ? WHERE key = ?",
            (value[:5] + flipped + value[6:], key),
        )
    (stored,) = conn.execute("SELECT value FROM results WHERE key = ?", (key,)).fetchone()
    assert stored != value
    conn.commit()
    conn.close()

    quarantines = []
    bus = EventBus()
    bus.subscribe(lambda e, p: quarantines.append(p) if e == "quarantine" else None)
    engine = EvaluationEngine(jobs=jobs, cache=ResultCache(db), events=bus)
    try:
        assert engine.evaluate_many(pairs) == clean_results
    finally:
        engine.close()
    assert [q["key"] for q in quarantines] == [key]
    assert quarantines[0]["tier"] == "cache"
    assert engine.metrics.quarantines == 1
    # The re-simulated row replaced the corrupt one: a third reader hits.
    with EvaluationEngine(jobs=1, cache=ResultCache(db)) as reread:
        assert reread.evaluate_many(pairs) == clean_results
        assert reread.metrics.evaluations == 0


@pytest.mark.parametrize("jobs", [1, 4])
def test_truncated_checkpoint_is_quarantined_and_rerun(jobs, tmp_path):
    profiles = [compute_kernel(), branchy()]
    path = tmp_path / "checkpoint.json"

    def explore(resume):
        xp = XpScalar(
            schedule=AnnealingSchedule(iterations=60),
            engine=EvaluationEngine(jobs=jobs),
        )
        try:
            return xp, xp.customize_all(
                profiles,
                seed=5,
                cross_seed_rounds=1,
                checkpoint=CheckpointManager(path),
                resume=resume,
            )
        finally:
            xp.engine.close()

    _, reference = explore(resume=False)
    assert path.exists()
    # Truncate mid-file: the payload no longer parses.
    path.write_text(path.read_text()[: path.stat().st_size // 2])

    xp, rerun = explore(resume=True)
    assert {n: r.config for n, r in rerun.items()} == {
        n: r.config for n, r in reference.items()
    }
    assert {n: r.score for n, r in rerun.items()} == {
        n: r.score for n, r in reference.items()
    }
    assert xp.engine.metrics.quarantines == 1
    assert (tmp_path / "checkpoint.json.corrupt").exists()
    # The rerun saved a fresh, valid checkpoint over the quarantined one.
    assert json.loads(path.read_text())["version"] == 2
