"""Fair-share scheduler and job-vocabulary tests for the service.

Covers the three admission/dispatch rules (bounded queues → 429,
round-robin fairness, per-tenant running caps + budget capping) plus
the :class:`JobSpec` canonicalization the shared result store depends
on: equal requests must digest equal, invalid requests must fail with
:class:`ServeError` before they ever reach an engine.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.errors import QueueFullError, ServeError
from repro.search import SearchBudget
from repro.serve import FairShareScheduler, TenantPolicy
from repro.serve.jobs import Job, JobSpec, merge_budgets


def make_job(job_id: str, tenant: str = "anon", **payload) -> Job:
    body = {"kind": "customize", "benchmarks": ["gzip"], **payload}
    return Job(id=job_id, tenant=tenant, spec=JobSpec.from_payload(body))


# ----------------------------------------------------------------------
# JobSpec canonicalization
# ----------------------------------------------------------------------


def test_equal_requests_have_equal_digests():
    sparse = JobSpec.from_payload({"kind": "customize", "benchmarks": ["gzip"]})
    explicit = JobSpec.from_payload(
        {
            "kind": "customize",
            "benchmarks": ["gzip"],
            "iterations": 2500,
            "seed": 0,
            "strategy": "anneal",
            "restarts": 4,
        }
    )
    assert sparse == explicit
    assert sparse.content_digest == explicit.content_digest
    different = JobSpec.from_payload(
        {"kind": "customize", "benchmarks": ["gzip"], "seed": 1}
    )
    assert different.content_digest != sparse.content_digest


@pytest.mark.parametrize(
    "payload, match",
    [
        ({"kind": "nope", "benchmarks": ["gzip"]}, "unknown job kind"),
        ({"kind": "customize"}, "benchmarks"),
        ({"kind": "customize", "benchmarks": ["quake3"]}, "unknown benchmarks"),
        ({"kind": "sweep", "benchmarks": ["gzip", "mcf"]}, "exactly one"),
        (
            {"kind": "customize", "benchmarks": ["gzip"], "iterations": 0},
            "iterations",
        ),
        (
            {"kind": "customize", "benchmarks": ["gzip"], "strategy": "magic"},
            "unknown strategy",
        ),
        (
            {"kind": "customize", "benchmarks": ["gzip"], "clocks": [1.0]},
            "clocks only apply to sweep",
        ),
        (
            {"kind": "customize", "benchmarks": ["gzip"], "surprise": 1},
            "unknown job fields",
        ),
        ("not even a dict", "JSON object"),
    ],
)
def test_invalid_payloads_raise_serve_error(payload, match):
    with pytest.raises(ServeError, match=match):
        JobSpec.from_payload(payload)


def test_budget_round_trips_through_spec():
    spec = JobSpec.from_payload(
        {
            "kind": "customize",
            "benchmarks": ["gzip"],
            "max_evaluations": 100,
            "plateau_patience": 10,
        }
    )
    budget = spec.budget
    assert budget == SearchBudget(
        max_evaluations=100, max_moves=None, plateau_patience=10
    )
    unbounded = JobSpec.from_payload({"kind": "customize", "benchmarks": ["gzip"]})
    assert unbounded.budget is None


def test_merge_budgets_is_fieldwise_minimum():
    requested = SearchBudget(max_evaluations=100, max_moves=None, plateau_patience=50)
    cap = SearchBudget(max_evaluations=500, max_moves=200, plateau_patience=None)
    merged = merge_budgets(requested, cap)
    assert merged.max_evaluations == 100  # requested was stricter
    assert merged.max_moves == 200  # only the cap bounds moves
    assert merged.plateau_patience == 50
    assert merge_budgets(None, cap) == cap
    assert merge_budgets(requested, None) == requested
    assert merge_budgets(None, None) is None


# ----------------------------------------------------------------------
# TenantPolicy.parse
# ----------------------------------------------------------------------


def test_tenant_policy_parse_full_spec():
    policy = TenantPolicy.parse("queued=8, running=1, evals=5000, patience=500")
    assert policy.max_queued == 8
    assert policy.max_running == 1
    assert policy.budget == SearchBudget(
        max_evaluations=5000, max_moves=None, plateau_patience=500
    )


def test_tenant_policy_parse_defaults_and_empty():
    assert TenantPolicy.parse(None) == TenantPolicy()
    assert TenantPolicy.parse("") == TenantPolicy()
    partial = TenantPolicy.parse("running=4")
    assert partial.max_running == 4
    assert partial.max_queued == TenantPolicy.max_queued
    assert partial.budget is None


@pytest.mark.parametrize(
    "spec, match",
    [
        ("queued", "malformed"),
        ("queued=lots", "must be an integer"),
        ("queueud=4", "unknown tenant budget fields"),
    ],
)
def test_tenant_policy_parse_rejects(spec, match):
    with pytest.raises(ServeError, match=match):
        TenantPolicy.parse(spec)


# ----------------------------------------------------------------------
# admission: bounded queues
# ----------------------------------------------------------------------


def test_tenant_queue_bound_raises_queue_full():
    scheduler = FairShareScheduler(TenantPolicy(max_queued=2))
    scheduler.submit(make_job("j1", tenant="a"))
    scheduler.submit(make_job("j2", tenant="a"))
    with pytest.raises(QueueFullError, match="tenant 'a' queue is full") as info:
        scheduler.submit(make_job("j3", tenant="a"))
    assert info.value.retry_after_s == 1.0
    # Another tenant still has room: bounds are per-tenant.
    scheduler.submit(make_job("j4", tenant="b"))


def test_global_queue_bound_raises_queue_full():
    scheduler = FairShareScheduler(
        TenantPolicy(max_queued=10), max_total_queued=3
    )
    for i, tenant in enumerate(["a", "b", "c"]):
        scheduler.submit(make_job(f"j{i}", tenant=tenant))
    with pytest.raises(QueueFullError, match="service queue is full") as info:
        scheduler.submit(make_job("overflow", tenant="d"))
    assert info.value.retry_after_s == 2.0


def test_draining_scheduler_rejects_submissions():
    scheduler = FairShareScheduler()
    scheduler.submit(make_job("queued-job"))
    remaining = scheduler.drain()
    assert [job.id for job in remaining] == ["queued-job"]
    assert scheduler.draining
    with pytest.raises(QueueFullError, match="draining"):
        scheduler.submit(make_job("late-job"))
    assert scheduler.next_job() is None  # drained queues are empty


# ----------------------------------------------------------------------
# dispatch: fairness and running caps
# ----------------------------------------------------------------------


def test_round_robin_interleaves_tenants():
    """A bulk-submitting tenant cannot starve a one-job tenant."""
    scheduler = FairShareScheduler(TenantPolicy(max_running=99))
    for i in range(4):
        scheduler.submit(make_job(f"bulk-{i}", tenant="bulk"))
    scheduler.submit(make_job("single-0", tenant="single"))
    order = []
    while True:
        job = scheduler.next_job()
        if job is None:
            break
        order.append(job.id)
    # The single job is served second, not fifth.
    assert order.index("single-0") == 1
    assert set(order) == {"bulk-0", "bulk-1", "bulk-2", "bulk-3", "single-0"}


def test_max_running_caps_each_tenant():
    scheduler = FairShareScheduler(TenantPolicy(max_running=1))
    scheduler.submit(make_job("a1", tenant="a"))
    scheduler.submit(make_job("a2", tenant="a"))
    scheduler.submit(make_job("b1", tenant="b"))
    first = scheduler.next_job()
    second = scheduler.next_job()
    assert {first.tenant, second.tenant} == {"a", "b"}  # one slot each
    assert scheduler.next_job() is None  # a2 must wait for a1 to finish
    scheduler.job_finished("a")
    third = scheduler.next_job()
    assert third.id == "a2"


def test_depths_reports_queued_and_running():
    scheduler = FairShareScheduler()
    scheduler.submit(make_job("a1", tenant="a"))
    scheduler.submit(make_job("a2", tenant="a"))
    scheduler.submit(make_job("b1", tenant="b"))
    claimed = scheduler.next_job()
    depths = scheduler.depths()
    assert depths["queued"] == 2
    assert depths["running"] == 1
    assert depths["tenants"][claimed.tenant]["running"] == 1


def test_admission_applies_tenant_budget_cap():
    cap = SearchBudget(max_evaluations=50, max_moves=None, plateau_patience=None)
    scheduler = FairShareScheduler(TenantPolicy(budget=cap))
    generous = make_job("g", max_evaluations=10_000)
    frugal = make_job("f", max_evaluations=10)
    unbounded = make_job("u")
    for job in (generous, frugal, unbounded):
        scheduler.submit(job)
    assert generous.spec.max_evaluations == 50  # tightened to the cap
    assert frugal.spec.max_evaluations == 10  # stricter request kept
    assert unbounded.spec.max_evaluations == 50  # cap fills the void
    # The canonical digest reflects the budget that will actually run.
    assert generous.spec.content_digest == unbounded.spec.content_digest


# ----------------------------------------------------------------------
# blocking take(): how job slots wait for work
# ----------------------------------------------------------------------


def _taker(scheduler: FairShareScheduler) -> tuple[threading.Thread, list]:
    """A thread blocked in take(); its result lands in the returned list."""
    taken: list = []
    thread = threading.Thread(
        target=lambda: taken.append(scheduler.take()), daemon=True
    )
    thread.start()
    return thread, taken


def test_take_returns_a_job_submitted_from_another_thread():
    scheduler = FairShareScheduler()
    thread, taken = _taker(scheduler)
    time.sleep(0.05)
    assert taken == []  # nothing queued yet: still waiting
    submitter = threading.Thread(
        target=scheduler.submit, args=(make_job("late"),), daemon=True
    )
    submitter.start()
    submitter.join(5)
    thread.join(5)
    assert not thread.is_alive()
    assert [job.id for job in taken] == ["late"]


def test_take_waits_while_the_only_tenant_is_at_its_cap():
    scheduler = FairShareScheduler(TenantPolicy(max_running=1))
    scheduler.submit(make_job("a1", tenant="a"))
    scheduler.submit(make_job("a2", tenant="a"))
    assert scheduler.take().id == "a1"
    thread, taken = _taker(scheduler)
    thread.join(0.2)
    assert thread.is_alive() and taken == []  # a2 waits for a1 to finish
    scheduler.job_finished("a")
    thread.join(5)
    assert not thread.is_alive()
    assert [job.id for job in taken] == ["a2"]


def test_drain_releases_every_waiter_with_none():
    scheduler = FairShareScheduler()
    waiters = [_taker(scheduler) for _ in range(3)]
    time.sleep(0.05)
    scheduler.drain()
    for thread, taken in waiters:
        thread.join(5)
        assert not thread.is_alive()
        assert taken == [None]
    assert scheduler.take() is None  # a late caller does not block either


def test_contended_take_claims_every_job_once_within_caps():
    """Six slots against two submitters at a tiny switch interval: each
    job is taken exactly once, no tenant runs over its cap, and no slot
    is left waiting on work that is ready."""
    scheduler = FairShareScheduler(
        TenantPolicy(max_queued=200, max_running=1), max_total_queued=200
    )
    tenants = ("a", "b", "c")
    taken: list[str] = []
    over_cap: list[str] = []
    lock = threading.Lock()

    def slot() -> None:
        while (job := scheduler.take()) is not None:
            running = scheduler.depths()["tenants"][job.tenant]["running"]
            with lock:
                taken.append(job.id)
                if running > 1:
                    over_cap.append(job.id)
            scheduler.job_finished(job.tenant)

    def submit(k: int) -> None:
        for i in range(60):
            scheduler.submit(make_job(f"{k}-{i}", tenant=tenants[i % 3]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        slots = [threading.Thread(target=slot, daemon=True) for _ in range(6)]
        submitters = [
            threading.Thread(target=submit, args=(k,), daemon=True) for k in range(2)
        ]
        for thread in slots + submitters:
            thread.start()
        deadline = time.monotonic() + 30
        while len(taken) < 120 and time.monotonic() < deadline:
            time.sleep(0.01)
        scheduler.drain()
        for thread in slots + submitters:
            thread.join(5)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert sorted(taken) == sorted(f"{k}-{i}" for k in range(2) for i in range(60))
    assert over_cap == []
