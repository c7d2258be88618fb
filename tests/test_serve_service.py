"""Exploration-service lifecycle tests over real HTTP.

One module-scoped service replica (memory backend, one job slot) backs
the fast request/response tests; the heavier guarantees — bit-identity
with the one-shot CLI path, 429 backpressure, graceful drain — each
boot their own dedicated replica so the shared one's state stays
predictable.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.engine import EvaluationEngine
from repro.errors import ServeClientError
from repro.serve import ServeClient
from repro.serve.jobs import JobSpec
from repro.serve.runner import execute_job
from repro.serve.scheduler import TenantPolicy
from repro.serve.service import ExplorationService, ServiceThread


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    serve_dir = tmp_path_factory.mktemp("serve-service")
    service = ExplorationService(jobs=1, cache_backend="memory", serve_dir=serve_dir)
    with ServiceThread(service) as thread:
        yield ServeClient(thread.base_url)


SMALL_JOB = {
    "kind": "customize",
    "benchmarks": ["gzip"],
    "iterations": 25,
    "seed": 11,
}


# ----------------------------------------------------------------------
# request/response basics
# ----------------------------------------------------------------------


def test_health_reports_slots_and_backend(live):
    health = live.health()
    assert health["status"] == "ok"
    assert health["slots"] == 1
    assert health["backend"] == "memory"


def test_submit_poll_result_lifecycle(live):
    submitted = live.submit(dict(SMALL_JOB))
    assert submitted["state"] == "queued"
    assert submitted["id"].startswith("j")
    assert submitted["links"]["result"].endswith("/result")
    record = live.wait(submitted["id"])
    assert record["state"] == "completed"
    assert record["error"] is None
    assert record["stats"]["evaluations"] > 0
    assert record["result"]["kind"] == "customize"
    (bench,) = record["result"]["benchmarks"]
    assert bench["benchmark"] == "gzip"
    assert bench["ipt"] > 0
    listed = live.list_jobs()
    assert submitted["id"] in {job["id"] for job in listed}


def test_result_while_pending_is_409_with_retry_after(live, tmp_path):
    # A service with zero dispatch has jobs that stay queued forever.
    parked = ExplorationService(jobs=1, cache_backend="memory", serve_dir=tmp_path)
    parked._inflight = 99  # dispatcher never claims anything
    with ServiceThread(parked) as thread:
        client = ServeClient(thread.base_url)
        submitted = client.submit(dict(SMALL_JOB))
        with pytest.raises(ServeClientError) as info:
            client.result(submitted["id"])
        assert info.value.status == 409


def test_unknown_job_is_404(live):
    with pytest.raises(ServeClientError) as info:
        live.status("j99999-nope")
    assert info.value.status == 404


def test_bad_payload_is_400(live):
    for payload in (
        {"kind": "bogus", "benchmarks": ["gzip"]},
        {"kind": "customize", "benchmarks": ["gzip"], "surprise": True},
    ):
        with pytest.raises(ServeClientError) as info:
            live.submit(payload)
        assert info.value.status == 400


def test_malformed_json_body_is_400(live):
    request = urllib.request.Request(
        f"http://{live.host}:{live.port}/v1/jobs",
        data=b"{definitely not json",
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(request)
    assert info.value.code == 400


def test_unknown_route_is_404(live):
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(f"http://{live.host}:{live.port}/v2/everything")
    assert info.value.code == 404


def test_failed_job_reports_error_not_500(live):
    # A femtosecond clock period validates as a positive number but no
    # unit sizing is feasible at it — the engine raises TimingError.
    submitted = live.submit(
        {
            "kind": "sweep",
            "benchmarks": ["gzip"],
            "iterations": 5,
            "clocks": [1e-6],
        }
    )
    record = live.wait(submitted["id"])
    assert record["state"] == "failed"
    assert record["error"]
    assert record["result"] is None


# ----------------------------------------------------------------------
# metrics and stats surfaces
# ----------------------------------------------------------------------


def test_metrics_export_counts_jobs_and_cache_traffic(live):
    live.wait(live.submit(dict(SMALL_JOB))["id"])
    metrics = live.metrics_json()
    assert metrics["repro_serve_jobs_submitted_total"]["value"] >= 1
    assert metrics["repro_serve_jobs_completed_total"]["value"] >= 1
    assert metrics["repro_serve_evaluations_total"]["value"] > 0
    lookups = (
        metrics["repro_serve_cache_hits_total"]["value"]
        + metrics["repro_serve_cache_misses_total"]["value"]
    )
    assert lookups > 0
    # Prometheus textfile flavour serves the same registry.
    with urllib.request.urlopen(
        f"http://{live.host}:{live.port}/v1/metrics"
    ) as response:
        text = response.read().decode()
    assert "# TYPE repro_serve_jobs_submitted_total counter" in text


def test_stats_expose_scheduler_depths(live):
    stats = live.stats()
    assert set(stats) >= {"scheduler", "jobs_by_state", "engines", "backend"}
    assert set(stats["scheduler"]) >= {"queued", "running", "tenants"}


# ----------------------------------------------------------------------
# backpressure and tenancy
# ----------------------------------------------------------------------


def test_queue_overflow_is_429_with_retry_after(tmp_path):
    service = ExplorationService(
        jobs=1,
        cache_backend="memory",
        serve_dir=tmp_path,
        tenant_policy=TenantPolicy(max_queued=1, max_running=1),
    )
    service._inflight = 99  # park the dispatcher so the queue only grows
    with ServiceThread(service) as thread:
        client = ServeClient(thread.base_url)
        client.submit(dict(SMALL_JOB))
        with pytest.raises(ServeClientError) as info:
            client.submit(dict(SMALL_JOB, seed=12))
        assert info.value.status == 429
        # Another tenant is not blocked by the first tenant's full queue.
        client.submit(dict(SMALL_JOB, tenant="other"))


def test_drained_service_rejects_with_503(tmp_path):
    service = ExplorationService(jobs=1, cache_backend="memory", serve_dir=tmp_path)
    with ServiceThread(service) as thread:
        client = ServeClient(thread.base_url)
        done = client.wait(client.submit(dict(SMALL_JOB))["id"])
        assert done["state"] == "completed"
        service.scheduler.drain()
        with pytest.raises(ServeClientError) as info:
            client.submit(dict(SMALL_JOB, seed=13))
        assert info.value.status == 503


def test_drain_fails_queued_jobs_instead_of_losing_them(tmp_path):
    service = ExplorationService(jobs=1, cache_backend="memory", serve_dir=tmp_path)
    service._inflight = 99  # never dispatched
    with ServiceThread(service) as thread:
        client = ServeClient(thread.base_url)
        submitted = client.submit(dict(SMALL_JOB))
        job_id = submitted["id"]
    # ServiceThread.stop() ran drain(): the queued job is failed, not lost.
    job = service._jobs[job_id]
    assert job.state == "failed"
    assert "shut down" in job.error


# ----------------------------------------------------------------------
# bit-identity with the one-shot CLI path
# ----------------------------------------------------------------------


def test_service_result_is_bit_identical_to_direct_run(tmp_path):
    """The acceptance criterion: submitting a job to the service returns
    exactly what the equivalent one-shot invocation computes."""
    payload = {
        "kind": "customize",
        "benchmarks": ["gzip"],
        "iterations": 30,
        "seed": 3,
    }
    direct = execute_job(JobSpec.from_payload(payload), EvaluationEngine(jobs=1))

    service = ExplorationService(jobs=1, cache_backend="memory", serve_dir=tmp_path)
    with ServiceThread(service) as thread:
        client = ServeClient(thread.base_url)
        first = client.wait(client.submit(dict(payload))["id"])
        second = client.wait(client.submit(dict(payload))["id"])

    assert json.dumps(first["result"], sort_keys=True) == json.dumps(
        direct, sort_keys=True
    )
    # Resubmission is identical too — served from the result store.
    assert json.dumps(second["result"], sort_keys=True) == json.dumps(
        first["result"], sort_keys=True
    )
    assert second["stats"]["evaluations"] == 0
    assert second["stats"]["cache"]["hits"] > 0


# ----------------------------------------------------------------------
# pareto jobs
# ----------------------------------------------------------------------


def test_pareto_job_spec_validation():
    spec = JobSpec.from_payload({"kind": "pareto", "benchmarks": ["gzip"]})
    assert spec.samples == 128  # the CLI default
    spec = JobSpec.from_payload(
        {"kind": "pareto", "benchmarks": ["gzip"], "samples": 16, "seed": 2}
    )
    assert spec.samples == 16
    from repro.errors import ServeError

    with pytest.raises(ServeError):
        JobSpec.from_payload(
            {"kind": "customize", "benchmarks": ["gzip"], "samples": 8}
        )
    with pytest.raises(ServeError):
        JobSpec.from_payload(
            {"kind": "pareto", "benchmarks": ["gzip"], "samples": 0}
        )


def test_pareto_job_runs_and_matches_direct_front(live):
    """The serve path returns the ParetoExplorer's front verbatim, and
    the emitted front survives an independent dominance check."""
    payload = {
        "kind": "pareto",
        "benchmarks": ["gzip"],
        "samples": 6,
        "seed": 4,
    }
    direct = execute_job(JobSpec.from_payload(payload), EvaluationEngine(jobs=1))
    job = live.wait(live.submit(dict(payload))["id"])
    assert job["state"] == "completed"
    result = job["result"]
    assert json.dumps(result, sort_keys=True) == json.dumps(
        direct, sort_keys=True
    )
    (front,) = result["fronts"]
    assert front["workload"] == "gzip"
    points = [
        (p["ipt"], p["power_w"], p["area_mm2"]) for p in front["front"]
    ]
    assert points
    for i, a in enumerate(points):
        for j, b in enumerate(points):
            dominated = (
                i != j
                and b[0] >= a[0]
                and b[1] <= a[1]
                and b[2] <= a[2]
                and a != b
            )
            assert not dominated, f"point {i} dominated by {j}"


def test_job_rows_are_committed_before_it_reports_completed(tmp_path):
    """The SQLite backend buffers rows; the service must write a job's
    rows before publishing it as completed, because a client told
    "completed" may next query a sibling replica of the same store.

    Handing the engine back is slowed down so a flush left to that step
    would be observed as missing rows."""
    import time

    from repro.engine.cache_backends import SQLiteBackend

    path = tmp_path / "shared.sqlite"
    service = ExplorationService(jobs=1, cache_backend=f"sqlite:{path}", serve_dir=tmp_path)
    return_engine = service._return_engine

    def slow_return(engine):
        time.sleep(0.5)
        return_engine(engine)

    service._return_engine = slow_return
    with ServiceThread(service) as thread:
        client = ServeClient(thread.base_url)
        job_id = client.submit(dict(SMALL_JOB))["id"]
        deadline = time.monotonic() + 60
        while True:
            record = client.status(job_id)
            if record["state"] not in ("queued", "running"):
                break
            assert time.monotonic() < deadline
            time.sleep(0.005)
        assert record["state"] == "completed"
        stored = record["stats"]["cache"]["stores"]
        assert 0 < stored < 256  # fewer than one group: only a flush writes them
        sibling = SQLiteBackend(path)
        try:
            assert len(sibling) == stored
        finally:
            sibling.close()
