"""Exploration-service lifecycle tests over real HTTP.

One module-scoped service replica (memory backend, one job slot) backs
the fast request/response tests; the heavier guarantees — bit-identity
with the one-shot CLI path, 429 backpressure, graceful drain — each
boot their own dedicated replica so the shared one's state stays
predictable.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

import pytest

from repro.engine import EvaluationEngine, MemoryBackend
from repro.errors import ServeClientError
from repro.serve import ServeClient
from repro.serve.jobs import JobSpec
from repro.serve.runner import execute_job
from repro.serve.scheduler import TenantPolicy
from repro.serve.service import ExplorationService, ServiceThread
from repro.serve.worker import SlotWorker, make_slot_engine
from repro.sim import IntervalSimulator
from repro.workloads import spec2000_profile


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


@pytest.fixture
def gate(monkeypatch):
    """Hold every job in its slot, as running, until ``gate.set()``."""
    release = threading.Event()
    run = SlotWorker.run

    def held(worker, job, queue_wait):
        release.wait(60)
        return run(worker, job, queue_wait)

    monkeypatch.setattr(SlotWorker, "run", held)
    yield release
    release.set()


def wait_for_state(client: ServeClient, job_id: str, state: str) -> None:
    deadline = time.monotonic() + 60
    while client.status(job_id)["state"] != state:
        assert time.monotonic() < deadline, f"{job_id} never reached {state}"
        time.sleep(0.005)


def journal_events(path: Path) -> list[dict]:
    try:
        return [json.loads(line) for line in path.read_text().splitlines()]
    except FileNotFoundError:
        return []


def wait_for_job_start(path: Path) -> None:
    """Return once a worker has journalled the job's ``job_start`` line."""
    deadline = time.monotonic() + 60
    while not any(e["event"] == "job_start" for e in journal_events(path)):
        assert time.monotonic() < deadline, f"{path} never got job_start"
        time.sleep(0.005)


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


def test_result_while_pending_is_409_with_retry_after(tmp_path, gate):
    # A job held in its slot stays unfinished until the gate opens.
    parked = ExplorationService(jobs=1, cache_backend="memory", serve_dir=tmp_path)
    with ServiceThread(parked) as thread:
        client = ServeClient(thread.base_url)
        submitted = client.submit(dict(SMALL_JOB))
        with pytest.raises(ServeClientError) as info:
            client.result(submitted["id"])
        assert info.value.status == 409
        gate.set()


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
    info.value.close()
    assert info.value.code == 400


def raw_exchange(live, data: bytes, close_write: bool = False):
    """Send raw bytes; return (status, headers, body) of the reply."""
    with socket.create_connection((live.host, live.port), timeout=10) as sock:
        sock.sendall(data)
        if close_write:
            sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    return int(status_line.split(" ")[1]), headers, body


@pytest.mark.parametrize(
    "data, close_write, error",
    [
        (b"NONSENSE\r\n\r\n", False, "malformed request line 'NONSENSE'"),
        (
            b"GET /v1/healthz\r\n\r\n",
            False,
            "malformed request line 'GET /v1/healthz'",
        ),
        (
            b"GET /v1/healthz HTTP/1.1\r\nX-Pad: " + b"a" * 17000 + b"\r\n\r\n",
            False,
            "request head too large",
        ),
        (
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: lots\r\n\r\n",
            False,
            "bad Content-Length 'lots'",
        ),
        (
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n",
            False,
            "unacceptable Content-Length 1048577",
        ),
        (
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}",
            True,
            "truncated request body",
        ),
    ],
    ids=[
        "malformed-request-line",
        "two-word-request-line",
        "head-over-16KiB",
        "non-integer-content-length",
        "content-length-over-1MiB",
        "body-shorter-than-declared",
    ],
)
def test_off_contract_request_is_400_with_json_error(live, data, close_write, error):
    """The wire subset and its caps: each request outside it gets a
    complete 400 with a JSON error body, then the connection closes."""
    status, headers, body = raw_exchange(live, data, close_write)
    assert status == 400
    assert headers["Connection"] == "close"
    assert int(headers["Content-Length"]) == len(body)
    assert json.loads(body) == {"error": error, "status": 400}


def test_well_formed_raw_request_is_200(live):
    status, headers, body = raw_exchange(
        live, b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n"
    )
    assert status == 200
    assert json.loads(body)["status"] == "ok"


def test_unknown_route_is_404(live):
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(f"http://{live.host}:{live.port}/v2/everything")
    info.value.close()
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


def test_queue_overflow_is_429_with_retry_after(tmp_path, gate):
    service = ExplorationService(
        jobs=1,
        cache_backend="memory",
        serve_dir=tmp_path,
        tenant_policy=TenantPolicy(max_queued=1, max_running=1),
    )
    with ServiceThread(service) as thread:
        client = ServeClient(thread.base_url)
        # Hold the only slot so the queue only grows.
        wait_for_state(client, client.submit(dict(SMALL_JOB, seed=10))["id"], "running")
        client.submit(dict(SMALL_JOB))
        with pytest.raises(ServeClientError) as info:
            client.submit(dict(SMALL_JOB, seed=12))
        assert info.value.status == 429
        # Another tenant is not blocked by the first tenant's full queue.
        client.submit(dict(SMALL_JOB, tenant="other"))
        gate.set()


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


def test_drain_fails_queued_jobs_instead_of_losing_them(tmp_path, gate):
    service = ExplorationService(jobs=1, cache_backend="memory", serve_dir=tmp_path)
    thread = ServiceThread(service).start()
    client = ServeClient(thread.base_url)
    running = client.submit(dict(SMALL_JOB, seed=10))["id"]
    wait_for_state(client, running, "running")
    submitted = client.submit(dict(SMALL_JOB))  # queued behind the held job
    job_id = submitted["id"]
    stopper = threading.Thread(target=thread.stop, daemon=True)
    stopper.start()
    deadline = time.monotonic() + 60
    while not service.scheduler.draining:
        assert time.monotonic() < deadline
        time.sleep(0.005)
    gate.set()
    stopper.join(60)
    assert not stopper.is_alive()
    # ServiceThread.stop() ran drain(): the running job finished and
    # the queued job is failed, not lost.
    assert service._jobs[running].state == "completed"
    job = service._jobs[job_id]
    assert job.state == "failed"
    assert "shut down" in job.error


def test_no_service_thread_outlives_stop(tmp_path):
    before = set(threading.enumerate())
    # Module-scoped services of other tests keep their workers alive.
    children_before = set(multiprocessing.active_children())
    service = ExplorationService(jobs=2, cache_backend="memory", serve_dir=tmp_path)
    with ServiceThread(service) as thread:
        client = ServeClient(thread.base_url)
        assert client.wait(client.submit(dict(SMALL_JOB))["id"])["state"] == "completed"
        started = [
            t.name
            for t in threading.enumerate()
            if t.name.startswith("repro-serve") and t not in before
        ]
        assert len(started) == 3  # the serving thread and two slots
        workers = set(multiprocessing.active_children()) - children_before
        assert len(workers) == 1  # the job's slot started its worker
    alive = [
        t.name
        for t in threading.enumerate()
        if t.name.startswith("repro-serve") and t not in before
    ]
    assert alive == []
    assert set(multiprocessing.active_children()) - children_before == set()


def test_crashing_job_fails_and_its_slot_keeps_serving(tmp_path):
    service = ExplorationService(jobs=1, cache_backend="memory", serve_dir=tmp_path)
    run_job = service._run_job
    crashed: list[str] = []

    def crash_once(job, worker):
        if not crashed:
            crashed.append(job.id)
            raise RuntimeError("boom")
        run_job(job, worker)

    service._run_job = crash_once
    with ServiceThread(service) as thread:
        client = ServeClient(thread.base_url)
        first = client.wait(client.submit(dict(SMALL_JOB))["id"], timeout=60)
        second = client.wait(client.submit(dict(SMALL_JOB))["id"], timeout=60)
    assert first["state"] == "failed"
    assert "boom" in first["error"]
    assert second["state"] == "completed"


# ----------------------------------------------------------------------
# worker processes
# ----------------------------------------------------------------------

#: A job that runs for minutes: a test ends it by killing its worker.
ENDLESS_JOB = dict(SMALL_JOB, iterations=5_000_000)


def test_killed_worker_fails_only_its_job(tmp_path):
    service = ExplorationService(jobs=1, cache_backend="memory", serve_dir=tmp_path)
    with ServiceThread(service) as thread:
        client = ServeClient(thread.base_url)
        victim = client.submit(dict(ENDLESS_JOB))["id"]
        wait_for_job_start(service.get_job(victim).journal_path)
        os.kill(service._slot_workers[0].process.pid, signal.SIGKILL)
        killed = client.wait(victim, timeout=60)
        assert killed["state"] == "failed"
        assert killed["error"] == "internal error: worker exited with -9"
        after = client.wait(client.submit(dict(SMALL_JOB))["id"], timeout=60)
        assert after["state"] == "completed"
        assert client.stats()["engines"] == 1


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _serve_subprocess(
    jobs: int, serve_dir: Path, stderr: Any = subprocess.DEVNULL
) -> tuple[subprocess.Popen, ServeClient]:
    """A ``repro serve`` process and a client of it, once it answers."""
    port = _free_port()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", str(port),
            "--jobs", str(jobs), "--cache-backend", "memory",
            "--serve-dir", str(serve_dir),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=stderr,
        start_new_session=True,  # its own process group, for killpg
    )
    client = ServeClient(f"http://127.0.0.1:{port}", timeout=5)
    deadline = time.monotonic() + 30
    while True:
        try:
            client.health()
            return proc, client
        except ServeClientError:
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)


def _proc_stat(pid: int) -> list[str] | None:
    """The fields after the command name in ``/proc/<pid>/stat``."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _children(pid: int) -> list[int]:
    kids = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            stat = _proc_stat(int(entry.name))
            if stat is not None and int(stat[1]) == pid:
                kids.append(int(entry.name))
    return kids


def _workers(pid: int) -> list[int]:
    return [
        child for child in _children(pid)
        if b"spawn_main" in Path(f"/proc/{child}/cmdline").read_bytes()
    ]


def _running(pid: int) -> bool:
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


needs_proc = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads process tables from /proc"
)


@needs_proc
def test_sigkilled_service_leaves_no_worker_alive(tmp_path):
    proc, client = _serve_subprocess(2, tmp_path)
    try:
        ids = [client.submit(dict(ENDLESS_JOB, seed=s))["id"] for s in (1, 2)]
        for job_id in ids:
            wait_for_job_start(tmp_path / "jobs" / job_id / "events.jsonl")
        assert len(_workers(proc.pid)) == 2
        children = _children(proc.pid)  # the workers and their helpers
        proc.kill()
        proc.wait(10)
        deadline = time.monotonic() + 5
        while any(_running(pid) for pid in children):
            assert time.monotonic() < deadline, [p for p in children if _running(p)]
            time.sleep(0.05)
    finally:
        proc.kill()
        proc.wait(10)


@needs_proc
def test_sigterm_lets_the_running_job_finish_in_its_worker(tmp_path):
    log = tmp_path / "stderr.txt"
    with open(log, "wb") as stderr:
        proc, client = _serve_subprocess(1, tmp_path / "serve", stderr=stderr)
    try:
        job_id = client.submit(dict(SMALL_JOB, iterations=20_000))["id"]
        journal = tmp_path / "serve" / "jobs" / job_id / "events.jsonl"
        wait_for_job_start(journal)
        (worker,) = _workers(proc.pid)
        # The whole process group, as a service manager stops it: the
        # worker ignores the signal and the drain waits for its job.
        os.killpg(proc.pid, signal.SIGTERM)
        assert proc.wait(60) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait(10)
    # The signal landed while the job ran, and the job still completed.
    assert "draining (1 running jobs)" in log.read_text()
    (end,) = [e for e in journal_events(journal) if e["event"] == "job_end"]
    assert end["state"] == "completed"
    assert not _running(worker)


def test_undrained_worker_does_not_hold_up_interpreter_exit():
    # multiprocessing joins its children at exit, and a worker ignores
    # SIGTERM: unless the pipe is hung up first, the join never returns.
    script = (
        "from repro.serve.worker import SlotWorker\n"
        "worker = SlotWorker('memory', 'r', name='w')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", script], env=env, timeout=30)
    assert done.returncode == 0


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


def test_concurrent_mix_completes_and_repeats_hit_the_store(tmp_path):
    """The serve contract under load: 18 customize jobs from 6 client
    threads on a two-slot SQLite replica all complete within 60 s of
    their submit, and every 3rd job, a repeat of the first spec, can be
    served from the shared store with no fresh evaluation."""
    mix = ("gzip", "mcf", "parser", "vpr")
    payloads = [
        {"kind": "customize", "benchmarks": [mix[i % 4]], "iterations": 40, "seed": i % 3}
        for i in range(18)
    ]
    repeats = range(3, 18, 3)
    for i in repeats:
        payloads[i] = dict(payloads[0])

    service = ExplorationService(
        jobs=2, cache_backend=f"sqlite:{tmp_path / 'results.sqlite'}", serve_dir=tmp_path
    )
    with ServiceThread(service) as thread:

        def run(i: int) -> tuple[float, dict]:
            client = ServeClient(thread.base_url)
            started = time.perf_counter()
            record = client.wait(client.submit(payloads[i])["id"], timeout=60)
            return time.perf_counter() - started, record

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(run, range(18)))

    states = [record["state"] for _, record in results]
    assert states.count("completed") == 18, states
    assert max(latency for latency, _ in results) < 60.0
    assert sum(record["stats"]["cache"]["hits"] for _, record in results) >= 1
    assert any(results[i][1]["stats"]["evaluations"] == 0 for i in repeats)


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


def test_pareto_job_writes_no_rows_to_the_shared_store(tmp_path):
    """Sampled design points almost never recur, so a pareto job simulates
    them without lookups or store writes; a customize job on the same
    store still writes its rows."""
    from repro.engine.cache_backends import SQLiteBackend

    path = tmp_path / "shared.sqlite"

    def rows() -> int:
        store = SQLiteBackend(path)
        try:
            return len(store)
        finally:
            store.close()

    service = ExplorationService(jobs=1, cache_backend=f"sqlite:{path}", serve_dir=tmp_path)
    with ServiceThread(service) as thread:
        client = ServeClient(thread.base_url)
        custom = client.wait(client.submit(dict(SMALL_JOB))["id"], timeout=60)
        assert custom["state"] == "completed"
        assert custom["stats"]["cache"]["stores"] > 0
        before = rows()
        assert before == custom["stats"]["cache"]["stores"]

        pareto = client.wait(
            client.submit(
                {"kind": "pareto", "benchmarks": ["gzip", "mcf"], "samples": 8, "seed": 4}
            )["id"],
            timeout=60,
        )
        assert pareto["state"] == "completed"
        stats = pareto["stats"]
        explored = sum(front["explored"] for front in pareto["result"]["fronts"])
        assert explored > 0
        assert stats["evaluations"] == explored
        assert stats["cache_hits"] == 0
        assert stats["cache_misses"] == 0
        assert rows() == before


def test_job_rows_are_committed_before_it_reports_completed(tmp_path):
    """The SQLite backend buffers rows; the service must write a job's
    rows before publishing it as completed, because a client told
    "completed" may next query a sibling replica of the same store.

    Releasing the job's slot is slowed down so a flush left to that step
    would be observed as missing rows."""
    from repro.engine.cache_backends import SQLiteBackend

    path = tmp_path / "shared.sqlite"
    service = ExplorationService(jobs=1, cache_backend=f"sqlite:{path}", serve_dir=tmp_path)
    job_finished = service.scheduler.job_finished

    def slow_release(tenant):
        time.sleep(0.5)
        job_finished(tenant)

    service.scheduler.job_finished = slow_release
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


def test_store_that_fails_to_open_fails_only_its_job(tmp_path):
    """A store that cannot open fails the job that leased the engine and
    frees the slot: the next job on the same one-slot replica opens the
    store again and completes instead of waiting forever."""
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where the store's directory should be\n")
    service = ExplorationService(
        jobs=1,
        cache_backend=f"sqlite:{blocker / 'results.sqlite'}",
        serve_dir=tmp_path / "serve",
    )
    with ServiceThread(service) as thread:
        client = ServeClient(thread.base_url)
        first = client.wait(client.submit(dict(SMALL_JOB))["id"], timeout=60)
        assert first["state"] == "failed"
        assert first["error"]
        blocker.unlink()  # the store can open from now on
        second = client.wait(client.submit(dict(SMALL_JOB))["id"], timeout=60)
        assert second["state"] == "completed"


def test_memory_mode_slot_cache_stays_at_its_bound(tmp_path, initial_config):
    """Under ``memory`` a slot keeps only its LRU; ``/v1/cache`` keeps
    a memory store of its own."""
    with ExplorationService(
        jobs=1, cache_backend="memory", serve_dir=tmp_path
    ) as service:
        engine = make_slot_engine(service.cache_backend_spec)
        try:
            cache = engine.cache
            assert cache.backend is None
            cache.max_memory_entries = 100
            profile = spec2000_profile("gzip")
            result = IntervalSimulator().evaluate(profile, initial_config)
            for i in range(1_000):
                cache.put(f"key{i}", result)
            assert len(cache) == 100
        finally:
            engine.close()
        assert isinstance(service._store_handle(), MemoryBackend)
