"""The seeded network-chaos harness and the ReplicaSet failover client.

The harness itself lives in ``tests/chaos.py``.  Four layers:

* :class:`NetworkFaultPlan` is a pure function — same seed, same fault
  sequence, bounded streaks (the replay oracle);
* :class:`ChaosProxy` enacts exactly that sequence on real TCP
  connections, and a retrying :class:`ServeClient` survives every fault
  kind with either a correct result or an explicit error — never a
  silent wrong answer (the chaos matrix);
* the two-replica acceptance bar: SIGKILL one subprocess replica mid-run
  behind fault proxies and the surviving replica finishes the work with
  results bit-identical to a fault-free run, served from the shared
  store;
* the chaos round CI runs: :func:`run_chaos` with one in-process replica
  killed mid-run, whose report and stitched fleet trace must show
  identical results, a failover, a repeat served from the store,
  injected faults and every client trace id.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ServeClientError
from repro.serve import ServeClient, fleet
from repro.serve.service import ExplorationService, ServiceThread

from .chaos import ChaosProxy, NetworkFaultPlan, ReplicaSet, run_chaos

JOB = {"kind": "customize", "benchmarks": ["gzip"], "iterations": 20, "seed": 5}


# ----------------------------------------------------------------------
# the plan: pure, replayable, bounded
# ----------------------------------------------------------------------


def test_plan_is_deterministic_and_replayable():
    plan = NetworkFaultPlan(
        seed=7, refuse=0.2, reset=0.1, truncate=0.1, error5xx=0.1, delay=0.1
    )
    replay = NetworkFaultPlan(
        seed=7, refuse=0.2, reset=0.1, truncate=0.1, error5xx=0.1, delay=0.1
    )
    assert plan.expected_sequence(200) == replay.expected_sequence(200)
    assert [plan.fault_for(n) for n in range(50)] == plan.expected_sequence(50)
    other = NetworkFaultPlan(seed=8, refuse=0.2, reset=0.1, truncate=0.1)
    assert plan.expected_sequence(200) != other.expected_sequence(200)


def test_plan_bounds_consecutive_faults():
    plan = NetworkFaultPlan(seed=3, refuse=0.9, max_consecutive=2)
    streak = 0
    for kind in plan.expected_sequence(500):
        streak = streak + 1 if kind is not None else 0
        assert streak <= 2
    # And faults do happen at a 0.9 rate.
    assert sum(k is not None for k in plan.expected_sequence(500)) > 250


def test_plan_overrides_and_rate_validation():
    pinned = NetworkFaultPlan(overrides=((0, "reset"), (1, "none"), (2, "error5xx")))
    assert pinned.expected_sequence(4) == ["reset", None, "error5xx", None]
    with pytest.raises(Exception):
        NetworkFaultPlan(refuse=0.9, reset=0.9)  # rates must sum <= 1


def test_plan_cut_points_are_deterministic_and_positive():
    plan = NetworkFaultPlan(seed=4, reset=1.0, max_consecutive=1)
    cuts = [plan.cut_point(n) for n in range(64)]
    assert cuts == [plan.cut_point(n) for n in range(64)]
    assert all(1 <= c <= plan.cut_after_bytes for c in cuts)


# ----------------------------------------------------------------------
# the proxy: enacts the plan, journals the truth
# ----------------------------------------------------------------------


@pytest.fixture()
def live_service(tmp_path):
    thread = ServiceThread(
        ExplorationService(jobs=1, cache_backend="memory", serve_dir=tmp_path)
    )
    with thread:
        yield thread


def test_proxy_journal_matches_expected_sequence(live_service):
    plan = NetworkFaultPlan(
        seed=13, refuse=0.15, reset=0.1, truncate=0.1, error5xx=0.15, delay=0.05,
        delay_s=0.01,
    )
    with ChaosProxy.for_url(live_service.base_url, plan, name="r0") as proxy:
        client = ServeClient(proxy.base_url, timeout=10, retry_backpressure=True)
        for _ in range(4):
            assert client.health()["status"] == "ok"
        fates = [entry["fault"] for entry in proxy.journal]
    oracle = [k or "clean" for k in plan.expected_sequence(len(fates))]
    assert fates == oracle
    assert len(fates) >= 4


@pytest.mark.parametrize("kind", ["refuse", "reset", "truncate", "error5xx", "delay"])
def test_chaos_matrix_each_fault_yields_correct_result_or_explicit_error(
    live_service, kind
):
    """Every fault kind, pinned on the first connections: the retrying
    client either gets the correct answer or an explicit ServeClientError
    — never a silent wrong/partial result."""
    plan = NetworkFaultPlan(
        delay_s=0.01, overrides=((0, kind), (1, kind), (2, "none"), (3, "none"))
    )
    with ChaosProxy.for_url(live_service.base_url, plan, name=kind) as proxy:
        client = ServeClient(proxy.base_url, timeout=10, retry_backpressure=True)
        try:
            body = client.health()
        except ServeClientError:
            pytest.fail(f"{kind}: retry budget should absorb a bounded streak")
        assert body["status"] == "ok"
        assert proxy.counters.get(kind, 0) >= 1
        # Under an unbounded streak the client fails *explicitly*.
        if kind != "delay":
            hopeless = NetworkFaultPlan(
                overrides=tuple((n, kind) for n in range(64))
            )
            proxy.plan = hopeless
            if kind == "error5xx":
                # injected 503s surface as the final retryable status
                with pytest.raises(ServeClientError):
                    ServeClient(
                        proxy.base_url, timeout=5, retry_backpressure=True
                    ).stats()
            else:
                with pytest.raises(ServeClientError):
                    ServeClient(proxy.base_url, timeout=5).stats()


def test_truncation_never_yields_partial_json(live_service):
    """A torn response body (clean FIN mid-JSON) must surface as a
    transport fault and be retried — the client never returns a
    half-parsed or empty payload."""
    plan = NetworkFaultPlan(overrides=((0, "truncate"), (1, "none")))
    with ChaosProxy.for_url(live_service.base_url, plan) as proxy:
        client = ServeClient(proxy.base_url, timeout=10)
        body = client.health()
        assert body["status"] == "ok"
        assert client.counters["retries"] >= 1


@pytest.mark.parametrize("kind", ["reset", "truncate"])
def test_injected_cut_arrives_as_its_kind_well_before_the_timeout(
    live_service, kind
):
    """A cut connection reaches the client at once, as the cut the plan
    injected: a reset as ``ECONNRESET``, a truncation as a torn HTTP
    response — never as a read timeout after the full socket timeout."""
    plan = NetworkFaultPlan(overrides=((0, kind),))
    with ChaosProxy.for_url(live_service.base_url, plan, name=kind) as proxy:
        client = ServeClient(proxy.base_url, timeout=5)
        started = time.monotonic()
        with pytest.raises((OSError, http.client.HTTPException)) as caught:
            client._once("GET", "/v1/stats")
        elapsed = time.monotonic() - started
    assert proxy.counters.get(kind, 0) == 1
    assert not isinstance(caught.value, socket.timeout), caught.value
    assert elapsed < 1.0, f"{kind} took {elapsed:.2f}s to reach the client"
    if kind == "reset":
        assert isinstance(caught.value, ConnectionResetError), caught.value
    else:
        assert isinstance(caught.value, http.client.HTTPException), caught.value


def test_killed_proxy_refuses_like_a_dead_replica(live_service):
    plan = NetworkFaultPlan()
    proxy = ChaosProxy.for_url(live_service.base_url, plan).start()
    client = ServeClient(proxy.base_url, timeout=5)
    assert client.health()["status"] == "ok"
    proxy.kill()
    with pytest.raises(ServeClientError):
        ServeClient(proxy.base_url, timeout=2).health()
    proxy.stop()


# ----------------------------------------------------------------------
# ReplicaSet: placement, hedging, failover
# ----------------------------------------------------------------------


def test_replica_set_placement_is_deterministic(tmp_path):
    spec = f"sqlite:{tmp_path / 'shared.sqlite'}"
    a = ServiceThread(ExplorationService(jobs=1, cache_backend=spec,
                                         serve_dir=tmp_path / "a"))
    b = ServiceThread(ExplorationService(jobs=1, cache_backend=spec,
                                         serve_dir=tmp_path / "b"))
    with a, b:
        urls = [a.base_url, b.base_url]
        rs1 = ReplicaSet(urls, seed=3)
        rs2 = ReplicaSet(urls, seed=3)
        keys = [ReplicaSet.payload_key(dict(JOB, seed=n)) for n in range(8)]
        assert [rs1.pick(k) for k in keys] == [rs2.pick(k) for k in keys]
        # A different seed reshuffles at least one placement.
        rs3 = ReplicaSet(urls, seed=4)
        assert any(
            rs1.pick(k) != rs3.pick(k) for k in keys
        ) or len(set(urls)) == 1


def test_replica_set_fails_over_submit_and_wait(tmp_path):
    spec = f"sqlite:{tmp_path / 'shared.sqlite'}"
    a = ServiceThread(ExplorationService(jobs=1, cache_backend=spec,
                                         serve_dir=tmp_path / "a"))
    b = ServiceThread(ExplorationService(jobs=1, cache_backend=spec,
                                         serve_dir=tmp_path / "b"))
    a.start()
    b.start()
    threads = {a.base_url: a, b.base_url: b}
    rs = ReplicaSet([a.base_url, b.base_url], seed=3, timeout=10, hedge_s=0.5)
    handle = rs.submit(dict(JOB))
    first = rs.wait(handle, timeout=180)
    assert first["state"] == "completed"
    served_by = handle.replica

    # The serving replica dies; the same logical job must land on the
    # survivor, be served from the shared store, and match bit-for-bit.
    threads.pop(served_by).stop()
    handle2 = rs.submit(dict(JOB))
    second = rs.wait(handle2, timeout=180)
    assert second["state"] == "completed"
    assert handle2.replica != served_by
    assert second["stats"]["evaluations"] == 0
    assert json.dumps(first["result"], sort_keys=True) == json.dumps(
        second["result"], sort_keys=True
    )
    assert rs.health_report()[served_by]["ok"] is False
    for thread in threads.values():
        thread.stop()


def test_replica_set_fails_over_mid_wait(tmp_path):
    """Kill the serving replica while the ReplicaSet is polling: the
    wait must re-home the job (resubmit) and still return the right
    answer — the failover counters prove the path ran."""
    spec = f"sqlite:{tmp_path / 'shared.sqlite'}"
    a = ServiceThread(ExplorationService(jobs=1, cache_backend=spec,
                                         serve_dir=tmp_path / "a"))
    b = ServiceThread(ExplorationService(jobs=1, cache_backend=spec,
                                         serve_dir=tmp_path / "b"))
    a.start()
    b.start()
    threads = {a.base_url: a, b.base_url: b}
    rs = ReplicaSet([a.base_url, b.base_url], seed=3, timeout=5, hedge_s=None)
    handle = rs.submit(dict(JOB, iterations=60))
    time.sleep(0.2)  # let the job start
    threads.pop(handle.replica).stop()
    record = rs.wait(handle, timeout=180)
    assert record["state"] == "completed"
    counters = rs.counters_snapshot()
    assert counters["failovers"] >= 1
    assert counters["resubmits"] >= 1
    assert len(handle.attempts) >= 2
    for thread in threads.values():
        thread.stop()


def test_replica_set_events_failover_marks_the_seam(tmp_path):
    spec = f"sqlite:{tmp_path / 'shared.sqlite'}"
    a = ServiceThread(ExplorationService(jobs=1, cache_backend=spec,
                                         serve_dir=tmp_path / "a"))
    b = ServiceThread(ExplorationService(jobs=1, cache_backend=spec,
                                         serve_dir=tmp_path / "b"))
    a.start()
    b.start()
    threads = {a.base_url: a, b.base_url: b}
    rs = ReplicaSet([a.base_url, b.base_url], seed=3, timeout=5)
    handle = rs.submit(dict(JOB, iterations=60))
    events = []
    killed = False
    for event in rs.events(handle, timeout=180):
        events.append(event)
        if not killed and event.get("event") != "replica_failover":
            threads.pop(handle.replica).stop()
            killed = True
    kinds = [e.get("event") for e in events]
    assert "replica_failover" in kinds
    # The stream restarted from scratch after the seam and then ended
    # with a completed job.
    seam = kinds.index("replica_failover")
    assert any(e.get("seq") == 1 for e in events[seam + 1 :])
    assert rs.status(handle)["state"] == "completed"
    for thread in threads.values():
        thread.stop()


# ----------------------------------------------------------------------
# the acceptance bar: SIGKILL a subprocess replica behind fault proxies
# ----------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spawn_replica(port: int, spec: str, serve_dir: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port), "--jobs", "1",
            "--cache-backend", spec, "--serve-dir", str(serve_dir),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_up(url: str, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if ServeClient(url, timeout=2).health()["status"] == "ok":
                return
        except ServeClientError:
            time.sleep(0.1)
    raise AssertionError(f"replica at {url} never came up")


def test_acceptance_sigkill_one_replica_behind_fault_proxies(tmp_path):
    """ISSUE 9's acceptance bar: two real replica processes behind fault
    proxies, one SIGKILLed mid-run.  The fleet must finish with results
    bit-identical to a clean run, and the replayed fault plan must
    reproduce the identical injected-fault sequence."""
    spec = f"sqlite:{tmp_path / 'shared.sqlite'}"

    # Fault-free truth, computed in-process against a separate store.
    clean = ServiceThread(
        ExplorationService(
            jobs=1,
            cache_backend=f"sqlite:{tmp_path / 'clean.sqlite'}",
            serve_dir=tmp_path / "clean",
        )
    )
    with clean:
        client = ServeClient(clean.base_url)
        truth = client.wait(client.submit(dict(JOB))["id"], timeout=180)
    assert truth["state"] == "completed"

    ports = [_free_port(), _free_port()]
    procs = [
        _spawn_replica(ports[0], spec, tmp_path / "r0"),
        _spawn_replica(ports[1], spec, tmp_path / "r1"),
    ]
    plan = NetworkFaultPlan(
        seed=21, refuse=0.1, reset=0.08, truncate=0.08, error5xx=0.1,
        delay=0.05, delay_s=0.01,
    )
    proxies = []
    try:
        for port in ports:
            _wait_up(f"http://127.0.0.1:{port}")
        proxies = [
            ChaosProxy("127.0.0.1", port, plan.reseeded(i), name=f"r{i}")
            for i, port in enumerate(ports)
        ]
        for proxy in proxies:
            proxy.start()
        rs = ReplicaSet(
            [proxy.base_url for proxy in proxies], seed=3, timeout=10
        )

        handle = rs.submit(dict(JOB, iterations=60))
        time.sleep(0.2)
        # SIGKILL the replica actually running the job — no drain, no
        # goodbye, exactly what a crashed host looks like.
        victim = [p.base_url for p in proxies].index(handle.replica)
        procs[victim].send_signal(signal.SIGKILL)
        procs[victim].wait(timeout=10)
        long_record = rs.wait(handle, timeout=240)
        assert long_record["state"] == "completed"
        assert rs.counters_snapshot()["failovers"] >= 1

        # And the standard job, repeated, comes from the shared store
        # bit-identical to the fault-free truth.
        record = rs.wait(rs.submit(dict(JOB)), timeout=240)
        assert record["state"] == "completed"
        assert json.dumps(record["result"], sort_keys=True) == json.dumps(
            truth["result"], sort_keys=True
        )
        repeat = rs.wait(rs.submit(dict(JOB)), timeout=240)
        assert repeat["stats"]["evaluations"] == 0

        # Replay oracle: every proxy journalled exactly the sequence its
        # (reseeded) plan predicts — rerunning the plan reproduces it.
        for i, proxy in enumerate(proxies):
            fates = [e["fault"] for e in proxy.journal]
            oracle = [
                k or "clean"
                for k in plan.reseeded(i).expected_sequence(len(fates))
            ]
            assert fates == oracle
    finally:
        for proxy in proxies:
            proxy.stop()
        for proc in procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)


# ----------------------------------------------------------------------
# run_chaos: the round CI runs
# ----------------------------------------------------------------------


def test_run_chaos_small_round_is_bit_identical(tmp_path):
    """The CI chaos round: one gzip job at 40 iterations on two replicas
    behind the CI fault plan, the first job's replica killed mid-flight.
    The connection journal, the report and the stitched fleet trace are
    written to ``tmp_path``, where CI's ``--basetemp`` keeps them."""
    plan = NetworkFaultPlan(
        seed=11, refuse=0.08, reset=0.06, truncate=0.06, error5xx=0.1,
        delay=0.08, delay_s=0.05,
    )
    journal_path = tmp_path / "chaos-journal.jsonl"
    report = run_chaos(
        [dict(JOB, iterations=40)],
        plan,
        tmp_path,
        replicas=2,
        seed=plan.seed,
        kill_first_replica=True,
        timeout_s=600,
        journal_path=journal_path,
    )
    (tmp_path / "CHAOS_report.json").write_text(
        json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True) + "\n"
    )
    trace = fleet.fleet_chrome_trace(fleet.stitch_journals(report.journal_dirs))
    (tmp_path / "fleet-trace.json").write_text(json.dumps(trace) + "\n")

    assert report.identical
    assert report.store_served_repeats >= 1
    assert report.chaos_digests == report.baseline_digests
    assert sum(report.faults.values()) == len(report.journal)
    assert journal_path.exists()
    assert report.killed_replica
    assert report.client["failovers"] >= 1, report.client
    injected = sum(n for kind, n in report.faults.items() if kind != "clean")
    assert injected >= 1, report.faults

    # The stitched fleet trace has a lane per journal and holds every
    # trace id the chaos client minted.
    lanes = {event["pid"] for event in trace["traceEvents"]}
    assert len(lanes) >= 2, lanes
    seen = {
        event["args"].get("trace_id")
        for event in trace["traceEvents"]
        if isinstance(event.get("args"), dict)
    }
    minted = set(report.trace_ids)
    assert minted, "the chaos round recorded no trace ids"
    assert minted <= seen, minted - seen
