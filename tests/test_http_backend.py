"""The ``http:`` network cache backend under weather.

The conformance suite (test_cache_backends.py) proves the backend is a
correct store when the network behaves; this suite proves what happens
when it does not: deterministic retry backoff, circuit-breaker
transitions, degrade to the local read-through/write-behind tier (never
quarantine), in-order replay on heal, and the degrade-vs-quarantine
taxonomy (server-reported corruption still quarantines; a non-cache
server is unavailable, fail-fast).
"""

from __future__ import annotations

import threading

import pytest

from repro.engine.cache_backends import (
    CacheCorruption,
    CacheUnavailable,
    HttpBackend,
    MemoryBackend,
    make_backend,
)
from repro.engine.resilience import (
    CIRCUIT_CLOSED,
    CIRCUIT_HALF_OPEN,
    CIRCUIT_OPEN,
    CircuitBreaker,
    RetryPolicy,
)
from repro.serve.service import ExplorationService, ServiceThread


@pytest.fixture()
def server(tmp_path):
    thread = ServiceThread(
        ExplorationService(jobs=1, cache_backend="memory", serve_dir=tmp_path)
    )
    with thread:
        yield thread


def fast_backend(url: str, threshold: int = 2) -> HttpBackend:
    """A backend with tiny budgets so failure paths run in milliseconds."""
    return HttpBackend(
        url,
        timeout_s=2.0,
        retry=RetryPolicy(max_retries=1, backoff_base_s=0.001, backoff_max_s=0.002),
        breaker=CircuitBreaker(failure_threshold=threshold, cooldown_s=0.05),
    )


def test_make_backend_parses_http_urls(server):
    backend = make_backend(server.base_url)
    assert isinstance(backend, HttpBackend)
    assert backend.describe() == server.base_url
    backend.close()


def test_memory_store_keeps_only_its_most_recent_rows(tmp_path, monkeypatch):
    """1,000 puts into a ``memory`` service's ``/v1/cache`` leave only
    the bound's worth of rows: the least recently used are evicted."""
    from repro.serve import service as service_module

    monkeypatch.setattr(service_module, "MEMORY_STORE_ROWS", 100)
    service = ExplorationService(jobs=1, cache_backend="memory", serve_dir=tmp_path)
    with ServiceThread(service) as thread:
        backend = fast_backend(thread.base_url)
        for i in range(1_000):
            backend.put(f"key{i}", f"value{i}", None)
        store = service._store_handle()
        assert len(store) == 100
        assert backend.get("key999") == ("value999", None)
        assert backend.get("key0") is None
        assert sorted(backend.keys()) == sorted(f"key{i}" for i in range(900, 1_000))
        backend.close()


def test_memory_backend_evicts_least_recently_used():
    store = MemoryBackend(max_rows=2)
    store.put("a", "1", None)
    store.put("b", "2", None)
    assert store.get("a") == ("1", None)
    store.put("c", "3", None)
    assert sorted(store.keys()) == ["a", "c"]


def test_hostile_keys_round_trip(server):
    backend = fast_backend(server.base_url)
    for key in ("a/b/c", "with space", "q?x=1&y=2", "uni-ключ", "#frag%00"):
        backend.put(key, f"value-{key}", "c1")
        assert backend.get(key) == (f"value-{key}", "c1")
    assert sorted(backend.keys()) == sorted(
        ["a/b/c", "with space", "q?x=1&y=2", "uni-ключ", "#frag%00"]
    )
    backend.close()


def test_degrades_to_local_tier_and_replays_on_heal(tmp_path):
    """Network death mid-life: reads serve from the local LRU, writes
    queue, and a healed network gets every queued write in order."""
    service = ExplorationService(jobs=1, cache_backend="memory", serve_dir=tmp_path)
    thread = ServiceThread(service)
    thread.start()
    port = service.port
    backend = fast_backend(thread.base_url)
    backend.put("k1", "v1", "c1")
    thread.stop()

    # Remote is gone: reads degrade (local tier answers), none raise.
    assert backend.get("k1") == ("v1", "c1")
    assert backend.get("unseen") is None  # honest miss, not an error
    backend.put("k2", "v2", "c2")  # deferred, not lost
    assert backend.get("k2") == ("v2", "c2")
    assert backend.stats["degraded_reads"] > 0
    assert backend.stats["deferred_writes"] >= 1

    # Heal: a new service on the SAME port (fresh memory store).
    service2 = ExplorationService(jobs=1, cache_backend="memory", serve_dir=tmp_path)
    thread2 = ServiceThread(service2, port=port)
    with thread2:
        import time

        deadline = 100
        while backend.breaker.state != CIRCUIT_CLOSED and deadline:
            backend.get("k2")  # probes flow through normal operations
            time.sleep(0.02)
            deadline -= 1
        assert backend.stats["replayed_writes"] >= 1
        # The replayed row is now remotely visible to a fresh handle.
        fresh = fast_backend(thread2.base_url)
        assert fresh.get("k2") == ("v2", "c2")
        fresh.close()
    backend.close()


def test_circuit_transitions_closed_open_halfopen_closed(tmp_path):
    service = ExplorationService(jobs=1, cache_backend="memory", serve_dir=tmp_path)
    thread = ServiceThread(service)
    thread.start()
    port = service.port
    backend = fast_backend(thread.base_url, threshold=2)
    backend.put("k", "v", None)
    thread.stop()

    # Enough failures to open the circuit.
    for _ in range(3):
        backend.get("miss-1")
    assert backend.breaker.state == CIRCUIT_OPEN
    rejected_before = backend.breaker.counters["rejected"]
    backend.get("miss-2")  # while open: rejected without touching the wire
    assert backend.breaker.counters["rejected"] > rejected_before

    # Heal and wait out the cool-down; the next call is the half-open
    # probe and closes the circuit.
    service2 = ExplorationService(jobs=1, cache_backend="memory", serve_dir=tmp_path)
    with ServiceThread(service2, port=port):
        import time

        time.sleep(backend.breaker.current_cooldown_s() + 0.05)
        backend.get("k")
        assert backend.breaker.state == CIRCUIT_CLOSED

    states = [t["to"] for t in backend.breaker.transitions]
    assert states == [CIRCUIT_OPEN, CIRCUIT_HALF_OPEN, CIRCUIT_CLOSED]
    backend.close()


def test_cooldown_ramp_is_deterministic():
    breaker = CircuitBreaker(
        failure_threshold=1, cooldown_s=2.0, cooldown_factor=2.0, cooldown_max_s=5.0
    )
    ramps = []
    for _ in range(4):
        breaker.record_failure("test")
        ramps.append(breaker.current_cooldown_s())
        breaker.state = "half-open"  # force re-open on next failure
    assert ramps == [2.0, 4.0, 5.0, 5.0]


def test_retry_backoff_is_deterministic():
    policy = RetryPolicy(max_retries=3, backoff_base_s=0.05, seed=9)
    a = [policy.delay_s("GET /v1/cache/k", n) for n in range(1, 4)]
    b = [policy.delay_s("GET /v1/cache/k", n) for n in range(1, 4)]
    assert a == b
    assert a != [policy.delay_s("GET /v1/cache/other", n) for n in range(1, 4)]


def test_server_reported_corruption_still_quarantines(server, monkeypatch):
    """Only real store damage maps to CacheCorruption — the server says
    so explicitly; network weather never does."""
    backend = fast_backend(server.base_url)
    monkeypatch.setattr(
        backend,
        "_http",
        lambda *a, **k: (
            500,
            {"Content-Type": "application/json"},
            {"error": "store corrupt", "status": 500, "corruption": True},
        ),
    )
    with pytest.raises(CacheCorruption):
        backend.get("k")


def test_non_cache_server_fails_fast_as_unavailable(server):
    """A live server without the cache API is a misconfiguration:
    CacheUnavailable on writes (404 on an unexpected route), without a
    retry storm."""
    backend = HttpBackend(
        f"http://{server.service.host}:{server.service.port}/not-the-api",
        retry=RetryPolicy(max_retries=3, backoff_base_s=0.001),
    )
    calls_before = backend.stats["remote_calls"]
    with pytest.raises(CacheUnavailable):
        backend.put("k", "v", None)
    assert backend.stats["remote_calls"] == calls_before + 1  # fail-fast
    backend.close()


def test_concurrent_degraded_writers_never_lose_rows(tmp_path):
    """Hammer a dead backend from several threads: every write lands in
    the local tier and the pending queue without tearing."""
    service = ExplorationService(jobs=1, cache_backend="memory", serve_dir=tmp_path)
    thread = ServiceThread(service)
    thread.start()
    backend = fast_backend(thread.base_url)
    thread.stop()

    def writer(start: int) -> None:
        for i in range(start, start + 20):
            backend.put(f"k{i}", f"v{i}", None)

    threads = [threading.Thread(target=writer, args=(n * 20,)) for n in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i in range(80):
        assert backend.get(f"k{i}") == (f"v{i}", None)
    assert len(backend) == 80
    backend.close()


def test_stats_snapshot_shape(server):
    backend = fast_backend(server.base_url)
    backend.put("k", "v", None)
    backend.get("k")
    snap = backend.stats_snapshot()
    assert snap["remote_calls"] >= 2
    assert snap["circuit"]["state"] == CIRCUIT_CLOSED
    assert {"pending_writes", "local_entries", "degraded_reads"} <= set(snap)
    backend.close()
