"""Multi-replica shared-result-store tests — the PR's acceptance bar.

Two service replicas (separate slot threads and engines, separate HTTP
ports) point at ONE sqlite-WAL store.  A customization
job computed by replica A must be served by replica B from the store:
zero fresh evaluations, bit-identical result.  Same story for two
engines inside one replica.
"""

from __future__ import annotations

import json

from repro.serve import ServeClient
from repro.serve.service import ExplorationService, ServiceThread

JOB = {
    "kind": "customize",
    "benchmarks": ["gzip"],
    "iterations": 30,
    "seed": 5,
}


def test_second_replica_serves_repeated_job_from_shared_store(tmp_path):
    spec = f"sqlite:{tmp_path / 'shared.sqlite'}"

    replica_a = ExplorationService(
        jobs=1, cache_backend=spec, serve_dir=tmp_path / "a"
    )
    replica_b = ExplorationService(
        jobs=1, cache_backend=spec, serve_dir=tmp_path / "b"
    )
    with ServiceThread(replica_a) as thread_a, ServiceThread(replica_b) as thread_b:
        client_a = ServeClient(thread_a.base_url)
        client_b = ServeClient(thread_b.base_url)

        first = client_a.wait(client_a.submit(dict(JOB))["id"])
        assert first["state"] == "completed"
        assert first["stats"]["evaluations"] > 0

        second = client_b.wait(client_b.submit(dict(JOB))["id"])
        assert second["state"] == "completed"
        # No re-simulation: every evaluation came out of the store.
        assert second["stats"]["evaluations"] == 0
        assert second["stats"]["cache"]["hits"] > 0

    assert json.dumps(first["result"], sort_keys=True) == json.dumps(
        second["result"], sort_keys=True
    )


def test_replicas_see_each_others_writes_without_restart(tmp_path):
    """WAL + per-put commits: rows land while both replicas stay up,
    in both directions."""
    spec = f"sqlite:{tmp_path / 'shared.sqlite'}"
    replica_a = ExplorationService(jobs=1, cache_backend=spec, serve_dir=tmp_path / "a")
    replica_b = ExplorationService(jobs=1, cache_backend=spec, serve_dir=tmp_path / "b")
    with ServiceThread(replica_a) as thread_a, ServiceThread(replica_b) as thread_b:
        client_a = ServeClient(thread_a.base_url)
        client_b = ServeClient(thread_b.base_url)
        # A computes job 1; B replays it, then computes job 2; A replays that.
        client_a.wait(client_a.submit(dict(JOB))["id"])
        replay_b = client_b.wait(client_b.submit(dict(JOB))["id"])
        assert replay_b["stats"]["evaluations"] == 0

        job2 = dict(JOB, seed=6)
        client_b.wait(client_b.submit(dict(job2))["id"])
        replay_a = client_a.wait(client_a.submit(dict(job2))["id"])
        assert replay_a["stats"]["evaluations"] == 0


def test_two_slots_in_one_replica_share_the_store(tmp_path):
    """Each job slot leases its own engine and backend handle; slot 2
    still hits rows slot 1 stored."""
    spec = f"sqlite:{tmp_path / 'shared.sqlite'}"
    service = ExplorationService(jobs=2, cache_backend=spec, serve_dir=tmp_path / "s")
    with ServiceThread(service) as thread:
        client = ServeClient(thread.base_url)
        first = client.wait(client.submit(dict(JOB))["id"])
        assert first["stats"]["evaluations"] > 0
        # Submit two copies concurrently: whichever engine runs the
        # repeat, the store already has every row.
        ids = [client.submit(dict(JOB))["id"] for _ in range(2)]
        records = [client.wait(job_id) for job_id in ids]
    for record in records:
        assert record["state"] == "completed"
        assert record["stats"]["evaluations"] == 0
        assert json.dumps(record["result"], sort_keys=True) == json.dumps(
            first["result"], sort_keys=True
        )
