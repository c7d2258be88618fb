"""SSE bridge tests: the journal is the stream (satellite 4).

The service streams a job's progress by tailing its private
:class:`RunJournal`; reconnecting with ``Last-Event-ID`` must resume
from the journal's monotonic ``seq`` without duplicating or dropping
events — including when the journal *rotated* between disconnect and
reconnect.  These tests drive :class:`JournalFollower` directly against
real journals (small ``rotate_bytes`` to force rotation) and then the
full HTTP path through a live service.
"""

from __future__ import annotations

import json

import pytest

from repro.engine.telemetry import RunJournal, journal_files
from repro.serve import JournalFollower, ServeClient, format_sse
from repro.serve.service import ExplorationService, ServiceThread


def write_events(journal: RunJournal, count: int, start: int = 0) -> None:
    for i in range(start, start + count):
        journal.append("tick", {"n": i, "pad": "x" * 64})


# ----------------------------------------------------------------------
# frame formatting
# ----------------------------------------------------------------------


def test_format_sse_carries_seq_as_event_id():
    frame = format_sse({"seq": 42, "event": "task_end", "payload": {"ok": True}})
    lines = frame.splitlines()
    assert lines[0] == "id: 42"
    assert lines[1] == "event: task_end"
    assert lines[2].startswith("data: ")
    assert json.loads(lines[2][6:]) == {
        "seq": 42,
        "event": "task_end",
        "payload": {"ok": True},
    }
    assert frame.endswith("\n\n")


# ----------------------------------------------------------------------
# JournalFollower: incremental tailing
# ----------------------------------------------------------------------


def test_follower_yields_each_event_exactly_once(tmp_path):
    journal = RunJournal(tmp_path / "events.jsonl")
    write_events(journal, 5)
    follower = JournalFollower(journal.path)
    first = follower.poll()
    assert [e["n"] for e in first] == [0, 1, 2, 3, 4]
    assert follower.poll() == []  # nothing new, nothing repeated
    write_events(journal, 3, start=5)
    second = follower.poll()
    assert [e["n"] for e in second] == [5, 6, 7]
    journal.close()


def test_follower_resumes_after_given_seq(tmp_path):
    journal = RunJournal(tmp_path / "events.jsonl")
    write_events(journal, 10)
    journal.close()
    resumed = JournalFollower(journal.path, after_seq=6)
    events = resumed.poll()
    assert [e["seq"] for e in events] == [7, 8, 9, 10]


def test_follower_ignores_torn_tail_until_complete(tmp_path):
    journal = RunJournal(tmp_path / "events.jsonl")
    write_events(journal, 2)
    journal.close()
    path = tmp_path / "events.jsonl"
    complete = path.read_bytes()
    with open(path, "ab") as handle:
        handle.write(b'{"seq": 3, "event": "torn"')  # append in flight
    follower = JournalFollower(path)
    assert [e["seq"] for e in follower.poll()] == [1, 2]
    with open(path, "wb") as handle:  # the append completes
        handle.write(complete + b'{"seq": 3, "event": "late", "payload": {}}\n')
    assert [e["seq"] for e in follower.poll()] == [3]


def test_follower_survives_rotation_without_dup_or_drop(tmp_path):
    """seq is monotonic across rotation; the follower must be too."""
    journal = RunJournal(tmp_path / "events.jsonl", rotate_bytes=4096)
    follower = JournalFollower(journal.path)
    seen: list[int] = []
    total = 200  # ~130 bytes/event -> several rotations
    for i in range(total):
        journal.append("tick", {"n": i, "pad": "x" * 64})
        if i % 17 == 0:  # interleave polls with writes and rotations
            seen.extend(e["seq"] for e in follower.poll())
    journal.close()
    seen.extend(e["seq"] for e in follower.poll())
    assert len(journal_files(journal.path)) > 1, "rotation never happened"
    assert seen == list(range(1, total + 1))


def test_fresh_follower_replays_across_rotated_files(tmp_path):
    """A reconnect mid-journal resumes even when the cut-off event now
    lives in a rotated predecessor file."""
    journal = RunJournal(tmp_path / "events.jsonl", rotate_bytes=4096)
    write_events(journal, 120)
    journal.close()
    assert len(journal_files(journal.path)) > 1
    reconnect = JournalFollower(journal.path, after_seq=40)
    events = reconnect.poll()
    assert [e["seq"] for e in events] == list(range(41, 121))


# ----------------------------------------------------------------------
# end-to-end over HTTP
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def live_service(tmp_path_factory):
    serve_dir = tmp_path_factory.mktemp("serve-sse")
    service = ExplorationService(
        jobs=1, cache_backend="memory", serve_dir=serve_dir
    )
    with ServiceThread(service) as thread:
        yield ServeClient(thread.base_url)


def _small_job(client: ServeClient) -> str:
    submitted = client.submit(
        {"kind": "customize", "benchmarks": ["gzip"], "iterations": 25, "seed": 7}
    )
    return submitted["id"]


def test_stream_runs_from_job_start_to_job_end(live_service):
    job_id = _small_job(live_service)
    events = list(live_service.events(job_id))
    assert events, "stream yielded nothing"
    assert events[0]["event"] == "job_start"
    assert events[-1]["event"] == "job_end"
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(set(seqs)), "events duplicated or out of order"


def test_reconnect_with_last_event_id_is_lossless(live_service):
    job_id = _small_job(live_service)
    complete = list(live_service.events(job_id))
    assert len(complete) > 4
    # Take a few events, "drop the connection", reconnect with the
    # last seen id: the two halves must splice exactly.
    cut = len(complete) // 3
    first_half = complete[:cut]
    resumed = list(
        live_service.events(job_id, after_seq=first_half[-1]["seq"])
    )
    spliced = [e["seq"] for e in first_half + resumed]
    assert spliced == [e["seq"] for e in complete]


def test_stream_replays_finished_job_from_scratch(live_service):
    job_id = _small_job(live_service)
    live_service.wait(job_id)
    replay_one = list(live_service.events(job_id))
    replay_two = list(live_service.events(job_id))
    assert [e["seq"] for e in replay_one] == [e["seq"] for e in replay_two]
    assert replay_one[-1]["event"] == "job_end"


def test_counter_frames_sum_to_the_jobs_stats_before_job_end(live_service):
    # Counters reach the stream in coalesced bursts; their counts still
    # add up to the job's own stats, all of them ahead of job_end.
    job_id = live_service.submit(
        {"kind": "customize", "benchmarks": ["mcf"], "iterations": 40, "seed": 3}
    )["id"]
    events = list(live_service.events(job_id))
    stats = live_service.wait(job_id)["stats"]
    assert events[-1]["event"] == "job_end"
    body = events[:-1]
    sums = {
        kind: sum(e["count"] for e in body if e["event"] == kind)
        for kind in ("cache_hit", "cache_miss")
    }
    assert sums == {
        "cache_hit": stats["cache_hits"],
        "cache_miss": stats["cache_misses"],
    }
    assert sums["cache_miss"] > 0
    assert len(events) < sums["cache_hit"] + sums["cache_miss"]


def test_stream_for_unknown_job_is_404(live_service):
    from repro.errors import ServeClientError

    with pytest.raises(ServeClientError) as info:
        list(live_service.events("j99999-nonexistent"))
    assert info.value.status == 404
