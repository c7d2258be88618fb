"""Fleet observability: trace propagation, stitching and aggregation.

Covers the distributed-tracing layer end to end: traceparent headers
from client to replica journals to the http store backend, journal
stitching with skew alignment and failover seams, bucket-wise metric
merging across replicas.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine.telemetry import (
    MetricsRegistry,
    RunJournal,
    TraceContext,
    activate_trace,
    current_trace,
    escape_label_value,
    merge_metric_snapshots,
    mint_span_id,
    parse_traceparent,
    series_key,
)
from repro.engine.trace import critical_path
from repro.serve import ServeClient
from repro.serve import fleet as fleet_mod
from repro.serve.fleet import (
    FleetError,
    aggregate_fleet,
    collect_journal_files,
    fleet_chrome_trace,
    fleet_span_tree,
    scrape_fleet,
    stitch_journals,
)
from repro.serve.service import ExplorationService, ServiceThread

from .chaos import ReplicaSet

JOB = {"kind": "customize", "benchmarks": ["gzip"], "iterations": 15, "seed": 5}


# ----------------------------------------------------------------------
# traceparent + label escaping (the wire-format primitives)
# ----------------------------------------------------------------------


def test_traceparent_round_trip():
    context = TraceContext.mint()
    parsed = parse_traceparent(context.header())
    assert parsed is not None
    assert parsed.trace_id == context.trace_id
    assert parsed.span_id == context.span_id


@pytest.mark.parametrize(
    "bad",
    [
        None,
        "",
        "garbage",
        "00-zz-yy-01",
        "00-" + "a" * 31 + "-" + "b" * 16 + "-01",  # short trace id
        "99-" + "a" * 32 + "-" + "b" * 16,          # missing flags
    ],
)
def test_malformed_traceparent_is_ignored(bad):
    assert parse_traceparent(bad) is None


def test_escape_label_value_covers_backslash_quote_newline():
    assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'
    assert escape_label_value("plain") == "plain"
    # Escaping is idempotent-safe for the series key: round-tripping
    # through series_key keeps hostile values inside the quotes.
    key = series_key("m_total", {"tenant": 'evil"\n\\'})
    assert key == 'm_total{tenant="evil\\"\\n\\\\"}'


def test_labeled_series_are_distinct_and_render_once_per_family():
    registry = MetricsRegistry()
    registry.counter("x_total", "help text").inc(1)
    registry.counter("x_total", "help text", labels={"tenant": "a"}).inc(2)
    registry.counter("x_total", "help text", labels={"tenant": "b"}).inc(3)
    text = registry.render_prometheus()
    assert text.count("# HELP x_total") == 1
    assert text.count("# TYPE x_total counter") == 1
    assert 'x_total{tenant="a"} 2' in text
    assert 'x_total{tenant="b"} 3' in text
    assert "\nx_total 1" in text or text.startswith("x_total 1")


# ----------------------------------------------------------------------
# histogram merge: merged snapshots == one registry over the union
# ----------------------------------------------------------------------


def _observe_all(registry: MetricsRegistry, samples) -> None:
    hist = registry.histogram("h_seconds", "h")
    for sample in samples:
        hist.observe(sample)
    counter = registry.counter("c_total", "c")
    counter.inc(len(samples))


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_merged_snapshots_equal_registry_over_union(seed):
    rng = random.Random(seed)
    parts = [
        [rng.uniform(1e-6, 100.0) for _ in range(rng.randrange(0, 40))]
        for _ in range(3)
    ]
    snapshots = []
    for samples in parts:
        registry = MetricsRegistry()
        _observe_all(registry, samples)
        snapshots.append(registry.to_jsonable())
    merged = merge_metric_snapshots(snapshots)

    union_registry = MetricsRegistry()
    _observe_all(union_registry, [s for samples in parts for s in samples])
    union = union_registry.to_jsonable()

    assert merged["c_total"]["value"] == union["c_total"]["value"]
    got, want = merged["h_seconds"], union["h_seconds"]
    assert got["count"] == want["count"]
    assert got["buckets"] == want["buckets"]  # bucket-wise, exact
    assert got["sum"] == pytest.approx(want["sum"])
    if want["count"]:
        assert got["mean"] == pytest.approx(want["mean"])
        assert got["min"] == pytest.approx(want["min"])
        assert got["max"] == pytest.approx(want["max"])


def test_merge_rejects_kind_mismatch():
    a = MetricsRegistry()
    a.counter("m", "")
    b = MetricsRegistry()
    b.gauge("m", "")
    with pytest.raises(ValueError):
        merge_metric_snapshots([a.to_jsonable(), b.to_jsonable()])


# ----------------------------------------------------------------------
# journal stitching (synthetic journals: fast, no service needed)
# ----------------------------------------------------------------------


def _write_journal(path: Path, records) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for seq, record in enumerate(records, start=1):
            handle.write(json.dumps({"seq": seq, **record}) + "\n")
    return path


def _replica_journal(
    path: Path,
    *,
    trace_id: str,
    span: str,
    replica: str,
    t0: float,
    seconds: float,
    ended: bool = True,
    parent: str | None = None,
):
    records = [
        {
            "ts": t0,
            "mono": 1000.0,
            "event": "job_start",
            "job": f"job-{replica}",
            "span": span,
            "trace_id": trace_id,
            "parent_span_id": parent,
            "replica_id": replica,
        },
        {
            "ts": t0 + seconds / 2,
            "mono": 1000.0 + seconds / 2,
            "event": "evaluation",
            "trace_id": trace_id,
            "replica_id": replica,
        },
    ]
    if ended:
        records.append(
            {
                "ts": t0 + seconds,
                "mono": 1000.0 + seconds,
                "event": "job_end",
                "job": f"job-{replica}",
                "span": span,
                "state": "completed",
                "seconds": seconds,
                "trace_id": trace_id,
                "replica_id": replica,
            }
        )
    return _write_journal(path, records)


def test_collect_skips_empty_dirs_but_rejects_missing_files(tmp_path):
    journal = _write_journal(
        tmp_path / "r0" / "events.jsonl", [{"ts": 1.0, "event": "job_start"}]
    )
    (tmp_path / "idle-replica").mkdir()
    files = collect_journal_files(
        [tmp_path / "r0", tmp_path / "idle-replica", tmp_path / "gone-dir"]
    )
    assert files == [journal]
    with pytest.raises(FleetError):
        collect_journal_files([tmp_path / "nope.jsonl"])
    with pytest.raises(FleetError):
        collect_journal_files([tmp_path / "idle-replica"])  # nothing at all


def test_stitch_is_deterministic_under_input_permutation(tmp_path):
    tid = "f" * 32
    a = _replica_journal(
        tmp_path / "a.jsonl", trace_id=tid, span="s1", replica="r0",
        t0=100.0, seconds=2.0, ended=False,
    )
    b = _replica_journal(
        tmp_path / "b.jsonl", trace_id=tid, span="s2", replica="r1",
        t0=90.0, seconds=1.0, parent="s1",
    )
    first = stitch_journals([a, b])
    second = stitch_journals([b, a])
    assert [str(v.path) for v in first.journals] == [
        str(v.path) for v in second.journals
    ]
    assert [v.shift_s for v in first.journals] == [
        v.shift_s for v in second.journals
    ]
    assert first.events() == second.events()


def test_causal_repair_shifts_skewed_child_journal_forward(tmp_path):
    """r1's wall clock runs 10s behind r0's, yet its job was caused by
    a span started on r0 — the stitcher must shift r1 wholly forward."""
    tid = "e" * 32
    a = _replica_journal(
        tmp_path / "a.jsonl", trace_id=tid, span="s1", replica="r0",
        t0=100.0, seconds=2.0, ended=False,
    )
    b = _replica_journal(
        tmp_path / "b.jsonl", trace_id=tid, span="s2", replica="r1",
        t0=90.0, seconds=1.0, parent="s1",
    )
    stitched = stitch_journals([a, b])
    by_path = {v.path.name: v for v in stitched.journals}
    assert by_path["a.jsonl"].shift_s == 0.0
    assert by_path["b.jsonl"].shift_s >= 10.0
    starts = {
        r["replica_id"]: r["aligned_ts"]
        for r in stitched.events()
        if r["event"] == "job_start"
    }
    assert starts["r1"] > starts["r0"]


def test_fleet_tree_chains_incarnations_through_failover_seam(tmp_path):
    """A lost incarnation (no job_end — the SIGKILL case) chains into
    its successor via a `failover` seam that the critical path crosses."""
    tid = "d" * 32
    _replica_journal(
        tmp_path / "r0" / "jobs" / "j1" / "events.jsonl",
        trace_id=tid, span="s1", replica="r0",
        t0=100.0, seconds=3.0, ended=False,
    )
    _replica_journal(
        tmp_path / "r1" / "jobs" / "j1r" / "events.jsonl",
        trace_id=tid, span="s2", replica="r1",
        t0=104.0, seconds=2.0,
    )
    stitched = stitch_journals([tmp_path / "r0", tmp_path / "r1"])
    assert stitched.trace_ids == [tid]
    (root,) = fleet_span_tree(stitched)
    assert root.kind == "trace"
    path = critical_path([root])
    kinds = [node.kind for node in path]
    assert "failover" in kinds, kinds
    assert kinds[-1] == "job"  # ends on the surviving incarnation
    assert any(node.kind == "job-lost" for node in path)
    # The seam carries the downstream chain so the walk descends it.
    seam = path[kinds.index("failover")]
    assert seam.seconds == pytest.approx(2.0, rel=0.01)


def test_fleet_chrome_trace_gives_each_journal_a_named_lane(tmp_path):
    tid = "c" * 32
    a = _replica_journal(
        tmp_path / "a.jsonl", trace_id=tid, span="s1", replica="r0",
        t0=10.0, seconds=1.0,
    )
    b = _replica_journal(
        tmp_path / "b.jsonl", trace_id=tid, span="s2", replica="r1",
        t0=11.5, seconds=1.0,
    )
    payload = fleet_chrome_trace(stitch_journals([a, b]))
    meta = [e for e in payload["traceEvents"] if e.get("ph") == "M"]
    assert {e["pid"] for e in meta} == {1, 2}
    assert all(e["name"] == "process_name" for e in meta)
    pids = {e["pid"] for e in payload["traceEvents"]}
    assert pids == {1, 2}


def test_stitch_trace_filter_drops_unrelated_journals(tmp_path):
    tid, other = "a" * 32, "b" * 32
    a = _replica_journal(
        tmp_path / "a.jsonl", trace_id=tid, span="s1", replica="r0",
        t0=10.0, seconds=1.0,
    )
    b = _replica_journal(
        tmp_path / "b.jsonl", trace_id=other, span="s2", replica="r1",
        t0=10.0, seconds=1.0,
    )
    stitched = stitch_journals([a, b], trace_id=tid)
    assert [v.path.name for v in stitched.journals] == ["a.jsonl"]
    with pytest.raises(FleetError):
        stitch_journals([a, b], trace_id="9" * 32)


# ----------------------------------------------------------------------
# ambient trace context + journal stamping
# ----------------------------------------------------------------------


def test_activate_trace_scopes_the_ambient_context():
    assert current_trace() is None
    context = TraceContext.mint()
    with activate_trace(context) as active:
        assert active is context
        assert current_trace() is context
        child = current_trace().child()
        assert child.trace_id == context.trace_id
        assert child.span_id != context.span_id
    assert current_trace() is None


def test_journal_context_stamps_every_record(tmp_path):
    journal = RunJournal(
        tmp_path / "events.jsonl",
        context={"trace_id": "t" * 32, "replica_id": "r9"},
    )
    journal.append("job_start", {"job": "j1"})
    journal.append("evaluation", {"seconds": 0.1, "trace_id": "override"})
    journal.close()
    records = [
        json.loads(line)
        for line in (tmp_path / "events.jsonl").read_text().splitlines()
    ]
    assert all(r["replica_id"] == "r9" for r in records)
    assert records[0]["trace_id"] == "t" * 32
    assert records[1]["trace_id"] == "override"  # payload wins
    assert all("mono" in r for r in records)


# ----------------------------------------------------------------------
# two live replicas: propagation, scraping, merging, the fleet CLI
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """Two replicas over one shared sqlite store, two completed jobs."""
    tmp = tmp_path_factory.mktemp("fleet")
    spec = f"sqlite:{tmp / 'shared.sqlite'}"
    threads = [
        ServiceThread(
            ExplorationService(
                jobs=1,
                cache_backend=spec,
                serve_dir=tmp / f"r{i}",
                replica_id=f"r{i}",
            )
        ).start()
        for i in range(2)
    ]
    urls = [t.base_url for t in threads]
    rs = ReplicaSet(urls, seed=3, timeout=10)
    handles = [
        rs.submit(dict(JOB, seed=seed)) for seed in (5, 6, 7)
    ]
    for handle in handles:
        record = rs.wait(handle, timeout=180)
        assert record["state"] == "completed"
    yield {"tmp": tmp, "urls": urls, "handles": handles, "threads": threads}
    for thread in threads:
        thread.stop()


def test_trace_id_propagates_client_to_replica_journal(fleet):
    for handle in fleet["handles"]:
        assert handle.trace_id is not None
        client = ServeClient(handle.replica)
        record = client.status(handle.job_id)
        assert record["trace_id"] == handle.trace_id


def test_replica_journals_carry_the_client_trace_id(fleet):
    stitched = stitch_journals(
        [fleet["tmp"] / "r0", fleet["tmp"] / "r1"]
    )
    assert set(stitched.trace_ids) == {
        handle.trace_id for handle in fleet["handles"]
    }
    for record in stitched.events():
        if record.get("event") in ("job_start", "job_end"):
            assert record.get("trace_id") in stitched.trace_ids
            assert record.get("replica_id") in ("r0", "r1")


def test_fleet_metrics_merge_equals_bucketwise_sum_of_scrapes(fleet):
    scrape = scrape_fleet(fleet["urls"])
    assert not scrape["errors"]
    assert len(scrape["replicas"]) == 2
    aggregate = aggregate_fleet(scrape)
    # The acceptance assertion: merged == merge of the raw per-replica
    # scrapes, series by series (histograms bucket-wise).
    expected = merge_metric_snapshots(
        [replica["metrics"] for replica in scrape["replicas"]]
    )
    assert aggregate["merged"] == expected
    submitted = aggregate["merged"]["repro_serve_jobs_submitted_total"]
    per_replica = [
        replica["metrics"]
        .get("repro_serve_jobs_submitted_total", {"value": 0})["value"]
        for replica in scrape["replicas"]
    ]
    assert submitted["value"] == sum(per_replica) == len(fleet["handles"])
    buckets = aggregate["merged"]["repro_serve_job_seconds"]["buckets"]
    for bound, count in buckets.items():
        assert count == sum(
            replica["metrics"]["repro_serve_job_seconds"]["buckets"].get(bound, 0)
            for replica in scrape["replicas"]
            if "repro_serve_job_seconds" in replica["metrics"]
        )


def test_fleet_status_cli_sees_both_replicas(fleet, capsys):
    code = main(
        ["fleet", "status", "--url", fleet["urls"][0], "--url", fleet["urls"][1]]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fleet: 2 replica(s) up, 0 unreachable" in out
    assert "r0 " in out and "r1 " in out


def test_fleet_metrics_cli_renders_merged_prometheus(fleet, capsys, tmp_path):
    out_file = tmp_path / "fleet.prom"
    code = main(
        [
            "fleet", "metrics",
            "--url", fleet["urls"][0], "--url", fleet["urls"][1],
            "--out", str(out_file),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert out_file.read_text(encoding="utf-8").strip() == text.strip()
    assert (
        f"repro_serve_jobs_submitted_total {len(fleet['handles'])}" in text
    )
    assert 'tenant="default"' in text
    assert text.count("# TYPE repro_serve_job_seconds histogram") == 1


def test_fleet_cli_flags_unreachable_replicas(fleet, capsys):
    code = main(
        [
            "fleet", "status",
            "--url", fleet["urls"][0],
            "--url", "http://127.0.0.1:9",  # discard port: refused
            "--timeout", "2",
        ]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "1 unreachable" in captured.out
    assert "unreachable" in captured.err


def test_trace_fleet_cli_stitches_live_journals(fleet, capsys, tmp_path):
    export = tmp_path / "fleet-trace.json"
    code = main(
        [
            "trace", "fleet",
            str(fleet["tmp"] / "r0"), str(fleet["tmp"] / "r1"),
            "--export", str(export),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fleet critical path" in out
    assert "[trace]" in out and "[job]" in out
    payload = json.loads(export.read_text(encoding="utf-8"))
    assert any(e.get("ph") == "M" for e in payload["traceEvents"])


def test_client_watch_human_lines_surface_trace_id(fleet, capsys):
    handle = fleet["handles"][0]
    code = main(
        ["client", "--url", handle.replica, "watch", handle.job_id]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert f"trace={handle.trace_id}" in out
    assert "job_start" in out and "job_end" in out


def test_client_watch_json_mode_round_trips(fleet, capsys):
    handle = fleet["handles"][0]
    code = main(
        ["client", "--url", handle.replica, "watch", handle.job_id, "--json"]
    )
    assert code == 0
    lines = [
        line
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("{")
    ]
    events = [json.loads(line) for line in lines]
    assert any(e.get("event") == "job_end" for e in events)
    assert any(e.get("trace_id") == handle.trace_id for e in events)


# ----------------------------------------------------------------------
# failover: one trace id across incarnations, seam in the stitched tree
# ----------------------------------------------------------------------


def test_failover_keeps_one_trace_id_and_stitch_crosses_the_seam(tmp_path):
    """Kill the serving replica mid-flight: the resubmitted incarnation
    must reuse the trace id, and the stitched fleet tree must chain the
    incarnations through a failover seam on the critical path."""
    spec = f"sqlite:{tmp_path / 'shared.sqlite'}"
    threads = {}
    for i in range(2):
        thread = ServiceThread(
            ExplorationService(
                jobs=1, cache_backend=spec,
                serve_dir=tmp_path / f"r{i}", replica_id=f"r{i}",
            )
        ).start()
        threads[thread.base_url] = thread
    rs = ReplicaSet(list(threads), seed=3, timeout=5, hedge_s=None)
    handle = rs.submit(dict(JOB, iterations=60))
    trace_id = handle.trace_id
    assert trace_id is not None
    time.sleep(0.2)  # let the job start so its journal exists
    threads.pop(handle.replica).stop()
    record = rs.wait(handle, timeout=180)
    assert record["state"] == "completed"
    assert handle.trace_id == trace_id  # failover reused the context
    assert len(handle.attempts) >= 2

    stitched = stitch_journals(
        [tmp_path / "r0", tmp_path / "r1"], trace_id=trace_id
    )
    assert len(stitched.journals) >= 2  # both incarnations journalled
    (root,) = fleet_span_tree(stitched)
    path = critical_path([root])
    kinds = [node.kind for node in path]
    assert "failover" in kinds, kinds
    assert kinds[-1] == "job"
    for thread in threads.values():
        thread.stop()
