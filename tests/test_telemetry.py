"""Telemetry: bus hardening, spans, the run journal, metrics registry."""

import io
import json
import os

import pytest

from repro.engine import (
    EvaluationEngine,
    EventBus,
    MetricsRegistry,
    ProgressLine,
    RunJournal,
    journal_files,
)
from repro.engine.events import EngineMetrics
from repro.engine.telemetry import (
    _LINE_ENCODER,
    DRAIN_EVERY,
    Histogram,
    _jsonable,
    log_buckets,
)
from repro.engine.trace import read_events, summarize
from repro.explore import AnnealingSchedule, XpScalar
from repro.workloads import spec2000_profile


def recorder(bus):
    """Subscribe a list-collector; returns the list of (event, payload)."""
    seen = []
    bus.subscribe(lambda event, payload: seen.append((event, dict(payload))))
    return seen


class TestEmitIsolation:
    def test_raising_subscriber_does_not_break_delivery(self, capsys):
        bus = EventBus()

        def sick(event, payload):
            raise RuntimeError("boom")

        bus.subscribe(sick)
        seen = recorder(bus)
        bus.emit("evaluation", count=1)
        bus.emit("evaluation", count=2)
        # The healthy subscriber saw every event despite the sick one.
        assert [p["count"] for _, p in seen] == [1, 2]

    def test_warns_once_per_subscriber(self, capsys):
        bus = EventBus()
        bus.subscribe(lambda e, p: (_ for _ in ()).throw(ValueError("x")))
        for _ in range(5):
            bus.emit("tick")
        err = capsys.readouterr().err
        assert err.count("warning: event subscriber") == 1

    def test_unsubscribe_during_emit_is_safe(self):
        bus = EventBus()
        seen = []

        def once(event, payload):
            seen.append(event)
            bus.unsubscribe(once)

        bus.subscribe(once)
        after = recorder(bus)
        bus.emit("first")
        bus.emit("second")
        # The self-removing subscriber fired exactly once; the later
        # subscriber was still delivered both events.
        assert seen == ["first"]
        assert [e for e, _ in after] == ["first", "second"]


class TestSpans:
    def test_phase_keeps_legacy_event_names(self):
        bus = EventBus()
        seen = recorder(bus)
        with bus.phase("explore"):
            pass
        assert [e for e, _ in seen] == ["phase_start", "phase_end"]
        assert seen[0][1]["kind"] == "phase"
        assert seen[1][1]["seconds"] >= 0.0

    def test_nested_spans_parent_automatically(self):
        bus = EventBus()
        seen = recorder(bus)
        with bus.span("outer") as outer_id:
            assert bus.current_span == outer_id
            with bus.span("inner") as inner_id:
                assert bus.current_span == inner_id
        assert bus.current_span is None
        starts = {p["name"]: p for e, p in seen if e == "span_start"}
        assert starts["outer"]["parent"] is None
        assert starts["inner"]["parent"] == starts["outer"]["span"]
        assert starts["inner"]["trace"] == bus.trace_id

    def test_span_ids_are_stable_in_program_order(self):
        ids = []
        for _ in range(2):
            bus = EventBus()
            with bus.span("a") as a:
                with bus.span("b") as b:
                    ids.append((a, b))
            with bus.span("c") as c:
                ids[-1] += (c,)
        assert ids[0] == ids[1] == ("s00001", "s00002", "s00003")


class TestEngineMetrics:
    def test_snapshot_json_round_trip(self):
        bus = EventBus()
        metrics = EngineMetrics(bus)
        bus.emit("evaluation", count=3)
        bus.emit("cache_hit", count=2)
        with bus.phase("explore"):
            pass
        bus.emit(
            "search_run",
            strategy="anneal",
            workload="gzip",
            evaluations=10,
            plateau=4,
            acceptance_rate=0.5,
        )
        snap = metrics.snapshot()
        restored = json.loads(json.dumps(snap))
        assert restored == snap
        assert restored["evaluations"] == 3
        assert restored["searches_by_strategy"] == {"anneal": 1}
        # A snapshot is a copy, not a view.
        bus.emit("evaluation", count=1)
        assert snap["evaluations"] == 3

    def test_summary_orders_phases_by_descending_wall_time(self):
        metrics = EngineMetrics()
        for name, seconds in (("fast", 0.2), ("slow", 5.0), ("mid", 1.5)):
            metrics.on_event("phase_end", {"name": name, "seconds": seconds})
        lines = [l for l in metrics.summary().splitlines() if l.startswith("phase ")]
        assert lines == ["phase slow: 5.00s", "phase mid: 1.50s", "phase fast: 0.20s"]

    def test_summary_breaks_phase_ties_by_name(self):
        metrics = EngineMetrics()
        for name in ("b", "a"):
            metrics.on_event("phase_end", {"name": name, "seconds": 1.0})
        lines = [l for l in metrics.summary().splitlines() if l.startswith("phase ")]
        assert lines == ["phase a: 1.00s", "phase b: 1.00s"]


class TestRunJournal:
    def test_appends_jsonl_with_monotonic_seq(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with RunJournal(path) as journal:
            journal.append("alpha", {"x": 1})
            journal.append("beta", {"y": "z"})
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["seq"] for l in lines] == [1, 2]
        assert lines[0]["event"] == "alpha" and lines[0]["x"] == 1
        assert all("ts" in l for l in lines)

    def test_reopen_continues_sequence(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with RunJournal(path) as journal:
            for i in range(5):
                journal.append("tick", {"i": i})
        resumed = RunJournal(path)
        assert resumed.seq == 5
        resumed.append("resumed")
        resumed.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["seq"] for l in lines] == [1, 2, 3, 4, 5, 6]

    def test_reopen_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with RunJournal(path) as journal:
            journal.append("tick")
            journal.append("tick")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq":3,"ts":1.0,"eve')  # SIGKILL mid-write
        resumed = RunJournal(path)
        assert resumed.seq == 2
        resumed.append("after-crash")
        resumed.close()

    def test_rotation_keeps_counting(self, tmp_path):
        path = tmp_path / "events.jsonl"
        journal = RunJournal(path, rotate_bytes=4096)
        for i in range(200):
            journal.append("tick", {"pad": "x" * 64, "i": i})
        journal.close()
        files = journal_files(path)
        assert len(files) > 1
        seqs = []
        for file_path in files:
            for line in file_path.read_text().splitlines():
                seqs.append(json.loads(line)["seq"])
        assert seqs == list(range(1, 201))

    def test_attach_enables_tracing_and_journals_events(self, tmp_path):
        bus = EventBus()
        assert bus.tracing is False
        path = tmp_path / "events.jsonl"
        journal = RunJournal(path).attach(bus)
        assert bus.tracing is True
        bus.emit("evaluation", count=1)
        journal.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["event"] == "evaluation"

    def test_unjsonable_payload_degrades_to_repr(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with RunJournal(path) as journal:
            journal.append("odd", {"obj": object()})
        record = json.loads(path.read_text())
        assert "object object" in record["obj"]

    def test_storage_failure_degrades_without_raising(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        bus = EventBus()
        seen = recorder(bus)
        journal = RunJournal(path).attach(bus)
        journal.append("before")

        class Broken:
            closed = False

            def write(self, line):
                raise OSError(28, "No space left on device")

            def close(self):
                pass

        journal._handle.close()
        journal._handle = Broken()
        bus.emit("cache_miss", count=1)  # pending counters: nothing written yet
        bus.emit("evaluation", count=1)
        assert not journal.degraded
        bus.emit("during")  # the counters' drain fails here
        bus.emit("after")  # journal is a silent no-op from now on
        for _ in range(DRAIN_EVERY):
            bus.emit("cache_hit", count=1)
        journal.close()
        assert journal.degraded
        assert capsys.readouterr().err.count("telemetry disabled") == 1
        degraded = [p for e, p in seen if e == "storage_degraded"]
        assert len(degraded) == 1 and degraded[0]["tier"] == "journal"
        assert [json.loads(l)["event"] for l in path.read_text().splitlines()] == [
            "before"
        ]


def journaled_customize(path):
    """A small journaled annealing run; returns (engine metrics, bus events)."""
    with EvaluationEngine(jobs=1) as engine:
        seen = recorder(engine.events)
        journal = RunJournal(path).attach(engine.events)
        explorer = XpScalar(
            schedule=AnnealingSchedule(iterations=150), engine=engine
        )
        explorer.customize_all([spec2000_profile("gzip"), spec2000_profile("mcf")])
        journal.detach()
    return engine.metrics, seen


class TestJournalCoalescing:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("coalesce") / "events.jsonl"
        metrics, seen = journaled_customize(path)
        return path, metrics, seen

    def test_replay_matches_the_engines_counts(self, run):
        path, metrics, _ = run
        summary = summarize(read_events(path))
        for key in ("evaluations", "cache_hits", "cache_misses", "batches"):
            assert getattr(summary, key) == getattr(metrics, key), key
        assert metrics.evaluations > 0 and metrics.cache_hits > 0

    def test_far_fewer_lines_than_events(self, run):
        path, _, seen = run
        lines = path.read_text().splitlines()
        assert len(lines) * 10 < len(seen), (len(lines), len(seen))

    def test_counters_drain_before_the_next_other_line(self, run):
        path, _, seen = run
        records = [json.loads(l) for l in path.read_text().splitlines()]
        seqs = [r["seq"] for r in records]
        assert all(a < b for a, b in zip(seqs, seqs[1:]))
        # Between any two non-counter lines, the journal's counter lines
        # sum to exactly the counters the bus delivered between them.
        def segments(stream):
            sums, out = {}, []
            for event, payload in stream:
                if event in ("cache_hit", "cache_miss", "evaluation"):
                    sums[event] = sums.get(event, 0) + payload["count"]
                else:
                    out.append((sums, event))
                    sums = {}
            return out + [(sums, None)]

        journaled = segments((r["event"], r) for r in records)
        delivered = segments(seen)
        assert journaled == delivered

    def test_counter_with_other_keys_is_written_verbatim(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with RunJournal(path) as journal:
            journal.append("cache_hit", {"count": 1})
            journal.append("cache_hit", {"count": 1, "seconds": 0.1})
            journal.append("evaluation", {"count": True})
            journal.append("cache_hit", {"count": 2})
        records = [json.loads(l) for l in path.read_text().splitlines()]
        assert [(r["event"], r["count"], r.get("seconds")) for r in records] == [
            ("cache_hit", 1, None),
            ("cache_hit", 1, 0.1),
            ("evaluation", True, None),
            ("cache_hit", 2, None),
        ]
        assert list(records[1]) == ["seq", "ts", "mono", "event", "count", "seconds"]

    def test_pending_sums_drain_in_first_seen_order(self, tmp_path):
        path = tmp_path / "events.jsonl"
        journal = RunJournal(path)
        for event in ("cache_miss", "evaluation", "cache_hit", "cache_miss"):
            journal.append(event, {"count": 1})
        assert not path.exists() or not path.read_text()
        journal.sync()
        records = [json.loads(l) for l in path.read_text().splitlines()]
        assert [(r["event"], r["count"]) for r in records] == [
            ("cache_miss", 2),
            ("evaluation", 1),
            ("cache_hit", 1),
        ]
        journal.close()

    def test_drains_every_burst_for_live_followers(self, tmp_path):
        path = tmp_path / "events.jsonl"
        journal = RunJournal(path)
        for _ in range(DRAIN_EVERY):
            journal.append("cache_hit", {"count": 1})
        records = [json.loads(l) for l in path.read_text().splitlines()]
        assert [(r["event"], r["count"]) for r in records] == [
            ("cache_hit", DRAIN_EVERY)
        ]
        journal.close()

    def test_identical_runs_write_identical_counter_sequences(
        self, run, tmp_path
    ):
        path, _, _ = run
        again = tmp_path / "events.jsonl"
        journaled_customize(again)

        def shape(p):
            return [
                (r["event"], r.get("count"))
                for r in (json.loads(l) for l in p.read_text().splitlines())
            ]

        assert shape(path) == shape(again)


class TestLineEncoder:
    def test_lines_match_the_json_dumps_reference(self):
        records = [
            {"seq": 1, "ts": 1754500000.123456, "mono": 12.5, "event": "x"},
            {"nested": {"a": [1, 2.5, {"b": None}], "c": {"d": {}}}},
            {"text": "gzip → mcf ünïcødé 漢字 \u2028 \"quoted\" \\ \n"},
            {"floats": [0.1, 1e-07, 1e300, -0.0, 3.0, 2.5e-320, float("inf")]},
            {"none": None, "flags": [True, False], "tuple": (1, "two")},
            {"odd": object(), "nested_odd": {"set": {1}}},
            {"ünï": "key"},
        ]
        for record in records:
            reference = json.dumps(record, separators=(",", ":"), default=_jsonable)
            assert _LINE_ENCODER.encode(record) == reference


class TestMetricsRegistry:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        c = registry.counter("repro_things_total", "things")
        c.inc()
        c.inc(2)
        assert registry.counter("repro_things_total").value == 3
        with pytest.raises(ValueError):
            c.inc(-1)
        g = registry.gauge("repro_level")
        g.set(5)
        g.inc(-2)
        assert g.value == 3

    def test_type_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_log_buckets_span_decades(self):
        bounds = log_buckets(1e-3, 1e0, per_decade=1)
        assert bounds == pytest.approx([1e-3, 1e-2, 1e-1, 1e0])
        with pytest.raises(ValueError):
            log_buckets(0, 1)

    def test_histogram_buckets_and_stats(self):
        h = Histogram("lat", buckets=[0.1, 1.0, 10.0])
        for value in (0.05, 0.5, 5.0, 50.0):
            h.observe(value)
        assert h.count == 4
        assert h.counts == [1, 1, 1]  # 50.0 only lands in +Inf
        assert h.min == 0.05 and h.max == 50.0
        assert h.mean == pytest.approx(55.55 / 4)
        h.observe(float("nan"))  # ignored, never corrupts the sum
        assert h.count == 4

    def test_prometheus_rendering_is_cumulative(self):
        registry = MetricsRegistry()
        h = registry.histogram("repro_lat_seconds", "latency", buckets=[1, 2])
        h.observe(0.5)
        h.observe(1.5)
        h.observe(99.0)
        text = registry.render_prometheus()
        assert "# TYPE repro_lat_seconds histogram" in text
        assert 'repro_lat_seconds_bucket{le="1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="2"} 2' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_lat_seconds_count 3" in text

    def test_prometheus_text_is_exact(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "Jobs done").inc(3)
        registry.counter(
            "jobs_total", "Jobs done", labels={"tenant": 'a"b\\c\nd'}
        ).inc(2)
        registry.gauge("depth", "Queue depth").set(1.5)
        registry.counter("bare_total").inc()
        h = registry.histogram(
            "lat_seconds", "Latency", buckets=[0.25, 1], labels={"tenant": "t"}
        )
        for value in (0.25, 0.5, 7.0):
            h.observe(value)
        assert registry.render_prometheus() == (
            "# HELP jobs_total Jobs done\n"
            "# TYPE jobs_total counter\n"
            "jobs_total 3\n"
            'jobs_total{tenant="a\\"b\\\\c\\nd"} 2\n'
            "# HELP depth Queue depth\n"
            "# TYPE depth gauge\n"
            "depth 1.5\n"
            "# TYPE bare_total counter\n"
            "bare_total 1\n"
            "# HELP lat_seconds Latency\n"
            "# TYPE lat_seconds histogram\n"
            'lat_seconds_bucket{tenant="t",le="0.25"} 1\n'
            'lat_seconds_bucket{tenant="t",le="1"} 2\n'
            'lat_seconds_bucket{tenant="t",le="+Inf"} 3\n'
            'lat_seconds_sum{tenant="t"} 7.75\n'
            'lat_seconds_count{tenant="t"} 3\n'
        )

    def test_write_json_and_prometheus(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("repro_evals_total", "evals").inc(7)
        json_path = registry.write(tmp_path / "metrics.json")
        data = json.loads(json_path.read_text())
        assert data["repro_evals_total"]["value"] == 7
        prom_path = registry.write(tmp_path / "metrics.prom")
        assert "repro_evals_total 7" in prom_path.read_text()


class TestMetricsRegistryFold:
    def test_counts_core_events(self):
        bus = EventBus()
        collector = EngineMetrics(bus)
        bus.emit("evaluation", count=4)
        bus.emit("cache_hit", count=2)
        bus.emit("cache_miss", count=1)
        bus.emit("batch", size=8, unique=4, hits=4)
        bus.emit("retry", key="k", attempt=1, reason="crash", delay_s=0.0)
        bus.emit("checkpoint", path="x")
        r = collector.registry
        assert r.get("repro_evaluations_total").value == 4
        assert r.get("repro_cache_hits_total").value == 2
        assert r.get("repro_batches_total").value == 1
        assert r.get("repro_batch_size").count == 1
        assert r.get("repro_retries_total").value == 1
        assert r.get("repro_checkpoints_total").value == 1

    def test_task_span_feeds_task_seconds(self):
        bus = EventBus()
        collector = EngineMetrics(bus)
        bus.emit("task_span", name="map", seconds=1.5, queue_wait_s=0.25)
        tasks = collector.registry.get("repro_task_seconds")
        assert tasks.count == 1
        assert tasks.sum == pytest.approx(1.5)  # whole task, not per evaluation
        wait = collector.registry.get("repro_queue_wait_seconds")
        assert wait.sum == pytest.approx(0.25)

    def test_timed_search_events_feed_histograms(self):
        bus = EventBus()
        collector = EngineMetrics(bus)
        bus.emit("search_run", strategy="anneal", workload="gzip", moves=10,
                 seconds=2.0)
        bus.emit("search_run", strategy="anneal", workload="mcf")  # untimed
        bus.emit("strategy_timing", strategy="hillclimb", benchmark="gzip",
                 seconds=1.0, moves=4, evaluations=9)
        r = collector.registry
        assert r.get("repro_search_runs_total").value == 2
        assert r.get("repro_search_seconds").count == 2
        assert r.get("repro_search_move_latency_seconds").sum == pytest.approx(
            2.0 / 10 + 1.0 / 4
        )


class TestProgressLine:
    def test_inert_on_non_tty(self):
        bus = EventBus()
        stream = io.StringIO()  # isatty() is False
        heartbeat = ProgressLine(EngineMetrics(bus), stream=stream, interval=0.0)
        assert heartbeat.active is False
        bus.emit("phase_start", name="explore")
        bus.emit("evaluation", count=10)
        heartbeat.close()
        assert stream.getvalue() == ""

    def test_renders_on_tty(self):
        class FakeTty(io.StringIO):
            def isatty(self):
                return True

        bus = EventBus()
        stream = FakeTty()
        heartbeat = ProgressLine(EngineMetrics(bus), stream=stream, interval=0.0)
        assert heartbeat.active is True
        bus.emit("phase_start", name="explore")
        bus.emit("evaluation", count=10)
        bus.emit("cache_hit", count=5)
        out = stream.getvalue()
        assert "[explore]" in out and "evals 10" in out
        heartbeat.close()
        # Close clears the line and unsubscribes.
        bus.emit("evaluation", count=99)
        assert "evals 99" not in stream.getvalue().replace("\r", "")


class TestWorkerSpanStitching:
    @pytest.fixture()
    def pairs(self, initial_config):
        profiles = [spec2000_profile(n) for n in ("gzip", "mcf", "gcc", "vpr")]
        configs = [initial_config, initial_config.replace(width=4)]
        return [(p, c) for p in profiles for c in configs]

    def test_enclosing_span_parents_map_task_spans(self, many_cpus):
        with EvaluationEngine(jobs=2) as engine:
            engine.events.tracing = True
            seen = recorder(engine.events)
            with engine.events.span("sweep", kind="phase"):
                assert engine.map(abs, [-3, -2, -1]) == [3, 2, 1]
        outer = [p for e, p in seen if e == "span_start" and p["name"] == "sweep"]
        tasks = [p for e, p in seen if e == "task_span"]
        assert len(outer) == 1
        assert [t["key"] for t in tasks] == ["map:0", "map:1", "map:2"]
        for task in tasks:
            assert task["name"] == "map"
            assert task["parent"] == outer[0]["span"]
            assert task["trace"] == engine.events.trace_id
            assert task["worker_pid"] != os.getpid()
            assert task["seconds"] >= 0.0
            assert task["queue_wait_s"] >= 0.0

    def test_untraced_map_emits_no_task_spans(self, many_cpus):
        with EvaluationEngine(jobs=2) as engine:
            seen = recorder(engine.events)
            assert engine.map(abs, [-2, -1]) == [2, 1]
        assert not [p for e, p in seen if e == "task_span"]

    def test_tracing_does_not_change_results(self, pairs, many_cpus):
        plain = EvaluationEngine(jobs=1).evaluate_many(pairs)
        with EvaluationEngine(jobs=2) as engine:
            engine.events.tracing = True
            traced = engine.evaluate_many(pairs)
        assert [r.ipt for r in plain] == [r.ipt for r in traced]

    def test_serial_engine_emits_no_task_spans(self, pairs):
        engine = EvaluationEngine(jobs=1)
        engine.events.tracing = True
        seen = recorder(engine.events)
        engine.evaluate_many(pairs)
        assert not [p for e, p in seen if e == "task_span"]
