"""The `repro trace` CLI and journal-backed post-hoc analysis."""

import json
import re

import pytest

from repro.cli import main
from repro.engine import EvaluationEngine, RunJournal
from repro.engine import trace as trace_analysis
from repro.search import SearchBudget
from repro.search.compare import compare_strategies
from repro.workloads import spec2000_profile


@pytest.fixture(scope="module")
def journal(tmp_path_factory):
    """One journaled CLI run (small budget) shared by the read-only tests."""
    path = tmp_path_factory.mktemp("trace") / "events.jsonl"
    code = main(
        [
            "customize",
            "gzip",
            "mcf",
            "--iterations",
            "120",
            "--seed",
            "1",
            "--journal",
            str(path),
        ]
    )
    assert code == 0
    assert path.exists()
    return path


class TestTraceSummary:
    def test_renders_totals(self, journal, capsys):
        assert main(["trace", "summary", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "events:" in out and "1 attempt," in out
        assert "monotonic" in out and "NON-MONOTONIC" not in out
        assert "evaluations:" in out and "hit rate" in out
        assert "phase " in out

    def test_json_output(self, journal, capsys):
        assert main(["trace", "summary", str(journal), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["attempts"] == 1
        assert data["monotonic"] is True
        assert data["evaluations"] > 0
        assert data["seq_first"] == 1
        assert data["event_counts"]["phase_end"] >= 1

    def test_accepts_run_directory_target(self, journal, capsys):
        # A directory containing events.jsonl resolves like a run dir.
        assert main(["trace", "summary", str(journal.parent)]) == 0
        assert "events:" in capsys.readouterr().out

    def test_missing_journal_is_an_error(self, tmp_path, capsys):
        assert main(["trace", "summary", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_journal_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "events.jsonl"
        empty.write_text("")
        assert main(["trace", "summary", str(empty)]) == 1
        assert "no events" in capsys.readouterr().err


class TestTraceSlowestAndCriticalPath:
    def test_slowest_on_serial_journal(self, journal, capsys):
        assert main(["trace", "slowest", str(journal)]) == 0
        out = capsys.readouterr().out
        # A serial run ships no worker task spans; the CLI says so
        # instead of printing an empty table.
        assert "no task spans" in out

    def test_critical_path_has_a_root(self, journal, capsys):
        assert main(["trace", "critical-path", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "[phase]" in out or "[search]" in out


class TestTraceExport:
    def test_export_to_file(self, journal, tmp_path, capsys):
        out_path = tmp_path / "nested" / "trace.json"
        assert main(["trace", "export", str(journal), "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["traceEvents"]
        phases = [e for e in payload["traceEvents"] if e["cat"] == "phase"]
        assert phases and all(e["ph"] == "X" for e in phases)
        assert "wrote" in capsys.readouterr().out

    def test_export_to_stdout(self, journal, capsys):
        assert main(["trace", "export", str(journal)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["displayTimeUnit"] == "ms"


class TestJournalMatchesEngineMetrics:
    def test_phase_totals_match_stats_within_rounding(self, tmp_path, initial_config):
        path = tmp_path / "events.jsonl"
        engine = EvaluationEngine()
        journal = RunJournal(path).attach(engine.events)
        pairs = [
            (spec2000_profile(n), initial_config) for n in ("gzip", "mcf", "twolf")
        ]
        with engine.phase("explore"):
            engine.evaluate_many(pairs)
        with engine.phase("cross-matrix"):
            engine.evaluate_many(pairs)  # warm: all hits
        journal.close()

        summary = trace_analysis.summarize(trace_analysis.read_events(path))
        assert summary.phase_seconds.keys() == engine.metrics.phase_seconds.keys()
        for name, seconds in engine.metrics.phase_seconds.items():
            assert summary.phase_seconds[name] == pytest.approx(seconds, abs=1e-6)
        assert summary.evaluations == engine.metrics.evaluations
        assert summary.cache_hits == engine.metrics.cache_hits
        assert summary.batches == engine.metrics.batches

    def test_resumed_journal_counts_two_attempts(self, tmp_path):
        path = tmp_path / "events.jsonl"
        for _ in range(2):  # two "attempts" = two processes' buses
            engine = EvaluationEngine()
            journal = RunJournal(path).attach(engine.events)
            with engine.phase("explore"):
                pass
            journal.close()
        summary = trace_analysis.summarize(trace_analysis.read_events(path))
        assert summary.attempts == 2
        assert summary.monotonic
        assert summary.seq_first == 1 and summary.seq_last == summary.events


class TestStatsMetricsOutAndJournalAgree:
    """One CLI run's ``--stats``, ``--metrics-out`` and journal summary
    report the same counts: all three read the engine's one fold.

    At ``--jobs 2`` pool workers keep their own counts, so only the
    agreement is checked there, never the totals.  Only that run injects
    faults: they act on pooled map tasks, and ``seed=7,crash=0.3``
    crashes ``map:0``."""

    COUNTS = (
        "evaluations", "cache_hits", "cache_misses", "batches", "retries",
        "checkpoints",
    )
    SERIES = {
        "evaluations": "repro_evaluations_total",
        "cache_hits": "repro_cache_hits_total",
        "cache_misses": "repro_cache_misses_total",
        "batches": "repro_batches_total",
        "retries": "repro_retries_total",
        "checkpoints": "repro_checkpoints_total",
    }

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_counts_agree(self, tmp_path, capsys, many_cpus, jobs):
        journal, metrics_out = tmp_path / "events.jsonl", tmp_path / "m.json"
        argv = [
            "customize", "gzip", "mcf", "--iterations", "150",
            "--jobs", str(jobs), "--retries", "8",
            "--cache-dir", str(tmp_path / "cache"), "--journal", str(journal), "--metrics-out", str(metrics_out),
            "--stats",
        ]
        if jobs > 1:
            argv += ["--inject-faults", "seed=7,crash=0.3"]
        assert main(argv) == 0
        stats = capsys.readouterr().out.split("--- engine stats ---", 1)[1]

        registry = json.loads(metrics_out.read_text())
        from_metrics = {k: registry[s]["value"] for k, s in self.SERIES.items()}
        assert main(["trace", "summary", str(journal), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        from_journal = {k: summary[k] for k in self.COUNTS}
        assert from_metrics == from_journal

        # --stats prints evaluations, hits, lookups and (when any) retries.
        evaluations, hits, lookups = map(int, re.search(
            r"evaluations: (\d+) simulated, (\d+) cache hits "
            r"\(.* over (\d+) lookups\)", stats
        ).groups())
        retries = re.search(r"resilience: (\d+) retries", stats)
        from_stats = {
            "evaluations": evaluations,
            "cache_hits": hits,
            "cache_misses": lookups - hits,
            "retries": int(retries.group(1)) if retries else 0,
        }
        assert from_stats == {k: from_metrics[k] for k in from_stats}
        assert from_metrics["batches"] > 0 and from_metrics["checkpoints"] > 0
        if jobs > 1:
            assert from_metrics["retries"] > 0  # the faults really fired


class TestSearchDiagnosticsInJournal:
    def test_search_compare_is_traceable_without_stats(self, tmp_path):
        path = tmp_path / "events.jsonl"
        engine = EvaluationEngine()
        journal = RunJournal(path).attach(engine.events)
        compare_strategies(
            [spec2000_profile("gzip")],
            engine=engine,
            iterations=60,
            seed=7,
            restarts=2,
            budget=SearchBudget(max_evaluations=150),
        )
        journal.close()
        events = list(trace_analysis.read_events(path))
        names = {e["event"] for e in events}
        assert "search_run" in names
        assert "strategy_timing" in names
        timings = [e for e in events if e["event"] == "strategy_timing"]
        for timing in timings:
            assert timing["benchmark"] == "gzip"
            assert timing["seconds"] >= 0.0
            assert timing["moves"] >= 0
        summary = trace_analysis.summarize(events)
        assert "gzip" in summary.searches
        assert summary.searches["gzip"].strategies  # strategy names recorded


class TestForeignEventKinds:
    """Journals written by newer/foreign layers must degrade gracefully:
    unknown kinds are skipped with a counted warning, never misparsed."""

    @staticmethod
    def _chaos_journal(path):
        """A PR 9-style serve journal: failover + circuit events plus
        kinds from a hypothetical future layer."""
        records = [
            {"event": "job_start", "job": "j1", "span": "s1",
             "trace_id": "a" * 32, "replica_id": "r0"},
            {"event": "evaluation", "count": 3},
            {"event": "cache_call", "method": "GET", "key": "k1",
             "trace_id": "a" * 32},
            {"event": "replica_failover", "from": "r0", "to": "r1",
             "trace_id": "a" * 32},
            {"event": "circuit_open", "replica": "r0"},
            {"event": "circuit_half_open", "replica": "r0"},
            {"event": "gc_pause", "millis": 12},          # unknown
            {"event": "gc_pause", "millis": 7},           # unknown
            {"event": "flux_capacitor", "charge": 1.21},  # unknown
            {"event": "job_end", "job": "j1", "span": "s1",
             "state": "completed", "seconds": 0.5,
             "trace_id": "a" * 32, "replica_id": "r1"},
        ]
        with path.open("w", encoding="utf-8") as handle:
            for seq, record in enumerate(records, start=1):
                handle.write(
                    json.dumps({"seq": seq, "ts": 100.0 + seq * 0.05,
                                "mono": 50.0 + seq * 0.05, **record})
                    + "\n"
                )
        return path

    def test_summary_counts_unknown_kinds_without_misparse(self, tmp_path):
        path = self._chaos_journal(tmp_path / "events.jsonl")
        summary = trace_analysis.summarize(trace_analysis.read_events(path))
        assert summary.unknown_events == {"gc_pause": 2, "flux_capacitor": 1}
        # Known serve-layer kinds are counted normally, not as unknown.
        assert summary.counts["replica_failover"] == 1
        assert summary.counts["circuit_open"] == 1
        assert summary.evaluations == 3
        assert summary.to_jsonable()["unknown_events"] == {
            "gc_pause": 2, "flux_capacitor": 1
        }

    def test_render_warns_once_with_counts(self, tmp_path):
        path = self._chaos_journal(tmp_path / "events.jsonl")
        text = trace_analysis.summarize(
            trace_analysis.read_events(path)
        ).render()
        assert (
            "warning: skipped 3 event(s) of 2 unknown kind(s): "
            "flux_capacitor, gc_pause" in text
        )

    def test_clean_journal_renders_no_warning(self, journal, capsys):
        assert main(["trace", "summary", str(journal)]) == 0
        assert "warning: skipped" not in capsys.readouterr().out

    def test_chrome_export_skips_and_tallies_unknown_kinds(self, tmp_path):
        path = self._chaos_journal(tmp_path / "events.jsonl")
        payload = trace_analysis.chrome_trace(
            trace_analysis.read_events(path)
        )
        assert payload["metadata"]["unknown_events"] == {
            "gc_pause": 2, "flux_capacitor": 1
        }
        names = {e["name"] for e in payload["traceEvents"]}
        assert "replica_failover" in names
        assert "gc_pause" not in names and "flux_capacitor" not in names
        # job_end renders as a duration slice carrying the trace id.
        (job,) = [e for e in payload["traceEvents"] if e.get("cat") == "job"]
        assert job["ph"] == "X"
        assert job["args"]["trace_id"] == "a" * 32
        assert job["args"]["replica_id"] == "r1"

    def test_search_compare_journal_has_no_unknown_kinds(self, tmp_path):
        """First-party emitters (strategy_timing, pareto_front) are part
        of the known vocabulary — a real search-compare journal must
        summarize without warnings."""
        path = tmp_path / "events.jsonl"
        engine = EvaluationEngine()
        journal = RunJournal(path).attach(engine.events)
        compare_strategies(
            [spec2000_profile("gzip")],
            engine=engine,
            iterations=40,
            seed=7,
            budget=SearchBudget(max_evaluations=80),
        )
        journal.close()
        summary = trace_analysis.summarize(trace_analysis.read_events(path))
        assert summary.unknown_events == {}
