"""Command-line interface."""

import json
import pathlib

import pytest

from repro.cli import build_parser, main
from repro.experiments import artifacts, run_pipeline

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"

#: A small pipeline budget for the commands that run the exploration.
SMALL = ["--iterations", "150", "--seed", "3"]


@pytest.fixture(scope="module")
def small_pipe():
    """The pipeline the CLI runs at ``SMALL``."""
    return run_pipeline(iterations=150, seed=3)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["customize", "swim"])

    def test_table_choices(self):
        args = build_parser().parse_args(["table", "7"])
        assert args.which == "7"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "9"])


class TestStaticCommands:
    """Commands that do not run the exploration pipeline."""

    def test_table_1(self, capsys):
        assert main(["table", "1", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "ns" in out
        assert out == artifacts.render("table1_cacti")

    def test_table_2(self, capsys):
        assert main(["table", "2"]) == 0
        out = capsys.readouterr().out
        assert "50.00" in out  # memory latency

    def test_table_3(self, capsys):
        assert main(["table", "3"]) == 0
        out = capsys.readouterr().out
        assert "ROB size" in out

    def test_figure_1(self, capsys):
        assert main(["figure", "1", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "gamma" in out
        assert out == artifacts.render("figure1_kiviat")

    def test_figure_2(self, capsys):
        assert main(["figure", "2", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "slack" in out
        assert out == artifacts.render("figure2_slack")


class TestExplorationCommands:
    def test_customize(self, capsys):
        assert main(["customize", "gzip", "--iterations", "150", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "gzip: IPT" in out
        assert "clock period" in out

    def test_inject_faults_without_a_pool_exits_2(self, tmp_path, capsys):
        """Fault injection acts on pooled map tasks only: a serial run
        refuses the flag instead of silently injecting nothing, and
        opens no result store on the way out."""
        argv = ["customize", "gzip", "--inject-faults", "seed=1,crash=0.2"]
        for store in ([], ["--cache-dir", str(tmp_path / "cache")],
                      ["--run-dir", str(tmp_path / "run")]):
            assert main(argv + store) == 2
            captured = capsys.readouterr()
            assert "fault injection acts on pooled map tasks and needs a pool" in (
                captured.err
            )
            assert "gzip: IPT" not in captured.out
        assert not list(tmp_path.rglob("results.sqlite*"))

    def test_sweep(self, capsys):
        assert main(
            ["sweep", "gcc", "--clocks", "0.25", "0.45", "--iterations", "80"]
        ) == 0
        out = capsys.readouterr().out
        assert "clock sweep: gcc" in out
        assert "0.25" in out and "0.45" in out


    def test_search_compare_honours_search_batch(self, tmp_path, capsys):
        def batches_at(width: int) -> int:
            metrics = tmp_path / f"metrics{width}.json"
            assert main([
                "search-compare", "gzip", "--iterations", "40",
                "--strategies", "anneal", "hillclimb",
                "--search-batch", str(width), "--metrics-out", str(metrics),
            ]) == 0
            return json.loads(metrics.read_text())["repro_batches_total"]["value"]

        assert batches_at(1) == 0
        assert batches_at(4) > 0


class TestArtifactCommands:
    @pytest.mark.parametrize("argv", [["table", "4"], ["table", "6"], ["table", "a"],
                                      ["figure", "7"]])
    def test_prints_the_artifact_renderer_text(self, argv, small_pipe, capsys):
        """``repro table``/``repro figure`` print what ``repro report``
        and the benchmarks write to results/<name>.txt."""
        assert main([*argv, *SMALL]) == 0
        keys = artifacts.TABLES if argv[0] == "table" else artifacts.FIGURES
        assert capsys.readouterr().out == artifacts.render(keys[argv[1]], small_pipe)


class TestReportCommand:
    def test_report_writes_artifacts(self, tmp_path, small_pipe, capsys):
        assert main(["report", "--out", str(tmp_path), *SMALL]) == 0
        written = {p.name for p in tmp_path.iterdir()}
        assert "table4_customization.txt" in written
        assert "table7_summary.txt" in written
        assert "figure7_surrogates_full.txt" in written
        assert "slowdown_heatmap.txt" in written
        assert (tmp_path / "table5_cross_ipt.txt").read_text().startswith("Table 5")
        assert written - {"slowdown_heatmap.txt"} <= {p.name for p in RESULTS.glob("*.txt")}
        texts = artifacts.render_report(small_pipe)
        assert written == {f"{name}.txt" for name in texts}
        for name, text in texts.items():
            assert (tmp_path / f"{name}.txt").read_text() == text, name


class TestValidateCommand:
    def test_validate_reports_agreement(self, capsys):
        assert main(["validate", "--trace-length", "3000"]) == 0
        out = capsys.readouterr().out
        assert "rank correlation" in out
        assert "pairs: 11" in out
