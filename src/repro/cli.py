"""Command-line interface: regenerate any paper artifact from a shell.

Examples::

    python -m repro customize mcf
    python -m repro customize gzip mcf --jobs 2        # parallel suite run
    python -m repro customize mcf --strategy multistart --restarts 4
    python -m repro table 5 --iterations 1200 --jobs 4
    python -m repro table 5 --cache-dir .repro-cache   # warm-cache reruns
    python -m repro figure 7
    python -m repro sweep gzip --clocks 0.18 0.30 0.42
    python -m repro search-compare gzip mcf --iterations 400 --max-evals 500
    python -m repro validate
    python -m repro pipeline --run-dir runs/full           # durable run
    python -m repro resume runs/full                       # after a kill
    python -m repro runs list && python -m repro runs verify runs/full

Every exploration-running command accepts the engine flags: ``--jobs N``
(worker processes for per-workload searches), ``--cache-dir DIR`` (persistent result cache +
checkpoint), ``--no-cache`` (simulate everything), ``--resume`` (continue
an interrupted exploration from the checkpoint in ``--cache-dir``),
``--stats`` (print evaluation counts, cache hit rate, per-phase wall
time and resilience counters when done), plus the resilience knobs of
pooled searches: ``--retries N`` and ``--task-timeout S`` (see
``docs/resilience.md``) and the chaos-testing hook ``--inject-faults
SPEC``, e.g. ``--jobs 2 --inject-faults 'seed=7,crash=0.3'``.  Fault
injection acts on pooled tasks only, so it needs ``--jobs`` > 1 (and
two CPUs); without a pool the command exits 2.

``--run-dir DIR`` upgrades any of those commands to a *supervised run*
(see ``docs/runs.md``): DIR gets a versioned manifest, an exclusive
lock, the cache/checkpoints (under ``DIR/state``), a durable event
journal (``DIR/events.jsonl``), and the produced artifacts;
SIGINT/SIGTERM interrupt it cleanly (exit ``128+signum``) and
``repro resume DIR`` continues it with the original arguments.

Observability (see ``docs/observability.md``): ``--journal FILE``
journals any invocation, ``--metrics-out FILE`` exports counters and
latency histograms (Prometheus textfile format, or JSON for ``.json``
paths), and ``repro trace summary|slowest|critical-path|export`` reads
a journal back to answer "where did the time go"::

    python -m repro pipeline --run-dir runs/full --metrics-out metrics.prom
    python -m repro trace summary runs/full
    python -m repro trace slowest runs/full --top 20
    python -m repro trace export runs/full --out trace.json
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
from typing import Sequence

from .communal.combination import DEFAULT_BEAM_WIDTH
from .communal.merit import MERITS
from .design import (
    OBJECTIVE_NAMES,
    ConstraintSet,
    DesignError,
    ParetoExplorer,
    best_homogeneous,
    build_design_matrix,
    hetero_search,
    make_objective,
)
from .engine import (
    CheckpointManager,
    EvaluationEngine,
    FaultPlan,
    ProgressLine,
    RetryPolicy,
    RunDirectory,
    RunInterrupted,
    RunJournal,
    ShutdownCoordinator,
    digest,
    list_runs,
)
from .engine import trace as trace_analysis
from .errors import RunError
from .experiments import (
    build_engine,
    render_kv,
    render_table,
    run_pipeline,
    table2_fixed_parameters,
    table3_initial_configuration,
    write_artifact,
)
from .experiments import artifacts
from .errors import ReproError
from .explore import AnnealingSchedule, ClockSweep, XpScalar
from .search import SearchBudget, strategy_names
from .search.compare import compare_strategies
from .sim import validate_interval_model
from .uarch import initial_configuration
from .workloads import SPEC2000_INT_NAMES, spec2000_profile, spec2000_profiles


def _engine_options() -> argparse.ArgumentParser:
    """Shared evaluation-engine flags (a parent parser)."""
    p = argparse.ArgumentParser(add_help=False)
    group = p.add_argument_group("evaluation engine")
    group.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for per-workload searches, restarts and "
             "sweep points, clamped to available cores; evaluation "
             "batches always run in-process (default: 1, serial)",
    )
    group.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="directory for the persistent result cache and checkpoint",
    )
    group.add_argument(
        "--no-cache", action="store_true",
        help="disable result caching (every evaluation simulates)",
    )
    group.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted exploration from --cache-dir's checkpoint",
    )
    group.add_argument(
        "--run-dir", default=None, metavar="DIR",
        help="supervise this invocation as a durable run under DIR: "
             "manifest + lock + checkpoints + artifacts, clean "
             "SIGINT/SIGTERM shutdown, `repro resume DIR` to continue "
             "(see docs/runs.md)",
    )
    group.add_argument(
        "--stats", action="store_true",
        help="print evaluation/cache/phase statistics when done",
    )
    group.add_argument(
        "--journal", default=None, metavar="FILE",
        help="append every engine event to FILE as a JSONL journal "
             "(--run-dir runs journal to <run-dir>/events.jsonl "
             "automatically; see docs/observability.md)",
    )
    group.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write engine metrics (counters + latency histograms) on "
             "exit: Prometheus textfile format, or JSON when FILE ends "
             "in .json",
    )
    group.add_argument(
        "--no-progress", action="store_true",
        help="suppress the TTY heartbeat/progress line on stderr",
    )
    group.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retries per failing pooled task under --jobs > 1 before "
             "giving up (default: 3)",
    )
    group.add_argument(
        "--task-timeout", type=float, default=None, metavar="S",
        help="per-task deadline in seconds for pooled searches under "
             "--jobs > 1; a task overrunning it is retried on a fresh "
             "pool (default: none)",
    )
    group.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help="arm deterministic fault injection in pooled tasks for "
             "chaos testing, e.g. 'seed=7,crash=0.3,hang=0.1'; needs "
             "--jobs > 1",
    )
    return p


def _search_options() -> argparse.ArgumentParser:
    """Shared search-strategy flags (a parent parser)."""
    p = argparse.ArgumentParser(add_help=False)
    group = p.add_argument_group("search strategy")
    group.add_argument(
        "--strategy", choices=strategy_names(), default="anneal",
        help="design-space search policy (default: anneal, the paper's "
             "simulated annealing)",
    )
    group.add_argument(
        "--max-evals", type=int, default=None, metavar="N",
        help="stop each search after N fitness evaluations",
    )
    group.add_argument(
        "--max-moves", type=int, default=None, metavar="N",
        help="stop each search after N move proposals",
    )
    group.add_argument(
        "--patience", type=int, default=None, metavar="N",
        help="stop each search after N consecutive moves without a new "
             "best score",
    )
    group.add_argument(
        "--restarts", type=int, default=4, metavar="N",
        help="independent restarts for multi-start strategies "
             "(default: 4; other strategies ignore it)",
    )
    group.add_argument(
        "--search-batch", type=int, default=1, metavar="N",
        help="evaluate N candidates per round through the vectorized "
             "batch model (anneal/hillclimb; default: 1 keeps the "
             "sequential, signature-stable walk)",
    )
    return p


def _envelope_options(with_objective: bool) -> argparse.ArgumentParser:
    """Shared design-envelope flags (a parent parser).

    ``with_objective`` adds ``--objective`` for the commands that run a
    single-objective search (customize/sweep); the multi-objective
    commands (pareto/hetero) take the budgets alone.
    """
    p = argparse.ArgumentParser(add_help=False)
    group = p.add_argument_group("design envelope")
    if with_objective:
        group.add_argument(
            "--objective", choices=OBJECTIVE_NAMES, default="ipt",
            help="figure of merit to optimize: ipt (the paper's default), "
                 "edp (inverse energy-delay product), ed2 (inverse "
                 "energy-delay^2), epi (IPT under --epi-budget), or "
                 "envelope (IPT discounted by every active budget overrun; "
                 "see docs/design.md)",
        )
    group.add_argument(
        "--power-budget", type=float, default=None, metavar="W",
        help="peak-power envelope in watts (per core; hetero also caps "
             "the sum over the chosen combination)",
    )
    group.add_argument(
        "--area-budget", type=float, default=None, metavar="MM2",
        help="die-area envelope in mm^2 (per core; hetero also caps the "
             "sum over the chosen combination)",
    )
    group.add_argument(
        "--epi-budget", type=float, default=None, metavar="NJ",
        help="energy-per-instruction budget in nanojoules per core",
    )
    return p


def _constraints(args) -> ConstraintSet:
    """The :class:`ConstraintSet` implied by the envelope flags."""
    return ConstraintSet(
        peak_power_w=getattr(args, "power_budget", None),
        area_mm2=getattr(args, "area_budget", None),
        epi_budget_nj=getattr(args, "epi_budget", None),
    )


def _objective_kwargs(args) -> dict:
    """``XpScalar`` objective override per ``--objective`` (empty for ipt)."""
    from .tech import default_technology

    objective = make_objective(
        getattr(args, "objective", "ipt"), default_technology(), _constraints(args)
    )
    return {} if objective is None else {"objective": objective}


def _search_budget(args) -> SearchBudget | None:
    """The uniform budget implied by search flags (None when unbounded)."""
    if (
        getattr(args, "max_evals", None) is None
        and getattr(args, "max_moves", None) is None
        and getattr(args, "patience", None) is None
    ):
        return None
    return SearchBudget(
        max_evaluations=args.max_evals,
        max_moves=args.max_moves,
        plateau_patience=args.patience,
    )


def _resilience(args) -> tuple[RetryPolicy | None, FaultPlan | None]:
    """The retry policy and fault plan implied by engine flags."""
    policy = None
    if args.retries is not None or args.task_timeout is not None:
        defaults = RetryPolicy()
        policy = RetryPolicy(
            max_retries=args.retries if args.retries is not None
            else defaults.max_retries,
            timeout_s=args.task_timeout,
        )
    faults = FaultPlan.parse(args.inject_faults) if args.inject_faults else None
    return policy, faults


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Configurational Workload Characterization' "
        "(ISPASS 2008)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    engine_opts = _engine_options()
    search_opts = _search_options()
    objective_opts = _envelope_options(with_objective=True)
    envelope_opts = _envelope_options(with_objective=False)

    p = sub.add_parser(
        "customize",
        parents=[engine_opts, search_opts, objective_opts],
        help="customize a core per benchmark (cross-seeded when several)",
    )
    p.add_argument("benchmark", nargs="+", choices=SPEC2000_INT_NAMES)
    p.add_argument("--iterations", type=int, default=2500)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("table", parents=[engine_opts, search_opts],
                       help="regenerate a table of the paper")
    p.add_argument("which", choices=["1", "2", "3", "4", "5", "6", "7", "a"])
    p.add_argument("--iterations", type=int, default=2500)
    p.add_argument("--seed", type=int, default=2008)

    p = sub.add_parser("figure", parents=[engine_opts, search_opts],
                       help="regenerate a figure of the paper")
    p.add_argument("which", choices=["1", "2", "4", "6", "7", "8"])
    p.add_argument("--iterations", type=int, default=2500)
    p.add_argument("--seed", type=int, default=2008)

    p = sub.add_parser("sweep", parents=[engine_opts, search_opts, objective_opts],
                       help="pinned-clock sweep for one benchmark")
    p.add_argument("benchmark", choices=SPEC2000_INT_NAMES)
    p.add_argument("--clocks", type=float, nargs="+", default=None)
    p.add_argument("--iterations", type=int, default=600)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "pareto", parents=[engine_opts, envelope_opts],
        help="sweep the design space into per-benchmark (IPT, power, "
             "area) Pareto fronts (see docs/design.md)",
    )
    p.add_argument("benchmark", nargs="+", choices=SPEC2000_INT_NAMES)
    p.add_argument("--samples", type=int, default=128, metavar="N",
                   help="design points in the seeded space walk, each "
                        "evaluated in both core types (default: 128)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top", type=int, default=None, metavar="N",
                   help="print only the N best-IPT front rows per benchmark")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="also write every front as JSON to FILE")

    p = sub.add_parser(
        "hetero", parents=[engine_opts, search_opts, envelope_opts],
        help="search the best heterogeneous k-core combination (core "
             "type + count) under a shared power/area envelope",
    )
    p.add_argument("benchmark", nargs="+", choices=SPEC2000_INT_NAMES)
    p.add_argument("--cores", "-k", type=int, default=2, metavar="K",
                   help="cores in the combination (default: 2)")
    p.add_argument("--iterations", type=int, default=2500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--merit", choices=tuple(MERITS), default="cw-har",
                   help="figure of merit over the workload population "
                        "(default: cw-har)")
    p.add_argument("--mode", choices=["auto", "exact", "beam"], default="auto",
                   help="combination enumeration: exact, beam, or auto "
                        "(exact while the count stays tractable)")
    p.add_argument("--beam-width", type=int, default=DEFAULT_BEAM_WIDTH,
                   metavar="N",
                   help=f"partial combinations kept per beam level "
                        f"(default: {DEFAULT_BEAM_WIDTH})")
    p.add_argument("--no-inorder", action="store_true",
                   help="offer only the out-of-order candidates (no @io twins)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="also write the result as JSON to FILE")

    p = sub.add_parser(
        "search-compare", parents=[engine_opts, search_opts],
        help="run every search strategy on the same benchmarks and rank "
             "them on a quality/cost table",
    )
    p.add_argument("benchmark", nargs="+", choices=SPEC2000_INT_NAMES)
    p.add_argument("--iterations", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--strategies", nargs="+", choices=strategy_names(), default=None,
        help="strategies to compare (default: all registered)",
    )
    p.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the comparison as JSON to FILE",
    )

    p = sub.add_parser(
        "validate", help="cross-validate the interval model against the cycle simulator"
    )
    p.add_argument("--trace-length", type=int, default=12000)

    p = sub.add_parser(
        "report", parents=[engine_opts, search_opts],
        help="write every table/figure artifact into a directory (at the "
             "defaults, the committed results/ files)",
    )
    p.add_argument("--out", default="results")
    p.add_argument("--iterations", type=int, default=2500)
    p.add_argument("--seed", type=int, default=2008)

    p = sub.add_parser(
        "pipeline", parents=[engine_opts, search_opts],
        help="run the full pipeline as a durable, resumable run "
             "(exploration + cross matrix + report artifacts)",
    )
    p.add_argument("--iterations", type=int, default=2500)
    p.add_argument("--seed", type=int, default=2008)
    p.add_argument(
        "--out", default=None, metavar="DIR",
        help="artifact directory (default: <run-dir>/artifacts)",
    )

    p = sub.add_parser(
        "resume",
        help="continue an interrupted supervised run with its original "
             "arguments",
    )
    p.add_argument("run_dir", metavar="RUN_DIR")

    p = sub.add_parser("runs", help="inspect supervised run directories")
    runs_sub = p.add_subparsers(dest="runs_command", required=True)
    lp = runs_sub.add_parser("list", help="list run directories under a root")
    lp.add_argument(
        "--root", default="runs", metavar="DIR",
        help="directory holding run directories (default: runs)",
    )
    vp = runs_sub.add_parser(
        "verify",
        help="re-checksum a run's recorded artifacts and report corruption",
    )
    vp.add_argument("run_dir", metavar="RUN_DIR")
    vp.add_argument(
        "--quarantine", action="store_true",
        help="move corrupt artifacts aside (<name>.corrupt) so a resume "
             "cannot consume them",
    )

    p = sub.add_parser(
        "serve",
        help="run the long-lived exploration service: submit jobs over "
             "HTTP, stream progress as SSE, share one result store "
             "across replicas (see docs/serve.md)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=8023,
                   help="TCP port (default: 8023; 0 picks an ephemeral port)")
    p.add_argument("--jobs", type=int, default=2, metavar="N",
                   help="concurrent job slots, each a thread with its own "
                        "engine (default: 2)")
    p.add_argument(
        "--cache-backend", default="memory", metavar="SPEC",
        help="shared result store: 'memory', 'sqlite:<file>', "
             "'http://host:port', or 'none' (default: memory; use one "
             "sqlite:<file> across replicas to share results)",
    )
    p.add_argument(
        "--tenant-budget", default=None, metavar="SPEC",
        help="per-tenant limits, e.g. "
             "'queued=16,running=2,evals=5000,moves=8000,patience=500'",
    )
    p.add_argument("--max-queued", type=int, default=64, metavar="N",
                   help="global admission queue bound (default: 64)")
    p.add_argument("--serve-dir", default=None, metavar="DIR",
                   help="directory for per-job event journals "
                        "(default: a temp dir)")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write the serve metrics registry on exit "
                        "(Prometheus textfile, or JSON for .json paths)")
    p.add_argument("--replica-id", default=None, metavar="ID",
                   help="stable replica identity stamped on journals and "
                        "surfaced by /v1/healthz (default: host:pid)")

    p = sub.add_parser(
        "client",
        help="talk to a running exploration service "
             "(submit/status/result/watch/list)",
    )
    p.add_argument(
        "--url", default=os.environ.get("REPRO_SERVE_URL", "http://127.0.0.1:8023"),
        help="service base URL (default: $REPRO_SERVE_URL or "
             "http://127.0.0.1:8023)",
    )
    client_sub = p.add_subparsers(dest="client_command", required=True)
    sp = client_sub.add_parser("submit", help="submit one job")
    sp.add_argument(
        "kind",
        choices=["customize", "sweep", "cross-matrix", "search-compare",
                 "pareto"],
    )
    sp.add_argument("benchmark", nargs="+", choices=SPEC2000_INT_NAMES)
    sp.add_argument("--samples", type=int, default=None, metavar="N",
                    help="design points for pareto jobs")
    sp.add_argument("--iterations", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--strategy", choices=strategy_names(), default=None)
    sp.add_argument("--restarts", type=int, default=None)
    sp.add_argument("--max-evals", type=int, default=None)
    sp.add_argument("--max-moves", type=int, default=None)
    sp.add_argument("--patience", type=int, default=None)
    sp.add_argument("--clocks", type=float, nargs="+", default=None)
    sp.add_argument("--strategies", nargs="+", choices=strategy_names(),
                    default=None)
    sp.add_argument("--tenant", default=None)
    sp.add_argument("--wait", action="store_true",
                    help="block until the job finishes and print its result")
    sp.add_argument("--stream", action="store_true",
                    help="stream progress events (SSE), then print the result")
    sp = client_sub.add_parser("status", help="one job's state")
    sp.add_argument("job_id")
    sp = client_sub.add_parser("result", help="one finished job's result")
    sp.add_argument("job_id")
    sp = client_sub.add_parser(
        "watch", help="stream a job's events (reconnects resume losslessly)"
    )
    sp.add_argument("job_id")
    sp.add_argument("--after", type=int, default=0, metavar="SEQ",
                    help="resume after this event sequence number")
    sp.add_argument("--json", action="store_true",
                    help="one JSON object per event (machine form; the "
                         "default human lines surface trace ids)")
    client_sub.add_parser("list", help="every job the service knows")
    client_sub.add_parser("health", help="service liveness")

    p = sub.add_parser(
        "trace",
        help="analyze a run's event journal: where did the time go? "
             "(see docs/observability.md)",
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)

    def _journal_args(sp) -> None:
        sp.add_argument("target", nargs="?", default=None,
                        metavar="RUN_DIR_OR_JOURNAL")
        sp.add_argument("--journal", action="append", default=None,
                        metavar="PATH",
                        help="read this journal file/dir (repeatable; "
                             "multiple journals are concatenated)")

    sp = trace_sub.add_parser(
        "summary",
        help="phase totals, evaluation/cache counts, search breakdowns",
    )
    _journal_args(sp)
    sp.add_argument("--json", action="store_true",
                    help="emit the summary as JSON instead of text")
    sp = trace_sub.add_parser(
        "slowest", help="the top-N slowest pooled map tasks"
    )
    _journal_args(sp)
    sp.add_argument("--top", type=int, default=10, metavar="N",
                    help="how many tasks to show (default: 10)")
    sp = trace_sub.add_parser(
        "critical-path",
        help="the chain of nested spans dominating the run's wall clock",
    )
    _journal_args(sp)
    sp = trace_sub.add_parser(
        "export",
        help="export the journal as Chrome trace-event JSON "
             "(chrome://tracing, ui.perfetto.dev)",
    )
    _journal_args(sp)
    sp.add_argument("--out", default=None, metavar="FILE",
                    help="write to FILE instead of stdout")
    sp = trace_sub.add_parser(
        "fleet",
        help="stitch multiple replica journals into one span tree with "
             "skew alignment; render cross-replica critical paths and "
             "failover seams (see docs/observability.md)",
    )
    sp.add_argument("journals", nargs="+", metavar="SERVE_DIR_OR_JOURNAL",
                    help="replica serve dirs and/or journal files")
    sp.add_argument("--trace", default=None, metavar="TRACE_ID",
                    help="restrict to one distributed trace id")
    sp.add_argument("--json", action="store_true",
                    help="emit the stitched summary as JSON")
    sp.add_argument("--export", default=None, metavar="FILE",
                    help="also write the merged Chrome trace to FILE")

    p = sub.add_parser(
        "fleet",
        help="operate on a fleet of serve replicas: aggregate status "
             "and metrics across every replica's API",
    )
    fleet_sub = p.add_subparsers(dest="fleet_command", required=True)
    for name, blurb in (
        ("status", "per-replica health/jobs one-liners + fleet totals"),
        ("metrics", "merged Prometheus metrics (histograms summed "
                    "bucket-wise) with per-replica JSON breakdown"),
    ):
        sp = fleet_sub.add_parser(name, help=blurb)
        sp.add_argument("--url", action="append", required=True,
                        metavar="URL", dest="urls",
                        help="replica base URL (repeatable)")
        sp.add_argument("--json", action="store_true",
                        help="emit the full JSON snapshot")
        sp.add_argument("--out", default=None, metavar="FILE",
                        help="write the output to FILE (metrics: "
                             "Prometheus textfile, or JSON for .json "
                             "paths)")
        sp.add_argument("--timeout", type=float, default=10.0, metavar="S",
                        help="per-replica scrape timeout (default: 10)")

    return parser


def _build_engine(args) -> EvaluationEngine:
    policy, faults = _resilience(args)
    engine = build_engine(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        policy=policy,
        faults=faults,
    )
    run = getattr(args, "_run", None)
    if run is not None:
        # Route durability events (storage_degraded, lock_takeover,
        # quarantine) through the engine bus and mirror engine phases
        # and checkpoint heartbeats into the run manifest.
        run.events = engine.events
        run.lock.events = engine.events
        run.attach_engine(engine.events)
    _attach_telemetry(args, engine)
    return engine


def _attach_telemetry(args, engine: EvaluationEngine) -> None:
    """Hook the journal, ``--metrics-out`` and TTY heartbeat to the engine.

    All three are strictly passive subscribers: they never touch stdout
    (the golden/determinism suites diff stdout) and never change what
    the engine computes.  A run directory journals automatically;
    ``--journal`` opts standalone invocations in.
    """
    run = getattr(args, "_run", None)
    journal_path = getattr(args, "journal", None)
    if journal_path is None and run is not None:
        journal_path = run.journal_path
    if journal_path is not None:
        args._journal = RunJournal(journal_path).attach(engine.events)
    if getattr(args, "metrics_out", None) is not None:
        args._metrics = engine.metrics
    if not getattr(args, "no_progress", False):
        heartbeat = ProgressLine(engine.metrics)
        if heartbeat.active:
            args._heartbeat = heartbeat
        else:
            heartbeat.close()  # non-TTY: don't even subscribe


def _finish(args, engine: EvaluationEngine | None) -> int:
    """Common epilogue: flush the engine and honour ``--stats``."""
    heartbeat = getattr(args, "_heartbeat", None)
    if heartbeat is not None:
        heartbeat.close()
    if engine is not None:
        if getattr(args, "stats", False):
            print(f"--- engine stats ---\n{engine.metrics.summary()}")
        engine.close()
    metrics = getattr(args, "_metrics", None)
    if metrics is not None:
        metrics.registry.write(pathlib.Path(args.metrics_out))
    journal = getattr(args, "_journal", None)
    if journal is not None:
        journal.close()
    return 0


def _pipeline(args):
    explorer = XpScalar(
        schedule=AnnealingSchedule(iterations=args.iterations),
        engine=_build_engine(args),
        strategy=getattr(args, "strategy", "anneal"),
        budget=_search_budget(args),
        restarts=getattr(args, "restarts", 4),
        search_batch=getattr(args, "search_batch", 1),
    )
    return run_pipeline(
        explorer=explorer,
        seed=args.seed,
        cache_dir=args.cache_dir,
        resume=args.resume,
    )


def _persist_run_artifact(args, name: str, text: str) -> None:
    """Under ``--run-dir``, persist a rendered result as a run artifact."""
    run = getattr(args, "_run", None)
    if run is None:
        return
    path = run.artifact_dir / name
    write_artifact(path, text)
    run.record_artifact(path)


def _strip_resume(argv: Sequence[str]) -> list[str]:
    """The invocation minus ``--resume``: resuming is implied by run state."""
    return [token for token in argv if token != "--resume"]


def _orchestrated(args, fn) -> int:
    """Run ``fn(args)`` as a supervised run inside ``args.run_dir``.

    A fresh directory is initialized with a manifest recording the
    invocation; an existing one is resumed — provided it was created by
    the same command line (minus ``--resume``), so a resumed run cannot
    silently compute something different from what the manifest claims.
    """
    path = pathlib.Path(args.run_dir)
    argv = _strip_resume(getattr(args, "_argv", []))
    if (path / "manifest.json").exists():
        run = RunDirectory.open(path)
        if run.manifest.command != args.command or run.manifest.args_digest != digest(argv):
            raise RunError(
                f"{path} holds a different run "
                f"({' '.join(run.manifest.argv)!r}); refusing to resume it "
                f"with {' '.join(argv)!r} — use a fresh --run-dir"
            )
        args.resume = True
        print(f"resuming run {run.manifest.run_id} in {path}")
    else:
        run = RunDirectory.create(path, args.command, argv)
    if args.cache_dir is None:
        args.cache_dir = str(run.state_dir)
    args._run = run
    coordinator = ShutdownCoordinator()
    try:
        with run.supervise(coordinator):
            return fn(args)
    except RunInterrupted:
        print(
            f"interrupted; the run is resumable:\n  repro resume {path}",
            file=sys.stderr,
        )
        raise


def cmd_customize(args) -> int:
    engine = _build_engine(args)
    xp = XpScalar(
        schedule=AnnealingSchedule(iterations=args.iterations),
        engine=engine,
        strategy=args.strategy,
        budget=_search_budget(args),
        restarts=args.restarts,
        search_batch=args.search_batch,
        **_objective_kwargs(args),
    )
    profiles = [spec2000_profile(name) for name in args.benchmark]
    if len(profiles) == 1:
        results = {profiles[0].name: xp.customize(profiles[0], seed=args.seed)}
    else:
        checkpoint = None
        if args.cache_dir is not None:
            checkpoint = CheckpointManager(
                pathlib.Path(args.cache_dir) / "checkpoint.json"
            )
        results = xp.customize_all(
            profiles, seed=args.seed, checkpoint=checkpoint, resume=args.resume
        )
    objective = getattr(args, "objective", "ipt")
    label = "IPT" if objective == "ipt" else f"{objective} score"
    lines = []
    for name in args.benchmark:
        result = results[name]
        evaluations = result.annealing.evaluations if result.annealing else 0
        seeded = f" (adopted from {result.cross_seeded_from})" if result.cross_seeded_from else ""
        lines.append(f"{name}: {label} {result.score:.2f} ({evaluations} evaluations){seeded}")
        lines.append(result.config.describe())
    text = "\n".join(lines)
    print(text)
    _persist_run_artifact(args, "customize.txt", text)
    return _finish(args, engine)


def _print_artifact(args, name: str) -> int:
    """Print one paper artifact: the text committed in results/<name>.txt."""
    pipe = _pipeline(args) if name in artifacts.FROM_PIPELINE else None
    sys.stdout.write(artifacts.render(name, pipe))
    return _finish(args, pipe.engine if pipe else None)


def cmd_table(args) -> int:
    if args.which == "2":
        print(render_kv(table2_fixed_parameters(), title="Table 2: fixed parameters"))
        return 0
    if args.which == "3":
        print("Table 3: initial configuration")
        print(table3_initial_configuration().describe())
        return 0
    return _print_artifact(args, artifacts.TABLES[args.which])


def cmd_figure(args) -> int:
    return _print_artifact(args, artifacts.FIGURES[args.which])


def cmd_sweep(args) -> int:
    engine = _build_engine(args)
    xp = XpScalar(engine=engine, **_objective_kwargs(args))
    sweep = ClockSweep(
        xp,
        iterations=args.iterations,
        strategy=args.strategy,
        budget=_search_budget(args),
        restarts=args.restarts,
        search_batch=args.search_batch,
    )
    checkpoint = None
    if args.cache_dir is not None:
        checkpoint = CheckpointManager(
            pathlib.Path(args.cache_dir) / "sweep-checkpoint.json"
        )
    points = sweep.run(
        spec2000_profile(args.benchmark),
        args.clocks,
        seed=args.seed,
        checkpoint=checkpoint,
        resume=args.resume,
    )
    rows = [
        [f"{p.clock_period_ns:.2f}", f"{p.score:.2f}", p.config.width,
         p.config.rob_size, p.config.iq_size,
         f"{p.config.l1.capacity_bytes // 1024}K",
         f"{p.config.l2.capacity_bytes // 1024}K"]
        for p in points
    ]
    text = render_table(["clock", "IPT", "W", "ROB", "IQ", "L1", "L2"], rows,
                        title=f"clock sweep: {args.benchmark}")
    print(text)
    _persist_run_artifact(args, "sweep.txt", text)
    return _finish(args, engine)


def _write_json_out(args, payload) -> None:
    """Honour ``--out FILE``: write JSON, record it under ``--run-dir``."""
    import json as _json

    if getattr(args, "out", None) is None:
        return
    out = pathlib.Path(args.out)
    if out.parent != pathlib.Path("."):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(_json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    run = getattr(args, "_run", None)
    if run is not None:
        run.record_artifact(out)
    print(f"wrote {out}")


def cmd_pareto(args) -> int:
    engine = _build_engine(args)
    explorer = ParetoExplorer(engine=engine, constraints=_constraints(args))
    profiles = [spec2000_profile(name) for name in args.benchmark]
    fronts = explorer.fronts(profiles, samples=args.samples, seed=args.seed)
    text = "\n\n".join(fronts[name].render(top=args.top) for name in args.benchmark)
    print(text)
    _persist_run_artifact(args, "pareto.txt", text)
    _write_json_out(
        args, {name: front.as_jsonable() for name, front in fronts.items()}
    )
    return _finish(args, engine)


def cmd_hetero(args) -> int:
    engine = _build_engine(args)
    xp = XpScalar(
        schedule=AnnealingSchedule(iterations=args.iterations),
        engine=engine,
        strategy=args.strategy,
        budget=_search_budget(args),
        restarts=args.restarts,
        search_batch=args.search_batch,
    )
    profiles = [spec2000_profile(name) for name in args.benchmark]
    if len(profiles) == 1:
        results = {profiles[0].name: xp.customize(profiles[0], seed=args.seed)}
    else:
        results = xp.customize_all(profiles, seed=args.seed)
    configs = {name: results[name].config for name in args.benchmark}
    matrix = build_design_matrix(
        engine,
        profiles,
        configs,
        tech=xp.tech,
        include_inorder=not args.no_inorder,
    )
    constraints = _constraints(args)
    best = hetero_search(
        matrix,
        args.cores,
        constraints,
        merit=args.merit,
        mode=args.mode,
        beam_width=args.beam_width,
    )
    lines = [
        f"heterogeneous {args.cores}-core search ({constraints.identity})",
        best.render(),
    ]
    payload = {"hetero": best.as_jsonable(), "homogeneous": None}
    try:
        homogeneous = best_homogeneous(
            matrix, args.cores, constraints, merit=args.merit
        )
        lines.append("best homogeneous:")
        lines.append(homogeneous.render())
        lines.append(
            f"hetero/homogeneous merit ratio: "
            f"{best.merit / homogeneous.merit:.4f}"
        )
        payload["homogeneous"] = homogeneous.as_jsonable()
    except DesignError as exc:
        lines.append(f"best homogeneous: none ({exc})")
    text = "\n".join(lines)
    print(text)
    _persist_run_artifact(args, "hetero.txt", text)
    _write_json_out(args, payload)
    return _finish(args, engine)


def cmd_search_compare(args) -> int:
    engine = _build_engine(args)
    profiles = [spec2000_profile(name) for name in args.benchmark]
    report = compare_strategies(
        profiles,
        strategies=args.strategies,
        iterations=args.iterations,
        seed=args.seed,
        budget=_search_budget(args),
        engine=engine,
        restarts=args.restarts,
        search_batch=args.search_batch,
    )
    text = report.render()
    print(text)
    _persist_run_artifact(args, "search-compare.txt", text)
    if args.out is not None:
        out = pathlib.Path(args.out)
        report.write_json(out)
        run = getattr(args, "_run", None)
        if run is not None:
            run.record_artifact(out)
        print(f"wrote {out}")
    return _finish(args, engine)


def cmd_validate(args) -> int:
    config = initial_configuration(XpScalar().tech)
    pairs = [(p, config) for p in spec2000_profiles()]
    report = validate_interval_model(pairs, trace_length=args.trace_length)
    print(f"pairs: {report.pairs}")
    print(f"rank correlation (IPT): {report.rank_correlation:.2f}")
    print(f"geometric-mean IPC ratio (interval/cycle): {report.mean_ratio:.2f}")
    print(f"worst ratio: {report.worst_ratio:.2f}")
    return 0


def _write_report(args, pipe, out: pathlib.Path) -> None:
    """Atomically persist every report artifact into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    run = getattr(args, "_run", None)
    for name, text in artifacts.render_report(pipe).items():
        path = out / f"{name}.txt"
        write_artifact(path, text)
        if run is not None:
            run.record_artifact(path, save=False)
        print(f"wrote {path}")
    if run is not None:
        run.save_manifest()


def cmd_report(args) -> int:
    pipe = _pipeline(args)
    _write_report(args, pipe, pathlib.Path(args.out))
    return _finish(args, pipe.engine)


def cmd_pipeline(args) -> int:
    """The full pipeline as a durable run: explore, cross-evaluate, report."""
    pipe = _pipeline(args)
    run = getattr(args, "_run", None)
    if args.out is not None:
        out = pathlib.Path(args.out)
    elif run is not None:
        out = run.artifact_dir
    else:
        out = pathlib.Path("results")
    _write_report(args, pipe, out)
    names = list(pipe.cross.names)
    print(f"pipeline complete: {len(names)} workloads, "
          f"{len(names) ** 2} cross-configuration cells")
    return _finish(args, pipe.engine)


def cmd_resume(args) -> int:
    """Re-dispatch an interrupted run with its recorded arguments."""
    run = RunDirectory.open(args.run_dir)
    manifest = run.manifest
    if manifest.status == "completed":
        print(f"{manifest.run_id}: already completed (exit {manifest.exit_code})")
        return 0
    resumed = build_parser().parse_args(list(manifest.argv))
    resumed._argv = list(manifest.argv)
    if getattr(resumed, "run_dir", None) is None:
        resumed.run_dir = str(args.run_dir)
    return _dispatch(resumed)


def cmd_runs(args) -> int:
    if args.runs_command == "verify":
        run = RunDirectory.open(args.run_dir)
        report = run.verify(quarantine=args.quarantine)
        print(report.render())
        return 0 if report.clean else 1
    rows = []
    for path, manifest in list_runs(args.root):
        if manifest is None:
            rows.append([str(path), "?", "UNREADABLE", "-", "-", "-"])
            continue
        done = sum(1 for p in manifest.phases if p.get("status") == "done")
        rows.append([
            str(path),
            manifest.run_id,
            manifest.status,
            f"{done}/{len(manifest.phases)}",
            len(manifest.artifacts),
            f"{manifest.wall_seconds:.1f}s",
        ])
    if not rows:
        print(f"no runs under {args.root}")
        return 0
    print(render_table(
        ["directory", "run", "status", "phases", "artifacts", "wall"], rows,
        title=f"runs under {args.root}",
    ))
    return 0


def _trace_events(args) -> tuple[list, str]:
    """Resolve a trace subcommand's input: one target and/or --journal paths.

    Returns ``(events, label)`` where *label* names the source for error
    messages.  Multiple journals are concatenated in path order.
    """
    from .serve.fleet import collect_journal_files

    targets = list(args.journal or [])
    if args.target is not None:
        targets.insert(0, args.target)
    if not targets:
        raise ReproError(
            "trace needs a RUN_DIR_OR_JOURNAL argument or --journal"
        )
    if len(targets) == 1 and args.journal is None:
        return list(trace_analysis.read_events(targets[0])), targets[0]
    events: list = []
    for path in collect_journal_files(targets):
        events.extend(trace_analysis.read_events(path))
    return events, ", ".join(str(t) for t in targets)


def cmd_trace(args) -> int:
    """Answer "where did the time go" from a run's event journal."""
    import json as _json

    if args.trace_command == "fleet":
        return _cmd_trace_fleet(args)
    events, label = _trace_events(args)
    if args.trace_command == "summary":
        summary = trace_analysis.summarize(events)
        if summary.events == 0:
            print(f"error: journal at {label} holds no events", file=sys.stderr)
            return 1
        if args.json:
            print(_json.dumps(summary.to_jsonable(), indent=2))
        else:
            print(summary.render())
        return 0
    if args.trace_command == "slowest":
        tasks = trace_analysis.slowest_tasks(events, top=args.top)
        print(trace_analysis.render_slowest(tasks))
        return 0
    if args.trace_command == "critical-path":
        path = trace_analysis.critical_path(trace_analysis.build_span_tree(events))
        print(trace_analysis.render_critical_path(path))
        return 0
    # export
    payload = trace_analysis.chrome_trace(events)
    text = _json.dumps(payload)
    if args.out is not None:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n", encoding="utf-8")
        print(f"wrote {out} ({len(payload['traceEvents'])} trace events)")
    else:
        print(text)
    return 0


def _span_jsonable(node, recurse: bool = True) -> dict:
    """JSON form of a :class:`~repro.engine.trace.SpanNode` subtree."""
    out = {
        "span": node.span,
        "name": node.name,
        "kind": node.kind,
        "seconds": round(node.seconds, 6),
        "start_ts": node.start_ts,
    }
    if recurse:
        out["children"] = [_span_jsonable(child) for child in node.children]
    return out


def _cmd_trace_fleet(args) -> int:
    """Stitch replica journals into one cross-replica span tree."""
    import json as _json

    from .serve import fleet as fleet_mod

    stitched = fleet_mod.stitch_journals(args.journals, trace_id=args.trace)
    roots = fleet_mod.fleet_span_tree(stitched)
    if args.export is not None:
        payload = fleet_mod.fleet_chrome_trace(stitched)
        out = pathlib.Path(args.export)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(_json.dumps(payload) + "\n", encoding="utf-8")
        print(
            f"wrote {out} ({len(payload['traceEvents'])} trace events)",
            file=sys.stderr,
        )
    if args.json:
        print(_json.dumps(
            {
                "trace_ids": sorted(stitched.trace_ids),
                "journals": [
                    {
                        "path": str(view.path),
                        "replica_id": view.replica_id,
                        "events": len(view.events),
                        "shift_s": view.shift_s,
                    }
                    for view in stitched.journals
                ],
                "tree": [_span_jsonable(root) for root in roots],
                "critical_path": [
                    _span_jsonable(node, recurse=False)
                    for node in trace_analysis.critical_path(roots)
                ],
            },
            indent=2,
        ))
        return 0
    print(fleet_mod.render_fleet_tree(roots))
    if roots:
        print()
        print(trace_analysis.render_critical_path(
            trace_analysis.critical_path(roots), title="fleet critical path"
        ))
    return 0


def cmd_serve(args) -> int:
    """Run the long-lived exploration service until SIGINT/SIGTERM."""
    from .serve import ExplorationService, TenantPolicy

    policy = (
        TenantPolicy.parse(args.tenant_budget)
        if args.tenant_budget is not None
        else None
    )
    service = ExplorationService(
        jobs=args.jobs,
        cache_backend=args.cache_backend,
        serve_dir=args.serve_dir,
        tenant_policy=policy,
        max_total_queued=args.max_queued,
        replica_id=args.replica_id,
    )
    shown = args.port if args.port else "<ephemeral>"
    print(
        f"repro serve on http://{args.host}:{shown} "
        f"(jobs={args.jobs}, backend={args.cache_backend}) — "
        "Ctrl-C or SIGTERM drains and exits"
    )
    exit_code = service.serve_forever(host=args.host, port=args.port)
    if args.metrics_out is not None:
        out = service.registry.write(pathlib.Path(args.metrics_out))
        print(f"wrote {out}")
    return exit_code


def _print_client_counters(client) -> None:
    """Nonzero client counters on stderr (stdout stays parseable JSON)."""
    active = {name: count for name, count in client.counters.items() if count}
    if active:
        print(
            "client counters: "
            + " ".join(f"{name}={count}" for name, count in sorted(active.items())),
            file=sys.stderr,
        )


_WATCH_DETAIL_KEYS = (
    "job", "phase", "name", "benchmark", "config", "status", "key",
    "method", "from", "to", "replica", "replica_id", "seconds", "error",
)


def _format_watch_event(event: dict) -> str:
    """One human line per journal event, surfacing the trace id."""
    seq = event.get("seq", "?")
    kind = event.get("event", "?")
    details = " ".join(
        f"{key}={event[key]}"
        for key in _WATCH_DETAIL_KEYS
        if event.get(key) is not None
    )
    trace_id = event.get("trace_id")
    trace = f" trace={trace_id}" if trace_id else ""
    return f"[{seq}] {kind}" + (f" {details}" if details else "") + trace


def cmd_client(args) -> int:
    """One-shot interactions with a running service."""
    import json as _json

    from .serve import ServeClient

    client = ServeClient(args.url)
    command = args.client_command
    if command == "health":
        print(_json.dumps(client.health(), indent=2))
        return 0
    if command == "list":
        print(_json.dumps(client.list_jobs(), indent=2))
        return 0
    if command == "status":
        print(_json.dumps(client.status(args.job_id), indent=2))
        return 0
    if command == "result":
        print(_json.dumps(client.result(args.job_id), indent=2))
        return 0
    if command == "watch":
        for event in client.events(args.job_id, after_seq=args.after):
            if args.json:
                print(_json.dumps(event))
            else:
                print(_format_watch_event(event))
        _print_client_counters(client)
        return 0
    # submit
    payload = {"kind": args.kind, "benchmarks": args.benchmark}
    optional = {
        "iterations": args.iterations,
        "seed": args.seed,
        "strategy": args.strategy,
        "restarts": args.restarts,
        "max_evaluations": args.max_evals,
        "max_moves": args.max_moves,
        "plateau_patience": args.patience,
        "clocks": args.clocks,
        "strategies": args.strategies,
        "samples": args.samples,
        "tenant": args.tenant,
    }
    payload.update({key: value for key, value in optional.items() if value is not None})
    submitted = client.submit(payload)
    if args.stream:
        for event in client.events(submitted["id"]):
            print(_json.dumps(event))
        print(_json.dumps(client.result(submitted["id"]), indent=2))
        _print_client_counters(client)
    elif args.wait:
        print(_json.dumps(client.wait(submitted["id"]), indent=2))
        _print_client_counters(client)
    else:
        print(_json.dumps(submitted, indent=2))
    return 0


def cmd_fleet(args) -> int:
    """Aggregate status/metrics across every replica of a serve fleet."""
    import json as _json

    from .serve import fleet as fleet_mod

    scrape = fleet_mod.scrape_fleet(args.urls, timeout=args.timeout)
    aggregate = fleet_mod.aggregate_fleet(scrape)
    if args.fleet_command == "status":
        text = (
            _json.dumps(aggregate, indent=2, sort_keys=True)
            if args.json
            else fleet_mod.render_fleet_status(aggregate)
        )
    else:  # metrics
        text = (
            _json.dumps(aggregate, indent=2, sort_keys=True)
            if args.json
            else fleet_mod.render_fleet_metrics(aggregate)
        )
    if args.out is not None:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        if args.fleet_command == "metrics" and out.suffix == ".json":
            out.write_text(
                _json.dumps(aggregate, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        else:
            out.write_text(text + "\n", encoding="utf-8")
        print(f"wrote {out}", file=sys.stderr)
    print(text)
    if aggregate["errors"]:
        for url, error in sorted(aggregate["errors"].items()):
            print(f"error: {url} unreachable: {error}", file=sys.stderr)
        return 1
    if aggregate["fleet_size"] == 0:
        print("error: no replicas reachable", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "customize": cmd_customize,
    "table": cmd_table,
    "figure": cmd_figure,
    "sweep": cmd_sweep,
    "pareto": cmd_pareto,
    "hetero": cmd_hetero,
    "search-compare": cmd_search_compare,
    "validate": cmd_validate,
    "report": cmd_report,
    "pipeline": cmd_pipeline,
    "resume": cmd_resume,
    "runs": cmd_runs,
    "trace": cmd_trace,
    "serve": cmd_serve,
    "client": cmd_client,
    "fleet": cmd_fleet,
}


def _dispatch(args) -> int:
    """Route a parsed invocation, orchestrating when a run dir is in play.

    ``pipeline`` is always supervised (defaulting to ``runs/pipeline``);
    other commands opt in with ``--run-dir``.
    """
    fn = _COMMANDS[args.command]
    if args.command == "pipeline" and args.run_dir is None:
        args.run_dir = os.path.join("runs", "pipeline")
    if getattr(args, "run_dir", None) and args.command not in ("resume", "runs"):
        return _orchestrated(args, fn)
    return fn(args)


def main(argv: Sequence[str] | None = None) -> int:
    raw = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(raw)
    args._argv = raw
    try:
        return _dispatch(args)
    except RunInterrupted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
