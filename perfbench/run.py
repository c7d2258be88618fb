"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload suite_cold --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` runs the same work untraced and then traced (layer
wrappers from ``layers.py``) and prints the per-layer metrics, plus the
tracing overhead.  The job times of ``pareto_cloud`` and ``serve_mix``
are normalized to a nominal host speed, measured during the run by
``hostspeed.py``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a
digest mismatch prints ``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import digests as dg  # noqa: E402
import workloads as wl  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from layers import ENTRY, LayerStat, LayerTracer  # noqa: E402

#: Set-ups (and fresh-interpreter imports) per run; setup_s is their median.
SETUP_REPS = 3

#: name -> {"value": ..., "unit": ...}, as BENCHMARK.json lists them.
Metrics = dict[str, dict[str, object]]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def metric(value: float, unit: str) -> dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(out, setup_s: float, speed: HostSpeed | None) -> Metrics:
    """Metrics of the untraced run; with ``speed``, each job's times are
    normalized by the host speed while it ran."""
    factors = [speed.factor(*w) if speed is not None else 1.0 for w in out.windows]
    latencies = [t * f for t, f in zip(out.latencies, factors)]
    busy_s = sum(t * f for t, f in zip(out.busy, factors))
    return {
        "points_per_s": metric(out.points / busy_s if busy_s else 0.0, "1/s"),
        "job_latency_p50_s": metric(percentile(latencies, 50), "s"),
        "job_latency_p90_s": metric(percentile(latencies, 90), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def per_layer(tracer: LayerTracer, traced, untraced, speed: HostSpeed | None) -> Metrics:
    """Metrics of the traced run; with ``speed``, times are normalized by
    the host speed over each run."""
    traced_factor = speed.factor(*traced.timed_window) if speed is not None else 1.0
    untraced_factor = speed.factor(*untraced.timed_window) if speed is not None else 1.0
    stats = tracer.stats()

    def get(layer: str) -> LayerStat:
        return stats.get(layer, LayerStat())

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    propose = get("explore.moves.propose")
    cache_get = get("engine.cache.get")
    batch = get("sim.interval_batch.evaluate_batch")
    entry = get(ENTRY)
    memo_hits = sum(m.memo_hits for m in tracer.cacti_models)
    memo_lookups = memo_hits + sum(m.memo_misses for m in tracer.cacti_models)
    values = {
        "explore.moves.propose_s": (propose.seconds, "s"),
        "explore.moves.propose_calls": (propose.calls, "count"),
        "explore.moves.untenable_share": (share(propose.raised, propose.calls), "ratio"),
        "tech.cacti.lookups": (memo_lookups, "count"),
        "tech.cacti.memo_hit_share": (share(memo_hits, memo_lookups), "ratio"),
        "engine.keys.key_s": (get("engine.keys.key").seconds, "s"),
        "engine.keys.key_calls": (get("engine.keys.key").calls, "count"),
        "engine.cache.get_s": (cache_get.seconds, "s"),
        "engine.cache.get_calls": (cache_get.calls, "count"),
        "engine.cache.hit_share": (share(cache_get.tally, cache_get.calls), "ratio"),
        "engine.cache.put_s": (get("engine.cache.put").seconds, "s"),
        "engine.cache.put_calls": (get("engine.cache.put").calls, "count"),
        "engine.cache_backends.get_s": (get("engine.cache_backends.get").seconds, "s"),
        "engine.cache_backends.put_s": (get("engine.cache_backends.put").seconds, "s"),
        "engine.cache_backends.put_calls": (get("engine.cache_backends.put").calls, "count"),
        "sim.interval.evaluate_s": (get("sim.interval.evaluate").seconds, "s"),
        "sim.interval.evaluate_calls": (get("sim.interval.evaluate").calls, "count"),
        "sim.interval_batch.evaluate_batch_s": (batch.seconds, "s"),
        "sim.interval_batch.evaluate_batch_calls": (batch.calls, "count"),
        "sim.interval_batch.mean_batch": (share(batch.tally, batch.calls), "count"),
        "design.constraints.measure_s": (get("design.constraints.measure").seconds, "s"),
        "design.pareto.filter_s": (get("design.pareto.filter").seconds, "s"),
        "design.pareto.sample_s": (get("design.pareto.sample").seconds, "s"),
        "engine.events.emit_calls": (get("engine.events.emit").calls, "count"),
        "engine.events.emit_s": (get("engine.events.emit").seconds, "s"),
        "engine.checkpoint.save_calls": (get("engine.checkpoint.save").calls, "count"),
        "engine.checkpoint.save_s": (get("engine.checkpoint.save").seconds, "s"),
        "explore.xpscalar.self_s": (entry.seconds - tracer.covered_seconds(), "s"),
        "engine.telemetry.journal_appends": (get("engine.telemetry.journal").calls, "count"),
        "engine.telemetry.journal_s": (get("engine.telemetry.journal").seconds, "s"),
        "serve.client.submit_p50_s": (
            percentile(get("serve.client.submit").durations, 50), "s"
        ),
        "serve.client.status_calls": (get("serve.client.status").calls, "count"),
        "serve.scheduler.queue_wait_p50_s": (percentile(traced.queue_waits, 50), "s"),
        "serve.service.run_p50_s": (percentile(traced.runs, 50), "s"),
        "trace.timed_call_s": (entry.seconds, "s"),
        "trace.overhead_share": (
            share(traced.timed_s * traced_factor, untraced.timed_s * untraced_factor) - 1.0
            if untraced.timed_s
            else 0.0,
            "ratio",
        ),
    }
    return {
        name: metric(value * traced_factor if unit == "s" else value, unit)
        for name, (value, unit) in values.items()
    }


def report(name: str, seed: int, out, metrics: Metrics, speed: HostSpeed | None) -> None:
    """Human-readable lines before the JSON result."""
    print(f"workload {name} seed {seed}")
    if speed is not None:
        print(
            f"  host speed: {len(speed.samples)} kernel samples; timed run "
            f"x{speed.factor(*out.timed_window):.4f} to nominal speed"
        )
    print(
        f"  operations: {out.attempted} attempted, {out.succeeded} succeeded, "
        f"{out.failed} failed, {out.rejected} rejected; "
        f"{len(out.latencies)} latency samples"
    )
    print(f"  points: {out.points} evaluated in {sum(out.busy):.3f} s (as measured) of busy time")
    for mismatch in out.mismatches:
        print(f"  MISMATCH {mismatch}")
    for key, m in metrics.items():
        print(f"  {key:40s} {m['value']:>14.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    # Temporary files of this process, its children and SQLite stay
    # inside the checkout.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = None
    speed = HostSpeed()
    ctx = wl.Context(
        root=ROOT,
        work=work,
        seed=args.seed,
        digests=dg.load(),
        speed=speed,
    )
    workload = wl.WORKLOADS[args.workload]()
    state = None
    try:
        import_s = statistics.median(
            wl.import_seconds(ctx) for _ in range(SETUP_REPS)
        )
        setups = []
        for _ in range(SETUP_REPS):
            if state is not None:
                workload.teardown(state)
            started = time.perf_counter()
            state = workload.setup(ctx)
            setups.append(time.perf_counter() - started)

        plan = workload.plan(args.seconds)
        untraced, state = workload.run(ctx, state, plan)
        out = untraced
        if args.trace:
            tracer = LayerTracer()
            with tracer:
                # The traced pass starts from fresh state, as the
                # untraced one did.  Renewing under the tracer lets it
                # see the CACTI models the new explorer builds.
                state = workload.renew(ctx, state)
                out, state = workload.run(ctx, state, plan)
    finally:
        if state is not None:
            workload.teardown(state)
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still uses it
            pass

    normalizing = speed if workload.host_normalized else None
    if args.trace:
        metrics = per_layer(tracer, out, untraced, normalizing)
    else:
        setup_s = import_s + statistics.median(setups)
        if normalizing is not None:
            # Set-up ran just before the timed run, at about its speed.
            setup_s *= speed.factor(*untraced.timed_window)
        metrics = end_to_end(untraced, setup_s, normalizing)

    mismatches = untraced.mismatches + (out.mismatches if out is not untraced else [])
    report(args.workload, args.seed, out, metrics, normalizing)
    correct = not mismatches
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
