"""Engine throughput benchmark: the repo's in-tree perf trajectory.

``repro bench-engine`` measures configs/sec over one seeded
design-space walk four ways:

* the scalar golden model — an ``IntervalSimulator.evaluate`` loop;
* the vectorized batch path — ``BatchIntervalModel.evaluate_batch``
  across a batch-size sweep (full ``SimResult`` materialization);
* the array scoring path — ``BatchIntervalModel.ipt_batch`` across the
  same sweep (scores only, what batched search strategies consume);
* the engine's serial dispatch — ``EvaluationEngine.evaluate_many``
  with caching off, once with the scalar simulator and once with the
  batch model, so the speedup users actually see has a number too.

The report (``BENCH_engine.json``) is committed to the repository per
PR, so configs/sec and speedup carry a reviewable history; CI runs the
same harness as a smoke job and asserts the speedup floor.  Every run
also cross-checks batch against scalar results for exact equality —
a benchmark of a wrong model would be worse than no benchmark.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from ..errors import ConfigurationError, TimingError
from ..sim.interval import IntervalSimulator
from ..sim.interval_batch import BatchIntervalModel
from ..tech import CactiModel, default_technology
from ..uarch.config import CoreConfig, DesignSpace, initial_configuration
from ..workloads.spec2000 import spec2000_profile
from .pool import EvaluationEngine

SCHEMA_VERSION = 1

DEFAULT_BATCH_SIZES = (16, 64, 256, 512)


def generate_configs(count: int, seed: int = 7) -> list[CoreConfig]:
    """A deterministic design-space walk of ``count`` configurations.

    The same seeded :class:`~repro.explore.moves.MoveGenerator` chain
    the annealer walks, so the benchmark exercises realistic parameter
    mixtures (untenable proposals are skipped, not counted).
    """
    from ..explore.moves import MoveGenerator  # explore imports engine; stay lazy

    tech = default_technology()
    moves = MoveGenerator(tech, CactiModel.shared(tech), DesignSpace())
    rng = np.random.default_rng(seed)
    config = initial_configuration(tech)
    configs = [config]
    while len(configs) < count:
        try:
            config = moves.propose(config, rng)
        except (TimingError, ConfigurationError):
            continue
        configs.append(config)
    return configs


def _best_seconds(fn: Callable[[], Any], repeats: int) -> float:
    """Best-of-N wall time of ``fn`` (min is the standard noise filter)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _in_batches(
    configs: Sequence[CoreConfig], size: int
) -> list[Sequence[CoreConfig]]:
    return [configs[i : i + size] for i in range(0, len(configs), size)]


def run_engine_bench(
    profile_name: str = "gzip",
    configs: int = 512,
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    repeats: int = 3,
    seed: int = 7,
) -> dict:
    """Run the full benchmark and return the report dict."""
    if configs < 2:
        raise ConfigurationError(f"need at least 2 configs, got {configs}")
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    sizes = sorted({int(s) for s in batch_sizes if 1 < int(s) <= configs})
    if not sizes:
        raise ConfigurationError(
            f"no usable batch sizes in {list(batch_sizes)} for {configs} configs"
        )
    profile = spec2000_profile(profile_name)
    walk = generate_configs(configs, seed=seed)
    n = len(walk)

    scalar = IntervalSimulator()
    batch = BatchIntervalModel()

    # Equivalence first: a fast wrong model must fail loudly, and the
    # pass doubles as warm-up for both paths (incl. the miss-rate memo).
    want = [scalar.evaluate(profile, c) for c in walk]
    got = batch.evaluate_batch(profile, walk)
    ipts = batch.ipt_batch(profile, walk)
    result_mismatches = sum(1 for w, g in zip(want, got) if w != g)
    score_mismatches = sum(
        1 for w, i in zip(want, ipts.tolist()) if w.ipt != i
    )
    equivalent = result_mismatches == 0 and score_mismatches == 0

    scalar_s = _best_seconds(
        lambda: [scalar.evaluate(profile, c) for c in walk], repeats
    )
    scalar_rate = n / scalar_s

    def sweep(evaluate: Callable[[Any, Sequence[CoreConfig]], Any]) -> list[dict]:
        rows = []
        for size in sizes:
            groups = _in_batches(walk, size)
            seconds = _best_seconds(
                lambda: [evaluate(profile, group) for group in groups], repeats
            )
            rate = n / seconds
            rows.append(
                {
                    "batch_size": size,
                    "configs_per_s": rate,
                    "speedup": rate / scalar_rate,
                }
            )
        return rows

    batch_rows = sweep(batch.evaluate_batch)
    scoring_rows = sweep(batch.ipt_batch)

    # Engine-level serial dispatch (cache off so simulation is timed,
    # not cache lookups): the scalar engine loops one evaluation per
    # pair, the batch engine takes the grouped fast path.
    pairs = [(profile, c) for c in walk]
    engine_scalar = EvaluationEngine(simulator=IntervalSimulator(), cache=None)
    engine_batch = EvaluationEngine(cache=None)  # default: BatchIntervalModel
    engine_scalar_s = _best_seconds(lambda: engine_scalar.evaluate_many(pairs), repeats)
    engine_batch_s = _best_seconds(lambda: engine_batch.evaluate_many(pairs), repeats)

    def best_row(rows: list[dict]) -> dict:
        return max(rows, key=lambda row: row["configs_per_s"])

    return {
        "schema": SCHEMA_VERSION,
        "profile": profile.name,
        "configs": n,
        "repeats": repeats,
        "seed": seed,
        "equivalence": {
            "equivalent": equivalent,
            "result_mismatches": result_mismatches,
            "score_mismatches": score_mismatches,
        },
        "scalar": {"configs_per_s": scalar_rate},
        "batch": batch_rows,
        "scoring": scoring_rows,
        "best": {
            "batch": best_row(batch_rows),
            "scoring": best_row(scoring_rows),
        },
        "engine": {
            "scalar_configs_per_s": n / engine_scalar_s,
            "batch_configs_per_s": n / engine_batch_s,
            "speedup": engine_scalar_s / engine_batch_s,
        },
    }


def write_report(report: dict, path: str | Path) -> Path:
    """Write the report as stable, human-diffable JSON."""
    out = Path(path)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out


def format_report(report: dict) -> str:
    """The CLI summary: one line per measurement."""
    lines = [
        f"profile {report['profile']}, {report['configs']} configs, "
        f"best of {report['repeats']}",
        f"scalar: {report['scalar']['configs_per_s']:,.0f} configs/s",
    ]
    for label, rows in (("batch", report["batch"]), ("scoring", report["scoring"])):
        for row in rows:
            lines.append(
                f"{label} @{row['batch_size']}: "
                f"{row['configs_per_s']:,.0f} configs/s "
                f"({row['speedup']:.1f}x)"
            )
    engine = report["engine"]
    lines.append(
        f"engine serial dispatch: {engine['scalar_configs_per_s']:,.0f} -> "
        f"{engine['batch_configs_per_s']:,.0f} configs/s "
        f"({engine['speedup']:.1f}x)"
    )
    eq = report["equivalence"]
    lines.append(
        "equivalence: batch == scalar"
        if eq["equivalent"]
        else f"equivalence: FAILED ({eq['result_mismatches']} result, "
        f"{eq['score_mismatches']} score mismatches)"
    )
    return "\n".join(lines)
