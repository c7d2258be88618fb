"""Record the output digests that every benchmark run is checked against.

Run from the repository root at the commit whose outputs are the
reference, then commit the updated ``perfbench/digests.json``::

    python3 perfbench/record.py

Reference outputs come from the same public entry points the workloads
use, on an in-memory cache: results do not depend on the store.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import digests as dg  # noqa: E402


def record_suite() -> dict[str, str]:
    from repro.experiments.pipeline import build_engine
    from repro.explore import AnnealingSchedule, XpScalar
    from repro.workloads import spec2000_profiles

    table = {}
    for seed in range(dg.SUITE_SEEDS):
        explorer = XpScalar(
            schedule=AnnealingSchedule(iterations=dg.SUITE_ITERATIONS),
            engine=build_engine(jobs=1),
        )
        results = explorer.customize_all(spec2000_profiles(), seed=seed)
        table[str(seed)] = dg.suite_digest(results)
        print(f"suite seed {seed}: {table[str(seed)]}", flush=True)
    return table


def record_pareto() -> dict[str, str]:
    from repro.design import ParetoExplorer
    from repro.errors import ConfigurationError
    from repro.workloads import spec2000_profiles

    profiles = spec2000_profiles()
    table = {}
    for seed in range(dg.PARETO_SEEDS):
        try:
            fronts = ParetoExplorer().fronts(
                profiles, samples=dg.PARETO_SAMPLES, seed=seed
            )
        except ConfigurationError:
            table[str(seed)] = dg.SAMPLER_RAISES
        else:
            table[str(seed)] = dg.pareto_digest(fronts)
    raising = sum(v == dg.SAMPLER_RAISES for v in table.values())
    print(f"pareto: {raising} of {len(table)} sampler seeds raise", flush=True)
    return table


def record_serve() -> dict[str, str]:
    from repro.engine import EvaluationEngine
    from repro.serve import JobSpec, execute_job

    table = {}
    for index in range(dg.SERVE_SPECS):
        spec = JobSpec.from_payload(dg.serve_spec(index))
        table[str(index)] = dg.serve_digest(execute_job(spec, EvaluationEngine()))
    print(f"serve: {len(table)} specs", flush=True)
    return table


def main() -> int:
    tables = {"suite": record_suite(), "pareto": record_pareto(), "serve": record_serve()}
    dg.DIGEST_FILE.write_text(json.dumps(tables, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
