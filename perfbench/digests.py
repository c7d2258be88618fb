"""Output digests: what each workload must produce, recorded at one commit.

Every output the benchmark checks is reduced to a short SHA-256 of its
canonical JSON (sorted keys, floats in ``repr`` form, so a change in the
last bit of a score changes the digest).  ``digests.json`` beside this
file holds the recorded values; ``record.py`` regenerates it.

The inputs are drawn from finite pools so that every input a run can
meet has a recorded digest:

* suite_cold: ``SUITE_SEEDS`` suite seeds, chosen as ``seed % SUITE_SEEDS``;
* pareto_cloud: ``PARETO_SEEDS`` sampler seeds, walked from an offset;
* serve_mix: ``SERVE_SPECS`` customize specs, walked from an offset.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

DIGEST_FILE = Path(__file__).with_name("digests.json")

#: Annealing iterations per search in suite_cold (the paper's budget).
SUITE_ITERATIONS = 2500
#: Distinct suite seeds with recorded digests.
SUITE_SEEDS = 16
#: Design-space samples per Pareto request (the CLI default).
PARETO_SAMPLES = 128
#: Distinct Pareto sampler seeds with recorded digests.
PARETO_SEEDS = 512
#: Annealing iterations per serve customize job.
SERVE_ITERATIONS = 200
#: Distinct serve customize specs with recorded digests.
SERVE_SPECS = 1024

#: Recorded outcome of a Pareto request whose design-space sampler
#: raises (the known ``ConfigurationError`` escape, see README.md).
SAMPLER_RAISES = "raises:ConfigurationError"


def digest(payload: Any) -> str:
    """Short content hash of a JSON-ready payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def suite_digest(results: dict) -> str:
    """Digest of a ``customize_all`` result: every config and score."""
    from repro.engine import config_to_jsonable

    return digest(
        [
            [name, config_to_jsonable(r.config), r.score.hex()]
            for name, r in sorted(results.items())
        ]
    )


def pareto_digest(fronts: dict) -> str:
    """Digest of one ``ParetoExplorer.fronts`` result (every front)."""
    return digest({name: front.as_jsonable() for name, front in fronts.items()})


def serve_digest(result: dict) -> str:
    """Digest of one customize job's result body."""
    return digest(result["benchmarks"])


def serve_spec(index: int) -> dict:
    """The customize job payload for pool entry ``index``."""
    from repro.workloads import SPEC2000_INT_NAMES

    names = SPEC2000_INT_NAMES
    return {
        "kind": "customize",
        "benchmarks": [names[index % len(names)]],
        "iterations": SERVE_ITERATIONS,
        "seed": index,
    }


def load() -> dict:
    """The recorded digest tables (``suite``, ``pareto``, ``serve``)."""
    with DIGEST_FILE.open(encoding="utf-8") as handle:
        return json.load(handle)
