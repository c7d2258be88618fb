"""Golden regression suite: pinned snapshots of the paper's key artifacts.

The tier-1 tests assert *shapes and invariants*; this suite pins exact
*values*.  Each test rebuilds one downstream artifact of a small, fast,
fully deterministic pipeline over the four default synthetic workloads
and compares it against a JSON snapshot in ``tests/golden/``:

* ``cross_matrix.json`` — the Table-5-style cross-configuration IPT
  matrix (names, weights, every matrix entry);
* ``merit_rankings.json`` — the best k-core combination per
  (k, merit) for k in 1..3 and every figure of merit, plus the complete
  ranked ordering of all k=2 combinations;
* ``surrogate_graphs.json`` — the greedy surrogate-assignment graph
  (edges, roots, groups, merits) per propagation policy;
* ``search_walks.json`` — the full :class:`~repro.search.SearchResult`
  of every built-in strategy at search widths 1 and 4, with and without
  each budget limit, on two SPEC2000 profiles (history, counters, stop
  reason and best configuration).

A change that shifts any simulated number, exploration decision, merit
ranking or surrogate choice shows up here as a concrete diff.  When the
change is *intended*, regenerate the snapshots and commit them::

    PYTHONPATH=src python -m pytest tests/test_golden.py --update-golden

Floats are compared with a relative tolerance (1e-9) so benign
platform-level float wobble does not fail the suite, while anything a
model change could plausibly cause does.
"""

from __future__ import annotations

import json
from itertools import combinations
from pathlib import Path

import pytest

from repro.communal.combination import best_combination
from repro.communal.merit import MERITS
from repro.communal.surrogate import Propagation, greedy_surrogates, surrogate_merits
from repro.engine.serialize import search_result_to_jsonable
from repro.experiments.pipeline import run_pipeline
from repro.explore import AnnealingSchedule, XpScalar
from repro.search import SearchBudget
from repro.workloads import spec2000_profile
from repro.workloads.synthetic import (
    branchy,
    compute_kernel,
    pointer_chasing,
    streaming,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The snapshot pipeline: small enough to run in ~a second, large enough
#: that every downstream artifact has real structure.
ITERATIONS = 350
SEED = 2008
KS = (1, 2, 3)
TARGET_ROOTS = 2

#: Relative tolerance for float comparison (see module docstring).
REL_TOL = 1e-9

#: The search-walk grid: every built-in strategy, the sequential and a
#: batched width, and each budget limit alone.
WALK_STRATEGIES = ("anneal", "hillclimb", "random", "multistart")
WALK_WIDTHS = (1, 4)
WALK_BUDGETS = {
    "none": None,
    "max_evaluations": SearchBudget(max_evaluations=60),
    "max_moves": SearchBudget(max_moves=90),
    "plateau_patience": SearchBudget(plateau_patience=25),
}
WALK_BENCHMARKS = ("gzip", "mcf")
WALK_ITERATIONS = 120


@pytest.fixture(scope="module")
def golden_cross():
    pipe = run_pipeline(
        profiles=[compute_kernel(), branchy(), pointer_chasing(), streaming()],
        iterations=ITERATIONS,
        seed=SEED,
        cross_seed_rounds=1,
    )
    return pipe.cross


# ----------------------------------------------------------------------
# artifact builders (JSON-shaped, deterministic)
# ----------------------------------------------------------------------


def build_cross_matrix(cross) -> dict:
    return {
        "names": list(cross.names),
        "weights": list(cross.weights),
        "ipt": [[float(v) for v in row] for row in cross.ipt],
    }


def build_merit_rankings(cross) -> dict:
    best = {
        merit: {
            str(k): {
                "configs": list(best_combination(cross, k, merit).configs),
                "merit": best_combination(cross, k, merit).merit,
            }
            for k in KS
        }
        for merit in MERITS
    }
    ranked_pairs = {}
    for merit, fn in MERITS.items():
        scored = [
            {"configs": list(subset), "score": float(fn(cross, subset))}
            for subset in combinations(cross.names, 2)
        ]
        scored.sort(key=lambda e: (-e["score"], e["configs"]))
        ranked_pairs[merit] = scored
    return {"best": best, "ranked_pairs": ranked_pairs}


def build_surrogate_graphs(cross) -> dict:
    graphs = {}
    for policy in Propagation:
        graph = greedy_surrogates(cross, policy, target_roots=TARGET_ROOTS)
        graphs[policy.value] = {
            "edges": [
                {
                    "order": e.order,
                    "consumer": e.consumer,
                    "provider": e.provider,
                    "effective_root": e.effective_root,
                    "slowdown": e.slowdown,
                }
                for e in graph.edges
            ],
            "roots": list(graph.roots),
            "groups": {root: list(ms) for root, ms in graph.groups.items()},
            "stalled": graph.stalled,
            "feedback": [
                {"consumer": f.consumer, "provider": f.provider}
                for f in graph.feedback_events
            ],
            "merits": surrogate_merits(cross, graph),
        }
    return graphs


def build_search_walks() -> dict:
    schedule = AnnealingSchedule(iterations=WALK_ITERATIONS)
    engine = None  # the first explorer's engine (and cache) is shared
    walks = {}
    for strategy in WALK_STRATEGIES:
        for width in WALK_WIDTHS:
            for label, budget in WALK_BUDGETS.items():
                xp = XpScalar(
                    schedule=schedule,
                    engine=engine,
                    strategy=strategy,
                    budget=budget,
                    search_batch=width,
                )
                engine = xp.engine
                for bench in WALK_BENCHMARKS:
                    walk = xp.customize(spec2000_profile(bench), seed=SEED).annealing
                    key = f"{strategy}/w{width}/{label}/{bench}"
                    walks[key] = search_result_to_jsonable(walk)
    return walks


ARTIFACTS = {
    "cross_matrix": build_cross_matrix,
    "merit_rankings": build_merit_rankings,
    "surrogate_graphs": build_surrogate_graphs,
}


# ----------------------------------------------------------------------
# tolerant structural comparison
# ----------------------------------------------------------------------


def assert_matches(actual, expected, path="$"):
    """Recursively compare two JSON-shaped values, floats within REL_TOL."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), f"{path}: {type(actual).__name__} != dict"
        assert sorted(actual) == sorted(expected), (
            f"{path}: keys {sorted(actual)} != {sorted(expected)}"
        )
        for key in expected:
            assert_matches(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list), f"{path}: {type(actual).__name__} != list"
        assert len(actual) == len(expected), (
            f"{path}: length {len(actual)} != {len(expected)}"
        )
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{path}[{i}]")
    elif isinstance(expected, float) and not isinstance(expected, bool):
        assert isinstance(actual, (int, float)) and not isinstance(actual, bool), (
            f"{path}: {actual!r} is not a number"
        )
        assert actual == pytest.approx(expected, rel=REL_TOL), (
            f"{path}: {actual!r} != {expected!r}"
        )
    else:
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"


def check_snapshot(artifact: str, built, update_golden: bool) -> None:
    snapshot = GOLDEN_DIR / f"{artifact}.json"
    if update_golden:
        snapshot.parent.mkdir(parents=True, exist_ok=True)
        snapshot.write_text(json.dumps(built, indent=2, sort_keys=True) + "\n")
        return
    assert snapshot.exists(), (
        f"missing golden snapshot {snapshot}; generate it with "
        f"pytest tests/test_golden.py --update-golden"
    )
    expected = json.loads(snapshot.read_text())
    assert_matches(built, expected, artifact)


@pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
def test_golden(artifact, golden_cross, update_golden):
    check_snapshot(artifact, ARTIFACTS[artifact](golden_cross), update_golden)


def test_search_walks_golden(update_golden):
    """Every strategy's walk, sequential and batched, is pinned."""
    check_snapshot("search_walks", build_search_walks(), update_golden)


def test_golden_pipeline_is_reproducible(golden_cross):
    """The snapshot pipeline itself is run-to-run deterministic.

    If this fails, golden diffs are meaningless — fix determinism first.
    """
    again = run_pipeline(
        profiles=[compute_kernel(), branchy(), pointer_chasing(), streaming()],
        iterations=ITERATIONS,
        seed=SEED,
        cross_seed_rounds=1,
    ).cross
    assert again.names == golden_cross.names
    assert (again.ipt == golden_cross.ipt).all()
