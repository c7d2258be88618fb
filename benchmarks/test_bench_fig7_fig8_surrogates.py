"""Figures 7 and 8: greedy surrogates with full / forward propagation.

Shape criteria: both policies reduce the architecture set to two roots;
the greedy outcome is no better than the complete 2-core search (the
paper: 1.74 vs 1.88); the greedy edges follow Appendix A's cheapest
entries; forward-only and full propagation may pick different groupings.
"""

from repro.communal import best_combination, surrogate_merits
from repro.experiments import figure7, figure8
from repro.experiments.artifacts import (
    render_figure7_surrogates_full,
    render_figure8_surrogates_forward,
)


def test_bench_figure7_full_propagation(pipe, cross, save_artifact):
    graph = figure7(cross, target_roots=2)

    assert graph.policy.value == "full"
    assert len(graph.roots) == 2

    merits = surrogate_merits(cross, graph)
    exhaustive = best_combination(cross, 2, "har").harmonic
    assert merits["harmonic_ipt"] <= exhaustive + 1e-9

    # Greedy order: the first assignment is the globally cheapest
    # slowdown in Appendix A.
    slowdown = cross.slowdown_matrix()
    import numpy as np

    off_diag = slowdown + np.eye(cross.size) * 10
    assert graph.edges[0].slowdown <= off_diag.min() + 1e-9

    save_artifact("figure7_surrogates_full", render_figure7_surrogates_full(pipe))


def test_bench_figure8_forward_propagation(pipe, cross, save_artifact):
    graph = figure8(cross, target_roots=2)

    assert graph.policy.value == "forward"
    assert len(graph.roots) <= 3

    # Forward-only: no consumer's architecture ever serves anyone.
    consumers = set()
    for edge in graph.edges:
        assert edge.effective_root == edge.provider  # no backward routing
        assert edge.provider not in consumers
        consumers.add(edge.consumer)

    merits = surrogate_merits(cross, graph)
    exhaustive = best_combination(cross, 2, "har").harmonic
    assert merits["harmonic_ipt"] <= exhaustive + 1e-9

    save_artifact("figure8_surrogates_forward", render_figure8_surrogates_forward(pipe))
