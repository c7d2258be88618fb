"""Figure 6: greedy surrogate assignment without propagation.

Shape criteria: the process stalls before reaching a single
configuration (providers can never be surrogated), leaving several
surviving architectures, and the surviving set achieves a harmonic IPT
between the greedy-with-propagation result and the ideal.
"""

from repro.communal import surrogate_merits
from repro.experiments import figure6
from repro.experiments.artifacts import render_figure6_surrogates_none


def test_bench_figure6(pipe, cross, save_artifact):
    graph = figure6(cross)

    assert graph.policy.value == "none"
    assert graph.stalled
    assert len(graph.roots) >= 2  # cannot reach 1 without propagation

    # Providers are never consumers under non-propagation.
    consumers = {e.consumer for e in graph.edges}
    providers = {e.effective_root for e in graph.edges}
    assert not (consumers & providers)

    merits = surrogate_merits(cross, graph)
    assert 0 < merits["harmonic_ipt"]
    assert 0 <= merits["average_slowdown"] < 0.5

    save_artifact("figure6_surrogates_none", render_figure6_surrogates_none(pipe))
