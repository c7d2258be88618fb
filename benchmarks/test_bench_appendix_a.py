"""Appendix A: the percentage slowdown matrix with greedy markings.

Shape criteria: zero diagonal, no negative entries (cross-seeding fixed
point), and the full-propagation greedy picks are row-cheap entries.
"""

import numpy as np

from repro.experiments import appendix_a_matrix, figure7
from repro.experiments.artifacts import render_appendix_a_slowdowns


def test_bench_appendix_a(pipe, cross, save_artifact):
    slowdown = appendix_a_matrix(cross)

    assert np.allclose(np.diag(slowdown), 0.0)
    assert slowdown.min() >= -1e-6  # no workload prefers a foreign config

    # The greedy (Figure 7) assignments sit at or near each consumer's
    # cheapest available entry at the time of assignment; at minimum each
    # chosen edge is cheaper than that row's median.
    graph = figure7(cross, target_roots=2)
    for edge in graph.edges:
        i = cross.index(edge.consumer)
        row = np.delete(slowdown[i], i)
        assert edge.slowdown <= np.median(row) + 1e-9

    save_artifact("appendix_a_slowdowns", render_appendix_a_slowdowns(pipe))
