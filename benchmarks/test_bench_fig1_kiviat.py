"""Figure 1: Kiviat graphs of the α/β/γ illustrative workloads.

Shape criteria: α and β are Euclidean-close in raw-characteristic space
while γ is distant — yet γ tolerates α's kind of configuration better
than β does (the motivating example for configurational
characterization).
"""

from repro.experiments import figure1, figure1_slowdowns
from repro.experiments.artifacts import render_figure1_kiviat


def test_bench_figure1(save_artifact):
    graphs, dist = figure1()
    names = [g.name for g in graphs]
    a, b, g = names.index("alpha"), names.index("beta"), names.index("gamma")

    # Raw-characteristic similarity: alpha-beta is the closest pair.
    assert dist[a, b] < dist[a, g]
    assert dist[a, b] < dist[b, g]

    # Yet configurationally, gamma suits alpha's customized core at least
    # as well as beta does (the paper's argument in §1.1).
    slowdown_beta, slowdown_gamma = figure1_slowdowns()
    assert slowdown_gamma <= slowdown_beta + 0.02

    save_artifact(
        "figure1_kiviat", render_figure1_kiviat((slowdown_beta, slowdown_gamma))
    )
