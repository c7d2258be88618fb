"""Baseline comparison: three ways to group workloads for a 2-core CMP.

Compares the harmonic-mean IPT achieved by core pairs chosen via

1. raw-characteristic subsetting (cluster, take representatives) — the
   methodology the paper argues against;
2. Plackett-Burman bottleneck-rank clustering (Yi et al. [27, 32]);
3. K-means over customized-configuration vectors (Lee & Brooks [37]);
4. the paper's approach: complete search over cross-configuration
   performance.

Shape criterion: the configurational complete search is at least as good
as every similarity-based baseline (this is the paper's thesis).
"""

import numpy as np

from repro.communal import (
    best_combination,
    bottleneck_effects,
    bottleneck_rank_distance,
    cluster_workloads,
    harmonic_ipt,
    kmeans_configurations,
)
from repro.experiments import render_table
from repro.uarch import initial_configuration


def _pair_from_clusters(clusters):
    reps = [c.representative for c in clusters]
    assert len(reps) == 2
    return reps


def test_bench_baselines(pipe, cross, save_artifact):
    def run():
        # 1. raw-characteristic subsetting.
        raw_clusters = cluster_workloads(pipe.profiles, n_clusters=2)
        raw_pair = _pair_from_clusters(raw_clusters)

        # 2. Plackett-Burman bottleneck ranks.
        base = initial_configuration(pipe.explorer.tech)
        bottlenecks = [
            bottleneck_effects(pipe.explorer, p, base) for p in pipe.profiles
        ]
        dist = bottleneck_rank_distance(bottlenecks)
        pb_pair = _two_medoids(dist, list(cross.names))

        # 3. K-means on configuration vectors.
        km = kmeans_configurations(pipe.characteristics, k=2, seed=0)
        km_pair = list(km.representatives)

        # 4. complete search on cross-configuration performance.
        search = best_combination(cross, 2, "har")
        return raw_pair, pb_pair, km_pair, search

    raw_pair, pb_pair, km_pair, search = run()

    scores = {
        "raw-characteristic subsetting": harmonic_ipt(cross, raw_pair),
        "Plackett-Burman bottlenecks": harmonic_ipt(cross, pb_pair),
        "K-means on configurations": harmonic_ipt(cross, km_pair),
        "complete search (paper)": search.harmonic,
    }
    pairs = {
        "raw-characteristic subsetting": raw_pair,
        "Plackett-Burman bottlenecks": pb_pair,
        "K-means on configurations": km_pair,
        "complete search (paper)": list(search.configs),
    }

    # The paper's thesis: similarity-based grouping cannot beat the
    # cross-configuration complete search.
    for label, score in scores.items():
        assert score <= scores["complete search (paper)"] + 1e-9, label

    rows = [
        [label, ", ".join(pairs[label]), f"{score:.2f}"]
        for label, score in scores.items()
    ]
    save_artifact(
        "baseline_comparison",
        render_table(
            ["methodology", "chosen pair", "harmonic IPT"],
            rows,
            title="Two-core design: similarity baselines vs complete search",
        ),
    )


def _two_medoids(dist: np.ndarray, names: list[str]) -> list[str]:
    """Split workloads into two groups by the farthest pair, then take
    each group's medoid — a simple clustering over a distance matrix."""
    n = len(names)
    i, j = np.unravel_index(np.argmax(dist), dist.shape)
    groups = {i: [i], j: [j]}
    for k in range(n):
        if k in (i, j):
            continue
        anchor = i if dist[k, i] <= dist[k, j] else j
        groups[anchor].append(k)
    medoids = []
    for members in groups.values():
        sub = dist[np.ix_(members, members)]
        medoids.append(names[members[int(np.argmin(sub.sum(axis=1)))]])
    return medoids
