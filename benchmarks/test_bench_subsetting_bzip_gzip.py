"""§5.3: reducing the benchmark set by subsetting hurts the design.

Shape criteria: bzip and gzip are among the closest pairs by raw
characteristics, yet their mutual configurational slowdowns are
substantial; excluding bzip's configuration from the dual-core search
(gzip as its representative) costs harmonic-mean IPT relative to the
full search (or at best changes nothing — the paper reports ~0.5%).
"""

from repro.communal import closest_pairs, cluster_workloads, subsetting_experiment
from repro.experiments import render_table


def test_bench_subsetting(pipe, cross, save_artifact):
    # Run the exclusion at the smallest core count whose best set
    # actually uses bzip's configuration (the paper's k=2 search happens
    # to; with our calibration it may be k=3 or k=4).
    from repro.communal import best_combination

    k = 2
    for candidate_k in (2, 3, 4):
        if "bzip" in best_combination(cross, candidate_k, "har").configs:
            k = candidate_k
            break
    else:
        candidate_k = None

    exp = subsetting_experiment(cross, dropped="bzip", representative="gzip", k=k)

    # Premise: raw characteristics say the compressors are similar.
    pairs = closest_pairs(pipe.profiles, top=28)
    ranked = [frozenset(p[:2]) for p in pairs]
    assert frozenset({"bzip", "gzip"}) in ranked[: len(ranked) // 2]

    # Reality: their customized configurations are not interchangeable.
    s = cross.slowdown_matrix()
    i, j = cross.index("bzip"), cross.index("gzip")
    mutual = max(s[i, j], s[j, i])
    assert mutual > 0.10

    # Dropping bzip's configuration never helps and typically hurts.
    assert exp.merit_loss >= 0
    assert exp.full_search.merit >= exp.reduced_search.merit

    # The dendrogram-style subsetting actually groups them.
    clusters = cluster_workloads(pipe.profiles, n_clusters=6)
    cluster_of = {m: tuple(c.members) for c in clusters for m in c.members}

    rows = [
        ["bzip on gzip's config (slowdown)", f"{s[i, j] * 100:.1f}%"],
        ["gzip on bzip's config (slowdown)", f"{s[j, i] * 100:.1f}%"],
        [f"full {k}-core search", f"{', '.join(exp.full_search.configs)} "
         f"(har {exp.full_search.merit:.2f})"],
        ["search without bzip's config", f"{', '.join(exp.reduced_search.configs)} "
         f"(har {exp.reduced_search.merit:.2f})"],
        ["harmonic-mean IPT loss", f"{exp.merit_loss * 100:.2f}%"],
        ["bzip's subsetting cluster", ", ".join(cluster_of["bzip"])],
    ]
    save_artifact(
        "subsetting_bzip_gzip",
        render_table(["quantity", "value"], rows, title="§5.3: the bzip/gzip trap"),
    )
