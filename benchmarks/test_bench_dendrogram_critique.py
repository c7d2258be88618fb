"""§5.4's dendrogram critique, quantified.

Shape criterion: cutting the raw-characteristic dendrogram into a few
clusters leaves at least one workload whose *actual* best surrogate
architecture (from the cross-configuration matrix) lives outside its
cluster — the reason the paper builds surrogate graphs instead of
reading a dendrogram.
"""

from repro.communal import (
    build_dendrogram,
    raw_distance_matrix,
    surrogate_disagreement,
)
from repro.experiments import render_heatmap


def test_bench_dendrogram_critique(pipe, cross, save_artifact):
    names = list(cross.names)
    distance = raw_distance_matrix(pipe.profiles)

    def run():
        tree = build_dendrogram(names, distance, linkage="average")
        reports = {
            k: surrogate_disagreement(cross, tree, n_clusters=k) for k in (2, 3, 4)
        }
        return tree, reports

    tree, reports = run()

    # At some useful cluster count the dendrogram contradicts the true
    # surrogate structure.
    assert any(r.count > 0 for r in reports.values())

    text = tree.render()
    for k, report in sorted(reports.items()):
        text += f"\n\ncut at {k} clusters: {report.count} disagreement(s)"
        for workload, best, prescribed in report.disagreements:
            text += (
                f"\n  {workload}: best surrogate is {best}, "
                f"dendrogram prescribes {prescribed}"
            )
    text += "\n\n" + render_heatmap(
        names,
        cross.slowdown_matrix(),
        title="cross-configuration slowdowns (dark = expensive surrogate)",
    )
    save_artifact("dendrogram_critique", text)
