"""Seed stability of the headline reproduction outcomes.

Shape criteria: across independent exploration seeds, the harmonic-merit
core pair protects the memory outlier in most runs, the Table 7
ordering holds in most runs, and the ideal harmonic IPT varies by only
a few percent — i.e. the reproduction's conclusions are properties of
the modelled system, not of one lucky annealing trajectory.
"""

from repro.experiments import render_table, stability_analysis


def test_bench_stability(save_artifact):
    report = stability_analysis(seeds=(11, 22, 33), iterations=800)

    assert report.outlier_in_pair_rate >= 2 / 3
    assert report.table7_ordering_rate >= 2 / 3
    assert report.ideal_harmonic_cv < 0.10

    rows = [
        [o.seed, f"{o.ideal_harmonic:.2f}", o.best_single, ", ".join(o.best_pair),
         "yes" if o.pair_includes_outlier else "no",
         "yes" if o.table7_ordered else "no"]
        for o in report.outcomes
    ]
    text = render_table(
        ["seed", "ideal har IPT", "best single", "best har pair",
         "outlier in pair", "Table 7 ordered"],
        rows,
        title="Seed stability of headline outcomes",
    )
    text += (
        f"\noutlier-in-pair rate {report.outlier_in_pair_rate * 100:.0f}%, "
        f"Table 7 ordering rate {report.table7_ordering_rate * 100:.0f}%, "
        f"ideal-harmonic CV {report.ideal_harmonic_cv * 100:.1f}%"
    )
    save_artifact("stability", text)
