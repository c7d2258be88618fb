"""Table 6: best core combinations under three figures of merit.

Shape criteria: a two-core heterogeneous system beats the best single
core on both average and harmonic IPT; the harmonic-merit pair includes
the memory-bound outlier (the paper's gcc+mcf); merit grows
monotonically with core count toward the every-workload-ideal.
"""

from repro.communal import ideal_average_ipt, ideal_harmonic_ipt
from repro.experiments import table6_rows
from repro.experiments.artifacts import render_table6_combinations


def test_bench_table6(pipe, cross, save_artifact):
    rows = table6_rows(cross)
    by_label = {r.label: r.combination for r in rows}

    best1 = by_label["best config for avg & har IPT"]
    best2_avg = by_label["2 best configs for avg IPT"]
    best2_har = by_label["2 best configs for har IPT"]
    best3_har = by_label["3 best configs for har IPT"]
    best4_har = by_label["4 best configs for har IPT"]

    # Heterogeneity pays (the paper reports ~10% avg / ~20% har for two
    # cores; we require clear, monotone gains).
    assert best2_avg.average > best1.average * 1.01
    assert best2_har.harmonic > best1.harmonic * 1.02

    # The harmonic pair protects the memory outlier.
    assert "mcf" in best2_har.configs

    # Monotone in k, bounded by the ideal.
    assert best2_har.harmonic <= best3_har.harmonic <= best4_har.harmonic
    assert best4_har.harmonic <= ideal_harmonic_ipt(cross) + 1e-9
    assert best2_avg.average <= ideal_average_ipt(cross) + 1e-9

    save_artifact("table6_combinations", render_table6_combinations(pipe))
