"""Figure 3: the two communal-customization flows compared head to head.

Shape criterion (the paper's overarching claim): designing from the full
configurational characterization — customize every workload, then reduce
the architectures (approach b) — achieves at least the harmonic-mean IPT
of the subset-first flow (cluster raw characteristics, customize only
representatives — approach a), typically more.
"""

from repro.communal import compare_approaches
from repro.experiments import render_table


def test_bench_figure3_approaches(pipe, cross, save_artifact):
    comparison = compare_approaches(
        pipe.explorer, pipe.profiles, cross, n_cores=2, seed=41
    )

    assert comparison.configurational_harmonic >= (
        comparison.subset_first_harmonic * 0.99
    )

    rows = [
        [
            "(a) subset first, then customize",
            ", ".join(comparison.subset_first_cores),
            f"{comparison.subset_first_harmonic:.2f}",
        ],
        [
            "(b) customize all, then reduce (paper)",
            ", ".join(comparison.configurational_cores),
            f"{comparison.configurational_harmonic:.2f}",
        ],
    ]
    text = render_table(
        ["approach", "cores", "harmonic IPT"],
        rows,
        title="Figure 3: two approaches to communal customization (2 cores)",
    )
    text += (
        f"\nconfigurational advantage: "
        f"{comparison.configurational_advantage * 100:+.1f}%"
    )
    save_artifact("figure3_approaches", text)
