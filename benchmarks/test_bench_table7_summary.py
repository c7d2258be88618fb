"""Table 7: dual-core design approaches summarized.

Shape criteria (the paper's ordering): ideal > complete-search 2-core >=
greedy-surrogate 2-core, and complete search >= homogeneous; every
non-ideal scenario shows a positive slowdown vs the ideal.
"""

from repro.experiments import table7_summary
from repro.experiments.artifacts import render_table7_summary


def test_bench_table7(pipe, cross, save_artifact):
    s = table7_summary(cross)

    assert s.ideal_harmonic >= s.complete_search_harmonic - 1e-9
    assert s.complete_search_harmonic >= s.surrogate_harmonic - 1e-9
    assert s.complete_search_harmonic >= s.homogeneous_harmonic - 1e-9
    assert s.slowdown_vs_ideal(s.homogeneous_harmonic) >= 0.0
    assert s.slowdown_vs_ideal(s.surrogate_harmonic) >= 0.0

    save_artifact("table7_summary", render_table7_summary(pipe))
