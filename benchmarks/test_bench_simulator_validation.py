"""Validation: the interval model vs the cycle-level simulator.

The paper (§2.3) insists fast models be validated in the constrained
space they will explore.  This bench evaluates all 11 workloads on the
Table 3 configuration *and* each workload on its own customized
configuration with both simulators, requiring strong rank agreement and
bounded scale drift.
"""

from repro.experiments import render_table
from repro.sim import validate_interval_model
from repro.uarch import initial_configuration


def test_bench_simulator_validation(pipe, save_artifact):
    base = initial_configuration(pipe.explorer.tech)
    pairs = [(p, base) for p in pipe.profiles]
    pairs += [
        (p, pipe.characteristics[p.name].config) for p in pipe.profiles
    ]

    report = validate_interval_model(pairs, trace_length=10_000, seed=4)

    assert report.pairs == 22
    assert report.rank_correlation > 0.55
    assert 0.3 < report.mean_ratio < 3.0

    rows = []
    for (profile, config), a, b in zip(pairs, report.interval_ipt, report.cycle_ipt):
        kind = "Table 3" if config is base else "customized"
        rows.append([profile.name, kind, f"{a:.2f}", f"{b:.2f}", f"{a / b:.2f}"])
    text = render_table(
        ["workload", "config", "interval IPT", "cycle IPT", "ratio"],
        rows,
        title="Interval vs cycle-level simulator",
    )
    text += (
        f"\n\nSpearman rank correlation {report.rank_correlation:.2f}, "
        f"geometric-mean IPC ratio {report.mean_ratio:.2f}, "
        f"worst {report.worst_ratio:.2f}"
    )
    save_artifact("simulator_validation", text)
