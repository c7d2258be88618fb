"""Figure 2: clock period vs issue-queue/L1 sizing slack scenarios.

Shape criteria: scenario a leaves considerable slack on the L1's cycles;
b removes slack by shrinking the clock (deepening the pipe); c removes
issue-queue slack by downsizing it; d instead upsizes the L1 to use the
full two cycles at the original clock.
"""

from repro.experiments import figure2_scenarios
from repro.experiments.artifacts import render_figure2_slack


def test_bench_figure2(save_artifact):
    scenarios = figure2_scenarios()
    by_name = {s.name: s for s in scenarios}
    a, b, c, d = (by_name[k] for k in "abcd")

    assert a.l1_slack_ns > 0.5  # considerable slack at the 1 ns clock
    assert b.clock_ns < a.clock_ns
    assert b.total_slack_ns < a.total_slack_ns
    assert c.iq_size < b.iq_size
    assert c.iq_slack_ns < b.iq_slack_ns
    assert c.total_slack_ns < b.total_slack_ns
    assert d.clock_ns == a.clock_ns
    assert d.l1_capacity_bytes > a.l1_capacity_bytes
    assert d.l1_slack_ns < a.l1_slack_ns

    save_artifact("figure2_slack", render_figure2_slack())
