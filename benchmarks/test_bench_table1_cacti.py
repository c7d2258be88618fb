"""Table 1: CACTI output components per architectural unit.

Shape criteria: every unit delay is positive and monotone in its sizing,
the wake-up component is an associative tag comparison and select a
direct-mapped data path (wakeup+select = issue-queue loop), and the
delays land in the regime the paper's Table 4 implies.
"""

from repro.experiments import table1_unit_delays
from repro.experiments.artifacts import render_table1_cacti
from repro.tech import (
    CactiModel,
    default_technology,
    issue_queue_ns,
    l1_cache_ns,
    regfile_ns,
    select_ns,
    wakeup_ns,
)
from repro.uarch import initial_configuration


def test_bench_table1(save_artifact):
    tech = default_technology()
    config = initial_configuration(tech)
    delays = table1_unit_delays(config, tech)

    assert all(v > 0 for v in delays.values())
    assert delays["issue queue (wakeup+select)"] == (
        delays["wakeup"] + delays["select"]
    )
    assert delays["L2 data cache"] > delays["L1 data cache"]

    model = CactiModel(tech)
    # Monotonicity sweeps per unit.
    assert l1_cache_ns(model, 1024, 2, 64) > l1_cache_ns(model, 128, 2, 64)
    assert wakeup_ns(model, 128, 4) > wakeup_ns(model, 32, 4)
    assert select_ns(model, 128, 8) > select_ns(model, 32, 2)
    assert regfile_ns(model, 1024, 4) > regfile_ns(model, 128, 4)
    assert issue_queue_ns(model, 64, 8) > issue_queue_ns(model, 64, 2)

    save_artifact("table1_cacti", render_table1_cacti())
