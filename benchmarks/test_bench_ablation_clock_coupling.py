"""Ablation: does the clock-coupled exploration actually matter?

DESIGN.md calls out the paper's central design choice — treating the
clock period as a first-class exploration knob with every unit re-fitted
to it (§2.3: prior work "either limit[s] the design space to a set of
pre-designed configurations or consider[s] a fixed clock period...  Both
effectively diminish the true performance potential of customization").

The ablation pins the clock at the Table 3 default (0.33 ns) during
customization and measures how much IPT the full clock-coupled
exploration buys per workload.
"""

import numpy as np

from repro.explore import AnnealingSchedule, ClockSweep, XpScalar
from repro.experiments import render_table
from repro.workloads import spec2000_profiles

ITERATIONS = 1200


def test_bench_clock_coupling_ablation(save_artifact):
    xp = XpScalar(schedule=AnnealingSchedule(iterations=ITERATIONS))
    sweep = ClockSweep(xp, iterations=ITERATIONS)
    profiles = spec2000_profiles()

    def run():
        rows = []
        for i, profile in enumerate(profiles):
            free = xp.customize(profile, seed=100 + i)
            pinned = sweep.run(profile, [0.33], seed=100 + i)[0]
            rows.append((profile.name, free.score, pinned.score,
                         free.config.clock_period_ns))
        return rows

    rows = run()

    gains = [free / pinned for _, free, pinned, _ in rows]
    # Freeing the clock must never lose (the pinned space is a subset up
    # to annealing noise) and must help some workloads noticeably.
    assert min(gains) > 0.93
    assert max(gains) > 1.03
    # Workloads that gained chose a clock away from the pinned default.
    best_gain = rows[int(np.argmax(gains))]
    assert abs(best_gain[3] - 0.33) > 0.02

    table = [
        [name, f"{free:.2f}", f"{pinned:.2f}", f"{(free / pinned - 1) * 100:+.1f}%",
         f"{clock:.2f}"]
        for name, free, pinned, clock in rows
    ]
    save_artifact(
        "ablation_clock_coupling",
        render_table(
            ["benchmark", "free-clock IPT", "pinned 0.33 ns IPT", "gain", "chosen clock"],
            table,
            title="Ablation: clock-coupled vs pinned-clock customization",
        ),
    )
