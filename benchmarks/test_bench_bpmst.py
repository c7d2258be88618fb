"""§5.5: BPMST-balanced surrogate assignment for multithreaded operation.

Shape criteria: the balanced partition keeps per-core aggregate
importance weight within tolerance while bounding slowdown; under a
simulated Poisson job stream the balanced assignment beats funneling
everything onto one core, and turnaround degrades as burstiness grows.
"""

from repro.communal import (
    ContentionPolicy,
    bpmst_partition,
    simulate_job_stream,
)
from repro.experiments import render_table


def test_bench_bpmst(cross, save_artifact):
    partition = bpmst_partition(cross, k=4)

    assert len(partition.groups) == 4
    assert partition.imbalance < 1.0  # max group within 2x of the mean
    assert 0 <= partition.average_slowdown < 0.4

    # Build the physical system and drive it with a job stream.
    assignment = {}
    for group, core in zip(partition.groups, partition.cores):
        for member in group:
            assignment[member] = core
    cores = list(partition.cores)

    balanced = simulate_job_stream(
        cross, cores, assignment, arrival_rate=0.02, n_jobs=1500,
        policy=ContentionPolicy.STALL, seed=3,
    )
    # Funnel: same 4 cores, but everyone assigned to the single best one.
    hub = max(cores, key=lambda c: sum(cross.ipt_on(w, c) for w in cross.names))
    funneled = simulate_job_stream(
        cross, cores, {w: hub for w in cross.names}, arrival_rate=0.02,
        n_jobs=1500, policy=ContentionPolicy.STALL, seed=3,
    )
    assert balanced.mean_turnaround < funneled.mean_turnaround

    smooth = simulate_job_stream(
        cross, cores, assignment, arrival_rate=0.03, n_jobs=1500,
        seed=4, burstiness=1.0,
    )
    bursty = simulate_job_stream(
        cross, cores, assignment, arrival_rate=0.03, n_jobs=1500,
        seed=4, burstiness=6.0,
    )
    assert bursty.mean_turnaround > smooth.mean_turnaround * 0.95

    rows = [
        [", ".join(g), c, f"{w:.1f}"]
        for g, c, w in zip(partition.groups, partition.cores, partition.group_weights)
    ]
    text = render_table(
        ["group", "core", "weight"], rows, title="BPMST partition (k=4)"
    )
    text += (
        f"\n\nimbalance {partition.imbalance * 100:.1f}%, "
        f"avg surrogate slowdown {partition.average_slowdown * 100:.1f}%"
        f"\nturnaround: balanced {balanced.mean_turnaround:.0f}, "
        f"funneled {funneled.mean_turnaround:.0f}"
        f"\nburstiness: smooth {smooth.mean_turnaround:.0f}, "
        f"bursty {bursty.mean_turnaround:.0f}"
    )
    save_artifact("bpmst_multithreaded", text)
