"""Table 5: cross-configuration IPT matrix.

Shape criteria: the diagonal dominates each row (after cross-seeding no
workload prefers a foreign configuration), the matrix is strongly
asymmetric, substantial (>30%) slowdowns exist, and mcf's column
punishes the fast-clock workloads the way the paper reports.
"""

import numpy as np

from repro.experiments import table5_matrix
from repro.experiments.artifacts import render_table5_cross_ipt


def test_bench_table5(pipe, cross, save_artifact):
    matrix = table5_matrix(cross)

    # Diagonal dominance per row.
    for i in range(cross.size):
        assert matrix[i, i] >= matrix[i].max() * (1 - 1e-9)

    slowdown = cross.slowdown_matrix()
    assert np.abs(slowdown - slowdown.T).max() > 0.1  # asymmetry
    assert slowdown.max() > 0.30  # substantial penalties

    # mcf's configuration is poison for the clock-chasing crowd.
    j = cross.index("mcf")
    fast = [cross.index(n) for n in ("crafty", "gzip", "perl")]
    assert max(slowdown[i, j] for i in fast) > 0.25

    # mcf itself suffers substantially away from its own configuration.
    i = cross.index("mcf")
    worst = max(slowdown[i, k] for k in range(cross.size) if k != i)
    assert worst > 0.25

    save_artifact("table5_cross_ipt", render_table5_cross_ipt(pipe))
