"""Table 4: customized architectural configurations per benchmark.

Shape criteria (vs the paper's Table 4): configurations are diverse —
ROB sizes span at least 4x, several distinct clock periods appear, mcf
gets the largest window and ends up the slowest workload by far, the
clock-chasing crowd (crafty/gzip/perl) gets compact windows, and every
configuration is timing-legal.
"""

import numpy as np

from repro.experiments import table4_rows
from repro.experiments.artifacts import render_table4_customization
from repro.uarch import validate_config


def test_bench_table4(pipe, save_artifact):
    headers, rows = table4_rows(pipe.characteristics)

    chars = pipe.characteristics
    configs = {n: c.config for n, c in chars.items()}

    for config in configs.values():
        validate_config(config, pipe.explorer.tech, pipe.explorer.model)

    robs = {n: c.rob_size for n, c in configs.items()}
    clocks = {n: round(c.clock_period_ns, 2) for n, c in configs.items()}
    widths = {n: c.width for n, c in configs.items()}

    assert max(robs.values()) >= 4 * min(robs.values())
    assert len(set(clocks.values())) >= 3
    assert robs["mcf"] == max(robs.values())
    assert min(robs, key=robs.get) in ("crafty", "gzip", "perl")

    ipts = {n: c.ipt for n, c in chars.items()}
    median = float(np.median(list(ipts.values())))
    assert ipts["mcf"] < 0.5 * median

    # Paper regime: widths 1-8, L1 up to a few hundred KB, L2 up to 8 MB.
    assert all(1 <= w <= 8 for w in widths.values())
    l2_caps = {n: c.l2.capacity_bytes for n, c in configs.items()}
    assert max(l2_caps.values()) >= 2 * min(l2_caps.values())

    save_artifact("table4_customization", render_table4_customization(pipe))
