"""Ablation: the objective-function hook (§3's power/area extension).

The paper optimizes pure performance (IPT) but notes the tool extends to
composite objectives.  This ablation customizes gzip under three
objectives — IPT, raw IPC, and an area-penalized IPT — and checks each
pulls the design where it should: IPC ignores the clock (slow, wide
windows), the area penalty shrinks the caches relative to pure IPT.
"""

from repro.explore import AnnealingSchedule, XpScalar
from repro.experiments import render_table
from repro.units import MB
from repro.workloads import spec2000_profile

ITERATIONS = 1500


def test_bench_objective_ablation(save_artifact):
    profile = spec2000_profile("gzip")

    def run():
        plain = XpScalar(schedule=AnnealingSchedule(iterations=ITERATIONS))
        ipt = plain.customize(profile, seed=9)

        ipc_xp = XpScalar(
            schedule=AnnealingSchedule(iterations=ITERATIONS),
            objective=lambda r: r.ipc,
        )
        ipc = ipc_xp.customize(profile, seed=9)

        # An area-aware objective needs the configuration, not just the
        # simulation result, so it overrides the explorer's score hook:
        # IPT penalized per byte of cache beyond 256 KB.
        class AreaAwareXpScalar(XpScalar):
            def score(self, p, config):
                r = self.evaluate(p, config)
                cache_bytes = config.l1.capacity_bytes + config.l2.capacity_bytes
                penalty = 1.0 + max(0.0, cache_bytes / MB - 0.25) * 0.5
                return r.ipt / penalty

        area_xp = AreaAwareXpScalar(schedule=AnnealingSchedule(iterations=ITERATIONS))
        area = area_xp.customize(profile, seed=9)
        return ipt, ipc, area

    ipt, ipc, area = run()

    # IPC maximization ignores the clock: it must not pick a faster clock
    # than the IPT optimum, and typically picks a much slower one.
    assert ipc.config.clock_period_ns >= ipt.config.clock_period_ns - 1e-9
    # The area-penalized design carries less cache than the plain one.
    cache = lambda c: c.l1.capacity_bytes + c.l2.capacity_bytes  # noqa: E731
    assert cache(area.config) <= cache(ipt.config)

    rows = [
        ["IPT (paper)", f"{ipt.score:.2f}", f"{ipt.config.clock_period_ns:.2f}",
         f"{cache(ipt.config) // 1024}K"],
        ["IPC only", f"{ipc.score:.2f}", f"{ipc.config.clock_period_ns:.2f}",
         f"{cache(ipc.config) // 1024}K"],
        ["area-penalized IPT", f"{area.score:.2f}",
         f"{area.config.clock_period_ns:.2f}", f"{cache(area.config) // 1024}K"],
    ]
    save_artifact(
        "ablation_objective",
        render_table(
            ["objective", "score", "clock (ns)", "total cache"],
            rows,
            title="Ablation: objective-function hook (gzip)",
        ),
    )
