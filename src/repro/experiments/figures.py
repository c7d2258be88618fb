"""Figure drivers: the data behind every figure in the paper.

* Figure 1 — Kiviat graphs of three illustrative workloads;
* Figure 2 — clock-period / issue-queue / L1 slack scenarios;
* Figure 4 — per-benchmark IPT under limited configuration sets;
* Figures 6-8 — greedy surrogate graphs under the three propagation
  policies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..characterize.cross import CrossPerformance
from ..communal.combination import best_combination, per_workload_ipt
from ..communal.surrogate import Propagation, SurrogateGraph, greedy_surrogates
from ..explore.xpscalar import XpScalar
from ..search.anneal import AnnealingSchedule
from ..tech import CactiModel, TechnologyNode, default_technology
from ..tech.unitdelay import issue_queue_ns, l1_cache_ns
from ..units import cycles_for
from ..workloads.kiviat import (
    KiviatGraph,
    figure1_profiles,
    kiviat_distance_matrix,
    kiviat_graphs,
)


# ----------------------------------------------------------------------
# Figure 1
# ----------------------------------------------------------------------

def figure1() -> tuple[list[KiviatGraph], np.ndarray]:
    """Kiviat graphs of the α/β/γ workloads plus their distance matrix."""
    graphs = kiviat_graphs(figure1_profiles())
    return graphs, kiviat_distance_matrix(graphs)


#: Annealing budget of Figure 1's three customizations.  The figure is
#: one fixed example, so it does not follow a pipeline's budget.
FIGURE1_ITERATIONS = 1200


def figure1_slowdowns() -> tuple[float, float]:
    """Slowdowns of β and γ on α's customized core (the §1.1 argument:
    γ, far from α in raw characteristics, suits α's core as well as β)."""
    xp = XpScalar(schedule=AnnealingSchedule(iterations=FIGURE1_ITERATIONS))
    profiles = {p.name: p for p in figure1_profiles()}
    alpha_config = xp.customize(profiles["alpha"], seed=5).config
    beta, gamma = profiles["beta"], profiles["gamma"]
    slowdown_beta = 1 - xp.score(beta, alpha_config) / xp.customize(beta, seed=6).score
    slowdown_gamma = 1 - xp.score(gamma, alpha_config) / xp.customize(gamma, seed=7).score
    return slowdown_beta, slowdown_gamma


# ----------------------------------------------------------------------
# Figure 2
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SlackScenario:
    """One of Figure 2's four clock/sizing scenarios."""

    name: str
    clock_ns: float
    iq_size: int
    iq_delay_ns: float
    iq_cycles: int
    iq_slack_ns: float
    l1_capacity_bytes: int
    l1_delay_ns: float
    l1_cycles: int
    l1_slack_ns: float

    @property
    def total_slack_ns(self) -> float:
        return self.iq_slack_ns + self.l1_slack_ns


def figure2_scenarios(tech: TechnologyNode | None = None) -> list[SlackScenario]:
    """Reproduce Figure 2's four scenarios with the real timing model.

    * **a** — 1 ns clock: the L1 access leaves considerable slack in its
      second cycle;
    * **b** — 0.66 ns clock: slack shrinks, the pipeline deepens;
    * **c** — 0.66 ns clock with a downsized issue queue: further slack
      reduction;
    * **d** — back to 1 ns, but the L1 is *upsized* to use the full two
      cycles.
    """
    tech = tech or default_technology()
    model = CactiModel.shared(tech)
    width = 8

    def scenario(name, clock, iq_size, l1_geometry):
        iq_delay = issue_queue_ns(model, iq_size, width)
        l1_delay = l1_cache_ns(model, *l1_geometry)
        iq_cycles = cycles_for(iq_delay, clock)
        l1_cycles = cycles_for(l1_delay, clock)
        return SlackScenario(
            name=name,
            clock_ns=clock,
            iq_size=iq_size,
            iq_delay_ns=iq_delay,
            iq_cycles=iq_cycles,
            iq_slack_ns=iq_cycles * clock - iq_delay,
            l1_capacity_bytes=l1_geometry[0] * l1_geometry[1] * l1_geometry[2],
            l1_delay_ns=l1_delay,
            l1_cycles=l1_cycles,
            l1_slack_ns=l1_cycles * clock - l1_delay,
        )

    small_l1 = (512, 2, 64)  # 64 KB: ~1.15 ns, two 1 ns cycles
    # Scenario d upsizes the L1 to the largest geometry that still fits
    # the two cycles available at the 1 ns clock.
    from ..uarch.config import DesignSpace
    from ..uarch.fit import best_cache_geometry

    space = DesignSpace()
    big = best_cache_geometry(model, tech, 1.00, 2, space, level=1)
    big_l1 = (big.nsets, big.assoc, big.block_bytes)
    return [
        scenario("a", 1.00, 128, small_l1),
        scenario("b", 0.66, 128, small_l1),
        scenario("c", 0.66, 64, small_l1),
        scenario("d", 1.00, 128, big_l1),
    ]


# ----------------------------------------------------------------------
# Figure 4
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Figure4Series:
    """Per-benchmark IPT for one set of available configurations."""

    label: str
    configs: tuple[str, ...]
    ipt: dict[str, float]


def figure4(cross: CrossPerformance) -> list[Figure4Series]:
    """The five series of Figure 4.

    Best single core, best two cores under each of the three merits, and
    every benchmark on its own customized core.
    """
    best1 = best_combination(cross, 1, "har")
    best2_avg = best_combination(cross, 2, "avg")
    best2_har = best_combination(cross, 2, "har")
    best2_cw = best_combination(cross, 2, "cw-har")
    series = [
        ("best single core", best1.configs),
        ("best two cores (avg IPT)", best2_avg.configs),
        ("best two cores (har IPT)", best2_har.configs),
        ("best two cores (cw-har IPT)", best2_cw.configs),
        ("own customized core", tuple(cross.names)),
    ]
    return [
        Figure4Series(label=label, configs=configs, ipt=per_workload_ipt(cross, configs))
        for label, configs in series
    ]


# ----------------------------------------------------------------------
# Figures 6-8
# ----------------------------------------------------------------------

def figure6(cross: CrossPerformance) -> SurrogateGraph:
    """Greedy surrogates without propagation (stalls before 1 root)."""
    return greedy_surrogates(cross, Propagation.NONE, target_roots=1)


def figure7(cross: CrossPerformance, target_roots: int = 2) -> SurrogateGraph:
    """Greedy surrogates with forward + backward propagation."""
    return greedy_surrogates(cross, Propagation.FULL, target_roots=target_roots)


def figure8(cross: CrossPerformance, target_roots: int = 2) -> SurrogateGraph:
    """Greedy surrogates with forward-only propagation."""
    return greedy_surrogates(cross, Propagation.FORWARD, target_roots=target_roots)
