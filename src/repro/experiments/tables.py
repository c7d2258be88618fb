"""Table drivers: the data behind every table in the paper.

* Table 1 — CACTI output components per architectural unit;
* Table 2 — fixed technology parameters;
* Table 3 — the initial configuration;
* Table 4 — customized configurations per benchmark;
* Table 5 — the cross-configuration IPT matrix;
* Table 6 — best core combinations under three merits;
* Table 7 — the dual-core summary;
* Appendix A — the percentage slowdown matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..characterize.configurational import ConfigurationalCharacteristics
from ..characterize.cross import CrossPerformance
from ..communal.combination import Combination, best_combination
from ..communal.merit import ideal_harmonic_ipt
from ..communal.surrogate import Propagation, greedy_surrogates, surrogate_merits
from ..tech import CactiModel, TechnologyNode, default_technology
from ..tech.unitdelay import issue_queue_ns, l1_cache_ns, l2_cache_ns, lsq_ns, regfile_ns, select_ns, wakeup_ns
from ..uarch.config import CoreConfig, initial_configuration
from ..units import format_size


def table1_unit_delays(
    config: CoreConfig, tech: TechnologyNode | None = None
) -> dict[str, float]:
    """Table 1 in executable form: each unit's modelled delay (ns)."""
    tech = tech or default_technology()
    model = CactiModel.shared(tech)
    return {
        "L1 data cache": l1_cache_ns(
            model, config.l1.nsets, config.l1.assoc, config.l1.block_bytes
        ),
        "L2 data cache": l2_cache_ns(
            model, config.l2.nsets, config.l2.assoc, config.l2.block_bytes
        ),
        "wakeup": wakeup_ns(model, config.iq_size, config.width),
        "select": select_ns(model, config.iq_size, config.width),
        "issue queue (wakeup+select)": issue_queue_ns(
            model, config.iq_size, config.width
        ),
        "reg file (ROB)": regfile_ns(model, config.rob_size, config.width),
        "LSQ": lsq_ns(model, config.lsq_size),
    }


def table2_fixed_parameters(tech: TechnologyNode | None = None) -> dict[str, object]:
    """Table 2: the fixed design parameters across all configurations."""
    tech = tech or default_technology()
    return {
        "memory access latency (ns)": tech.memory_latency_ns,
        "front-end latency (ns)": tech.frontend_latency_ns,
        "bit-width of IQ entries": tech.iq_entry_bits,
        "latch latency (ns)": tech.latch_latency_ns,
    }


def table3_initial_configuration(tech: TechnologyNode | None = None) -> CoreConfig:
    """Table 3: the starting point of every exploration."""
    return initial_configuration(tech or default_technology())


#: Row labels of Table 4 and the config attribute that provides each.
TABLE4_ROWS = (
    ("No. of cycles for memory access", lambda c: c.memory_cycles),
    ("No. of pipeline stages of the front-end", lambda c: c.frontend_stages),
    ("Dispatch, issue, and commit width", lambda c: c.width),
    ("ROB size", lambda c: c.rob_size),
    ("Issue queue size", lambda c: c.iq_size),
    ("Min. lat. for awakening of dep. instr.", lambda c: c.wakeup_latency),
    ("Pipeline depth of Scheduler/Reg-file", lambda c: c.scheduler_depth),
    ("Clock period", lambda c: round(c.clock_period_ns, 2)),
    ("L1D associativity", lambda c: c.l1.assoc),
    ("L1D block-size", lambda c: c.l1.block_bytes),
    ("L1D no. of sets", lambda c: c.l1.nsets),
    ("L1D access latency", lambda c: c.l1.latency_cycles),
    ("L1D capacity", lambda c: format_size(c.l1.capacity_bytes)),
    ("L2D associativity", lambda c: c.l2.assoc),
    ("L2D block-size", lambda c: c.l2.block_bytes),
    ("L2D no. of sets", lambda c: c.l2.nsets),
    ("L2D access latency", lambda c: c.l2.latency_cycles),
    ("L2D capacity", lambda c: format_size(c.l2.capacity_bytes)),
    ("LS-queue size", lambda c: c.lsq_size),
)


def table4_rows(
    characteristics: dict[str, ConfigurationalCharacteristics],
    names: list[str] | None = None,
) -> tuple[list[str], list[list[object]]]:
    """Table 4 as (headers, rows): one column per benchmark."""
    names = names or sorted(characteristics)
    headers = ["parameter"] + names
    rows = []
    for label, getter in TABLE4_ROWS:
        rows.append([label] + [getter(characteristics[n].config) for n in names])
    return headers, rows


def table5_matrix(cross: CrossPerformance) -> np.ndarray:
    """Table 5: the cross-configuration IPT matrix itself."""
    return cross.ipt.copy()


@dataclass(frozen=True)
class Table6Row:
    """One row of Table 6."""

    label: str
    combination: Combination


def table6_rows(cross: CrossPerformance) -> list[Table6Row]:
    """Table 6: best combinations per core count and figure of merit."""
    rows = [
        Table6Row("best config for avg & har IPT", best_combination(cross, 1, "har")),
        Table6Row("2 best configs for avg IPT", best_combination(cross, 2, "avg")),
        Table6Row("2 best configs for har IPT", best_combination(cross, 2, "har")),
        Table6Row("2 best configs for cw-har IPT", best_combination(cross, 2, "cw-har")),
        Table6Row("3 best configs for avg IPT", best_combination(cross, 3, "avg")),
        Table6Row("3 best configs for har IPT", best_combination(cross, 3, "har")),
        Table6Row("4 best configs for har IPT", best_combination(cross, 4, "har")),
    ]
    return rows


@dataclass(frozen=True)
class Table7Summary:
    """Table 7: dual-core design approaches compared."""

    ideal_harmonic: float
    homogeneous_harmonic: float
    homogeneous_config: str
    complete_search_harmonic: float
    complete_search_configs: tuple[str, ...]
    surrogate_harmonic: float
    surrogate_configs: tuple[str, ...]

    def slowdown_vs_ideal(self, value: float) -> float:
        """Fractional slowdown of a scenario vs the ideal system."""
        return 1.0 - value / self.ideal_harmonic


def table7_summary(cross: CrossPerformance) -> Table7Summary:
    """Compute the four scenarios of Table 7."""
    ideal = ideal_harmonic_ipt(cross)
    best1 = best_combination(cross, 1, "har")
    best2 = best_combination(cross, 2, "har")
    graph = greedy_surrogates(cross, Propagation.FULL, target_roots=2)
    surro = surrogate_merits(cross, graph)
    return Table7Summary(
        ideal_harmonic=ideal,
        homogeneous_harmonic=best1.harmonic,
        homogeneous_config=best1.configs[0],
        complete_search_harmonic=best2.harmonic,
        complete_search_configs=best2.configs,
        surrogate_harmonic=surro["harmonic_ipt"],
        surrogate_configs=graph.roots,
    )


def appendix_a_matrix(cross: CrossPerformance) -> np.ndarray:
    """Appendix A: percentage slowdown of each benchmark on each config."""
    return cross.slowdown_matrix()
