"""First-order power/energy model.

Completes the paper's "performance, power and die area" objective trio
(§3).  The model follows the classic Wattch-style decomposition:

* **dynamic energy** — each unit access costs energy proportional to the
  bits switched (capacity-dependent for arrays, width-dependent for the
  datapath); per-instruction access counts come from the interval
  model's event rates;
* **static leakage** — proportional to die area (from
  :mod:`repro.tech.area`);
* **clock tree** — proportional to frequency and area.

The absolute scale is calibrated to the 90 nm regime (a mid-range core
around 10-40 W); as with the area model, only relative numbers between
configurations matter for exploration.  :func:`edp_objective` and
:func:`epi_objective` wrap the model as explorer score hooks (energy-
delay product and energy-per-instruction throttling, the objectives of
the heterogeneity literature the paper cites [14, 20, 24]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .area import core_area_mm2
from .technology import TechnologyNode

if TYPE_CHECKING:  # avoid circular imports (uarch/sim depend on tech)
    from ..sim.metrics import SimResult
    from ..uarch.config import CoreConfig
    from ..workloads.profile import WorkloadProfile

#: nJ per access per kilobyte of SRAM capacity (bitline/wordline energy
#: grows sub-linearly with capacity; sqrt models the banked array).
_SRAM_NJ_PER_SQRT_KB = 0.012
#: nJ per issued instruction per unit of machine width (datapath+bypass).
_DATAPATH_NJ = 0.04
#: Static leakage per mm^2 (W).
_LEAKAGE_W_PER_MM2 = 0.15
#: Clock-tree power per mm^2 per GHz (W).
_CLOCK_W_PER_MM2_GHZ = 0.04

#: Dynamic-energy multipliers for the in-order core type, mirroring the
#: per-unit area scaling in :mod:`repro.tech.area`: no rename/ROB writes
#: per instruction, a RAM scoreboard instead of a CAM wake-up broadcast,
#: and a thinner bypass network.  Cache access energy is core-type
#: independent; leakage and clock power scale automatically through the
#: per-type die area.
_INORDER_DATAPATH_SCALE = 0.6
_INORDER_ROB_SCALE = 0.25
_INORDER_IQ_SCALE = 0.3


@dataclass(frozen=True)
class PowerEstimate:
    """Power breakdown for one (workload, configuration) execution."""

    dynamic_w: float
    leakage_w: float
    clock_w: float

    @property
    def total_w(self) -> float:
        return self.dynamic_w + self.leakage_w + self.clock_w


def _access_energy_nj(capacity_bytes: int) -> float:
    """Dynamic energy of one access to an SRAM of the given capacity."""
    return _SRAM_NJ_PER_SQRT_KB * math.sqrt(max(1.0, capacity_bytes / 1024))


def estimate_power(
    tech: TechnologyNode,
    profile: "WorkloadProfile",
    config: "CoreConfig",
    result: "SimResult",
) -> PowerEstimate:
    """Estimate average power while running ``profile`` on ``config``."""
    return _estimate_power(profile, config, result, core_area_mm2(tech, config))


def _estimate_power(
    profile: "WorkloadProfile",
    config: "CoreConfig",
    result: "SimResult",
    area_mm2: float,
) -> PowerEstimate:
    """:func:`estimate_power` with the core area (``core_area_mm2``)
    already computed, for callers that also report the area."""
    ipc = result.ipc
    freq_ghz = 1.0 / config.clock_period_ns

    # Per-instruction dynamic energy (nJ).
    mem_frac = profile.mix.memory
    l1_miss = profile.memory.miss_rate(
        config.l1.capacity_bytes, config.l1.block_bytes, config.l1.assoc
    )
    dp_scale, rob_scale, iq_scale = (
        (_INORDER_DATAPATH_SCALE, _INORDER_ROB_SCALE, _INORDER_IQ_SCALE)
        if config.is_inorder
        else (1.0, 1.0, 1.0)
    )
    energy_per_instr = (
        dp_scale * _DATAPATH_NJ * config.width ** 0.5
        + rob_scale * _access_energy_nj(config.rob_size * 16)  # rename/ROB access
        + iq_scale * _access_energy_nj(config.iq_size * 8)  # wakeup broadcast
        + mem_frac * _access_energy_nj(config.l1.capacity_bytes)
        + mem_frac * l1_miss * _access_energy_nj(config.l2.capacity_bytes)
    )
    # Dynamic power = energy/instr x instrs/ns = nJ x IPT (GW scale: nJ/ns = W).
    dynamic = energy_per_instr * ipc * freq_ghz

    leakage = _LEAKAGE_W_PER_MM2 * area_mm2
    clock = _CLOCK_W_PER_MM2_GHZ * area_mm2 * freq_ghz
    return PowerEstimate(dynamic_w=dynamic, leakage_w=leakage, clock_w=clock)


def energy_per_instruction_nj(
    tech: TechnologyNode,
    profile: "WorkloadProfile",
    config: "CoreConfig",
    result: "SimResult",
) -> float:
    """Average energy per committed instruction (nJ)."""
    power = estimate_power(tech, profile, config, result)
    # W / (instr/ns) = nJ per instruction.
    return power.total_w / max(result.ipt, 1e-12)


class _EdpScore:
    """Callable minimizing the energy-delay product (maximize 1/EDP).

    A module-level class (not a closure) so objective-carrying explorers
    pickle into engine worker processes; ``needs_context`` marks it as a
    3-argument context objective (see
    :func:`repro.explore.xpscalar.apply_objective`) and ``identity``
    folds it into run signatures.
    """

    needs_context = True

    def __init__(self, tech: TechnologyNode) -> None:
        self.tech = tech

    @property
    def identity(self) -> str:
        return "edp"

    def __call__(self, profile, config, result) -> float:
        epi = energy_per_instruction_nj(self.tech, profile, config, result)
        delay_per_instr = 1.0 / max(result.ipt, 1e-12)
        return 1.0 / (epi * delay_per_instr)


class _EpiScore:
    """Callable scoring IPT, discounted beyond an EPI cap (picklable)."""

    needs_context = True

    def __init__(self, tech: TechnologyNode, epi_budget_nj: float) -> None:
        self.tech = tech
        self.epi_budget_nj = epi_budget_nj

    @property
    def identity(self) -> str:
        return f"epi:{self.epi_budget_nj!r}"

    def __call__(self, profile, config, result) -> float:
        epi = energy_per_instruction_nj(self.tech, profile, config, result)
        overrun = max(0.0, epi / self.epi_budget_nj - 1.0)
        return result.ipt / (1.0 + overrun)


def edp_objective(tech: TechnologyNode):
    """Score hook minimizing the energy-delay product (maximize 1/EDP)."""
    return _EdpScore(tech)


def epi_objective(tech: TechnologyNode, epi_budget_nj: float):
    """Score hook: IPT, discounted beyond an energy-per-instruction cap.

    This is the EPI-throttling regime of Annavaram et al. [20]: cores may
    burn at most a budgeted energy per instruction.
    """
    if epi_budget_nj <= 0:
        raise ValueError(f"EPI budget must be positive, got {epi_budget_nj}")
    return _EpiScore(tech, epi_budget_nj)
