"""Design envelopes: peak power, die area, energy per instruction.

The paper optimizes IPT alone and merely observes that the customized
configurations stay "within acceptable limits" of power and area.  A
:class:`ConstraintSet` makes those limits first-class: it bundles the
three budgets modern design-space work constrains on — peak power (the
thermal/delivery envelope), die area (the silicon budget) and energy per
instruction (the EPI-throttling regime of Annavaram et al.) — and
evaluates one design point's standing against them through the
first-order models in :mod:`repro.tech.power` / :mod:`repro.tech.area`.

Every figure is per *core*; the heterogeneous combination search
(:mod:`repro.design.hetero`) additionally applies power/area budgets to
the *sum* over a chosen core combination (the dark-silicon tradeoff).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ReproError
from ..tech.area import core_area_mm2
from ..tech.power import _estimate_power
from ..tech.technology import TechnologyNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.metrics import SimResult
    from ..uarch.config import CoreConfig
    from ..workloads.profile import WorkloadProfile


class DesignError(ReproError):
    """Invalid constraint set or design-space request."""


@dataclass(frozen=True)
class ConstraintSet:
    """Optional per-core budgets; ``None`` leaves a dimension unbounded.

    ``peak_power_w`` caps the estimated average power draw while running
    a workload, ``area_mm2`` caps the core's die area, and
    ``epi_budget_nj`` caps the energy burned per committed instruction.
    """

    peak_power_w: float | None = None
    area_mm2: float | None = None
    epi_budget_nj: float | None = None

    def __post_init__(self) -> None:
        for label, value in (
            ("peak_power_w", self.peak_power_w),
            ("area_mm2", self.area_mm2),
            ("epi_budget_nj", self.epi_budget_nj),
        ):
            if value is not None and value <= 0:
                raise DesignError(f"{label} must be positive, got {value}")

    @property
    def unconstrained(self) -> bool:
        """True when no budget is active (everything is feasible)."""
        return (
            self.peak_power_w is None
            and self.area_mm2 is None
            and self.epi_budget_nj is None
        )

    @property
    def identity(self) -> str:
        """Stable encoding for run signatures and journal events."""
        return (
            f"power={self.peak_power_w!r},area={self.area_mm2!r},"
            f"epi={self.epi_budget_nj!r}"
        )

    # ------------------------------------------------------------------
    # evaluation against one design point
    # ------------------------------------------------------------------

    def measure(
        self,
        tech: TechnologyNode,
        profile: "WorkloadProfile",
        config: "CoreConfig",
        result: "SimResult",
        *,
        area_mm2: float | None = None,
    ) -> dict[str, float]:
        """The three constrained figures of one evaluated design point.

        Bit-identical to ``estimate_power(...).total_w``,
        ``core_area_mm2(...)`` and ``energy_per_instruction_nj(...)``,
        with the area and the power computed once.  ``area_mm2`` is
        ``core_area_mm2(tech, config)`` when the caller already has it
        (a config shared by several workloads).
        """
        area = core_area_mm2(tech, config) if area_mm2 is None else area_mm2
        power_w = _estimate_power(profile, config, result, area).total_w
        return {
            "power_w": power_w,
            "area_mm2": area,
            # W / (instr/ns) = nJ per instruction.
            "epi_nj": power_w / max(result.ipt, 1e-12),
        }

    def overruns(self, measures: dict[str, float]) -> dict[str, float]:
        """Fractional overrun per *active* budget (0.0 when satisfied)."""
        out: dict[str, float] = {}
        for key, budget in (
            ("power_w", self.peak_power_w),
            ("area_mm2", self.area_mm2),
            ("epi_nj", self.epi_budget_nj),
        ):
            if budget is not None:
                out[key] = max(0.0, measures[key] / budget - 1.0)
        return out

    def satisfied(self, measures: dict[str, float]) -> bool:
        """True when every active budget holds for ``measures``."""
        return all(v == 0.0 for v in self.overruns(measures).values())

    def discount(self, measures: dict[str, float]) -> float:
        """Multiplicative objective discount: ``prod(1 + overrun)``.

        The soft-constraint idiom of the existing :mod:`repro.tech`
        scorers, generalized to several simultaneous envelopes: inside
        every budget the discount is exactly 1.0, so the constrained
        objective degenerates to its unconstrained form.
        """
        factor = 1.0
        for overrun in self.overruns(measures).values():
            factor *= 1.0 + overrun
        return factor
