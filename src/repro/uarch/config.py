"""Superscalar core configuration schema and design space.

:class:`CoreConfig` carries exactly the knobs of the paper's Tables 3 and
4: clock period, dispatch/issue/commit width, ROB / issue-queue /
load-store-queue sizes, the minimum latency for awakening dependent
instructions (how deeply the wake-up/select loop is pipelined), the
pipeline depth of the scheduler/register-file and of the LSQ, the L1/L2
geometries with their access latencies in cycles, the front-end depth and
the memory access cycle count.

A configuration is *legal* for a technology node when every unit's access
time (from the CACTI analog) fits inside its stage budget:
``stages x clock - stages x latch`` (the paper's fitting rule), and the
front-end / memory cycle counts cover the node's fixed latencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..tech import CactiModel, TechnologyNode
from ..tech.unitdelay import issue_queue_ns, l1_cache_ns, l2_cache_ns, lsq_ns, regfile_ns
from ..units import KB, MB, format_size, is_power_of_two

#: Legal core types.  ``"ooo"`` is the paper's out-of-order superscalar
#: (the historical default — every pre-existing configuration is one);
#: ``"inorder"`` is a stall-on-use in-order core in the lumos tradition:
#: the same sized units and timing rules, but no reordering window, so
#: the interval model clamps its effective window to the issue width and
#: the power/area models drop most of the scheduling-structure cost.
CORE_TYPES = ("ooo", "inorder")


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry and pipelined access latency of one cache level."""

    nsets: int
    assoc: int
    block_bytes: int
    latency_cycles: int

    def __post_init__(self) -> None:
        if not is_power_of_two(self.nsets):
            raise ConfigurationError(f"cache sets must be a power of two: {self.nsets}")
        if self.assoc < 1:
            raise ConfigurationError(f"associativity must be >= 1: {self.assoc}")
        if self.block_bytes < 8 or not is_power_of_two(self.block_bytes):
            raise ConfigurationError(
                f"block size must be a power of two >= 8: {self.block_bytes}"
            )
        if self.latency_cycles < 1:
            raise ConfigurationError(
                f"cache latency must be >= 1 cycle: {self.latency_cycles}"
            )

    @property
    def capacity_bytes(self) -> int:
        """Total data capacity."""
        return self.nsets * self.assoc * self.block_bytes

    def describe(self) -> str:
        """Human-readable geometry, e.g. ``64K (1024x2x32, 2 cyc)``."""
        return (
            f"{format_size(self.capacity_bytes)} "
            f"({self.nsets}x{self.assoc}x{self.block_bytes}, "
            f"{self.latency_cycles} cyc)"
        )


@dataclass(frozen=True)
class CoreConfig:
    """One point in the superscalar design space (Table 3/4 schema)."""

    clock_period_ns: float
    width: int
    rob_size: int
    iq_size: int
    lsq_size: int
    wakeup_latency: int
    scheduler_depth: int
    lsq_depth: int
    frontend_stages: int
    memory_cycles: int
    l1: CacheGeometry
    l2: CacheGeometry
    core_type: str = "ooo"

    #: Keep historical content digests (cache keys, run signatures,
    #: seeded fault schedules) byte-stable: ``core_type`` joined the
    #: schema after PR 7, so at its default it is omitted from the
    #: canonical encoding (see :func:`repro.engine.keys.canonical`).
    __canonical_omit_defaults__ = frozenset({"core_type"})

    def __post_init__(self) -> None:
        if self.core_type not in CORE_TYPES:
            raise ConfigurationError(
                f"core type must be one of {CORE_TYPES}: {self.core_type!r}"
            )
        if self.clock_period_ns <= 0:
            raise ConfigurationError(f"clock period must be positive: {self.clock_period_ns}")
        if self.width < 1:
            raise ConfigurationError(f"width must be >= 1: {self.width}")
        for label, value in (
            ("rob_size", self.rob_size),
            ("iq_size", self.iq_size),
            ("lsq_size", self.lsq_size),
        ):
            if value < 8:
                raise ConfigurationError(f"{label} must be >= 8: {value}")
        if self.wakeup_latency < 0:
            raise ConfigurationError(f"wakeup latency cannot be negative: {self.wakeup_latency}")
        for label, value in (
            ("scheduler_depth", self.scheduler_depth),
            ("lsq_depth", self.lsq_depth),
            ("frontend_stages", self.frontend_stages),
        ):
            if value < 1:
                raise ConfigurationError(f"{label} must be >= 1: {value}")
        if self.memory_cycles < 1:
            raise ConfigurationError(f"memory_cycles must be >= 1: {self.memory_cycles}")
        if self.iq_size > self.rob_size:
            raise ConfigurationError(
                f"issue queue ({self.iq_size}) cannot exceed ROB ({self.rob_size})"
            )
        if self.l2.capacity_bytes < self.l1.capacity_bytes:
            raise ConfigurationError(
                f"L2 ({self.l2.capacity_bytes} B) smaller than L1 "
                f"({self.l1.capacity_bytes} B)"
            )

    @property
    def frequency_ghz(self) -> float:
        """Clock frequency in GHz."""
        return 1.0 / self.clock_period_ns

    @property
    def pipeline_depth(self) -> int:
        """Approximate total pipeline depth in cycles (front end through
        scheduling); used as the misprediction-penalty backbone."""
        return self.frontend_stages + self.scheduler_depth + 1 + self.wakeup_latency

    def replace(self, **changes) -> "CoreConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return type(self)(**{**self.__dict__, **changes})

    @property
    def is_inorder(self) -> bool:
        """True for the in-order core type."""
        return self.core_type == "inorder"

    def describe(self) -> str:
        """Multi-line human-readable rendering in Table 4's row order.

        The core type line only appears for non-default types, so every
        historical (out-of-order) rendering is byte-identical.
        """
        lines = []
        if self.core_type != "ooo":
            lines.append(f"core type            {self.core_type}")
        lines.extend(
            (
                f"memory cycles        {self.memory_cycles}",
                f"front-end stages     {self.frontend_stages}",
                f"width                {self.width}",
                f"ROB size             {self.rob_size}",
                f"issue queue size     {self.iq_size}",
                f"wakeup latency       {self.wakeup_latency}",
                f"scheduler depth      {self.scheduler_depth}",
                f"clock period (ns)    {self.clock_period_ns:.2f}",
                f"L1D                  {self.l1.describe()}",
                f"L2D                  {self.l2.describe()}",
                f"LSQ size             {self.lsq_size} (depth {self.lsq_depth})",
            )
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class DesignSpace:
    """Legal parameter ranges of the exploration (xp-scalar's universe)."""

    widths: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    rob_sizes: tuple[int, ...] = (32, 64, 128, 256, 512, 1024)
    iq_sizes: tuple[int, ...] = (16, 32, 64, 128)
    lsq_sizes: tuple[int, ...] = (32, 64, 128, 256)
    l1_nsets: tuple[int, ...] = (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768)
    l1_assocs: tuple[int, ...] = (1, 2, 4, 8)
    l1_blocks: tuple[int, ...] = (8, 16, 32, 64, 128)
    l2_nsets: tuple[int, ...] = (32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)
    l2_assocs: tuple[int, ...] = (1, 2, 4, 8, 16)
    l2_blocks: tuple[int, ...] = (32, 64, 128, 256, 512)
    l1_capacity_range: tuple[int, int] = (4 * KB, 512 * KB)
    l2_capacity_range: tuple[int, int] = (128 * KB, 8 * MB)
    max_wakeup_latency: int = 3
    max_scheduler_depth: int = 3
    max_lsq_depth: int = 4
    max_l1_cycles: int = 6
    max_l2_cycles: int = 34

    def l1_geometries(self) -> list[tuple[int, int, int]]:
        """All (nsets, assoc, block) triples within the L1 capacity range."""
        return self._geometries(
            self.l1_nsets, self.l1_assocs, self.l1_blocks, self.l1_capacity_range
        )

    def l2_geometries(self) -> list[tuple[int, int, int]]:
        """All (nsets, assoc, block) triples within the L2 capacity range."""
        return self._geometries(
            self.l2_nsets, self.l2_assocs, self.l2_blocks, self.l2_capacity_range
        )

    @staticmethod
    def _geometries(nsets, assocs, blocks, cap_range) -> list[tuple[int, int, int]]:
        lo, hi = cap_range
        result = [
            (s, a, b)
            for s in nsets
            for a in assocs
            for b in blocks
            if lo <= s * a * b <= hi
        ]
        if not result:
            raise ConfigurationError("design space contains no legal cache geometry")
        return result


def derived_frontend_stages(tech: TechnologyNode, clock_period_ns: float) -> int:
    """Front-end depth: stages needed to cover the node's fetch/decode/
    rename latency at this clock (each stage loses the latch overhead)."""
    usable = tech.usable_stage_time(clock_period_ns)
    if usable <= 0:
        raise ConfigurationError(
            f"clock {clock_period_ns} ns leaves no usable time past the latch"
        )
    return max(1, math.ceil(tech.frontend_latency_ns / usable - 1e-9))


def derived_memory_cycles(
    tech: TechnologyNode, clock_period_ns: float, l2_latency_cycles: int
) -> int:
    """Cycles for a load missing all cache levels: the L2 lookup that
    discovers the miss plus the flat memory latency."""
    return l2_latency_cycles + max(
        1, math.ceil(tech.memory_latency_ns / clock_period_ns - 1e-9)
    )


def unit_delays_ns(model: CactiModel, config: CoreConfig) -> dict[str, float]:
    """Access time of every sized unit of a configuration (ns)."""
    return {
        "l1": l1_cache_ns(model, config.l1.nsets, config.l1.assoc, config.l1.block_bytes),
        "l2": l2_cache_ns(model, config.l2.nsets, config.l2.assoc, config.l2.block_bytes),
        "issue_queue": issue_queue_ns(model, config.iq_size, config.width),
        "regfile": regfile_ns(model, config.rob_size, config.width),
        "lsq": lsq_ns(model, config.lsq_size),
    }


def unit_budgets_ns(tech: TechnologyNode, config: CoreConfig) -> dict[str, float]:
    """Stage budget of every sized unit (ns): stages x (clock - latch)."""
    clk = config.clock_period_ns
    return {
        "l1": tech.budget(clk, config.l1.latency_cycles),
        "l2": tech.budget(clk, config.l2.latency_cycles),
        "issue_queue": tech.budget(clk, 1 + config.wakeup_latency),
        "regfile": tech.budget(clk, config.scheduler_depth),
        "lsq": tech.budget(clk, config.lsq_depth),
    }


def validate_config(
    config: CoreConfig,
    tech: TechnologyNode,
    model: CactiModel | None = None,
    space: DesignSpace | None = None,
) -> None:
    """Raise :class:`ConfigurationError` unless the configuration is legal.

    Checks the paper's fitting rule for every sized unit, the front-end
    and memory cycle derivations, the clock range, and (optionally) the
    design-space parameter ranges.
    """
    model = model or CactiModel(tech)
    if not tech.min_clock_ns <= config.clock_period_ns <= tech.max_clock_ns:
        raise ConfigurationError(
            f"clock {config.clock_period_ns} ns outside "
            f"[{tech.min_clock_ns}, {tech.max_clock_ns}]"
        )
    delays = unit_delays_ns(model, config)
    budgets = unit_budgets_ns(tech, config)
    for unit, delay in delays.items():
        if delay > budgets[unit] + 1e-9:
            raise ConfigurationError(
                f"unit {unit} needs {delay:.3f} ns but its budget is "
                f"{budgets[unit]:.3f} ns "
                f"(clock {config.clock_period_ns:.2f} ns)"
            )
    if config.frontend_stages < derived_frontend_stages(tech, config.clock_period_ns):
        raise ConfigurationError(
            f"front end needs >= "
            f"{derived_frontend_stages(tech, config.clock_period_ns)} stages "
            f"at clock {config.clock_period_ns:.2f} ns, got {config.frontend_stages}"
        )
    min_mem = derived_memory_cycles(tech, config.clock_period_ns, config.l2.latency_cycles)
    if config.memory_cycles < min_mem:
        raise ConfigurationError(
            f"memory needs >= {min_mem} cycles at clock "
            f"{config.clock_period_ns:.2f} ns, got {config.memory_cycles}"
        )
    if space is not None:
        _validate_ranges(config, space)


def _validate_ranges(config: CoreConfig, space: DesignSpace) -> None:
    checks = (
        ("width", config.width, space.widths),
        ("rob_size", config.rob_size, space.rob_sizes),
        ("iq_size", config.iq_size, space.iq_sizes),
        ("lsq_size", config.lsq_size, space.lsq_sizes),
    )
    for label, value, legal in checks:
        if value not in legal:
            raise ConfigurationError(f"{label}={value} not in design space {legal}")
    if (config.l1.nsets, config.l1.assoc, config.l1.block_bytes) not in set(
        space.l1_geometries()
    ):
        raise ConfigurationError(f"L1 geometry {config.l1.describe()} not in design space")
    if (config.l2.nsets, config.l2.assoc, config.l2.block_bytes) not in set(
        space.l2_geometries()
    ):
        raise ConfigurationError(f"L2 geometry {config.l2.describe()} not in design space")
    if config.wakeup_latency > space.max_wakeup_latency:
        raise ConfigurationError(
            f"wakeup latency {config.wakeup_latency} exceeds "
            f"{space.max_wakeup_latency}"
        )
    if config.scheduler_depth > space.max_scheduler_depth:
        raise ConfigurationError(
            f"scheduler depth {config.scheduler_depth} exceeds "
            f"{space.max_scheduler_depth}"
        )
    if config.lsq_depth > space.max_lsq_depth:
        raise ConfigurationError(
            f"LSQ depth {config.lsq_depth} exceeds {space.max_lsq_depth}"
        )


def initial_configuration(tech: TechnologyNode) -> CoreConfig:
    """The paper's Table 3 starting point, adjusted to legality.

    Table 3: width 3, ROB 128, IQ 64, LSQ 64 (depth 2), clock 0.33 ns,
    front end 6 stages, memory 172 cycles, L1 4 cycles, L2 12 cycles,
    wake-up latency 1.  The cache geometries are not listed in Table 3
    (the paper randomly re-fits them on the first iteration); we pick
    mid-range geometries that fit the stated cycle counts.  The scheduler
    depth is 2 rather than the paper's 1 because our register-file model
    cannot hold a 128-entry ROB in a single 0.33 ns stage.
    """
    clock = 0.33
    l2_latency = 12
    return CoreConfig(
        clock_period_ns=clock,
        width=3,
        rob_size=128,
        iq_size=64,
        lsq_size=64,
        wakeup_latency=1,
        scheduler_depth=2,
        lsq_depth=2,
        frontend_stages=max(6, derived_frontend_stages(tech, clock)),
        memory_cycles=max(172, derived_memory_cycles(tech, clock, l2_latency)),
        l1=CacheGeometry(nsets=256, assoc=2, block_bytes=64, latency_cycles=4),
        l2=CacheGeometry(nsets=1024, assoc=2, block_bytes=128, latency_cycles=l2_latency),
    )
