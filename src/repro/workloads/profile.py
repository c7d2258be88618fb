"""Statistical workload models.

The paper characterizes workloads through execution-driven simulation of
SPEC2000 binaries.  Those binaries (and SimpleScalar) are not available
here, so each workload is modelled statistically: a
:class:`WorkloadProfile` captures the microarchitecture-independent
behaviour that drives the timing simulators —

* the instruction mix,
* an ILP curve (how much instruction-level parallelism a window of a given
  size can expose),
* the density of back-to-back dependence chains (sensitivity to the
  wake-up latency between dependent instructions),
* a branch-predictability model, and
* a memory reuse model (miss rate as a function of cache geometry).

The same profile drives both the fast interval model
(:mod:`repro.sim.interval`) and the synthetic trace generator
(:mod:`repro.workloads.generator`), so the two simulation paths see a
consistent workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from ..errors import WorkloadError

#: Reference geometry at which miss-rate curves are calibrated.
REFERENCE_BLOCK_BYTES = 64

#: Solved miss rates, ``{MemoryModel: {(capacity, block, assoc): rate}}``,
#: shared by every equal model in the process.  Bounded by the distinct
#: profiles and geometries a process meets; never evicted.
_MISS_MEMOS: dict["MemoryModel", dict[tuple[int, int, int], float]] = {}


@dataclass(frozen=True)
class InstructionMix:
    """Dynamic instruction-class frequencies (must sum to 1)."""

    load: float
    store: float
    branch: float
    int_alu: float
    mul: float = 0.0

    def __post_init__(self) -> None:
        parts = (self.load, self.store, self.branch, self.int_alu, self.mul)
        if any(p < 0 for p in parts):
            raise WorkloadError(f"instruction mix has negative component: {parts}")
        total = sum(parts)
        if not math.isclose(total, 1.0, abs_tol=1e-6):
            raise WorkloadError(f"instruction mix must sum to 1, got {total}")

    @property
    def memory(self) -> float:
        """Fraction of instructions that access memory."""
        return self.load + self.store


@dataclass(frozen=True)
class BranchModel:
    """Control-flow behaviour of a workload.

    ``misp_rate`` is the misprediction rate achieved by the fixed reference
    predictor the exploration assumes (the paper's design space does not
    vary the predictor — Tables 3 and 4 carry no predictor parameters).
    ``taken_rate`` and ``bias`` shape the generated branch streams: ``bias``
    is the average per-static-branch outcome bias (0.5 = coin flips,
    1.0 = fully biased), which is what Figure 1's "branch biasness" axis
    measures.
    """

    misp_rate: float
    taken_rate: float = 0.55
    bias: float = 0.85

    def __post_init__(self) -> None:
        if not 0.0 <= self.misp_rate <= 0.5:
            raise WorkloadError(f"misp_rate must be in [0, 0.5], got {self.misp_rate}")
        if not 0.0 <= self.taken_rate <= 1.0:
            raise WorkloadError(f"taken_rate must be in [0, 1], got {self.taken_rate}")
        if not 0.5 <= self.bias <= 1.0:
            raise WorkloadError(f"bias must be in [0.5, 1], got {self.bias}")


@dataclass(frozen=True)
class WorkingSetComponent:
    """One component of the reuse profile.

    ``fraction`` of memory accesses touch a region of ``size_bytes`` bytes;
    accesses within a component are spread with LRU-friendly reuse, so a
    cache larger than the component captures it almost entirely.
    """

    fraction: float
    size_bytes: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise WorkloadError(f"fraction must be in [0, 1], got {self.fraction}")
        if self.size_bytes < 64:
            raise WorkloadError(f"working-set component below 64 B: {self.size_bytes}")


@dataclass(frozen=True)
class MemoryModel:
    """Analytical cache-miss model built from working-set components.

    The miss rate of an LRU cache of capacity ``C`` is approximated as the
    fraction of accesses whose reuse distance exceeds ``C``: each component
    contributes its access fraction, attenuated smoothly once the cache is
    larger than the component.  ``spatial_locality`` (0..1) controls how
    much larger cache blocks help (1 = perfectly sequential, 0 = random);
    ``conflict_pressure`` adds conflict misses at low associativity;
    ``compulsory`` is the irreducible cold-miss floor; ``mlp`` is the
    maximum memory-level parallelism the access stream allows.
    """

    components: tuple[WorkingSetComponent, ...]
    spatial_locality: float = 0.5
    conflict_pressure: float = 0.3
    compulsory: float = 0.0005
    mlp: float = 2.0
    mlp_window_half: float = 150.0
    tail_exponent: float = 2.2
    partial_exponent: float = 0.5
    spatial_run_bytes: int = 192

    def __post_init__(self) -> None:
        if not self.components:
            raise WorkloadError("memory model needs at least one working-set component")
        total = sum(c.fraction for c in self.components)
        if total > 1.0 + 1e-9:
            raise WorkloadError(f"working-set fractions exceed 1: {total}")
        if not 0.0 <= self.spatial_locality <= 1.0:
            raise WorkloadError("spatial_locality must be in [0, 1]")
        if self.conflict_pressure < 0:
            raise WorkloadError("conflict_pressure cannot be negative")
        if not 0.0 <= self.compulsory <= 0.2:
            raise WorkloadError("compulsory miss floor must be in [0, 0.2]")
        if self.mlp < 1.0:
            raise WorkloadError("mlp must be >= 1")
        if self.mlp_window_half <= 0:
            raise WorkloadError("mlp_window_half must be positive")

    @property
    def footprint_bytes(self) -> int:
        """Total touched data: the largest working-set component."""
        return max(c.size_bytes for c in self.components)

    def miss_rate(
        self,
        capacity_bytes: int,
        block_bytes: int = REFERENCE_BLOCK_BYTES,
        assoc: int = 2,
    ) -> float:
        """Miss rate per memory access for the given cache geometry.

        Solved once per geometry per process: every equal model shares
        one table of answers (see :attr:`_miss_memo`).
        """
        if capacity_bytes < 64:
            raise WorkloadError(f"cache capacity below 64 B: {capacity_bytes}")
        if block_bytes < 1 or assoc < 1:
            raise WorkloadError("block size and associativity must be positive")
        memo = self._miss_memo
        key = (capacity_bytes, block_bytes, assoc)
        rate = memo.get(key)
        if rate is None:
            rate = memo[key] = self._solve_miss_rate(capacity_bytes, block_bytes, assoc)
        return rate

    @cached_property
    def _miss_memo(self) -> dict[tuple[int, int, int], float]:
        """The process-wide miss-rate table of every model equal to this one.

        Cached on the instance so the model is hashed once, not on every
        lookup.  It is not a dataclass field, so ``canonical()``, equality
        and hashing never see it, and :meth:`__getstate__` keeps it out of
        pickles.
        """
        return _MISS_MEMOS.setdefault(self, {})

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_miss_memo", None)
        return state

    def _solve_miss_rate(self, capacity_bytes: int, block_bytes: int, assoc: int) -> float:
        """The miss-rate formula behind :meth:`miss_rate` (arguments checked)."""
        capture = 0.0
        for comp in self.components:
            # Two-regime LRU capture: below the component's size the cache
            # captures the hottest part of it (sub-linear growth); above it
            # a small leak remains that decays with the capacity ratio.
            ratio = capacity_bytes / comp.size_bytes
            if ratio < 1.0:
                captured = 0.95 * ratio**self.partial_exponent
            else:
                captured = 1.0 - 0.05 / ratio**self.tail_exponent
            capture += comp.fraction * captured
        miss = max(0.0, 1.0 - capture)
        # Spatial locality: doubling the block halves misses for a perfectly
        # sequential stream and does nothing for a random one.  The benefit
        # saturates at the workload's typical run length — blocks larger
        # than a spatial run only fetch dead bytes.
        effective_block = min(block_bytes, max(self.spatial_run_bytes, REFERENCE_BLOCK_BYTES))
        block_ratio = effective_block / REFERENCE_BLOCK_BYTES
        miss *= block_ratio ** (-self.spatial_locality)
        # Conflict misses vanish as associativity grows.
        miss *= 1.0 + self.conflict_pressure / assoc
        return float(min(1.0, miss + self.compulsory))

    def achievable_mlp(self, window: float) -> float:
        """Memory-level parallelism reachable with an instruction window.

        Independent misses must coexist in the window to overlap; for
        pointer-chasing workloads (large ``mlp_window_half``) most nearby
        misses are dependent, so exposing parallelism takes a very large
        window — this is why the paper's mcf demands a 1024-entry ROB.
        """
        if window <= 0:
            return 1.0
        return max(1.0, self.mlp * window / (window + self.mlp_window_half))


@dataclass(frozen=True)
class WorkloadProfile:
    """Complete statistical description of one workload.

    Attributes
    ----------
    name:
        Benchmark identifier (e.g. ``"mcf"``).
    mix:
        Dynamic instruction mix.
    ilp_limit:
        Instructions per cycle sustainable with an unbounded window and
        single-cycle operations (the dataflow limit's practical plateau).
    ilp_window_half:
        Window size (in instructions) at which half of ``ilp_limit`` is
        exposed; large values mean the workload needs a big ROB.
    dependence_density:
        Fraction of instructions whose consumer wants to issue back-to-back
        (Figure 1's "density of dependence chains"); scales the cost of
        pipelining the wake-up/select loop.
    load_use_fraction:
        Fraction of loads whose value is consumed immediately; scales the
        cost of extra L1 hit cycles.
    branch:
        Branch behaviour.
    memory:
        Memory reuse behaviour.
    weight:
        Importance weight for communal customization (the paper's default
        studies use equal weights).
    """

    name: str
    mix: InstructionMix
    ilp_limit: float
    ilp_window_half: float
    dependence_density: float
    load_use_fraction: float
    branch: BranchModel
    memory: MemoryModel
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("workload needs a non-empty name")
        if self.ilp_limit <= 0:
            raise WorkloadError(f"ilp_limit must be positive, got {self.ilp_limit}")
        if self.ilp_window_half <= 0:
            raise WorkloadError("ilp_window_half must be positive")
        if not 0.0 <= self.dependence_density <= 1.0:
            raise WorkloadError("dependence_density must be in [0, 1]")
        if not 0.0 <= self.load_use_fraction <= 1.0:
            raise WorkloadError("load_use_fraction must be in [0, 1]")
        if self.weight <= 0:
            raise WorkloadError("weight must be positive")

    def ilp(self, window: float) -> float:
        """ILP exposed by an instruction window of the given size."""
        if window <= 0:
            return 0.0
        return self.ilp_limit * window / (window + self.ilp_window_half)
