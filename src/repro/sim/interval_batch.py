"""NumPy-vectorized batch path for the mechanistic interval model.

:mod:`repro.sim.interval` evaluates one ``(workload, configuration)``
pair per call; the annealer, the clock sweeps and the cross-performance
matrix ask for thousands of such evaluations, so the per-call Python
overhead — attribute walks, float boxing, the working-set loop — caps
throughput well below what the arithmetic itself costs.  This module
removes that overhead for bulk requests: :class:`BatchIntervalModel`
evaluates an entire *array* of configurations against one workload
profile in a single set of float64 array operations, one column per
configuration parameter.

The scalar model stays the untouched golden reference.  Every formula
here mirrors its scalar counterpart **operation for operation** (same
association, same accumulation order over working-set components, same
``min``/``max`` nesting), and elementwise float64 arithmetic is IEEE
correctly rounded in both NumPy and CPython — so the batch path is
*bit-identical* to the scalar path, which the differential suite
(``tests/test_interval_batch.py``) asserts with exact equality.  Because
the numbers are identical, the model shares the scalar simulator's
cache identity (see :data:`BatchIntervalModel.cache_identity`): cached
results interoperate in both directions and run signatures are
unchanged.

Branches in the scalar code fall into two kinds and are handled
accordingly:

* profile-level branches (``taken_per_instr <= 0``) hold for the whole
  batch and stay ordinary Python ``if``;
* per-configuration branches (``events <= 0`` early returns, the
  two-regime capture curve) become ``np.where`` masks, with the unused
  lane computed harmlessly (no division by zero is reachable).
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from ..errors import ConfigurationError, WorkloadError
from ..workloads.profile import REFERENCE_BLOCK_BYTES, MemoryModel, WorkloadProfile
from .interval import (
    _BRANCH_RESOLVE_CYCLES,
    _INORDER_WINDOW_FACTOR,
    _IQ_WINDOW_FACTOR,
    _L2_SERVICE_FRACTION,
    _MEMORY_SERVICE_NS,
    _NOMINAL_INSTRUCTIONS,
    _REPLAY_FACTOR,
    IntervalSimulator,
)
from .metrics import CpiStack, SimResult


class ConfigColumns:
    """Struct-of-arrays view of a configuration batch.

    One int64/float64 column per :class:`~repro.uarch.config.CoreConfig`
    parameter the interval model reads; built once per batch so every
    CPI term is pure array arithmetic.
    """

    __slots__ = (
        "n",
        "clock_period_ns",
        "width",
        "rob_size",
        "iq_size",
        "lsq_size",
        "wakeup_latency",
        "scheduler_depth",
        "frontend_stages",
        "memory_cycles",
        "l1_capacity",
        "l1_block",
        "l1_assoc",
        "l1_latency",
        "l2_capacity",
        "l2_block",
        "l2_assoc",
        "l2_latency",
        "inorder",
    )

    def __init__(self, configs: Sequence[Any]) -> None:
        self.n = len(configs)
        self.clock_period_ns = np.array(
            [c.clock_period_ns for c in configs], dtype=np.float64
        )
        # One attribute walk per config, one 2-D array build, columns as
        # views — much cheaper than one comprehension per parameter.
        ints = np.array(
            [
                (
                    c.width,
                    c.rob_size,
                    c.iq_size,
                    c.lsq_size,
                    c.wakeup_latency,
                    c.scheduler_depth,
                    c.frontend_stages,
                    c.memory_cycles,
                    l1.nsets,
                    l1.block_bytes,
                    l1.assoc,
                    l1.latency_cycles,
                    l2.nsets,
                    l2.block_bytes,
                    l2.assoc,
                    l2.latency_cycles,
                )
                for c in configs
                for l1, l2 in ((c.l1, c.l2),)
            ],
            dtype=np.int64,
        ).reshape(self.n, 16)
        (
            self.width,
            self.rob_size,
            self.iq_size,
            self.lsq_size,
            self.wakeup_latency,
            self.scheduler_depth,
            self.frontend_stages,
            self.memory_cycles,
            l1_nsets,
            self.l1_block,
            self.l1_assoc,
            self.l1_latency,
            l2_nsets,
            self.l2_block,
            self.l2_assoc,
            self.l2_latency,
        ) = ints.T
        # Same integer product as CacheGeometry.capacity_bytes, computed
        # once per column instead of twice per config via the property.
        self.l1_capacity = l1_nsets * self.l1_assoc * self.l1_block
        self.l2_capacity = l2_nsets * self.l2_assoc * self.l2_block
        self.inorder = np.array(
            [c.core_type == "inorder" for c in configs], dtype=bool
        )


def _libm_pow(base: Any, exponent: Any) -> np.ndarray:
    """``base ** exponent`` through the C library's ``pow``.

    NumPy's ``power`` ufunc runs a SIMD pow that can differ from libm's
    correctly-rounded ``pow`` by one ulp (e.g. ``2.0 ** -0.3``) — enough
    to break bit-identity with the scalar model, whose ``**`` goes
    through ``float.__pow__`` and hence libm.  At every call site in
    this module exactly one operand is an array, so evaluate
    ``math.pow`` once per distinct value and scatter the table back.
    """
    if isinstance(base, np.ndarray):
        values, inverse = np.unique(base, return_inverse=True)
        table = [math.pow(value, exponent) for value in values.tolist()]
    else:
        values, inverse = np.unique(exponent, return_inverse=True)
        table = [math.pow(base, value) for value in values.tolist()]
    return np.array(table, dtype=np.float64)[inverse]


def batch_miss_rate(
    memory: MemoryModel,
    capacity_bytes: np.ndarray,
    block_bytes: np.ndarray,
    assoc: np.ndarray,
) -> np.ndarray:
    """Batch :meth:`repro.workloads.profile.MemoryModel.miss_rate`.

    The miss rate depends only on the ``(capacity, block, assoc)``
    geometry, and a configuration batch holds few distinct geometries
    (a neighborhood perturbs one parameter at a time), so the cheapest
    *and* trivially bit-identical evaluation is the scalar golden
    method itself, called once per distinct geometry and scattered back
    over the batch; it answers geometries solved earlier in the process
    from its own memo.
    """
    if np.any(capacity_bytes < 64):
        bad = int(capacity_bytes.min())
        raise WorkloadError(f"cache capacity below 64 B: {bad}")
    if np.any(block_bytes < 1) or np.any(assoc < 1):
        raise WorkloadError("block size and associativity must be positive")
    # Pack each geometry into one int64 so np.unique runs on a flat
    # column; representatives are recovered by first-occurrence index,
    # so the packing only has to be injective within its field widths.
    if (
        int(capacity_bytes.max()) < 1 << 41
        and int(block_bytes.max()) < 1 << 14
        and int(assoc.max()) < 1 << 8
    ):
        packed = (capacity_bytes << 22) | (block_bytes << 8) | assoc
        _, first, inverse = np.unique(
            packed, return_index=True, return_inverse=True
        )
    else:  # absurd geometry, but stay correct: every row is its own group
        first = np.arange(len(capacity_bytes))
        inverse = first
    rates = [
        memory.miss_rate(capacity, block, ways)
        for capacity, block, ways in zip(
            capacity_bytes[first].tolist(),
            block_bytes[first].tolist(),
            assoc[first].tolist(),
        )
    ]
    return np.array(rates, dtype=np.float64)[inverse]


def batch_achievable_mlp(memory: MemoryModel, window: np.ndarray) -> np.ndarray:
    """Vectorized :meth:`~repro.workloads.profile.MemoryModel.achievable_mlp`."""
    positive = np.maximum(window, 1e-300)  # the window<=0 lane is masked out
    reachable = np.maximum(1.0, memory.mlp * positive / (positive + memory.mlp_window_half))
    return np.where(window <= 0, 1.0, reachable)


def batch_ilp(profile: WorkloadProfile, window: np.ndarray) -> np.ndarray:
    """Vectorized :meth:`~repro.workloads.profile.WorkloadProfile.ilp`."""
    exposed = profile.ilp_limit * window / (window + profile.ilp_window_half)
    return np.where(window <= 0, 0.0, exposed)


class BatchIntervalModel(IntervalSimulator):
    """Interval model with a vectorized whole-batch evaluation path.

    Scalar use (``evaluate``) is inherited unchanged from
    :class:`~repro.sim.interval.IntervalSimulator`;
    :meth:`evaluate_batch` scores many configurations against one
    profile in one set of array operations.  The evaluation engine's
    dispatch (``repro.engine.pool``) detects the method and routes
    per-profile groups through it automatically.
    """

    #: The batch path produces bit-identical numbers to the scalar model
    #: (asserted by the differential suite), so it deliberately shares
    #: the scalar simulator's cache identity: cached results interop in
    #: both directions and run signatures/checkpoints are unchanged.  If
    #: the two paths ever diverge, remove this attribute (and bump
    #: ``cache_version``) so their caches separate.
    cache_identity = (
        f"{IntervalSimulator.__module__}.{IntervalSimulator.__qualname__}"
    )

    def evaluate_batch(
        self, profile: WorkloadProfile, configs: Sequence[Any]
    ) -> list[SimResult]:
        """Evaluate every configuration in ``configs`` against ``profile``.

        Returns one :class:`~repro.sim.metrics.SimResult` per input, in
        input order, each bit-identical to
        ``IntervalSimulator().evaluate(profile, config)``.
        """
        configs = list(configs)
        if not configs:
            return []
        cols = ConfigColumns(configs)
        arrays = self._evaluate_arrays(profile, cols)
        base = arrays["cpi_base"] + arrays["cpi_replay"]
        branch = arrays["cpi_branch"]
        l2 = arrays["cpi_l2"]
        memory = arrays["cpi_memory"]
        # Same association as ``CpiStack.total`` and the scalar
        # ``stack.total * N``, so cycles stay bit-identical.
        cycles = (((base + branch) + l2) + memory) * _NOMINAL_INSTRUCTIONS
        name = profile.name
        results: list[SimResult] = []
        # The frozen dataclasses' ``__post_init__`` checks, vectorized.
        # When they all pass (the only reachable case — the model raises
        # on untenable inputs before this point), results are assembled
        # without re-running per-instance validation; otherwise fall
        # back to normal construction so the exact scalar exception
        # surfaces.
        valid = not (
            np.any(base <= 0)
            or np.any(branch < 0)
            or np.any(l2 < 0)
            or np.any(memory < 0)
            or np.any(cycles <= 0)
            or np.any(cols.clock_period_ns <= 0)
        )
        rows = zip(
            base.tolist(),
            branch.tolist(),
            l2.tolist(),
            memory.tolist(),
            cycles.tolist(),
            cols.clock_period_ns.tolist(),
            arrays["window"].tolist(),
            arrays["ipc_base"].tolist(),
            arrays["miss1"].tolist(),
            arrays["miss2"].tolist(),
        )
        if valid:
            new, set_dict = object.__new__, object.__setattr__
            for b, br, l2c, mem, cyc, clk, win, ipc0, m1, m2 in rows:
                stack = new(CpiStack)
                set_dict(
                    stack,
                    "__dict__",
                    {"base": b, "branch": br, "l2_access": l2c, "memory": mem},
                )
                result = new(SimResult)
                set_dict(
                    result,
                    "__dict__",
                    {
                        "workload": name,
                        "instructions": _NOMINAL_INSTRUCTIONS,
                        "cycles": cyc,
                        "clock_period_ns": clk,
                        "cpi_stack": stack,
                        "detail": {
                            "window": win,
                            "ipc_base": ipc0,
                            "l1_miss_rate": m1,
                            "l2_global_miss_rate": m2,
                        },
                    },
                )
                results.append(result)
        else:
            for b, br, l2c, mem, cyc, clk, win, ipc0, m1, m2 in rows:
                results.append(
                    SimResult(
                        workload=name,
                        instructions=_NOMINAL_INSTRUCTIONS,
                        cycles=cyc,
                        clock_period_ns=clk,
                        cpi_stack=CpiStack(
                            base=b, branch=br, l2_access=l2c, memory=mem
                        ),
                        detail={
                            "window": win,
                            "ipc_base": ipc0,
                            "l1_miss_rate": m1,
                            "l2_global_miss_rate": m2,
                        },
                    )
                )
        return results

    def ipt_batch(
        self, profile: WorkloadProfile, configs: Sequence[Any]
    ) -> np.ndarray:
        """The IPT of every configuration, as one float64 array.

        The array-only variant of :meth:`evaluate_batch` for callers
        that need scores, not full results (benchmarks, screening).
        """
        configs = list(configs)
        if not configs:
            return np.empty(0, dtype=np.float64)
        cols = ConfigColumns(configs)
        arrays = self._evaluate_arrays(profile, cols)
        # Mirror SimResult.ipt's exact op order (total -> cycles -> ipc
        # -> ipt) rather than the algebraic 1/(total*clock), so scores
        # stay bit-identical to the materialized results.
        total = (
            (arrays["cpi_base"] + arrays["cpi_replay"])
            + arrays["cpi_branch"]
            + arrays["cpi_l2"]
            + arrays["cpi_memory"]
        )
        cycles = total * _NOMINAL_INSTRUCTIONS
        ipc = _NOMINAL_INSTRUCTIONS / cycles
        return ipc / cols.clock_period_ns

    # ------------------------------------------------------------------
    # column-wise model terms (each mirrors its scalar namesake)
    # ------------------------------------------------------------------

    def _evaluate_arrays(
        self, profile: WorkloadProfile, cols: ConfigColumns
    ) -> dict[str, np.ndarray]:
        """Every CPI term for the whole batch, as float64 columns."""
        window = self._effective_window(profile, cols)
        ipc_base = self._base_issue_rate(profile, cols, window)
        miss1 = batch_miss_rate(
            profile.memory, cols.l1_capacity, cols.l1_block, cols.l1_assoc
        )
        miss2 = batch_miss_rate(
            profile.memory, cols.l2_capacity, cols.l2_block, cols.l2_assoc
        )
        return {
            "window": window,
            "ipc_base": ipc_base,
            "miss1": miss1,
            "miss2": miss2,
            "cpi_base": 1.0 / ipc_base,
            "cpi_branch": self._branch_cpi(profile, cols, window),
            "cpi_l2": self._l2_access_cpi(profile, cols, window, ipc_base, miss1, miss2),
            "cpi_memory": self._memory_cpi(profile, cols, window, miss2),
            "cpi_replay": self._replay_cpi(profile, cols, miss1),
        }

    @staticmethod
    def _effective_window(profile: WorkloadProfile, cols: ConfigColumns) -> np.ndarray:
        mem_frac = max(profile.mix.memory, 1e-6)
        window = np.minimum(
            np.minimum(
                cols.rob_size.astype(np.float64), _IQ_WINDOW_FACTOR * cols.iq_size
            ),
            cols.lsq_size / mem_frac,
        )
        if cols.inorder.any():  # pure-ooo batches skip the extra min
            window = np.where(
                cols.inorder,
                np.minimum(window, _INORDER_WINDOW_FACTOR * cols.width),
                window,
            )
        return window

    @staticmethod
    def _chain_stretch(profile: WorkloadProfile, cols: ConfigColumns) -> np.ndarray:
        lw = cols.wakeup_latency
        wakeup = profile.dependence_density * (lw + 0.25 * lw * lw)
        load_use = (
            profile.mix.load
            * profile.load_use_fraction
            * np.maximum(0, cols.l1_latency - 1)
        )
        return 1.0 + wakeup + load_use

    @staticmethod
    def _fetch_rate(profile: WorkloadProfile, cols: ConfigColumns) -> np.ndarray:
        taken_per_instr = profile.mix.branch * profile.branch.taken_rate
        if taken_per_instr <= 0:
            return cols.width.astype(np.float64)
        run = 1.0 / taken_per_instr
        return run * (1.0 - _libm_pow(1.0 - 1.0 / run, cols.width.astype(np.float64)))

    def _base_issue_rate(
        self, profile: WorkloadProfile, cols: ConfigColumns, window: np.ndarray
    ) -> np.ndarray:
        ilp = batch_ilp(profile, window) / self._chain_stretch(profile, cols)
        rate = np.minimum(
            np.minimum(cols.width.astype(np.float64), self._fetch_rate(profile, cols)),
            ilp,
        )
        if np.any(rate <= 0):
            raise ConfigurationError(
                f"configuration yields non-positive issue rate for {profile.name}"
            )
        return rate

    @staticmethod
    def _branch_cpi(
        profile: WorkloadProfile, cols: ConfigColumns, window: np.ndarray
    ) -> np.ndarray:
        events = profile.mix.branch * profile.branch.misp_rate
        penalty = (
            cols.frontend_stages
            + cols.scheduler_depth
            + cols.wakeup_latency
            + _BRANCH_RESOLVE_CYCLES
            + window / (4.0 * cols.width)
        )
        return events * penalty

    @staticmethod
    def _l2_access_cpi(
        profile: WorkloadProfile,
        cols: ConfigColumns,
        window: np.ndarray,
        ipc_base: np.ndarray,
        miss1: np.ndarray,
        miss2: np.ndarray,
    ) -> np.ndarray:
        events = profile.mix.load * np.maximum(0.0, miss1 - miss2)
        latency = cols.l1_latency + cols.l2_latency
        hiding = window / ipc_base
        visible = latency * latency / (latency + hiding)
        occupancy = _L2_SERVICE_FRACTION * cols.l2_latency
        return np.where(events > 0, events * (visible + occupancy), 0.0)

    @staticmethod
    def _memory_cpi(
        profile: WorkloadProfile,
        cols: ConfigColumns,
        window: np.ndarray,
        miss2: np.ndarray,
    ) -> np.ndarray:
        events = profile.mix.load * miss2
        mem_window = np.minimum(
            cols.rob_size.astype(np.float64),
            cols.lsq_size / max(profile.mix.memory, 1e-6),
        )
        if cols.inorder.any():
            mem_window = np.where(
                cols.inorder,
                np.minimum(mem_window, _INORDER_WINDOW_FACTOR * cols.width),
                mem_window,
            )
        misses_in_window = events * mem_window
        mlp = np.maximum(
            1.0,
            np.minimum(batch_achievable_mlp(profile.memory, mem_window), misses_in_window),
        )
        service = _MEMORY_SERVICE_NS / cols.clock_period_ns
        return np.where(
            events > 0, events * (cols.memory_cycles / mlp + service), 0.0
        )

    @staticmethod
    def _replay_cpi(
        profile: WorkloadProfile, cols: ConfigColumns, miss1: np.ndarray
    ) -> np.ndarray:
        events = profile.mix.load * miss1
        depth = cols.scheduler_depth - 1 + cols.wakeup_latency
        cpi = events * depth * _REPLAY_FACTOR
        if cols.inorder.any():  # in-order cores never replay
            cpi = np.where(cols.inorder, 0.0, cpi)
        return cpi
