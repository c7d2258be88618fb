"""Encodings of simulation inputs and outputs.

The checkpoint files store plain JSON, so the core value types —
:class:`~repro.sim.metrics.SimResult` (with its
:class:`~repro.sim.metrics.CpiStack`) and
:class:`~repro.uarch.config.CoreConfig` (with its
:class:`~repro.uarch.config.CacheGeometry`) — need faithful round-trip
encoders.  Floats survive exactly (JSON carries full ``repr`` precision),
so a decoded :class:`SimResult` reports bit-identical IPT.

Every payload carries a ``"__kind__"`` tag and the encoding version;
:func:`simresult_from_jsonable` / :func:`config_from_jsonable` refuse
payloads they do not recognize rather than guessing.

Result-store rows go through :func:`encode_row` / :func:`decode_row`.
The interval models' result shape (an ``int`` instruction count, a CPI
stack and the four interval ``detail`` floats) is packed into one
fixed-width struct, base64 text behind :data:`PACKED_TAG`, followed by
the workload name; every other shape is stored as the compact JSON of
:func:`simresult_to_jsonable`.  A row stays a ``str`` either way, so
backends, checksums and the ``/v1/cache`` wire do not care which it is,
and stores written in the JSON form stay readable.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from binascii import a2b_base64, b2a_base64
from typing import TYPE_CHECKING, Any, Mapping

from ..errors import EngineError, ReproError
from ..sim.metrics import CpiStack, SimResult
from ..uarch.config import CacheGeometry, CoreConfig

if TYPE_CHECKING:
    from ..search.base import SearchResult

#: Bump when the serialized shape changes incompatibly.
FORMAT_VERSION = 1


def _require(payload: Mapping[str, Any], kind: str) -> Mapping[str, Any]:
    if not isinstance(payload, Mapping):
        raise EngineError(f"expected a mapping for {kind}, got {type(payload).__name__}")
    if payload.get("__kind__") != kind:
        raise EngineError(f"payload is not a serialized {kind}: {payload.get('__kind__')!r}")
    if payload.get("__version__") != FORMAT_VERSION:
        raise EngineError(
            f"unsupported {kind} format version {payload.get('__version__')!r}"
        )
    return payload


# ----------------------------------------------------------------------
# CoreConfig
# ----------------------------------------------------------------------


def _geometry_to_jsonable(geometry: CacheGeometry) -> dict[str, Any]:
    return {
        "nsets": geometry.nsets,
        "assoc": geometry.assoc,
        "block_bytes": geometry.block_bytes,
        "latency_cycles": geometry.latency_cycles,
    }


def config_to_jsonable(config: CoreConfig) -> dict[str, Any]:
    """Encode a :class:`CoreConfig` as plain JSON types."""
    return {
        "__kind__": "CoreConfig",
        "__version__": FORMAT_VERSION,
        "clock_period_ns": config.clock_period_ns,
        "width": config.width,
        "rob_size": config.rob_size,
        "iq_size": config.iq_size,
        "lsq_size": config.lsq_size,
        "wakeup_latency": config.wakeup_latency,
        "scheduler_depth": config.scheduler_depth,
        "lsq_depth": config.lsq_depth,
        "frontend_stages": config.frontend_stages,
        "memory_cycles": config.memory_cycles,
        "l1": _geometry_to_jsonable(config.l1),
        "l2": _geometry_to_jsonable(config.l2),
        "core_type": config.core_type,
    }


def config_from_jsonable(payload: Mapping[str, Any]) -> CoreConfig:
    """Decode a :func:`config_to_jsonable` payload (validation re-runs)."""
    data = dict(_require(payload, "CoreConfig"))
    data.pop("__kind__")
    data.pop("__version__")
    try:
        data["l1"] = CacheGeometry(**data["l1"])
        data["l2"] = CacheGeometry(**data["l2"])
        return CoreConfig(**data)
    except (KeyError, TypeError) as exc:
        raise EngineError(f"malformed CoreConfig payload: {exc}") from exc


# ----------------------------------------------------------------------
# SearchResult
# ----------------------------------------------------------------------


def search_result_to_jsonable(result: SearchResult) -> dict[str, Any]:
    """Encode a search over configurations (checkpoints of suites and sweeps).

    Untagged, unlike the value types: the seven keys are the shape every
    checkpoint has stored since the search result was first persisted.
    """
    return {
        "best_state": config_to_jsonable(result.best_state),
        "best_score": result.best_score,
        "evaluations": result.evaluations,
        "accepted": result.accepted,
        "rollbacks": result.rollbacks,
        "history": list(result.history),
        "stop_reason": result.stop_reason,
    }


def search_result_from_jsonable(payload: Mapping[str, Any]) -> SearchResult:
    """Inverse of :func:`search_result_to_jsonable` (bit-exact floats)."""
    from ..search.base import SearchResult  # lazy: the search layer imports the engine

    return SearchResult(
        best_state=config_from_jsonable(payload["best_state"]),
        best_score=payload["best_score"],
        evaluations=payload["evaluations"],
        accepted=payload["accepted"],
        rollbacks=payload["rollbacks"],
        history=list(payload["history"]),
        stop_reason=payload.get("stop_reason"),
    )


# ----------------------------------------------------------------------
# SimResult
# ----------------------------------------------------------------------


def simresult_to_jsonable(result: SimResult) -> dict[str, Any]:
    """Encode a :class:`SimResult` (including its CPI stack and detail)."""
    stack = result.cpi_stack
    return {
        "__kind__": "SimResult",
        "__version__": FORMAT_VERSION,
        "workload": result.workload,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "clock_period_ns": result.clock_period_ns,
        "cpi_stack": None
        if stack is None
        else {
            "base": stack.base,
            "branch": stack.branch,
            "l2_access": stack.l2_access,
            "memory": stack.memory,
        },
        "detail": dict(result.detail),
    }


def simresult_from_jsonable(payload: Mapping[str, Any]) -> SimResult:
    """Decode a :func:`simresult_to_jsonable` payload bit-exactly."""
    data = _require(payload, "SimResult")
    stack_data = data.get("cpi_stack")
    try:
        return SimResult(
            workload=data["workload"],
            instructions=data["instructions"],
            cycles=data["cycles"],
            clock_period_ns=data["clock_period_ns"],
            cpi_stack=None if stack_data is None else CpiStack(**stack_data),
            detail=dict(data.get("detail", {})),
        )
    except (KeyError, TypeError) as exc:
        raise EngineError(f"malformed SimResult payload: {exc}") from exc


# ----------------------------------------------------------------------
# Result-store rows
# ----------------------------------------------------------------------

#: First character of a packed row; no JSON text starts with it.
PACKED_TAG = "~"

#: instructions, cycles, clock period, the 4 CPI-stack terms, then the
#: 4 interval ``detail`` values in :data:`_DETAIL_KEYS` order.
_ROW = struct.Struct("<qdd4d4d")
_DETAIL_KEYS = ("window", "ipc_base", "l1_miss_rate", "l2_global_miss_rate")
#: Base64 of ``_ROW`` (padding included); the workload name follows it.
_NAME_START = 1 + len(b2a_base64(bytes(_ROW.size), newline=False))
_NORMAL_MIN = sys.float_info.min
_FINITE_MAX = sys.float_info.max


def encode_row(result: SimResult) -> str:
    """One result-store row for ``result``.

    Packed when the result has the interval models' shape and every
    float is ``+0.0`` or a finite normal number; JSON otherwise (cycle
    simulator detail, no CPI stack, ``int`` values, a non-ASCII workload
    name, ``-0.0``, subnormals, ``inf``, ``nan``).
    """
    stack = result.cpi_stack
    detail = result.detail
    workload = result.workload
    instructions = result.instructions
    if (
        stack is not None
        and tuple(detail) == _DETAIL_KEYS
        and type(instructions) is int
        and workload.isascii()
    ):
        values = (
            result.cycles,
            result.clock_period_ns,
            stack.base,
            stack.branch,
            stack.l2_access,
            stack.memory,
            *detail.values(),
        )
        if all(
            type(v) is float
            and (
                _NORMAL_MIN <= abs(v) <= _FINITE_MAX
                or (v == 0.0 and math.copysign(1.0, v) > 0.0)
            )
            for v in values
        ):
            try:
                packed = _ROW.pack(instructions, *values)
            except struct.error:  # an instruction count beyond int64
                pass
            else:
                text = b2a_base64(packed, newline=False).decode("ascii")
                return PACKED_TAG + text + workload
    return json.dumps(simresult_to_jsonable(result), separators=(",", ":"))


def decode_row(value: str) -> SimResult:
    """The :class:`SimResult` of an :func:`encode_row` row, packed or JSON.

    Raises :class:`EngineError` for any row it cannot read back.
    """
    try:
        if value[:1] != PACKED_TAG:
            return simresult_from_jsonable(json.loads(value))
        (
            instructions,
            cycles,
            clock_period_ns,
            base,
            branch,
            l2_access,
            memory,
            *detail,
        ) = _ROW.unpack(a2b_base64(value[1:_NAME_START]))
        return SimResult(
            workload=value[_NAME_START:],
            instructions=instructions,
            cycles=cycles,
            clock_period_ns=clock_period_ns,
            cpi_stack=CpiStack(base, branch, l2_access, memory),
            detail=dict(zip(_DETAIL_KEYS, detail)),
        )
    except EngineError:
        raise
    except (ValueError, ReproError, struct.error) as exc:
        raise EngineError(f"unreadable result row ({exc})") from exc
