"""Deterministic content hashing for evaluation requests.

The result cache and the checkpoint/resume machinery both need a stable
identity for "this exact simulation": the same ``(WorkloadProfile,
CoreConfig, technology, simulator)`` tuple must map to the same key in
every process, on every run, on every machine.  Python's built-in
``hash`` is salted per process and ``repr`` is not guaranteed stable, so
keys are derived instead from a *canonical encoding*:

* dataclasses become ``{"__type__": qualified-name, **fields}`` with the
  fields recursively encoded;
* floats are encoded through ``repr`` (the shortest round-tripping
  form — bit-exact and stable across platforms for IEEE doubles);
* numpy scalars are converted to their Python equivalents;
* mappings are sorted by key.

The canonical encoding is serialized as compact JSON and digested with
SHA-256.  A key therefore changes whenever *any* model input changes —
including a bump of the simulator's ``cache_version`` attribute, which is
how a simulator invalidates previously cached results after a model fix.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache
from typing import Any

from ..errors import EngineError

#: Bump when the canonical encoding itself changes (invalidates all keys).
ENCODING_VERSION = 1


def _type_name(obj: Any) -> str:
    cls = type(obj)
    return f"{cls.__module__}.{cls.__qualname__}"


#: Marks a field that always encodes (see ``__canonical_omit_defaults__``).
_ALWAYS = object()

#: Per-dataclass encoding plan: the qualified type name and, for each
#: field in declaration order, its name and either the default value
#: that omits it or ``_ALWAYS``.
_PLANS: dict[type, tuple[str, tuple[tuple[str, Any], ...]]] = {}


def _plan(cls: type) -> tuple[str, tuple[tuple[str, Any], ...]]:
    # A dataclass may list newly added fields in
    # ``__canonical_omit_defaults__``: such a field is omitted from the
    # encoding while it holds its default value, so growing a type does
    # not reshuffle the digests (cache keys, run signatures, seeded
    # fault schedules) of every value that predates the field.
    # Non-default values always encode.
    omit = getattr(cls, "__canonical_omit_defaults__", ())
    fields = tuple(
        (
            field.name,
            field.default
            if field.name in omit and field.default is not dataclasses.MISSING
            else _ALWAYS,
        )
        for field in dataclasses.fields(cls)
    )
    plan = _PLANS[cls] = (f"{cls.__module__}.{cls.__qualname__}", fields)
    return plan


def canonical(obj: Any) -> Any:
    """Recursively encode ``obj`` into a JSON-serializable canonical form."""
    cls = type(obj)
    # Exact builtin types first: they are most of every key.
    if cls is str or cls is int or obj is None:
        return obj
    if cls is float:
        return {"__float__": repr(obj)}
    if isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # float(obj) strips float subclasses (np.float64) down to the
        # plain IEEE double so their reprs don't leak the subtype name.
        return {"__float__": repr(float(obj))}
    plan = _PLANS.get(cls)
    if plan is None and dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        plan = _plan(cls)
    if plan is not None:
        name, fields = plan
        encoded: dict[str, Any] = {"__type__": name}
        for field_name, default in fields:
            value = getattr(obj, field_name)
            if default is not _ALWAYS and value == default:
                continue
            encoded[field_name] = canonical(value)
        return encoded
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    # numpy scalars (and anything else exposing .item()) normalize to
    # their Python equivalents without importing numpy here.
    item = getattr(obj, "item", None)
    if callable(item):
        try:
            return canonical(item())
        except (TypeError, ValueError):
            pass
    raise EngineError(f"cannot canonically encode {_type_name(obj)}: {obj!r}")


def digest(*parts: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of ``parts``."""
    payload = json.dumps(
        [ENCODING_VERSION, *(canonical(p) for p in parts)],
        separators=(",", ":"),
        sort_keys=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: Per-benchmark seed strides.  Exploration seeds are derived from one
#: base seed so that every (workload, refinement round, restart) gets a
#: distinct, stable RNG stream; the strides keep the derived seeds of a
#: paper-scale run (tens of workloads, a few rounds, a few restarts)
#: disjoint.  These constants — and :func:`derive_seed` — are the single
#: source of truth; xp-scalar, the clock sweep and the multi-start
#: search all derive their seeds here.
ROUND_SEED_STRIDE = 1000
RESTART_SEED_STRIDE = 7919  # the 1000th prime; far outside any round block


def derive_seed(base: int, index: int = 0, round_no: int = 0, restart: int = 0) -> int:
    """Per-benchmark RNG seed: one base seed, three disjoint dimensions.

    ``index`` is the workload's position in its suite (or a sweep's grid
    position), ``round_no`` the cross-seeding refinement round (0 for
    the initial exploration), ``restart`` the independent-restart number
    (0 for the first/only start).  Purely arithmetic — no hashing — so
    seeds stay human-readable in logs and bit-compatible with the
    pre-helper derivations scattered across the explorers.
    """
    return base + ROUND_SEED_STRIDE * round_no + index + RESTART_SEED_STRIDE * restart


def unit_draw(*parts: Any) -> float:
    """Deterministic draw in ``[0, 1)`` from a tuple of labels.

    SHA-256 of the ``|``-joined string forms of ``parts`` — the shared
    primitive behind fault-plan scheduling and retry-backoff jitter: no
    global RNG state is consumed, and the same parts draw the same unit
    in every process on every platform.
    """
    payload = "|".join(str(part) for part in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big") / 2**64


def simulator_id(simulator: Any) -> str:
    """Stable identity of a simulator: qualified class name + cache version.

    Simulators may declare a ``cache_version`` class attribute; bumping it
    invalidates every cached result produced by earlier versions.  A
    simulator that is *bit-identical* to another implementation may
    declare ``cache_identity`` (a qualified class name) to share that
    implementation's cache entries — e.g. the vectorized
    ``BatchIntervalModel`` interoperates with scalar
    ``IntervalSimulator`` results because the differential suite proves
    their numbers equal.
    """
    identity = getattr(simulator, "cache_identity", None) or _type_name(simulator)
    return f"{identity}@{getattr(simulator, 'cache_version', 0)}"


@lru_cache(maxsize=512)
def _profile_digest(profile: Any) -> str:
    """Digest of one workload profile (memoized — profiles are few and
    frozen, and re-encoding one on every annealing step would dominate
    the key cost)."""
    return digest(profile)


def evaluation_key(
    profile: Any,
    config: Any,
    simulator: str = "",
    context: str = "",
) -> str:
    """Content key of one ``(workload, configuration)`` evaluation.

    ``simulator`` is a :func:`simulator_id` string; ``context`` carries
    any additional identity the caller wants folded in (the technology
    node's digest, typically).  Both are plain strings so callers can
    pre-compute them once per engine rather than per evaluation.
    """
    try:
        profile_part = _profile_digest(profile)
    except TypeError:  # unhashable profile subtype: skip memoization
        profile_part = digest(profile)
    return digest(profile_part, config, simulator, context)
