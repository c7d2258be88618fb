"""Content-addressed cache of simulation results.

The exploration workloads are pathologically repetitive: cross-seeding
re-evaluates every (workload, donor-configuration) pair that the final
Table-5 matrix fill then evaluates *again*, and every re-run of a
deterministic pipeline re-simulates the identical evaluation stream.
:class:`ResultCache` eliminates that waste by keying each
:class:`~repro.sim.metrics.SimResult` under its request's content hash
(:func:`repro.engine.keys.evaluation_key`).

Two tiers:

* an in-memory LRU front (bounded — annealing streams are mostly-unique,
  so an unbounded dict would grow without benefit);
* an optional persistent :class:`~repro.engine.cache_backends.CacheBackend`
  behind it, so a cache survives processes and can be *shared* — across
  runs (``--cache-dir``), across pool workers, and across `repro serve`
  replicas pointing at one store.  The default backend is the historical
  SQLite file (now WAL-journaled and busy-tolerant, safe for concurrent
  sibling processes); the ``memory`` and ``http:`` backends register in
  :mod:`repro.engine.cache_backends`.

The cache is strictly *content*-addressed: a hit is bit-identical to the
simulation it replaces (see :mod:`repro.engine.serialize`), so cached and
uncached runs produce the same numbers.

The disk tier defends itself: every row carries a SHA-256 checksum of
its payload, verified on load.  A row that fails its checksum (or no
longer parses) is *quarantined* — deleted, counted, reported through the
owner's ``on_quarantine`` hook — and treated as a miss, so the entry is
simply re-simulated.  A store corrupt beyond the backend's tolerance
is moved aside (``<file>.corrupt``) and the cache continues memory-only.
A bad cache can cost time; it can never crash a run or alter a result.

Unavailable storage is not corruption: a backend raising
:class:`~repro.engine.cache_backends.CacheUnavailable` (disk full,
read-only filesystem, a sibling holding the database lock past the busy
budget) *degrades* the cache — the intact store is left in place, the
handle is closed, the ``on_degrade`` hook is notified, and the cache
continues memory-only.  The next run (with space again) picks the store
back up.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..errors import EngineError
from ..sim.metrics import SimResult
from .cache_backends import (
    CacheBackend,
    CacheCorruption,
    CacheUnavailable,
    SQLiteBackend,
)
from .serialize import decode_row, encode_row

#: Default bound on the in-memory tier.
DEFAULT_MEMORY_ENTRIES = 65_536


def _checksum(value: str) -> str:
    """Row checksum: SHA-256 of the serialized payload (hex, truncated)."""
    return hashlib.sha256(value.encode("utf-8")).hexdigest()[:16]


@dataclass
class CacheStats:
    """Hit/miss/store counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    disk_hits: int = 0
    evictions: int = 0
    quarantined: int = 0
    degradations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> dict[str, int]:
        """Counter values as a plain dict (for delta accounting)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
            "quarantined": self.quarantined,
            "degradations": self.degradations,
        }


@dataclass
class ResultCache:
    """Two-tier (memory + optional persistent) store of :class:`SimResult`.

    Parameters
    ----------
    path:
        SQLite file for the persistent tier; ``None`` keeps the cache
        memory-only.  Parent directories are created on demand.  This is
        shorthand for ``backend=SQLiteBackend(path)``.
    max_memory_entries:
        LRU bound of the memory tier (``0`` disables the bound).
    backend:
        An explicit :class:`CacheBackend` for the persistent tier
        (mutually exclusive with ``path``).  Build one from a spec
        string with :func:`repro.engine.cache_backends.make_backend`.
    """

    path: str | Path | None = None
    max_memory_entries: int = DEFAULT_MEMORY_ENTRIES
    stats: CacheStats = field(default_factory=CacheStats)
    backend: CacheBackend | None = None

    def __post_init__(self) -> None:
        if self.max_memory_entries < 0:
            raise EngineError(
                f"max_memory_entries cannot be negative: {self.max_memory_entries}"
            )
        if self.path is not None and self.backend is not None:
            raise EngineError("pass either path or backend, not both")
        self._memory: OrderedDict[str, SimResult] = OrderedDict()
        #: Called as ``on_quarantine(key_or_path, reason)`` whenever
        #: corrupt disk state is isolated (the engine wires this to its
        #: event bus).  ``"*"`` means the whole store.
        self.on_quarantine: Callable[[str, str], None] | None = None
        #: Called as ``on_degrade(reason)`` when the disk tier is dropped
        #: because storage became unavailable (disk full, read-only fs);
        #: the store itself is left intact.
        self.on_degrade: Callable[[str], None] | None = None
        if self.path is not None:
            self.path = Path(self.path)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            try:
                self.backend = SQLiteBackend(self.path)
            except CacheUnavailable as exc:
                self.backend = None
                self._degrade(str(exc))
            except CacheCorruption as exc:
                self.backend = None
                self._quarantine_store_file(self.path, str(exc))
        elif self.backend is not None and not self.backend.persistent:
            # A memory backend is just a second dict behind the LRU; the
            # cache treats it as "no persistent tier" for stats purposes
            # but still writes through, so conformance semantics hold.
            pass
        if self.backend is not None and self.path is None:
            self.path = self.backend.location

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------

    def get(self, key: str) -> SimResult | None:
        """The cached result for ``key``, or ``None`` (counts a miss).

        Backend rows are integrity-checked on load: a checksum mismatch
        or unparseable payload quarantines the row (it is deleted and
        reported, never returned) and the lookup counts as a miss.
        """
        hit = self._memory.get(key)
        if hit is not None:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            return hit
        if self.backend is not None:
            try:
                row = self.backend.get(key)
            except CacheUnavailable as exc:
                self._degrade(str(exc))
                row = None
            except CacheCorruption as exc:
                self._quarantine_store(str(exc))
                row = None
            if row is not None:
                value, checksum = row
                if checksum is not None and checksum != _checksum(value):
                    self._quarantine_row(key, "checksum mismatch")
                else:
                    try:
                        result = decode_row(value)
                    except EngineError as exc:
                        self._quarantine_row(key, f"unparseable payload ({exc})")
                    else:
                        self._remember(key, result, store=False)
                        self.stats.hits += 1
                        self.stats.disk_hits += 1
                        return result
        self.stats.misses += 1
        return None

    def put(self, key: str, result: SimResult) -> None:
        """Store one result under its content key (write-through to the
        backend, which may buffer it until its next flush)."""
        self._remember(key, result, store=True)
        self.stats.stores += 1

    def _remember(self, key: str, result: SimResult, store: bool) -> None:
        self._memory[key] = result
        self._memory.move_to_end(key)
        if self.max_memory_entries and len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1
        if store and self.backend is not None:
            value = encode_row(result)
            try:
                self.backend.put(key, value, _checksum(value))
            except CacheUnavailable as exc:
                self._degrade(str(exc))
            except CacheCorruption as exc:
                self._quarantine_store(str(exc))

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------

    def _degrade(self, reason: str) -> None:
        """Drop the disk tier but keep its (intact) store; go memory-only."""
        if self.backend is not None:
            try:
                self.backend.close()
            except (CacheUnavailable, CacheCorruption):
                pass
            self.backend = None
        self.stats.degradations += 1
        if self.on_degrade is not None:
            self.on_degrade(reason)

    def _report_quarantine(self, what: str, reason: str) -> None:
        self.stats.quarantined += 1
        if self.on_quarantine is not None:
            self.on_quarantine(what, reason)

    def _quarantine_row(self, key: str, reason: str) -> None:
        """Delete one corrupt row and carry on (the caller re-simulates)."""
        if self.backend is not None:
            try:
                self.backend.delete(key)
            except CacheUnavailable as exc:
                self._degrade(str(exc))
                return
            except CacheCorruption as exc:
                self._quarantine_store(f"{exc} (during row quarantine)")
                return
        self._report_quarantine(key, reason)

    def _quarantine_store(self, reason: str) -> None:
        """Move a corrupt store aside and continue memory-only."""
        backend, self.backend = self.backend, None
        if backend is not None:
            backend.quarantine()
        self._report_quarantine("*", reason)

    def _quarantine_store_file(self, path: Path, reason: str) -> None:
        """Quarantine a store whose backend never finished constructing."""
        from .resilience import quarantine_file

        quarantine_file(path)
        self._report_quarantine("*", reason)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def flush(self) -> None:
        """Make accepted writes visible to other readers of the store."""
        if self.backend is not None:
            try:
                self.backend.flush()
            except CacheUnavailable as exc:
                self._degrade(str(exc))
            except CacheCorruption as exc:
                self._quarantine_store(str(exc))

    def close(self) -> None:
        """Flush and release the disk handle (memory tier survives)."""
        self.flush()  # a failed write degrades (and reports) here
        if self.backend is not None:
            self.backend.close()
            self.backend = None

    def clear(self) -> None:
        """Drop every entry from both tiers."""
        self._memory.clear()
        if self.backend is not None:
            try:
                self.backend.clear()
            except CacheUnavailable as exc:
                self._degrade(str(exc))
            except CacheCorruption as exc:
                self._quarantine_store(str(exc))

    def __len__(self) -> int:
        """Number of distinct keys (persistent tier included when present)."""
        if self.backend is None:
            return len(self._memory)
        try:
            self.flush()
            if self.backend is None:  # flush may have degraded the tier
                return len(self._memory)
            return len(self.backend)
        except CacheUnavailable as exc:
            self._degrade(str(exc))
            return len(self._memory)
        except CacheCorruption as exc:
            self._quarantine_store(str(exc))
            return len(self._memory)

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        if self.backend is None:
            return False
        try:
            return key in self.backend
        except (CacheUnavailable, CacheCorruption):
            return False

    def __del__(self) -> None:  # best-effort flush on GC
        try:
            self.close()
        except Exception:
            pass

    # Caches never travel across process boundaries with their disk
    # handle: a pickled copy (sent to a worker) starts memory-only and
    # empty, so workers cannot corrupt the parent's store.
    def __getstate__(self) -> dict:
        return {"max_memory_entries": self.max_memory_entries}

    def __setstate__(self, state: dict) -> None:
        self.path = None
        self.max_memory_entries = state["max_memory_entries"]
        self.stats = CacheStats()
        self.backend = None
        self._memory = OrderedDict()
        self.on_quarantine = None
        self.on_degrade = None
