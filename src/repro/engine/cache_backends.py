"""Pluggable persistent backends for the result cache.

:class:`~repro.engine.cache.ResultCache` used to *be* its SQLite tier;
this module splits the storage policy out into a :class:`CacheBackend`
interface so N pool workers and M service replicas can share one result
store — the seam a networked backend plugs into later.  Three
implementations ship:

* :class:`MemoryBackend` — a plain dict; the explicit spelling of
  "no persistence" (``memory``);
* :class:`SQLiteBackend` — the historical SQLite file, now safe for
  concurrent multi-process access: WAL journaling, a ``busy_timeout``,
  and retry-on-``SQLITE_BUSY`` so a database locked by a sibling
  process degrades to a *wait* instead of losing the disk tier; rows
  are written in group commits (``sqlite:<file>``);
* :class:`DirectoryBackend` — one file per key under a fan-out
  directory, written atomically (write-temp + rename), so concurrent
  writers on any shared filesystem never tear each other's entries
  (``file:<dir>``).

Backends speak rows of ``(value, checksum)`` strings; integrity
checking, parsing and the memory LRU stay in :class:`ResultCache`,
which owns *policy* while backends own *storage*.  Backends report
trouble through two exception flavours the cache maps onto its existing
degrade/quarantine split:

* :class:`CacheUnavailable` — storage is sick (disk full, read-only,
  still locked after the busy budget): the store's file is intact, the
  cache should drop the tier and continue memory-only;
* :class:`CacheCorruption` — the store itself is damaged: the cache
  should quarantine it (move it aside) and continue memory-only.

New backends register with :func:`register_backend` and are constructed
from a ``scheme:location`` spec via :func:`make_backend` (the
``--cache-backend`` CLI flag).
"""

from __future__ import annotations

import abc
import contextlib
import http.client
import json
import os
import socket
import sqlite3
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, ClassVar, Iterator
from urllib.parse import quote, urlsplit

from ..errors import EngineError
from .resilience import CircuitBreaker, RetryPolicy, quarantine_file
from .telemetry import TRACEPARENT_HEADER, current_trace

#: One stored row: the serialized payload and its (optional) checksum.
Row = "tuple[str, str | None]"


class CacheBackendError(EngineError):
    """A cache backend failed (see the two subclasses for how to react)."""


class CacheUnavailable(CacheBackendError):
    """Storage went away (full/read-only/locked-out); the store file is
    intact — degrade to memory-only, do not quarantine."""


class CacheCorruption(CacheBackendError):
    """The store itself is damaged — quarantine it and continue."""


#: Error-message fragments that mean "storage unavailable", not
#: "database corrupt" — these must never quarantine a healthy file.
STORAGE_MESSAGES = (
    "disk is full",
    "database or disk is full",
    "readonly database",
    "read-only",
    "disk i/o error",
    "unable to open database",
)

#: Rows a :class:`SQLiteBackend` buffers before it writes them as one group.
GROUP_COMMIT_ROWS = 256

#: Error-message fragments that mean "locked by a sibling" — retryable.
BUSY_MESSAGES = ("database is locked", "database is busy", "database table is locked")


class CacheBackend(abc.ABC):
    """One persistent key/value store behind a :class:`ResultCache`.

    Subclasses set ``scheme`` (the ``make_backend`` spelling) and
    ``persistent`` (False only for the memory backend), and implement
    the row operations.  All methods may raise :class:`CacheUnavailable`
    or :class:`CacheCorruption`; they must never raise anything else on
    storage trouble.
    """

    scheme: ClassVar[str] = "?"
    persistent: ClassVar[bool] = True

    #: Where the store lives on disk (``None`` for memory).
    location: Path | None = None

    @classmethod
    @abc.abstractmethod
    def from_spec(cls, location: str) -> "CacheBackend":
        """Construct from the part of the spec after ``scheme:``."""

    @abc.abstractmethod
    def get(self, key: str) -> tuple[str, str | None] | None:
        """The stored ``(value, checksum)`` row for ``key``, or ``None``."""

    @abc.abstractmethod
    def put(self, key: str, value: str, checksum: str | None) -> None:
        """Store one row (last write wins)."""

    @abc.abstractmethod
    def delete(self, key: str) -> None:
        """Remove one row (no-op when absent)."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of stored rows."""

    @abc.abstractmethod
    def __contains__(self, key: str) -> bool: ...

    @abc.abstractmethod
    def clear(self) -> None:
        """Drop every row."""

    def keys(self) -> Iterator[str]:  # pragma: no cover - optional
        raise NotImplementedError

    def flush(self) -> None:
        """Make every accepted write visible to other readers."""

    def close(self) -> None:
        """Flush and release any handles (idempotent)."""

    def quarantine(self) -> None:
        """Move the damaged store aside (``<name>.corrupt``) and close."""
        self.close()
        if self.location is not None:
            quarantine_file(self.location)

    def describe(self) -> str:
        target = str(self.location) if self.location is not None else "-"
        return f"{self.scheme}:{target}"


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------

_BACKENDS: dict[str, type[CacheBackend]] = {}


def register_backend(cls: type[CacheBackend]) -> type[CacheBackend]:
    """Class decorator: make ``cls`` constructible via :func:`make_backend`."""
    scheme = cls.scheme
    if not scheme or scheme == "?":
        raise EngineError(f"backend {cls.__name__} must set a scheme")
    existing = _BACKENDS.get(scheme)
    if existing is not None and existing is not cls:
        raise EngineError(
            f"cache backend scheme {scheme!r} already registered by "
            f"{existing.__name__}"
        )
    _BACKENDS[scheme] = cls
    return cls


def backend_names() -> list[str]:
    """Every registered backend scheme, in registration order."""
    return list(_BACKENDS)


def make_backend(spec: str | Path) -> CacheBackend:
    """Construct a backend from a ``scheme:location`` spec.

    ``memory`` needs no location; ``sqlite:<file>`` and ``file:<dir>``
    do.  A bare path (no scheme) is read as ``sqlite:<path>`` — the
    historical meaning of a cache file.
    """
    spec = str(spec)
    scheme, sep, location = spec.partition(":")
    if not sep:
        if scheme in _BACKENDS:
            scheme, location = spec, ""
        else:
            scheme, location = "sqlite", spec
    cls = _BACKENDS.get(scheme)
    if cls is None:
        raise EngineError(
            f"unknown cache backend {scheme!r}; known: {', '.join(_BACKENDS)}"
        )
    return cls.from_spec(location)


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------


@register_backend
class MemoryBackend(CacheBackend):
    """A plain in-process dict — the explicit "no persistence" backend.

    Useful to *name* the no-disk configuration in ``--cache-backend``
    specs and to anchor the conformance suite's baseline semantics.
    """

    scheme = "memory"
    persistent = False

    def __init__(self) -> None:
        self._rows: dict[str, tuple[str, str | None]] = {}

    @classmethod
    def from_spec(cls, location: str) -> "MemoryBackend":
        if location:
            raise EngineError("the memory backend takes no location")
        return cls()

    def get(self, key: str) -> tuple[str, str | None] | None:
        return self._rows.get(key)

    def put(self, key: str, value: str, checksum: str | None) -> None:
        self._rows[key] = (value, checksum)

    def delete(self, key: str) -> None:
        self._rows.pop(key, None)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: str) -> bool:
        return key in self._rows

    def keys(self) -> Iterator[str]:
        return iter(list(self._rows))

    def clear(self) -> None:
        self._rows.clear()


# ----------------------------------------------------------------------
# sqlite (WAL, busy-tolerant, process-safe)
# ----------------------------------------------------------------------


@register_backend
class SQLiteBackend(CacheBackend):
    """The SQLite result store, safe for concurrent siblings.

    * ``journal_mode=WAL`` — readers never block the writer and vice
      versa, so N workers and M service replicas share one file;
    * ``busy_timeout`` — a locked database makes SQLite *wait* (up to
      ``busy_timeout_s``) instead of failing immediately;
    * retry-on-busy — a lock that outlives the timeout is retried with
      a short sleep up to ``busy_retries`` times, and only then raised
      as :class:`CacheUnavailable` (degrade, never quarantine: a busy
      database is a healthy database);
    * group commits — ``put`` buffers rows (this handle's ``get`` sees
      them at once) and writes them in one short transaction when
      :data:`GROUP_COMMIT_ROWS` are pending, on :meth:`flush` and
      :meth:`close`, and before ``len``, ``in`` and :meth:`keys`.  Other
      handles see a row only after that write.  No write transaction
      stays open between calls, so a busy lock is met (and retried) at
      the write.  Rows still buffered when the process dies, or in a
      group whose write fails, are lost; evaluation is deterministic,
      so a later run simply recomputes them.

    Connections are created with ``check_same_thread=False`` and every
    operation holds an internal lock, so one backend instance may be
    driven from the service's job threads.
    """

    scheme = "sqlite"
    persistent = True

    def __init__(
        self,
        path: str | Path,
        busy_timeout_s: float = 5.0,
        busy_retries: int = 3,
    ) -> None:
        self.location = Path(path)
        self.busy_timeout_s = busy_timeout_s
        self.busy_retries = busy_retries
        self._lock = threading.RLock()
        self._conn: sqlite3.Connection | None = None
        #: Rows accepted by ``put`` and not yet written, by key.
        self._pending: dict[str, tuple[str, str | None]] = {}
        self.location.parent.mkdir(parents=True, exist_ok=True)
        self._connect()

    @classmethod
    def from_spec(cls, location: str) -> "SQLiteBackend":
        if not location:
            raise EngineError("the sqlite backend needs a file path: sqlite:<file>")
        return cls(location)

    # -- connection -----------------------------------------------------

    def _connect(self) -> None:
        """Open the store, retrying a busy database like any statement.

        Opening can meet a lock that SQLite reports at once instead of
        waiting ``busy_timeout`` out (two handles creating or switching
        a new file to WAL together); the whole open is then retried.
        """
        for attempt in range(self.busy_retries + 1):
            conn = None
            try:
                conn = sqlite3.connect(
                    self.location,
                    timeout=self.busy_timeout_s,
                    check_same_thread=False,
                )
                conn.execute(f"PRAGMA busy_timeout={int(self.busy_timeout_s * 1000)}")
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS results ("
                    "key TEXT PRIMARY KEY, value TEXT NOT NULL, checksum TEXT)"
                )
                # Databases written before checksumming existed lack the
                # column; add it in place (their rows verify as legacy).
                columns = {row[1] for row in conn.execute("PRAGMA table_info(results)")}
                if "checksum" not in columns:
                    conn.execute("ALTER TABLE results ADD COLUMN checksum TEXT")
                conn.commit()
            except sqlite3.DatabaseError as exc:
                if conn is not None:
                    conn.close()
                if self._is_busy(exc) and attempt < self.busy_retries:
                    time.sleep(0.05 * (attempt + 1))
                    continue
                raise self._classify(exc, "open") from exc
            self._conn = conn
            return

    def _classify(self, exc: sqlite3.DatabaseError, action: str) -> CacheBackendError:
        message = str(exc).lower()
        if any(fragment in message for fragment in BUSY_MESSAGES):
            return CacheUnavailable(
                f"database still locked after {self.busy_timeout_s:.1f}s "
                f"busy timeout and {self.busy_retries} retries on {action} ({exc})"
            )
        if any(fragment in message for fragment in STORAGE_MESSAGES):
            return CacheUnavailable(f"database {action} failed ({exc})")
        return CacheCorruption(f"database error on {action} ({exc})")

    def _is_busy(self, exc: sqlite3.DatabaseError) -> bool:
        message = str(exc).lower()
        return any(fragment in message for fragment in BUSY_MESSAGES)

    def _execute(
        self,
        action: str,
        sql: str,
        params: tuple | list = (),
        commit: bool = False,
        many: bool = False,
    ):
        """Run one statement under the lock, retrying SQLITE_BUSY.

        ``busy_timeout`` already makes SQLite wait; the retry loop on
        top covers locks that outlive it (a sibling mid-bulk-write).
        Exhausting the budget raises :class:`CacheUnavailable` — the
        file is healthy, just contended.  A failed write is rolled back,
        so no transaction outlives the call.
        """
        if self._conn is None:
            raise CacheUnavailable("backend is closed")
        run = self._conn.executemany if many else self._conn.execute
        with self._lock:
            for attempt in range(self.busy_retries + 1):
                try:
                    cursor = run(sql, params)
                    if commit:
                        self._conn.commit()
                    return cursor
                except sqlite3.DatabaseError as exc:
                    if commit:
                        with contextlib.suppress(sqlite3.Error):
                            self._conn.rollback()
                    if self._is_busy(exc) and attempt < self.busy_retries:
                        time.sleep(0.05 * (attempt + 1))
                        continue
                    raise self._classify(exc, action) from exc

    def _write_pending(self) -> None:
        """Write every buffered row in one transaction (group commit).

        The buffer is emptied first: a group whose write fails is
        dropped, not retried by a later call.
        """
        with self._lock:
            if not self._pending:
                return
            rows = [(key, value, checksum) for key, (value, checksum) in self._pending.items()]
            self._pending.clear()
            self._execute(
                "write",
                "INSERT OR REPLACE INTO results (key, value, checksum) VALUES (?, ?, ?)",
                rows,
                commit=True,
                many=True,
            )

    # -- rows -----------------------------------------------------------

    def get(self, key: str) -> tuple[str, str | None] | None:
        with self._lock:
            row = self._pending.get(key)
            if row is not None:
                return row
            row = self._execute(
                "read", "SELECT value, checksum FROM results WHERE key = ?", (key,)
            ).fetchone()
        return None if row is None else (row[0], row[1])

    def put(self, key: str, value: str, checksum: str | None) -> None:
        with self._lock:
            if self._conn is None:
                raise CacheUnavailable("backend is closed")
            self._pending[key] = (value, checksum)
            if len(self._pending) >= GROUP_COMMIT_ROWS:
                self._write_pending()

    def delete(self, key: str) -> None:
        with self._lock:
            self._pending.pop(key, None)
            self._execute(
                "delete", "DELETE FROM results WHERE key = ?", (key,), commit=True
            )

    def __len__(self) -> int:
        with self._lock:
            self._write_pending()
            (count,) = self._execute("count", "SELECT COUNT(*) FROM results").fetchone()
        return int(count)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            self._write_pending()
            row = self._execute(
                "read", "SELECT 1 FROM results WHERE key = ?", (key,)
            ).fetchone()
        return row is not None

    def keys(self) -> Iterator[str]:
        with self._lock:
            self._write_pending()
            rows = self._execute("read", "SELECT key FROM results ORDER BY key").fetchall()
        return iter([row[0] for row in rows])

    def clear(self) -> None:
        with self._lock:
            self._pending.clear()
            self._execute("clear", "DELETE FROM results", commit=True)

    # -- lifecycle ------------------------------------------------------

    def flush(self) -> None:
        self._write_pending()

    def close(self) -> None:
        with self._lock:
            # Best effort: a group that cannot be written now is lost,
            # like one still buffered at a crash.
            with contextlib.suppress(CacheBackendError):
                self._write_pending()
            conn, self._conn = self._conn, None
            if conn is not None:
                try:
                    conn.commit()
                    conn.close()
                except sqlite3.Error:
                    try:
                        conn.close()
                    except sqlite3.Error:
                        pass


# ----------------------------------------------------------------------
# directory of files
# ----------------------------------------------------------------------


@register_backend
class DirectoryBackend(CacheBackend):
    """One file per key under a two-level fan-out directory.

    The simplest *shared* store: entries are written atomically
    (write-temp + ``os.replace`` in the same directory), so concurrent
    writers — even across machines on a shared filesystem — can never
    tear each other's rows; the worst case is the last writer winning,
    which is harmless for a content-addressed cache.  No fsync per
    entry: a crash may lose the newest rows, and every row is
    recomputable by definition.

    File format: first line the checksum (``-`` for none), second line
    the key, the rest the payload verbatim.  Storing the key inside the
    entry matters because filenames are *sanitized* keys — two hostile
    keys can collide on one filename, and the header lets ``get``
    detect that it found somebody else's row instead of serving it.
    """

    scheme = "file"
    persistent = True

    def __init__(self, root: str | Path) -> None:
        self.location = Path(root)
        self.location.mkdir(parents=True, exist_ok=True)

    @classmethod
    def from_spec(cls, location: str) -> "DirectoryBackend":
        if not location:
            raise EngineError("the file backend needs a directory: file:<dir>")
        return cls(location)

    def _path(self, key: str) -> Path:
        safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in key)
        fan = safe[:2] if len(safe) >= 2 else "__"
        return self.location / fan / f"{safe}.entry"

    @staticmethod
    def _parse(raw: str) -> tuple[str, str, str | None] | None:
        """``(key, value, checksum)`` from an entry body, None if torn."""
        head, sep_head, rest = raw.partition("\n")
        stored_key, sep_key, value = rest.partition("\n")
        if not sep_head or not sep_key:
            return None
        return (stored_key, value, None if head == "-" else head)

    def get(self, key: str) -> tuple[str, str | None] | None:
        try:
            raw = self._path(key).read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise CacheUnavailable(f"entry read failed ({exc})") from exc
        parsed = self._parse(raw)
        if parsed is None:
            # A torn/foreign entry: surface it as a row whose checksum
            # cannot verify, so the cache quarantines just this entry.
            return (raw, "<malformed-entry>")
        stored_key, value, checksum = parsed
        if stored_key != key:
            # Filename collision after sanitizing: this is somebody
            # else's row.  A miss is correct; serving it would not be.
            return None
        return (value, checksum)

    def put(self, key: str, value: str, checksum: str | None) -> None:
        target = self._path(key)
        # pid AND thread id: service job threads share a process, and a
        # shared tmp name would let one thread replace away another's.
        tmp = target.with_name(
            f"{target.name}.{os.getpid()}-{threading.get_ident()}.tmp"
        )
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(f"{checksum or '-'}\n{key}\n{value}", encoding="utf-8")
            os.replace(tmp, target)
        except OSError as exc:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            raise CacheUnavailable(f"entry write failed ({exc})") from exc

    def delete(self, key: str) -> None:
        try:
            self._path(key).unlink(missing_ok=True)
        except OSError as exc:
            raise CacheUnavailable(f"entry delete failed ({exc})") from exc

    def _entries(self) -> list[Path]:
        try:
            return [
                p
                for fan in sorted(self.location.iterdir())
                if fan.is_dir()
                for p in sorted(fan.iterdir())
                if p.suffix == ".entry"
            ]
        except OSError as exc:
            raise CacheUnavailable(f"store listing failed ({exc})") from exc

    def __len__(self) -> int:
        return len(self._entries())

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def keys(self) -> Iterator[str]:
        found = []
        for path in self._entries():
            try:
                parsed = self._parse(path.read_text(encoding="utf-8"))
            except OSError as exc:
                raise CacheUnavailable(f"entry read failed ({exc})") from exc
            if parsed is not None:  # torn entries have no recoverable key
                found.append(parsed[0])
        return iter(found)

    def clear(self) -> None:
        for path in self._entries():
            try:
                path.unlink(missing_ok=True)
            except OSError as exc:
                raise CacheUnavailable(f"entry delete failed ({exc})") from exc

    def quarantine(self) -> None:
        """Move the whole store directory aside (``<dir>.corrupt``)."""
        self.close()
        if self.location is None or not self.location.exists():
            return
        target = self.location.with_name(self.location.name + ".corrupt")
        try:
            if target.exists():
                import shutil

                shutil.rmtree(target, ignore_errors=True)
            os.replace(self.location, target)
        except OSError:
            pass


# ----------------------------------------------------------------------
# network store (a replica's /v1/cache API)
# ----------------------------------------------------------------------


class _RemoteUnavailable(Exception):
    """Internal: the remote store cannot be reached right now.

    Never escapes :class:`HttpBackend` — the backend degrades to its
    local tier instead of surfacing network weather to the cache.
    """


@register_backend
class HttpBackend(CacheBackend):
    """A result store served by another replica's ``/v1/cache`` API.

    The networked leg of the registry seam: ``http://host:port`` (an
    optional path prefix is honoured) turns any ``repro serve`` replica
    into a shared result store for every engine that points at it.
    Unlike the file-backed backends, the network itself is a failure
    domain, so every remote call is defended in depth:

    * per-call connect/read **timeouts** (``timeout_s``);
    * transient failures (connection refused/reset, torn or truncated
      responses, injected 5xx, ``Retry-After``-carrying 429/503) are
      retried through the engine's :class:`RetryPolicy` with the same
      deterministic seeded backoff the pool uses — a replayed run sleeps
      the same milliseconds;
    * a :class:`CircuitBreaker` opens after ``failure_threshold``
      consecutive failed attempts; while open, remote calls are skipped
      entirely until the deterministic cool-down elapses, then one
      half-open probe decides whether to close it;
    * on sustained failure the backend **degrades to a local
      read-through/write-behind tier** instead of raising: reads serve
      from an LRU of rows seen while the network was up (anything else
      is an honest miss — the engine re-simulates, bit-identically),
      writes queue locally and are **replayed in order** when the
      circuit closes again.  The cache above never sees network
      weather, preserving the degrade-vs-quarantine taxonomy: only a
      server that *reports its own store corrupt* raises
      :class:`CacheCorruption`, and only a server that answers but is
      not a cache server (4xx) raises :class:`CacheUnavailable`.
    """

    scheme = "http"
    persistent = True

    #: LRU bound of the local read-through tier.
    DEFAULT_LOCAL_ENTRIES = 8192
    #: Write-behind queue bound; beyond it the oldest queued *put* is
    #: dropped (content-addressed rows are recomputable by definition).
    DEFAULT_MAX_PENDING = 10_000

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 5.0,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        max_local_entries: int = DEFAULT_LOCAL_ENTRIES,
        max_pending: int = DEFAULT_MAX_PENDING,
    ) -> None:
        split = urlsplit(base_url)
        if split.scheme != "http" or not split.hostname:
            raise EngineError(
                f"the http backend needs a URL like http://host:port, "
                f"got {base_url!r}"
            )
        self.host = split.hostname
        self.port = split.port or 80
        self.base_path = split.path.rstrip("/")
        self.timeout_s = timeout_s
        self.retry = retry or RetryPolicy(
            max_retries=3, backoff_base_s=0.05, backoff_max_s=1.0
        )
        self.breaker = breaker or CircuitBreaker(
            failure_threshold=5, cooldown_s=1.0
        )
        self.location = None
        self._lock = threading.RLock()
        self._local: OrderedDict[str, tuple[str, str | None]] = OrderedDict()
        self.max_local_entries = max_local_entries
        self._pending: list[tuple] = []  # ("put", k, v, c) | ("delete", k) | ("clear",)
        self.max_pending = max_pending
        self._replaying = False
        self._closed = False
        self.stats = {
            "remote_calls": 0,
            "retries": 0,
            "failures": 0,
            "degraded_reads": 0,
            "deferred_writes": 0,
            "replayed_writes": 0,
            "dropped_writes": 0,
        }

    @classmethod
    def from_spec(cls, location: str) -> "HttpBackend":
        # make_backend splits on the first ":", so the location arrives
        # as "//host:port[/prefix]" (or bare "host:port").
        if not location:
            raise EngineError("the http backend needs a URL: http://host:port")
        url = f"http:{location}" if location.startswith("//") else f"http://{location}"
        return cls(url)

    # -- wire plumbing --------------------------------------------------

    def _key_path(self, key: str) -> str:
        return f"{self.base_path}/v1/cache/{quote(key, safe='')}"

    def _http(self, method: str, path: str, payload: Any = None):
        """One HTTP exchange; returns ``(status, headers, decoded-json)``.

        Raises ``_RemoteUnavailable`` on anything transient: connection
        trouble, timeouts, torn responses, undecodable JSON where JSON
        was promised.  DNS failure (a bad hostname is configuration,
        not weather) and non-transient responses pass through to the
        caller's classification.
        """
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout_s)
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            # Propagate the ambient trace (the job span running this
            # engine) so the store service can journal this call under
            # the same fleet-wide trace id.
            trace = current_trace()
            if trace is not None:
                headers[TRACEPARENT_HEADER] = trace.header()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except socket.gaierror as exc:
                raise CacheUnavailable(
                    f"cannot resolve cache server host {self.host!r} ({exc})"
                ) from exc
            except (OSError, http.client.HTTPException) as exc:
                raise _RemoteUnavailable(f"{method} {path}: {exc}") from exc
            if (
                response.status != 204
                and response.getheader("Content-Length") is None
                and not response.getheader("Transfer-Encoding")
            ):
                # The cache API always declares Content-Length; a
                # response without it is a head torn mid-headers
                # (http.client parses EOF as end-of-headers) — weather,
                # never an empty body.
                raise _RemoteUnavailable(f"{method} {path}: torn response head")
            decoded = None
            if raw:
                try:
                    decoded = json.loads(raw.decode("utf-8"))
                except ValueError as exc:
                    content_type = response.getheader("Content-Type", "")
                    if "json" in content_type:
                        # A 200 with torn JSON is a transport fault
                        # (truncation mid-body), never store state.
                        raise _RemoteUnavailable(
                            f"{method} {path}: torn JSON body"
                        ) from exc
            return response.status, dict(response.getheaders()), decoded
        finally:
            conn.close()

    def _call(
        self,
        method: str,
        path: str,
        payload: Any = None,
        expect: tuple[int, ...] = (200, 204),
        miss_status: int | None = None,
    ):
        """One remote operation under retry + circuit-breaker discipline.

        Returns the decoded body (or ``_MISS`` for ``miss_status``).
        Raises ``_RemoteUnavailable`` when the network loses (the caller
        degrades), :class:`CacheCorruption` when the server reports its
        store corrupt, :class:`CacheUnavailable` on misconfiguration.
        """
        if self._closed:
            raise CacheUnavailable("backend is closed")
        last_error: Exception | None = None
        for attempt in range(self.retry.max_retries + 1):
            if not self.breaker.allow():
                raise _RemoteUnavailable("circuit open")
            self.stats["remote_calls"] += 1
            try:
                status, headers, decoded = self._http(method, path, payload)
            except _RemoteUnavailable as exc:
                last_error = exc
                self.stats["failures"] += 1
                self.breaker.record_failure(str(exc))
            else:
                if status in expect:
                    self.breaker.record_success()
                    self._maybe_replay()
                    return decoded
                if miss_status is not None and status == miss_status:
                    self.breaker.record_success()
                    self._maybe_replay()
                    return _MISS
                if isinstance(decoded, dict) and decoded.get("corruption"):
                    # The *server's* store is damaged — real corruption,
                    # propagated so the cache can quarantine its tier.
                    raise CacheCorruption(
                        f"cache server reports corrupt store: "
                        f"{decoded.get('error', status)}"
                    )
                if status in (429, 503, 500, 502, 504):
                    # Overload / injected 5xx: transient.  Honour
                    # Retry-After as a floor on the deterministic delay.
                    last_error = _RemoteUnavailable(f"{method} {path} -> {status}")
                    self.stats["failures"] += 1
                    self.breaker.record_failure(f"status {status}")
                    retry_after = _parse_retry_after(headers)
                    if attempt < self.retry.max_retries:
                        delay = max(
                            self.retry.delay_s(path, attempt + 1), retry_after
                        )
                        self.stats["retries"] += 1
                        time.sleep(min(delay, self.retry.backoff_max_s))
                        continue
                    break
                # Anything else (404 on an unexpected route, 400, 405):
                # the server answered but is not serving a cache API —
                # misconfiguration, fail fast without burning retries.
                raise CacheUnavailable(
                    f"cache server rejected {method} {path} with {status}"
                )
            if attempt < self.retry.max_retries:
                self.stats["retries"] += 1
                time.sleep(self.retry.delay_s(path, attempt + 1))
        raise _RemoteUnavailable(str(last_error or "remote store unreachable"))

    # -- the local read-through/write-behind tier -----------------------

    def _local_remember(self, key: str, row: "tuple[str, str | None]") -> None:
        with self._lock:
            self._local[key] = row
            self._local.move_to_end(key)
            if self.max_local_entries and len(self._local) > self.max_local_entries:
                self._local.popitem(last=False)

    def _defer(self, op: tuple) -> None:
        with self._lock:
            self._pending.append(op)
            self.stats["deferred_writes"] += 1
            if len(self._pending) > self.max_pending:
                self._pending.pop(0)
                self.stats["dropped_writes"] += 1

    def _maybe_replay(self) -> None:
        """Flush the write-behind queue after the network healed.

        Runs at most once at a time; replays strictly in order so
        last-write-wins semantics match what an always-connected client
        would have produced.  A failure mid-replay re-queues the
        remainder and goes back to degraded mode.
        """
        with self._lock:
            if self._replaying or not self._pending:
                return
            self._replaying = True
            pending, self._pending = self._pending, []
        try:
            while pending:
                op = pending[0]
                try:
                    if op[0] == "put":
                        self._call(
                            "PUT",
                            self._key_path(op[1]),
                            {"value": op[2], "checksum": op[3]},
                            expect=(200, 204),
                        )
                    elif op[0] == "delete":
                        self._call(
                            "DELETE", self._key_path(op[1]), expect=(200, 204)
                        )
                    elif op[0] == "clear":
                        self._call(
                            "DELETE", f"{self.base_path}/v1/cache", expect=(200, 204)
                        )
                except _RemoteUnavailable:
                    with self._lock:
                        self._pending = pending + self._pending
                    return
                pending.pop(0)
                self.stats["replayed_writes"] += 1
        finally:
            with self._lock:
                self._replaying = False

    # -- rows -----------------------------------------------------------

    def get(self, key: str) -> tuple[str, str | None] | None:
        try:
            decoded = self._call(
                "GET", self._key_path(key), expect=(200,), miss_status=404
            )
        except _RemoteUnavailable:
            with self._lock:
                row = self._local.get(key)
                if row is not None:
                    self._local.move_to_end(key)
                    self.stats["degraded_reads"] += 1
            return row
        if decoded is _MISS:
            return None
        if not isinstance(decoded, dict) or "value" not in decoded:
            raise CacheUnavailable(
                f"cache server returned a malformed row for {key[:16]!r}"
            )
        row = (str(decoded["value"]), decoded.get("checksum"))
        self._local_remember(key, row)
        return row

    def put(self, key: str, value: str, checksum: str | None) -> None:
        self._local_remember(key, (value, checksum))
        try:
            self._call(
                "PUT",
                self._key_path(key),
                {"value": value, "checksum": checksum},
                expect=(200, 204),
            )
        except _RemoteUnavailable:
            self._defer(("put", key, value, checksum))

    def delete(self, key: str) -> None:
        with self._lock:
            self._local.pop(key, None)
        try:
            self._call("DELETE", self._key_path(key), expect=(200, 204))
        except _RemoteUnavailable:
            self._defer(("delete", key))

    def __len__(self) -> int:
        try:
            decoded = self._call(
                "GET", f"{self.base_path}/v1/cache", expect=(200,)
            )
        except _RemoteUnavailable:
            with self._lock:
                return len(self._local)
        return int(decoded.get("count", 0)) if isinstance(decoded, dict) else 0

    def __contains__(self, key: str) -> bool:
        try:
            decoded = self._call(
                "GET", self._key_path(key), expect=(200,), miss_status=404
            )
        except _RemoteUnavailable:
            with self._lock:
                return key in self._local
        return decoded is not _MISS

    def keys(self) -> Iterator[str]:
        try:
            decoded = self._call(
                "GET", f"{self.base_path}/v1/cache", expect=(200,)
            )
        except _RemoteUnavailable:
            with self._lock:
                return iter(list(self._local))
        listed = decoded.get("keys", []) if isinstance(decoded, dict) else []
        return iter([str(k) for k in listed])

    def clear(self) -> None:
        with self._lock:
            self._local.clear()
            self._pending.clear()
        try:
            self._call("DELETE", f"{self.base_path}/v1/cache", expect=(200, 204))
        except _RemoteUnavailable:
            self._defer(("clear",))

    # -- lifecycle ------------------------------------------------------

    def flush(self) -> None:
        """Best-effort replay of queued write-behind operations."""
        if self._closed:
            return
        self._maybe_replay()

    def close(self) -> None:
        if self._closed:
            return
        with contextlib.suppress(Exception):
            self.flush()
        self._closed = True

    def describe(self) -> str:
        return f"http://{self.host}:{self.port}{self.base_path}"

    def stats_snapshot(self) -> dict:
        """Backend counters merged with the circuit's state/counters."""
        with self._lock:
            pending = len(self._pending)
            local = len(self._local)
        return {
            **self.stats,
            "pending_writes": pending,
            "local_entries": local,
            "circuit": self.breaker.snapshot(),
        }


#: Sentinel distinguishing "row absent" (a 404) from "no body".
_MISS = object()


def _parse_retry_after(headers: dict) -> float:
    """Seconds asked for by a ``Retry-After`` header (0.0 when absent)."""
    for name, value in headers.items():
        if name.lower() == "retry-after":
            try:
                return max(float(value), 0.0)
            except ValueError:
                return 0.0
    return 0.0
