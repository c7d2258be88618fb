"""Backend-conformance suite for the pluggable result-store tier.

Every backend registered in :mod:`repro.engine.cache_backends` must
honour the same contract: rows round-trip, deletes and clears work,
concurrent writers never tear entries, persistent stores survive a
close/reopen, and trouble surfaces only as :class:`CacheUnavailable`
(degrade) or :class:`CacheCorruption` (quarantine).  The suite is
parametrized over the registry, so a newly registered backend is
conformance-tested by showing up.
"""

from __future__ import annotations

import sqlite3
import threading
import time

import pytest

from repro.engine.cache import ResultCache
from repro.engine.cache_backends import (
    CacheBackend,
    CacheCorruption,
    CacheUnavailable,
    GROUP_COMMIT_ROWS,
    DirectoryBackend,
    MemoryBackend,
    SQLiteBackend,
    backend_names,
    make_backend,
    register_backend,
)
from repro.errors import EngineError


@pytest.fixture(params=backend_names())
def factory(request, tmp_path):
    """A zero-argument constructor for one registered backend.

    Calling it again reopens the *same* store (same location), which is
    what the persistence and concurrent-handle tests need.  The ``http``
    backend gets a real service (memory-backed) to talk to — closing and
    reopening the client handle leaves the server's store intact, which
    is exactly its persistence story.
    """
    scheme = request.param
    specs = {
        "memory": "memory",
        "sqlite": f"sqlite:{tmp_path / 'store.sqlite'}",
        "file": f"file:{tmp_path / 'store'}",
    }
    server = None
    if scheme == "http":
        from repro.serve.service import ExplorationService, ServiceThread

        server = ServiceThread(
            ExplorationService(jobs=1, cache_backend="memory", serve_dir=tmp_path)
        )
        server.start()
        specs["http"] = server.base_url
    if scheme not in specs:
        pytest.fail(
            f"backend scheme {scheme!r} registered but not wired into the "
            "conformance fixture — add a spec for it"
        )

    def make() -> CacheBackend:
        return make_backend(specs[scheme])

    make.scheme = scheme
    try:
        yield make
    finally:
        if server is not None:
            server.stop()


# ----------------------------------------------------------------------
# the conformance contract
# ----------------------------------------------------------------------


def test_round_trip_with_and_without_checksum(factory):
    backend = factory()
    backend.put("k1", "payload-one", "abcd")
    backend.put("k2", "payload-two", None)
    assert backend.get("k1") == ("payload-one", "abcd")
    value, checksum = backend.get("k2")
    assert value == "payload-two"
    assert checksum is None
    assert backend.get("missing") is None
    assert "k1" in backend
    assert "missing" not in backend
    assert len(backend) == 2
    backend.close()


def test_last_write_wins(factory):
    backend = factory()
    backend.put("k", "old", "c-old")
    backend.put("k", "new", "c-new")
    assert backend.get("k") == ("new", "c-new")
    assert len(backend) == 1
    backend.close()


def test_delete_and_clear(factory):
    backend = factory()
    backend.put("a", "1", None)
    backend.put("b", "2", None)
    backend.delete("a")
    backend.delete("never-stored")  # must be a no-op, not an error
    assert "a" not in backend
    assert len(backend) == 1
    backend.clear()
    assert len(backend) == 0
    assert backend.get("b") is None
    backend.close()


def test_keys_enumerates_every_row(factory):
    backend = factory()
    stored = {f"key-{i}": str(i) for i in range(7)}
    for key, value in stored.items():
        backend.put(key, value, None)
    assert set(backend.keys()) == set(stored)
    backend.close()


def test_persistence_across_reopen(factory):
    first = factory()
    first.put("survivor", "payload", "sum")
    first.flush()
    first.close()
    second = factory()
    if type(first).persistent:
        assert second.get("survivor") == ("payload", "sum")
    else:
        assert second.get("survivor") is None
    second.close()


def test_concurrent_writers_one_handle(factory):
    """Threads hammering one backend instance never tear or lose rows."""
    backend = factory()
    errors: list[Exception] = []

    def writer(worker: int) -> None:
        try:
            for i in range(25):
                key = f"w{worker}-{i}"
                backend.put(key, f"value-{worker}-{i}", f"c{worker}")
                assert backend.get(key) == (f"value-{worker}-{i}", f"c{worker}")
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(backend) == 6 * 25
    backend.close()


def test_concurrent_writers_separate_handles(factory):
    """Separate handles on one store (the multi-replica shape) all land."""
    first = factory()
    if not type(first).persistent:
        first.close()
        pytest.skip("memory backends do not share state across handles")
    errors: list[Exception] = []

    def writer(worker: int) -> None:
        handle = factory()
        try:
            for i in range(15):
                handle.put(f"r{worker}-{i}", f"value-{worker}-{i}", None)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            handle.close()

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(first) == 4 * 15
    for worker in range(4):
        assert first.get(f"r{worker}-0") == (f"value-{worker}-0", None)
    first.close()


def test_describe_names_scheme_and_location(factory):
    backend = factory()
    described = backend.describe()
    assert described.startswith(f"{factory.scheme}:")
    if backend.location is not None:
        assert str(backend.location) in described
    backend.close()


def test_backend_feeds_result_cache(factory):
    """Every backend slots behind ResultCache as its persistent tier."""
    from repro.sim import SimResult

    backend = factory()
    cache = ResultCache(backend=backend, max_memory_entries=1)
    result = SimResult(
        workload="gzip", instructions=100, cycles=250.0, clock_period_ns=0.5
    )
    cache.put("job-a", result)
    cache.put("job-b", result)  # evicts job-a from the 1-entry memory tier
    fetched = cache.get("job-a")
    if type(backend).persistent:
        assert fetched is not None and fetched.cycles == 250.0
        assert cache.stats.disk_hits == 1
    else:
        # memory backend still round-trips; only eviction durability differs
        assert fetched is not None
    cache.close()


# ----------------------------------------------------------------------
# registry / spec parsing
# ----------------------------------------------------------------------


def test_make_backend_spec_parsing(tmp_path):
    assert isinstance(make_backend("memory"), MemoryBackend)
    sqlite_backend = make_backend(f"sqlite:{tmp_path / 'a.sqlite'}")
    assert isinstance(sqlite_backend, SQLiteBackend)
    sqlite_backend.close()
    directory = make_backend(f"file:{tmp_path / 'dir'}")
    assert isinstance(directory, DirectoryBackend)
    # A bare path keeps the historical meaning: a SQLite cache file.
    bare = make_backend(tmp_path / "legacy.sqlite")
    assert isinstance(bare, SQLiteBackend)
    bare.close()


@pytest.mark.parametrize(
    "spec",
    ["postgres:somewhere", "sqlite:", "file:", "memory:extra"],
)
def test_make_backend_rejects_bad_specs(spec):
    with pytest.raises(EngineError):
        make_backend(spec)


def test_register_backend_rejects_scheme_collisions():
    class Impostor(MemoryBackend):
        scheme = "memory"

    with pytest.raises(EngineError, match="already registered"):
        register_backend(Impostor)

    class Anonymous(MemoryBackend):
        scheme = "?"

    with pytest.raises(EngineError, match="must set a scheme"):
        register_backend(Anonymous)

    assert "memory" in backend_names()  # registry unharmed


def test_reregistering_same_class_is_idempotent():
    assert register_backend(MemoryBackend) is MemoryBackend


# ----------------------------------------------------------------------
# sqlite specifics: WAL, busy handling, migration, corruption
# ----------------------------------------------------------------------


def test_sqlite_uses_wal_and_busy_timeout(tmp_path):
    backend = SQLiteBackend(tmp_path / "wal.sqlite")
    (mode,) = backend._conn.execute("PRAGMA journal_mode").fetchone()
    assert mode.lower() == "wal"
    (timeout_ms,) = backend._conn.execute("PRAGMA busy_timeout").fetchone()
    assert timeout_ms == int(backend.busy_timeout_s * 1000)
    backend.close()


def test_sqlite_put_is_visible_to_sibling_handle_after_group_commit(tmp_path):
    """Group commits + WAL: a sibling sees a row once its group is
    written — on flush(), at the row bound, or on close() — and never
    before.  The writing handle sees its own rows at once."""
    path = tmp_path / "shared.sqlite"
    writer = SQLiteBackend(path)
    reader = SQLiteBackend(path)
    writer.put("k", "v", "c")
    assert writer.get("k") == ("v", "c")
    assert reader.get("k") is None
    writer.flush()
    assert reader.get("k") == ("v", "c")

    for i in range(GROUP_COMMIT_ROWS - 1):
        writer.put(f"bulk-{i}", "v", None)
    assert reader.get("bulk-0") is None
    writer.put("bulk-last", "v", None)  # the bound writes the whole group
    assert reader.get("bulk-0") == ("v", None)
    assert reader.get("bulk-last") == ("v", None)

    writer.put("tail", "t", None)
    assert reader.get("tail") is None
    writer.close()
    assert reader.get("tail") == ("t", None)
    reader.close()


def test_sqlite_count_membership_and_keys_include_buffered_rows(tmp_path):
    path = tmp_path / "pending.sqlite"
    writer = SQLiteBackend(path)
    reader = SQLiteBackend(path)
    writer.put("a", "1", None)
    assert "a" in writer
    writer.put("b", "2", None)
    assert len(writer) == 2
    writer.put("c", "3", None)
    assert list(writer.keys()) == ["a", "b", "c"]
    assert len(reader) == 3  # each of those wrote the pending rows
    writer.put("d", "4", None)
    writer.delete("d")  # a buffered row can be deleted before it lands
    writer.flush()
    assert "d" not in reader
    writer.close()
    reader.close()


def test_sqlite_group_commits_under_thread_contention(tmp_path):
    """Threads sharing one handle cross the row bound many times over; no
    row is lost or torn between the buffer and the database."""
    import sys

    path = tmp_path / "contended.sqlite"
    backend = SQLiteBackend(path)
    errors: list[Exception] = []

    def writer(worker: int) -> None:
        try:
            for i in range(100):
                key = f"w{worker}-{i}"
                backend.put(key, f"value-{worker}-{i}", None)
                assert backend.get(key) == (f"value-{worker}-{i}", None)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    backend.flush()
    sibling = SQLiteBackend(path)
    assert len(sibling) == 8 * 100
    assert sibling.get("w7-99") == ("value-7-99", None)
    sibling.close()
    backend.close()


def test_sqlite_busy_lock_degrades_not_quarantines(tmp_path):
    """A write lock held past the busy budget raises CacheUnavailable at
    the group write — and the store file survives untouched for when the
    lock clears.  The failed group is dropped, never half-written."""
    path = tmp_path / "busy.sqlite"
    backend = SQLiteBackend(path, busy_timeout_s=0.05, busy_retries=1)
    backend.put("before", "v", None)
    backend.flush()
    blocker = sqlite3.connect(path, timeout=10)
    try:
        blocker.execute("BEGIN IMMEDIATE")  # hold the write lock
        backend.put("while-locked", "v", None)  # buffered: no lock needed
        with pytest.raises(CacheUnavailable, match="locked"):
            backend.flush()
    finally:
        blocker.rollback()
        blocker.close()
    assert path.exists() and not path.with_name(path.name + ".corrupt").exists()
    # The lock is gone; the same backend instance keeps working.
    backend.put("after", "v2", None)
    backend.flush()
    sibling = SQLiteBackend(path)
    assert sibling.get("after") == ("v2", None)
    assert sibling.get("before") == ("v", None)
    assert sibling.get("while-locked") is None
    sibling.close()
    backend.close()


def test_sqlite_busy_lock_released_in_time_is_retried(tmp_path):
    path = tmp_path / "retry.sqlite"
    backend = SQLiteBackend(path, busy_timeout_s=2.0, busy_retries=3)
    backend.put("contended", "v", None)  # buffered; the flush meets the lock
    blocker = sqlite3.connect(path, timeout=10, check_same_thread=False)
    blocker.execute("BEGIN IMMEDIATE")
    release = threading.Timer(0.15, lambda: (blocker.rollback(), blocker.close()))
    release.start()
    try:
        backend.flush()  # waits out the lock, then lands
    finally:
        release.join()
    sibling = SQLiteBackend(path)
    assert sibling.get("contended") == ("v", None)
    sibling.close()
    backend.close()


def test_sqlite_open_meeting_a_lock_is_retried(tmp_path):
    """A lock held while a new store opens is retried, not fatal: two
    replicas commonly open (and switch to WAL) one fresh file together."""
    path = tmp_path / "opening.sqlite"
    blocker = sqlite3.connect(path, timeout=10, check_same_thread=False)
    blocker.execute("BEGIN EXCLUSIVE")  # rollback-journal file, fully locked
    release = threading.Timer(0.2, lambda: (blocker.rollback(), blocker.close()))
    release.start()
    try:
        backend = SQLiteBackend(path, busy_timeout_s=0.05, busy_retries=4)
    finally:
        release.join()
    backend.put("k", "v", None)
    assert backend.get("k") == ("v", None)
    backend.close()


def test_sqlite_migrates_legacy_schema_without_checksum(tmp_path):
    path = tmp_path / "legacy.sqlite"
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE results (key TEXT PRIMARY KEY, value TEXT NOT NULL)")
    conn.execute("INSERT INTO results VALUES ('old-key', 'old-value')")
    conn.commit()
    conn.close()
    backend = SQLiteBackend(path)
    assert backend.get("old-key") == ("old-value", None)  # legacy rows verify
    backend.put("new-key", "new-value", "abcd")
    assert backend.get("new-key") == ("new-value", "abcd")
    backend.close()


def test_sqlite_garbage_file_is_corruption(tmp_path):
    path = tmp_path / "garbage.sqlite"
    path.write_bytes(b"this is not a sqlite database, not even close\x00\xff")
    with pytest.raises(CacheCorruption):
        SQLiteBackend(path)


def test_sqlite_closed_backend_is_unavailable(tmp_path):
    backend = SQLiteBackend(tmp_path / "closed.sqlite")
    backend.close()
    backend.close()  # idempotent
    with pytest.raises(CacheUnavailable, match="closed"):
        backend.get("anything")


def test_sqlite_quarantine_moves_file_aside(tmp_path):
    path = tmp_path / "sick.sqlite"
    backend = SQLiteBackend(path)
    backend.put("k", "v", None)
    backend.quarantine()
    assert not path.exists()
    quarantined = list(tmp_path.glob("sick.sqlite.corrupt*"))
    assert len(quarantined) == 1


# ----------------------------------------------------------------------
# directory-backend specifics
# ----------------------------------------------------------------------


def test_directory_handles_hostile_key_characters(tmp_path):
    backend = DirectoryBackend(tmp_path / "store")
    keys = ["a", "k/../../../escape", "key with spaces", "x" * 200]
    for i, key in enumerate(keys):
        backend.put(key, f"value-{i}", None)
    for i, key in enumerate(keys):
        assert backend.get(key) == (f"value-{i}", None)
    # Nothing escaped the store root.
    for entry in (tmp_path / "store").rglob("*.entry"):
        assert entry.is_relative_to(tmp_path / "store")
    assert not (tmp_path / "escape.entry").exists()


def test_directory_malformed_entry_fails_checksum_verification(tmp_path):
    """A torn entry surfaces as an unverifiable row, never a crash —
    ResultCache then quarantines exactly that row."""
    backend = DirectoryBackend(tmp_path / "store")
    backend.put("good", "payload", "sum")
    torn = backend._path("torn")
    torn.parent.mkdir(parents=True, exist_ok=True)
    torn.write_text("no-newline-so-no-header", encoding="utf-8")
    value, checksum = backend.get("torn")
    assert checksum == "<malformed-entry>"
    assert backend.get("good") == ("payload", "sum")


def test_directory_quarantine_moves_whole_store(tmp_path):
    root = tmp_path / "store"
    backend = DirectoryBackend(root)
    backend.put("k", "v", None)
    backend.quarantine()
    assert not root.exists()
    assert (tmp_path / "store.corrupt").is_dir()


def test_directory_concurrent_same_key_never_tears(tmp_path):
    """Racing writers on ONE key: readers always see a complete entry."""
    backend = DirectoryBackend(tmp_path / "store")
    stop = threading.Event()
    errors: list[str] = []

    def writer(tag: str) -> None:
        i = 0
        while not stop.is_set():
            backend.put("hot", f"{tag}-{i}" * 20, f"check-{tag}")
            i += 1

    def reader() -> None:
        while not stop.is_set():
            row = backend.get("hot")
            if row is None:
                continue
            value, checksum = row
            if checksum == "<malformed-entry>":
                errors.append(value[:40])  # pragma: no cover - failure path

    threads = [
        threading.Thread(target=writer, args=("a",)),
        threading.Thread(target=writer, args=("b",)),
        threading.Thread(target=reader),
    ]
    for t in threads:
        t.start()
    time.sleep(0.3)
    stop.set()
    for t in threads:
        t.join()
    assert errors == []
