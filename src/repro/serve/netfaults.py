"""Seeded, exactly-replayable network-fault injection for the service.

The engine's :class:`~repro.engine.faults.FaultPlan` made worker crashes
reproducible; this module does the same for *network weather*.  Three
pieces:

* :class:`NetworkFaultPlan` — decides, as a pure function of
  ``(seed, connection-index)``, what happens to each TCP connection:
  nothing, a refusal (RST before any bytes), a mid-body reset, a torn
  response (clean FIN mid-body, producing truncated JSON), an injected
  ``503`` with ``Retry-After``, or a latency spike.  The same plan
  replays the same fault sequence on every run —
  :meth:`NetworkFaultPlan.expected_sequence` is the replay oracle the
  tests assert against;
* :class:`ChaosProxy` — a stdlib TCP proxy that sits in front of a real
  replica (or the shared store) and enacts the plan, journalling every
  connection's fate as JSON lines;
* :func:`run_chaos` — the acceptance harness: a fault-free baseline run
  versus a multi-replica run where every byte crosses fault proxies (and
  optionally one replica is killed mid-run), ending in a bit-identity
  verdict over the result payloads.  ``repro chaos`` is a thin CLI
  wrapper over it.

Faults are *bounded*: at most ``max_consecutive`` faulted connections in
a row, chosen below the clients' retry budgets, so a retrying caller
always makes progress — and, because every retried operation re-runs the
deterministic engine (or replays the shared store), finishes with
results bit-identical to a fault-free run.  Wrong answers are never on
the menu; only slowness and explicit errors are.
"""

from __future__ import annotations

import contextlib
import json
import socket
import struct
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from ..engine.keys import derive_seed, unit_draw
from ..errors import ServeError
from .client import ServeClient
from .replicas import ReplicaSet

#: Fault kinds a plan can inject on one connection.
REFUSE = "refuse"
RESET = "reset"
TRUNCATE = "truncate"
ERROR5XX = "error5xx"
DELAY = "delay"
KINDS = (REFUSE, RESET, TRUNCATE, ERROR5XX, DELAY)

#: Canned response for injected server errors (always ``Connection:
#: close``, like the real service).
_INJECTED_503_BODY = b'{"error": "injected 5xx fault", "status": 503}'
_INJECTED_503 = (
    b"HTTP/1.1 503 Service Unavailable\r\n"
    b"Content-Type: application/json\r\n"
    b"Retry-After: 0.05\r\n"
    b"Connection: close\r\n"
    + f"Content-Length: {len(_INJECTED_503_BODY)}\r\n\r\n".encode("ascii")
    + _INJECTED_503_BODY
)


@dataclass(frozen=True)
class NetworkFaultPlan:
    """A seeded, replayable schedule of per-connection network faults.

    The fate of connection ``n`` through a :class:`ChaosProxy` is a pure
    function of ``(seed, n)``: a SHA-256 draw in ``[0, 1)`` is compared
    against the cumulative ``refuse``/``reset``/``truncate``/
    ``error5xx``/``delay`` rates.  Two proxies built from equal plans
    enact identical fault sequences — and a replayed run's clients, whose
    backoff is seeded too, observe the identical event order.

    Parameters
    ----------
    seed:
        Replay seed; equal fields ⇒ identical fault sequences.
    refuse, reset, truncate, error5xx, delay:
        Per-connection injection probabilities (sum must be <= 1).
        ``refuse`` kills the connection before any bytes; ``reset`` cuts
        the response mid-body with an RST; ``truncate`` cuts it with a
        clean FIN (a torn JSON body); ``error5xx`` answers a canned 503
        with ``Retry-After``; ``delay`` stalls the connection before
        proxying it cleanly.
    delay_s:
        How long an injected latency spike sleeps.
    cut_after_bytes:
        Upper bound of the deterministic mid-body cut point for
        ``reset``/``truncate`` (the exact point is drawn per
        connection).
    max_consecutive:
        Ceiling on *consecutive* faulted connections; the next
        connection after a full streak is forced clean.  Keep it below
        the clients' retry budget and every retried operation
        eventually lands.
    overrides:
        Explicit ``(connection-index, kind)`` pairs that fire regardless
        of rates or streak (``(n, "none")`` forces a clean connection) —
        for tests that target one exact connection.
    """

    seed: int = 0
    refuse: float = 0.0
    reset: float = 0.0
    truncate: float = 0.0
    error5xx: float = 0.0
    delay: float = 0.0
    delay_s: float = 0.2
    cut_after_bytes: int = 64
    max_consecutive: int = 2
    overrides: tuple[tuple[int, str], ...] = ()

    def __post_init__(self) -> None:
        rates = {
            "refuse": self.refuse,
            "reset": self.reset,
            "truncate": self.truncate,
            "error5xx": self.error5xx,
            "delay": self.delay,
        }
        for name, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ServeError(f"fault rate {name} must be in [0, 1]: {rate}")
        if sum(rates.values()) > 1.0 + 1e-12:
            raise ServeError("fault rates must sum to at most 1")
        if self.delay_s < 0:
            raise ServeError(f"delay_s cannot be negative: {self.delay_s}")
        if self.cut_after_bytes < 1:
            raise ServeError(
                f"cut_after_bytes must be >= 1: {self.cut_after_bytes}"
            )
        if self.max_consecutive < 1:
            raise ServeError(
                f"max_consecutive must be >= 1: {self.max_consecutive}"
            )
        for entry in self.overrides:
            if len(entry) != 2 or entry[1] not in KINDS + ("none",):
                raise ServeError(f"malformed network fault override: {entry!r}")

    # ------------------------------------------------------------------
    # decisions (pure)
    # ------------------------------------------------------------------

    def _override(self, conn: int) -> str | None:
        for over_conn, kind in self.overrides:
            if over_conn == conn:
                return kind
        return None

    def _drawn(self, conn: int) -> str | None:
        """The rate-based (streak-blind) draw for connection ``conn``."""
        unit = unit_draw("netfault", self.seed, conn)
        edge = 0.0
        for kind, rate in (
            (REFUSE, self.refuse),
            (RESET, self.reset),
            (TRUNCATE, self.truncate),
            (ERROR5XX, self.error5xx),
            (DELAY, self.delay),
        ):
            edge += rate
            if unit < edge:
                return kind
        return None

    def expected_sequence(self, count: int) -> list[str | None]:
        """The exact fates of the first ``count`` connections, in order.

        This is the replay oracle: a proxy run under this plan journals
        precisely this sequence (``None`` meaning a clean tunnel), and a
        re-run under an equal plan journals it again.  Rate-drawn faults
        respect the ``max_consecutive`` streak bound; overrides fire
        regardless (tests pinning a hopeless streak mean it), though
        they still count toward the streak.
        """
        fates: list[str | None] = []
        streak = 0
        for conn in range(count):
            over = self._override(conn)
            if over is not None:
                kind = None if over == "none" else over
            elif streak < self.max_consecutive:
                kind = self._drawn(conn)
            else:
                kind = None
            streak = streak + 1 if kind is not None else 0
            fates.append(kind)
        return fates

    def fault_for(self, conn: int) -> str | None:
        """The fate of connection ``conn`` (streak bound applied)."""
        return self.expected_sequence(conn + 1)[-1]

    def cut_point(self, conn: int) -> int:
        """Deterministic mid-body cut offset for reset/truncate faults."""
        unit = unit_draw("netfault-cut", self.seed, conn)
        return 1 + int(unit * (self.cut_after_bytes - 1))

    @property
    def active(self) -> bool:
        """Whether this plan can inject anything at all."""
        return bool(self.overrides) or (
            self.refuse + self.reset + self.truncate + self.error5xx + self.delay
        ) > 0.0

    def reseeded(self, index: int) -> "NetworkFaultPlan":
        """An equal-rates plan with a derived seed (per-proxy streams)."""
        return replace(self, seed=derive_seed(self.seed, index=index))

    # ------------------------------------------------------------------
    # CLI / env spec
    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "NetworkFaultPlan":
        """Build a plan from a ``repro chaos --faults`` spec string.

        Format: comma-separated ``key=value``, e.g.
        ``"seed=7,refuse=0.1,reset=0.05,truncate=0.05,error5xx=0.1,delay=0.1,delay-s=0.2,max-consecutive=2"``.
        Unknown settings are rejected so typos cannot silently disable
        injection.
        """
        fields = {
            "seed": ("seed", int),
            "refuse": ("refuse", float),
            "reset": ("reset", float),
            "truncate": ("truncate", float),
            "error5xx": ("error5xx", float),
            "delay": ("delay", float),
            "delay-s": ("delay_s", float),
            "cut-bytes": ("cut_after_bytes", int),
            "max-consecutive": ("max_consecutive", int),
        }
        kwargs: dict[str, object] = {}
        for part in filter(None, (p.strip() for p in spec.split(","))):
            name, eq, raw = part.partition("=")
            if not eq or name not in fields:
                raise ServeError(
                    f"bad network fault spec entry {part!r}; known: "
                    f"{', '.join(fields)}"
                )
            attr, cast = fields[name]
            try:
                kwargs[attr] = cast(raw)
            except ValueError as exc:
                raise ServeError(
                    f"bad network fault spec value {part!r}: {exc}"
                ) from exc
        return cls(**kwargs)  # type: ignore[arg-type]


class ChaosProxy:
    """A TCP proxy that enacts a :class:`NetworkFaultPlan` per connection.

    Sits between a client and one upstream (a service replica or the
    shared store) and gives each accepted connection the fate the plan
    drew for its index.  Connection indices are assigned in accept
    order; with the deterministic plans and seeded client backoff used
    in the chaos suite, accept order itself is deterministic, so whole
    runs replay.

    Every connection's fate lands in :attr:`journal` (and, when
    ``journal_path`` is given, as JSON lines on disk) plus the
    per-kind :attr:`counters`.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        plan: NetworkFaultPlan,
        host: str = "127.0.0.1",
        journal_path: str | Path | None = None,
        name: str = "",
    ) -> None:
        self.upstream = (upstream_host, upstream_port)
        self.plan = plan
        self.name = name or f"{upstream_host}:{upstream_port}"
        self.journal_path = Path(journal_path) if journal_path else None
        self._listener = socket.create_server((host, 0))
        self._listener.settimeout(0.2)
        self.host, self.port = self._listener.getsockname()[:2]
        self._accepting = threading.Event()
        self._stopped = threading.Event()
        self._lock = threading.Lock()
        self._conn_counter = 0
        self._workers: list[threading.Thread] = []
        self.journal: list[dict[str, Any]] = []
        self.counters: dict[str, int] = {"clean": 0}
        self._thread = threading.Thread(
            target=self._accept_loop, name=f"chaos-proxy-{self.port}", daemon=True
        )

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @classmethod
    def for_url(
        cls, base_url: str, plan: NetworkFaultPlan, **kwargs: Any
    ) -> "ChaosProxy":
        """A proxy in front of ``http://host:port``."""
        from urllib.parse import urlsplit

        split = urlsplit(base_url)
        if split.scheme != "http" or not split.hostname or not split.port:
            raise ServeError(f"cannot proxy {base_url!r}")
        return cls(split.hostname, split.port, plan, **kwargs)

    def start(self) -> "ChaosProxy":
        self._accepting.set()
        self._thread.start()
        return self

    def kill(self) -> None:
        """Stop accepting — from the outside this replica just died.

        New connections are refused by the OS (the listener closes), so
        clients see exactly what a SIGKILLed replica produces.
        """
        self._accepting.clear()
        self._stopped.set()
        with self._lock:
            listener, self._listener = self._listener, None
        if listener is not None:
            listener.close()

    def stop(self) -> None:
        self.kill()
        self._thread.join(timeout=5)
        for worker in list(self._workers):
            worker.join(timeout=2)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _journal(self, conn: int, fault: str | None, **extra: Any) -> None:
        entry = {
            "proxy": self.name,
            "conn": conn,
            "fault": fault or "clean",
            **extra,
        }
        with self._lock:
            self.journal.append(entry)
            name = fault or "clean"
            self.counters[name] = self.counters.get(name, 0) + 1
            if self.journal_path is not None:
                with self.journal_path.open("a", encoding="utf-8") as handle:
                    handle.write(json.dumps(entry, sort_keys=True) + "\n")

    def _accept_loop(self) -> None:
        while self._accepting.is_set():
            with self._lock:
                listener = self._listener
            if listener is None:
                return
            try:
                client, _addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with self._lock:
                conn = self._conn_counter
                self._conn_counter += 1
            worker = threading.Thread(
                target=self._handle,
                args=(client, conn),
                name=f"chaos-conn-{conn}",
                daemon=True,
            )
            self._workers.append(worker)
            worker.start()

    @staticmethod
    def _abort(sock: socket.socket) -> None:
        """Close with an RST (SO_LINGER 0) — the reset the plan promised."""
        try:
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        except OSError:
            pass
        sock.close()

    def _handle(self, client: socket.socket, conn: int) -> None:
        fault = self.plan.fault_for(conn)
        try:
            if fault == REFUSE:
                self._journal(conn, fault)
                self._abort(client)
                return
            if fault == ERROR5XX:
                # Consume the request head first, then answer the canned
                # 503 — a well-formed error the client must handle.
                client.settimeout(2.0)
                head = b""
                try:
                    while b"\r\n\r\n" not in head:
                        data = client.recv(65536)
                        if not data:
                            break
                        head += data
                except OSError:
                    pass
                with contextlib.suppress(OSError):
                    client.sendall(_INJECTED_503)
                self._journal(conn, fault)
                client.close()
                return
            if fault == DELAY:
                time.sleep(self.plan.delay_s)
            cut = (
                self.plan.cut_point(conn) if fault in (RESET, TRUNCATE) else None
            )
            self._tunnel(client, conn, fault, cut)
        except Exception as exc:  # pragma: no cover - defensive
            self._journal(conn, fault, error=str(exc))
            with contextlib.suppress(Exception):
                client.close()

    def _tunnel(
        self,
        client: socket.socket,
        conn: int,
        fault: str | None,
        cut: int | None,
    ) -> None:
        """Proxy one connection, optionally cutting the response at ``cut``."""
        try:
            upstream = socket.create_connection(self.upstream, timeout=10)
        except OSError as exc:
            # The upstream itself is gone (e.g. a killed replica): the
            # client sees a reset, journalled as what it really was.
            self._journal(conn, fault, upstream_error=str(exc))
            self._abort(client)
            return
        self._journal(conn, fault, cut=cut)

        def pump_request() -> None:
            try:
                while True:
                    data = client.recv(65536)
                    if not data:
                        break
                    upstream.sendall(data)
                with contextlib.suppress(Exception):
                    upstream.shutdown(socket.SHUT_WR)
            except OSError:
                pass

        request_thread = threading.Thread(
            target=pump_request, name=f"chaos-req-{conn}", daemon=True
        )
        request_thread.start()
        sent = 0
        torn = False
        try:
            while True:
                data = upstream.recv(65536)
                if not data:
                    break
                if cut is not None and sent + len(data) >= cut:
                    client.sendall(data[: cut - sent])
                    torn = True
                    break
                client.sendall(data)
                sent += len(data)
        except OSError:
            pass
        finally:
            with contextlib.suppress(Exception):
                upstream.close()
            # pump_request is still blocked in recv() on the client
            # socket, and Linux holds a close until that recv returns:
            # shut the socket down first so the cut leaves now, not at
            # the client's read timeout.  A reset shuts only the read
            # side, so no FIN goes out ahead of its RST.
            reset = torn and fault == RESET
            with contextlib.suppress(OSError):
                client.shutdown(socket.SHUT_RD if reset else socket.SHUT_RDWR)
            if reset:
                self._abort(client)
            else:
                # TRUNCATE (and the clean path) end with an orderly FIN;
                # a truncated declared-JSON body is the torn-response
                # case the client maps to a transport fault.
                with contextlib.suppress(Exception):
                    client.close()
            request_thread.join(timeout=2)



# ----------------------------------------------------------------------
# the acceptance harness
# ----------------------------------------------------------------------


@dataclass
class ChaosReport:
    """Outcome of one :func:`run_chaos` round (JSON-ready via as_jsonable)."""

    identical: bool
    jobs: int
    store_served_repeats: int
    killed_replica: str | None
    faults: dict[str, int]
    client: dict[str, int]
    store: list[dict[str, Any]]
    baseline_digests: list[str]
    chaos_digests: list[str]
    journal: list[dict[str, Any]]
    #: Fleet-wide trace ids minted by the chaos submits (round major,
    #: payload minor) — the pivot from this report into journal stitching.
    trace_ids: list[str] = field(default_factory=list)
    #: Per-replica journal directories (``serve_dir``s) of the fleet,
    #: store service included — ``repro trace fleet`` fodder.
    journal_dirs: list[str] = field(default_factory=list)

    def as_jsonable(self) -> dict[str, Any]:
        return {
            "identical": self.identical,
            "jobs": self.jobs,
            "store_served_repeats": self.store_served_repeats,
            "killed_replica": self.killed_replica,
            "faults": self.faults,
            "client": self.client,
            "store": self.store,
            "baseline_digests": self.baseline_digests,
            "chaos_digests": self.chaos_digests,
            "trace_ids": self.trace_ids,
            "journal_dirs": self.journal_dirs,
        }


def run_chaos(
    payloads: list[dict[str, Any]],
    plan: NetworkFaultPlan,
    workdir: str | Path,
    replicas: int = 2,
    seed: int = 0,
    kill_first_replica: bool = False,
    timeout_s: float = 600.0,
    journal_path: str | Path | None = None,
) -> ChaosReport:
    """Chaos acceptance round: faulted fleet vs fault-free baseline.

    Topology under test: ``replicas`` in-process service replicas, each
    reached only through its own :class:`ChaosProxy`, all sharing one
    network store — a store service whose ``/v1/cache`` API the replicas
    reach through *another* fault proxy via the ``http:`` backend (so
    the circuit breaker and degrade tier are genuinely exercised).

    Every payload runs once on the fault-free baseline service, then
    twice through the chaotic fleet (the repeat asserts store reuse).
    With ``kill_first_replica`` the replica the first chaos job landed
    on is killed *mid-flight* (its proxy refuses, its service stops,
    the job's wait must fail over) — the surviving replicas finish the
    work and the report's ``client["failovers"]`` is necessarily >= 1.

    The verdict is strict bit-identity: every chaos result payload must
    equal its baseline twin, byte for byte, no matter what the plan did
    to the wire.
    """
    from ..engine.keys import digest
    from .service import ExplorationService, ServiceThread

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    # -- baseline: one clean replica, its own store ---------------------
    baseline = ServiceThread(
        ExplorationService(
            jobs=1,
            cache_backend=f"sqlite:{workdir / 'baseline.sqlite'}",
            serve_dir=workdir / "baseline",
        )
    )
    baseline_digests: list[str] = []
    with baseline:
        client = ServeClient(baseline.base_url)
        for payload in payloads:
            record = client.wait(
                client.submit(dict(payload))["id"], timeout=timeout_s
            )
            if record["state"] != "completed":
                raise ServeError(f"baseline job failed: {record.get('error')}")
            baseline_digests.append(digest(record["result"]))

    # -- the chaotic fleet ---------------------------------------------
    store_service = ServiceThread(
        ExplorationService(
            jobs=1,
            cache_backend=f"sqlite:{workdir / 'shared.sqlite'}",
            serve_dir=workdir / "store",
        )
    )
    chaos_digests: list[str] = []
    proxies: list[ChaosProxy] = []
    threads: list[ServiceThread] = []
    replica_set: ReplicaSet | None = None
    killed: str | None = None
    store_served = 0
    store_snapshots: list[dict[str, Any]] = []
    try:
        store_service.start()
        store_proxy = ChaosProxy.for_url(
            store_service.base_url,
            plan.reseeded(0),
            journal_path=journal_path,
        ).start()
        proxies.append(store_proxy)

        for index in range(replicas):
            service = ExplorationService(
                jobs=1,
                cache_backend=store_proxy.base_url,
                serve_dir=workdir / f"replica-{index}",
            )
            thread = ServiceThread(service)
            thread.start()
            threads.append(thread)
            proxy = ChaosProxy.for_url(
                thread.base_url,
                plan.reseeded(index + 1),
                journal_path=journal_path,
            ).start()
            proxies.append(proxy)

        replica_urls = [proxy.base_url for proxy in proxies[1:]]
        # Per-request timeout stays short: a wedged connection should
        # fall to the retry/hedge machinery, not stall for the whole
        # job budget (timeout_s bounds the *wait*, below).
        replica_set = ReplicaSet(
            replica_urls, seed=seed, timeout=min(timeout_s, 15.0)
        )

        trace_ids: list[str] = []
        for round_no in range(2):
            for index, payload in enumerate(payloads):
                handle = replica_set.submit(dict(payload))
                if handle.trace_id is not None:
                    trace_ids.append(handle.trace_id)
                if (
                    kill_first_replica
                    and killed is None
                    and round_no == 0
                    and index == 0
                ):
                    # Kill the replica the first job just landed on,
                    # mid-flight: its proxy refuses from now on and its
                    # service stops.  The wait below MUST fail the job
                    # over to a survivor.
                    victim_url = handle.replica
                    position = replica_urls.index(victim_url)
                    proxies[position + 1].kill()
                    threads[position].stop()
                    killed = victim_url
                record = replica_set.wait(handle, timeout=timeout_s)
                if record["state"] != "completed":
                    raise ServeError(
                        f"chaos job failed: {record.get('error')}"
                    )
                if round_no == 1 and record["stats"]["evaluations"] == 0:
                    store_served += 1
                if round_no == 0:
                    chaos_digests.append(digest(record["result"]))
                else:
                    if digest(record["result"]) != chaos_digests[index]:
                        raise ServeError(
                            "chaos repeat diverged from its first run"
                        )

        # Collect store telemetry (breaker transitions live here) from
        # the surviving replicas before shutdown.
        for position, thread in enumerate(threads):
            if killed is not None and replica_urls[position] == killed:
                continue
            for snap in thread.service.stats().get("store", []):
                store_snapshots.append(snap)
    finally:
        if replica_set is not None:
            replica_set.close()
        for proxy in proxies:
            proxy.stop()
        for thread in threads:
            with contextlib.suppress(Exception):
                thread.stop()
        with contextlib.suppress(Exception):
            store_service.stop()

    faults: dict[str, int] = {}
    journal: list[dict[str, Any]] = []
    for proxy in proxies:
        journal.extend(proxy.journal)
        for kind, count in proxy.counters.items():
            faults[kind] = faults.get(kind, 0) + count

    return ChaosReport(
        identical=chaos_digests == baseline_digests,
        jobs=len(payloads),
        store_served_repeats=store_served,
        killed_replica=killed,
        faults=faults,
        client=replica_set.counters_snapshot() if replica_set else {},
        store=store_snapshots,
        baseline_digests=baseline_digests,
        chaos_digests=chaos_digests,
        journal=journal,
        trace_ids=trace_ids,
        journal_dirs=[str(workdir / "store")]
        + [str(workdir / f"replica-{index}") for index in range(replicas)],
    )
