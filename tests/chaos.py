"""The network-chaos harness: seeded fault proxies and a failover client.

The engine's :class:`~repro.engine.faults.FaultPlan` made worker crashes
reproducible; this helper does the same for *network weather* in front
of ``repro serve`` replicas.  Four pieces, shared by the test modules:

* :class:`ReplicaSet` — a failover client over N replicas sharing one
  result store: cached health probes, rendezvous-hashed placement (a
  pure function of seed, healthy set and payload), resubmission of a
  job whose replica died, hedged status polls, and SSE streams that
  fail over with the job behind a synthetic ``replica_failover`` event;
* :class:`NetworkFaultPlan` — decides, as a pure function of
  ``(seed, connection-index)``, what happens to each TCP connection:
  nothing, a refusal (RST before any bytes), a mid-body reset, a torn
  response (clean FIN mid-body, producing truncated JSON), an injected
  ``503`` with ``Retry-After``, or a latency spike.
  :meth:`NetworkFaultPlan.expected_sequence` is the replay oracle;
* :class:`ChaosProxy` — a stdlib TCP proxy that sits in front of a real
  replica (or the shared store) and enacts the plan, journalling every
  connection's fate as JSON lines;
* :func:`run_chaos` — the acceptance round: a fault-free baseline run
  versus a multi-replica run where every byte crosses fault proxies (and
  optionally one replica is killed mid-run), ending in a bit-identity
  verdict over the result payloads.

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
import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterator
from urllib.parse import urlsplit

from repro.engine.keys import derive_seed, digest, unit_draw
from repro.engine.resilience import RetryPolicy
from repro.engine.telemetry import TraceContext
from repro.errors import ServeClientError, ServeError
from repro.serve.client import ServeClient
from repro.serve.service import ExplorationService, ServiceThread

# ----------------------------------------------------------------------
# the failover client
# ----------------------------------------------------------------------


#: Statuses that mean "this replica cannot take/continue the job right
#: now, another might": connection-level (None), overload, restart-loss.
_FAILOVER_STATUSES = (None, 404, 429, 500, 502, 503, 504)


@dataclass
class JobHandle:
    """One logical job, possibly re-homed across replicas.

    ``attempts`` records every ``(replica_url, job_id)`` incarnation in
    order; the last entry is the live one.
    """

    payload: dict[str, Any]
    replica: str
    job_id: str
    key: str
    attempts: list = field(default_factory=list)
    #: The distributed-trace context minted at first submit; every
    #: incarnation (failover resubmits included) reuses it, so the trace
    #: id is constant across the job's whole cross-replica story.
    trace: TraceContext | None = None

    @property
    def trace_id(self) -> str | None:
        return self.trace.trace_id if self.trace is not None else None


class ReplicaSet:
    """A failover client over N service replicas sharing one store.

    Parameters
    ----------
    urls:
        Replica base URLs (``http://host:port``).  Order is irrelevant;
        placement is rendezvous-hashed.
    seed:
        Seed of the placement hash and of every per-replica client's
        deterministic retry backoff.
    timeout:
        Per-request timeout handed to each replica's client.
    retry:
        Transient-failure policy for the per-replica clients (each gets
        the policy reseeded per replica index, so their jitter streams
        stay disjoint but replayable).
    hedge_s:
        Status-poll hedging threshold; ``None`` disables hedging.
    probe_ttl_s:
        How long a health verdict stays fresh before re-probing.
    max_failovers:
        Total job re-homes tolerated before giving up (defaults to
        ``3 * len(urls)``).
    """

    def __init__(
        self,
        urls: list[str] | tuple[str, ...],
        seed: int = 0,
        timeout: float = 30.0,
        retry: RetryPolicy | None = None,
        hedge_s: float | None = 0.75,
        probe_ttl_s: float = 2.0,
        max_failovers: int | None = None,
    ) -> None:
        urls = tuple(dict.fromkeys(urls))  # dedupe, keep order for display
        if not urls:
            raise ServeClientError("a replica set needs at least one URL")
        self.urls = urls
        self.seed = seed
        self.hedge_s = hedge_s
        self.probe_ttl_s = probe_ttl_s
        self.max_failovers = (
            max_failovers if max_failovers is not None else 3 * len(urls)
        )
        base_retry = retry or RetryPolicy(
            max_retries=3, backoff_base_s=0.05, backoff_max_s=1.0
        )
        self.clients: dict[str, ServeClient] = {}
        self._probes: dict[str, ServeClient] = {}
        for index, url in enumerate(urls):
            self.clients[url] = ServeClient(
                url,
                timeout=timeout,
                retry=RetryPolicy(
                    max_retries=base_retry.max_retries,
                    backoff_base_s=base_retry.backoff_base_s,
                    backoff_factor=base_retry.backoff_factor,
                    backoff_max_s=base_retry.backoff_max_s,
                    jitter=base_retry.jitter,
                    seed=seed + index,
                ),
                retry_backpressure=True,
            )
            # Probes answer fast or not at all: short timeout, no retries.
            self._probes[url] = ServeClient(
                url,
                timeout=min(timeout, 2.0),
                retry=RetryPolicy(max_retries=0),
            )
        self._health = {
            url: {"ok": True, "at": float("-inf"), "error": None} for url in urls
        }
        self._lock = threading.Lock()
        self.counters = {
            "submits": 0,
            "resubmits": 0,
            "failovers": 0,
            "hedged_polls": 0,
            "set_polls": 0,
            "probes": 0,
        }

    # ------------------------------------------------------------------
    # health + placement
    # ------------------------------------------------------------------

    def probe(self, url: str) -> bool:
        """One live ``/v1/healthz`` round-trip; updates the cached verdict."""
        with self._lock:
            self.counters["probes"] += 1
        try:
            body = self._probes[url].health()
            ok = isinstance(body, dict) and body.get("status") in ("ok", "draining")
            error = None if ok else f"unexpected health body: {body!r}"
        except (ServeClientError, OSError) as exc:
            ok, error = False, str(exc)
        with self._lock:
            self._health[url] = {"ok": ok, "at": time.monotonic(), "error": error}
        return ok

    def mark_down(self, url: str, reason: str) -> None:
        """Record a replica as unhealthy without waiting for a probe."""
        with self._lock:
            self._health[url] = {
                "ok": False,
                "at": time.monotonic(),
                "error": reason,
            }

    def healthy_urls(self) -> list[str]:
        """Every replica currently believed healthy (probing stale ones).

        When *no* replica looks healthy, every one is re-probed once —
        a restarted replica rejoins here — before giving up.
        """
        now = time.monotonic()
        for url in self.urls:
            with self._lock:
                state = self._health[url]
                stale = now - state["at"] > self.probe_ttl_s
            if stale:
                self.probe(url)
        with self._lock:
            healthy = [url for url in self.urls if self._health[url]["ok"]]
        if not healthy:
            for url in self.urls:
                self.probe(url)
            with self._lock:
                healthy = [url for url in self.urls if self._health[url]["ok"]]
        if not healthy:
            with self._lock:
                reasons = {
                    url: self._health[url]["error"] for url in self.urls
                }
            raise ServeClientError(f"no healthy replicas: {reasons}")
        return healthy

    def rank(self, key: str, candidates: list[str] | None = None) -> list[str]:
        """Healthy replicas in rendezvous order for ``key`` (best first)."""
        pool = candidates if candidates is not None else self.healthy_urls()
        return sorted(
            pool,
            key=lambda url: unit_draw("replica-pick", self.seed, url, key),
            reverse=True,
        )

    def pick(self, key: str) -> str:
        """The preferred replica for ``key`` (deterministic)."""
        return self.rank(key)[0]

    def health_report(self) -> dict[str, Any]:
        with self._lock:
            return {url: dict(state) for url, state in self._health.items()}

    # ------------------------------------------------------------------
    # submit / status / result with failover
    # ------------------------------------------------------------------

    @staticmethod
    def payload_key(payload: dict[str, Any]) -> str:
        """Content digest of a job payload (the placement key)."""
        return digest(payload)

    @staticmethod
    def _is_failover(exc: ServeClientError) -> bool:
        return getattr(exc, "status", None) in _FAILOVER_STATUSES

    #: Full passes over the healthy ranking before a placement gives up.
    #: One pass can fail everywhere without any replica being down —
    #: under injected faults the per-connection streak bound protects
    #: the *proxy's* connection sequence, not any single caller's, so
    #: every candidate can lose its whole retry budget to interleaved
    #: bad luck.  A later pass re-probes and tries again.
    _placement_passes = 3

    def _place(
        self,
        payload: dict[str, Any],
        key: str,
        exclude: str | None,
        trace: TraceContext | None = None,
    ):
        """Submit ``payload`` to the best healthy replica; multi-pass walk."""
        last: ServeClientError | None = None
        for attempt in range(self._placement_passes):
            if attempt:
                time.sleep(0.2 * attempt)
            try:
                candidates = self.healthy_urls()
            except ServeClientError as exc:
                last = exc
                continue
            if exclude is not None:
                trimmed = [u for u in candidates if u != exclude]
                # The excluded replica may be the only one left (it
                # might have merely restarted) — reconsider everything.
                candidates = trimmed or candidates
            for url in self.rank(key, candidates):
                try:
                    return url, self.clients[url].submit(payload, trace=trace)
                except ServeClientError as exc:
                    if not self._is_failover(exc):
                        raise
                    last = exc
                    self.mark_down(url, str(exc))
        raise last or ServeClientError("no healthy replicas accepted the job")

    def submit(self, payload: dict[str, Any]) -> JobHandle:
        """Place one job on the best healthy replica (walking the ranking)."""
        key = self.payload_key(payload)
        trace = TraceContext.mint()
        url, submitted = self._place(payload, key, exclude=None, trace=trace)
        with self._lock:
            self.counters["submits"] += 1
        handle = JobHandle(
            payload=dict(payload),
            replica=url,
            job_id=submitted["id"],
            key=key,
            trace=trace,
        )
        handle.attempts.append((url, submitted["id"]))
        return handle

    def _failover(self, handle: JobHandle, reason: str) -> None:
        """Re-home ``handle`` onto the next healthy replica (resubmit)."""
        if len(handle.attempts) > self.max_failovers:
            raise ServeClientError(
                f"job {handle.job_id} exceeded {self.max_failovers} failovers "
                f"({reason})"
            )
        self.mark_down(handle.replica, reason)
        with self._lock:
            self.counters["failovers"] += 1
        # Resubmit under the SAME trace context: the re-run is the same
        # logical job, so its journal joins the original trace.
        url, submitted = self._place(
            handle.payload, handle.key, exclude=handle.replica, trace=handle.trace
        )
        with self._lock:
            self.counters["resubmits"] += 1
        handle.replica = url
        handle.job_id = submitted["id"]
        handle.attempts.append((url, submitted["id"]))

    def _with_failover(self, handle: JobHandle, call):
        """Run ``call(client, job_id)``, re-homing the job on replica loss."""
        while True:
            try:
                return call(self.clients[handle.replica], handle.job_id)
            except ServeClientError as exc:
                if not self._is_failover(exc):
                    raise
                self._failover(handle, str(exc))

    def status(self, handle: JobHandle) -> dict[str, Any]:
        return self._with_failover(handle, lambda c, j: c.status(j))

    def result(self, handle: JobHandle) -> dict[str, Any]:
        return self._with_failover(handle, lambda c, j: c.result(j))

    # ------------------------------------------------------------------
    # waiting (hedged polls)
    # ------------------------------------------------------------------

    def _hedged_status(self, handle: JobHandle) -> dict[str, Any]:
        """One status poll, hedged with a second connection when slow.

        Both attempts target the job's current replica (hedging defeats
        a slow/wedged *connection*; a dead *replica* is the failover
        path's job).  The first successful answer wins; if both fail the
        failure propagates to the failover logic.  Attempts run on
        daemon threads: an abandoned straggler never blocks shutdown.
        """
        client = self.clients[handle.replica]
        job_id = handle.job_id
        if self.hedge_s is None:
            return client.status(job_id)
        answers: "queue.Queue[tuple[str, Any]]" = queue.Queue()

        def attempt() -> None:
            try:
                answers.put(("ok", client.status(job_id)))
            except Exception as exc:  # handed back to the caller below
                answers.put(("error", exc))

        threading.Thread(
            target=attempt, name="repro-replica-poll", daemon=True
        ).start()
        launched = 1
        try:
            kind, value = answers.get(timeout=self.hedge_s)
        except queue.Empty:
            with self._lock:
                self.counters["hedged_polls"] += 1
            threading.Thread(
                target=attempt, name="repro-replica-hedge", daemon=True
            ).start()
            launched = 2
            kind, value = self._await_answer(answers, client, job_id)
        if kind == "ok":
            return value
        if launched == 2:
            # The first answer was a failure; the other attempt may
            # still come through.
            kind, value = self._await_answer(answers, client, job_id)
            if kind == "ok":
                return value
        raise value

    def _await_answer(self, answers, client: ServeClient, job_id: str):
        """Next attempt outcome, bounded by the client's worst case."""
        worst = (client.retry.max_retries + 1) * client.timeout + 10.0
        try:
            return answers.get(timeout=worst)
        except queue.Empty:
            return (
                "error",
                ServeClientError(
                    f"hedged status poll for {job_id} produced no answer "
                    f"within {worst:.0f}s"
                ),
            )

    def wait(
        self,
        handle: JobHandle,
        timeout: float = 300.0,
        poll_s: float = 0.05,
        max_poll_s: float = 1.0,
        backoff: float = 1.6,
    ) -> dict[str, Any]:
        """Poll (with hedging + failover) until the job finishes."""
        deadline = time.monotonic() + timeout
        interval = max(poll_s, 0.001)
        while True:
            with self._lock:
                self.counters["set_polls"] += 1
            try:
                status = self._hedged_status(handle)
            except ServeClientError as exc:
                if not self._is_failover(exc):
                    raise
                self._failover(handle, str(exc))
                continue
            if status["state"] in ("completed", "failed"):
                return self.result(handle)
            if time.monotonic() > deadline:
                raise ServeClientError(
                    f"job {handle.job_id} still {status['state']} "
                    f"after {timeout:.0f}s"
                )
            time.sleep(interval)
            interval = min(interval * backoff, max_poll_s)

    # ------------------------------------------------------------------
    # SSE with failover
    # ------------------------------------------------------------------

    def events(
        self, handle: JobHandle, timeout: float = 300.0
    ) -> Iterator[dict[str, Any]]:
        """Yield the job's journal events, surviving replica loss.

        Same-replica drops resume losslessly from the last seen event id
        (the service's ``Last-Event-ID`` contract).  When the replica is
        gone, the job fails over — the re-run journals from scratch, so
        the stream restarts at sequence 1 after a synthetic
        ``{"event": "replica_failover"}`` marker.
        """
        deadline = time.monotonic() + timeout
        after = 0
        while True:
            incarnation = (handle.replica, handle.job_id)
            client = self.clients[handle.replica]
            dropped: Exception | None = None
            try:
                for event in client.events(
                    handle.job_id,
                    after_seq=after,
                    reconnect=False,
                    timeout=max(deadline - time.monotonic(), 0.1),
                ):
                    after = max(after, int(event.get("seq", after)))
                    yield event
            except ServeClientError as exc:
                if not self._is_failover(exc):
                    raise
                dropped = exc
            if dropped is None:
                # The stream closed; completed streams end with the
                # server's terminator, but a mid-job drop looks the
                # same — only the job state can tell them apart.  The
                # status call may itself re-home the job (its replica
                # died after closing the stream) — detected below by
                # the incarnation check.
                if self.status(handle)["state"] in ("completed", "failed") and (
                    handle.replica,
                    handle.job_id,
                ) == incarnation:
                    return
            if time.monotonic() > deadline:
                raise ServeClientError(
                    f"event stream for {handle.job_id} incomplete "
                    f"after {timeout:.0f}s"
                )
            if (
                dropped is not None
                and (handle.replica, handle.job_id) == incarnation
                and not self.probe(handle.replica)
            ):
                self._failover(handle, str(dropped))
            if (handle.replica, handle.job_id) != incarnation:
                # The job was re-homed (by the drop path above or inside
                # a failover-wrapped status call): the re-run journals
                # from scratch, so restart the cursor and mark the seam.
                after = 0
                yield {
                    "event": "replica_failover",
                    "from": incarnation[0],
                    "to": handle.replica,
                    "job": handle.job_id,
                    "trace_id": handle.trace_id,
                }
            else:
                time.sleep(0.05)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def counters_snapshot(self) -> dict[str, int]:
        """Set-level counters plus the per-replica and probe clients' sums."""
        with self._lock:
            merged = dict(self.counters)
        clients = [*self.clients.values(), *self._probes.values()]
        for name in ("requests", "retries", "retry_after_waits", "polls",
                     "reconnects"):
            merged[name] = sum(c.counters[name] for c in clients)
        return merged


# ----------------------------------------------------------------------
# the fault plan and the proxy that enacts it
# ----------------------------------------------------------------------


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

    def reseeded(self, index: int) -> "NetworkFaultPlan":
        """An equal-rates plan with a derived seed (per-proxy streams)."""
        return replace(self, seed=derive_seed(self.seed, index=index))


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
    """Outcome of one :func:`run_chaos` round."""

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
