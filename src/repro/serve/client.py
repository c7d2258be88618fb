"""Stdlib HTTP client for the exploration service (``repro client``).

A thin, dependency-free wrapper over :mod:`http.client`: submit jobs,
poll status, fetch results, and iterate SSE progress events — including
transparent reconnect-with-``Last-Event-ID``, so a dropped stream
resumes from the journal without duplicating or losing events.  The
benchmark's serve workload and the service's own tests drive the API
through this client, so it stays honest.

The client is *transient-fault tolerant*: connection refusals/resets,
torn responses and timeouts are retried through the engine's
:class:`~repro.engine.resilience.RetryPolicy` with deterministic seeded
backoff, and 429/503 responses are retried after the server's
``Retry-After``.  Non-retryable trouble — a bad URL, DNS failure, any
other 4xx — fails fast.  :attr:`counters` tracks requests, retries,
polls and honoured Retry-After waits; ``repro client`` surfaces them.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any, Iterator
from urllib.parse import urlsplit

from ..engine.keys import derive_seed
from ..engine.resilience import RetryPolicy, parse_retry_after
from ..engine.telemetry import TRACEPARENT_HEADER, TraceContext
from ..errors import ServeClientError

#: Statuses retried after the server's Retry-After (or the backoff ramp).
RETRYABLE_STATUSES = (429, 503)

#: Cap on a single honoured Retry-After sleep; a server asking for more
#: still gets polled again within this bound (it can always re-ask).
MAX_RETRY_AFTER_S = 5.0


def _retry_after_s(headers: dict[str, str]) -> float | None:
    """The ``Retry-After`` delay a response asked for, capped, if any."""
    seconds = parse_retry_after(headers)
    return None if seconds is None else min(seconds, MAX_RETRY_AFTER_S)


class ServeClient:
    """Talk to one service replica at ``base_url``.

    Parameters
    ----------
    base_url:
        ``http://host:port`` of the replica.
    timeout:
        Per-request connect/read timeout in seconds.
    retry:
        Transient-failure policy (deterministic backoff).  The default
        derives its jitter seed from ``seed`` via
        :func:`~repro.engine.keys.derive_seed`, so replayed chaos runs
        sleep identically.
    retry_backpressure:
        When True, 429/503 responses are retried after the server's
        ``Retry-After`` instead of raising.  Off by default: a plain
        client surfaces backpressure to its caller; a failover client
        over several replicas turns it on.
    propagate_trace:
        When True (the default), :meth:`submit` mints a W3C-style trace
        context (or reuses one handed in) and sends ``traceparent`` on
        the submit and on every follow-up call for that job — status,
        result, SSE — so the service journals carry one fleet-wide
        trace id per submission.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retry: RetryPolicy | None = None,
        seed: int = 0,
        retry_backpressure: bool = False,
        propagate_trace: bool = True,
    ) -> None:
        split = urlsplit(base_url)
        if split.scheme != "http" or not split.hostname:
            raise ServeClientError(
                f"base_url must look like http://host:port, got {base_url!r}"
            )
        self.base_url = base_url
        self.host = split.hostname
        self.port = split.port or 80
        self.timeout = timeout
        self.retry = retry or RetryPolicy(
            max_retries=3,
            backoff_base_s=0.05,
            backoff_max_s=1.0,
            seed=derive_seed(seed),
        )
        self.retry_backpressure = retry_backpressure
        self.propagate_trace = propagate_trace
        #: job id -> the TraceContext minted (or supplied) at submit.
        self.traces: dict[str, TraceContext] = {}
        #: Headers of the most recent response (lower-cased names).
        self.last_headers: dict[str, str] = {}
        #: Monotonic client-side telemetry (``repro_client_*`` territory).
        self.counters = {
            "requests": 0,
            "retries": 0,
            "retry_after_waits": 0,
            "polls": 0,
            "reconnects": 0,
        }

    # -- plumbing -------------------------------------------------------

    def _once(
        self,
        method: str,
        path: str,
        body: Any = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], Any]:
        """One HTTP exchange: ``(status, headers, decoded-body)``.

        Raises ``OSError``/``http.client.HTTPException`` on transport
        trouble (the retry loop's food) and ``ServeClientError`` only
        for a bad hostname (configuration, fail fast).
        """
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            payload = None
            send_headers = dict(headers or {})
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                send_headers["Content-Type"] = "application/json"
            try:
                conn.request(method, path, body=payload, headers=send_headers)
                response = conn.getresponse()
                raw = response.read()
            except socket.gaierror as exc:
                raise ServeClientError(
                    f"cannot resolve service host {self.host!r} ({exc})"
                ) from exc
            response_headers = {
                name.lower(): value for name, value in response.getheaders()
            }
            if (
                response.status != 204
                and "content-length" not in response_headers
                and not response_headers.get("transfer-encoding")
            ):
                # The service always declares Content-Length; a response
                # without it is a head torn mid-headers (http.client
                # happily parses EOF as end-of-headers) — transport
                # fault, not an empty body.
                raise http.client.HTTPException(
                    f"headerless response from {method} {path} (torn head)"
                )
            try:
                decoded = json.loads(raw.decode("utf-8")) if raw else None
            except ValueError as exc:
                if "json" in response_headers.get("content-type", ""):
                    # A declared-JSON body that does not parse is a torn
                    # response (truncation mid-body) — transport fault.
                    raise http.client.HTTPException(
                        f"torn JSON body from {method} {path}"
                    ) from exc
                decoded = raw.decode("utf-8", errors="replace")
            return response.status, response_headers, decoded
        finally:
            conn.close()

    def _request(
        self,
        method: str,
        path: str,
        body: Any = None,
        headers: dict[str, str] | None = None,
        expect: tuple[int, ...] = (200, 202),
    ) -> tuple[int, Any]:
        """One API call with transient-failure retries.

        Connection-level failures (refused, reset, timeout, torn
        responses) and 429/503 responses are retried with deterministic
        backoff — 429/503 honouring the server's ``Retry-After`` as a
        floor.  Every other unexpected status raises immediately.
        """
        attempt = 0
        while True:
            self.counters["requests"] += 1
            try:
                status, response_headers, decoded = self._once(
                    method, path, body, headers
                )
            except (OSError, http.client.HTTPException) as exc:
                if attempt >= self.retry.max_retries:
                    raise ServeClientError(
                        f"cannot reach service at {self.host}:{self.port} "
                        f"after {attempt + 1} attempts ({exc})"
                    ) from exc
                attempt += 1
                self.counters["retries"] += 1
                time.sleep(self.retry.delay_s(f"{method} {path}", attempt))
                continue
            self.last_headers = response_headers
            if status in expect:
                return status, decoded
            message = (
                decoded.get("error", str(decoded))
                if isinstance(decoded, dict)
                else str(decoded)
            )
            if (
                status in RETRYABLE_STATUSES
                and self.retry_backpressure
                and attempt < self.retry.max_retries
            ):
                attempt += 1
                self.counters["retries"] += 1
                retry_after = _retry_after_s(response_headers)
                if retry_after is not None:
                    self.counters["retry_after_waits"] += 1
                delay = self.retry.delay_s(f"{method} {path}", attempt)
                time.sleep(max(delay, retry_after or 0.0))
                continue
            raise ServeClientError(
                f"{method} {path} -> {status}: {message}", status=status
            )

    # -- API ------------------------------------------------------------

    def health(self) -> dict[str, Any]:
        return self._request("GET", "/v1/healthz")[1]

    def stats(self) -> dict[str, Any]:
        return self._request("GET", "/v1/stats")[1]

    def metrics_json(self) -> dict[str, Any]:
        return self._request("GET", "/v1/metrics?format=json")[1]

    def _trace_headers(self, job_id: str | None) -> dict[str, str]:
        """The ``traceparent`` header for a known job's trace (or none)."""
        if job_id is None:
            return {}
        context = self.traces.get(job_id)
        if context is None:
            return {}
        return {TRACEPARENT_HEADER: context.header()}

    def submit(
        self, payload: dict[str, Any], trace: TraceContext | None = None
    ) -> dict[str, Any]:
        """Submit one job; returns the 202 body (id, state, links).

        With :attr:`propagate_trace` on, a trace context is minted (or
        ``trace`` reused — failover resubmits keep their original trace
        id) and sent as ``traceparent``; the mapping from the returned
        job id to its context is kept so follow-up calls carry it too.
        """
        headers: dict[str, str] = {}
        context: TraceContext | None = None
        if self.propagate_trace:
            context = trace if trace is not None else TraceContext.mint()
            headers[TRACEPARENT_HEADER] = context.header()
        body = self._request(
            "POST", "/v1/jobs", body=payload, headers=headers, expect=(202,)
        )[1]
        if context is not None and isinstance(body, dict) and body.get("id"):
            self.traces[body["id"]] = context
        return body

    def list_jobs(self) -> list[dict[str, Any]]:
        return self._request("GET", "/v1/jobs")[1]["jobs"]

    def status(self, job_id: str) -> dict[str, Any]:
        return self._request(
            "GET", f"/v1/jobs/{job_id}", headers=self._trace_headers(job_id)
        )[1]

    def result(self, job_id: str) -> dict[str, Any]:
        """The finished job record (raises 409 ServeClientError while pending)."""
        return self._request(
            "GET",
            f"/v1/jobs/{job_id}/result",
            headers=self._trace_headers(job_id),
        )[1]

    def wait(
        self,
        job_id: str,
        timeout: float = 300.0,
        poll_s: float = 0.05,
        max_poll_s: float = 1.0,
        backoff: float = 1.6,
    ) -> dict[str, Any]:
        """Poll until the job finishes; returns the full result record.

        The poll interval starts at ``poll_s`` and backs off by
        ``backoff`` up to ``max_poll_s`` — a saturated service is not
        hammered by waiting clients — and any ``Retry-After`` the
        server sends (429/503 mid-poll, or on the status response)
        takes precedence over the local ramp.  Poll/retry counts
        accumulate in :attr:`counters` (``repro client`` prints them).
        """
        deadline = time.monotonic() + timeout
        interval = max(poll_s, 0.001)
        while True:
            self.counters["polls"] += 1
            status = self.status(job_id)
            if status["state"] in ("completed", "failed"):
                return self.result(job_id)
            if time.monotonic() > deadline:
                raise ServeClientError(
                    f"job {job_id} still {status['state']} after {timeout:.0f}s"
                )
            retry_after = _retry_after_s(self.last_headers)
            if retry_after is not None:
                self.counters["retry_after_waits"] += 1
            time.sleep(retry_after if retry_after is not None else interval)
            interval = min(interval * backoff, max_poll_s)

    # -- SSE ------------------------------------------------------------

    def events(
        self,
        job_id: str,
        after_seq: int = 0,
        reconnect: bool = True,
        timeout: float = 300.0,
    ) -> Iterator[dict[str, Any]]:
        """Yield the job's journal events as dicts, in sequence order.

        The stream ends when the service closes it (job finished).  With
        ``reconnect=True`` a dropped connection resumes transparently
        from the last seen event id — the SSE contract under test in the
        bridge suite.
        """
        last_seen = after_seq
        deadline = time.monotonic() + timeout
        while True:
            try:
                saw_end = yield from self._stream_once(job_id, last_seen)
            except ServeClientError:
                raise
            except (OSError, http.client.HTTPException) as exc:
                if not reconnect:
                    raise ServeClientError(f"event stream dropped ({exc})") from exc
                self.counters["reconnects"] += 1
                saw_end = False
            if saw_end:
                return
            if not reconnect or time.monotonic() > deadline:
                return
            last_seen = max(last_seen, self._last_yielded)
            time.sleep(0.05)

    _last_yielded = 0

    def _stream_once(self, job_id: str, after_seq: int) -> Iterator[dict[str, Any]]:
        """One SSE connection; returns True when the server ended the stream."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            headers = dict(self._trace_headers(job_id))
            if after_seq:
                headers["Last-Event-ID"] = str(after_seq)
            conn.request("GET", f"/v1/jobs/{job_id}/events", headers=headers)
            response = conn.getresponse()
            if response.status != 200:
                raise ServeClientError(
                    f"event stream for {job_id} -> {response.status}",
                    status=response.status,
                )
            buffer = b""
            while True:
                chunk = response.read1(65536)
                if not chunk:
                    return False  # connection dropped without the end marker
                buffer += chunk
                while b"\n\n" in buffer:
                    frame, buffer = buffer.split(b"\n\n", 1)
                    if frame.startswith(b":"):
                        return True  # ": stream complete" terminator
                    event = _parse_frame(frame.decode("utf-8"))
                    if event is not None:
                        self._last_yielded = event.get("seq", self._last_yielded)
                        yield event
        finally:
            conn.close()


def _parse_frame(frame: str) -> dict[str, Any] | None:
    """Decode one SSE frame's ``data:`` payload (None for non-data frames)."""
    data_lines = [
        line[5:].lstrip() for line in frame.splitlines() if line.startswith("data:")
    ]
    if not data_lines:
        return None
    try:
        return json.loads("\n".join(data_lines))
    except ValueError:
        return None
