"""Fair-share admission and dispatch for the exploration service.

One service hosts many tenants; exploration jobs are seconds-to-minutes
long, so ordering is policy, not an accident of arrival.  The scheduler
enforces three rules, all thread-safe (submissions arrive on connection
threads, claims and completions on the service's job-slot threads):

* **bounded queues** — each tenant gets a bounded FIFO and the service a
  global bound; an admission over either limit raises
  :class:`~repro.errors.QueueFullError`, which the HTTP layer turns into
  an explicit ``429 Retry-After`` instead of unbounded buffering;
* **fair dispatch** — ready jobs are picked round-robin across tenants
  (deterministic: alphabetical ring, rotating cursor), so one tenant
  bulk-submitting cannot starve another's single job;
* **per-tenant caps** — at most ``max_running`` jobs per tenant execute
  concurrently, and a tenant-wide :class:`SearchBudget` cap is merged
  (field-wise minimum) into every job's requested budget, reusing the
  search layer's budget machinery as the service's resource-limit
  vocabulary.

Queue depth and running counts are exported as gauges by the service
(see :mod:`repro.serve.service`).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any

from ..errors import QueueFullError, ServeError
from ..search import SearchBudget
from .jobs import Job, merge_budgets


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant limits (one policy applies to every tenant uniformly).

    ``budget`` is the tenant-wide per-job evaluation cap: merged into
    each job's own requested budget so a tenant can never *loosen* the
    service's limit, only tighten it further.
    """

    max_queued: int = 16
    max_running: int = 2
    budget: SearchBudget | None = None

    @classmethod
    def parse(cls, spec: str | None) -> "TenantPolicy":
        """Parse a ``--tenant-budget`` spec like
        ``'queued=16,running=2,evals=5000,moves=8000,patience=500'``."""
        if not spec:
            return cls()
        fields: dict[str, int] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            name, sep, value = part.partition("=")
            if not sep:
                raise ServeError(
                    f"malformed tenant budget part {part!r} (want name=value)"
                )
            try:
                fields[name.strip()] = int(value)
            except ValueError:
                raise ServeError(
                    f"tenant budget {name.strip()!r} must be an integer, "
                    f"got {value!r}"
                ) from None
        unknown = set(fields) - {"queued", "running", "evals", "moves", "patience"}
        if unknown:
            raise ServeError(
                f"unknown tenant budget fields: {', '.join(sorted(unknown))}; "
                "known: queued, running, evals, moves, patience"
            )
        budget = None
        if any(k in fields for k in ("evals", "moves", "patience")):
            budget = SearchBudget(
                max_evaluations=fields.get("evals"),
                max_moves=fields.get("moves"),
                plateau_patience=fields.get("patience"),
            )
        return cls(
            max_queued=fields.get("queued", cls.max_queued),
            max_running=fields.get("running", cls.max_running),
            budget=budget,
        )


class FairShareScheduler:
    """Bounded multi-tenant job queue with round-robin dispatch."""

    def __init__(
        self, policy: TenantPolicy | None = None, max_total_queued: int = 64
    ) -> None:
        self.policy = policy if policy is not None else TenantPolicy()
        self.max_total_queued = max_total_queued
        self._queues: dict[str, deque[Job]] = {}
        self._running: dict[str, int] = {}
        self._cursor = 0
        self._lock = threading.Lock()
        #: Wakes slots blocked in :meth:`take` (shares the one lock).
        self._ready = threading.Condition(self._lock)
        self._closed = False

    # -- admission ------------------------------------------------------

    def submit(self, job: Job) -> None:
        """Admit one job, or raise :class:`QueueFullError` (HTTP 429)."""
        with self._lock:
            if self._closed:
                raise QueueFullError("service is draining; not accepting jobs")
            total = sum(len(q) for q in self._queues.values())
            if total >= self.max_total_queued:
                raise QueueFullError(
                    f"service queue is full ({total} jobs waiting)",
                    retry_after_s=2.0,
                )
            queue = self._queues.setdefault(job.tenant, deque())
            if len(queue) >= self.policy.max_queued:
                raise QueueFullError(
                    f"tenant {job.tenant!r} queue is full "
                    f"({len(queue)}/{self.policy.max_queued} jobs waiting)",
                    retry_after_s=1.0,
                )
            # The tenant cap is applied at admission so the job record
            # (and its SSE stream) shows the budget that actually ran.
            job.spec = job.spec.with_budget(
                merge_budgets(job.spec.budget, self.policy.budget)
            )
            queue.append(job)
            self._ready.notify()

    # -- dispatch -------------------------------------------------------

    def next_job(self) -> Job | None:
        """The next ready job under fair-share order, or ``None``.

        Tenants are visited round-robin from a rotating cursor over the
        sorted tenant ring; a tenant at its ``max_running`` cap is
        skipped.  Claiming increments the tenant's running count — pair
        every claim with :meth:`job_finished`.
        """
        with self._lock:
            return self._claim()

    def take(self) -> Job | None:
        """Block until :meth:`next_job` has a job; ``None`` once draining.

        :meth:`submit` and :meth:`job_finished` each make at most one
        more claim possible and wake one waiter; :meth:`drain` wakes all.
        """
        job = None
        with self._ready:
            while not self._closed and (job := self._claim()) is None:
                self._ready.wait()
        return job

    def _claim(self) -> Job | None:
        ring = sorted(name for name, q in self._queues.items() if q)
        if not ring:
            return None
        start = self._cursor % len(ring)
        for step in range(len(ring)):
            tenant = ring[(start + step) % len(ring)]
            if self._running.get(tenant, 0) >= self.policy.max_running:
                continue
            job = self._queues[tenant].popleft()
            self._running[tenant] = self._running.get(tenant, 0) + 1
            self._cursor = (start + step + 1) % len(ring)
            return job
        return None

    def job_finished(self, tenant: str) -> None:
        """Release one running slot for ``tenant``."""
        with self._lock:
            count = self._running.get(tenant, 0)
            if count <= 1:
                self._running.pop(tenant, None)
            else:
                self._running[tenant] = count - 1
            self._ready.notify()

    # -- shutdown / introspection --------------------------------------

    def drain(self) -> list[Job]:
        """Stop admissions and return every still-queued job."""
        with self._lock:
            self._closed = True
            self._ready.notify_all()
            remaining = [job for q in self._queues.values() for job in q]
            self._queues.clear()
            return remaining

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._closed

    def depths(self) -> dict[str, Any]:
        """Queue and running counts, total and per tenant."""
        with self._lock:
            per_tenant = {
                tenant: {
                    "queued": len(self._queues.get(tenant, ())),
                    "running": self._running.get(tenant, 0),
                }
                for tenant in sorted(set(self._queues) | set(self._running))
            }
            return {
                "queued": sum(len(q) for q in self._queues.values()),
                "running": sum(self._running.values()),
                "tenants": per_tenant,
            }
