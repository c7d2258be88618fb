"""Deterministic fault injection for the engine's worker pool.

Real failures — a worker dies, a worker hangs, the pool breaks — happen
only in pooled :meth:`~repro.engine.pool.EvaluationEngine.map` tasks,
and resilience code that only real crashes exercise is dead code until
the day it matters.  This module makes those failures *injectable on
demand and exactly reproducible*:

* a :class:`FaultPlan` decides, as a pure function of ``(seed, key,
  attempt)``, whether one attempt of map task ``map:<index>`` crashes
  or hangs.  The same plan replays the same faults in every process,
  on every run — a failing fault-matrix test can be re-run
  bit-for-bit;
* :func:`enact`, called by the pool worker before it runs the task,
  performs the decided fault: raising :class:`InjectedCrash`, sleeping
  through the parent's deadline and raising :class:`InjectedHang`, or
  (with ``hard_crash``) killing the worker process outright so the
  parent really sees a broken pool.

Plans are wired in through ``EvaluationEngine(faults=...)`` or the
CLI's ``--inject-faults`` flag (see :meth:`FaultPlan.parse` for the
spec format); either needs an engine with more than one worker.

Faults are *bounded*: after ``max_faults_per_key`` injections on one
key the plan stops faulting that key, so a run with retries
enabled always completes — and, because retries re-run the same
deterministic task, completes with results bit-identical to a
fault-free run.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from ..errors import EngineError
from .keys import unit_draw

#: Fault kinds a plan can inject.
CRASH = "crash"
HANG = "hang"

#: Exit status used by ``hard_crash`` worker deaths (diagnosable in CI logs).
CRASH_EXIT_CODE = 173


class InjectedFault(Exception):
    """Base class of all injected failures (never raised organically)."""


class InjectedCrash(InjectedFault):
    """An injected worker/task crash."""


class InjectedHang(InjectedFault):
    """An injected hang (the task overran its deadline)."""


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, replayable schedule of map-task faults.

    Whether attempt ``n`` of task ``key`` faults — and how — is a pure
    function of ``(seed, key, n)``: a SHA-256 draw in ``[0, 1)`` is
    compared against the cumulative ``crash``/``hang`` rates.  Retries
    use fresh attempt numbers and therefore fresh draws.

    Parameters
    ----------
    seed:
        Replay seed; two plans with equal fields inject identical faults.
    crash, hang:
        Per-attempt injection probabilities (their sum must be <= 1).
    hang_seconds:
        How long an injected hang sleeps before raising.
    max_faults_per_key:
        Injection budget per task key; once spent, that key runs
        clean, guaranteeing forward progress under retries.
    hard_crash:
        When true, an injected crash calls ``os._exit`` (really
        breaking the pool) instead of raising :class:`InjectedCrash`.
    """

    seed: int = 0
    crash: float = 0.0
    hang: float = 0.0
    hang_seconds: float = 0.25
    max_faults_per_key: int = 2
    hard_crash: bool = False

    def __post_init__(self) -> None:
        for name, rate in (("crash", self.crash), ("hang", self.hang)):
            if not 0.0 <= rate <= 1.0:
                raise EngineError(f"fault rate {name} must be in [0, 1]: {rate}")
        if self.crash + self.hang > 1.0 + 1e-12:
            raise EngineError("fault rates must sum to at most 1")
        if self.hang_seconds < 0:
            raise EngineError(f"hang_seconds cannot be negative: {self.hang_seconds}")
        if self.max_faults_per_key < 0:
            raise EngineError(
                f"max_faults_per_key cannot be negative: {self.max_faults_per_key}"
            )

    # ------------------------------------------------------------------
    # decisions (pure)
    # ------------------------------------------------------------------

    def _draw(self, key: str, attempt: int) -> str | None:
        """The raw (budget-blind) fault drawn for one attempt."""
        unit = unit_draw(self.seed, key, attempt)
        if unit < self.crash:
            return CRASH
        if unit < self.crash + self.hang:
            return HANG
        return None

    def fault_for(self, key: str, attempt: int) -> str | None:
        """The fault (if any) injected into attempt ``attempt`` of ``key``.

        Drawn faults respect the per-key budget.  Attempts are assumed
        sequential per key (the engine retries with ``attempt + 1``), so
        the budget spent so far is recomputed purely from earlier draws.
        """
        spent = 0
        for earlier in range(attempt):
            if spent >= self.max_faults_per_key:
                break
            if self._draw(key, earlier) is not None:
                spent += 1
        if spent >= self.max_faults_per_key:
            return None
        return self._draw(key, attempt)

    def expected_faults(self, key: str, max_attempts: int = 64) -> list[str]:
        """The exact fault sequence a retrying caller will see for ``key``.

        Walks attempts 0, 1, ... collecting injected faults until the
        first clean attempt — the sequence of ``retry`` events the pool
        emits for this task (tests assert against it).
        """
        faults = []
        for attempt in range(max_attempts):
            kind = self.fault_for(key, attempt)
            if kind is None:
                return faults
            faults.append(kind)
        return faults

    @property
    def active(self) -> bool:
        """Whether this plan can inject anything at all."""
        return self.crash + self.hang > 0.0

    # ------------------------------------------------------------------
    # CLI spec
    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a ``--inject-faults`` spec string.

        Format: comma-separated ``key=value`` settings, e.g.
        ``"seed=7,crash=0.1,hang=0.05,hang-seconds=0.2,max-per-key=2,hard"``.
        Unknown settings are rejected so typos cannot silently disable
        injection.
        """
        kwargs: dict[str, object] = {}
        fields = {
            "seed": ("seed", int),
            "crash": ("crash", float),
            "hang": ("hang", float),
            "hang-seconds": ("hang_seconds", float),
            "max-per-key": ("max_faults_per_key", int),
        }
        for part in filter(None, (p.strip() for p in spec.split(","))):
            if part == "hard":
                kwargs["hard_crash"] = True
                continue
            name, eq, raw = part.partition("=")
            if not eq or name not in fields:
                raise EngineError(
                    f"bad fault spec entry {part!r}; known: "
                    f"{', '.join(fields)}, hard"
                )
            attr, cast = fields[name]
            try:
                kwargs[attr] = cast(raw)
            except ValueError as exc:
                raise EngineError(f"bad fault spec value {part!r}: {exc}") from exc
        return cls(**kwargs)  # type: ignore[arg-type]


def enact(plan: FaultPlan, key: str, attempt: int) -> None:
    """Perform the fault the plan schedules for this attempt, if any.

    Called by the pool worker before it runs map task ``key``.
    ``crash`` raises :class:`InjectedCrash`, or kills the worker process
    outright when the plan asks for hard crashes.  ``hang`` sleeps
    ``hang_seconds`` and then raises :class:`InjectedHang`: the parent's
    per-task timeout fires first when the hang overruns it.
    """
    kind = plan.fault_for(key, attempt)
    if kind == CRASH:
        if plan.hard_crash:
            os._exit(CRASH_EXIT_CODE)
        raise InjectedCrash(f"injected crash (key {key[:12]}, attempt {attempt})")
    if kind == HANG:
        time.sleep(plan.hang_seconds)
        raise InjectedHang(f"injected hang (key {key[:12]}, attempt {attempt})")
