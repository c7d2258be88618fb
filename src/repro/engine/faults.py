"""Deterministic fault injection for the evaluation engine.

Resilience code that is only exercised by real worker crashes is dead
code until the day it matters — and then it matters a lot.  This module
makes every failure mode the engine defends against *injectable on
demand and exactly reproducible*:

* a :class:`FaultPlan` decides, as a pure function of ``(seed, key,
  attempt)``, whether one attempt crashes, hangs, or returns a
  corrupted result.  Keys are evaluation keys for in-process
  evaluations and ``map:<index>`` for pooled map tasks (where a
  ``wrong_result`` draw does nothing).  The same plan replays the same faults in every
  process, on every run — a failing fault-matrix test can be re-run
  bit-for-bit;
* :func:`enact` performs the decided fault: raising
  :class:`InjectedCrash`, sleeping through the caller's deadline and
  raising :class:`InjectedHang`, or (with ``hard_crash``) killing the
  worker process outright so the parent really sees a broken pool;
* :func:`corrupt_result` mangles a :class:`~repro.sim.metrics.SimResult`
  in a way the engine's integrity validation is guaranteed to catch.

Plans are wired in through ``EvaluationEngine(faults=...)``, the CLI's
``--inject-faults`` flag, or the ``REPRO_INJECT_FAULTS`` environment
variable (see :meth:`FaultPlan.parse` for the spec format).

Faults are *bounded*: after ``max_faults_per_key`` injections on one
key the plan stops faulting that key, so a run with retries
enabled always completes — and, because retries re-run the genuine
deterministic simulator, completes with results bit-identical to a
fault-free run.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace

from ..errors import EngineError
from ..sim.metrics import SimResult
from .keys import unit_draw

#: Fault kinds a plan can inject.
CRASH = "crash"
HANG = "hang"
WRONG_RESULT = "wrong_result"
KINDS = (CRASH, HANG, WRONG_RESULT)

#: Exit status used by ``hard_crash`` worker deaths (diagnosable in CI logs).
CRASH_EXIT_CODE = 173


class InjectedFault(Exception):
    """Base class of all injected failures (never raised organically)."""


class InjectedCrash(InjectedFault):
    """An injected worker/task crash."""


class InjectedHang(InjectedFault):
    """An injected hang (the evaluation overran its deadline)."""


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, replayable schedule of evaluation faults.

    Whether attempt ``n`` of evaluation ``key`` faults — and how — is a
    pure function of ``(seed, key, n)``: a SHA-256 draw in ``[0, 1)`` is
    compared against the cumulative ``crash``/``hang``/``wrong_result``
    rates.  Retries use fresh attempt numbers and therefore fresh draws.

    Parameters
    ----------
    seed:
        Replay seed; two plans with equal fields inject identical faults.
    crash, hang, wrong_result:
        Per-attempt injection probabilities (their sum must be <= 1).
    hang_seconds:
        How long an injected hang sleeps before raising.
    max_faults_per_key:
        Injection budget per evaluation key; once spent, that key runs
        clean, guaranteeing forward progress under retries.
    hard_crash:
        When true, a crash inside a worker process calls ``os._exit``
        (really breaking the pool) instead of raising
        :class:`InjectedCrash`.
    overrides:
        Explicit ``(key, attempt, kind)`` triples that fire regardless of
        rates or budget — for tests that target one exact evaluation.
    """

    seed: int = 0
    crash: float = 0.0
    hang: float = 0.0
    wrong_result: float = 0.0
    hang_seconds: float = 0.25
    max_faults_per_key: int = 2
    hard_crash: bool = False
    overrides: tuple[tuple[str, int, str], ...] = ()

    def __post_init__(self) -> None:
        for name, rate in (
            ("crash", self.crash), ("hang", self.hang),
            ("wrong_result", self.wrong_result),
        ):
            if not 0.0 <= rate <= 1.0:
                raise EngineError(f"fault rate {name} must be in [0, 1]: {rate}")
        if self.crash + self.hang + self.wrong_result > 1.0 + 1e-12:
            raise EngineError("fault rates must sum to at most 1")
        if self.hang_seconds < 0:
            raise EngineError(f"hang_seconds cannot be negative: {self.hang_seconds}")
        if self.max_faults_per_key < 0:
            raise EngineError(
                f"max_faults_per_key cannot be negative: {self.max_faults_per_key}"
            )
        for entry in self.overrides:
            if len(entry) != 3 or entry[2] not in KINDS:
                raise EngineError(f"malformed fault override: {entry!r}")

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
        if unit < self.crash + self.hang + self.wrong_result:
            return WRONG_RESULT
        return None

    def fault_for(self, key: str, attempt: int) -> str | None:
        """The fault (if any) injected into attempt ``attempt`` of ``key``.

        Overrides fire unconditionally; rate-drawn faults respect the
        per-key budget.  Attempts are assumed sequential per key (the
        engine retries with ``attempt + 1``), so the budget spent so far
        is recomputed purely from earlier draws.
        """
        for over_key, over_attempt, kind in self.overrides:
            if over_key == key and over_attempt == attempt:
                return kind
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
        first clean attempt — the sequence of ``retry`` events a serial
        engine emits for this key (tests assert against it).
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
        return bool(
            self.overrides
        ) or (self.crash + self.hang + self.wrong_result) > 0.0

    # ------------------------------------------------------------------
    # CLI / env spec
    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a ``--inject-faults`` spec string.

        Format: comma-separated ``key=value`` settings, e.g.
        ``"seed=7,crash=0.1,hang=0.05,wrong=0.02,hang-seconds=0.2,max-per-key=2,hard"``.
        Unknown settings are rejected so typos cannot silently disable
        injection.
        """
        kwargs: dict[str, object] = {}
        fields = {
            "seed": ("seed", int),
            "crash": ("crash", float),
            "hang": ("hang", float),
            "wrong": ("wrong_result", float),
            "wrong-result": ("wrong_result", float),
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


def enact(plan: FaultPlan, key: str, attempt: int, allow_exit: bool = False) -> str | None:
    """Perform the fault the plan schedules for this attempt, if any.

    ``crash`` raises :class:`InjectedCrash` — unless ``allow_exit`` is
    true (worker processes) and the plan asks for hard crashes, in which
    case the process dies for real.  ``hang`` sleeps ``hang_seconds``
    and then raises :class:`InjectedHang`: under a pool the parent's
    per-task timeout fires first, serially the raise itself models the
    missed deadline.  ``wrong_result`` is returned to the caller, which
    must corrupt the produced result via :func:`corrupt_result`.
    """
    kind = plan.fault_for(key, attempt)
    if kind == CRASH:
        if allow_exit and plan.hard_crash:
            os._exit(CRASH_EXIT_CODE)
        raise InjectedCrash(f"injected crash (key {key[:12]}, attempt {attempt})")
    if kind == HANG:
        time.sleep(plan.hang_seconds)
        raise InjectedHang(f"injected hang (key {key[:12]}, attempt {attempt})")
    return kind


def corrupt_result(result: SimResult) -> SimResult:
    """A detectably-wrong copy of a result (workload mangled, IPT skewed)."""
    return replace(
        result,
        workload=f"!injected-corruption!{result.workload}",
        cycles=result.cycles * 1.375,
    )
