"""The three benchmark workloads, driven through the program's public API.

Each workload has a ``setup`` (what a user pays before the work starts,
timed as ``setup_s``), a ``run`` (the timed work, checked against the
recorded digests) and a ``teardown``.  The work of one run is fixed by
``plan(seconds)``, sized so that it takes about ``seconds`` on a 2-vCPU
container.  Fixed work keeps the inputs, the operation counts and the
memory footprint of a run independent of how fast the program is, so
two commits are compared on the same work, and the traced pass repeats
exactly the work of the untraced one.

Why each workload exists, and which layers it loads, is in README.md.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import digests as dg
from hostspeed import HostSpeed

#: Status poll interval of a serve_mix client.  Latency comes from the
#: service's own timestamps, so polling only paces the closed loop.
POLL_S = 0.02
#: Whole suite passes per second of ``--seconds`` (one pass takes
#: 24-36 s).
SUITE_PASSES_PER_S = 1 / 30
#: Pareto requests per second of ``--seconds`` (0.2-0.35 s each).
PARETO_REQUESTS_PER_S = 4
#: Pareto requests per host speed sample, taken between requests.
PARETO_REQUESTS_PER_SAMPLE = 3
#: serve_mix jobs per second of ``--seconds`` (0.13-0.2 s each, two at
#: a time), and the floor that leaves p90 with >= 10 samples beyond it.
SERVE_JOBS_PER_S = 7
MIN_SERVE_JOBS = 110
#: serve_mix closed-loop clients (one tenant each) and service job slots.
SERVE_CLIENTS = 2
SERVE_SLOTS = 2


@dataclass
class Context:
    """What one benchmark invocation knows: where it runs, and its input."""

    root: Path
    work: Path
    seed: int
    digests: dict
    #: Where the workload records host speed samples (see hostspeed.py).
    speed: HostSpeed = field(default_factory=HostSpeed)

    def scratch_dir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.work))

    def env(self) -> dict[str, str]:
        """Environment for a child interpreter importing the program."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return env


@dataclass
class Outcome:
    """The result of one timed run.

    ``latencies``, ``busy`` and ``windows`` have one entry per completed
    job: its latency, the time it kept the program busy, and when it ran
    (``time.monotonic``), which is where its host speed is read.
    ``points`` counts the (profile, config) evaluations those jobs
    requested, so a job that fails changes neither the points nor the
    busy time.
    """

    latencies: list[float] = field(default_factory=list)
    busy: list[float] = field(default_factory=list)
    windows: list[tuple[float, float]] = field(default_factory=list)
    points: int = 0
    timed_s: float = 0.0
    timed_window: tuple[float, float] = (0.0, 0.0)
    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    rejected: int = 0
    mismatches: list[str] = field(default_factory=list)
    #: serve_mix only: per-job queue wait and run time, from the service.
    queue_waits: list[float] = field(default_factory=list)
    runs: list[float] = field(default_factory=list)


def import_seconds(ctx: Context) -> float:
    """Wall time of a fresh interpreter importing the program's API."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.explore, repro.design, repro.serve"],
        env=ctx.env(),
        check=True,
    )
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# suite_cold: XpScalar.customize_all over all 11 profiles
# ----------------------------------------------------------------------


@dataclass
class SuiteState:
    store: Path
    explorer: Any
    checkpoint: Any


class SuiteCold:
    """``customize_all`` over the SPEC2000 suite on a fresh SQLite store.

    This is the ``repro customize <all 11> --cache-dir`` path at the
    paper's 2,500 iterations, checkpoint included.  Its times are not
    normalized to host speed: the calibration kernel over-corrects them
    (README.md, *Host speed*).
    """

    name = "suite_cold"
    host_normalized = False

    def setup(self, ctx: Context) -> SuiteState:
        from repro.engine import CheckpointManager
        from repro.experiments.pipeline import build_engine
        from repro.explore import AnnealingSchedule, XpScalar

        store = ctx.scratch_dir()
        explorer = XpScalar(
            schedule=AnnealingSchedule(iterations=dg.SUITE_ITERATIONS),
            engine=build_engine(jobs=1, cache_dir=store),
        )
        return SuiteState(store, explorer, CheckpointManager(store / "checkpoint.json"))

    def renew(self, ctx: Context, state: SuiteState) -> SuiteState:
        """State for another pass: a fresh store."""
        self.teardown(state)
        return self.setup(ctx)

    def teardown(self, state: SuiteState) -> None:
        state.explorer.engine.close()
        shutil.rmtree(state.store, ignore_errors=True)

    def plan(self, seconds: float) -> int:
        return max(1, int(seconds * SUITE_PASSES_PER_S))

    def run(self, ctx: Context, state: SuiteState, plan: int) -> tuple[Outcome, SuiteState]:
        """``plan`` whole suite passes."""
        from repro.workloads import spec2000_profiles

        profiles = spec2000_profiles()
        seed = ctx.seed % dg.SUITE_SEEDS
        expected = ctx.digests["suite"][str(seed)]
        out = Outcome()
        for _ in range(plan):
            if out.attempted:
                state = self.renew(ctx, state)
            engine = state.explorer.engine
            before = engine.metrics.snapshot()
            began = time.monotonic()
            started = time.perf_counter()
            results = state.explorer.customize_all(
                profiles, seed=seed, checkpoint=state.checkpoint
            )
            wall = time.perf_counter() - started
            window = (began, time.monotonic())
            after = engine.metrics.snapshot()
            out.attempted += 1
            out.succeeded += 1
            out.latencies.append(wall)
            out.busy.append(wall)
            out.windows.append(window)
            out.timed_s += wall
            out.timed_window = (out.windows[0][0], window[1])
            hits = after["cache_hits"] - before["cache_hits"]
            misses = after["cache_misses"] - before["cache_misses"]
            out.points += hits + misses
            got = dg.suite_digest(results)
            if got != expected:
                out.mismatches.append(f"suite seed {seed}: digest {got} != {expected}")
        return out, state


# ----------------------------------------------------------------------
# pareto_cloud: ParetoExplorer.fronts over all 11 profiles, many seeds
# ----------------------------------------------------------------------


def front_is_reproduced(front: Any, profile: Any) -> bool:
    """Whether every front point's figures match a fresh scalar evaluation.

    The check for a request recorded as raising, which has no recorded
    digest: each point's config is simulated again by a fresh scalar
    ``IntervalSimulator`` and measured by ``ConstraintSet.measure``, and
    IPT, power, area and EPI must equal the point's own, bit for bit.
    """
    from repro.design import ConstraintSet
    from repro.sim.interval import IntervalSimulator
    from repro.tech import default_technology

    tech = default_technology()
    simulator = IntervalSimulator()
    for point in front.points:
        result = simulator.evaluate(profile, point.config)
        measures = ConstraintSet().measure(tech, profile, point.config, result)
        expected = (result.ipt, measures["power_w"], measures["area_mm2"], measures["epi_nj"])
        if (point.ipt, point.power_w, point.area_mm2, point.epi_nj) != expected:
            return False
    return bool(front.points)


class ParetoCloud:
    """One fresh ``ParetoExplorer.fronts`` request per sampler seed.

    A fresh explorer per request is what ``repro pareto <all 11> --seed
    k`` does; it keeps each request's work independent of how many ran
    before it.  A request whose sampler raises counts as failed.
    """

    name = "pareto_cloud"
    host_normalized = True

    def setup(self, ctx: Context) -> Any:
        from repro.workloads import spec2000_profiles

        return spec2000_profiles()

    def renew(self, ctx: Context, state: Any) -> Any:
        return state

    def teardown(self, state: Any) -> None:
        pass

    def plan(self, seconds: float) -> int:
        return max(1, round(seconds * PARETO_REQUESTS_PER_S))

    def run(self, ctx: Context, state: Any, plan: int) -> tuple[Outcome, Any]:
        """``plan`` requests, for consecutive pooled sampler seeds."""
        from repro.design import ParetoExplorer
        from repro.errors import ConfigurationError

        profiles = state
        table = ctx.digests["pareto"]
        offset = (ctx.seed * 157) % dg.PARETO_SEEDS
        out = Outcome()
        begun = time.monotonic()
        for k in range(plan):
            seed = (offset + k) % dg.PARETO_SEEDS
            out.attempted += 1
            expected = table[str(seed)]
            if k % PARETO_REQUESTS_PER_SAMPLE == 0:
                ctx.speed.sample()
            started = time.perf_counter()
            try:
                explorer = ParetoExplorer()
                fronts = explorer.fronts(profiles, samples=dg.PARETO_SAMPLES, seed=seed)
            except ConfigurationError:
                out.failed += 1
                if expected != dg.SAMPLER_RAISES:
                    out.mismatches.append(f"pareto seed {seed}: sampler raised")
                continue
            latency = time.perf_counter() - started
            out.succeeded += 1
            out.latencies.append(latency)
            out.busy.append(latency)
            out.windows.append((time.monotonic() - latency, time.monotonic()))
            out.points += sum(front.explored for front in fronts.values())
            if expected == dg.SAMPLER_RAISES:
                # Recorded as raising: a fixed sampler may now succeed,
                # but every front point must still be what the model
                # gives for its config.
                if not all(
                    front_is_reproduced(fronts[p.name], p) for p in profiles
                ):
                    out.mismatches.append(f"pareto seed {seed}: front point not reproduced")
            elif (got := dg.pareto_digest(fronts)) != expected:
                out.mismatches.append(f"pareto seed {seed}: digest {got} != {expected}")
        out.timed_window = (begun, time.monotonic())
        out.timed_s = out.timed_window[1] - begun
        return out, state


# ----------------------------------------------------------------------
# serve_mix: ExplorationService + ServeClient, closed loop of 2 clients
# ----------------------------------------------------------------------


@dataclass
class ServeState:
    store: Path
    thread: Any


class ServeMix:
    """Customize jobs through an in-process service over a SQLite store.

    ``SERVE_CLIENTS`` client threads, one tenant each, each submit a job,
    poll its status until it ends, then submit the next (a closed loop).
    Every 4th job of a client repeats the spec of its job 3 earlier.
    """

    name = "serve_mix"
    host_normalized = True

    def setup(self, ctx: Context) -> ServeState:
        from repro.serve import ExplorationService, ServiceThread

        store = ctx.scratch_dir()
        service = ExplorationService(
            jobs=SERVE_SLOTS,
            cache_backend=f"sqlite:{store / 'results.sqlite'}",
            serve_dir=store / "serve",
        )
        return ServeState(store, ServiceThread(service).start())

    def renew(self, ctx: Context, state: ServeState) -> ServeState:
        self.teardown(state)
        return self.setup(ctx)

    def teardown(self, state: ServeState) -> None:
        state.thread.stop()
        shutil.rmtree(state.store, ignore_errors=True)

    def spec_index(self, ctx: Context, client: int, k: int) -> int:
        """Pool index of client ``client``'s ``k``-th job."""
        if k % 4 == 3:
            k -= 3  # a repeat of an earlier spec
        fresh = k - k // 4  # fresh jobs before this one
        offset = (ctx.seed * 211) % dg.SERVE_SPECS
        return (offset + SERVE_CLIENTS * fresh + client) % dg.SERVE_SPECS

    def plan(self, seconds: float) -> int:
        """Jobs per client."""
        jobs = max(MIN_SERVE_JOBS, round(seconds * SERVE_JOBS_PER_S))
        return -(-jobs // SERVE_CLIENTS)

    def run(self, ctx: Context, state: ServeState, plan: int) -> tuple[Outcome, ServeState]:
        """``plan`` jobs from each client."""
        from repro.errors import ServeClientError
        from repro.serve import ServeClient

        base_url = state.thread.base_url
        lock = threading.Lock()
        records: list[tuple[int, int, int, dict]] = []
        rejected = [0]
        errors: list[BaseException] = []

        def loop(client: int) -> None:
            api = ServeClient(base_url, seed=client)
            k = 0
            try:
                while k < plan:
                    index = self.spec_index(ctx, client, k)
                    payload = dict(dg.serve_spec(index), tenant=f"tenant{client}")
                    try:
                        job_id = api.submit(payload)["id"]
                    except ServeClientError as exc:
                        if exc.status != 429:
                            raise
                        with lock:
                            rejected[0] += 1
                        time.sleep(POLL_S)
                        continue
                    while api.status(job_id)["state"] not in ("completed", "failed"):
                        time.sleep(POLL_S)
                    record = api.result(job_id)
                    with lock:
                        records.append((client, k, index, record))
                    k += 1
            except BaseException as exc:  # reported after the join
                errors.append(exc)

        threads = [
            threading.Thread(target=loop, args=(c,), name=f"perfbench-client{c}")
            for c in range(SERVE_CLIENTS)
        ]
        # The clients and the job slots keep both CPUs busy, so host
        # speed is sampled from a child process instead of in between.
        with ctx.speed.background():
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]

        out = Outcome(rejected=rejected[0])
        table = ctx.digests["serve"]
        # The service stamps jobs with time.time(); windows are monotonic.
        to_monotonic = time.monotonic() - time.time()
        first_result: dict[int, Any] = {}
        for client, k, index, record in sorted(records, key=lambda r: (r[0], r[1])):
            out.attempted += 1
            if record["state"] != "completed":
                out.failed += 1
                out.mismatches.append(f"serve job {record['id']}: {record['error']}")
                continue
            out.succeeded += 1
            out.latencies.append(record["finished_at"] - record["submitted_at"])
            out.queue_waits.append(record["started_at"] - record["submitted_at"])
            out.runs.append(record["finished_at"] - record["started_at"])
            # A job slot's busy time, by the service's clock: the
            # clients' status polls between jobs do not enter the rate.
            out.busy.append(out.runs[-1] / SERVE_SLOTS)
            out.windows.append(
                (record["submitted_at"] + to_monotonic, record["finished_at"] + to_monotonic)
            )
            stats = record["stats"]
            out.points += stats["cache_hits"] + stats["cache_misses"]
            result = record["result"]
            got = dg.serve_digest(result)
            if got != table[str(index)]:
                out.mismatches.append(
                    f"serve spec {index}: digest {got} != {table[str(index)]}"
                )
            if index in first_result and first_result[index] != result:
                out.mismatches.append(f"serve spec {index}: repeat differs from first run")
            first_result.setdefault(index, result)
        if records:
            begun = min(r[3]["submitted_at"] for r in records)
            ended = max(r[3]["finished_at"] for r in records)
            out.timed_s = ended - begun
            out.timed_window = (begun + to_monotonic, ended + to_monotonic)
        return out, state


WORKLOADS = {
    "suite_cold": SuiteCold,
    "pareto_cloud": ParetoCloud,
    "serve_mix": ServeMix,
}
