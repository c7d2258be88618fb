"""Self-tests of the benchmark: wrappers, nested times, digest checks,
host speed sampling.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import digests as dg  # noqa: E402
import hostspeed  # noqa: E402
import run as bench  # noqa: E402
import workloads as wl  # noqa: E402
from layers import ENTRY, LayerTracer  # noqa: E402


def _context(tmp_path: Path, seed: int = 0, digests: dict | None = None) -> wl.Context:
    return wl.Context(
        root=ROOT,
        work=tmp_path,
        seed=seed,
        digests=digests if digests is not None else dg.load(),
    )


def _wrapped_attributes(tracer: LayerTracer) -> list[tuple[object, str, object]]:
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracer._saved]


def test_restore_puts_every_original_back():
    tracer = LayerTracer().install()
    wrapped = _wrapped_attributes(tracer)
    originals = [(owner, attr, original) for owner, attr, original in tracer._saved]
    tracer.restore()
    assert len(wrapped) >= 20
    for (owner, attr, wrapper), (_, _, original) in zip(wrapped, originals):
        assert wrapper is not original
        assert owner.__dict__[attr] is original, f"{owner}.{attr} not restored"


def test_restore_runs_when_the_traced_work_raises():
    from repro.explore import MoveGenerator

    original = MoveGenerator.__dict__["propose"]
    with pytest.raises(RuntimeError):
        with LayerTracer():
            assert MoveGenerator.__dict__["propose"] is not original
            raise RuntimeError("boom")
    assert MoveGenerator.__dict__["propose"] is original


def test_nested_inclusive_times_are_consistent(tmp_path):
    from repro.engine import CheckpointManager
    from repro.experiments.pipeline import build_engine
    from repro.explore import AnnealingSchedule, XpScalar
    from repro.workloads import spec2000_profile

    tracer = LayerTracer()
    with tracer:
        explorer = XpScalar(
            schedule=AnnealingSchedule(iterations=60),
            engine=build_engine(jobs=1, cache_dir=tmp_path),
        )
        explorer.customize_all(
            [spec2000_profile("gzip"), spec2000_profile("mcf")],
            seed=3,
            checkpoint=CheckpointManager(tmp_path / "checkpoint.json"),
        )
        explorer.engine.close()
    stats = tracer.stats()
    entry = stats[ENTRY].seconds
    assert stats[ENTRY].calls == 1
    backend_put = stats["engine.cache_backends.put"]
    cache_put = stats["engine.cache.put"]
    assert backend_put.calls == cache_put.calls > 0
    assert backend_put.seconds <= cache_put.seconds <= entry
    assert stats["engine.cache_backends.get"].seconds <= stats["engine.cache.get"].seconds
    for layer, stat in stats.items():
        assert stat.seconds <= entry, layer
    assert 0.0 <= tracer.covered_seconds() <= entry
    assert stats["engine.checkpoint.save"].calls > 0


def test_perturbed_suite_result_changes_the_digest():
    from repro.experiments.pipeline import build_engine
    from repro.explore import AnnealingSchedule, XpScalar
    from repro.workloads import spec2000_profile

    explorer = XpScalar(
        schedule=AnnealingSchedule(iterations=40), engine=build_engine(jobs=1)
    )
    results = explorer.customize_all(
        [spec2000_profile("gzip"), spec2000_profile("gcc")], seed=1
    )
    before = dg.suite_digest(results)
    results["gzip"].score = math.nextafter(results["gzip"].score, math.inf)
    assert dg.suite_digest(results) != before


def test_perturbed_serve_result_fails_the_check(tmp_path):
    """A serve job whose recorded digest differs is reported, not passed."""
    digests = dg.load()
    ctx = _context(tmp_path, seed=5, digests=digests)
    workload = wl.ServeMix()
    index = workload.spec_index(ctx, 0, 0)
    tampered = dict(digests, serve=dict(digests["serve"]))
    tampered["serve"][str(index)] = "0" * 20
    ctx.digests = tampered
    state = workload.setup(ctx)
    try:
        out, state = workload.run(ctx, state, plan=4)
    finally:
        workload.teardown(state)
    assert out.attempted == 8 and out.succeeded == 8
    # Job 0 of client 0 and its repeat (job 3) both carry the bad digest.
    assert sum(f"serve spec {index}:" in m for m in out.mismatches) == 2
    assert len(out.mismatches) == 2


def test_pareto_failures_are_counted_and_checked(tmp_path):
    ctx = _context(tmp_path)
    raising = [int(k) for k, v in ctx.digests["pareto"].items() if v == dg.SAMPLER_RAISES]
    assert raising, "the recorded sampler failure should be visible"
    workload = wl.ParetoCloud()
    ctx.seed = next(s for s in range(1000) if (s * 157) % dg.PARETO_SEEDS == raising[0])
    out, _ = workload.run(ctx, workload.setup(ctx), plan=2)
    assert (out.attempted, out.failed, out.succeeded) == (2, 1, 1)
    assert out.mismatches == []
    # The same run against a table that expects the first seed to succeed.
    ctx.digests = dict(ctx.digests, pareto=dict(ctx.digests["pareto"]))
    ctx.digests["pareto"][str(raising[0])] = "0" * 20
    out, _ = workload.run(ctx, workload.setup(ctx), plan=1)
    assert out.mismatches == [f"pareto seed {raising[0]}: sampler raised"]


def test_a_recorded_raise_that_now_succeeds_is_rechecked(tmp_path, monkeypatch):
    """A seed recorded as raising has no digest; its fronts are re-simulated."""
    from repro.design import ParetoExplorer

    ctx = _context(tmp_path)
    ctx.seed = 0  # sampler seed 0 succeeds; pretend it was recorded as raising
    ctx.digests = dict(ctx.digests, pareto=dict(ctx.digests["pareto"]))
    ctx.digests["pareto"]["0"] = dg.SAMPLER_RAISES
    workload = wl.ParetoCloud()
    out, _ = workload.run(ctx, workload.setup(ctx), plan=1)
    assert (out.succeeded, out.mismatches) == (1, [])

    original = ParetoExplorer.fronts

    def perturbed(self, *args, **kwargs):
        fronts = original(self, *args, **kwargs)
        name, front = next(iter(fronts.items()))
        first = front.points[0]
        bad = dataclasses.replace(first, ipt=math.nextafter(first.ipt, math.inf))
        fronts[name] = dataclasses.replace(front, points=(bad,) + front.points[1:])
        return fronts

    monkeypatch.setattr(ParetoExplorer, "fronts", perturbed)
    out, _ = workload.run(ctx, workload.setup(ctx), plan=1)
    assert out.mismatches == ["pareto seed 0: front point not reproduced"]


def test_host_speed_factor_uses_the_window_median():
    speed = hostspeed.HostSpeed()
    nominal = hostspeed.NOMINAL_KERNEL_S
    speed.samples = [(float(t), nominal * (2.0 if t >= 10 else 1.0)) for t in range(20)]
    assert speed.factor(0.0, 9.0) == 1.0
    assert speed.factor(10.0, 19.0) == 0.5
    # A window with too few samples borrows the nearest ones.
    assert speed.factor(15.0, 15.5) == 0.5


def test_background_sampler_is_stopped_and_its_samples_kept():
    import time

    speed = hostspeed.HostSpeed()
    began = time.monotonic()
    with speed.background():
        time.sleep(1.0)
    assert len(speed.samples) >= 2
    assert all(began <= t <= time.monotonic() and s > 0 for t, s in speed.samples)
    assert speed.sample() > 0 and len(speed.samples) >= 3


def test_run_fails_without_program_source(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in HERE.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    (copy / "digests.json").write_text((HERE / "digests.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "pareto_cloud",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_percentile_interpolates():
    assert bench.percentile([3.0], 90) == 3.0
    assert bench.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert bench.percentile([0.0, 10.0], 90) == pytest.approx(9.0)
