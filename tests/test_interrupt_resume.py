"""End-to-end durability: kill a real `repro` process, resume, compare.

These tests drive the CLI in subprocesses — the only way to exercise
real signal delivery, the distinct exit codes, and the promise that a
run killed at an arbitrary point resumes to bit-identical results.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine.runs import LOCK_FILE, RunLock

SRC = Path(__file__).resolve().parents[1] / "src"
SWEEP_ARGS = ["sweep", "gzip", "--iterations", "600", "--seed", "0"]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _repro(*args, cwd, check=True):
    result = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd, env=_env(), capture_output=True, text=True, timeout=120,
    )
    if check and result.returncode != 0:
        raise AssertionError(
            f"repro {' '.join(args)} failed ({result.returncode}):\n"
            f"{result.stdout}\n{result.stderr}"
        )
    return result


def _start_sweep(run_dir: Path, cwd) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *SWEEP_ARGS, "--run-dir", str(run_dir)],
        cwd=cwd, env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _wait_for_progress(run_dir: Path, proc: subprocess.Popen, timeout=60.0):
    """Block until the run has durable state worth interrupting."""
    checkpoint = run_dir / "state" / "sweep-checkpoint.json"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if checkpoint.exists() and checkpoint.stat().st_size > 0:
            return
        if proc.poll() is not None:
            pytest.fail(f"sweep exited early: {proc.communicate()}")
        time.sleep(0.02)
    pytest.fail("sweep produced no checkpoint in time")


def _resume_stdout(result) -> str:
    """Resumed-run stdout minus the resume banner line."""
    return "".join(
        line for line in result.stdout.splitlines(keepends=True)
        if not line.startswith("resuming run ")
    )


@pytest.fixture()
def baseline(tmp_path):
    """An uninterrupted reference sweep in its own run directory."""
    result = _repro(*SWEEP_ARGS, "--run-dir", str(tmp_path / "ref"), cwd=tmp_path)
    return result.stdout


class TestSigtermMidSweep:
    def test_sigterm_then_resume_is_bit_identical(self, tmp_path, baseline):
        run_dir = tmp_path / "victim"
        proc = _start_sweep(run_dir, tmp_path)
        _wait_for_progress(run_dir, proc)
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=60)

        assert proc.returncode == 128 + signal.SIGTERM
        assert "resumable" in stderr
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "interrupted"
        assert manifest["signal"] == signal.SIGTERM
        assert manifest["exit_code"] == 143

        resumed = _repro("resume", str(run_dir), cwd=tmp_path)
        assert _resume_stdout(resumed) == baseline

        verify = _repro("runs", "verify", str(run_dir), cwd=tmp_path)
        assert "verdict: clean" in verify.stdout

    def test_sigkill_leaves_stale_lock_resume_takes_over(self, tmp_path, baseline):
        run_dir = tmp_path / "crashed"
        proc = _start_sweep(run_dir, tmp_path)
        _wait_for_progress(run_dir, proc)
        proc.kill()  # SIGKILL: no cleanup, lock file left behind
        proc.communicate(timeout=60)

        assert (run_dir / "lock.json").exists()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "running"  # the crash froze it mid-run

        resumed = _repro("resume", str(run_dir), cwd=tmp_path)
        assert _resume_stdout(resumed) == baseline
        assert not (run_dir / "lock.json").exists()

    def test_live_lock_refuses_concurrent_invocation(self, tmp_path):
        """The lock is held by this test process, a holder that stays
        alive for the whole clash however fast a sweep runs."""
        run_dir = tmp_path / "busy"
        holder = RunLock(run_dir / LOCK_FILE).acquire()
        try:
            clash = _repro(
                *SWEEP_ARGS, "--run-dir", str(run_dir), cwd=tmp_path, check=False
            )
            assert clash.returncode == 2
            assert "locked by live pid" in clash.stderr
            lock = json.loads((run_dir / LOCK_FILE).read_text())
            assert lock["pid"] == os.getpid()  # refused, not taken over
        finally:
            holder.release()


class TestTornWriteRecovery:
    def test_truncated_checkpoint_is_quarantined_and_recomputed(
        self, tmp_path, baseline
    ):
        run_dir = tmp_path / "torn"
        proc = _start_sweep(run_dir, tmp_path)
        _wait_for_progress(run_dir, proc)
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=60)

        checkpoint = run_dir / "state" / "sweep-checkpoint.json"
        data = checkpoint.read_bytes()
        checkpoint.write_bytes(data[: len(data) // 2])  # simulate a torn write

        resumed = _repro("resume", str(run_dir), cwd=tmp_path)
        assert _resume_stdout(resumed) == baseline
        assert (run_dir / "state" / "sweep-checkpoint.json.corrupt").exists()

    def test_foreign_schema_version_is_a_clear_error(self, tmp_path):
        run_dir = tmp_path / "old"
        proc = _start_sweep(run_dir, tmp_path)
        _wait_for_progress(run_dir, proc)
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=60)

        checkpoint = run_dir / "state" / "sweep-checkpoint.json"
        payload = json.loads(checkpoint.read_text())
        payload["version"] = 1  # pretend an older repro wrote it
        checkpoint.write_text(json.dumps(payload))

        result = _repro("resume", str(run_dir), cwd=tmp_path, check=False)
        assert result.returncode == 2
        assert "error:" in result.stderr
        assert "version" in result.stderr
        assert "Traceback" not in result.stderr

    def test_verify_detects_truncated_artifact(self, tmp_path):
        run_dir = tmp_path / "done"
        _repro(*SWEEP_ARGS, "--run-dir", str(run_dir), cwd=tmp_path)
        artifact = run_dir / "artifacts" / "sweep.txt"
        artifact.write_bytes(artifact.read_bytes()[:10])

        result = _repro("runs", "verify", str(run_dir), cwd=tmp_path, check=False)
        assert result.returncode == 1
        assert "CORRUPTION DETECTED" in result.stdout
        assert "artifacts/sweep.txt" in result.stdout
