"""Shared fixtures for the benchmark harness.

The full-budget exploration pipeline (the reproduction's equivalent of
the paper's three-week xp-scalar run) is computed once per session; each
benchmark target regenerates its table/figure from it, asserts the
paper's shape criteria, and writes the rendered artifact under
``results/``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.pipeline import default_pipeline
from repro.experiments.reporting import write_artifact

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def pipe():
    """The full-budget pipeline (cached per process)."""
    return default_pipeline()


@pytest.fixture(scope="session")
def cross(pipe):
    return pipe.cross


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def save_artifact(results_dir):
    """Atomically write a rendered table/figure artifact to
    results/<name>.txt (newline-terminated)."""

    def _save(name: str, text: str) -> None:
        write_artifact(results_dir / f"{name}.txt", text)

    return _save
