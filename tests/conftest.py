"""Shared fixtures for the test suite.

The expensive artifact — a full exploration pipeline over the 11
SPEC2000 profiles — is built once per session at a reduced annealing
budget; tests that need paper-shape results use it, while unit tests
build their own small objects.
"""

from __future__ import annotations

import pytest

from repro.experiments.pipeline import run_pipeline
from repro.explore import AnnealingSchedule, XpScalar
from repro.tech import CactiModel, default_technology
from repro.uarch import DesignSpace, initial_configuration
from repro.workloads import spec2000_profiles


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate the tests/golden/*.json snapshots from current "
        "code instead of comparing against them",
    )


@pytest.fixture(scope="session")
def update_golden(request) -> bool:
    return bool(request.config.getoption("--update-golden"))


@pytest.fixture()
def many_cpus(monkeypatch):
    """Let ``jobs > 1`` engines start a real pool even on a small runner.

    The engine bounds its workers by ``available_cpus()``; tests that
    must exercise the pool lift that bound instead of the engine
    growing a switch for it.
    """
    monkeypatch.setattr("repro.engine.pool.available_cpus", lambda: 64)


@pytest.fixture(scope="session")
def tech():
    return default_technology()


@pytest.fixture(scope="session")
def model(tech):
    return CactiModel(tech)


@pytest.fixture(scope="session")
def space():
    return DesignSpace()


@pytest.fixture(scope="session")
def initial_config(tech):
    return initial_configuration(tech)


@pytest.fixture(scope="session")
def profiles():
    return spec2000_profiles()


@pytest.fixture(scope="session")
def explorer():
    return XpScalar(schedule=AnnealingSchedule(iterations=800))


@pytest.fixture(scope="session")
def pipeline():
    """A reduced-budget end-to-end pipeline shared across the session.

    800 annealing iterations per workload with one refinement round: a
    few seconds, and enough for the qualitative paper structure the
    integration tests assert.
    """
    return run_pipeline(iterations=800, seed=2008, cross_seed_rounds=1)


@pytest.fixture(scope="session")
def cross(pipeline):
    return pipeline.cross
