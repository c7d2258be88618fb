"""Seeded design-space walks shared by the test modules.

``tests/golden/keys.json`` is built from :func:`generate_configs`, so the
walk must stay byte-identical: change it and the key corpus changes too.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, TimingError
from repro.tech import CactiModel, default_technology
from repro.uarch.config import CoreConfig, DesignSpace, initial_configuration


def generate_configs(count: int, seed: int = 7) -> list[CoreConfig]:
    """A deterministic design-space walk of ``count`` configurations.

    The same seeded :class:`~repro.explore.moves.MoveGenerator` chain
    the annealer walks, so the tests exercise realistic parameter
    mixtures (untenable proposals are skipped, not counted).
    """
    from repro.explore.moves import MoveGenerator

    tech = default_technology()
    moves = MoveGenerator(tech, CactiModel.shared(tech), DesignSpace())
    rng = np.random.default_rng(seed)
    config = initial_configuration(tech)
    configs = [config]
    while len(configs) < count:
        try:
            config = moves.propose(config, rng)
        except (TimingError, ConfigurationError):
            continue
        configs.append(config)
    return configs
