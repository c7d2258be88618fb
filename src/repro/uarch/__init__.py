"""Microarchitecture substrate: configuration schema, fit solver, branch
predictors and cache simulation."""

from .branch import (
    BimodalPredictor,
    GsharePredictor,
    TournamentPredictor,
    measure_misprediction_rate,
)
from .cache import AccessResult, CacheSim, MemoryHierarchy
from .config import (
    CacheGeometry,
    CoreConfig,
    DesignSpace,
    derived_frontend_stages,
    derived_memory_cycles,
    initial_configuration,
)
from .fit import (
    best_cache_geometry,
    fitting_cache_geometries,
    fits,
    max_fitting,
    min_cache_cycles,
    min_stages,
    refit_config,
    validate_config,
)

__all__ = [
    "BimodalPredictor",
    "GsharePredictor",
    "TournamentPredictor",
    "measure_misprediction_rate",
    "AccessResult",
    "CacheSim",
    "MemoryHierarchy",
    "CacheGeometry",
    "CoreConfig",
    "DesignSpace",
    "derived_frontend_stages",
    "derived_memory_cycles",
    "initial_configuration",
    "validate_config",
    "best_cache_geometry",
    "fitting_cache_geometries",
    "fits",
    "max_fitting",
    "min_cache_cycles",
    "min_stages",
    "refit_config",
]
