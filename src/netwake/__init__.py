"""Threshold-cascade wake-up dynamics on random geometric sensor networks.

Build a random geometric network, optionally add a few long-range
shortcut links, run threshold-controlled activation cascades over it,
and account the communication energy. The montecarlo module replicates
experiments over deterministic per-replicate random streams and sweeps
parameter grids; the CLI (``netwake``) drives it all from config files.
"""

__version__ = "0.1.0"

from .cascade import (
    CascadeOutcome,
    CascadeParams,
    Schedule,
    SeedRule,
    SeedSpec,
    run_cascade,
    select_seed,
)
from .config import parse_config
from .energy import (
    EnergyModel,
    EnergyReport,
    account_cascade,
    local_broadcast_energy,
    long_range_energy,
    predicted_energy,
)
from .errors import (
    ConfigError,
    EstimationError,
    ExperimentInfeasibleError,
    LinkSamplingError,
    NetwakeError,
    SeedingError,
)
from .geometry import BoundaryMode, pair_distances, sample_points
from .montecarlo import (
    ExperimentConfig,
    Replicate,
    ReplicateStats,
    SweepAxis,
    SweepRow,
    SweepSpec,
    cell_config,
    estimate_crossing,
    fit_boundary_exponent,
    replicate_rng,
    run_replicate,
    run_replicates,
    sweep,
    window_boundaries,
)
from .network import Network, build_rgg
from .smallworld import LinkScheme, SchemeKind, add_long_range_links

__all__ = [
    "__version__",
    "BoundaryMode", "pair_distances", "sample_points",
    "Network", "build_rgg",
    "LinkScheme", "SchemeKind", "add_long_range_links",
    "CascadeParams", "CascadeOutcome", "Schedule", "SeedRule", "SeedSpec",
    "select_seed", "run_cascade",
    "EnergyModel", "EnergyReport", "local_broadcast_energy", "long_range_energy",
    "account_cascade", "predicted_energy",
    "ExperimentConfig", "Replicate", "ReplicateStats", "SweepAxis", "SweepSpec", "SweepRow",
    "run_replicate", "run_replicates", "sweep", "cell_config", "replicate_rng",
    "estimate_crossing", "fit_boundary_exponent", "window_boundaries",
    "parse_config",
    "NetwakeError", "ConfigError", "SeedingError", "LinkSamplingError",
    "ExperimentInfeasibleError", "EstimationError",
]
