"""Replicated cascade experiments, parameter sweeps and boundary fits.

Every replicate draws a fresh topology and fresh seed nodes from its own
random stream, derived deterministically from (master_seed, replicate
index), so a configuration pins down every number exactly regardless of
execution order or worker count. Sweep cells likewise derive their seeds
from the swept parameter values, not grid position: swapping axes
permutes rows without changing any cell.

``run_replicate`` is the one replicate pipeline: ``run_replicates``
aggregates it and ``netwake run`` prints replicate 0 of it. With more
than one job, ``sweep`` starts one process pool of min(n_jobs, n_runs)
workers for the whole grid, and each cell sends that pool one
contiguous chunk of replicates per worker. The range
rules of an experiment live on the types (``ExperimentConfig``,
``CascadeParams``, ``LinkScheme``, ``SweepAxis``), not in the config
parser.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .cascade import CascadeOutcome, CascadeParams, run_cascade
from .energy import EnergyModel, EnergyReport, account_cascade
from .errors import EstimationError, ExperimentInfeasibleError, LinkSamplingError, SeedingError
from .geometry import BoundaryMode, sample_points
from .network import Network, build_rgg
from .smallworld import LinkScheme, add_long_range_links

#: Parameter names accepted as sweep axes, mapped onto config fields below.
SWEEPABLE = ("phi", "R", "p_r", "d_c", "delta", "n_nodes")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one replicated experiment needs, defaults matching the
    reference setup (10^4 nodes on a 10^3-sided torus, coefficient 1)."""

    phi: float
    radio_range: float
    n_nodes: int = 10_000
    side: float = 1000.0
    boundary: BoundaryMode = BoundaryMode.TORUS
    scheme: LinkScheme = field(default_factory=LinkScheme.none)
    cascade: CascadeParams | None = None
    coefficient: float = 1.0
    n_runs: int = 1000
    master_seed: int = 0

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError(f"need at least one node, got {self.n_nodes}")
        if self.n_runs < 1:
            raise ValueError(f"need at least one run, got {self.n_runs}")
        if not 0 <= self.radio_range < math.inf:
            raise ValueError(f"radio range must be nonnegative and finite, got {self.radio_range}")
        if not 0 < self.side < math.inf:
            raise ValueError(f"side length must be positive and finite, got {self.side}")
        if not 0 < self.coefficient < math.inf:
            raise ValueError(f"energy coefficient must be positive and finite, got {self.coefficient}")
        if self.master_seed < 0:
            raise ValueError(f"master seed must be nonnegative, got {self.master_seed}")
        if self.cascade is None:
            object.__setattr__(self, "cascade", CascadeParams(phi=self.phi))
        elif self.cascade.phi != self.phi:
            object.__setattr__(self, "cascade", replace(self.cascade, phi=self.phi))
        nodes = self.cascade.seed_spec.nodes
        if nodes and not (min(nodes) >= 0 and max(nodes) < self.n_nodes):
            raise ValueError(f"seed node ids must be in [0, {self.n_nodes}), got {list(nodes)}")

    def energy_model(self) -> EnergyModel:
        return EnergyModel(self.coefficient, self.radio_range)


@dataclass
class ReplicateStats:
    """Aggregates over one experiment's replicates.

    Success means a global cascade that terminated within the step budget.
    Time/energy means cover successful runs only and are None when there
    were none. mean_link_length is the across-replicate mean of each
    network's mean long-link length (None when the scheme adds no links).
    n_infeasible splits by reason into n_infeasible_seeding and
    n_infeasible_links; n_stalled counts cascades that exhausted the step
    budget while still growing.
    """

    p_global: float
    p_global_se: float
    mean_time: float | None
    mean_time_se: float | None
    mean_energy: float | None
    mean_energy_se: float | None
    mean_final_fraction: float
    mean_link_length: float | None
    n_success: int
    n_runs: int
    n_infeasible: int
    n_infeasible_seeding: int = 0
    n_infeasible_links: int = 0
    n_stalled: int = 0


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: its name and a strictly increasing value grid."""

    name: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.name not in SWEEPABLE:
            raise ValueError(f"cannot sweep {self.name!r}; choose from {SWEEPABLE}")
        if not self.values:
            raise ValueError(f"axis {self.name!r} has an empty grid")
        # Written so that a NaN fails it too.
        if not all(b > a for a, b in zip(self.values, self.values[1:])):
            raise ValueError(f"axis {self.name!r} grid must be strictly increasing")
        if self.name == "n_nodes" and not all(float(v).is_integer() for v in self.values):
            raise ValueError(f"axis 'n_nodes' needs integer values, got {list(self.values)}")


@dataclass(frozen=True)
class SweepSpec:
    """A 1D or 2D grid of experiments around a base configuration."""

    base: ExperimentConfig
    axis1: SweepAxis
    axis2: SweepAxis | None = None


@dataclass
class SweepRow:
    """One grid cell: swept values plus its stats, or an error message."""

    axis1_value: float
    axis2_value: float | None
    stats: ReplicateStats | None
    error: str | None = None


def replicate_rng(master_seed: int, index: int) -> np.random.Generator:
    """The random stream owned by replicate ``index`` of an experiment."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(index,)))


def _apply_parameter(cfg: ExperimentConfig, name: str, value: float) -> ExperimentConfig:
    if name == "phi":
        return replace(cfg, phi=float(value))
    if name == "R":
        return replace(cfg, radio_range=float(value))
    if name == "n_nodes":
        return replace(cfg, n_nodes=int(value))
    scheme = cfg.scheme
    if name == "p_r":
        return replace(cfg, scheme=replace(scheme, p_r=float(value)))
    if name == "d_c":
        return replace(cfg, scheme=replace(scheme, d_c=float(value)))
    if name == "delta":
        return replace(cfg, scheme=replace(scheme, delta=float(value)))
    raise ValueError(f"unknown sweep parameter {name!r}")


def cell_config(base: ExperimentConfig, overrides: dict[str, float]) -> ExperimentConfig:
    """Config for one sweep cell: overrides applied, master seed derived.

    The derived seed depends only on the base seed and the override
    name/value pairs (sorted by name), never on grid position.
    """
    cfg = base
    for name in sorted(overrides):
        cfg = _apply_parameter(cfg, name, overrides[name])
    canonical = ";".join(f"{name}={float(overrides[name])!r}" for name in sorted(overrides))
    digest = hashlib.sha256(f"{base.master_seed}|{canonical}".encode()).digest()
    return replace(cfg, master_seed=int.from_bytes(digest[:8], "big"))


@dataclass(frozen=True)
class Replicate:
    """One replicate: the network it drew, its cascade and its energy."""

    net: Network
    outcome: CascadeOutcome
    report: EnergyReport


def run_replicate(cfg: ExperimentConfig, index: int) -> Replicate:
    """Replicate ``index`` of ``cfg``, drawn from its own random stream.

    Raises SeedingError or LinkSamplingError when this replicate cannot
    host a cascade; a zero radio range counts as a failed seeding, since
    the energy model needs a positive range.
    """
    if not cfg.radio_range > 0:
        raise SeedingError("radio range must be positive to host a cascade")
    rng = replicate_rng(cfg.master_seed, index)
    points = sample_points(cfg.n_nodes, cfg.side, rng)
    net = build_rgg(points, cfg.radio_range, cfg.side, cfg.boundary)
    if cfg.scheme.p_r > 0:
        net = add_long_range_links(net, cfg.scheme, rng)
    outcome = run_cascade(net, cfg.cascade, rng)
    report = account_cascade(net, outcome, cfg.energy_model())
    return Replicate(net, outcome, report)


@dataclass(frozen=True)
class _Summary:
    """What aggregation keeps of one replicate: why it was infeasible
    ("seeding" or "links", None when it ran) or how its cascade went."""

    infeasible: str | None = None
    stalled: bool = False
    success: bool = False
    final_fraction: float = 0.0
    time: int = 0
    energy: float = 0.0
    d_bar: float | None = None


def _summarize(cfg: ExperimentConfig, index: int) -> _Summary:
    try:
        rep = run_replicate(cfg, index)
    except SeedingError:
        return _Summary(infeasible="seeding")
    except LinkSamplingError:
        return _Summary(infeasible="links")
    net, outcome = rep.net, rep.outcome
    return _Summary(
        stalled=outcome.stalled,
        success=outcome.is_global and not outcome.stalled,
        final_fraction=outcome.final_fraction,
        time=outcome.time,
        energy=rep.report.total_energy,
        d_bar=float(net.long_length.mean()) if net.n_long_edges else None,
    )


def _run_chunk(cfg: ExperimentConfig, start: int, stop: int) -> list[_Summary]:
    return [_summarize(cfg, i) for i in range(start, stop)]


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return mean, se


def run_replicates(cfg: ExperimentConfig, n_jobs: int = 1,
                   pool: ProcessPoolExecutor | None = None) -> ReplicateStats:
    """Run cfg.n_runs independent replicates and aggregate.

    With n_jobs > 1 the replicates are split into min(n_jobs, n_runs)
    contiguous chunks, one task each, sent to ``pool`` when given (it
    should have that many workers) or else to a pool started and joined
    for this call. Results are identical for any n_jobs: replicate i
    always uses the stream derived from (master_seed, i), and aggregation
    is over the ordered result list.
    """
    n = cfg.n_runs
    if n_jobs > 1 and n > 1:
        workers = min(n_jobs, n)
        chunk = math.ceil(n / workers)
        bounds = [(i, min(i + chunk, n)) for i in range(0, n, chunk)]
        with (ProcessPoolExecutor(max_workers=workers) if pool is None
              else contextlib.nullcontext(pool)) as executor:
            chunks = list(executor.map(_run_chunk, *zip(*[(cfg, a, b) for a, b in bounds])))
        results = [r for part in chunks for r in part]
    else:
        results = _run_chunk(cfg, 0, n)
    return _aggregate(results)


def _aggregate(results: list[_Summary]) -> ReplicateStats:
    n = len(results)
    successes = [r for r in results if r.success]
    n_success = len(successes)
    n_seeding = sum(1 for r in results if r.infeasible == "seeding")
    n_links = sum(1 for r in results if r.infeasible == "links")
    n_infeasible = n_seeding + n_links
    if n_infeasible == n:
        raise ExperimentInfeasibleError(
            "every replicate failed before the cascade could start", n_infeasible
        )

    p = n_success / n
    p_se = math.sqrt(p * (1.0 - p) / n)
    fractions = np.array([r.final_fraction for r in results])
    d_bars = np.array([r.d_bar for r in results if r.d_bar is not None], dtype=float)

    if n_success:
        mean_time, time_se = _mean_se(np.array([r.time for r in successes], dtype=float))
        mean_energy, energy_se = _mean_se(np.array([r.energy for r in successes], dtype=float))
    else:
        mean_time = time_se = mean_energy = energy_se = None

    return ReplicateStats(
        p_global=p,
        p_global_se=p_se,
        mean_time=mean_time,
        mean_time_se=time_se,
        mean_energy=mean_energy,
        mean_energy_se=energy_se,
        mean_final_fraction=float(fractions.mean()),
        mean_link_length=float(d_bars.mean()) if d_bars.size else None,
        n_success=n_success,
        n_runs=n,
        n_infeasible=n_infeasible,
        n_infeasible_seeding=n_seeding,
        n_infeasible_links=n_links,
        n_stalled=sum(1 for r in results if r.stalled),
    )


def sweep(spec: SweepSpec, n_jobs: int = 1) -> list[SweepRow]:
    """Run one experiment per grid cell, rows in row-major grid order.

    A cell whose values a type rejects, or whose every replicate is
    infeasible, becomes a flagged row (stats=None, error set) and never
    aborts the rest of the grid. Any other error propagates.

    With n_jobs > 1 (and more than one run per cell) one process pool of
    min(n_jobs, n_runs) workers serves every cell; each cell is still one
    ``run_replicates`` call, and the pool is joined before this returns
    or raises.
    """
    cells: list[dict[str, float]] = []
    for v1 in spec.axis1.values:
        if spec.axis2 is None:
            cells.append({spec.axis1.name: v1})
        else:
            for v2 in spec.axis2.values:
                cells.append({spec.axis1.name: v1, spec.axis2.name: v2})

    rows: list[SweepRow] = []
    workers = min(n_jobs, spec.base.n_runs)  # n_runs is not sweepable: every cell has it
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else contextlib.nullcontext()) as pool:
        for overrides in cells:
            v1 = overrides[spec.axis1.name]
            v2 = overrides[spec.axis2.name] if spec.axis2 is not None else None
            stats = error = None
            try:
                cfg = cell_config(spec.base, overrides)
            except ValueError as exc:
                error = str(exc)
            else:
                try:
                    stats = run_replicates(cfg, n_jobs=n_jobs, pool=pool)
                except ExperimentInfeasibleError as exc:
                    error = str(exc)
            rows.append(SweepRow(axis1_value=v1, axis2_value=v2, stats=stats, error=error))
    return rows


def estimate_crossing(r_values, p_values, rising: bool) -> float:
    """Range at which the cascade probability crosses 0.5: the first
    rising crossing when ``rising``, else the last falling one (the upper
    boundary of the cascade window), linearly interpolated between the
    bracketing grid points.

    A NaN marks a flagged cell; EstimationError is raised when one could
    hide the crossing, or when there is none.
    """
    r = np.asarray(r_values, dtype=float)
    p = np.asarray(p_values, dtype=float)
    if r.ndim != 1 or r.shape != p.shape:
        raise ValueError(f"need two 1-d grids of one length, got shapes {r.shape} and {p.shape}")
    for i in range(r.size - 1) if rising else range(r.size - 2, -1, -1):
        below, above = (p[i], p[i + 1]) if rising else (p[i + 1], p[i])
        # Written so that a NaN on either side leaves the crossing possible.
        if not (below >= 0.5 or above < 0.5):
            if math.isnan(below) or math.isnan(above):
                raise EstimationError(f"a flagged cell between R={float(r[i])!r} and "
                                      f"R={float(r[i + 1])!r} could hide the crossing")
            return float(r[i] + (0.5 - p[i]) * (r[i + 1] - r[i]) / (p[i + 1] - p[i]))
    raise EstimationError(
        f"cascade probability never {'rises' if rising else 'falls'} through 0.5 on this grid"
    )


def fit_boundary_exponent(phis, boundary_ranges) -> float:
    """Least-squares slope of log(boundary range) against log(threshold).

    The upper cascade boundary shrinks roughly as a power of the
    threshold; the returned slope is that exponent (about -0.5). The
    -1/2 comes from the mean degree k = rho * pi * R**2: if the window
    closes at a mean degree proportional to 1/phi, as in Watts's
    vulnerability condition (Watts 2002, PNAS 99:5766), then
    R_c ~ phi**(-1/2). Both logarithms need positive finite values, so a
    zero threshold (or range) raises EstimationError.
    """
    phis = np.asarray(phis, dtype=float)
    ranges = np.asarray(boundary_ranges, dtype=float)
    if phis.size < 3:
        raise EstimationError(f"need at least 3 boundary points to fit, got {phis.size}")
    for name, values in (("threshold", phis), ("boundary range", ranges)):
        bad = values[~(np.isfinite(values) & (values > 0))]
        if bad.size:
            raise EstimationError(f"cannot fit a log-log slope through {name} {float(bad[0])!r}")
    slope, _ = np.polyfit(np.log(phis), np.log(ranges), 1)
    return float(slope)
