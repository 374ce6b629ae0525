"""Replicated cascade experiments, parameter sweeps and boundary fits.

Every replicate draws a fresh topology and fresh seed nodes from its own
random stream, derived deterministically from (master_seed, replicate
index), so a configuration pins down every number exactly regardless of
execution order or worker count. Sweep cells likewise derive their seeds
from the swept parameter values, not grid position: swapping axes
permutes rows without changing any cell.

A replicate runs in two stages on one stream: ``_deploy`` draws the
points, ``_respond`` the network, cascade and energy; ``run_replicate``
runs both (``netwake run`` prints its replicate 0). Between them,
aggregation asks ``_wakes_nobody``: a replicate with no long links, a
single seed and no torus-wrap warning whose seed (peeked at, the stream
left as it was) provably wakes none of its neighbors at step 1 is
summarized from the seed's 2R neighborhood alone, without building its
network; the summary is the one ``run_replicate`` would give. With more
than one job, ``sweep`` starts one process pool of min(n_jobs, n_runs)
workers for the whole grid and sends it every cell's replicates, one
contiguous chunk per worker per cell, before it aggregates any cell;
it then aggregates the cells in grid order while the workers run on,
so no worker waits between cells. ``window_boundaries`` is
the one transition pipeline: it reads the cascade window (onset, upper
boundary, boundary exponent) off sweep rows for ``netwake transition``
and the acceptance criteria alike. The range
rules of an experiment live on the types (``ExperimentConfig``,
``CascadeParams``, ``LinkScheme``, ``SweepAxis``), not in the config
parser.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import math
from collections.abc import Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .cascade import (CascadeOutcome, CascadeParams, SeedRule, draw_single_seed, is_integer, meets_threshold,
                      run_cascade)
from .energy import EnergyModel, EnergyReport, account_cascade, local_broadcast_energy
from .errors import EstimationError, ExperimentInfeasibleError, LinkSamplingError, SeedingError
from .geometry import BoundaryMode, axis_deltas, pair_distances, sample_points
from .network import SCREEN_SLACK, Network, build_rgg, wrap_is_ambiguous
from .smallworld import LinkScheme, add_long_range_links

#: Parameter names accepted as sweep axes, mapped onto config fields below.
SWEEPABLE = ("phi", "R", "p_r", "d_c", "delta", "n_nodes")

# Most node pairs whose distances ``_seed_neighborhood`` takes at once.
_PROBE_PAIRS = 1 << 16


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
        for name in ("n_nodes", "n_runs", "master_seed"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
    # ``SweepAxis`` admits only SWEEPABLE names.
    if name in ("p_r", "d_c", "delta"):
        return replace(cfg, scheme=replace(cfg.scheme, **{name: float(value)}))
    if name == "n_nodes":
        return replace(cfg, n_nodes=int(value))
    return replace(cfg, **{"phi" if name == "phi" else "radio_range": float(value)})


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


def _deploy(cfg: ExperimentConfig, index: int) -> tuple[np.random.Generator, np.ndarray]:
    """Replicate ``index``'s own random stream and the points drawn from
    it; SeedingError for a zero radio range (the energy model needs a
    positive one)."""
    if not cfg.radio_range > 0:
        raise SeedingError("radio range must be positive to host a cascade")
    rng = replicate_rng(cfg.master_seed, index)
    return rng, sample_points(cfg.n_nodes, cfg.side, rng)


def _respond(cfg: ExperimentConfig, rng: np.random.Generator, points: np.ndarray) -> Replicate:
    """The network over ``points``, its cascade and its energy, drawn on
    from ``rng`` as ``_deploy`` left it; SeedingError or
    LinkSamplingError when they cannot host a cascade."""
    net = build_rgg(points, cfg.radio_range, cfg.side, cfg.boundary)
    if cfg.scheme.p_r > 0:
        net = add_long_range_links(net, cfg.scheme, rng)
    outcome = run_cascade(net, cfg.cascade, rng)
    report = account_cascade(net, outcome, cfg.energy_model())
    return Replicate(net, outcome, report)


def run_replicate(cfg: ExperimentConfig, index: int) -> Replicate:
    """Replicate ``index`` of ``cfg``, drawn from its own random stream.

    Raises SeedingError or LinkSamplingError when this replicate cannot
    host a cascade; a zero radio range counts as a failed seeding.
    """
    return _respond(cfg, *_deploy(cfg, index))


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


def _seed_neighborhood(points: np.ndarray, seed: int, radius: float, side: float,
                       boundary: BoundaryMode) -> tuple[np.ndarray, np.ndarray]:
    """The neighbors of node ``seed`` under ``build_rgg``'s edge rule, ascending,
    and their degrees, from the points alone.

    A neighbor is a node v != seed with ``pair_distances`` <= radius. By the
    triangle inequality every neighbor of a neighbor lies within 2 * radius
    of the seed, so the degrees are counted within that ball. It is widened
    by SCREEN_SLACK, relative, for the rounding of the distances, and by 4
    ulp of side, absolute, since a torus wrap rounds a delta by up to half
    an ulp of side. Only the nodes whose x delta to the seed is within the
    ball's radius are measured: a distance is never below its x delta.
    """
    reach = 2 * radius * (1 + SCREEN_SLACK) + 4 * np.spacing(side)
    near = np.flatnonzero(axis_deltas(points[:, 0], points[seed, 0], side, boundary) <= reach)
    dist = pair_distances(points[near], points[seed], side, boundary)
    nbrs = near[dist <= radius]
    nbrs = nbrs[nbrs != seed]
    ball = points[near[dist <= reach]]
    # Each neighbor lies in the ball itself, at distance 0: hence the - 1.
    rows = max(1, _PROBE_PAIRS // len(ball))
    degrees = [np.count_nonzero(pair_distances(points[chunk, None], ball, side, boundary) <= radius, axis=1) - 1
               for chunk in np.split(nbrs, np.arange(rows, nbrs.size, rows))]
    return nbrs, np.concatenate(degrees)


def _wakes_nobody(cfg: ExperimentConfig, rng: np.random.Generator, points: np.ndarray) -> bool:
    """Whether the cascade ``_respond`` would run on ``points`` and ``rng``
    provably stops at its seed, decided without building the network.

    Only a replicate with no long links (they draw from the stream before
    the seed, and need the network), the single seed rule and no
    torus-wrap warning from ``build_rgg`` is decided; any other returns
    False. The seed is peeked at: drawn as ``run_cascade`` draws it, then
    the stream is put back, so ``rng`` is left as it came. Step 1 of
    either schedule tests exactly the seed's neighbors, each seeing one
    active neighbor; if none passes the threshold, the step activates
    nobody and the cascade stops (an asynchronous step's keys feed
    nothing).
    """
    if (cfg.scheme.p_r > 0 or cfg.cascade.seed_spec.rule is not SeedRule.SINGLE
            or wrap_is_ambiguous(cfg.radio_range, cfg.side, cfg.boundary)):
        return False
    state = rng.bit_generator.state
    seed = draw_single_seed(cfg.n_nodes, rng)
    rng.bit_generator.state = state
    _, degrees = _seed_neighborhood(points, seed, cfg.radio_range, cfg.side, cfg.boundary)
    return not meets_threshold(1, degrees, cfg.phi).any()


def _summarize(cfg: ExperimentConfig, index: int) -> _Summary:
    """What aggregation keeps of replicate ``index``, deployed once: where
    ``_wakes_nobody`` holds, the summary of a cascade that activated its
    seed alone at time 0 (one local broadcast of energy, no long links),
    else that of ``_respond``; either equals ``run_replicate``'s."""
    try:
        rng, points = _deploy(cfg, index)
        if _wakes_nobody(cfg, rng, points):
            share = 1 / cfg.n_nodes
            return _Summary(success=share >= cfg.cascade.cutoff_fraction, final_fraction=share,
                            energy=local_broadcast_energy(cfg.energy_model()))
        rep = _respond(cfg, rng, points)
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


def _mean_se(values: list) -> tuple[float | None, float | None]:
    """Mean and standard error of ``values``; (None, None) when there are none."""
    if not values:
        return None, None
    values = np.array(values, dtype=float)
    se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return float(values.mean()), se


def _send(pool: ProcessPoolExecutor, cfg: ExperimentConfig, workers: int) -> Iterator[_Summary]:
    """Send cfg's replicates to ``pool`` in contiguous chunks of
    ceil(n_runs / workers), at most one per worker, and return the lazy
    iterator of their summaries in replicate order. ``Executor.map``
    submits every chunk before it returns."""
    n = cfg.n_runs
    return pool.map(_summarize, itertools.repeat(cfg, n), range(n), chunksize=math.ceil(n / workers))


def run_replicates(cfg: ExperimentConfig, n_jobs: int = 1,
                   summaries: Iterable[_Summary] | None = None) -> ReplicateStats:
    """Run cfg.n_runs independent replicates and aggregate.

    ``summaries``, when given, is the iterator ``_send`` returned for
    cfg: the replicates already run, or running, on a pool, and only
    aggregated here. Otherwise, with n_jobs > 1, a pool of workers =
    min(n_jobs, n_runs) is started and joined for this call, and the
    replicates are sent to it in contiguous chunks of ceil(n_runs /
    workers), at most one per worker. Results are identical for any
    n_jobs: replicate i always uses the stream derived from
    (master_seed, i), and aggregation is over the ordered result list.
    """
    if summaries is not None:
        return _aggregate(list(summaries))
    n = cfg.n_runs
    workers = min(n_jobs, n)
    if workers < 2:
        return _aggregate([_summarize(cfg, i) for i in range(n)])
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _aggregate(list(_send(pool, cfg, workers)))


def _aggregate(results: list[_Summary]) -> ReplicateStats:
    n = len(results)
    successes = [r for r in results if r.success]
    n_seeding = sum(1 for r in results if r.infeasible == "seeding")
    n_links = sum(1 for r in results if r.infeasible == "links")
    if n_seeding + n_links == n:
        raise ExperimentInfeasibleError("every replicate failed before the cascade could start", n)

    p = len(successes) / n
    mean_time, time_se = _mean_se([r.time for r in successes])
    mean_energy, energy_se = _mean_se([r.energy for r in successes])
    return ReplicateStats(
        p_global=p,
        p_global_se=math.sqrt(p * (1.0 - p) / n),
        mean_time=mean_time,
        mean_time_se=time_se,
        mean_energy=mean_energy,
        mean_energy_se=energy_se,
        mean_final_fraction=float(np.mean([r.final_fraction for r in results])),
        mean_link_length=_mean_se([r.d_bar for r in results if r.d_bar is not None])[0],
        n_success=len(successes),
        n_runs=n,
        n_infeasible=n_seeding + n_links,
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
    min(n_jobs, n_runs) workers serves every cell: every cell's
    replicates are sent to it up front, and each cell is then aggregated
    by one ``run_replicates`` call, in grid order. An error leaving this
    call cancels the chunks not yet started, and the pool is joined
    before this returns or raises.
    """
    axes = [axis for axis in (spec.axis1, spec.axis2) if axis is not None]
    cells = []
    for values in itertools.product(*(axis.values for axis in axes)):
        v1, v2 = values if spec.axis2 is not None else (*values, None)
        try:
            cfg, error = cell_config(spec.base, {axis.name: v for axis, v in zip(axes, values)}), None
        except ValueError as exc:
            cfg, error = None, str(exc)
        cells.append((v1, v2, cfg, error))
    rows: list[SweepRow] = []
    workers = min(n_jobs, spec.base.n_runs)  # n_runs is not sweepable: every cell has it
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else contextlib.nullcontext()) as pool:
        try:
            sent = [None if pool is None or cfg is None else _send(pool, cfg, workers)
                    for _, _, cfg, _ in cells]
            for (v1, v2, cfg, error), summaries in zip(cells, sent):
                stats = None
                if cfg is not None:
                    try:
                        stats = run_replicates(cfg, n_jobs=n_jobs, summaries=summaries)
                    except ExperimentInfeasibleError as exc:
                        error = str(exc)
                rows.append(SweepRow(axis1_value=v1, axis2_value=v2, stats=stats, error=error))
        except BaseException:
            if pool is not None:
                pool.shutdown(cancel_futures=True)
            raise
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
    if phis.ndim != 1 or phis.shape != ranges.shape:
        raise ValueError(f"need two 1-d grids of one length, got shapes {phis.shape} and {ranges.shape}")
    if phis.size < 3:
        raise EstimationError(f"need at least 3 boundary points to fit, got {phis.size}")
    for name, values in (("threshold", phis), ("boundary range", ranges)):
        bad = values[~(np.isfinite(values) & (values > 0))]
        if bad.size:
            raise EstimationError(f"cannot fit a log-log slope through {name} {float(bad[0])!r}")
    slope, _ = np.polyfit(np.log(phis), np.log(ranges), 1)
    return float(slope)


def window_boundaries(curves) -> tuple[list[tuple], float | None, str | None]:
    """The cascade window read off sweep rows, one curve per threshold.

    ``curves`` holds one ``(phi, R grid, sweep rows over that grid)`` per
    threshold, in order; a flagged row (stats None) reads as NaN. Returns
    ``(table, exponent, reason)``. The table holds one ``(phi, onset,
    upper)`` per curve: ``estimate_crossing`` rising and falling, None
    where it raises EstimationError. Given three or more upper crossings,
    the exponent is ``fit_boundary_exponent`` over them, or None with the
    fit's EstimationError message as the reason; given fewer, both are
    None.
    """
    def crossing(r_values, p_values, rising):
        try:
            return estimate_crossing(r_values, p_values, rising)
        except EstimationError:
            return None

    table = []
    for phi, r_values, rows in curves:
        ps = [math.nan if row.stats is None else row.stats.p_global for row in rows]
        table.append((phi, crossing(r_values, ps, True), crossing(r_values, ps, False)))
    boundaries = [(phi, upper) for phi, _, upper in table if upper is not None]
    if len(boundaries) < 3:
        return table, None, None
    try:
        return table, fit_boundary_exponent(*zip(*boundaries)), None
    except EstimationError as exc:
        return table, None, str(exc)
