"""The benchmark's workloads: inputs made from the workload seed, the timed
loop, the output checks and, with tracing on, the per-layer numbers.

Three workloads time single replicates at the reference deployment
(N=10^4, L=10^3, R=16, phi=0.12, torus, single seed, p_r=0.01), each
through one ``run_replicates(n_runs=1, n_jobs=1)`` call with its own master
seed. They differ in one thing each: the cascade schedule
(``replicate_sync`` / ``replicate_async``) or the link scheme
(``powerlaw_links``, delta=2). ``window_sweep`` runs the
``configs/window_map.conf`` grid through ``netwake.cli.main`` with a pool
of ``SWEEP_WORKERS`` processes.
"""

from __future__ import annotations

import contextlib
import io
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from netwake import cascade, cli, config, montecarlo, network, smallworld
from netwake.cascade import CascadeParams, Schedule
from netwake.montecarlo import ExperimentConfig
from netwake.smallworld import LinkScheme

import checks
from tracer import Tracer

REPLICATE_WORKLOADS = ("replicate_sync", "replicate_async", "powerlaw_links")
WORKLOADS = REPLICATE_WORKLOADS + ("window_sweep",)

SWEEP_WORKERS = 2
SWEEP_RUNS_PER_CELL = 8
QUICK_RUNS_PER_CELL = 2
SETUP_REPEATS = 3
SEED_POOL = 100_000  # master seeds drawn up front, far more than one run uses
MAX_PROBLEMS = 5  # problem messages kept for the report

# Quick mode keeps the reference density (10^-2 nodes per unit area), so the
# mean degree at a given R, and with it the cascade regime, is unchanged.
QUICK_SIZE = {"n_nodes": 400, "L": 200.0}

END_TO_END = {
    "replicates_per_s": "1/s",
    "replicate_ms_p50": "ms",
    "replicate_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "geometry.sample_points.ms": "ms",
    "network.build_rgg.ms": "ms",
    "network.candidate_pairs": "count",
    "network.local_edges": "count",
    "network.pair_hit_ratio": "ratio",
    "smallworld.add_long_range_links.ms": "ms",
    "smallworld.draws": "count",
    "smallworld.links_added": "count",
    "smallworld.accept_ratio": "ratio",
    "cascade.run_cascade.ms": "ms",
    "cascade.run_cascade.self_ms": "ms",
    "cascade.steps": "count",
    "cascade.activations": "count",
    "cascade.frontier_mean": "count",
    "cascade.step_sync.us_p50": "us",
    "cascade.step_async.ms_p50": "ms",
    "energy.account_cascade.ms": "ms",
    "montecarlo.sweep.ms": "ms",
    "montecarlo.cell.ms_p50": "ms",
    "montecarlo.parallel_efficiency": "ratio",
    "config.parse_config.ms": "ms",
    "output.emit_sweep_csv.ms": "ms",
    "trace.overhead_share": "ratio",
}


@dataclass
class Result:
    """What one run measured and whether its outputs were right."""

    attempted: int = 0
    failed: int = 0
    identical: bool = True  # traced and untraced results agree
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        """Count one operation, failed if it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: MAX_PROBLEMS - len(self.problems)])

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.identical


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten
    samples above it; the minimum when there are ten samples or fewer."""
    ordered = sorted(values)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _peak_rss_mb(workers: int = 0) -> float:
    """Peak resident memory of this process, plus ``workers`` times the
    largest peak among its finished child processes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def _timing_metrics(result: Result, seconds: list[float], per_op: int, completed: int, wall: float) -> None:
    """End-to-end timings from per-operation wall times (each covering
    ``per_op`` replicates) and the completed replicates over ``wall``."""
    per_replicate_ms = [1000.0 * s / per_op for s in seconds]
    value, pct = tail(per_replicate_ms)
    result.metrics["replicates_per_s"] = completed / wall
    result.metrics["replicate_ms_p50"] = statistics.median(per_replicate_ms)
    result.metrics["replicate_ms_tail"] = value
    result.notes.append(f"replicate_ms_tail is p{pct:.1f} of {len(per_replicate_ms)} samples")


# -- replicate workloads --------------------------------------------------------


def replicate_config(name: str, quick: bool) -> ExperimentConfig:
    schedule = Schedule.ASYNCHRONOUS if name == "replicate_async" else Schedule.SYNCHRONOUS
    scheme = LinkScheme.power_law(0.01, 2.0) if name == "powerlaw_links" else LinkScheme.uniform(0.01)
    size = {"n_nodes": QUICK_SIZE["n_nodes"], "side": QUICK_SIZE["L"]} if quick else {}
    return ExperimentConfig(
        phi=0.12,
        radio_range=16.0,
        scheme=scheme,
        cascade=CascadeParams(phi=0.12, schedule=schedule),
        n_runs=1,
        **size,
    )


@dataclass
class ReplicateInputs:
    base: ExperimentConfig
    seeds: list[int]  # one master seed per replicate, in run order
    workload_seed: int


def setup_replicates(name: str, workload_seed: int, quick: bool) -> ReplicateInputs:
    """Make the inputs from the workload seed and run one warm-up replicate."""
    warmup, *seeds = np.random.default_rng(workload_seed).integers(0, 2**63 - 1, SEED_POOL + 1).tolist()
    base = replicate_config(name, quick)
    montecarlo.run_replicates(replace(base, master_seed=warmup), n_jobs=1)
    return ReplicateInputs(base, seeds, workload_seed)


def _trace_replicate_layers(t: Tracer) -> None:
    """Spans and counts for every layer one replicate passes through."""

    def count_step(t, args, state):
        t.add("cascade.steps", 1)
        t.add("cascade.frontier", args[1].newly_activated.size)
        t.add("cascade.activations", state.newly_activated.size)

    t.wrap(montecarlo, "sample_points", span="geometry.sample_points")
    t.wrap(montecarlo, "build_rgg", span="network.build_rgg",
           on_return=lambda t, args, net: t.add("network.local_edges", net.n_local_edges))
    t.wrap(network, "pair_distances",
           on_return=lambda t, args, d: t.add("network.candidate_pairs", d.size))
    t.wrap(montecarlo, "add_long_range_links", span="smallworld.add_long_range_links",
           on_return=lambda t, args, net: t.add("smallworld.links_added", net.n_long_edges - args[0].n_long_edges))
    t.wrap(smallworld, "pair_distances",
           on_return=lambda t, args, d: t.add("smallworld.draws", d.size))
    t.wrap(montecarlo, "run_cascade", span="cascade.run_cascade")
    t.wrap(cascade, "step_synchronous", span="cascade.step_sync", on_return=count_step)
    t.wrap(cascade, "step_asynchronous", span="cascade.step_async", on_return=count_step)
    t.wrap(montecarlo, "account_cascade", span="energy.account_cascade")


def _replicate_pass(inputs: ReplicateInputs, result: Result, t: Tracer, traced: bool,
                    seconds: float | None = None, count: int | None = None) -> list[tuple[float, object]]:
    """Run replicates in seed order for ``seconds`` of wall time (at least
    one) or exactly ``count`` of them; check each outside its timed call.

    Returns (seconds, stats or None) per replicate.
    """
    captured = {}

    def capture(t, args, report):
        captured["net"], captured["outcome"], captured["report"] = args[0], args[1], report

    with t:
        if traced:
            t.wrap(montecarlo, "run_replicates", span="montecarlo.run_replicates")
            _trace_replicate_layers(t)
        t.wrap(montecarlo, "account_cascade", on_return=capture)
        runs = []
        start = time.perf_counter()
        for index, master_seed in enumerate(inputs.seeds):
            if count is not None and index == count:
                break
            if seconds is not None and runs and time.perf_counter() - start >= seconds:
                break
            cfg = replace(inputs.base, master_seed=master_seed)
            captured.clear()
            t.request = index
            began = time.perf_counter()
            try:
                stats = montecarlo.run_replicates(cfg, n_jobs=1)
            except Exception as exc:  # a failed operation, counted below
                stats, problems = None, [f"replicate {index} raised {exc!r}"]
            elapsed = time.perf_counter() - began
            if stats is not None:
                spot_rng = np.random.default_rng([inputs.workload_seed, index])
                problems = checks.check_replicate(cfg, stats, captured["net"], captured["outcome"],
                                                  captured["report"], spot_rng)
            result.record(problems)
            runs.append((elapsed, stats))
    return runs


def _layer_metrics(result: Result, t: Tracer, replicates: int) -> None:
    """Per-replicate layer numbers from a tracer that wrapped every layer."""
    def per_replicate_ms(name):
        return 1000.0 * sum(t.seconds(name)) / replicates

    def p50(name, scale):
        values = t.seconds(name)
        return scale * statistics.median(values) if values else 0.0

    counts = t.counts
    m = result.metrics
    for name in ("geometry.sample_points", "network.build_rgg", "smallworld.add_long_range_links",
                 "cascade.run_cascade", "energy.account_cascade"):
        m[name + ".ms"] = per_replicate_ms(name)
    m["cascade.run_cascade.self_ms"] = 1000.0 * sum(t.self_seconds("cascade.run_cascade")) / replicates
    for name in ("network.candidate_pairs", "network.local_edges", "smallworld.draws",
                 "smallworld.links_added", "cascade.steps", "cascade.activations"):
        m[name] = counts.get(name, 0) / replicates
    m["network.pair_hit_ratio"] = m["network.local_edges"] / max(m["network.candidate_pairs"], 1)
    m["smallworld.accept_ratio"] = m["smallworld.links_added"] / max(m["smallworld.draws"], 1)
    m["cascade.frontier_mean"] = counts.get("cascade.frontier", 0) / max(counts.get("cascade.steps", 0), 1)
    m["cascade.step_sync.us_p50"] = p50("cascade.step_sync", 1e6)
    m["cascade.step_async.ms_p50"] = p50("cascade.step_async", 1e3)


def run_replicate_workload(inputs: ReplicateInputs, seconds: float, trace: bool) -> Result:
    result = Result()
    if not trace:
        runs = _replicate_pass(inputs, result, Tracer(), traced=False, seconds=seconds)
        completed = sum(1 for _, stats in runs if stats is not None)
        _timing_metrics(result, [s for s, _ in runs], 1, completed, sum(s for s, _ in runs))
        result.metrics["peak_rss_mb"] = _peak_rss_mb()
        return result

    # Half the time untraced, then the same replicates again traced: equal
    # results show the wrappers leave the random streams alone, and the
    # time ratio is the tracing overhead.
    plain = _replicate_pass(inputs, result, Tracer(), traced=False, seconds=seconds / 2)
    t = Tracer()
    traced = _replicate_pass(inputs, result, t, traced=True, count=len(plain))
    result.identical = [stats for _, stats in plain] == [stats for _, stats in traced]
    _layer_metrics(result, t, len(traced))
    result.metrics["montecarlo.cell.ms_p50"] = 1e3 * statistics.median(t.seconds("montecarlo.run_replicates"))
    result.metrics["trace.overhead_share"] = sum(s for s, _ in traced) / sum(s for s, _ in plain) - 1.0
    result.notes.append(f"{len(traced)} replicates traced")
    return result


# -- window_sweep ---------------------------------------------------------------


@dataclass
class SweepInputs:
    config_path: Path
    spec: montecarlo.SweepSpec
    seeds: list[int]  # one master seed per sweep, in run order
    workdir: Path

    @property
    def cells(self) -> list[dict[str, float]]:
        spec = self.spec
        return [{spec.axis1.name: v1, spec.axis2.name: v2}
                for v1 in spec.axis1.values for v2 in spec.axis2.values]


def setup_sweep(root: Path, workdir: Path, workload_seed: int, quick: bool) -> SweepInputs:
    """Write the window-map grid with this benchmark's replicate count (and
    size, in quick mode), draw the sweep seeds and run one warm-up replicate."""
    overrides = {"n_runs": QUICK_RUNS_PER_CELL if quick else SWEEP_RUNS_PER_CELL}
    if quick:
        overrides.update(QUICK_SIZE)
    lines = (root / "configs" / "window_map.conf").read_text().splitlines()
    for key, value in overrides.items():
        hits = [i for i, line in enumerate(lines) if line.split("=")[0].strip() == key]
        if len(hits) != 1:
            raise RuntimeError(f"window_map.conf: expected one '{key} =' line, found {len(hits)}")
        lines[hits[0]] = f"{key} = {value}"
    text = "\n".join(lines) + "\n"
    path = workdir / "window_map.conf"
    path.write_text(text)
    spec = config.parse_config(text)
    seeds = np.random.default_rng(workload_seed).integers(0, 2**31, SEED_POOL).tolist()
    inputs = SweepInputs(path, spec, seeds, workdir)
    montecarlo.run_replicates(montecarlo.cell_config(replace(spec.base, n_runs=1), inputs.cells[0]))
    return inputs


def _trace_sweep_layers(t: Tracer) -> None:
    t.wrap(cli, "parse_config", span="config.parse_config")
    t.wrap(cli, "sweep", span="montecarlo.sweep")
    t.wrap(cli, "emit_sweep_csv", span="output.emit_sweep_csv")


def _sweep_once(inputs: SweepInputs, index: int, workers: int, result: Result, t: Tracer,
                layers: bool) -> tuple[float, list[float], bytes]:
    """One sweep through the CLI, then its checks outside the timed call.

    Cell wall times are always taken from a span around ``run_replicates``;
    ``layers`` adds the CLI-level spans and, at one worker, the
    per-replicate ones. Returns the sweep's wall seconds, each cell's wall
    seconds and the output bytes without the duration line.
    """
    seed = inputs.seeds[index]
    out = inputs.workdir / f"sweep-{index}-{workers}.csv"
    argv = ["sweep", "--config", str(inputs.config_path), "--seed", str(seed),
            "--out", str(out), "--threads", str(workers)]
    cell_stats = []
    first_span = len(t.spans)
    t.request = index
    with t:
        t.wrap(montecarlo, "run_replicates", span="montecarlo.run_replicates",
               on_return=lambda t, args, stats: cell_stats.append(stats))
        if layers:
            _trace_sweep_layers(t)
            if workers == 1:
                _trace_replicate_layers(t)
        with contextlib.redirect_stdout(io.StringIO()):
            began = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - began

    cells = inputs.cells
    cell_seconds = [s.seconds for s in t.spans[first_span:] if s.name == "montecarlo.run_replicates"]
    if code != 0:
        for _ in cells:
            result.record([f"sweep {index} exited with code {code}"])
        return wall, cell_seconds, b""
    rows = checks.read_sweep_csv(str(out))
    grid = [(c[inputs.spec.axis1.name], c[inputs.spec.axis2.name]) for c in cells]
    per_cell = checks.check_sweep_rows(rows, grid, cell_stats, inputs.spec.base.n_runs)

    # Recompute one cell in this process, at one worker: it must reproduce
    # the pooled row exactly.
    j = seed % len(cells)
    base = replace(inputs.spec.base, master_seed=seed)
    again = montecarlo.run_replicates(montecarlo.cell_config(base, cells[j]), n_jobs=1)
    if len(rows) == len(cells) and not checks.row_matches(rows[j], again):
        per_cell[j].append(f"cell {j} recomputed at one worker differs from the sweep row")
    for problems in per_cell:
        result.record(problems)
    text = out.read_bytes()
    out.unlink()
    return wall, cell_seconds, b"".join(line for line in text.splitlines(keepends=True) if b"duration-s" not in line)


def run_sweep_workload(inputs: SweepInputs, seconds: float, trace: bool) -> Result:
    result = Result()
    replicates_per_sweep = len(inputs.cells) * inputs.spec.base.n_runs
    start = time.perf_counter()
    index = 0
    if not trace:
        walls, cell_seconds = [], []
        t = Tracer()
        while not walls or time.perf_counter() - start < seconds:
            wall, cells, _ = _sweep_once(inputs, index, SWEEP_WORKERS, result, t, layers=False)
            walls.append(wall)
            cell_seconds += cells
            index += 1
        completed = replicates_per_sweep * len(walls) - result.failed * inputs.spec.base.n_runs
        _timing_metrics(result, cell_seconds, inputs.spec.base.n_runs, completed, sum(walls))
        result.metrics["peak_rss_mb"] = _peak_rss_mb(SWEEP_WORKERS)
        return result

    # Each round runs one seed three times: untraced and traced at
    # SWEEP_WORKERS (cell, sweep, config and output spans), then traced at
    # one worker, where the per-replicate layer spans stay in this process.
    plain_walls, pooled_walls = [], []
    pooled, single = Tracer(), Tracer()
    while not plain_walls or time.perf_counter() - start < seconds:
        wall, _, plain_bytes = _sweep_once(inputs, index, SWEEP_WORKERS, result, Tracer(), layers=False)
        plain_walls.append(wall)
        wall, _, pooled_bytes = _sweep_once(inputs, index, SWEEP_WORKERS, result, pooled, layers=True)
        pooled_walls.append(wall)
        _, _, single_bytes = _sweep_once(inputs, index, 1, result, single, layers=True)
        result.identical &= plain_bytes == pooled_bytes == single_bytes
        index += 1

    _layer_metrics(result, single, replicates_per_sweep * index)
    m = result.metrics
    m["montecarlo.cell.ms_p50"] = 1e3 * statistics.median(pooled.seconds("montecarlo.run_replicates"))
    m["montecarlo.sweep.ms"] = 1e3 * statistics.mean(pooled.seconds("montecarlo.sweep"))
    m["config.parse_config.ms"] = 1e3 * statistics.mean(pooled.seconds("config.parse_config"))
    m["output.emit_sweep_csv.ms"] = 1e3 * statistics.mean(pooled.seconds("output.emit_sweep_csv"))
    busy_single = sum(single.seconds("montecarlo.run_replicates"))
    m["montecarlo.parallel_efficiency"] = busy_single / (SWEEP_WORKERS * sum(pooled.seconds("montecarlo.sweep")))
    m["trace.overhead_share"] = sum(pooled_walls) / sum(plain_walls) - 1.0
    result.notes.append(f"{index} sweep seeds traced at {SWEEP_WORKERS} workers and at 1")
    return result
