"""Output checks that hold for any workload seed.

Each check recomputes its answer by its own route (brute-force distances,
a full rescan of the threshold rule, a fresh energy sum) instead of
calling the library function under test, and returns a list of problems:
empty means the output passed. They run outside the timed region.
"""

from __future__ import annotations

import csv
import math

import numpy as np

NEVER = -1  # activation time of a node that never turned on
SPOT_NODES = 20
REL_TOL = 1e-9


def _metric(a: np.ndarray, b: np.ndarray, side: float, torus: bool) -> np.ndarray:
    delta = np.abs(a - b)
    if torus:
        delta = np.minimum(delta, side - delta)
    return np.hypot(delta[:, 0], delta[:, 1])


def check_neighbors(net, rng: np.random.Generator) -> list[str]:
    """Spot-check neighbor lists of a few random nodes against brute force.

    The local list must hold exactly the other nodes within range; the full
    list must be the local list plus the node's long-range partners.
    """
    torus = net.boundary.value == "torus"
    nodes = rng.choice(net.n_nodes, size=min(SPOT_NODES, net.n_nodes), replace=False)
    problems = []
    for node in nodes.tolist():
        d = _metric(net.positions, net.positions[node], net.side, torus)
        expected = np.flatnonzero(d <= net.radio_range)
        expected = expected[expected != node]
        if not np.array_equal(net.local_neighbors(node), expected):
            problems.append(f"node {node}: local neighbors differ from brute force")
            continue
        partners = np.concatenate([net.long_v[net.long_u == node], net.long_u[net.long_v == node]])
        if not np.array_equal(net.neighbors(node), np.sort(np.concatenate([expected, partners]))):
            problems.append(f"node {node}: merged neighbors differ from local plus long links")
    return problems


def check_links(net, p_r: float) -> list[str]:
    """round(p_r N) long links, none a self-loop, a repeat or a local edge,
    each with its recorded length equal to the metric distance."""
    n = net.n_nodes
    u, v, length = net.long_u, net.long_v, net.long_length
    problems = []
    if u.size != round(p_r * n):
        problems.append(f"{u.size} long links, expected round({p_r} * {n})")
    if np.any(u == v):
        problems.append("self-loop among long links")
    keys = np.minimum(u, v) * n + np.maximum(u, v)
    if np.unique(keys).size != keys.size:
        problems.append("duplicate long link")
    if any(int(b) in set(net.local_neighbors(int(a)).tolist()) for a, b in zip(u, v)):
        problems.append("long link duplicates a local edge")
    d = _metric(net.positions[u], net.positions[v], net.side, net.boundary.value == "torus")
    if not np.allclose(length, d, rtol=REL_TOL, atol=0.0):
        problems.append("recorded long-link lengths differ from the metric distances")
    return problems


def _active_neighbor_counts(net, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(active neighbor count, degree) per node from the local CSR and the
    long-link arrays, without the merged adjacency the cascade uses."""
    n = net.n_nodes
    local_deg = np.diff(net.local_indptr)
    src = np.repeat(np.arange(n), local_deg)
    counts = np.bincount(src, weights=active[net.local_indices], minlength=n)
    counts += np.bincount(net.long_u, weights=active[net.long_v], minlength=n)
    counts += np.bincount(net.long_v, weights=active[net.long_u], minlength=n)
    degree = local_deg + np.bincount(net.long_u, minlength=n) + np.bincount(net.long_v, minlength=n)
    return counts, degree


def check_fixed_point(net, outcome, phi: float) -> list[str]:
    """The final active set is closed under the threshold rule: no inactive
    node has an active neighbor and an active share of at least phi."""
    active = outcome.activation_time != NEVER
    problems = []
    if outcome.stalled:
        problems.append("cascade stalled before reaching a fixed point")
    if not math.isclose(outcome.final_fraction, active.mean(), rel_tol=REL_TOL):
        problems.append("final fraction disagrees with the activation times")
    counts, degree = _active_neighbor_counts(net, active)
    idle = np.flatnonzero(~active & (counts > 0))
    eligible = idle[counts[idle] / degree[idle] >= phi]
    if eligible.size:
        problems.append(f"{eligible.size} inactive nodes meet the threshold rule")
    return problems


def check_energy(net, outcome, report, coefficient: float) -> list[str]:
    """total_energy = m c R^2 + sum of c R d over links with an active end."""
    active = outcome.activation_time != NEVER
    used = active[net.long_u] | active[net.long_v]
    r = net.radio_range
    expected = int(active.sum()) * coefficient * r * r + math.fsum(
        (coefficient * r * net.long_length[used]).tolist()
    )
    if not math.isclose(report.total_energy, expected, rel_tol=REL_TOL):
        return [f"total energy {report.total_energy} != {expected}"]
    return []


def check_replicate(cfg, stats, net, outcome, report, rng: np.random.Generator) -> list[str]:
    """All checks for one replicate plus the tie between the returned
    statistics and the captured network, outcome and energy report."""
    problems = []
    if stats.n_runs != 1 or stats.n_infeasible:
        problems.append(f"stats cover {stats.n_runs} runs, {stats.n_infeasible} infeasible")
    success = outcome.is_global and not outcome.stalled
    if stats.p_global != float(success) or stats.mean_final_fraction != outcome.final_fraction:
        problems.append("returned statistics disagree with the captured outcome")
    if success and stats.mean_energy != report.total_energy:
        problems.append("returned energy disagrees with the captured report")
    problems += check_neighbors(net, rng)
    problems += check_links(net, cfg.scheme.p_r)
    problems += check_fixed_point(net, outcome, cfg.phi)
    problems += check_energy(net, outcome, report, cfg.coefficient)
    return problems


SWEEP_STATS = ("p_global", "p_global_se", "mean_time", "mean_time_se",
               "mean_energy", "mean_energy_se", "n_success", "n_runs")


def read_sweep_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def row_matches(row: dict[str, str], stats) -> bool:
    """Whether a CSV row holds exactly these statistics (empty means None)."""
    for key in SWEEP_STATS:
        value = getattr(stats, key)
        if (row[key] == "") != (value is None):
            return False
        if value is not None and float(row[key]) != float(value):
            return False
    return True


def check_sweep_rows(rows: list[dict[str, str]], grid: list[tuple[float, float]], cell_stats: list,
                     n_runs: int) -> list[list[str]]:
    """Problems per grid cell: one row per cell in grid order, each equal to
    the statistics the sweep computed for it, with consistent counts.

    ``cell_stats`` holds the statistics of the cells that returned, in call
    order; a flagged row (empty statistics) is a cell that raised.
    """
    if len(rows) != len(grid):
        return [[f"{len(rows)} rows for a {len(grid)}-cell grid"] for _ in grid]
    problems: list[list[str]] = [[] for _ in grid]
    returned = iter(cell_stats)
    for row, (v1, v2), cell in zip(rows, grid, problems):
        if (float(row["axis1"]), float(row["axis2"])) != (v1, v2):
            cell.append(f"row ({row['axis1']}, {row['axis2']}) out of grid order")
        if row["p_global"] == "":
            cell.append(f"cell ({v1}, {v2}) flagged")
            continue
        stats = next(returned, None)
        if stats is None or not row_matches(row, stats):
            cell.append(f"row ({v1}, {v2}) differs from the cell's computed statistics")
            continue
        if stats.n_infeasible:
            cell.append(f"cell ({v1}, {v2}) has {stats.n_infeasible} infeasible replicates")
        p = stats.n_success / n_runs
        if stats.n_runs != n_runs or stats.p_global != p:
            cell.append(f"p_global {stats.p_global} over {stats.n_runs} runs, expected {n_runs} runs")
        if not math.isclose(stats.p_global_se, math.sqrt(p * (1 - p) / n_runs), rel_tol=REL_TOL, abs_tol=1e-15):
            cell.append("p_global_se is not the binomial standard error")
        if (stats.mean_time is None) != (stats.n_success == 0):
            cell.append("mean time present without successes, or missing with them")
    return problems
