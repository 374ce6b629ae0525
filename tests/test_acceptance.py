"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to watch them stream).

Desk scale: the reference deployment is N=10^4 nodes on a 10^3 square
(or N=2500 on a 500 square at the same density where noted), 200
replicates per point, binomial tolerances at 3 sigma. c2 runs the
committed scan ``configs/onset_scan.conf``; c2 and c4 read crossings and
the slope through ``window_boundaries``, the pipeline behind
``netwake transition``. A missing crossing or slope prints as "none".
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from netwake.cascade import CascadeParams, NEVER, SeedSpec, run_cascade
from netwake.cli import main
from netwake.config import parse_config
from netwake.energy import EnergyModel, predicted_energy
from netwake.geometry import BoundaryMode, sample_points
from netwake.montecarlo import (
    ExperimentConfig,
    SweepAxis,
    SweepSpec,
    run_replicates,
    sweep,
    window_boundaries,
)
from netwake.network import build_rgg

from conftest import (
    bfs_component,
    expected_degree,
    mean_local_degree,
    naive_fixed_point,
    network_from_edges,
    random_graph,
)

N_JOBS = os.cpu_count() or 1
N_RUNS = 200
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(cid: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {cid}: {detail}"


def fmt(value: float | None, spec: str) -> str:
    """``value`` formatted to ``spec``, or "none" when it is missing."""
    return "none" if value is None else format(value, spec)


def test_c1_degree_range_relation():
    # 20 graphs at N=10^4, L=10^3, R=12.5: mean degree within 2% of 4.909.
    degrees = []
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        pts = sample_points(10_000, 1000.0, rng)
        degrees.append(mean_local_degree(build_rgg(pts, 12.5, 1000.0, BoundaryMode.TORUS)))
    got = float(np.mean(degrees))
    want = expected_degree(0.01, 12.5)
    rel = abs(got - want) / want
    report(1, rel < 0.02 and abs(want - 4.909) < 5e-4,
           f"mean degree {got:.4f} vs {want:.4f} (rel err {rel:.4%}, tol 2%)")


def test_c2_onset_transition():
    # configs/onset_scan.conf, phi=0.05, single seed: p_global < 0.1 at
    # R=11, > 0.9 at R=14, interpolated onset 12.5 +- 1.0.
    spec = parse_config((CONFIGS / "onset_scan.conf").read_text())
    rows = sweep(spec, n_jobs=N_JOBS)
    p = {row.axis1_value: math.nan if row.stats is None else row.stats.p_global for row in rows}
    [(_, onset, _)], _, _ = window_boundaries([(spec.base.phi, spec.axis1.values, rows)])
    ok = p[11.0] < 0.1 and p[14.0] > 0.9 and onset is not None and abs(onset - 12.5) <= 1.0
    report(2, ok, f"p(R=11)={p[11.0]:.3f} (<0.1), p(R=14)={p[14.0]:.3f} (>0.9), "
                  f"onset R={fmt(onset, '.2f')} (12.5 +- 1.0)")


def test_c3_seed_size_discrimination():
    # phi=0.15, R=22: single seeds must not ignite, connected triples must.
    single = ExperimentConfig(phi=0.15, radio_range=22.0, n_runs=N_RUNS, master_seed=31)
    triple = ExperimentConfig(
        phi=0.15, radio_range=22.0, n_runs=N_RUNS, master_seed=31,
        cascade=CascadeParams(phi=0.15, seed_spec=SeedSpec.triple()),
    )
    p1 = run_replicates(single, n_jobs=N_JOBS).p_global
    p3 = run_replicates(triple, n_jobs=N_JOBS).p_global
    report(3, p1 < 0.1 and p3 > 0.9,
           f"p_global single={p1:.3f} (<0.1), triple={p3:.3f} (>0.9) at phi=0.15 R=22")


def test_c4_upper_boundary_scaling():
    # Upper boundary R_c(phi) over phi in {0.05, 0.1, 0.2}: log-log slope
    # of -0.5 +- 0.2 (N=2500 desk scale at the reference density).
    grids = {
        0.05: tuple(float(r) for r in range(16, 37, 2)),
        0.10: tuple(float(r) for r in range(12, 29, 2)),
        0.20: tuple(float(r) for r in range(12, 23, 2)),
    }
    curves = []
    for phi, grid in grids.items():
        base = ExperimentConfig(phi=phi, radio_range=grid[0], n_nodes=2500, side=500.0,
                                n_runs=N_RUNS, master_seed=404)
        curves.append((phi, grid, sweep(SweepSpec(base=base, axis1=SweepAxis("R", grid)),
                                        n_jobs=N_JOBS)))
    table, slope, reason = window_boundaries(curves)
    detail = ", ".join(f"R_c({phi})={fmt(rc, '.1f')}" for phi, _, rc in table)
    detail += f", slope {fmt(slope, '.3f')} (-0.5 +- 0.2)" + (f": {reason}" if reason else "")
    report(4, slope is not None and abs(slope - (-0.5)) <= 0.2, detail)


def test_c5_small_world_speedup():
    # phi=0.12, R=16, planar (the regime of the snapshot exemplars):
    # adding p_r=0.01 uniform links halves the mean completion time.
    def mean_time(p_r):
        from netwake.smallworld import LinkScheme
        cfg = ExperimentConfig(
            phi=0.12, radio_range=16.0, boundary=BoundaryMode.PLANAR,
            scheme=LinkScheme.uniform(p_r), n_runs=N_RUNS, master_seed=505,
        )
        return run_replicates(cfg, n_jobs=N_JOBS).mean_time

    t_plain = mean_time(0.0)
    t_linked = mean_time(0.01)
    ratio = t_linked / t_plain
    report(5, ratio < 0.5,
           f"mean time {t_plain:.1f} -> {t_linked:.1f} steps, ratio {ratio:.3f} (< 0.5)")


def test_c6_energy_linearity_and_prediction():
    # phi=0.12, R=14: accounted mean energy per global cascade matches the
    # closed form within 5% for each p_r, and is linear in p_r.
    from netwake.smallworld import LinkScheme

    model = EnergyModel(1.0, 14.0)
    p_rs = (0.005, 0.01, 0.02)
    means, rel_errs = [], []
    for p_r in p_rs:
        cfg = ExperimentConfig(phi=0.12, radio_range=14.0, scheme=LinkScheme.uniform(p_r),
                               n_runs=N_RUNS, master_seed=606)
        stats = run_replicates(cfg, n_jobs=N_JOBS)
        predicted = predicted_energy(cfg.n_nodes, model, p_r, stats.mean_link_length)
        means.append(stats.mean_energy)
        rel_errs.append(abs(stats.mean_energy - predicted) / predicted)
    coeffs = np.polyfit(p_rs, means, 1)
    residuals = np.abs(np.polyval(coeffs, p_rs) - np.asarray(means))
    resid_frac = float(residuals.max() / (max(means) - min(means)))
    ok = max(rel_errs) < 0.05 and resid_frac < 0.05
    report(6, ok, f"closed-form rel errs {[f'{e:.3%}' for e in rel_errs]} (<5%), "
                  f"linear-fit residual {resid_frac:.3%} of range (<5%)")


def test_c7_cutoff_distance_tradeoff():
    # phi=0.12, R=16, p_r=0.01, d_c from 0.1L to sqrt(2)L. All cells share
    # one master seed (common random numbers), so the energy plateau beyond
    # the torus saturation distance compares exactly.
    from netwake.smallworld import LinkScheme

    side = 1000.0
    model = EnergyModel(1.0, 16.0)
    fractions = (0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1.0, math.sqrt(2))
    times, energies, rel_errs = {}, [], []
    for frac in fractions:
        cfg = ExperimentConfig(
            phi=0.12, radio_range=16.0, scheme=LinkScheme.cutoff(0.01, frac * side),
            n_runs=N_RUNS, master_seed=707,
        )
        stats = run_replicates(cfg, n_jobs=N_JOBS)
        times[frac] = stats.mean_time
        energies.append(stats.mean_energy)
        predicted = predicted_energy(cfg.n_nodes, model, 0.01, stats.mean_link_length)
        rel_errs.append(abs(stats.mean_energy - predicted) / predicted)

    time_gap = abs(times[0.4] - times[math.sqrt(2)]) / times[math.sqrt(2)]
    nondecreasing = all(b >= a for a, b in zip(energies, energies[1:]))
    ok = time_gap <= 0.15 and nondecreasing and max(rel_errs) < 0.05
    report(7, ok, f"time(0.4L) within {time_gap:.2%} of unrestricted (<=15%), "
                  f"energy nondecreasing={nondecreasing}, "
                  f"closed-form max rel err {max(rel_errs):.3%} (<5%)")


def test_c8_oracle_equivalence():
    # 500 random graphs with N <= 8, random seed sets, phi in {0, .3, .5, 1}:
    # the engine's final set equals naive full-rescan fixed-point iteration,
    # and at phi=0 it equals the seeds' components by BFS.
    checked = 0
    for trial in range(500):
        rng = np.random.default_rng(8000 + trial)
        n = int(rng.integers(2, 9))
        edges = random_graph(n, float(rng.uniform(0.15, 0.6)), rng)
        net = network_from_edges(n, edges)
        seeds = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        phi = float(rng.choice([0.0, 0.3, 0.5, 1.0]))
        out = run_cascade(
            net, CascadeParams(phi=phi, seed_spec=SeedSpec.explicit(seeds)), rng
        )
        got = set(np.flatnonzero(out.activation_time != NEVER))
        assert got == naive_fixed_point(n, edges, seeds, phi), (trial, phi, seeds, edges)
        if phi == 0.0:
            flooded = set()
            for s in seeds:
                comp, _ = bfs_component(n, edges, s)
                flooded |= comp
            assert got == flooded, (trial, seeds, edges)
        checked += 1
    report(8, checked == 500, f"{checked}/500 random instances match both oracles exactly")


def test_c9_determinism(tmp_path):
    # Same master seed => byte-identical CSV (modulo the wall-clock line),
    # whatever the worker count.
    doc = """
    phi = 0.1
    R = 16
    n_nodes = 400
    L = 200
    n_runs = 10
    master_seed = 99
    sweep {
        axis1 = R
        values1 = 12, 16
        axis2 = phi
        values2 = 0.05, 0.2
    }
    """
    cfg = tmp_path / "det.conf"
    cfg.write_text(doc)

    def emit(name, threads):
        out = tmp_path / name
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--threads", str(threads)]) == 0
        with open(out, "rb") as fh:
            return [line for line in fh if b"duration-s" not in line]

    runs = [emit("a.csv", 1), emit("b.csv", 1), emit("c.csv", 2)]
    ok = runs[0] == runs[1] == runs[2]
    report(9, ok, "sweep CSV byte-identical across repeats and thread counts "
                  "(wall-clock manifest line excluded)")
