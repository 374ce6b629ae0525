"""Quick mode of the benchmark, and the output checks against broken outputs.

Every workload runs at N=400, untraced and traced, in a few seconds each:

    python3 -m pytest -q perfbench/test_quick.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from netwake import account_cascade, add_long_range_links, build_rgg, run_cascade, sample_points  # noqa: E402
from netwake.montecarlo import ReplicateStats, replicate_rng  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_quick_run_is_correct_and_reports_every_metric(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}


def test_metric_tables_match_benchmark_json():
    assert workloads.END_TO_END == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert workloads.PER_LAYER == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert list(workloads.WORKLOADS) == [w["name"] for w in BENCHMARK["workloads"]]


@pytest.fixture(scope="module")
def replicate():
    cfg = workloads.replicate_config("replicate_sync", quick=True)
    rng = replicate_rng(7, 0)
    net = build_rgg(sample_points(cfg.n_nodes, cfg.side, rng), cfg.radio_range, cfg.side, cfg.boundary)
    net = add_long_range_links(net, cfg.scheme, rng)
    outcome = run_cascade(net, cfg.cascade, rng)
    report = account_cascade(net, outcome, cfg.energy_model())
    return cfg, net, outcome, report


def test_checks_pass_on_library_output(replicate):
    cfg, net, outcome, report = replicate
    assert outcome.time > 1, "needs a cascade that lasts a few steps"
    assert checks.check_neighbors(net, np.random.default_rng(0)) == []
    assert checks.check_links(net, cfg.scheme.p_r) == []
    assert checks.check_fixed_point(net, outcome, cfg.phi) == []
    assert checks.check_energy(net, outcome, report, cfg.coefficient) == []


def test_checks_catch_broken_outputs(replicate):
    cfg, net, outcome, report = replicate
    shrunk = replace(net, positions=net.positions * 0.5)
    assert checks.check_neighbors(shrunk, np.random.default_rng(0))

    stretched = replace(net, long_length=net.long_length + 1.0)
    assert checks.check_links(stretched, cfg.scheme.p_r)
    doubled = replace(net, long_u=np.repeat(net.long_u[:1], net.long_u.size),
                      long_v=np.repeat(net.long_v[:1], net.long_v.size),
                      long_length=np.repeat(net.long_length[:1], net.long_length.size))
    assert checks.check_links(doubled, cfg.scheme.p_r)
    assert checks.check_links(net, 2 * cfg.scheme.p_r)

    cut = np.where(outcome.activation_time > 1, checks.NEVER, outcome.activation_time)
    truncated = replace(outcome, activation_time=cut)
    assert any("threshold rule" in p for p in checks.check_fixed_point(net, truncated, cfg.phi))

    inflated = replace(report, total_energy=report.total_energy * (1 + 1e-6))
    assert checks.check_energy(net, outcome, inflated, cfg.coefficient)


def test_sweep_row_check():
    stats = ReplicateStats(
        p_global=0.5, p_global_se=math.sqrt(0.25 / 2), mean_time=3.0, mean_time_se=0.0,
        mean_energy=10.0, mean_energy_se=0.0, mean_final_fraction=0.5, mean_link_length=None,
        n_success=1, n_runs=2, n_infeasible=0,
    )
    row = {"axis1": "0.1", "axis2": "16.0", **{k: repr(getattr(stats, k)) for k in checks.SWEEP_STATS}}
    grid = [(0.1, 16.0)]
    assert checks.check_sweep_rows([row], grid, [stats], 2) == [[]]
    assert checks.check_sweep_rows([{**row, "p_global": "0.25"}], grid, [stats], 2) != [[]]
    flagged = {**row, **{k: "" for k in checks.SWEEP_STATS}}
    assert checks.check_sweep_rows([flagged], grid, [], 2) != [[]]
    assert checks.check_sweep_rows([row], [(0.1, 18.0)], [stats], 2) != [[]]


def test_tail_has_ten_samples_above():
    values = [float(v) for v in range(100)]
    value, pct = workloads.tail(values)
    assert sum(v > value for v in values) == 10 and pct == 90.0
    assert workloads.tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3)
