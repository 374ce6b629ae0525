import math
import multiprocessing

import numpy as np
import pytest

from netwake import montecarlo
from netwake.cascade import CascadeParams, SeedSpec
from netwake.errors import EstimationError, ExperimentInfeasibleError
from netwake.geometry import BoundaryMode, sample_points
from netwake.montecarlo import (
    ExperimentConfig,
    SweepAxis,
    SweepSpec,
    cell_config,
    estimate_crossing,
    fit_boundary_exponent,
    replicate_rng,
    run_replicates,
    sweep,
)
from netwake.network import build_rgg
from netwake.smallworld import LinkScheme

from conftest import components, giant_fraction


def small_cfg(**overrides) -> ExperimentConfig:
    """A fast desk-scale experiment at the reference density."""
    defaults = dict(phi=0.1, radio_range=16.0, n_nodes=400, side=200.0,
                    n_runs=12, master_seed=42)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestRunReplicates:
    def test_bitwise_reproducible(self):
        a = run_replicates(small_cfg())
        b = run_replicates(small_cfg())
        assert a == b

    def test_worker_count_does_not_change_results(self):
        serial = run_replicates(small_cfg())
        parallel = run_replicates(small_cfg(), n_jobs=2)
        assert serial == parallel

    def test_different_seeds_differ(self):
        a = run_replicates(small_cfg(n_runs=30))
        b = run_replicates(small_cfg(n_runs=30, master_seed=43))
        assert a != b

    def test_binomial_standard_error(self):
        stats = run_replicates(small_cfg(n_runs=25))
        p, n = stats.p_global, stats.n_runs
        assert stats.p_global_se == pytest.approx(math.sqrt(p * (1 - p) / n))
        assert stats.n_success == round(p * n)

    def test_no_giant_means_no_cascades(self):
        # Below the connectivity onset nothing can reach the cutoff; verify
        # against the component oracle on every replicate's own network.
        cfg = small_cfg(phi=0.1, radio_range=9.0, n_nodes=2500, side=500.0, n_runs=50)
        stats = run_replicates(cfg, n_jobs=2)
        assert stats.p_global == 0.0
        for i in range(cfg.n_runs):
            rng = replicate_rng(cfg.master_seed, i)
            pts = sample_points(cfg.n_nodes, cfg.side, rng)
            net = build_rgg(pts, cfg.radio_range, cfg.side, cfg.boundary)
            assert giant_fraction(components(net), net.n_nodes) < cfg.cascade.cutoff_fraction

    def test_success_means_populated_only_on_success(self):
        stats = run_replicates(small_cfg(phi=0.05, radio_range=20.0, n_runs=10))
        assert stats.n_success > 0
        assert stats.mean_time is not None and stats.mean_time > 0
        assert stats.mean_energy is not None
        dead = run_replicates(small_cfg(phi=0.9, n_runs=6))
        assert dead.n_success == 0
        assert dead.mean_time is None and dead.mean_energy is None

    def test_mean_link_length_tracked(self):
        stats = run_replicates(small_cfg(scheme=LinkScheme.uniform(0.02), n_runs=6))
        assert stats.mean_link_length is not None and stats.mean_link_length > 0
        bare = run_replicates(small_cfg(n_runs=6))
        assert bare.mean_link_length is None

    def test_all_replicates_infeasible_raises(self):
        # Edgeless graphs cannot host a connected-triple seed.
        cfg = small_cfg(
            radio_range=0.0, n_runs=5,
            cascade=CascadeParams(phi=0.1, seed_spec=SeedSpec.triple()),
        )
        with pytest.raises(ExperimentInfeasibleError) as err:
            run_replicates(cfg)
        assert err.value.failure_count == 5

    def test_zero_range_is_infeasible_under_any_seed_rule(self):
        with pytest.raises(ExperimentInfeasibleError) as err:
            run_replicates(small_cfg(radio_range=0.0, n_runs=3))
        assert err.value.failure_count == 3

    def test_exhausted_link_budget_is_infeasible(self):
        # Five nodes all within range of each other leave no pair for a long link.
        cfg = small_cfg(n_nodes=5, side=10.0, boundary=BoundaryMode.PLANAR, n_runs=2,
                        scheme=LinkScheme.uniform(1.0))
        with pytest.raises(ExperimentInfeasibleError) as err:
            run_replicates(cfg)
        assert err.value.failure_count == 2

    def test_counts_by_reason_and_stalled(self):
        Summary = montecarlo._Summary
        stats = montecarlo._aggregate([
            Summary(infeasible="links"), Summary(infeasible="seeding"),
            Summary(infeasible="seeding"), Summary(stalled=True, final_fraction=0.5),
            Summary(success=True, final_fraction=1.0, time=3, energy=2.0),
        ])
        assert (stats.n_infeasible, stats.n_infeasible_seeding, stats.n_infeasible_links) == (3, 2, 1)
        assert stats.n_stalled == 1 and stats.n_success == 1 and stats.n_runs == 5


class TestSweep:
    def test_single_cell_matches_run_replicates(self):
        spec = SweepSpec(base=small_cfg(), axis1=SweepAxis("R", (16.0,)))
        rows = sweep(spec)
        assert len(rows) == 1
        direct = run_replicates(cell_config(small_cfg(), {"R": 16.0}))
        assert rows[0].stats == direct
        assert rows[0].axis1_value == 16.0 and rows[0].axis2_value is None

    def test_rows_in_grid_order(self):
        spec = SweepSpec(
            base=small_cfg(n_runs=4),
            axis1=SweepAxis("phi", (0.1, 0.2)),
            axis2=SweepAxis("R", (14.0, 16.0, 18.0)),
        )
        rows = sweep(spec)
        assert [(r.axis1_value, r.axis2_value) for r in rows] == [
            (0.1, 14.0), (0.1, 16.0), (0.1, 18.0),
            (0.2, 14.0), (0.2, 16.0), (0.2, 18.0),
        ]

    def test_axis_order_does_not_change_cells(self):
        a = sweep(SweepSpec(base=small_cfg(n_runs=6),
                            axis1=SweepAxis("phi", (0.1, 0.3)),
                            axis2=SweepAxis("R", (14.0, 18.0))))
        b = sweep(SweepSpec(base=small_cfg(n_runs=6),
                            axis1=SweepAxis("R", (14.0, 18.0)),
                            axis2=SweepAxis("phi", (0.1, 0.3))))
        by_pair_a = {(r.axis1_value, r.axis2_value): r.stats for r in a}
        by_pair_b = {(r.axis2_value, r.axis1_value): r.stats for r in b}
        assert by_pair_a == by_pair_b

    def test_failed_cell_is_flagged_not_fatal(self):
        base = small_cfg(
            n_runs=4,
            cascade=CascadeParams(phi=0.1, seed_spec=SeedSpec.triple()),
        )
        spec = SweepSpec(base=base, axis1=SweepAxis("R", (0.0, 16.0)))
        rows = sweep(spec)
        assert rows[0].stats is None and rows[0].error
        assert rows[1].stats is not None and rows[1].error is None

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            SweepAxis("volume", (1.0,))
        with pytest.raises(ValueError):
            SweepAxis("R", ())
        with pytest.raises(ValueError):
            SweepAxis("R", (2.0, 1.0))

    @pytest.mark.parametrize("values", [(12.0, math.nan, 11.0), (math.nan, 1.0), (1.0, math.nan)])
    def test_axis_with_a_nan_is_not_increasing(self, values):
        with pytest.raises(ValueError, match="strictly increasing"):
            SweepAxis("R", values)

    def test_infinite_cutoff_is_a_grid_value(self):
        assert SweepAxis("d_c", (100.0, math.inf)).values[-1] == math.inf

    def test_dc_sweep_requires_cutoff_scheme(self):
        spec = SweepSpec(base=small_cfg(n_runs=2), axis1=SweepAxis("d_c", (10.0, 20.0)))
        rows = sweep(spec)
        assert all(r.stats is None and "d_c" in r.error for r in rows)

    def test_seed_ids_beyond_a_cell_node_count_flag_the_cell(self):
        base = small_cfg(n_runs=2, cascade=CascadeParams(phi=0.1, seed_spec=SeedSpec.explicit([100])))
        rows = sweep(SweepSpec(base=base, axis1=SweepAxis("n_nodes", (50.0, 400.0))))
        assert rows[0].stats is None and "seed node ids" in rows[0].error
        assert rows[1].stats is not None

    def test_replicate_errors_are_not_flagged_cells(self, monkeypatch):
        def broken(*args):
            raise ValueError("broken cascade")

        monkeypatch.setattr(montecarlo, "run_cascade", broken)
        with pytest.raises(ValueError, match="broken cascade"):
            sweep(SweepSpec(base=small_cfg(n_runs=2), axis1=SweepAxis("R", (16.0,))))

    def test_cell_seed_depends_on_values_not_position(self):
        cfg = small_cfg()
        assert cell_config(cfg, {"R": 14.0}).master_seed == cell_config(cfg, {"R": 14.0}).master_seed
        assert cell_config(cfg, {"R": 14.0}).master_seed != cell_config(cfg, {"R": 15.0}).master_seed
        two = cell_config(cfg, {"R": 14.0, "phi": 0.2})
        assert two.phi == 0.2 and two.radio_range == 14.0


def count_pools(monkeypatch) -> list:
    """Record the max_workers of every pool montecarlo constructs."""
    made = []

    class CountingPool(montecarlo.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            made.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
    return made


class TestSharedPool:
    GRID = dict(axis1=SweepAxis("phi", (0.1, 0.2)), axis2=SweepAxis("R", (14.0, 16.0, 18.0)))

    def test_one_pool_per_sweep(self, monkeypatch):
        made = count_pools(monkeypatch)
        calls = []
        cell = montecarlo.run_replicates

        def recording(cfg, n_jobs=1, pool=None):
            calls.append(pool)
            return cell(cfg, n_jobs=n_jobs, pool=pool)

        monkeypatch.setattr(montecarlo, "run_replicates", recording)
        serial = sweep(SweepSpec(base=small_cfg(n_runs=4), **self.GRID))
        assert made == [] and calls == [None] * 6
        calls.clear()
        shared = sweep(SweepSpec(base=small_cfg(n_runs=4), **self.GRID), n_jobs=2)
        assert made == [2] and len(calls) == 6 and calls[0] is not None
        assert all(pool is calls[0] for pool in calls)
        assert shared == serial
        sweep(SweepSpec(base=small_cfg(n_runs=2), **self.GRID), n_jobs=3)
        assert made == [2, 2]

    def test_flagged_cells_leave_the_pool_working(self):
        # Triple seeds need a node of degree >= 2. R=-1 is rejected by the
        # config type, at R=1 every replicate is infeasible, at R=10 only
        # some are; both flagged cells recur in the middle of the grid.
        base = small_cfg(n_nodes=12, side=100.0, n_runs=10, master_seed=5,
                         cascade=CascadeParams(phi=0.1, seed_spec=SeedSpec.triple()))
        spec = SweepSpec(base=base, axis1=SweepAxis("phi", (0.1, 0.2)),
                         axis2=SweepAxis("R", (-1.0, 1.0, 10.0, 40.0)))
        rows = sweep(spec)
        for i in (0, 4):
            assert rows[i].stats is None and "radio range" in rows[i].error
            assert rows[i + 1].stats is None and "every replicate" in rows[i + 1].error
            partial = rows[i + 2].stats
            assert 0 < partial.n_infeasible == partial.n_infeasible_seeding < partial.n_runs
            assert rows[i + 3].stats.n_infeasible == 0
        assert sweep(spec, n_jobs=2) == rows
        assert sweep(spec, n_jobs=3) == rows

    @pytest.mark.skipif(multiprocessing.get_context().get_start_method() != "fork",
                        reason="workers see the patched cascade only when forked")
    def test_worker_error_propagates_and_joins_the_pool(self, monkeypatch):
        def broken(*args):
            raise ValueError("broken cascade")

        monkeypatch.setattr(montecarlo, "run_cascade", broken)
        with pytest.raises(ValueError, match="broken cascade"):
            sweep(SweepSpec(base=small_cfg(n_runs=4), **self.GRID), n_jobs=2)
        assert multiprocessing.active_children() == []


def _mirrored(r_values, p_values):
    """The grid reflected about its midpoint: a rising crossing at r becomes
    a falling one at r_first + r_last - r, and the first becomes the last."""
    span = r_values[0] + r_values[-1]
    return [span - r for r in reversed(r_values)], list(reversed(p_values)), span


class TestCrossings:
    def test_interpolated_rising_crossing(self):
        rs = [10, 11, 12, 13, 14]
        ps = [0.0, 0.1, 0.3, 0.7, 0.9]
        # Crosses 0.5 between 12 and 13: 12 + 0.2/0.4 = 12.5.
        assert estimate_crossing(rs, ps, rising=True) == pytest.approx(12.5)

    def test_step_function_within_grid_spacing(self):
        rs = [11, 12, 13, 14]
        ps = [0.0, 0.0, 1.0, 1.0]
        assert abs(estimate_crossing(rs, ps, rising=True) - 13.0) <= 1.0

    def test_descending_crossing(self):
        rs = [20, 22, 24, 26]
        ps = [0.9, 0.8, 0.2, 0.0]
        assert estimate_crossing(rs, ps, rising=False) == pytest.approx(23.0)

    def test_descending_uses_last_crossing(self):
        rs = [10, 12, 14, 16]
        ps = [0.6, 0.4, 0.6, 0.0]
        assert estimate_crossing(rs, ps, rising=False) == pytest.approx(14.0 + 2 * 0.1 / 0.6)

    # Each case is written for a rising crossing (a string: the message of
    # the EstimationError it raises); the falling run reads the mirrored
    # grid, so both directions check the same rule.
    @pytest.mark.parametrize("rising", [True, False])
    @pytest.mark.parametrize("rs, ps, want", [
        ([10, 11, 12, 13], [0.2, 0.6, 0.4, 0.8], 10.75),  # the first rise, not a later one
        ([10, 11, 12], [0.5, 0.5, 0.9], "never"),  # already at 0.5: no rise through it
        # A flagged cell that could hide an earlier rise...
        ([10, 11, 12, 13, 14], [0.1, math.nan, 0.9, 0.2, 0.7], "flagged cell"),
        ([10, 11, 12, 13], [math.nan, 0.8, 0.2, 0.9], "flagged cell"),
        # ...but one after the rise, or whose neighbor rules a rise out, hides nothing.
        ([10, 11, 12], [0.1, 0.9, math.nan], 10.5),
        ([10, 11, 12], [math.nan, 0.1, 0.9], 11.5),
    ])
    def test_crossing_is_mirror_symmetric(self, rs, ps, want, rising):
        if not rising:
            rs, ps, span = _mirrored(rs, ps)
            want = want if isinstance(want, str) else span - want
        if isinstance(want, str):
            with pytest.raises(EstimationError, match=want):
                estimate_crossing(rs, ps, rising)
        else:
            assert estimate_crossing(rs, ps, rising) == pytest.approx(want)

    def test_flagged_cell_error_names_the_bracketing_ranges(self):
        with pytest.raises(EstimationError, match=r"between R=10\.0 and R=11\.0 could hide"):
            estimate_crossing([10, 11, 12], [0.1, math.nan, 0.9], rising=True)

    @pytest.mark.parametrize("rising, rs, ps", [
        (True, [10, 12, 14], [0.0, 0.0, 0.0]),
        (False, [10, 12], [0.8, 0.9]),
        (True, [10], [0.9]),
        (False, [], []),
    ])
    def test_no_crossing_raises(self, rising, rs, ps):
        with pytest.raises(EstimationError, match="rises" if rising else "falls"):
            estimate_crossing(rs, ps, rising)

    @pytest.mark.parametrize("rising", [True, False])
    @pytest.mark.parametrize("rs, ps", [
        ([10, 11, 12], [0.1, 0.9]),
        ([10, 11], [0.1, 0.9, 0.2]),
        ([[10, 11]], [[0.1, 0.9]]),
        (10.0, 0.9),
    ])
    def test_grids_that_are_not_one_length_or_1d_raise(self, rs, ps, rising):
        with pytest.raises(ValueError):
            estimate_crossing(rs, ps, rising)


class TestBoundaryFit:
    def test_exact_synthetic_slope(self):
        phis = np.array([0.05, 0.1, 0.2, 0.4])
        rcs = 40.0 / np.sqrt(phis)
        assert fit_boundary_exponent(phis, rcs) == pytest.approx(-0.5, abs=1e-12)

    def test_two_points_insufficient(self):
        with pytest.raises(EstimationError):
            fit_boundary_exponent([0.1, 0.2], [10.0, 7.0])

    @pytest.mark.parametrize("phis, ranges", [
        ([0.0, 0.1, 0.2], [30.0, 20.0, 15.0]),
        ([-0.1, 0.1, 0.2], [30.0, 20.0, 15.0]),
        ([0.1, 0.2, math.nan], [30.0, 20.0, 15.0]),
        ([0.1, 0.2, 0.4], [30.0, 0.0, 15.0]),
        ([0.1, 0.2, 0.4], [30.0, math.inf, 15.0]),
    ])
    def test_nonpositive_or_nonfinite_values_raise(self, phis, ranges):
        with pytest.raises(EstimationError):
            fit_boundary_exponent(phis, ranges)


class TestCascadeWindowPhysics:
    def test_probability_rises_then_declines_with_range(self):
        # Scanning R at fixed phi: no cascades below the connectivity
        # onset, near-certain cascades just above it, suppression again
        # once nodes have too many neighbors.
        ps = {}
        for r in (11.0, 14.0, 30.0):
            cfg = ExperimentConfig(phi=0.12, radio_range=r, n_nodes=2500, side=500.0,
                                   n_runs=60, master_seed=2)
            ps[r] = run_replicates(cfg, n_jobs=2).p_global
        assert ps[11.0] < 0.1
        assert ps[14.0] > 0.8
        assert ps[30.0] < 0.1

    def test_more_links_never_slow_the_cascade(self):
        # Mean completion time is nonincreasing in the link density.
        times = []
        for p_r in (0.0, 0.005, 0.01, 0.02):
            cfg = ExperimentConfig(phi=0.12, radio_range=16.0, n_nodes=2500, side=500.0,
                                   scheme=LinkScheme.uniform(p_r), n_runs=100, master_seed=3)
            times.append(run_replicates(cfg, n_jobs=2).mean_time)
        assert all(b <= a for a, b in zip(times, times[1:])), times


class TestConfigValidation:
    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            small_cfg(n_runs=0)
        with pytest.raises(ValueError):
            small_cfg(n_nodes=0)
        with pytest.raises(ValueError):
            small_cfg(radio_range=-1.0)

    def test_phi_kept_in_sync_with_cascade_params(self):
        cfg = small_cfg(phi=0.3, cascade=CascadeParams(phi=0.9, cutoff_fraction=0.5))
        assert cfg.cascade.phi == 0.3
        assert cfg.cascade.cutoff_fraction == 0.5
