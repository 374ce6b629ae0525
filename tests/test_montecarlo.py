import math
import multiprocessing
import time
from dataclasses import replace

import numpy as np
import pytest

from netwake import montecarlo
from netwake.cascade import CascadeParams, Schedule, SeedSpec
from netwake.errors import EstimationError, ExperimentInfeasibleError
from netwake.geometry import BoundaryMode, sample_points
from netwake.montecarlo import (
    ExperimentConfig,
    ReplicateStats,
    SweepAxis,
    SweepRow,
    SweepSpec,
    cell_config,
    estimate_crossing,
    fit_boundary_exponent,
    replicate_rng,
    run_replicates,
    sweep,
    window_boundaries,
)
from netwake.network import build_rgg
from netwake.smallworld import LinkScheme

from conftest import components, giant_fraction

forked_workers = pytest.mark.skipif(multiprocessing.get_context().get_start_method() != "fork",
                                    reason="workers see the patched module only when forked")


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

    @pytest.mark.parametrize("n_jobs", [1, pytest.param(2, marks=forked_workers)])
    def test_replicate_errors_are_not_flagged_cells(self, monkeypatch, n_jobs):
        def broken(*args):
            raise ValueError("broken cascade")

        monkeypatch.setattr(montecarlo, "run_cascade", broken)
        with pytest.raises(ValueError, match="broken cascade"):
            sweep(SweepSpec(base=small_cfg(n_runs=2), axis1=SweepAxis("R", (16.0,))), n_jobs=n_jobs)

    def test_cell_seed_depends_on_values_not_position(self):
        cfg = small_cfg()
        assert cell_config(cfg, {"R": 14.0}).master_seed == cell_config(cfg, {"R": 14.0}).master_seed
        assert cell_config(cfg, {"R": 14.0}).master_seed != cell_config(cfg, {"R": 15.0}).master_seed
        two = cell_config(cfg, {"R": 14.0, "phi": 0.2})
        assert two.phi == 0.2 and two.radio_range == 14.0


def count_pools(monkeypatch) -> tuple[list, list]:
    """Record the max_workers of every pool montecarlo constructs, and the
    future of every chunk submitted to one."""
    made, futures = [], []

    class CountingPool(montecarlo.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            made.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

        def submit(self, *args, **kwargs):
            futures.append(super().submit(*args, **kwargs))
            return futures[-1]

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
    return made, futures


class TestSharedPool:
    GRID = dict(axis1=SweepAxis("phi", (0.1, 0.2)), axis2=SweepAxis("R", (14.0, 16.0, 18.0)))

    def test_one_pool_per_sweep(self, monkeypatch):
        made, futures = count_pools(monkeypatch)
        sent = []
        cell = montecarlo.run_replicates

        def recording(cfg, n_jobs=1, summaries=None):
            sent.append(len(futures))
            return cell(cfg, n_jobs=n_jobs, summaries=summaries)

        monkeypatch.setattr(montecarlo, "run_replicates", recording)
        serial = sweep(SweepSpec(base=small_cfg(n_runs=4), **self.GRID))
        assert made == [] and sent == [0] * 6
        sent.clear()
        shared = sweep(SweepSpec(base=small_cfg(n_runs=4), **self.GRID), n_jobs=2)
        # One aggregation per cell, and the first already finds all six
        # cells' two chunks sent.
        assert made == [2] and sent == [12] * 6
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

    @forked_workers
    def test_worker_error_propagates_and_joins_the_pool(self, monkeypatch):
        _, futures = count_pools(monkeypatch)

        def slow_or_broken(cfg, rng, points):
            if cfg.phi == 0.1 and cfg.radio_range == 14.0:
                raise ValueError("broken first cell")
            time.sleep(0.1)
            return False

        monkeypatch.setattr(montecarlo, "_wakes_nobody", slow_or_broken)
        with pytest.raises(ValueError, match="broken first cell"):
            sweep(SweepSpec(base=small_cfg(n_runs=4), **self.GRID), n_jobs=2)
        # The first cell fails at once, every other chunk takes 0.2 s: the
        # chunks still queued when the error arrives never start.
        assert len(futures) == 12 and any(f.cancelled() for f in futures)
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

    @pytest.mark.parametrize("phis, ranges", [
        ([0.05, 0.1, 0.2], [30.0, 20.0]),
        ([0.05, 0.1], [30.0, 20.0, 15.0]),
        ([[0.05, 0.1, 0.2]], [[30.0, 20.0, 15.0]]),
    ])
    def test_grids_that_are_not_one_length_or_1d_raise(self, phis, ranges):
        with pytest.raises(ValueError, match="1-d grids of one length"):
            fit_boundary_exponent(phis, ranges)


def _curve(phi, r_values, p_values):
    """One threshold's curve of hand-made sweep rows; a None probability
    is a flagged cell."""
    rows = [SweepRow(r, phi, None, "flagged") if p is None else SweepRow(r, phi, ReplicateStats(
        p_global=p, p_global_se=0.0, mean_time=None, mean_time_se=None, mean_energy=None,
        mean_energy_se=None, mean_final_fraction=p, mean_link_length=None,
        n_success=round(10 * p), n_runs=10, n_infeasible=0)) for r, p in zip(r_values, p_values)]
    return phi, r_values, rows


class TestWindowBoundaries:
    RS = (10.0, 12.0, 14.0, 16.0, 18.0)
    # Rising through 0.5 between 10 and 12, falling between 14 and 18.
    CLEAN = {0.05: (0.1, 0.9, 1.0, 0.7, 0.2), 0.1: (0.3, 0.8, 0.6, 0.2, 0.0),
             0.2: (0.2, 0.6, 0.4, 0.1, 0.0)}

    def test_rows_come_out_in_curve_order(self):
        phis = (0.2, 0.05, 0.1)
        table, _, _ = window_boundaries([_curve(phi, self.RS, self.CLEAN[phi]) for phi in phis])
        assert [row[0] for row in table] == list(phis)

    def test_flagged_row_hides_only_the_crossing_it_brackets(self):
        [(phi, onset, upper)], exponent, reason = window_boundaries(
            [_curve(0.1, self.RS, (0.1, None, 0.9, 0.6, 0.2))])
        assert (phi, onset, exponent, reason) == (0.1, None, None, None)
        assert upper == pytest.approx(16.0 + 2.0 * 0.1 / 0.4)

    def test_fewer_than_three_upper_crossings_give_no_exponent(self):
        curves = [_curve(0.05, self.RS, self.CLEAN[0.05]), _curve(0.1, self.RS, self.CLEAN[0.1]),
                  _curve(0.2, self.RS, (0.0, 0.6, 0.8, 0.9, 0.9))]
        table, exponent, reason = window_boundaries(curves)
        assert [upper is None for _, _, upper in table] == [False, False, True]
        assert (exponent, reason) == (None, None)

    def test_zero_threshold_gives_a_reason_instead_of_an_exponent(self):
        curves = [_curve(phi, self.RS, ps) for phi, ps in zip((0.0, 0.1, 0.2), self.CLEAN.values())]
        table, exponent, reason = window_boundaries(curves)
        assert all(upper is not None for _, _, upper in table)
        assert exponent is None and "threshold 0.0" in reason

    def test_clean_rows_match_the_crossing_and_fit_rules(self):
        table, exponent, reason = window_boundaries(
            [_curve(phi, self.RS, ps) for phi, ps in self.CLEAN.items()])
        assert table == [(phi, estimate_crossing(self.RS, ps, True), estimate_crossing(self.RS, ps, False))
                         for phi, ps in self.CLEAN.items()]
        assert exponent == fit_boundary_exponent(list(self.CLEAN), [row[2] for row in table])
        assert reason is None


def count_calls(monkeypatch, name: str) -> list:
    """Record the arguments of every call montecarlo makes to its ``name``."""
    calls = []
    original = getattr(montecarlo, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(montecarlo, name, counting)
    return calls


class TestIdleSeed:
    """A single seed that wakes nobody is summarized without a network build."""

    @pytest.mark.parametrize("pairs", [montecarlo._PROBE_PAIRS, 7])
    @pytest.mark.parametrize("boundary", list(BoundaryMode))
    @pytest.mark.parametrize("radio", [3.0, 10.0, 23.5, float(np.nextafter(50.0, 0.0))])
    def test_neighborhood_matches_build_rgg(self, monkeypatch, boundary, radio, pairs):
        # With 300 nodes on a side of 100, R = 10 is exactly the build grid's
        # cell width and R just below 50 is just below half the side.
        monkeypatch.setattr(montecarlo, "_PROBE_PAIRS", pairs)
        rng = np.random.default_rng(41)
        for _ in range(3):
            pts = sample_points(300, 100.0, rng)
            net = build_rgg(pts, radio, 100.0, boundary)
            for seed in rng.choice(300, size=12, replace=False):
                nbrs, degrees = montecarlo._seed_neighborhood(pts, int(seed), radio, 100.0, boundary)
                np.testing.assert_array_equal(nbrs, net.neighbors(int(seed)))
                np.testing.assert_array_equal(degrees, net.degrees[nbrs])

    @pytest.mark.parametrize("boundary", list(BoundaryMode))
    def test_neighborhood_across_the_torus_corner_at_a_tiny_range(self, boundary):
        # Near the corner a wrapped delta rounds by up to half an ulp of the
        # side, a fair share of a range this small.
        side, radio = 1000.0, 1e-10
        rng = np.random.default_rng(43)
        pts = (rng.uniform(-3 * radio, 3 * radio, size=(200, 2)) % side)
        pts[pts >= side] = 0.0
        net = build_rgg(pts, radio, side, boundary)
        for seed in range(200):
            nbrs, degrees = montecarlo._seed_neighborhood(pts, seed, radio, side, boundary)
            np.testing.assert_array_equal(nbrs, net.neighbors(seed))
            np.testing.assert_array_equal(degrees, net.degrees[nbrs])

    @staticmethod
    def check_against_run_replicate(monkeypatch, configs) -> tuple[int, int]:
        """Every replicate's summary equals the one built from its
        ``run_replicate``, and it skips the network exactly when no neighbor
        of its seed meets the threshold. Returns (skipped, built) counts."""
        built = count_calls(monkeypatch, "build_rgg")
        skipped = total = 0
        for cfg in configs:
            for i in range(cfg.n_runs):
                before = len(built)
                summary = montecarlo._summarize(cfg, i)
                idle = len(built) == before
                rep = montecarlo.run_replicate(cfg, i)
                out = rep.outcome
                assert summary == montecarlo._Summary(
                    stalled=out.stalled, success=out.is_global and not out.stalled,
                    final_fraction=out.final_fraction, time=out.time,
                    energy=rep.report.total_energy, d_bar=None), (cfg, i)
                seed = int(out.seed[0])
                nbrs = rep.net.neighbors(seed)
                assert idle == (not np.any(1 / rep.net.degrees[nbrs] >= cfg.phi)), (cfg, i)
                skipped += idle
                total += 1
        return skipped, total - skipped

    def test_summaries_match_run_replicate(self, monkeypatch):
        # 50 nodes on a side of 100: from isolated seeds at R = 2 to a mean
        # degree of ~32 at R = 45.
        configs = [
            ExperimentConfig(phi=phi, radio_range=radio, n_nodes=50, side=100.0, boundary=boundary,
                             cascade=CascadeParams(phi=phi, schedule=schedule), n_runs=6, master_seed=8)
            for phi in (0.0, 0.05, 0.2, 0.5, 1.0)
            for radio in (2.0, 8.0, 15.0, 25.0, 45.0)
            for boundary in BoundaryMode
            for schedule in Schedule
        ]
        skipped, built = self.check_against_run_replicate(monkeypatch, configs)
        assert skipped > 100 and built > 100

    def test_summaries_match_run_replicate_at_low_cutoffs(self, monkeypatch):
        # At a cutoff of 1/N or below a seed alone is a global cascade, and
        # a lone node is one at any cutoff.
        configs = [
            ExperimentConfig(phi=phi, radio_range=radio, n_nodes=50, side=100.0, boundary=boundary,
                             cascade=CascadeParams(phi=phi, schedule=schedule, cutoff_fraction=cutoff),
                             n_runs=6, master_seed=9)
            for phi in (0.2, 0.5)
            for radio in (8.0, 25.0)
            for boundary in BoundaryMode
            for schedule in Schedule
            for cutoff in (1 / 50, 0.01)
        ]
        configs += [ExperimentConfig(phi=phi, radio_range=10.0, n_nodes=1, side=100.0, boundary=boundary,
                                     n_runs=2, master_seed=10)
                    for phi in (0.0, 1.0) for boundary in BoundaryMode]
        skipped, built = self.check_against_run_replicate(monkeypatch, configs)
        assert skipped > 20 and built > 20
        lone = montecarlo._summarize(configs[-1], 0)
        assert (lone.success, lone.final_fraction, lone.energy) == (True, 1.0, 100.0)

    # Above the window: at phi = 0.25 and R = 32 most single seeds wake nobody.
    ABOVE = dict(phi=0.25, radio_range=32.0, n_nodes=2500, side=500.0, n_runs=8, master_seed=5)

    def test_idle_seeds_skip_the_build(self, monkeypatch):
        builds = count_calls(monkeypatch, "build_rgg")
        run_replicates(ExperimentConfig(**self.ABOVE))
        assert len(builds) < self.ABOVE["n_runs"]

    @pytest.mark.parametrize("changes", [
        dict(scheme=LinkScheme.uniform(0.01)),
        dict(cascade=CascadeParams(phi=0.25, seed_spec=SeedSpec.triple())),
        dict(cascade=CascadeParams(phi=0.25, seed_spec=SeedSpec.explicit([0]))),
    ], ids=["links", "triple", "explicit"])
    def test_other_replicates_build_once_each(self, monkeypatch, changes):
        builds = count_calls(monkeypatch, "build_rgg")
        cfg = ExperimentConfig(**{**self.ABOVE, **changes})
        stats = run_replicates(cfg)
        assert len(builds) == cfg.n_runs and stats.n_infeasible == 0

    def test_zero_range_still_fails_seeding(self, monkeypatch):
        builds = count_calls(monkeypatch, "build_rgg")
        cfg = ExperimentConfig(**{**self.ABOVE, "radio_range": 0.0})
        assert [montecarlo._summarize(cfg, i) for i in range(cfg.n_runs)] == \
            [montecarlo._Summary(infeasible="seeding")] * cfg.n_runs
        assert builds == []

    def test_each_replicate_draws_its_points_once(self, monkeypatch):
        # Between the window's edges (phi = 0.15, R = 20) some single seeds
        # wake nobody and some wake a neighbor; both kinds derive one stream
        # and draw one point set.
        streams = count_calls(monkeypatch, "replicate_rng")
        draws = count_calls(monkeypatch, "sample_points")
        builds = count_calls(monkeypatch, "build_rgg")
        cfg = ExperimentConfig(**{**self.ABOVE, "phi": 0.15, "radio_range": 20.0})
        run_replicates(cfg)
        assert 0 < len(builds) < cfg.n_runs
        assert len(streams) == len(draws) == cfg.n_runs

    def test_range_beyond_half_the_torus_builds_and_warns(self, monkeypatch):
        # On the plane the same dense cell is idle; on the torus R > L/2
        # takes the full path, so the warning still reaches a sweep.
        cfg = ExperimentConfig(phi=0.5, radio_range=31.0, n_nodes=100, side=60.0,
                               boundary=BoundaryMode.PLANAR, n_runs=4, master_seed=6)
        builds = count_calls(monkeypatch, "build_rgg")
        run_replicates(cfg)
        assert len(builds) == 0
        torus = replace(cfg, boundary=BoundaryMode.TORUS)
        with pytest.raises(RuntimeWarning, match="exceeds half the region side"):
            run_replicates(torus)
        with pytest.warns(RuntimeWarning):
            run_replicates(torus)
        assert len(builds) == 1 + torus.n_runs


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

    def test_negative_master_seed_rejected(self):
        with pytest.raises(ValueError, match="master seed must be nonnegative, got -1"):
            small_cfg(master_seed=-1)

    @pytest.mark.parametrize("name,value", [("n_runs", 2.5), ("n_nodes", 300.5), ("master_seed", 1.5),
                                            ("n_runs", 12.0), ("n_runs", True), ("n_nodes", True),
                                            ("master_seed", False)])
    def test_counts_and_seed_must_be_integers(self, name, value):
        # A float would truncate, fail deep inside numpy, or be hashed as
        # "1.5" into the seeds of a sweep's cells; n_runs=True ran one replicate.
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            small_cfg(**{name: value})

    def test_numpy_integers_accepted(self):
        cfg = small_cfg(n_runs=np.int64(3), n_nodes=np.int32(400), master_seed=np.uint8(42))
        assert run_replicates(cfg) == run_replicates(small_cfg(n_runs=3))

    def test_phi_kept_in_sync_with_cascade_params(self):
        cfg = small_cfg(phi=0.3, cascade=CascadeParams(phi=0.9, cutoff_fraction=0.5))
        assert cfg.cascade.phi == 0.3
        assert cfg.cascade.cutoff_fraction == 0.5
