import math
from dataclasses import replace

import numpy as np
import pytest

from netwake.cascade import NEVER, CascadeOutcome, CascadeParams, SeedSpec, run_cascade
from netwake.energy import (
    EnergyModel,
    account_cascade,
    local_broadcast_energy,
    long_range_energy,
    predicted_energy,
)
from netwake.geometry import BoundaryMode, sample_points
from netwake.network import build_rgg
from netwake.smallworld import LinkScheme, add_long_range_links

from conftest import network_from_edges


def outcome_with_times(times) -> CascadeOutcome:
    """Fabricate an outcome from explicit per-node activation steps."""
    at = np.array(times, dtype=np.int64)
    active = at != NEVER
    return CascadeOutcome(
        final_fraction=active.mean(),
        time=int(at[active].max()) if active.any() else 0,
        is_global=bool(active.mean() >= 0.85),
        stalled=False,
        activation_time=at,
        seed=np.flatnonzero(at == 0),
    )


class TestUnitCosts:
    def test_local_broadcast(self):
        assert local_broadcast_energy(EnergyModel(1.0, 16.0)) == 256.0
        assert local_broadcast_energy(EnergyModel(1.0, 1.0)) == 1.0
        assert local_broadcast_energy(EnergyModel(2.0, 10.0)) == 200.0

    def test_long_range(self):
        model = EnergyModel(1.0, 16.0)
        assert long_range_energy(model, 160.0) == 2560.0
        assert long_range_energy(model, 0.0) == 0.0

    def test_long_equals_local_at_one_range(self):
        model = EnergyModel(1.3, 12.0)
        assert long_range_energy(model, 12.0) == pytest.approx(local_broadcast_energy(model))

    @pytest.mark.parametrize("length", [-1.0, math.nan, [1.0, math.nan]])
    def test_negative_length_rejected(self, length):
        with pytest.raises(ValueError, match="nonnegative"):
            long_range_energy(EnergyModel(1.0, 16.0), length)

    @pytest.mark.parametrize("coefficient, radio", [
        (0.0, 16.0), (1.0, 0.0), (math.nan, 16.0), (1.0, math.nan), (1.0, math.inf), (math.inf, 1.0),
    ])
    def test_model_validation(self, coefficient, radio):
        with pytest.raises(ValueError, match="positive and finite"):
            EnergyModel(coefficient, radio)


class TestPredictedTotal:
    def test_no_links(self):
        assert predicted_energy(10_000, EnergyModel(1.0, 14.0), 0.0, 0.0) == 10_000 * 196.0

    def test_hand_value(self):
        got = predicted_energy(10_000, EnergyModel(1.0, 14.0), 0.01, 521.4)
        assert got == pytest.approx(10_000 * 196.0 * (1 + 0.01 * 521.4 / 14.0))
        assert got == pytest.approx(2.690e6, rel=1e-3)

    def test_correction_linear_in_density(self):
        model = EnergyModel(1.0, 14.0)
        base = predicted_energy(1000, model, 0.0, 0.0)
        lift1 = predicted_energy(1000, model, 0.01, 400.0) - base
        lift2 = predicted_energy(1000, model, 0.02, 400.0) - base
        assert lift2 == pytest.approx(2 * lift1)

    @pytest.mark.parametrize("p_r, d_bar", [(-0.01, 100.0), (0.01, -1.0), (math.nan, 10.0), (0.01, math.nan)])
    def test_negative_inputs_rejected(self, p_r, d_bar):
        with pytest.raises(ValueError, match="nonnegative"):
            predicted_energy(100, EnergyModel(1.0, 14.0), p_r, d_bar)


class TestAccounting:
    def test_full_cascade_without_links(self):
        net = network_from_edges(6, [(i, i + 1) for i in range(5)])
        report = account_cascade(net, outcome_with_times([0, 1, 2, 3, 4, 5]), EnergyModel(1.0, 3.0))
        assert report.n_local_broadcasts == 6
        assert report.n_long_transmissions == 0
        assert report.total_energy == 6 * 9.0
        assert report.total_energy == report.local_energy + report.long_energy

    def test_seed_only_partial_cascade(self):
        net = network_from_edges(5, [(0, 1), (2, 3)])
        report = account_cascade(net, outcome_with_times([NEVER, NEVER, 0, NEVER, NEVER]), EnergyModel(1.0, 2.0))
        assert report.n_local_broadcasts == 1
        assert report.n_long_transmissions == 0
        assert report.local_energy == 4.0

    def _net_with_long(self, times_by_pair):
        return replace(
            network_from_edges(6, [(0, 1), (1, 2), (3, 4)]),
            long_u=np.array([p[0] for p in times_by_pair], dtype=np.int64),
            long_v=np.array([p[1] for p in times_by_pair], dtype=np.int64),
            long_length=np.array([p[2] for p in times_by_pair], dtype=float),
        )

    def test_long_link_charged_once_per_touched_link(self):
        net = self._net_with_long([(0, 5, 30.0), (2, 3, 50.0)])
        model = EnergyModel(1.0, 2.0)
        # 0 and 5 both active (tie): the 30-long link is still charged once.
        report = account_cascade(net, outcome_with_times([0, 1, NEVER, NEVER, NEVER, 0]), model)
        assert report.n_long_transmissions == 1
        assert report.long_energy == pytest.approx(2.0 * 30.0)

    def test_untouched_links_cost_nothing(self):
        net = self._net_with_long([(3, 5, 40.0)])
        report = account_cascade(net, outcome_with_times([0, 1, 2, NEVER, NEVER, NEVER]), EnergyModel(1.0, 2.0))
        assert report.n_long_transmissions == 0
        assert report.long_energy == 0.0

    def test_total_nondecreasing_in_activation(self):
        net = self._net_with_long([(0, 5, 30.0)])
        model = EnergyModel(1.0, 2.0)
        partial = account_cascade(net, outcome_with_times([0, NEVER, NEVER, NEVER, NEVER, NEVER]), model)
        fuller = account_cascade(net, outcome_with_times([0, 1, 1, NEVER, NEVER, 2]), model)
        assert fuller.total_energy >= partial.total_energy

    def test_long_energy_bounded_by_full_link_sum(self):
        net = self._net_with_long([(0, 3, 10.0), (1, 4, 20.0), (2, 5, 30.0)])
        model = EnergyModel(1.0, 2.0)
        cap = sum(long_range_energy(model, d) for d in (10.0, 20.0, 30.0))
        some = account_cascade(net, outcome_with_times([0, NEVER, NEVER, NEVER, NEVER, NEVER]), model)
        assert some.long_energy <= cap
        every = account_cascade(net, outcome_with_times([0, 0, 0, 1, 1, 1]), model)
        assert every.long_energy == pytest.approx(cap)

    def test_global_cascade_touches_all_links(self):
        # Flooding a connected graph activates everyone, so the number of
        # charged transmissions equals the added link count p_r * N.
        pts = sample_points(2000, 447.0, np.random.default_rng(2))
        net = build_rgg(pts, 16.0, 447.0, BoundaryMode.TORUS)
        net = add_long_range_links(net, LinkScheme.uniform(0.01), np.random.default_rng(3))
        out = run_cascade(net, CascadeParams(phi=0.0, seed_spec=SeedSpec.explicit([0])), np.random.default_rng(4))
        assert out.final_fraction > 0.99
        report = account_cascade(net, out, EnergyModel(1.0, 16.0))
        assert report.n_long_transmissions == net.n_long_edges == 20

    def test_prediction_tracks_accounting_for_global_cascades(self):
        pts = sample_points(2500, 500.0, np.random.default_rng(5))
        net = build_rgg(pts, 16.0, 500.0, BoundaryMode.TORUS)
        net = add_long_range_links(net, LinkScheme.uniform(0.01), np.random.default_rng(6))
        out = run_cascade(net, CascadeParams(phi=0.1), np.random.default_rng(7))
        assert out.final_fraction >= 0.99
        report = account_cascade(net, out, EnergyModel(1.0, 16.0))
        assert report.total_energy == pytest.approx(report.predicted_energy, rel=0.05)
