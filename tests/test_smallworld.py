import numpy as np
import pytest
from scipy.stats import ks_2samp

import netwake.smallworld as sw
from netwake.errors import LinkSamplingError
from netwake.geometry import BoundaryMode, sample_points
from netwake.network import build_rgg
from netwake.smallworld import LinkScheme, add_long_range_links

from conftest import edge_set, network_from_edges

TORUS = BoundaryMode.TORUS
PLANAR = BoundaryMode.PLANAR


@pytest.fixture(scope="module")
def backbone():
    pts = sample_points(10_000, 1000.0, np.random.default_rng(12))
    return build_rgg(pts, 16.0, 1000.0, TORUS)


class TestSchemeValidation:
    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            LinkScheme.uniform(-0.01)

    def test_powerlaw_needs_delta(self):
        with pytest.raises(ValueError):
            LinkScheme(sw.SchemeKind.POWER_LAW, 0.01)

    def test_cutoff_needs_positive_dc(self):
        with pytest.raises(ValueError):
            LinkScheme.cutoff(0.01, 0.0)

    def test_stray_parameters_rejected(self):
        with pytest.raises(ValueError):
            LinkScheme(sw.SchemeKind.UNIFORM, 0.01, delta=2.0)
        with pytest.raises(ValueError):
            LinkScheme(sw.SchemeKind.POWER_LAW, 0.01, delta=2.0, d_c=10.0)


class TestAddLinks:
    def test_zero_density_is_identity(self, backbone, rng):
        assert add_long_range_links(backbone, LinkScheme.none(), rng) is backbone

    def test_exact_link_count(self, backbone, rng):
        net = add_long_range_links(backbone, LinkScheme.uniform(0.01), rng)
        assert net.n_long_edges == 100

    @pytest.mark.parametrize("scheme", [
        LinkScheme.uniform(0.004),
        LinkScheme.power_law(0.004, 1.5),
        LinkScheme.cutoff(0.004, 300.0),
    ])
    def test_count_exact_for_every_scheme(self, backbone, scheme, rng):
        assert add_long_range_links(backbone, scheme, rng).n_long_edges == 40

    def test_no_self_loops_or_duplicates(self, backbone, rng):
        net = add_long_range_links(backbone, LinkScheme.uniform(0.02), rng)
        assert np.all(net.long_u != net.long_v)
        pairs = {tuple(sorted(p)) for p in zip(net.long_u.tolist(), net.long_v.tolist())}
        assert len(pairs) == net.n_long_edges
        local = edge_set(net)
        assert not pairs & local

    def test_local_edges_untouched(self, backbone, rng):
        net = add_long_range_links(backbone, LinkScheme.uniform(0.01), rng)
        assert net.local_indices is backbone.local_indices
        assert net.local_indptr is backbone.local_indptr

    def test_recorded_lengths_match_metric(self, backbone, rng):
        net = add_long_range_links(backbone, LinkScheme.uniform(0.005), rng)
        net.validate()

    def test_cutoff_respects_dc_and_shortens_links(self, backbone):
        # Oracle: exhaustive check of the recorded lengths, then a direct
        # comparison of sample means against the unrestricted scheme.
        d_c = 0.3 * backbone.side
        cut = add_long_range_links(backbone, LinkScheme.cutoff(0.01, d_c), np.random.default_rng(5))
        assert cut.n_long_edges == 100
        assert cut.long_length.max() <= d_c
        uni = add_long_range_links(backbone, LinkScheme.uniform(0.01), np.random.default_rng(5))
        assert cut.long_length.mean() < uni.long_length.mean()

    def test_cutoff_mean_length_follows_annulus_law(self, backbone):
        # For d_c <= L/2 on the torus the pair-distance density is
        # proportional to d, so E[d | d <= d_c] = (2/3) d_c.
        d_c = 300.0
        net = add_long_range_links(backbone, LinkScheme.cutoff(0.1, d_c), np.random.default_rng(6))
        assert net.long_length.mean() == pytest.approx(2 * d_c / 3, rel=0.05)

    def test_uniform_planar_mean_length(self):
        # Mean distance between two uniform points in a square is
        # ~0.5214 L; check 1000 links within 5%.
        pts = sample_points(10_000, 1000.0, np.random.default_rng(8))
        net = build_rgg(pts, 16.0, 1000.0, PLANAR)
        net = add_long_range_links(net, LinkScheme.uniform(0.1), np.random.default_rng(9))
        assert net.n_long_edges == 1000
        assert net.long_length.mean() == pytest.approx(0.5214 * 1000.0, rel=0.05)

    def test_uniform_torus_mean_length(self, backbone):
        # Same oracle on the torus: minimum-image mean is ~0.3826 L.
        net = add_long_range_links(backbone, LinkScheme.uniform(0.1), np.random.default_rng(10))
        assert net.long_length.mean() == pytest.approx(0.3826 * 1000.0, rel=0.05)

    def test_powerlaw_delta_zero_is_uniform(self, backbone):
        # Two-sample KS at the 1% level on 2000 link lengths per scheme.
        flat = add_long_range_links(backbone, LinkScheme.power_law(0.2, 0.0), np.random.default_rng(21))
        uni = add_long_range_links(backbone, LinkScheme.uniform(0.2), np.random.default_rng(22))
        assert flat.n_long_edges == uni.n_long_edges == 2000
        assert ks_2samp(flat.long_length, uni.long_length).pvalue > 0.01

    def test_powerlaw_suppresses_long_links(self, backbone):
        gentle = add_long_range_links(backbone, LinkScheme.power_law(0.01, 0.2), np.random.default_rng(23))
        harsh = add_long_range_links(backbone, LinkScheme.power_law(0.01, 1.0), np.random.default_rng(23))
        assert harsh.long_length.mean() < gentle.long_length.mean()

    def test_augmenting_twice_accumulates(self, backbone, rng):
        once = add_long_range_links(backbone, LinkScheme.uniform(0.005), rng)
        twice = add_long_range_links(once, LinkScheme.uniform(0.005), rng)
        assert twice.n_long_edges == 100
        pairs = {tuple(sorted(p)) for p in zip(twice.long_u.tolist(), twice.long_v.tolist())}
        assert len(pairs) == 100

    def test_infeasible_cutoff_raises(self, monkeypatch):
        # Two nodes 50 apart, cutoff 1: every draw is rejected.
        monkeypatch.setattr(sw, "MAX_ATTEMPTS_PER_LINK", 2000)
        pts = np.array([[10.0, 10.0], [60.0, 10.0]])
        net = build_rgg(pts, 5.0, 100.0, PLANAR)
        with pytest.raises(LinkSamplingError):
            add_long_range_links(net, LinkScheme.cutoff(0.5, 1.0), np.random.default_rng(1))

    def test_link_budget_checked(self):
        net = network_from_edges(3, [(0, 1), (1, 2), (0, 2)])  # complete
        with pytest.raises(LinkSamplingError):
            add_long_range_links(net, LinkScheme.uniform(1.0), np.random.default_rng(1))
