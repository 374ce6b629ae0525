import numpy as np
import pytest
from scipy.stats import ks_2samp

import netwake.smallworld as sw
from netwake.energy import EnergyModel, long_range_energy
from netwake.errors import LinkSamplingError
from netwake.geometry import BoundaryMode, sample_points
from netwake.network import build_rgg
from netwake.smallworld import LinkScheme, add_long_range_links

from conftest import edge_set, network_from_edges, validate_network

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

    @pytest.mark.parametrize("d", [5.0, np.array([0.5, 30.0, 1414.2]), np.zeros((2, 3))])
    def test_uniform_weight_is_one_at_every_distance(self, d):
        w = LinkScheme.uniform(0.01).weight(d)
        assert np.shape(w) == np.shape(d) and np.all(w == 1.0)


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
        validate_network(net)

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

    def test_infeasible_cutoff_raises(self):
        # Two nodes 50 apart, R = 5, cutoff 10: the one free pair is too long.
        pts = np.array([[10.0, 10.0], [60.0, 10.0]])
        net = build_rgg(pts, 5.0, 100.0, PLANAR)
        with pytest.raises(LinkSamplingError, match="positive weight"):
            add_long_range_links(net, LinkScheme.cutoff(0.5, 10.0), np.random.default_rng(1))

    def test_link_budget_checked(self):
        net = network_from_edges(3, [(0, 1), (1, 2), (0, 2)])  # complete
        with pytest.raises(LinkSamplingError):
            add_long_range_links(net, LinkScheme.uniform(1.0), np.random.default_rng(1))


@pytest.fixture(scope="module")
def small_torus():
    # ~300 nodes at mean degree ~6: small enough to list every node pair.
    pts = sample_points(300, 100.0, np.random.default_rng(41))
    return build_rgg(pts, 8.0, 100.0, TORUS)


@pytest.fixture(scope="module")
def small_planar():
    pts = sample_points(300, 100.0, np.random.default_rng(41))
    return build_rgg(pts, 8.0, 100.0, PLANAR)


def _eligible_lengths(net):
    """Lengths of every distinct non-local node pair."""
    i, j = np.triu_indices(net.n_nodes, k=1)
    d = sw.pair_distances(net.positions[i], net.positions[j], net.side, net.boundary)
    local = edge_set(net)
    eligible = np.array([(a, b) not in local for a, b in zip(i.tolist(), j.tolist())])
    return d[eligible]


class TestSamplerExactness:
    @pytest.mark.parametrize("boundary,scheme", [
        ("torus", LinkScheme.power_law(0.02, 2.0)),
        ("torus", LinkScheme.cutoff(0.02, 20.0)),
        ("planar", LinkScheme.power_law(0.02, 2.0)),
        ("planar", LinkScheme.cutoff(0.02, 20.0)),
        ("torus", LinkScheme.power_law(0.004, 4.0)),
        ("torus", LinkScheme.power_law(0.004, 6.0)),
        ("planar", LinkScheme.power_law(0.004, 4.0)),
        ("planar", LinkScheme.power_law(0.004, 6.0)),
    ], ids=["powerlaw", "cutoff", "powerlaw-planar", "cutoff-planar",
            "delta4", "delta6", "delta4-planar", "delta6-planar"])
    def test_lengths_follow_pair_weights(self, request, boundary, scheme):
        # Oracle: lengths drawn straight from the list of eligible pairs,
        # each weighted min(1, d**-delta) or by the cutoff indicator. The
        # oracle samples with replacement, the sampler without: 6 links per
        # call keep the two close at delta 2 and for the cutoff, while the
        # steep power laws, whose weight sits on a few short pairs, place
        # one link per call.
        net = request.getfixturevalue(f"small_{boundary}")
        d = _eligible_lengths(net)
        if scheme.kind is sw.SchemeKind.POWER_LAW:
            w = np.minimum(1.0, d ** -scheme.delta)
        else:
            w = (d <= scheme.d_c).astype(float)
        expected = np.random.default_rng(7).choice(d, size=2000, p=w / w.sum())
        per_call = int(round(scheme.p_r * net.n_nodes))
        got = np.concatenate([
            add_long_range_links(net, scheme, np.random.default_rng(1000 + k)).long_length
            for k in range(2000 // per_call)
        ])
        assert ks_2samp(got, expected).pvalue > 0.01

    @pytest.mark.parametrize("boundary", ["torus", "planar"])
    def test_cached_offset_bounds_are_fresh_and_read_only(self, request, boundary):
        net = request.getfixturevalue(f"small_{boundary}")
        scheme = LinkScheme.power_law(0.02, 2.0)
        sampler = sw._CellSampler(net, scheme)
        grid = sampler.grid
        fresh = sw._offset_bounds.__wrapped__(grid.g, grid.torus, net.side, net.radio_range, scheme)
        bound = scheme.weight(np.maximum(grid.dmin, net.radio_range))
        np.testing.assert_array_equal(fresh[0], np.argsort(bound, kind="stable")[-fresh[0].size:])
        for cached, table in zip((sampler.offsets, sampler.bound, sampler.cum), fresh):
            np.testing.assert_array_equal(cached, table)
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 0

    def test_in_batch_duplicates_near_capacity(self):
        # 12 nodes, 11 local edges: 55 free pairs for 54 links, so a batch
        # draws most pairs many times over.
        net = network_from_edges(12, [(i, i + 1) for i in range(11)])
        out = add_long_range_links(net, LinkScheme.uniform(4.5), np.random.default_rng(3))
        assert out.n_long_edges == 54
        assert np.all(out.long_u != out.long_v)
        pairs = {tuple(sorted(p)) for p in zip(out.long_u.tolist(), out.long_v.tolist())}
        assert len(pairs) == 54
        assert not pairs & edge_set(net)


class TestInfeasibility:
    @pytest.mark.parametrize("delta", [3.0, 4.0])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_steep_powerlaw_places_every_link_at_reference_scale(self, backbone, delta, seed):
        # A sampler that gives up after a run of rejected draws flagged these
        # replicates infeasible, though the links exist.
        out = add_long_range_links(backbone, LinkScheme.power_law(0.01, delta), np.random.default_rng(seed))
        assert out.n_long_edges == 100
        assert out.long_length.min() > 16.0

    @pytest.mark.parametrize("seed", [1, 3])
    def test_sparse_powerlaw_links_are_placed(self, seed):
        # N=2500, L=500, R=16, delta=3: a uniform pair is accepted with
        # probability ~2*pi/(R*L^2) = 1.6e-6, so a sampler that gives up
        # after 10^6 rejected draws flagged these seeds infeasible.
        pts = sample_points(2500, 500.0, np.random.default_rng(31))
        net = build_rgg(pts, 16.0, 500.0, TORUS)
        out = add_long_range_links(net, LinkScheme.power_law(0.002, 3.0), np.random.default_rng(seed))
        assert out.n_long_edges == 5
        assert out.long_length.min() > 16.0

    @pytest.mark.parametrize("delta", [400.0, np.inf])
    def test_underflowing_powerlaw_fails_before_drawing(self, delta):
        # At R = 16, 16**-400 underflows to 0: every pair beyond the radio
        # range has zero weight, so no long link can be placed.
        pts = sample_points(2500, 500.0, np.random.default_rng(31))
        net = build_rgg(pts, 16.0, 500.0, TORUS)
        rng = np.random.default_rng(2)
        before = rng.bit_generator.state
        with pytest.raises(LinkSamplingError, match="positive weight"):
            add_long_range_links(net, LinkScheme.power_law(0.01, delta), rng)
        assert rng.bit_generator.state == before

    def test_underflowing_powerlaw_fails_on_every_call(self, small_torus):
        # The sampler's offset bounds are cached per configuration; the
        # second call must fail as the first did, not find a cached success.
        scheme = LinkScheme.power_law(0.02, 400.0)
        for _ in range(2):
            with pytest.raises(LinkSamplingError, match="positive weight"):
                add_long_range_links(small_torus, scheme, np.random.default_rng(2))

    @pytest.mark.parametrize("d_c", [4.0, 8.0])
    def test_cutoff_within_radio_range_fails_before_drawing(self, small_torus, d_c):
        rng = np.random.default_rng(2)
        before = rng.bit_generator.state
        with pytest.raises(LinkSamplingError, match="radio range"):
            add_long_range_links(small_torus, LinkScheme.cutoff(0.02, d_c), rng)
        assert rng.bit_generator.state == before


def _cutoff_pairs_network(boundary):
    # R = 5, d_c = 8: (0, 1) and (2, 3) are 7 apart, every other pair is
    # more than 8 apart, and no pair is local. So exactly two free pairs
    # have positive weight, out of 10 free pairs.
    pts = np.array([[10.0, 10.0], [17.0, 10.0], [50.0, 50.0], [50.0, 57.0], [80.0, 20.0]])
    return build_rgg(pts, 5.0, 100.0, boundary)


class TestCutoffCount:
    @pytest.mark.parametrize("boundary", [TORUS, PLANAR])
    def test_exactly_enough_pairs_are_all_placed(self, boundary):
        net = _cutoff_pairs_network(boundary)
        out = add_long_range_links(net, LinkScheme.cutoff(0.4, 8.0), np.random.default_rng(4))
        pairs = {tuple(sorted(p)) for p in zip(out.long_u.tolist(), out.long_v.tolist())}
        assert pairs == {(0, 1), (2, 3)}
        np.testing.assert_allclose(out.long_length, 7.0)

    @pytest.mark.parametrize("boundary", [TORUS, PLANAR])
    def test_too_few_pairs_raise(self, boundary):
        # Three links fit the 10 free pairs, but only two have d <= d_c.
        net = _cutoff_pairs_network(boundary)
        with pytest.raises(LinkSamplingError, match="2 placed and only 0 more"):
            add_long_range_links(net, LinkScheme.cutoff(0.6, 8.0), np.random.default_rng(4))

    def test_count_that_passes_lets_sampling_go_on(self, monkeypatch):
        # With one idle batch allowed, the exact count runs once, finds
        # enough pairs in (R, d_c] and sampling goes on to place every link.
        monkeypatch.setattr(sw, "_STALL_BATCHES", 1)
        counts = []
        positive_pairs = sw._CellSampler.positive_pairs

        def counted(sampler):
            counts.append(1)
            return positive_pairs(sampler)

        monkeypatch.setattr(sw._CellSampler, "positive_pairs", counted)
        rng = np.random.default_rng(2)
        net = build_rgg(sample_points(400, 200.0, rng), 10.0, 200.0, TORUS)
        out = add_long_range_links(net, LinkScheme.cutoff(0.01, 10.02), rng)
        assert len(counts) == 1
        assert out.n_long_edges == 4
        assert np.all((out.long_length > 10.0) & (out.long_length <= 10.02))

    def test_count_follows_existing_links(self):
        # One of the two short pairs is already a long link: a second call
        # can place the other one, but not two more.
        net = _cutoff_pairs_network(PLANAR)
        once = add_long_range_links(net, LinkScheme.cutoff(0.2, 8.0), np.random.default_rng(5))
        assert once.n_long_edges == 1
        twice = add_long_range_links(once, LinkScheme.cutoff(0.2, 8.0), np.random.default_rng(6))
        assert sorted(map(tuple, np.sort(np.c_[twice.long_u, twice.long_v]).tolist())) == [(0, 1), (2, 3)]
        with pytest.raises(LinkSamplingError):
            add_long_range_links(once, LinkScheme.cutoff(0.4, 8.0), np.random.default_rng(6))


def test_steeper_powerlaw_means_shorter_cheaper_links():
    # The energy model charges c * R * d per long link, so a steeper
    # distance law, which favours shorter links, lowers long-link energy.
    pts = sample_points(2500, 500.0, np.random.default_rng(51))
    net = build_rgg(pts, 16.0, 500.0, TORUS)
    model = EnergyModel(1.0, 16.0)
    mean_length, energy = [], []
    for delta in (0.0, 1.0, 2.0, 3.0, 4.0):
        lengths = np.concatenate([
            add_long_range_links(net, LinkScheme.power_law(0.02, delta), np.random.default_rng(seed)).long_length
            for seed in range(5)
        ])
        mean_length.append(lengths.mean())
        energy.append(sum(long_range_energy(model, d) for d in lengths))
    assert all(b < a for a, b in zip(mean_length, mean_length[1:]))
    assert all(b < a for a, b in zip(energy, energy[1:]))
