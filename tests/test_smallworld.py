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


def _walk_reference(net, scheme, rng, max_attempts):
    """Oracle: the sampler's draws walked one by one in Python.

    Same batch schedule and the same per-batch draws as the sampler, but a
    plain loop decides each draw and counts consecutive rejections. Returns
    the links as (u, v, length) tuples, or None where the walk gives up.
    """
    n = net.n_nodes
    n_new = int(round(scheme.p_r * n))
    taken, links = set(), []
    attempts = 0
    batch = max(sw._BATCH_MIN, 4 * n_new)
    while True:
        us = rng.integers(0, n, batch)
        vs = rng.integers(0, n, batch)
        d = sw.pair_distances(net.positions[us], net.positions[vs], net.side, net.boundary)
        ok = sw._scheme_accepts(scheme, d, rng) & (us != vs)
        for k in range(batch):
            attempts += 1
            if attempts > max_attempts:
                return None
            u, v = int(us[k]), int(vs[k])
            pair = (min(u, v), max(u, v))
            if not ok[k] or pair in taken or v in net.local_neighbors(u):
                continue
            taken.add(pair)
            links.append((u, v, float(d[k])))
            attempts = 0
            if len(links) == n_new:
                return links
        batch = max(batch, min(2 * batch, sw._BATCH_MAX))


@pytest.fixture(scope="module")
def small_torus():
    # ~300 nodes at mean degree ~6: small enough to list every node pair.
    pts = sample_points(300, 100.0, np.random.default_rng(41))
    return build_rgg(pts, 8.0, 100.0, TORUS)


def _eligible_lengths(net):
    """Lengths of every distinct non-local node pair."""
    i, j = np.triu_indices(net.n_nodes, k=1)
    d = sw.pair_distances(net.positions[i], net.positions[j], net.side, net.boundary)
    local = edge_set(net)
    eligible = np.array([(a, b) not in local for a, b in zip(i.tolist(), j.tolist())])
    return d[eligible]


class TestSamplerExactness:
    @pytest.mark.parametrize("scheme", [
        LinkScheme.power_law(0.02, 2.0),
        LinkScheme.cutoff(0.02, 20.0),
    ], ids=["powerlaw", "cutoff"])
    def test_lengths_follow_pair_weights(self, small_torus, scheme):
        # Oracle: lengths drawn straight from the list of eligible pairs,
        # each weighted min(1, d**-delta) or by the cutoff indicator. Few
        # links per call keep sampling without replacement close to the
        # oracle's sampling with replacement.
        d = _eligible_lengths(small_torus)
        if scheme.kind is sw.SchemeKind.POWER_LAW:
            w = np.minimum(1.0, d ** -scheme.delta)
        else:
            w = (d <= scheme.d_c).astype(float)
        expected = np.random.default_rng(7).choice(d, size=2000, p=w / w.sum())
        got = np.concatenate([
            add_long_range_links(small_torus, scheme, np.random.default_rng(1000 + k)).long_length
            for k in range(2000 // 6)  # 6 links per call
        ])
        assert ks_2samp(got, expected).pvalue > 0.01

    def test_stop_rule_matches_per_draw_walk(self, small_torus, monkeypatch):
        # Batches of 24 then 32 draws and a budget of 60 rejections: runs of
        # rejections span batch boundaries, and some replicates give up.
        monkeypatch.setattr(sw, "_BATCH_MIN", 8)
        monkeypatch.setattr(sw, "_BATCH_MAX", 32)
        monkeypatch.setattr(sw, "MAX_ATTEMPTS_PER_LINK", 60)
        scheme = LinkScheme.power_law(0.02, 1.0)
        outcomes = []
        for seed in range(40):
            want = _walk_reference(small_torus, scheme, np.random.default_rng(seed), 60)
            try:
                net = add_long_range_links(small_torus, scheme, np.random.default_rng(seed))
            except LinkSamplingError:
                got = None
            else:
                got = list(zip(net.long_u.tolist(), net.long_v.tolist(), net.long_length.tolist()))
            assert got == want, seed
            outcomes.append(got is None)
        assert 0 < sum(outcomes) < len(outcomes)

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
    @pytest.mark.parametrize("seed", [1, 3])
    def test_sparse_powerlaw_links_are_placed(self, seed):
        # N=2500, L=500, R=16, delta=3: a non-local draw is accepted with
        # probability ~2*pi/(R*L^2) = 1.6e-6, so one link often needs more
        # than 10^6 draws. With a 10^6 budget these seeds gave up; the links
        # exist, and 5 of them are placed.
        pts = sample_points(2500, 500.0, np.random.default_rng(31))
        net = build_rgg(pts, 16.0, 500.0, TORUS)
        out = add_long_range_links(net, LinkScheme.power_law(0.002, 3.0), np.random.default_rng(seed))
        assert out.n_long_edges == 5
        assert out.long_length.min() > 16.0

    @pytest.mark.parametrize("d_c", [4.0, 8.0])
    def test_cutoff_within_radio_range_fails_before_drawing(self, small_torus, d_c):
        rng = np.random.default_rng(2)
        before = rng.bit_generator.state
        with pytest.raises(LinkSamplingError, match="radio range"):
            add_long_range_links(small_torus, LinkScheme.cutoff(0.02, d_c), rng)
        assert rng.bit_generator.state == before
