import dataclasses
import math

import numpy as np
import pytest

from netwake.geometry import BoundaryMode, expected_degree, sample_points
from netwake.network import CellGrid, Network, _build_csr, build_rgg, concat_ranges, offset_tables, row_positions
from netwake.smallworld import LinkScheme, add_long_range_links

from conftest import (
    bfs_labeling,
    brute_force_edges,
    components,
    edge_set,
    giant_fraction,
    network_from_edges,
    validate_network,
)

TORUS = BoundaryMode.TORUS
PLANAR = BoundaryMode.PLANAR


def test_concat_ranges():
    out = concat_ranges(np.array([5, 0, 9]), np.array([3, 0, 2]))
    np.testing.assert_array_equal(out, [5, 6, 7, 9, 10])
    assert concat_ranges(np.array([], dtype=int), np.array([], dtype=int)).size == 0


@pytest.mark.parametrize("seed", range(5))
def test_build_csr_matches_lexsort_order(seed):
    # Oracle: neighbor lists ordered by a two-key lexsort of (source, neighbor),
    # on edge lists with repeats, isolated nodes and both orientations.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    u = rng.integers(0, n, 200)
    v = rng.integers(0, n, 200)
    src, dst = np.concatenate([u, v]), np.concatenate([v, u])
    order = np.lexsort((dst, src))
    indptr, indices = _build_csr(n, u, v)
    np.testing.assert_array_equal(indices, dst[order])
    np.testing.assert_array_equal(indptr, np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))]))
    assert indptr.dtype == indices.dtype == np.int64


class TestFromEdges:
    def test_id_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"endpoint outside \[0, 3\)"):
            network_from_edges(3, [(0, 5)])
        with pytest.raises(ValueError, match=r"endpoint outside \[0, 3\)"):
            network_from_edges(3, [(-1, 2)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop at node 1"):
            network_from_edges(3, [(0, 1), (1, 1)])

    @pytest.mark.parametrize("edges", [[(0, 1), (1, 2), (0, 1)], [(1, 0), (1, 2), (0, 1)]])
    def test_repeated_pair_rejected(self, edges):
        with pytest.raises(ValueError, match=r"edge \(0, 1\) is given more than once"):
            network_from_edges(3, edges)

    def test_unpaired_endpoints_rejected(self):
        with pytest.raises(ValueError, match="equal in length"):
            Network.from_edges(np.zeros((3, 2)), np.array([0]), np.array([1, 2]), 1.0, TORUS, 1.0)

    def test_valid_edges_accepted(self):
        net = network_from_edges(4, [(2, 0), (0, 1), (3, 2)])
        np.testing.assert_array_equal(net.neighbors(0), [1, 2])
        np.testing.assert_array_equal(net.degrees, [2, 1, 2, 1])

    def test_non_integer_ids_rejected(self):
        # int64 conversion would truncate 0.9 and 2.2 to the edge (0, 2).
        with pytest.raises(ValueError, match="node ids must be integers, got dtype float64"):
            Network.from_edges(np.zeros((3, 2)), np.array([0.9]), np.array([2.2]), 1.0, TORUS, 1.0)
        with pytest.raises(ValueError, match="node ids must be integers"):
            Network.from_edges(np.zeros((3, 2)), np.array([0]), np.array([2.0]), 1.0, TORUS, 1.0)

    @pytest.mark.parametrize("empty", [np.array([]), np.empty(0, dtype=np.int32), []])
    def test_empty_ids_of_any_dtype_accepted(self, empty):
        net = Network.from_edges(np.zeros((3, 2)), empty, empty, 1.0, TORUS, 1.0)
        assert net.n_local_edges == 0
        np.testing.assert_array_equal(net.adj_indptr, [0, 0, 0, 0])
        assert net.adj_indices.dtype == np.int64


def test_network_is_frozen():
    net = network_from_edges(3, [(0, 1)])
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.long_u = np.array([2], dtype=np.int64)


class TestBuildRgg:
    def test_pair_inside_range(self):
        pts = np.array([[10.0, 10.0], [10.0, 15.0]])  # distance 5 = 0.5 R
        net = build_rgg(pts, 10.0, 100.0, TORUS)
        assert net.n_local_edges == 1
        assert net.neighbors(0).tolist() == [1]

    def test_pair_outside_range(self):
        pts = np.array([[10.0, 10.0], [10.0, 20.1]])  # distance 10.1 = 1.01 R
        net = build_rgg(pts, 10.0, 100.0, TORUS)
        assert net.n_local_edges == 0

    def test_boundary_inclusive(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0]])
        net = build_rgg(pts, 10.0, 100.0, PLANAR)
        assert net.neighbors(0).tolist() == [1]

    @pytest.mark.parametrize("boundary", [TORUS, PLANAR])
    # R = 60, 50, 100/3 and 30 give grids of 1, 2, 2 and 3 cells per axis;
    # 50 and 10 divide the side exactly. R = 60 on the torus warns about
    # wrap ambiguity, which test_wrap_ambiguity_warns checks.
    @pytest.mark.filterwarnings("ignore:radio range .* exceeds half the region side:RuntimeWarning")
    @pytest.mark.parametrize("n,radio", [(80, 18.0), (300, 7.0), (500, 4.0), (500, 40.0), (80, 60.0),
                                         (80, 50.0), (80, 100 / 3), (80, 30.0), (300, 10.0)])
    def test_matches_brute_force(self, boundary, n, radio, rng):
        pts = sample_points(n, 100.0, rng)
        net = build_rgg(pts, radio, 100.0, boundary)
        assert edge_set(net) == brute_force_edges(pts, radio, 100.0, boundary)
        validate_network(net)

    def test_permutation_invariant(self, rng):
        pts = sample_points(200, 100.0, rng)
        perm = rng.permutation(200)
        net_a = build_rgg(pts, 9.0, 100.0, TORUS)
        net_b = build_rgg(pts[perm], 9.0, 100.0, TORUS)
        # Compare as sets of position pairs.
        def positional(net, order):
            return {tuple(sorted((int(order[u]), int(order[v])))) for u, v in edge_set(net)}
        assert positional(net_a, np.arange(200)) == positional(net_b, perm)

    def test_mean_degree_concentrates(self):
        # Smaller sibling of the acceptance check: same density, N=2500.
        degs = []
        for i in range(5):
            pts = sample_points(2500, 500.0, np.random.default_rng(100 + i))
            degs.append(build_rgg(pts, 12.5, 500.0, TORUS).mean_local_degree)
        expected = expected_degree(0.01, 12.5)
        assert abs(np.mean(degs) - expected) / expected < 0.05

    # Pairs at exactly R, where the squared-distance screen must keep them:
    # a 3-4-5 triangle, the wrap of a torus in x, in y and diagonally, and
    # deltas whose squares round to just above R*R although hypot is R.
    @pytest.mark.parametrize("boundary,a,b", [
        (PLANAR, (10.0, 10.0), (13.0, 14.0)),
        (TORUS, (10.0, 10.0), (13.0, 14.0)),
        (TORUS, (1.0, 50.0), (96.0, 50.0)),
        (TORUS, (50.0, 2.0), (50.0, 97.0)),
        (TORUS, (1.0, 2.0), (98.0, 98.0)),
        (PLANAR, (0.0, 0.0), (4.557705474120502, 2.056044943859937)),
        (TORUS, (0.0, 0.0), (4.557705474120502, 2.056044943859937)),
    ], ids=["345-planar", "345-torus", "wrap-x", "wrap-y", "wrap-diagonal",
            "rounded-square-planar", "rounded-square-torus"])
    def test_pair_at_exactly_range_is_an_edge(self, boundary, a, b):
        pts = np.array([a, b, (50.0, 50.0)])
        net = build_rgg(pts, 5.0, 100.0, boundary)
        assert edge_set(net) == brute_force_edges(pts, 5.0, 100.0, boundary) == {(0, 1)}
        # Just short of the distance, the pair is out.
        assert build_rgg(pts, np.nextafter(5.0, 0.0), 100.0, boundary).n_local_edges == 0

    def test_tiny_range_gives_empty_edge_set(self, rng):
        # The grid is capped at 2 sqrt(N) + 1 cells per axis, not L / R = 10^5.
        net = build_rgg(sample_points(100, 1000.0, rng), 0.01, 1000.0, TORUS)
        assert net.n_local_edges == 0

    def test_zero_range_gives_empty_edge_set(self, rng):
        net = build_rgg(sample_points(50, 10.0, rng), 0.0, 10.0, TORUS)
        assert net.n_local_edges == 0

    def test_wrap_ambiguity_warns(self, rng):
        pts = sample_points(20, 10.0, rng)
        with pytest.warns(RuntimeWarning):
            build_rgg(pts, 6.0, 10.0, TORUS)

    @pytest.mark.parametrize("point", [(0.0, 11.0), (-1.0, 5.0), (5.0, 10.0), (math.nan, 5.0),
                                       (5.0, math.inf)])
    def test_rejects_out_of_region_points(self, point):
        with pytest.raises(ValueError, match=r"must lie in \[0, side\)"):
            build_rgg(np.array([[1.0, 1.0], point]), 1.0, 10.0, TORUS)

    @pytest.mark.parametrize("side", [0.0, -10.0, math.inf, math.nan])
    def test_rejects_a_side_that_is_not_positive_and_finite(self, side):
        with pytest.raises(ValueError, match="positive and finite"):
            build_rgg(np.array([[1.0, 1.0]]), 1.0, side, PLANAR)

    def test_neighbor_lists_sorted(self, rng):
        net = build_rgg(sample_points(300, 100.0, rng), 10.0, 100.0, TORUS)
        for u in range(net.n_nodes):
            nbrs = net.local_neighbors(u)
            assert np.all(np.diff(nbrs) > 0)

    def test_degree_edge_relation(self, rng):
        net = build_rgg(sample_points(400, 100.0, rng), 8.0, 100.0, TORUS)
        assert net.mean_local_degree == pytest.approx(2 * net.n_local_edges / net.n_nodes)


@pytest.mark.parametrize("boundary", [TORUS, PLANAR])
@pytest.mark.parametrize("g", range(1, 8))
def test_cell_grid_pairs_cover_each_pair_once(boundary, g):
    pts = sample_points(60, 10.0 * g, np.random.default_rng(g))
    grid = CellGrid(pts, 10.0 * g, boundary, 10.0)
    assert grid.g == g
    pairs = [(int(a), int(b)) for u, v in grid.pairs(np.arange(grid.dx.size)) for a, b in zip(u, v)]
    assert all(a != b for a, b in pairs)
    unordered = [tuple(sorted(p)) for p in pairs]
    assert len(unordered) == len(set(unordered)) == 60 * 59 // 2


@pytest.mark.parametrize("case", ["random", "one-cell", "empty-cells", "one-node", "one-cell-per-axis"])
def test_cell_grid_order_is_the_stable_argsort(case):
    rng = np.random.default_rng(5)
    side, min_cell, n = 100.0, 10.0, 200
    if case == "one-node":
        n = 1
    pts = sample_points(n, side, rng)
    if case == "one-cell":
        pts = 3.0 + pts * 0.01
    elif case == "empty-cells":
        pts[:, 0] *= 0.3
    elif case == "one-cell-per-axis":
        min_cell = 80.0
    grid = CellGrid(pts, side, TORUS, min_cell)
    cell = grid.coords[:, 0] * grid.g + grid.coords[:, 1]
    np.testing.assert_array_equal(grid.order, np.argsort(cell, kind="stable"))
    assert case != "one-cell-per-axis" or grid.g == 1
    assert case != "empty-cells" or np.count_nonzero(grid.counts == 0) > 0


@pytest.mark.parametrize("boundary", [TORUS, PLANAR])
def test_offset_tables_are_fresh_and_read_only(boundary):
    grid = CellGrid(sample_points(100, 50.0, np.random.default_rng(1)), 50.0, boundary, 7.0)
    torus = boundary is TORUS
    fresh = offset_tables.__wrapped__(grid.g, torus, 50.0)
    for cached, table in zip((grid.dx, grid.dy, grid.dmin, grid.inverse), fresh):
        np.testing.assert_array_equal(cached, table)
        assert cached.dtype == table.dtype
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 1


def test_offset_table_cache_stays_bounded():
    pts = sample_points(400, 100.0, np.random.default_rng(2))
    for g in range(1, 21):
        CellGrid(pts, 100.0, PLANAR, 100.0 / g)
        assert offset_tables.cache_info().currsize <= offset_tables.cache_info().maxsize == 2


def _keyed_positions(indptr, indices, rows, cols):
    # Oracle: the search over the keys row * n + col of every CSR entry.
    n = indptr.size - 1
    keys = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr)) + indices
    return np.searchsorted(keys, rows * n + cols)


@pytest.mark.parametrize("seed", range(4))
def test_row_positions_match_a_search_over_all_keys(seed):
    # Nodes 0, 5 and 11 have no edges: zero-degree rows first, in the
    # middle and last.
    rng = np.random.default_rng(seed)
    n = 12
    live = np.array([1, 2, 3, 4, 6, 7, 8, 9, 10])
    u, v = rng.choice(live, 40), rng.choice(live, 40)
    keep = u != v
    key = np.unique(np.minimum(u, v)[keep] * n + np.maximum(u, v)[keep])
    indptr, indices = _build_csr(n, key // n, key % n)
    assert indptr[1] == 0 and indptr[-1] == indptr[-2] and indptr[6] == indptr[5]
    rows, cols = np.divmod(rng.integers(0, n * n, 300), n)
    # Columns past each row's last entry, and rows of size zero.
    rows = np.concatenate([rows, np.arange(n), [0, 5, 11, 11]])
    cols = np.concatenate([cols, np.full(n, n - 1), [3, 0, 0, 11]])
    np.testing.assert_array_equal(row_positions(indptr, indices, rows, cols),
                                  _keyed_positions(indptr, indices, rows, cols))


def test_row_positions_on_an_empty_csr():
    indptr, indices = _build_csr(4, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    rows, cols = np.array([0, 3, 3]), np.array([2, 0, 3])
    np.testing.assert_array_equal(row_positions(indptr, indices, rows, cols), [0, 0, 0])
    assert row_positions(indptr, indices, rows[:0], cols[:0]).size == 0


@pytest.mark.parametrize("boundary", [TORUS, PLANAR])
@pytest.mark.parametrize("direction", [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)], ids=["x", "y", "diagonal"])
@pytest.mark.parametrize("radio,gap,edges", [(1e-170, 2e-170, 0), (1e-170, 0.5e-170, 1),
                                             (1e-161, 1.01e-161, 0), (1e-161, 0.99e-161, 1)])
def test_build_rgg_where_the_squares_underflow(boundary, direction, radio, gap, edges):
    # R*R is 0 or subnormal here, so the squared-distance screen cannot
    # tell these pairs apart; the metric still must.
    pts = np.array([[0.0, 0.0], [gap * direction[0], gap * direction[1]]])
    net = build_rgg(pts, radio, 1.0, boundary)
    assert net.n_local_edges == edges
    assert edge_set(net) == brute_force_edges(pts, radio, 1.0, boundary)


@pytest.mark.parametrize("boundary", [TORUS, PLANAR])
@pytest.mark.parametrize("radio", [1e-161, 3e-160])
def test_build_rgg_matches_brute_force_where_the_squares_are_subnormal(boundary, radio):
    # The squares round to a subnormal grid a few percent of R*R apart, so
    # a screen on them would drop some pairs just within R.
    pts = sample_points(60, 2 * radio, np.random.default_rng(3))
    net = build_rgg(pts, radio, 1.0, boundary)
    assert edge_set(net) == brute_force_edges(pts, radio, 1.0, boundary)


def _csr_of_union(net):
    lu, lv = net.local_edges()
    return _build_csr(net.n_nodes, np.concatenate([lu, net.long_u]), np.concatenate([lv, net.long_v]))


class TestLongLinkMerge:
    @pytest.mark.parametrize("boundary", [TORUS, PLANAR])
    @pytest.mark.parametrize("scheme", [LinkScheme.uniform(0.05), LinkScheme.power_law(0.05, 2.0)],
                             ids=["uniform", "powerlaw"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_csr_of_all_edges(self, boundary, scheme, seed):
        rng = np.random.default_rng(seed)
        net = build_rgg(sample_points(400, 100.0, rng), 6.0, 100.0, boundary)
        linked = add_long_range_links(add_long_range_links(net, scheme, rng), scheme, rng)
        indptr, indices = _csr_of_union(linked)
        np.testing.assert_array_equal(linked.adj_indptr, indptr)
        np.testing.assert_array_equal(linked.adj_indices, indices)
        assert linked.adj_indptr.dtype == linked.adj_indices.dtype == np.int64
        np.testing.assert_array_equal(linked.degrees, np.diff(indptr))

    def test_repeated_link_and_self_loop_merge_without_raising(self, rng):
        # Networks made by ``replace`` skip the from_edges checks; the merge
        # still lists every entry, as a CSR of all edges would.
        net = build_rgg(sample_points(50, 10.0, rng), 2.0, 10.0, TORUS)
        odd = dataclasses.replace(net, long_u=np.array([3, 3, 7, 0]), long_v=np.array([9, 9, 7, 49]),
                                  long_length=np.ones(4))
        indptr, indices = _csr_of_union(odd)
        np.testing.assert_array_equal(odd.adj_indptr, indptr)
        np.testing.assert_array_equal(odd.adj_indices, indices)
        assert odd.degrees[7] == net.degrees[7] + 2
        assert odd.degrees[3] == net.degrees[3] + 2
        assert np.count_nonzero(odd.neighbors(3) == 9) == 2 + np.count_nonzero(net.neighbors(3) == 9)


    @pytest.mark.parametrize("lu,lv", [(3, 50), (-1, 4)])
    def test_link_outside_the_nodes_rejected(self, rng, lu, lv):
        net = build_rgg(sample_points(50, 10.0, rng), 2.0, 10.0, TORUS)
        with pytest.raises(ValueError, match=r"long link has an endpoint outside \[0, 50\)"):
            dataclasses.replace(net, long_u=np.array([lu]), long_v=np.array([lv]), long_length=np.ones(1))


class TestComponents:
    def test_edgeless(self):
        lab = components(network_from_edges(5, []))
        assert lab.sizes.tolist() == [1, 1, 1, 1, 1]
        assert sorted(lab.labels.tolist()) == [0, 1, 2, 3, 4]

    def test_cycle_plus_isolate(self):
        lab = components(network_from_edges(4, [(0, 1), (1, 2), (2, 0)]))
        assert sorted(lab.sizes.tolist()) == [1, 3]
        assert lab.labels[0] == lab.labels[1] == lab.labels[2]
        assert lab.labels[3] != lab.labels[0]

    def test_labels_ordered_by_smallest_member(self):
        lab = components(network_from_edges(5, [(3, 4), (1, 2)]))
        # Component of node 0 gets label 0, of node 1 label 1, of node 3 label 2.
        assert lab.labels.tolist() == [0, 1, 1, 2, 2]
        assert lab.sizes.tolist() == [1, 2, 2]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_bfs_oracle(self, seed):
        rng = np.random.default_rng(seed)
        pts = sample_points(250, 100.0, rng)
        net = build_rgg(pts, 6.0, 100.0, TORUS)
        lab = components(net)
        oracle = bfs_labeling(net.n_nodes, list(edge_set(net)))
        got = [set(np.flatnonzero(lab.labels == k)) for k in range(lab.sizes.size)]
        assert sorted(map(sorted, got)) == sorted(map(sorted, oracle))

    def test_giant_emerges_above_onset(self):
        # 100 fresh realizations at the reference scale; the largest
        # component should hold >= 95% of nodes in >= 95% of them.
        hits = 0
        for i in range(100):
            pts = sample_points(10_000, 1000.0, np.random.default_rng(5000 + i))
            net = build_rgg(pts, 16.0, 1000.0, TORUS)
            if giant_fraction(components(net), net.n_nodes) >= 0.95:
                hits += 1
        assert hits >= 95


class TestGiantFraction:
    def test_basic(self):
        lab = components(network_from_edges(4, [(0, 1), (1, 2)]))
        assert giant_fraction(lab, 4) == pytest.approx(0.75)

    def test_single_component(self):
        lab = components(network_from_edges(7, [(i, i + 1) for i in range(6)]))
        assert giant_fraction(lab, 7) == 1.0

    def test_half(self):
        edges = [(i, i + 1) for i in range(49)]          # 0..49 chain of 50
        edges += [(50 + i, 51 + i) for i in range(29)]   # 50..79 chain of 30
        edges += [(80 + i, 81 + i) for i in range(19)]   # 80..99 chain of 20
        lab = components(network_from_edges(100, edges))
        assert sorted(lab.sizes.tolist(), reverse=True) == [50, 30, 20]
        assert giant_fraction(lab, 100) == pytest.approx(0.5)

    def test_zero_nodes_rejected(self):
        lab = components(network_from_edges(2, []))
        with pytest.raises(ValueError):
            giant_fraction(lab, 0)
