import numpy as np
import pytest
from scipy.stats import chisquare

from netwake import cascade
from netwake.cascade import (
    NEVER,
    CascadeParams,
    Schedule,
    SeedRule,
    SeedSpec,
    initial_state,
    run_cascade,
    select_seed,
    step_asynchronous,
    step_synchronous,
)
from netwake.errors import SeedingError
from netwake.geometry import BoundaryMode, sample_points
from netwake.network import build_rgg
from netwake.smallworld import LinkScheme, add_long_range_links

from conftest import (
    bfs_component,
    naive_fixed_point,
    network_from_edges,
    path_network,
    random_graph,
    sequential_async_sweep,
    sequential_sync_step,
    star_network,
)


def random_test_network(g: np.random.Generator, linked: bool):
    """A G(n, p) graph, or a small geometric network with long links."""
    if not linked:
        n = int(g.integers(2, 40))
        return network_from_edges(n, random_graph(n, float(g.uniform(0.05, 0.5)), g))
    net = build_rgg(sample_points(int(g.integers(10, 60)), 100.0, g), float(g.uniform(10.0, 30.0)),
                    100.0, BoundaryMode.TORUS)
    return add_long_range_links(net, LinkScheme.uniform(float(g.uniform(0.01, 0.2))), g)


def random_seeds(g: np.random.Generator, n: int) -> list[int]:
    return sorted(g.choice(n, size=int(g.integers(1, min(n, 3) + 1)), replace=False).tolist())


def assert_async_dominates_sync(net, seeds, phi: float, rng_seed: int) -> None:
    """Same final set, and no node wakes later under the asynchronous schedule.

    By induction on steps: the rule is monotone and an async sweep sees at
    least the previous step's active set, so after every step the async
    active set contains the sync one.
    """
    spec = SeedSpec.explicit(seeds)
    sync = run_cascade(net, CascadeParams(phi=phi, seed_spec=spec), np.random.default_rng(rng_seed))
    aso = run_cascade(net, CascadeParams(phi=phi, schedule=Schedule.ASYNCHRONOUS, seed_spec=spec),
                      np.random.default_rng(rng_seed))
    woke = sync.activation_time != NEVER
    np.testing.assert_array_equal(aso.activation_time != NEVER, woke)
    assert np.all(aso.activation_time[woke] <= sync.activation_time[woke])


class TiedKeys:
    """Generator stand-in whose keys take only the values 0, 1/3 and 2/3.

    Most keys tie, so the node-id tie-break decides most of the visit
    order; continuous keys never tie and would not notice it missing.
    """

    def __init__(self, seed: int):
        self.inner = np.random.default_rng(seed)
        self.bit_generator = self.inner.bit_generator

    def random(self, n: int) -> np.ndarray:
        return np.floor(3 * self.inner.random(n)) / 3


def assert_sweeps_match_oracle(make_rng, trials: int) -> None:
    """Engine and node-by-node sweep agree on every state field and on the
    rng state after each of 1-7 sweeps, over random small networks, linked
    and unlinked, so runs cut short by a small step budget are covered as
    well as finished ones. ``make_rng(seed)`` gives each side its keys."""
    for trial in range(trials):
        g = np.random.default_rng(900 + trial)
        net = random_test_network(g, linked=trial % 2 == 1)
        phi = float(g.choice([0.0, 0.5, 1.0, g.uniform()]))
        fast = slow = initial_state(net, np.array(random_seeds(g, net.n_nodes)))
        rng_fast, rng_slow = make_rng(trial), make_rng(trial)
        for _ in range(int(g.integers(1, 8))):
            fast = step_asynchronous(net, fast, phi, rng_fast)
            slow = sequential_async_sweep(net, slow, phi, rng_slow)
            np.testing.assert_array_equal(fast.activation_time, slow.activation_time)
            np.testing.assert_array_equal(fast.newly_activated, slow.newly_activated)
            np.testing.assert_array_equal(fast.active_neighbor_counts, slow.active_neighbor_counts)
            assert rng_fast.bit_generator.state == rng_slow.bit_generator.state


class TestSelectSeed:
    def test_single(self, rng):
        net = network_from_edges(10, [(0, 1)])
        seed = select_seed(net, SeedSpec.single(), rng)
        assert seed.size == 1 and 0 <= seed[0] < 10

    def test_triple_on_star_enumerated(self, rng):
        # Oracle: on a 5-node star only the center has degree >= 2, so the
        # valid triples are exactly {center, leaf_i, leaf_j}.
        net = star_network(4)
        valid = {frozenset({0, i, j}) for i in range(1, 5) for j in range(i + 1, 5)}
        for _ in range(25):
            seed = select_seed(net, SeedSpec.triple(), rng)
            assert seed.size == 3
            assert frozenset(int(s) for s in seed) in valid

    def test_triple_hub_uniform_over_degree_two_nodes(self, rng):
        # A 6-cycle (nodes 0-5, degree 2) with pendants on 0 and 3 (degree
        # 3), a lone edge 8-9 (degree 1) and isolated 10 and 11 (degree 0).
        # The graph has no triangle, so in a seed {hub, a, b} the hub is the
        # one member adjacent to both others.
        edges = [(i, (i + 1) % 6) for i in range(6)] + [(0, 6), (3, 7), (8, 9)]
        net = network_from_edges(12, edges)
        adjacent = {(min(u, v), max(u, v)) for u, v in edges}
        draws = 3000
        hubs = np.zeros(12, dtype=np.int64)
        for _ in range(draws):
            seed = [int(s) for s in select_seed(net, SeedSpec.triple(), rng)]
            assert len(seed) == 3
            hub = [h for h in seed
                   if all((min(h, o), max(h, o)) in adjacent for o in seed if o != h)]
            assert len(hub) == 1
            others = [o for o in seed if o != hub[0]]
            assert set(others) <= set(net.neighbors(hub[0]).tolist())
            hubs[hub[0]] += 1
        assert hubs[6:].sum() == 0
        assert chisquare(hubs[:6]).pvalue > 0.01

    def test_explicit_passthrough(self, rng):
        net = network_from_edges(5, [(0, 1)])
        seed = select_seed(net, SeedSpec.explicit([0, 1, 2]), rng)
        assert seed.tolist() == [0, 1, 2]

    def test_explicit_validates_ids(self, rng):
        net = network_from_edges(5, [(0, 1)])
        with pytest.raises(ValueError):
            select_seed(net, SeedSpec.explicit([0, 7]), rng)

    @pytest.mark.parametrize("ids", [[1.5, 2.7], [0.9], [1, 2.0], [True, False]])
    def test_explicit_ids_must_be_integers(self, ids):
        # int() would truncate them: [1.5, 2.7] seeded (1, 2), [0.9] node 0,
        # and [True, False] nodes (1, 0).
        with pytest.raises(ValueError, match="seed node ids must be integers"):
            SeedSpec.explicit(ids)

    def test_explicit_spec_needs_ids(self):
        with pytest.raises(ValueError, match="explicit seed spec needs at least one node id"):
            SeedSpec(SeedRule.EXPLICIT)

    @pytest.mark.parametrize("rule", [SeedRule.SINGLE, SeedRule.TRIPLE])
    def test_drawn_specs_take_no_ids(self, rule):
        with pytest.raises(ValueError, match=f"{rule.value} seed spec takes no node ids"):
            SeedSpec(rule, (0,))

    def test_explicit_numpy_ids_become_ints(self):
        spec = SeedSpec.explicit(np.array([4, 2], dtype=np.int32))
        assert spec.nodes == (4, 2) and all(type(v) is int for v in spec.nodes)

    def test_triple_infeasible_when_max_degree_below_two(self, rng):
        net = network_from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(SeedingError):
            select_seed(net, SeedSpec.triple(), rng)


class TestSynchronousStep:
    @pytest.mark.parametrize("active, degree, phi, wakes", [
        pytest.param(2, 10, 0.15, True, id="meets-threshold"),
        pytest.param(1, 10, 0.15, False, id="below-threshold"),
        pytest.param(3, 20, 0.15, True, id="exact-fraction"),  # 3/20 == 0.15
        pytest.param(0, 0, 0.15, False, id="isolated-node"),
        pytest.param(0, 5, 0.0, False, id="zero-threshold-needs-an-active-neighbor"),
        pytest.param(1, 5, 0.0, True, id="zero-threshold-one-active-neighbor"),
    ])
    def test_threshold_rule(self, active, degree, phi, wakes):
        # Node 0 has `degree` leaves and the first `active` of them are
        # seeded; the last node lies outside its neighborhood and is always
        # seeded, so the active set is never empty.
        n = degree + 2
        net = network_from_edges(n, [(0, leaf) for leaf in range(1, degree + 1)])
        seeds = np.array([*range(1, active + 1), n - 1])
        state = step_synchronous(net, initial_state(net, seeds), phi)
        assert bool(state.active[0]) is wakes

    def test_star_ignites_all_leaves_at_once(self, rng):
        net = star_network(4)
        state = initial_state(net, np.array([0]))
        state = step_synchronous(net, state, 0.5)
        assert state.active.all()
        assert state.t == 1
        assert sorted(state.newly_activated.tolist()) == [1, 2, 3, 4]

    def test_path_blocks_below_threshold(self):
        # b sees 1/2 = 0.5 < 0.6: the seed is already the fixed point.
        net = path_network(3)
        state = initial_state(net, np.array([0]))
        state = step_synchronous(net, state, 0.6)
        assert state.newly_activated.size == 0
        assert state.active.tolist() == [True, False, False]

    def test_all_active_is_absorbing(self):
        net = path_network(4)
        state = initial_state(net, np.arange(4))
        nxt = step_synchronous(net, state, 0.3)
        assert nxt.active.all() and nxt.newly_activated.size == 0
        assert nxt.t == state.t + 1

    def test_evaluates_against_previous_step_only(self):
        # Chain at phi 0.5: the wave moves one hop per step, never two.
        net = path_network(5)
        state = initial_state(net, np.array([0]))
        state = step_synchronous(net, state, 0.5)
        assert state.active.tolist() == [True, True, False, False, False]
        state = step_synchronous(net, state, 0.5)
        assert state.active.tolist() == [True, True, True, False, False]

    def test_matches_sequential_step(self):
        # Oracle: the node-by-node step on the previous step's counts.
        # Every state field agrees after each of 1-7 steps.
        for trial in range(320):
            g = np.random.default_rng(900 + trial)
            net = random_test_network(g, linked=trial % 2 == 1)
            phi = float(g.choice([0.0, 0.5, 1.0, g.uniform()]))
            fast = slow = initial_state(net, np.array(random_seeds(g, net.n_nodes)))
            for _ in range(int(g.integers(1, 8))):
                fast = step_synchronous(net, fast, phi)
                slow = sequential_sync_step(net, slow, phi)
                np.testing.assert_array_equal(fast.activation_time, slow.activation_time)
                np.testing.assert_array_equal(fast.newly_activated, slow.newly_activated)
                np.testing.assert_array_equal(fast.active_neighbor_counts, slow.active_neighbor_counts)


class TestAsynchronousStep:
    def test_all_active_unchanged(self, rng):
        net = path_network(3)
        state = initial_state(net, np.arange(3))
        nxt = step_asynchronous(net, state, 0.5, rng)
        assert nxt.active.all() and nxt.newly_activated.size == 0

    def test_star_completes_in_one_sweep_any_order(self):
        net = star_network(4)
        for seed in range(10):
            state = initial_state(net, np.array([0]))
            state = step_asynchronous(net, state, 0.5, np.random.default_rng(seed))
            assert state.active.all()

    def test_path_updates_visible_within_sweep(self):
        # With visit order 1 before 2, node 2 sees node 1's fresh activation
        # inside the same sweep and the whole path finishes at t=1.
        net = path_network(3)
        hit_fast = hit_slow = False
        for seed in range(40):
            order = np.lexsort((np.arange(3), np.random.default_rng(seed).random(3))).tolist()
            one_first = order.index(1) < order.index(2)
            state = initial_state(net, np.array([0]))
            state = step_asynchronous(net, state, 0.5, np.random.default_rng(seed))
            if one_first:
                assert state.active.all()
                hit_fast = True
            else:
                assert state.active.tolist() == [True, True, False]
                hit_slow = True
        assert hit_fast and hit_slow

    def test_matches_sequential_sweep(self):
        assert_sweeps_match_oracle(np.random.default_rng, 320)

    def test_tied_keys_go_to_the_lower_id(self):
        assert_sweeps_match_oracle(TiedKeys, 320)

    def test_draws_one_key_per_node(self):
        # The stream contract: a sweep advances the generator exactly as one
        # rng.random(n) does, and a synchronous run draws nothing at all.
        net = random_test_network(np.random.default_rng(1), linked=True)
        rng, ref = np.random.default_rng(2), np.random.default_rng(2)
        step_asynchronous(net, initial_state(net, np.array([0])), 0.5, rng)
        ref.random(net.n_nodes)
        assert rng.bit_generator.state == ref.bit_generator.state
        before = rng.bit_generator.state
        run_cascade(net, CascadeParams(phi=0.0, seed_spec=SeedSpec.explicit([0])), rng)
        assert rng.bit_generator.state == before


class TestRunCascade:
    def test_flooding_covers_component_in_eccentricity_steps(self):
        # phi=0 degenerates to flooding: oracle is a plain BFS.
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (0, 7)]
        net = network_from_edges(8, edges)
        params = CascadeParams(phi=0.0, seed_spec=SeedSpec.explicit([0]))
        out = run_cascade(net, params, np.random.default_rng(0))
        comp, dist = bfs_component(8, edges, 0)
        assert set(np.flatnonzero(out.activation_time != NEVER)) == comp
        assert out.time == max(dist.values())
        assert out.final_fraction == 1.0

    def test_flooding_stays_in_seed_component(self):
        edges = [(0, 1), (1, 2), (3, 4)]
        net = network_from_edges(6, edges)
        params = CascadeParams(phi=0.0, seed_spec=SeedSpec.explicit([3]))
        out = run_cascade(net, params, np.random.default_rng(0))
        assert set(np.flatnonzero(out.activation_time != NEVER)) == {3, 4}
        assert out.final_fraction == pytest.approx(2 / 6)
        assert not out.is_global

    def test_activation_times_recorded(self):
        net = path_network(4)
        params = CascadeParams(phi=0.0, seed_spec=SeedSpec.explicit([0]))
        out = run_cascade(net, params, np.random.default_rng(0))
        assert out.activation_time.tolist() == [0, 1, 2, 3]
        assert out.active_at(1).tolist() == [True, True, False, False]

    def test_synchronous_runs_deterministic(self, rng):
        edges = random_graph(40, 0.1, rng)
        net = network_from_edges(40, edges)
        params = CascadeParams(phi=0.3, seed_spec=SeedSpec.explicit([0, 1]))
        a = run_cascade(net, params, np.random.default_rng(1))
        b = run_cascade(net, params, np.random.default_rng(2))
        np.testing.assert_array_equal(a.activation_time, b.activation_time)
        assert a.time == b.time and a.final_fraction == b.final_fraction

    def test_active_set_monotone_in_time(self, rng):
        edges = random_graph(30, 0.15, rng)
        net = network_from_edges(30, edges)
        state = initial_state(net, np.array([0, 3]))
        for _ in range(10):
            nxt = step_synchronous(net, state, 0.25)
            assert np.all(nxt.active >= state.active)
            state = nxt

    def test_seed_monotonicity(self):
        # Larger seed sets can only grow the synchronous outcome.
        for trial in range(30):
            rng = np.random.default_rng(300 + trial)
            edges = random_graph(12, 0.25, rng)
            net = network_from_edges(12, edges)
            small = sorted(rng.choice(12, size=2, replace=False).tolist())
            extra = int(rng.integers(0, 12))
            big = sorted(set(small) | {extra})
            phi = float(rng.choice([0.2, 0.4, 0.6]))
            out_small = run_cascade(
                net, CascadeParams(phi=phi, seed_spec=SeedSpec.explicit(small)), rng
            )
            out_big = run_cascade(
                net, CascadeParams(phi=phi, seed_spec=SeedSpec.explicit(big)), rng
            )
            small_final = set(np.flatnonzero(out_small.activation_time != NEVER))
            big_final = set(np.flatnonzero(out_big.activation_time != NEVER))
            assert small_final <= big_final

    def test_unanimity_threshold(self):
        # phi = 1: a node waits for every neighbor.
        triangle = network_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        out2 = run_cascade(
            triangle, CascadeParams(phi=1.0, seed_spec=SeedSpec.explicit([0, 1])),
            np.random.default_rng(0),
        )
        assert out2.final_fraction == 1.0
        out1 = run_cascade(
            triangle, CascadeParams(phi=1.0, seed_spec=SeedSpec.explicit([0])),
            np.random.default_rng(0),
        )
        assert set(np.flatnonzero(out1.activation_time != NEVER)) == {0}

    def test_matches_naive_fixed_point(self):
        # Quick version of the full oracle-equivalence acceptance run.
        for trial in range(100):
            rng = np.random.default_rng(700 + trial)
            n = int(rng.integers(2, 9))
            edges = random_graph(n, 0.35, rng)
            net = network_from_edges(n, edges)
            n_seeds = int(rng.integers(1, n + 1))
            seeds = sorted(rng.choice(n, size=n_seeds, replace=False).tolist())
            phi = float(rng.choice([0.0, 0.3, 0.5, 1.0]))
            out = run_cascade(
                net, CascadeParams(phi=phi, seed_spec=SeedSpec.explicit(seeds)), rng
            )
            got = set(np.flatnonzero(out.activation_time != NEVER))
            assert got == naive_fixed_point(n, edges, seeds, phi)

    def test_step_budget_marks_stalled(self):
        net = path_network(5)
        params = CascadeParams(phi=0.4, seed_spec=SeedSpec.explicit([0]), max_steps=1)
        out = run_cascade(net, params, np.random.default_rng(0))
        assert out.stalled
        assert out.time == 1
        assert out.final_fraction == pytest.approx(2 / 5)

    def test_async_schedule_reaches_same_fixed_point(self):
        # The rule is monotone, so sync and async agree on the final set
        # and async is never later; a useful cross-check of both engines.
        for trial in range(400):
            g = np.random.default_rng(4000 + trial)
            net = random_test_network(g, linked=trial % 2 == 1)
            phi = float(g.choice([0.0, 0.5, 1.0, g.uniform()]))
            assert_async_dominates_sync(net, random_seeds(g, net.n_nodes), phi, trial)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            CascadeParams(phi=1.5)
        with pytest.raises(ValueError):
            CascadeParams(phi=0.1, cutoff_fraction=0.0)
        with pytest.raises(ValueError):
            CascadeParams(phi=0.1, max_steps=0)

    @pytest.mark.parametrize("max_steps", [2.5, 3.0, float("nan"), True, "3"])
    def test_max_steps_must_be_an_integer(self, max_steps):
        # 2.5 used to run 3 steps, and NaN none at all, reported as finished.
        with pytest.raises(ValueError, match=f"max_steps must be an integer >= 1, got {max_steps!r}"):
            CascadeParams(phi=0.1, max_steps=max_steps)

    def test_numpy_max_steps_accepted(self):
        params = CascadeParams(phi=0.4, seed_spec=SeedSpec.explicit([0]), max_steps=np.int64(1))
        assert run_cascade(path_network(5), params, np.random.default_rng(0)).stalled


@pytest.fixture(scope="module")
def reference_networks():
    """N=10^4, L=10^3, R=16 on the torus, plain and with uniform links."""
    pts = sample_points(10_000, 1000.0, np.random.default_rng(160))
    plain = build_rgg(pts, 16.0, 1000.0, BoundaryMode.TORUS)
    linked = add_long_range_links(plain, LinkScheme.uniform(0.01), np.random.default_rng(2))
    return plain, linked


class TestReferenceScale:
    def test_global_wakeup_at_reference_parameters(self, reference_networks):
        # N=10^4, L=10^3, R=16, phi=0.12: a single seed wakes the whole
        # network in on the order of a hundred steps, and a small dose of
        # long-range links cuts that time down on the same topology.
        net, linked = reference_networks
        # Not every node can ignite alone at this threshold (it needs a
        # neighbor of degree <= 1/phi); node 4 does on this realization.
        params = CascadeParams(phi=0.12, seed_spec=SeedSpec.explicit([4]))
        plain = run_cascade(net, params, np.random.default_rng(1))
        assert plain.is_global and plain.final_fraction > 0.85
        assert 30 <= plain.time <= 300

        fast = run_cascade(linked, params, np.random.default_rng(3))
        assert fast.is_global
        assert fast.time < plain.time

    def test_async_matches_sequential_sweep(self, reference_networks, monkeypatch):
        _, linked = reference_networks
        params = CascadeParams(phi=0.12, schedule=Schedule.ASYNCHRONOUS, seed_spec=SeedSpec.explicit([4]))
        rng_fast, rng_slow = np.random.default_rng(5), np.random.default_rng(5)
        fast = run_cascade(linked, params, rng_fast)
        monkeypatch.setattr(cascade, "step_asynchronous", sequential_async_sweep)
        slow = run_cascade(linked, params, rng_slow)
        assert fast.is_global and not fast.stalled and not slow.stalled
        np.testing.assert_array_equal(fast.activation_time, slow.activation_time)
        assert rng_fast.bit_generator.state == rng_slow.bit_generator.state

    def test_async_steps_match_sequential_sweep(self):
        # Rounds at this scale often reach one node from several sources, so
        # the hit counts and the distinct candidates are both exercised.
        for k in range(3):
            g = np.random.default_rng(250 + k)
            net = build_rgg(sample_points(2500, 500.0, g), 16.0, 500.0, BoundaryMode.TORUS)
            net = add_long_range_links(net, LinkScheme.uniform(0.01), g)
            seeds = np.union1d([k], net.neighbors(k))
            fast = slow = initial_state(net, seeds)
            rng_fast, rng_slow = np.random.default_rng(k), np.random.default_rng(k)
            while slow.newly_activated.size:  # the seeds, at t=0
                fast = step_asynchronous(net, fast, 0.12, rng_fast)
                slow = sequential_async_sweep(net, slow, 0.12, rng_slow)
                np.testing.assert_array_equal(fast.activation_time, slow.activation_time)
                np.testing.assert_array_equal(fast.active_neighbor_counts, slow.active_neighbor_counts)
            assert slow.active.mean() > 0.85 and slow.t > 5

    @pytest.mark.parametrize("phi", [0.0, 0.12])
    def test_async_dominates_sync(self, reference_networks, phi):
        for net in reference_networks:
            assert_async_dominates_sync(net, [4], phi, 6)
