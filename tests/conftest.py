"""Shared fixtures and independent oracles.

The oracles here (brute-force edge sets, BFS components, full-rescan
fixed points) deliberately avoid the library's own algorithms so the
tests check two independent routes to the same answer.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from netwake.geometry import BoundaryMode
from netwake.network import Network


def network_from_edges(n: int, edges, side: float = 1.0, radio_range: float = 1.0) -> Network:
    """Arbitrary test graph wrapped as a Network (all nodes at the origin)."""
    if edges:
        u, v = (np.array(x, dtype=np.int64) for x in zip(*edges))
    else:
        u = v = np.empty(0, dtype=np.int64)
    return Network.from_edges(np.zeros((n, 2)), u, v, side, BoundaryMode.TORUS, radio_range)


def star_network(n_leaves: int = 4) -> Network:
    """Hub 0 connected to nodes 1..n_leaves."""
    return network_from_edges(n_leaves + 1, [(0, i) for i in range(1, n_leaves + 1)])


def path_network(n: int = 3) -> Network:
    return network_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def random_graph(n: int, p: float, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Edge list of a G(n, p) draw."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j))
    return edges


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs_component(n: int, edges, start: int) -> tuple[set[int], dict[int, int]]:
    """Oracle: the component of ``start`` with hop distances, by plain BFS."""
    adj = adjacency(n, edges)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return set(dist), dist


def bfs_labeling(n: int, edges) -> list[set[int]]:
    """Oracle: all components by BFS from each unvisited node, in id order."""
    seen: set[int] = set()
    comps = []
    for start in range(n):
        if start in seen:
            continue
        comp, _ = bfs_component(n, edges, start)
        seen |= comp
        comps.append(comp)
    return comps


def naive_fixed_point(n: int, edges, seeds, phi: float) -> set[int]:
    """Oracle: least fixed point by repeated full scans over all nodes.

    Same activation rule as the engine (at least one active neighbor and
    active fraction >= phi), different mechanism: rescan everything until
    a whole pass changes nothing, applying each pass's activations at once.
    """
    adj = adjacency(n, edges)
    active = set(seeds)
    while True:
        newly = set()
        for v in range(n):
            if v in active or not adj[v]:
                continue
            k = sum(1 for w in adj[v] if w in active)
            if k >= 1 and k / len(adj[v]) >= phi:
                newly.add(v)
        if not newly:
            return active
        active |= newly


def brute_force_edges(positions: np.ndarray, radio_range: float, side: float, boundary: BoundaryMode) -> set[tuple[int, int]]:
    """Oracle: O(n^2) edge set straight from the metric definition."""
    n = positions.shape[0]
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            dx = abs(positions[i, 0] - positions[j, 0])
            dy = abs(positions[i, 1] - positions[j, 1])
            if boundary is BoundaryMode.TORUS:
                dx = min(dx, side - dx)
                dy = min(dy, side - dy)
            if np.hypot(dx, dy) <= radio_range:
                edges.add((i, j))
    return edges


def edge_set(net: Network) -> set[tuple[int, int]]:
    """The local edge set of a network as (min, max) id pairs."""
    pairs = set()
    for u in range(net.n_nodes):
        for v in net.local_neighbors(u):
            pairs.add((min(u, int(v)), max(u, int(v))))
    return pairs


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
