"""Shared fixtures and independent oracles.

The oracles here (the scalar metric, brute-force edge sets, BFS
components, full-rescan fixed points, the node-by-node synchronous step
and asynchronous sweep) deliberately avoid the library's own algorithms
so the tests check two independent routes to the same answer. The
structural checks, the component labeling (scipy), the degree formulas
and the snapshot reader serve only tests, so they live here rather than
in the numpy-only package.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from netwake.cascade import NEVER, CascadeState
from netwake.geometry import BoundaryMode, pair_distances
from netwake.network import Network


def distance(p, q, side: float, boundary: BoundaryMode) -> float:
    """Oracle: distance between two points, one scalar at a time.

    Planar is the ordinary Euclidean distance; torus takes the per-axis
    minimum of |dx| and side - |dx| before combining.
    """
    dx, dy = abs(float(p[0]) - float(q[0])), abs(float(p[1]) - float(q[1]))
    if boundary is BoundaryMode.TORUS:
        dx = min(dx, side - dx)
        dy = min(dy, side - dy)
    return math.hypot(dx, dy)


def expected_degree(density: float, radio_range: float) -> float:
    """Mean number of neighbors of a node: density * pi * range**2."""
    if density <= 0:
        raise ValueError(f"density must be positive, got {density}")
    if radio_range < 0:
        raise ValueError(f"radio range must be nonnegative, got {radio_range}")
    return density * math.pi * radio_range**2


def mean_local_degree(net: Network) -> float:
    """Mean number of local neighbors of a node: twice the local edges per node."""
    return 2.0 * net.n_local_edges / net.n_nodes


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


def sequential_sync_step(net: Network, state: CascadeState, phi: float) -> CascadeState:
    """Oracle: one synchronous step, visiting every node in id order.

    Each inactive node decides on the previous step's counts; the
    activations update the counts only after every node has decided.
    """
    t = state.t + 1
    activation_time = state.activation_time.copy()
    old = state.active_neighbor_counts
    counts = old.copy()
    degrees = net.degrees
    indptr, indices = net.adj_indptr, net.adj_indices
    newly = []
    for v in range(net.n_nodes):
        if activation_time[v] != NEVER or old[v] == 0:
            continue
        if old[v] / degrees[v] >= phi:
            activation_time[v] = t
            counts[indices[indptr[v]:indptr[v + 1]]] += 1
            newly.append(v)
    return CascadeState(
        activation_time=activation_time,
        t=t,
        newly_activated=np.array(newly, dtype=np.int64),
        active_neighbor_counts=counts,
    )


def sequential_async_sweep(net: Network, state: CascadeState, phi: float, rng: np.random.Generator) -> CascadeState:
    """Oracle: one asynchronous sweep, visiting the nodes one at a time.

    Draws one key per node, ``rng.random(n)``, exactly as the engine does,
    and walks the nodes by ascending (key, node id); each node decides on
    the counts as they stand at its visit, and an activation updates its
    neighbors' counts at once.
    """
    t = state.t + 1
    activation_time = state.activation_time.copy()
    counts = state.active_neighbor_counts.copy()
    degrees = net.degrees
    indptr, indices = net.adj_indptr, net.adj_indices
    newly = []
    for v in np.lexsort((np.arange(net.n_nodes), rng.random(net.n_nodes))):
        c = counts[v]
        if c == 0 or activation_time[v] != NEVER:
            continue
        if c / degrees[v] >= phi:
            activation_time[v] = t
            counts[indices[indptr[v]:indptr[v + 1]]] += 1
            newly.append(v)
    return CascadeState(
        activation_time=activation_time,
        t=t,
        newly_activated=np.array(sorted(newly), dtype=np.int64),
        active_neighbor_counts=counts,
    )


def brute_force_edges(positions: np.ndarray, radio_range: float, side: float, boundary: BoundaryMode) -> set[tuple[int, int]]:
    """Oracle: O(n^2) edge set straight from the metric definition."""
    n = positions.shape[0]
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if distance(positions[i], positions[j], side, boundary) <= radio_range:
                edges.add((i, j))
    return edges


def edge_set(net: Network) -> set[tuple[int, int]]:
    """The local edge set of a network as (min, max) id pairs."""
    pairs = set()
    for u in range(net.n_nodes):
        for v in net.local_neighbors(u):
            pairs.add((min(u, int(v)), max(u, int(v))))
    return pairs


def validate_network(net: Network) -> None:
    """Check a network's structural invariants, one node at a time."""
    deg = np.diff(net.local_indptr)
    assert deg.sum() == net.local_indices.size
    for u in range(net.n_nodes):
        nbrs = net.local_neighbors(u)
        assert np.all(np.diff(nbrs) > 0), "neighbor lists must be sorted and duplicate-free"
        assert u not in nbrs, "self-loop"
        for v in nbrs:
            assert u in net.local_neighbors(int(v)), "asymmetric edge"
    u, v = net.local_edges()
    d = pair_distances(net.positions[u], net.positions[v], net.side, net.boundary)
    assert np.all(d <= net.radio_range + 1e-9), "local edge longer than radio range"
    d_long = pair_distances(net.positions[net.long_u], net.positions[net.long_v], net.side, net.boundary)
    assert np.allclose(d_long, net.long_length), "recorded long-link length mismatch"


@dataclass
class ComponentLabeling:
    """Connected-component partition: per-node label and per-label size.

    Labels are assigned in order of each component's smallest member id,
    so the labeling is deterministic for a given edge set.
    """

    labels: np.ndarray
    sizes: np.ndarray


def components(net: Network) -> ComponentLabeling:
    """Label connected components over local plus long-range edges."""
    n = net.n_nodes
    graph = csr_matrix(
        (np.ones(net.adj_indices.size, dtype=np.int8), net.adj_indices, net.adj_indptr),
        shape=(n, n),
    )
    _, raw = connected_components(graph, directed=False)
    # Relabel so component 0 contains node 0, component 1 the smallest
    # node outside it, and so on.
    _, first_idx = np.unique(raw, return_index=True)
    rank = np.empty(first_idx.size, dtype=np.int64)
    rank[np.argsort(first_idx, kind="stable")] = np.arange(first_idx.size)
    labels = rank[raw]
    sizes = np.bincount(labels)
    return ComponentLabeling(labels=labels, sizes=sizes)


def giant_fraction(labeling: ComponentLabeling, n: int) -> float:
    """Largest component size as a fraction of n."""
    if n <= 0:
        raise ValueError(f"node count must be positive, got {n}")
    if labeling.labels.size != n:
        raise ValueError(f"labeling covers {labeling.labels.size} nodes, expected {n}")
    return float(labeling.sizes.max()) / n


@dataclass
class Snapshot:
    """Parsed snapshot file contents."""

    step: int
    positions: np.ndarray
    active: np.ndarray
    edges: list[tuple[int, int, str, float]]


def read_snapshot(path: str) -> Snapshot:
    """Parse a file written by ``netwake.output.export_snapshot``."""
    step = -1
    section = None
    ids, xs, ys, act = [], [], [], []
    edges: list[tuple[int, int, str, float]] = []
    with open(path, newline="") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("section:"):
                    section = body.split(":", 1)[1].strip()
                elif body.startswith("step:"):
                    step = int(body.split(":", 1)[1])
                continue
            cells = next(csv.reader([line]))
            if section == "nodes":
                if cells[0] == "id":
                    continue
                ids.append(int(cells[0]))
                xs.append(float(cells[1]))
                ys.append(float(cells[2]))
                act.append(bool(int(cells[3])))
            elif section == "edges":
                if cells[0] == "u":
                    continue
                edges.append((int(cells[0]), int(cells[1]), cells[2], float(cells[3])))

    order = np.argsort(ids)
    positions = np.column_stack([np.asarray(xs)[order], np.asarray(ys)[order]])
    return Snapshot(step=step, positions=positions, active=np.asarray(act, dtype=bool)[order], edges=edges)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
