"""Random geometric network construction.

A network is built from node positions and a shared radio range R: two
nodes are linked when their distance is <= R. Construction bins points
into a ``CellGrid`` of cells at least R wide (and at most 2 sqrt(N) + 1
per axis, so a tiny R cannot blow up the grid) and tests only the pairs
of cells close enough to hold a pair within R: the expected cost is
O(N * mean degree) instead of O(N^2), on grids of any size. The grid
pairs each node with the contiguous run of sorted slots of a nearby
cell, a cheap squared-distance screen on 1-D coordinate arrays drops
most of those pairs, and the boundary metric ``pair_distances`` decides
the rest. Long-range links added later by the smallworld module live in
a separate edge class but count as ordinary neighbors for adjacency
queries and connectivity.

``Network`` is the one owner of the edge format: it is frozen, and it
derives the merged adjacency and the degrees from its edge lists once,
on construction, by inserting the few long-link entries into the sorted
local rows. A network with more links is a new ``Network``
(``dataclasses.replace``), never an edited one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .geometry import BoundaryMode, pair_distances


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate [s, s+c) integer ranges without a Python loop.

    Equivalent to np.concatenate([np.arange(s, s + c) for s, c in zip(starts, counts)]).
    """
    counts = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Output slot t of range r holds starts[r] + (t - (ends[r] - counts[r])).
    shifts = np.asarray(starts, dtype=np.int64) - (ends - counts)
    return np.repeat(shifts, counts) + np.arange(total, dtype=np.int64)


class CellGrid:
    """Nodes binned into a g x g grid of square cells, and the cell offsets.

    Cells are at least ``min_cell`` wide, with at most 2 sqrt(N) + 1 per
    axis (at least 1). ``coords`` holds each node's cell (x, y), ``counts``
    and ``starts`` each cell's node count and first slot in ``order``, the
    nodes sorted stably by cell id x * g + y.

    Offset k shifts a cell by (dx[k], dy[k]): residues mod g on the torus,
    signed in [1 - g, g - 1] on the plane. ``dmin[k]`` is the least
    distance between points of two cells k apart, and ``inverse[k]`` is
    the offset that shifts back.
    """

    def __init__(self, positions: np.ndarray, side: float, boundary: BoundaryMode, min_cell: float):
        n = positions.shape[0]
        cap = 2 * math.isqrt(n) + 1
        self.g = g = cap if min_cell * cap <= side else max(1, int(side // min_cell))
        self.torus = boundary is BoundaryMode.TORUS
        self.coords = np.minimum((positions / (side / g)).astype(np.int64), g - 1)
        cell = self.coords[:, 0] * g + self.coords[:, 1]
        self.counts = np.bincount(cell, minlength=g * g)
        self.starts = np.concatenate([[0], np.cumsum(self.counts)])
        self.order = np.argsort(cell, kind="stable")

        steps = np.arange(g) if self.torus else np.arange(1 - g, g)
        back = (-steps) % g if self.torus else steps[::-1] + g - 1
        gaps = np.minimum(steps, g - steps) if self.torus else np.abs(steps)
        gaps = np.maximum(gaps - 1, 0) * (side / g)
        m = steps.size
        self.dx = np.repeat(steps, m)
        self.dy = np.tile(steps, m)
        self.dmin = np.hypot(gaps[:, None], gaps[None, :]).ravel()
        self.inverse = (back[:, None] * m + back[None, :]).ravel()

    def shift(self, cx: np.ndarray, cy: np.ndarray, k) -> tuple[np.ndarray, np.ndarray]:
        """Cell (cx, cy) shifted by offset k, and the mask of shifts inside the grid."""
        g = self.g
        tx = cx + self.dx[k]
        ty = cy + self.dy[k]
        if self.torus:
            return (tx % g) * g + ty % g, np.ones(tx.shape, dtype=bool)
        inside = (tx >= 0) & (tx < g) & (ty >= 0) & (ty < g)
        return np.where(inside, tx * g + ty, 0), inside

    def pairs(self, offsets: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Node pairs (u, v) whose cells lie one of ``offsets`` apart, one offset at a time.

        Each unordered pair u != v comes out once: of an offset and its
        inverse only the first is visited. Pairs come out in slot order:
        u = order[i] for the sorted slots i in turn, each with v = order[j]
        for the slots j of the shifted cell, ascending. On an offset that
        is its own inverse, j starts after i.
        """
        chosen = np.zeros(self.dx.size, dtype=bool)
        chosen[offsets] = True
        first = ~chosen[self.inverse] | (self.inverse >= np.arange(chosen.size))
        g = self.g
        cells = np.arange(g * g)
        cx, cy = np.divmod(cells, g)
        slot_cell = np.repeat(cells, self.counts)
        slots = np.arange(slot_cell.size)
        for k in np.flatnonzero(chosen & first):
            target, inside = self.shift(cx, cy, k)
            start = self.starts[target][slot_cell]
            end = start + np.where(inside, self.counts[target], 0)[slot_cell]
            if self.inverse[k] == k:
                start = np.maximum(start, slots + 1)
            size = np.maximum(end - start, 0)
            yield np.repeat(self.order, size), self.order[concat_ranges(start, size)]


@dataclass(frozen=True)
class Network:
    """Immutable snapshot of a deployed network.

    Local adjacency (the range-R backbone) is stored in CSR form with
    sorted neighbor lists; long-range links are stored as parallel arrays
    (u, v, length). ``adj_indptr``/``adj_indices`` cover the union of both
    edge classes and drive all dynamics; they and ``degrees`` are derived
    from the edge lists once, on construction.
    """

    n_nodes: int
    side: float
    boundary: BoundaryMode
    radio_range: float
    positions: np.ndarray
    local_indptr: np.ndarray
    local_indices: np.ndarray
    long_u: np.ndarray
    long_v: np.ndarray
    long_length: np.ndarray
    adj_indptr: np.ndarray = field(init=False, repr=False)
    adj_indices: np.ndarray = field(init=False, repr=False)
    degrees: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        indptr, indices = self.local_indptr, self.local_indices
        if self.long_u.size:
            n = self.n_nodes
            src = np.concatenate([self.long_u, self.long_v]).astype(np.int64, copy=False)
            dst = np.concatenate([self.long_v, self.long_u]).astype(np.int64, copy=False)
            if src.min() < 0 or src.max() >= n:
                raise ValueError(f"a long link has an endpoint outside [0, {n})")
            # The local keys ascend, so inserting the sorted long-link keys at
            # their sorted positions gives the key order of the union.
            keys = np.sort(src * n + dst)
            indices = np.insert(indices, np.searchsorted(row_keys(indptr, indices), keys), keys % n)
            indptr = indptr + np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
        object.__setattr__(self, "adj_indptr", indptr)
        object.__setattr__(self, "adj_indices", indices)
        object.__setattr__(self, "degrees", np.diff(indptr))

    @classmethod
    def from_edges(cls, positions, u: np.ndarray, v: np.ndarray, side: float,
                   boundary: BoundaryMode, radio_range: float) -> "Network":
        """Network over ``positions`` whose local edges are the pairs (u[k], v[k]).

        Each pair joins two distinct integer ids in [0, n) and appears
        once, in either orientation; anything else raises ValueError.
        """
        positions = np.asarray(positions, dtype=float)
        n = positions.shape[0]
        u, v = np.asarray(u), np.asarray(v)
        for ids in (u, v):
            if ids.size and not np.issubdtype(ids.dtype, np.integer):
                raise ValueError(f"node ids must be integers, got dtype {ids.dtype}")
        u, v = u.astype(np.int64, copy=False), v.astype(np.int64, copy=False)
        if u.shape != v.shape or u.ndim != 1:
            raise ValueError(f"u and v must be 1-d and equal in length, got shapes {u.shape} and {v.shape}")
        outside = np.flatnonzero((u < 0) | (u >= n) | (v < 0) | (v >= n))
        if outside.size:
            k = outside[0]
            raise ValueError(f"edge ({u[k]}, {v[k]}) has an endpoint outside [0, {n})")
        loops = np.flatnonzero(u == v)
        if loops.size:
            raise ValueError(f"self-loop at node {u[loops[0]]}")
        indptr, indices = _build_csr(n, u, v)
        # The rows come out sorted, so their keys ascend, and a pair given
        # twice leaves two equal keys side by side.
        key = row_keys(indptr, indices)
        twice = np.flatnonzero(key[1:] == key[:-1])
        if twice.size:
            k = key[twice[0]]
            raise ValueError(f"edge ({k // n}, {k % n}) is given more than once")
        no_links = np.empty(0, dtype=np.int64)
        return cls(n_nodes=n, side=float(side), boundary=boundary, radio_range=float(radio_range),
                   positions=positions, local_indptr=indptr, local_indices=indices,
                   long_u=no_links, long_v=no_links, long_length=np.empty(0))

    # -- adjacency queries ---------------------------------------------------

    def neighbors(self, node: int) -> np.ndarray:
        """All neighbors of ``node`` (local and long-range), ascending."""
        return self.adj_indices[self.adj_indptr[node]:self.adj_indptr[node + 1]]

    def local_neighbors(self, node: int) -> np.ndarray:
        return self.local_indices[self.local_indptr[node]:self.local_indptr[node + 1]]

    def local_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Each local edge once, as arrays (u, v) with u < v, in CSR order."""
        src = np.repeat(np.arange(self.n_nodes), np.diff(self.local_indptr))
        keep = src < self.local_indices
        return src[keep], self.local_indices[keep]

    @property
    def n_local_edges(self) -> int:
        return int(self.local_indices.size) // 2

    @property
    def n_long_edges(self) -> int:
        return int(self.long_u.size)

    @property
    def mean_local_degree(self) -> float:
        return 2.0 * self.n_local_edges / self.n_nodes


def row_keys(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Key row * n + neighbor of each CSR entry, n = len(indptr) - 1; ascending for sorted rows."""
    n = indptr.size - 1
    return np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr)) + indices


def _build_csr(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR with sorted neighbor lists from an undirected edge list."""
    src = np.concatenate([u, v]).astype(np.int64, copy=False)
    dst = np.concatenate([v, u]).astype(np.int64, copy=False)
    # One sort of the key src * n + dst orders by source, then by neighbor.
    key = np.sort(src * n + dst)
    counts = np.bincount(src, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return indptr, key % n


def build_rgg(points: np.ndarray, radio_range: float, side: float, boundary: BoundaryMode) -> Network:
    """Build the random geometric network over the given positions.

    An edge (u, v) exists iff u != v and distance(u, v) <= radio_range under
    the boundary metric. Candidate pairs come from a ``CellGrid`` with cells
    at least radio_range wide: the pairs of cells less than radio_range
    apart, i.e. the 3 x 3 neighborhood of each cell, or every pair on a
    grid of one or two cells per axis. A screen on the per-axis
    (minimum-image) deltas, dx*dx + dy*dy <= R*R*(1 + 1e-9), drops the
    candidates that are clearly too far; its slack covers the rounding
    of the squares, so it keeps every pair within R. ``pair_distances``
    <= radio_range then decides the survivors, as the one metric.
    """
    positions = np.asarray(points, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {positions.shape}")
    if side <= 0:
        raise ValueError(f"region side must be positive, got {side}")
    if np.any(positions < 0) or np.any(positions >= side):
        raise ValueError("all coordinates must lie in [0, side)")

    if boundary is BoundaryMode.TORUS and radio_range > side / 2:
        warnings.warn(
            f"radio range {radio_range} exceeds half the region side {side}; "
            "torus wrap makes near and far neighbors ambiguous",
            RuntimeWarning,
            stacklevel=2,
        )

    grid = CellGrid(positions, side, boundary, radio_range)
    x, y = np.ascontiguousarray(positions[:, 0]), np.ascontiguousarray(positions[:, 1])
    screen = radio_range * radio_range * (1 + 1e-9)
    edges_u = [np.empty(0, dtype=np.int64)]
    edges_v = [np.empty(0, dtype=np.int64)]
    for ci, cj in grid.pairs(np.flatnonzero(grid.dmin < radio_range)):
        dx, dy = np.abs(x[ci] - x[cj]), np.abs(y[ci] - y[cj])
        if boundary is BoundaryMode.TORUS:
            dx, dy = np.minimum(dx, side - dx), np.minimum(dy, side - dy)
        near = np.flatnonzero(dx * dx + dy * dy <= screen)
        ci, cj = ci[near], cj[near]
        # take gathers whole rows many times faster than fancy indexing does.
        a, b = positions.take(ci, axis=0), positions.take(cj, axis=0)
        keep = pair_distances(a, b, side, boundary) <= radio_range
        edges_u.append(ci[keep])
        edges_v.append(cj[keep])

    u, v = np.concatenate(edges_u), np.concatenate(edges_v)
    return Network.from_edges(positions, u, v, side, boundary, radio_range)
