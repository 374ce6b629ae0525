"""Random geometric network construction.

A network is built from node positions and a shared radio range R: two
nodes are linked when their distance is <= R. Construction bins points
into a ``CellGrid`` of cells at least R wide (and at most 2 sqrt(N) + 1
per axis, so a tiny R cannot blow up the grid) and tests only the pairs
of cells close enough to hold a pair within R: the expected cost is
O(N * mean degree) instead of O(N^2), on grids of any size. The grid
pairs each node with the contiguous run of sorted slots of a nearby
cell, a squared-distance screen on 1-D coordinate arrays decides almost
every pair, and the boundary metric ``pair_distances`` decides the thin
shell at distance ~R that the screen cannot. Long-range links added
later by the smallworld module live in a separate edge class but count
as ordinary neighbors for adjacency queries and connectivity.

What depends only on the configuration is computed once per process,
not once per network: ``offset_tables`` keeps the read-only cell-offset
tables of a grid, keyed on (g, torus, side), for the last _TABLES_KEPT
grid shapes. The tables are a pure function of that key, so a cached
table is bit-equal to a fresh one.

``Network`` is the one owner of the edge format: it is frozen, and it
derives the merged adjacency and the degrees from its edge lists once,
on construction, by inserting the few long-link entries into the sorted
local rows at the positions ``row_positions`` finds, reading only those
rows. A network with more links is a new ``Network``
(``dataclasses.replace``), never an edited one.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .geometry import BoundaryMode, pair_distances

# Offset tables kept at once: the build grid and the sampler grid of one
# configuration. A sweep over R or N replaces them instead of piling up.
_TABLES_KEPT = 2


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
    out = np.repeat(shifts, counts)
    out += np.arange(total, dtype=np.int64)
    return out


@functools.lru_cache(maxsize=_TABLES_KEPT)
def offset_tables(g: int, torus: bool, side: float) -> tuple[np.ndarray, ...]:
    """Read-only (dx, dy, dmin, inverse) of every cell offset of a g x g grid (see ``CellGrid``)."""
    steps = np.arange(g) if torus else np.arange(1 - g, g)
    back = (-steps) % g if torus else steps[::-1] + g - 1
    gaps = np.minimum(steps, g - steps) if torus else np.abs(steps)
    gaps = np.maximum(gaps - 1, 0) * (side / g)
    m = steps.size
    tables = (np.repeat(steps, m), np.tile(steps, m), np.hypot(gaps[:, None], gaps[None, :]).ravel(),
              (back[:, None] * m + back[None, :]).ravel())
    for table in tables:
        table.flags.writeable = False
    return tables


class CellGrid:
    """Nodes binned into a g x g grid of square cells, and the cell offsets.

    Cells are at least ``min_cell`` wide, with at most 2 sqrt(N) + 1 per
    axis (at least 1). ``coords`` holds each node's cell (x, y), ``counts``
    and ``starts`` each cell's node count and first slot in ``order``, the
    nodes sorted by cell id x * g + y and by node id within a cell: one
    plain sort of the unique keys cell * n + node, whose remainders mod n
    are the stable argsort of the cell ids.

    Offset k shifts a cell by (dx[k], dy[k]): residues mod g on the torus,
    signed in [1 - g, g - 1] on the plane. ``dmin[k]`` is the least
    distance between points of two cells k apart, and ``inverse[k]`` is
    the offset that shifts back. These four come read-only from
    ``offset_tables``, shared by every grid of the same shape.
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
        self.order = np.sort(cell * n + np.arange(n)) % n
        self.dx, self.dy, self.dmin, self.inverse = offset_tables(g, self.torus, side)

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
            # Inserting the entries in key order at their row positions gives
            # the sorted rows of the union.
            keys = np.sort(src * n + dst)
            rows, cols = np.divmod(keys, n)
            indices = np.insert(indices, row_positions(indptr, indices, rows, cols), cols)
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
        # The rows come out sorted, so a pair given twice leaves two equal
        # entries side by side within one row.
        row_start = np.zeros(indices.size, dtype=bool)
        row_start[indptr[:-1][indptr[:-1] < indices.size]] = True
        twice = np.flatnonzero((indices[1:] == indices[:-1]) & ~row_start[1:])
        if twice.size:
            k = twice[0] + 1
            row = np.searchsorted(indptr, k, side="right") - 1
            raise ValueError(f"edge ({row}, {indices[k]}) is given more than once")
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


def row_positions(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Insertion position of each (rows[k], cols[k]) in a CSR with sorted rows.

    That is indptr[row] plus the count of the row's entries below col, the
    position ``np.searchsorted`` finds for the key row * n + col among the
    keys of all entries; but only the rows asked for are read.
    """
    starts = indptr[rows]
    sizes = indptr[rows + 1] - starts
    below = indices[concat_ranges(starts, sizes)] < np.repeat(cols, sizes)
    # Differences of the running count give each key's count, rows of
    # size zero included.
    running = np.concatenate([[0], np.cumsum(below)])
    ends = np.cumsum(sizes)
    return starts + running[ends] - running[ends - sizes]


def _build_csr(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR with sorted neighbor lists from an undirected edge list."""
    u, v = u.astype(np.int64, copy=False), v.astype(np.int64, copy=False)
    m = u.size
    # One sort of the keys src * n + dst of both orientations orders by
    # source, then by neighbor. The keys live in one array, worked in place.
    key = np.empty(2 * m, dtype=np.int64)
    np.multiply(u, n, out=key[:m])
    np.multiply(v, n, out=key[m:])
    key[:m] += v
    key[m:] += u
    key.sort()
    counts = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    key -= np.repeat(np.arange(n, dtype=np.int64) * n, counts)
    return np.concatenate([[0], np.cumsum(counts)]).astype(np.int64), key


def build_rgg(points: np.ndarray, radio_range: float, side: float, boundary: BoundaryMode) -> Network:
    """Build the random geometric network over the given positions.

    An edge (u, v) exists iff u != v and distance(u, v) <= radio_range under
    the boundary metric. Candidate pairs come from a ``CellGrid`` with cells
    at least radio_range wide: the pairs of cells less than radio_range
    apart, i.e. the 3 x 3 neighborhood of each cell, or every pair on a
    grid of one or two cells per axis. A screen on the per-axis
    (minimum-image) deltas decides almost every candidate. With
    d2 = dx*dx + dy*dy, a pair with d2 <= R*R*(1 - 1e-9) is an edge and a
    pair with d2 > R*R*(1 + 1e-9) is not: the deltas are bit-equal to the
    ones ``pair_distances`` takes, and the squares round by a few ulp, far
    below the 1e-9 slack. Only the thin shell between the two goes to
    ``pair_distances`` <= radio_range, the one metric. Where R*R*(1 - 1e-9)
    is below 1e-290 or infinite, the squares can underflow or overflow, so
    the screen decides nothing and every candidate goes to
    ``pair_distances``.
    """
    positions = np.asarray(points, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {positions.shape}")
    if not 0 < side < math.inf:
        raise ValueError(f"region side must be positive and finite, got {side}")
    # Written so that a NaN coordinate fails it too.
    if not np.all((positions >= 0) & (positions < side)):
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
    square = radio_range * radio_range
    inner, outer = square * (1 - 1e-9), square * (1 + 1e-9)
    if not 1e-290 <= inner < math.inf:
        inner, outer = -1.0, math.inf
    edges_u = [np.empty(0, dtype=np.int64)]
    edges_v = [np.empty(0, dtype=np.int64)]
    for ci, cj in grid.pairs(np.flatnonzero(grid.dmin < radio_range)):
        # The deltas and squares are worked in place: at this size a fresh
        # array costs more than the arithmetic in it.
        dx, dy = x[ci], y[ci]
        dx -= x[cj]
        dy -= y[cj]
        np.abs(dx, out=dx)
        np.abs(dy, out=dy)
        if boundary is BoundaryMode.TORUS:
            np.minimum(dx, side - dx, out=dx)
            np.minimum(dy, side - dy, out=dy)
        dx *= dx
        dy *= dy
        d2 = np.add(dx, dy, out=dx)
        near = np.flatnonzero(d2 <= outer)
        ci, cj, sure = ci[near], cj[near], d2[near] <= inner
        edges_u.append(ci[sure])
        edges_v.append(cj[sure])
        ci, cj = ci[~sure], cj[~sure]
        # take gathers whole rows many times faster than fancy indexing does.
        a, b = positions.take(ci, axis=0), positions.take(cj, axis=0)
        keep = pair_distances(a, b, side, boundary) <= radio_range
        edges_u.append(ci[keep])
        edges_v.append(cj[keep])

    u, v = np.concatenate(edges_u), np.concatenate(edges_v)
    return Network.from_edges(positions, u, v, side, boundary, radio_range)
