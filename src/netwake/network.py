"""Random geometric network construction.

A network is built from node positions and a shared radio range R: two
nodes are linked when their distance is <= R. Construction bins points
into a cell grid (cell side >= R) so the expected cost is O(N * mean
degree) instead of O(N^2). Long-range links added later by the
smallworld module live in a separate edge class but count as ordinary
neighbors for adjacency queries and connectivity.

``Network`` is the one owner of the edge format: it is frozen, and it
derives the merged adjacency and the degrees from its edge lists once,
on construction. A network with more links is a new ``Network``
(``dataclasses.replace``), never an edited one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import BoundaryMode, pair_distances

# Forward half of the 3x3 neighborhood; with the (0,0) self pass this
# visits every unordered cell pair at most once.
_STENCIL = ((0, 1), (1, -1), (1, 0), (1, 1))

# Below this many cells per axis the wrapped stencil would revisit pairs.
_MIN_GRID_CELLS = 3

_BRUTE_CHUNK = 512


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate [s, s+c) integer ranges without a Python loop.

    Equivalent to np.concatenate([np.arange(s, s + c) for s, c in zip(starts, counts)]).
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return np.repeat(np.asarray(starts, dtype=np.int64), counts) + offsets


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
            lu, lv = self.local_edges()
            indptr, indices = _build_csr(
                self.n_nodes, np.concatenate([lu, self.long_u]), np.concatenate([lv, self.long_v])
            )
        object.__setattr__(self, "adj_indptr", indptr)
        object.__setattr__(self, "adj_indices", indices)
        object.__setattr__(self, "degrees", np.diff(indptr))

    @classmethod
    def from_edges(cls, positions, u: np.ndarray, v: np.ndarray, side: float,
                   boundary: BoundaryMode, radio_range: float) -> "Network":
        """Network over ``positions`` whose local edges are the pairs (u[k], v[k])."""
        positions = np.asarray(positions, dtype=float)
        n = positions.shape[0]
        indptr, indices = _build_csr(n, u, v)
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


def _build_csr(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR with sorted neighbor lists from an undirected edge list."""
    src = np.concatenate([u, v]).astype(np.int64, copy=False)
    dst = np.concatenate([v, u]).astype(np.int64, copy=False)
    # One sort of the key src * n + dst orders by source, then by neighbor.
    key = np.sort(src * n + dst)
    counts = np.bincount(src, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return indptr, key % n


def _candidate_pairs_grid(positions, side, radio_range, boundary, n_cells):
    """Candidate index pairs from the cell grid (before the distance test)."""
    cell_side = side / n_cells
    coords = np.minimum((positions / cell_side).astype(np.int64), n_cells - 1)
    cx, cy = coords[:, 0], coords[:, 1]
    cell_id = cx * n_cells + cy

    order = np.argsort(cell_id, kind="stable")
    counts = np.bincount(cell_id, minlength=n_cells * n_cells)
    starts = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)

    pairs_i = []
    pairs_j = []

    # Same-cell pairs: each sorted position pairs with the later ones in its cell.
    sorted_cell = cell_id[order]
    pos_in_order = np.arange(order.size, dtype=np.int64)
    cell_end = starts[sorted_cell + 1]
    intra_counts = cell_end - pos_in_order - 1
    pairs_i.append(np.repeat(order, intra_counts))
    pairs_j.append(order[concat_ranges(pos_in_order + 1, intra_counts)])

    torus = boundary is BoundaryMode.TORUS
    for dx, dy in _STENCIL:
        nx_, ny_ = cx + dx, cy + dy
        if torus:
            nx_ %= n_cells
            ny_ %= n_cells
            keep = slice(None)
        else:
            keep = (nx_ >= 0) & (nx_ < n_cells) & (ny_ >= 0) & (ny_ < n_cells)
        nbr_cell = nx_[keep] * n_cells + ny_[keep]
        src = np.arange(positions.shape[0], dtype=np.int64)[keep]
        nbr_counts = counts[nbr_cell]
        pairs_i.append(np.repeat(src, nbr_counts))
        pairs_j.append(order[concat_ranges(starts[nbr_cell], nbr_counts)])

    return np.concatenate(pairs_i), np.concatenate(pairs_j)


def _candidate_pairs_brute(n: int):
    """All index pairs i < j, chunked to bound memory."""
    for lo in range(0, n, _BRUTE_CHUNK):
        hi = min(lo + _BRUTE_CHUNK, n)
        block_i, block_j = np.meshgrid(np.arange(lo, hi), np.arange(n), indexing="ij")
        keep = block_i < block_j
        yield block_i[keep], block_j[keep]


def build_rgg(points: np.ndarray, radio_range: float, side: float, boundary: BoundaryMode) -> Network:
    """Build the random geometric network over the given positions.

    An edge (u, v) exists iff u != v and distance(u, v) <= radio_range under
    the boundary metric. Uses a cell grid with cell side >= radio_range; falls
    back to chunked brute force when the region holds fewer than 3 cells per
    axis.
    """
    positions = np.asarray(points, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {positions.shape}")
    if side <= 0:
        raise ValueError(f"region side must be positive, got {side}")
    if np.any(positions < 0) or np.any(positions >= side):
        raise ValueError("all coordinates must lie in [0, side)")
    n = positions.shape[0]

    if boundary is BoundaryMode.TORUS and radio_range > side / 2:
        warnings.warn(
            f"radio range {radio_range} exceeds half the region side {side}; "
            "torus wrap makes near and far neighbors ambiguous",
            RuntimeWarning,
            stacklevel=2,
        )

    edges_u = [np.empty(0, dtype=np.int64)]
    edges_v = [np.empty(0, dtype=np.int64)]
    if radio_range > 0 and n > 1:
        n_cells = int(side // radio_range)
        if n_cells >= _MIN_GRID_CELLS:
            cand = [_candidate_pairs_grid(positions, side, radio_range, boundary, n_cells)]
        else:
            cand = _candidate_pairs_brute(n)
        for ci, cj in cand:
            if ci.size == 0:
                continue
            d = pair_distances(positions[ci], positions[cj], side, boundary)
            keep = d <= radio_range
            edges_u.append(ci[keep])
            edges_v.append(cj[keep])

    u, v = np.concatenate(edges_u), np.concatenate(edges_v)
    return Network.from_edges(positions, u, v, side, boundary, radio_range)
