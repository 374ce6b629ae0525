"""Long-range link augmentation of a geometric backbone.

Adds exactly round(p_r * N) extra links on top of the local edges (links
are added, never rewired). Three pair-selection schemes give each node
pair a weight w(d) that depends on the pair distance d:

* uniform: w = 1;
* powerlaw: w = d**(-delta), flat below one length unit to avoid the
  d -> 0 singularity. The weights depend on units: the same deployment
  measured in other units gets a different flat region;
* cutoff: w = 1 for d <= d_c, 0 beyond.

Each new link is a free pair (neither a self-loop nor an existing local
or long edge) drawn with probability proportional to w(d) among the free
pairs. Candidate pairs come in batches that numpy filters as a whole:
self, local and duplicate pairs are dropped in draw order, so each link
is the first free candidate after the previous one.

Uniform candidates are uniform node pairs, 4 per link in each batch (at
least _BATCH_MIN). Power-law and cutoff candidates come from an exact
cell-offset sampler (after Bringmann, Keusch & Lengler). Nodes are
binned into a ``network.CellGrid`` with cells at least R/2 wide (capped
in number, so a tiny or zero R is safe). For each cell offset o,
dmin(o) is the least distance between points of two cells at that
offset, and B(o) = w(max(dmin(o), R)). A proposal draws o with probability
proportional to B(o), a node u uniformly, and a slot uniformly below the
largest cell count; it is kept when the cell of u shifted by o holds that
slot, whose node is v, and is then accepted with probability w(d)/B(o).
Each ordered pair (u, v) is thus accepted with probability proportional
to w(d). The R floor in B(o) needs one precondition, which every network
from ``build_rgg`` meets: every pair within R is a local edge.

Infeasibility is decided exactly, never by a count of rejected draws. A
LinkSamplingError means that:

* fewer free pairs remain than links are asked for (every scheme); for
  uniform links this is the whole rule, since every free pair can be
  drawn;
* a cutoff d_c does not exceed R, so every pair within d_c is local;
* B(o) = 0 at every cell offset, so every pair beyond R has zero weight
  (a steep power law, whose d**(-delta) underflows already at R);
* after _STALL_BATCHES batches in a row without a new link, an exact
  count of the free pairs of positive weight (R < d <= d_c for the
  cutoff) finds fewer than the links still missing. If enough remain,
  sampling goes on, and the count is never repeated, since each placed
  link uses up one counted pair. A power-law pair has positive weight
  unless d**(-delta) underflows, so for a power law that does not
  underflow this count only ever confirms the capacity check.

Every added link records its length under the network's own boundary
metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterator

import numpy as np

from .errors import LinkSamplingError
from .geometry import pair_distances
from .network import CellGrid, Network, row_keys

_BATCH_MIN = 256
# Proposals per batch of the cell-offset sampler.
_PROPOSALS = 1 << 12
# Batches in a row without a new link before the exact count of free pairs.
_STALL_BATCHES = 256


class SchemeKind(Enum):
    UNIFORM = "uniform"
    POWER_LAW = "powerlaw"
    CUTOFF = "cutoff"


@dataclass(frozen=True)
class LinkScheme:
    """Long-range link recipe: density p_r plus the distance rule."""

    kind: SchemeKind
    p_r: float
    delta: float | None = None
    d_c: float | None = None

    def __post_init__(self):
        if not 0 <= self.p_r < math.inf:
            raise ValueError(f"link density p_r must be nonnegative and finite, got {self.p_r}")
        if self.kind is SchemeKind.POWER_LAW:
            if self.delta is None or not self.delta >= 0:
                raise ValueError("powerlaw scheme needs an exponent delta >= 0")
        elif self.delta is not None:
            raise ValueError(f"delta only applies to the powerlaw scheme, not {self.kind.value}")
        if self.kind is SchemeKind.CUTOFF:
            if self.d_c is None or not self.d_c > 0:
                raise ValueError("cutoff scheme needs a cutoff distance d_c > 0")
        elif self.d_c is not None:
            raise ValueError(f"d_c only applies to the cutoff scheme, not {self.kind.value}")

    @classmethod
    def none(cls) -> "LinkScheme":
        return cls(SchemeKind.UNIFORM, 0.0)

    @classmethod
    def uniform(cls, p_r: float) -> "LinkScheme":
        return cls(SchemeKind.UNIFORM, p_r)

    @classmethod
    def power_law(cls, p_r: float, delta: float) -> "LinkScheme":
        return cls(SchemeKind.POWER_LAW, p_r, delta=delta)

    @classmethod
    def cutoff(cls, p_r: float, d_c: float) -> "LinkScheme":
        return cls(SchemeKind.CUTOFF, p_r, d_c=d_c)

    def weight(self, d: np.ndarray) -> np.ndarray:
        """Pair weight w(d), nonincreasing in d."""
        if self.kind is SchemeKind.CUTOFF:
            return (d <= self.d_c).astype(float)
        if self.kind is SchemeKind.POWER_LAW:
            return np.maximum(d, 1.0) ** -self.delta
        return np.ones(np.shape(d))


_Candidates = tuple[np.ndarray, np.ndarray, np.ndarray]  # u, v, distance, in draw order


class _CellSampler:
    """Exact cell-offset proposals for a nonincreasing pair weight."""

    def __init__(self, net: Network, weight: Callable[[np.ndarray], np.ndarray]):
        self.grid = grid = CellGrid(net.positions, net.side, net.boundary, net.radio_range / 2)
        self.max_count = int(grid.counts.max())
        bound = weight(np.maximum(grid.dmin, net.radio_range))
        # Ascending bounds keep every positive bound visible in the cumulative sum.
        keep = np.argsort(bound, kind="stable")
        self.offsets = keep[bound[keep] > 0]
        if self.offsets.size == 0:
            # B(o) bounds the weight of every non-local pair at offset o.
            raise LinkSamplingError(
                f"no node pair beyond the radio range {net.radio_range:g} has positive weight"
            )
        self.bound = bound[self.offsets]
        self.cum = np.cumsum(self.bound)
        self.net, self.weight = net, weight

    def propose(self, rng: np.random.Generator) -> _Candidates:
        """One batch of accepted proposals."""
        net, grid = self.net, self.grid
        k = np.searchsorted(self.cum, rng.random(_PROPOSALS) * self.cum[-1], side="right")
        k = np.minimum(k, self.cum.size - 1)
        u = rng.integers(0, net.n_nodes, _PROPOSALS)
        slot = rng.integers(0, self.max_count, _PROPOSALS)
        b, inside = grid.shift(grid.coords[u, 0], grid.coords[u, 1], self.offsets[k])
        kept = np.flatnonzero(inside & (slot < grid.counts[b]))
        u, k = u[kept], k[kept]
        v = grid.order[grid.starts[b[kept]] + slot[kept]]
        d = pair_distances(net.positions[u], net.positions[v], net.side, net.boundary)
        accept = rng.random(d.size) * self.bound[k] < self.weight(d)
        return u[accept], v[accept], d[accept]

    def positive_pairs(self) -> Iterator[np.ndarray]:
        """Keys of every pair of positive weight, one cell offset at a time."""
        net = self.net
        for u, v in self.grid.pairs(self.offsets):
            d = pair_distances(net.positions[u], net.positions[v], net.side, net.boundary)
            yield _pair_keys(u, v, net.n_nodes)[self.weight(d) > 0]


def _pair_keys(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Key a * n + b of each unordered node pair {a, b}, a < b."""
    return np.minimum(u, v) * n + np.maximum(u, v)


def _in_sorted(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Mask of the ``keys`` that occur in the ascending array ``sorted_keys``."""
    if sorted_keys.size == 0:
        return np.zeros(keys.size, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[pos] == keys


def _place_links(net: Network, n_new: int, propose: Callable[[], _Candidates],
                 positive_pairs: Callable[[], Iterator[np.ndarray]] | None) -> _Candidates:
    """The first ``n_new`` free candidate pairs, in draw order.

    ``positive_pairs`` lists the pairs the scheme can place; it is counted
    once, after _STALL_BATCHES batches in a row without a new link.
    """
    n = net.n_nodes
    # Local edges as keys src * n + dst: ascending in CSR order, and both
    # orientations are listed, so every pair key of a local edge is there.
    local_keys = row_keys(net.local_indptr, net.local_indices)
    taken = np.sort(_pair_keys(net.long_u, net.long_v, n))

    def free(keys):
        return ~(_in_sorted(taken, keys) | _in_sorted(local_keys, keys))

    placed = []
    found = idle = 0
    while found < n_new:
        us, vs, d = propose()
        keys = _pair_keys(us, vs, n)
        cand = np.flatnonzero((us != vs) & free(keys))
        keys = keys[cand]
        _, first = np.unique(keys, return_index=True)
        first = np.sort(first)[: n_new - found]
        hits = cand[first]
        placed.append((us[hits], vs[hits], d[hits]))
        taken = np.sort(np.concatenate([taken, keys[first]]))
        found += hits.size
        idle = 0 if hits.size else idle + 1
        if idle == _STALL_BATCHES and positive_pairs is not None:
            left = sum(int(np.count_nonzero(free(chunk))) for chunk in positive_pairs())
            if left < n_new - found:
                raise LinkSamplingError(
                    f"cannot add {n_new} links: {found} placed and only {left} "
                    "more free node pairs have positive weight"
                )
            positive_pairs = None
    return tuple(np.concatenate(parts) for parts in zip(*placed))


def add_long_range_links(net: Network, scheme: LinkScheme, rng: np.random.Generator) -> Network:
    """Return a new network with round(p_r * N) extra long-range links.

    Local edges are untouched. Self-loops and duplicates of any existing
    edge (local or long) are never placed. Power-law and cutoff links
    assume that every pair within the radio range is a local edge, as in
    any network from ``build_rgg``. A LinkSamplingError means the links do
    not fit this network: fewer free node pairs remain than links are asked
    for, a cutoff d_c no longer than the radio range leaves only local
    pairs, no pair beyond the radio range has positive weight, or an exact
    count finds too few free pairs of positive weight.
    """
    n = net.n_nodes
    n_new = int(round(scheme.p_r * n))
    if n_new == 0:
        return net

    capacity = n * (n - 1) // 2 - net.n_local_edges - net.n_long_edges
    if n_new > capacity:
        raise LinkSamplingError(
            f"cannot add {n_new} links: only {capacity} unused node pairs remain"
        )
    if scheme.kind is SchemeKind.CUTOFF and scheme.d_c <= net.radio_range:
        raise LinkSamplingError(
            f"cutoff d_c = {scheme.d_c:g} does not exceed the radio range {net.radio_range:g}: "
            "every pair within d_c is already a local edge"
        )

    if scheme.kind is SchemeKind.UNIFORM:
        batch = max(_BATCH_MIN, 4 * n_new)

        def propose():
            us = rng.integers(0, n, batch)
            vs = rng.integers(0, n, batch)
            return us, vs, pair_distances(net.positions[us], net.positions[vs], net.side, net.boundary)

        new_u, new_v, new_d = _place_links(net, n_new, propose, None)
    else:
        sampler = _CellSampler(net, scheme.weight)
        new_u, new_v, new_d = _place_links(net, n_new, lambda: sampler.propose(rng), sampler.positive_pairs)
    return replace(
        net,
        long_u=np.concatenate([net.long_u, new_u]),
        long_v=np.concatenate([net.long_v, new_v]),
        long_length=np.concatenate([net.long_length, new_d]),
    )
