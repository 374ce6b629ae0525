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
pairs. Candidate pairs come in batches that numpy filters as a whole: a
candidate is kept when it is no self-pair, no edge of the network
(``Network.has_edge``) and not placed earlier in the call, so each link
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

Only the binning depends on the deployment. The offsets of positive
bound, in stable ascending order of B(o), their bounds and cumulative
sum depend only on the configuration, so ``_offset_bounds`` computes
them once and keeps them read-only, keyed on (g, torus, side, R,
scheme), for one configuration at a time; a sweep over delta or d_c
replaces the entry. They are a pure function of that key, so the cached
arrays are bit-equal to fresh ones and every draw is unchanged.

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
metric, measured once, for the placed links only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterator

import numpy as np

from .errors import LinkSamplingError
from .geometry import pair_distances
from .network import CellGrid, Network, offset_tables

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


@functools.lru_cache(maxsize=1)
def _offset_bounds(g: int, torus: bool, side: float, radio_range: float,
                   scheme: LinkScheme) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only offsets of positive bound B(o), ascending in B (stably), their bounds and cumulative sum."""
    bound = scheme.weight(np.maximum(offset_tables(g, torus, side)[2], radio_range))
    # Ascending bounds keep every positive bound visible in the cumulative sum.
    keep = np.argsort(bound, kind="stable")
    offsets = keep[bound[keep] > 0]
    bound = bound[offsets]
    tables = (offsets, bound, np.cumsum(bound))
    for table in tables:
        table.flags.writeable = False
    return tables


class _CellSampler:
    """Exact cell-offset proposals for the nonincreasing pair weight of ``scheme``."""

    def __init__(self, net: Network, scheme: LinkScheme):
        self.grid = grid = CellGrid(net.positions, net.side, net.boundary, net.radio_range / 2)
        self.max_count = int(grid.counts.max())
        self.offsets, self.bound, self.cum = _offset_bounds(grid.g, grid.torus, net.side, net.radio_range,
                                                            scheme)
        if self.offsets.size == 0:
            # B(o) bounds the weight of every non-local pair at offset o.
            raise LinkSamplingError(
                f"no node pair beyond the radio range {net.radio_range:g} has positive weight"
            )
        self.net, self.weight = net, scheme.weight

    def propose(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """One batch of accepted proposals (u, v), in draw order."""
        net, grid = self.net, self.grid
        mass = rng.random(_PROPOSALS) * self.cum[-1]
        # The search runs on the masses in ascending order, several times
        # faster than on random ones, and the results go back in draw order.
        by_mass = np.argsort(mass)
        k = np.empty(_PROPOSALS, dtype=np.int64)
        k[by_mass] = np.minimum(np.searchsorted(self.cum, mass[by_mass], side="right"), self.cum.size - 1)
        u = rng.integers(0, net.n_nodes, _PROPOSALS)
        slot = rng.integers(0, self.max_count, _PROPOSALS)
        cell = grid.coords.take(u, axis=0)
        b = grid.shift(cell[:, 0], cell[:, 1], self.offsets[k])
        kept = np.flatnonzero(slot < grid.counts[b])
        u, k = u[kept], k[kept]
        v = grid.order[grid.starts[b[kept]] + slot[kept]]
        d = _distances(net, u, v)
        accept = rng.random(d.size) * self.bound[k] < self.weight(d)
        return u[accept], v[accept]

    def positive_pairs(self) -> Iterator[np.ndarray]:
        """Keys of every pair of positive weight, one cell offset at a time."""
        net = self.net
        for u, v in self.grid.pairs(self.offsets):
            d = _distances(net, u, v)
            yield _pair_keys(u, v, net.n_nodes)[self.weight(d) > 0]


def _distances(net: Network, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Metric distance of each pair (u[k], v[k])."""
    # take gathers whole rows many times faster than fancy indexing does.
    positions = net.positions
    return pair_distances(positions.take(u, axis=0), positions.take(v, axis=0), net.side, net.boundary)


def _pair_keys(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Key a * n + b of each unordered node pair {a, b}, a < b."""
    return np.minimum(u, v) * n + np.maximum(u, v)


def _place_links(net: Network, n_new: int, propose: Callable[[], tuple[np.ndarray, np.ndarray]],
                 positive_pairs: Callable[[], Iterator[np.ndarray]] | None) -> tuple[np.ndarray, np.ndarray]:
    """The first ``n_new`` free candidate pairs (u, v), in draw order.

    ``positive_pairs`` lists the pairs the scheme can place; it is counted
    once, after _STALL_BATCHES batches in a row without a new link.
    """
    n = net.n_nodes
    taken = np.empty(0, dtype=np.int64)  # keys placed in this call

    def free(keys):
        return ~(net.has_edge(*np.divmod(keys, n)) | np.isin(keys, taken))

    placed = []
    found = idle = 0
    while found < n_new:
        us, vs = propose()
        keys = _pair_keys(us, vs, n)
        cand = np.flatnonzero((us != vs) & free(keys))
        keys = keys[cand]
        _, first = np.unique(keys, return_index=True)
        first = np.sort(first)[: n_new - found]
        hits = cand[first]
        placed.append((us[hits], vs[hits]))
        taken = np.concatenate([taken, keys[first]])
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
        new_u, new_v = _place_links(net, n_new, lambda: (rng.integers(0, n, batch), rng.integers(0, n, batch)),
                                    None)
    else:
        sampler = _CellSampler(net, scheme)
        new_u, new_v = _place_links(net, n_new, lambda: sampler.propose(rng), sampler.positive_pairs)
    return replace(
        net,
        long_u=np.concatenate([net.long_u, new_u]),
        long_v=np.concatenate([net.long_v, new_v]),
        long_length=np.concatenate([net.long_length, _distances(net, new_u, new_v)]),
    )
