"""Long-range link augmentation of a geometric backbone.

Adds exactly round(p_r * N) extra links on top of the local edges (links
are added, never rewired). Three pair-selection schemes control how link
probability depends on the pair distance d:

* uniform: no restriction on d;
* powerlaw: acceptance proportional to d**(-delta), flat below one length
  unit to avoid the d -> 0 singularity. The envelope depends on units:
  the same deployment measured in other units gets a different flat
  region and a different acceptance rate;
* cutoff: uniform among pairs with d <= d_c, zero beyond.

Links are drawn by rejection: uniform node pairs, accepted by the scheme
and kept when they are neither a self-loop nor an existing edge, in draw
order. Draws come in batches that numpy filters as a whole. The first
batch holds 4 draws per link (at least _BATCH_MIN), so a scheme that
accepts most draws is done in one batch; each later batch doubles the
previous one, up to _BATCH_MAX. The stop rule counts consecutive rejected
draws across batch boundaries: MAX_ATTEMPTS_PER_LINK of them in a row
raise LinkSamplingError.

Every added link records its length under the network's own boundary
metric.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import LinkSamplingError
from .geometry import pair_distances
from .network import Network

# Consecutive rejected draws tolerated before giving up (guards schemes that
# fit no unused pair of this network).
MAX_ATTEMPTS_PER_LINK = 10_000_000

_BATCH_MIN = 256
_BATCH_MAX = 1 << 16


class SchemeKind(Enum):
    UNIFORM = "uniform"
    POWER_LAW = "powerlaw"
    CUTOFF = "cutoff"

    @classmethod
    def parse(cls, text: str) -> "SchemeKind":
        key = text.strip().lower().replace("_", "").replace("-", "")
        for kind in cls:
            if kind.value.replace("_", "") == key:
                return kind
        raise ValueError(f"unknown link scheme {text!r}; expected uniform, powerlaw or cutoff")


@dataclass(frozen=True)
class LinkScheme:
    """Long-range link recipe: density p_r plus the distance rule."""

    kind: SchemeKind
    p_r: float
    delta: float | None = None
    d_c: float | None = None

    def __post_init__(self):
        if not self.p_r >= 0:
            raise ValueError(f"link density p_r must be nonnegative, got {self.p_r}")
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


def _scheme_accepts(scheme: LinkScheme, d: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    if scheme.kind is SchemeKind.UNIFORM:
        return np.ones(d.size, dtype=bool)
    if scheme.kind is SchemeKind.CUTOFF:
        return d <= scheme.d_c
    # Power law: accept with probability d**(-delta), unconditionally below
    # one length unit (the envelope of the rejection sampler).
    prob = np.where(d < 1.0, 1.0, np.maximum(d, 1.0) ** (-scheme.delta))
    return rng.random(d.size) < prob


def _pair_keys(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Key a * n + b of each unordered node pair {a, b}, a < b."""
    return np.minimum(u, v) * n + np.maximum(u, v)


def _in_sorted(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Mask of the ``keys`` that occur in the ascending array ``sorted_keys``."""
    if sorted_keys.size == 0:
        return np.zeros(keys.size, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[pos] == keys


def add_long_range_links(net: Network, scheme: LinkScheme, rng: np.random.Generator) -> Network:
    """Return a new network with round(p_r * N) extra long-range links.

    Local edges are untouched. Self-loops and duplicates of any existing
    edge (local or long) are rejected and redrawn. A LinkSamplingError
    means the links do not fit this network: fewer unused node pairs
    remain than links are asked for, a cutoff d_c no longer than the radio
    range leaves only local pairs, or MAX_ATTEMPTS_PER_LINK consecutive
    draws were rejected (the scheme looks infeasible).
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

    # Local edges as keys src * n + dst: ascending in CSR order, and both
    # orientations are listed, so every pair key of a local edge is there.
    local_keys = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(net.local_indptr)) + net.local_indices
    taken = np.sort(_pair_keys(net.long_u, net.long_v, n))

    placed = []
    found = 0
    run = 0  # rejected draws since the last placed link, across batches
    batch = max(_BATCH_MIN, 4 * n_new)
    while True:
        us = rng.integers(0, n, batch)
        vs = rng.integers(0, n, batch)
        d = pair_distances(net.positions[us], net.positions[vs], net.side, net.boundary)
        cand = np.flatnonzero(_scheme_accepts(scheme, d, rng) & (us != vs))
        keys = _pair_keys(us[cand], vs[cand], n)
        fresh = ~(_in_sorted(taken, keys) | _in_sorted(local_keys, keys))
        cand, keys = cand[fresh], keys[fresh]
        _, first = np.unique(keys, return_index=True)
        first = np.sort(first)[: n_new - found]
        hits = cand[first]

        # Rejected draws before each placed draw, the first counting the run
        # carried over from earlier batches.
        gaps = np.diff(hits, prepend=-1 - run) - 1
        over = np.flatnonzero(gaps >= MAX_ATTEMPTS_PER_LINK)
        if over.size:
            found += int(over[0])
            break
        placed.append((us[hits], vs[hits], d[hits]))
        taken = np.sort(np.concatenate([taken, keys[first]]))
        found += hits.size
        if found == n_new:
            break
        run = batch - 1 - int(hits[-1]) if hits.size else run + batch
        if run >= MAX_ATTEMPTS_PER_LINK:
            break
        batch = max(batch, min(2 * batch, _BATCH_MAX))

    if found < n_new:
        raise LinkSamplingError(
            f"gave up after {MAX_ATTEMPTS_PER_LINK} rejected draws for one link "
            f"({found} of {n_new} placed); the {scheme.kind.value} scheme looks infeasible"
        )
    new_u, new_v, new_d = (np.concatenate(parts) for parts in zip(*placed))
    return replace(
        net,
        long_u=np.concatenate([net.long_u, new_u]),
        long_v=np.concatenate([net.long_v, new_v]),
        long_length=np.concatenate([net.long_length, new_d]),
    )
