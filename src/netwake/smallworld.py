"""Long-range link augmentation of a geometric backbone.

Adds exactly round(p_r * N) extra links on top of the local edges (links
are added, never rewired). Three pair-selection schemes control how link
probability depends on the pair distance d:

* uniform: no restriction on d;
* powerlaw: acceptance proportional to d**(-delta), flat below one length
  unit to avoid the d -> 0 singularity;
* cutoff: uniform among pairs with d <= d_c, zero beyond.

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

# Rejections tolerated per link before giving up (guards infeasible cutoffs).
MAX_ATTEMPTS_PER_LINK = 1_000_000

_BATCH_MIN = 256


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


def add_long_range_links(net: Network, scheme: LinkScheme, rng: np.random.Generator) -> Network:
    """Return a new network with round(p_r * N) extra long-range links.

    Local edges are untouched. Self-loops and duplicates of any existing
    edge (local or long) are rejected and redrawn. A LinkSamplingError
    means the links do not fit this network: fewer unused node pairs
    remain than links are asked for, or MAX_ATTEMPTS_PER_LINK consecutive
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

    taken = {(int(a), int(b)) for a, b in zip(net.long_u, net.long_v)}
    taken |= {(b, a) for a, b in taken}

    new_u = np.empty(n_new, dtype=np.int64)
    new_v = np.empty(n_new, dtype=np.int64)
    new_d = np.empty(n_new, dtype=float)
    found = 0
    attempts = 0

    while found < n_new:
        batch = max(_BATCH_MIN, 4 * (n_new - found))
        us = rng.integers(0, n, batch)
        vs = rng.integers(0, n, batch)
        d = pair_distances(net.positions[us], net.positions[vs], net.side, net.boundary)
        ok = _scheme_accepts(scheme, d, rng) & (us != vs)
        for k in range(batch):
            attempts += 1
            if attempts > MAX_ATTEMPTS_PER_LINK:
                raise LinkSamplingError(
                    f"gave up after {MAX_ATTEMPTS_PER_LINK} rejected draws for one link "
                    f"({found} of {n_new} placed); the {scheme.kind.value} scheme looks infeasible"
                )
            if not ok[k]:
                continue
            u, v = int(us[k]), int(vs[k])
            if (u, v) in taken:
                continue
            local = net.local_neighbors(u)
            pos = np.searchsorted(local, v)
            if pos < local.size and local[pos] == v:
                continue
            taken.add((u, v))
            taken.add((v, u))
            new_u[found] = u
            new_v[found] = v
            new_d[found] = d[k]
            found += 1
            attempts = 0
            if found == n_new:
                break

    return replace(
        net,
        long_u=np.concatenate([net.long_u, new_u]),
        long_v=np.concatenate([net.long_v, new_v]),
        long_length=np.concatenate([net.long_length, new_d]),
    )
