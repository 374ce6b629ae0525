"""Communication-energy accounting for a completed cascade.

Each activated node pays one local broadcast, costing c * R**2 (one
broadcast reaches all local neighbors at once). A long-range link whose
endpoints took part in the cascade is charged once, at c * R * d for its
recorded length d: the multi-hop route costs roughly one local broadcast
per R of distance. Idle listening and computation are excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cascade import NEVER, CascadeOutcome
from .network import Network


@dataclass(frozen=True)
class EnergyModel:
    """Cost scale: coefficient c (default 1) and radio range R."""

    coefficient: float
    radio_range: float

    def __post_init__(self):
        # Written so that a NaN fails these too.
        if not 0 < self.coefficient < math.inf:
            raise ValueError(f"coefficient must be positive and finite, got {self.coefficient}")
        if not 0 < self.radio_range < math.inf:
            raise ValueError(f"radio range must be positive and finite, got {self.radio_range}")


@dataclass
class EnergyReport:
    """Energy totals for one run plus the closed-form prediction."""

    n_local_broadcasts: int
    n_long_transmissions: int
    local_energy: float
    long_energy: float
    total_energy: float
    predicted_energy: float


def local_broadcast_energy(model: EnergyModel) -> float:
    """Cost of one local broadcast: c * R**2."""
    return model.coefficient * model.radio_range**2


def long_range_energy(model: EnergyModel, d: float | np.ndarray) -> float | np.ndarray:
    """Cost of a long-range multi-hop transmission over each distance d: c * R * d."""
    d = np.asarray(d, dtype=float)
    if not np.all(d >= 0):
        raise ValueError(f"link length must be nonnegative, got {d[~(d >= 0)].flat[0]}")
    return model.coefficient * model.radio_range * d


def predicted_energy(n_nodes: int, model: EnergyModel, p_r: float, d_bar: float) -> float:
    """Closed-form total: N * c * R**2 * (1 + p_r * d_bar / R).

    Approximates a full cascade (every node broadcasts, every long link
    fires once). d_bar is ignored when p_r is 0.
    """
    if not p_r >= 0:
        raise ValueError(f"link density p_r must be nonnegative, got {p_r}")
    if p_r == 0:
        correction = 0.0
    else:
        if not d_bar >= 0:
            raise ValueError(f"mean link length must be nonnegative, got {d_bar}")
        correction = p_r * d_bar / model.radio_range
    return n_nodes * local_broadcast_energy(model) * (1.0 + correction)


def account_cascade(net: Network, outcome: CascadeOutcome, model: EnergyModel) -> EnergyReport:
    """Tally the communication energy actually spent by a run.

    m = activated nodes (each broadcasts locally exactly once, seeds
    included). A long link is charged once when at least one endpoint
    activated: the earlier endpoint transmits, and a tie still costs one
    transmission.
    """
    activated = outcome.activation_time != NEVER
    m = int(activated.sum())
    e_local = m * local_broadcast_energy(model)

    used = activated[net.long_u] | activated[net.long_v]
    n_used = int(used.sum())
    e_long = float(long_range_energy(model, net.long_length[used]).sum())
    d_bar = float(net.long_length.mean()) if net.n_long_edges else 0.0
    p_r = net.n_long_edges / net.n_nodes

    return EnergyReport(
        n_local_broadcasts=m,
        n_long_transmissions=n_used,
        local_energy=e_local,
        long_energy=e_long,
        total_energy=e_local + e_long,
        predicted_energy=predicted_energy(net.n_nodes, model, p_r, d_bar),
    )
