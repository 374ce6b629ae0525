"""Node placement and distance metrics for the deployment region.

Nodes live in an L x L square. Distances are either plain Euclidean
(planar) or minimum-image Euclidean (torus, i.e. periodic boundaries).
Positions are stored as float arrays of shape (n, 2); a "point" is any
2-sequence (x, y).
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np


class BoundaryMode(Enum):
    """How distances treat the edges of the square region."""

    TORUS = "torus"
    PLANAR = "planar"


def sample_points(n: int, side: float, rng: np.random.Generator) -> np.ndarray:
    """Draw n node positions i.i.d. uniform on [0, side) x [0, side).

    Returns an array of shape (n, 2). Deterministic for a given generator state.
    """
    if n < 1:
        raise ValueError(f"need at least one point, got n={n}")
    if side <= 0:
        raise ValueError(f"region side must be positive, got {side}")
    return rng.random((n, 2)) * side


def _axis_deltas(diff: np.ndarray, side: float, boundary: BoundaryMode) -> np.ndarray:
    delta = np.abs(diff)
    if boundary is BoundaryMode.TORUS:
        delta = np.minimum(delta, side - delta)
    return delta


def pair_distances(a: np.ndarray, b: np.ndarray, side: float, boundary: BoundaryMode) -> np.ndarray:
    """Elementwise distances between rows of a and b (broadcastable (..., 2) arrays)."""
    delta = _axis_deltas(np.asarray(a, dtype=float) - np.asarray(b, dtype=float), side, boundary)
    return np.hypot(delta[..., 0], delta[..., 1])


def distance(p, q, side: float, boundary: BoundaryMode) -> float:
    """Distance between two points under the given boundary mode.

    Planar is the ordinary Euclidean distance; torus takes the per-axis
    minimum of |dx| and side - |dx| before combining, so opposite edges
    are adjacent.
    """
    px, py = float(p[0]), float(p[1])
    qx, qy = float(q[0]), float(q[1])
    dx, dy = abs(px - qx), abs(py - qy)
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


def range_for_degree(density: float, mean_degree: float) -> float:
    """Radio range that yields the requested mean degree at the given density.

    Inverse of :func:`expected_degree`; round-trips to ~1e-12 relative error.
    """
    if density <= 0:
        raise ValueError(f"density must be positive, got {density}")
    if mean_degree < 0:
        raise ValueError(f"mean degree must be nonnegative, got {mean_degree}")
    return math.sqrt(mean_degree / (density * math.pi))
