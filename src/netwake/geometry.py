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
    if not 0 < side < math.inf:
        raise ValueError(f"region side must be positive and finite, got {side}")
    return rng.random((n, 2)) * side


def axis_deltas(a, b, side: float, boundary: BoundaryMode) -> np.ndarray:
    """Elementwise per-axis distances |a - b| between broadcastable arrays of
    coordinates: on the torus, the minimum of |a - b| and side - |a - b|."""
    delta = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    if boundary is BoundaryMode.TORUS:
        delta = np.minimum(delta, side - delta)
    return delta


def pair_distances(a: np.ndarray, b: np.ndarray, side: float, boundary: BoundaryMode) -> np.ndarray:
    """Elementwise distances between rows of a and b (broadcastable (..., 2) arrays).

    Planar is the ordinary Euclidean distance; torus takes the per-axis
    minimum of |dx| and side - |dx| (``axis_deltas``) before combining, so
    opposite edges are adjacent. A distance is never below either of its
    per-axis deltas.
    """
    delta = axis_deltas(a, b, side, boundary)
    return np.hypot(delta[..., 0], delta[..., 1])
