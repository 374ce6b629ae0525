"""Threshold-controlled activation dynamics.

Nodes are binary (inactive/active) and activation is permanent. An
inactive node turns active when the fraction of its active neighbors
reaches the threshold phi; it also needs at least one active neighbor,
so an untouched node never self-ignites (at phi=0 the rule degenerates
to plain flooding). Neighbors means all neighbors, local and long-range
alike.

Two schedules are supported. Synchronous: every node evaluates against
the previous step's active set and all activations land at once.
Asynchronous: one time step is a full sweep over the nodes in a fresh
random order, with activations visible immediately within the sweep:
each node draws a uniform key, ``rng.random(n)``, and the sweep visits
the nodes by ascending ``(key, node id)``. Ties go to the lower id, so
a sweep is always node-by-node; they have chance at most n**2 * 2**-54
per step, and apart from them the order is a uniform permutation. One
routine, ``_step``, runs every step of both as key-ordered rounds. The
candidates are the inactive nodes with an active neighbor; each round
activates those that pass on what they can see, and passes each new
activation on only to inactive neighbors later in the order. A visit
sees exactly the activations before it and counts only grow, so the
rounds match a node-by-node sweep. A synchronous step sees nothing
within the step: it is the first round.

``CascadeState.activation_time`` is the one activation record: the step
at which each node turned on, NEVER while it is off. The active set and
the outcome's time are read from it, not kept beside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import SeedingError
from .network import Network

NEVER = -1  # activation_time value for nodes that never turned on


class Schedule(Enum):
    SYNCHRONOUS = "synchronous"
    ASYNCHRONOUS = "asynchronous"


class SeedRule(Enum):
    SINGLE = "single"
    TRIPLE = "triple"
    EXPLICIT = "explicit"


def is_integer(value) -> bool:
    """Whether ``value`` is an int or a numpy integer; a bool is neither here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class SeedSpec:
    """Which nodes get switched on at t=0; explicit ids are integers (numpy ones included)."""

    rule: SeedRule
    nodes: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rule is SeedRule.EXPLICIT and not self.nodes:
            raise ValueError("explicit seed spec needs at least one node id")
        if self.rule is not SeedRule.EXPLICIT and self.nodes:
            raise ValueError(f"{self.rule.value} seed spec takes no node ids")
        for v in self.nodes:
            if not is_integer(v):
                raise ValueError(f"seed node ids must be integers, got {v!r}")
        object.__setattr__(self, "nodes", tuple(int(v) for v in self.nodes))

    @classmethod
    def single(cls) -> "SeedSpec":
        return cls(SeedRule.SINGLE)

    @classmethod
    def triple(cls) -> "SeedSpec":
        return cls(SeedRule.TRIPLE)

    @classmethod
    def explicit(cls, nodes) -> "SeedSpec":
        return cls(SeedRule.EXPLICIT, tuple(nodes))


@dataclass(frozen=True)
class CascadeParams:
    """Threshold, schedule, seeding and stopping rules for one run."""

    phi: float
    schedule: Schedule = Schedule.SYNCHRONOUS
    seed_spec: SeedSpec = field(default_factory=SeedSpec.single)
    cutoff_fraction: float = 0.85
    max_steps: int | None = None  # None resolves to 10 * n_nodes at run time

    def __post_init__(self):
        if not 0.0 <= self.phi <= 1.0:
            raise ValueError(f"threshold phi must be in [0, 1], got {self.phi}")
        if not 0.0 < self.cutoff_fraction <= 1.0:
            raise ValueError(f"cutoff fraction must be in (0, 1], got {self.cutoff_fraction}")
        if self.max_steps is not None and not (is_integer(self.max_steps) and self.max_steps >= 1):
            raise ValueError(f"max_steps must be an integer >= 1, got {self.max_steps!r}")


@dataclass
class CascadeState:
    """Activation state after t whole steps.

    ``activation_time[i]`` is the step at which node i turned active, NEVER
    while it is inactive. ``active_neighbor_counts[i]`` caches the number
    of active neighbors of node i for the full active set; the step
    functions keep it in sync.
    """

    activation_time: np.ndarray
    t: int
    newly_activated: np.ndarray
    active_neighbor_counts: np.ndarray

    @property
    def active(self) -> np.ndarray:
        return self.activation_time != NEVER


@dataclass
class CascadeOutcome:
    """Result of a completed run."""

    final_fraction: float
    time: int
    is_global: bool
    stalled: bool
    activation_time: np.ndarray  # per-node step index, NEVER if still inactive
    seed: np.ndarray

    def active_at(self, t: int) -> np.ndarray:
        """Boolean active mask as of step t (seeds are active at t=0)."""
        return (self.activation_time != NEVER) & (self.activation_time <= t)


def draw_single_seed(n_nodes: int, rng: np.random.Generator) -> int:
    """The single seed rule's one draw: a uniform node id in [0, n_nodes)."""
    return int(rng.integers(0, n_nodes))


def meets_threshold(visible, degrees, phi: float) -> np.ndarray:
    """The threshold test of nodes that see ``visible`` active neighbors
    among ``degrees``: visible / degree >= phi."""
    return visible / degrees >= phi


def select_seed(net: Network, spec: SeedSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw the initially active node set.

    single: one uniform node. triple: a uniform node with degree >= 2 plus
    two distinct uniform neighbors of it. explicit: the given ids, validated.
    """
    n = net.n_nodes
    if spec.rule is SeedRule.SINGLE:
        return np.array([draw_single_seed(n, rng)], dtype=np.int64)
    if spec.rule is SeedRule.EXPLICIT:
        nodes = np.unique(np.asarray(spec.nodes, dtype=np.int64))
        if nodes.size and (nodes[0] < 0 or nodes[-1] >= n):
            raise ValueError(f"explicit seed ids must be in [0, {n}), got {spec.nodes}")
        return nodes
    # Connected triple: a hub drawn uniformly over the degree->=2 nodes,
    # plus two of its neighbors.
    eligible = np.flatnonzero(net.degrees >= 2)
    if eligible.size == 0:
        raise SeedingError("no node has degree >= 2; cannot seed a connected triple")
    hub = int(rng.choice(eligible))
    nbrs = net.neighbors(hub)
    pair = rng.choice(nbrs, size=2, replace=False)
    return np.unique(np.array([hub, int(pair[0]), int(pair[1])], dtype=np.int64))


def initial_state(net: Network, seeds: np.ndarray) -> CascadeState:
    """State at t=0 with the seed set switched on."""
    activation_time = np.full(net.n_nodes, NEVER, dtype=np.int64)
    activation_time[seeds] = 0
    reached = net.neighbors(seeds)
    return CascadeState(
        activation_time=activation_time,
        t=0,
        newly_activated=np.asarray(seeds, dtype=np.int64),
        active_neighbor_counts=np.bincount(reached, minlength=net.n_nodes),
    )


def _step(net: Network, state: CascadeState, phi: float, key: np.ndarray | None) -> CascadeState:
    """One time step in key-ordered rounds (see the module docstring).

    ``visible`` counts the active neighbors a node sees when it decides:
    the pre-step ones plus the step's activations that come before it in
    ``(key, node id)`` order. With ``key=None`` nothing is seen within the
    step: one round is the step, and ``visible`` is the pre-step count
    itself, never written. Each round's neighbor lists are gathered once
    and give both the next round's candidates and the end-of-step counts.
    """
    t = state.t + 1
    activation_time = state.activation_time.copy()
    counts = state.active_neighbor_counts
    visible = counts if key is None else counts.copy()
    candidates = np.flatnonzero((visible > 0) & (activation_time == NEVER))
    none = np.empty(0, dtype=np.int64)
    rounds, reached = [none], [none]
    stamp = None if key is None else np.empty(net.n_nodes, dtype=np.int64)
    while candidates.size:
        newly = candidates[meets_threshold(visible[candidates], net.degrees[candidates], phi)]
        if newly.size == 0:
            break
        activation_time[newly] = t
        targets = net.neighbors(newly)
        rounds.append(newly)
        reached.append(targets)
        if key is None:
            break
        source = np.repeat(newly, net.degrees[newly])
        source_key, target_key = key[source], key[targets]
        after = (target_key > source_key) | ((target_key == source_key) & (targets > source))
        later = targets[after & (activation_time[targets] == NEVER)]
        # Each occurrence in ``later`` is one hit. Whichever write to a node's
        # ``stamp`` lands names one of its positions, so each distinct node
        # is kept once as a candidate; no later step depends on their order.
        np.add.at(visible, later, 1)
        position = np.arange(later.size)
        stamp[later] = position
        candidates = later[stamp[later] == position]
    counts = counts + np.bincount(np.concatenate(reached), minlength=net.n_nodes)
    return CascadeState(activation_time=activation_time, t=t, newly_activated=np.sort(np.concatenate(rounds)),
                        active_neighbor_counts=counts)


def step_synchronous(net: Network, state: CascadeState, phi: float) -> CascadeState:
    """One simultaneous update: all evaluations see the previous active set.

    The single-round case of ``_step``. Only the neighbors of the previous
    step's activations can newly pass: on every state reached from
    ``initial_state``, any other inactive node has the count it already
    failed on at an earlier step. So testing every inactive node with an
    active neighbor activates the same nodes, without relying on
    ``newly_activated``.
    """
    return _step(net, state, phi, None)


def step_asynchronous(net: Network, state: CascadeState, phi: float, rng: np.random.Generator) -> CascadeState:
    """One full sweep in a fresh random node order, updates visible immediately.

    Draws one key per node, ``rng.random(n)``, and is the same as visiting
    the nodes one at a time by ascending ``(key, node id)``: tied keys
    (chance at most n**2 * 2**-54) go to the lower id. ``_step`` runs the
    sweep as key-ordered rounds.
    """
    return _step(net, state, phi, rng.random(net.n_nodes))


def run_cascade(net: Network, params: CascadeParams, rng: np.random.Generator) -> CascadeOutcome:
    """Seed the network at t=0 and step until the cascade stops growing.

    Stops at the first step with no new activation (or when every node is
    active); the reported time is the last step that activated anything.
    Runs that exhaust the step budget while still growing are flagged
    stalled.
    """
    n = net.n_nodes
    max_steps = params.max_steps if params.max_steps is not None else 10 * n
    seeds = select_seed(net, params.seed_spec, rng)

    state = initial_state(net, seeds)
    n_active = seeds.size  # select_seed returns distinct ids
    while state.t < max_steps:
        if params.schedule is Schedule.SYNCHRONOUS:
            state = step_synchronous(net, state, params.phi)
        else:
            state = step_asynchronous(net, state, params.phi, rng)
        n_active += state.newly_activated.size
        if state.newly_activated.size == 0 or n_active == n:
            break

    final_fraction = n_active / n
    return CascadeOutcome(
        final_fraction=final_fraction,
        time=int(state.activation_time.max()),
        is_global=final_fraction >= params.cutoff_fraction,
        # The budget ran out on a step that still activated nodes.
        stalled=bool(state.newly_activated.size) and n_active < n,
        activation_time=state.activation_time,
        seed=seeds,
    )
