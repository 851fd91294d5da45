"""Per-message stance dynamics: persistence update, transition, delivery.

``apply_att`` is the single-message procedure used by both propagation
channels: compute the influence probability, update the receiver's stance
persistence, then its stance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    BadStanceValueError,
    InvalidSeedStanceError,
    ProbabilityOutOfRangeError,
    SameNodeError,
    UnknownSenderError,
)
from .graph import (
    KNOWN_STANCES,
    STANCE_UNKNOWN,
    SocialGraph,
    _sorted_distinct,
    is_stance,
)
from .params import SimParams

ADJACENT = "adjacent"
NONADJACENT = "nonadjacent"
#: Channel names by code: a trace's ``channel`` column holds the index.
CHANNELS = (ADJACENT, NONADJACENT)


@dataclass(frozen=True)
class PersistenceEntry:
    """Stance persistence of one (node, topic) pair.

    ``a_value`` is the current persistence in [0, 1]; ``msg_count`` the
    number of messages received so far for this pair.
    """

    a_value: float
    msg_count: int


@dataclass(frozen=True)
class StanceChange:
    """One influence attempt: receiver, topic, stances, sender, p, channel."""

    node: int
    topic: int
    old_stance: float
    new_stance: float
    source_node: int
    probability: float
    channel: str
    round: int


def _overlay_seeds_one_by_one(g: SocialGraph, profiles, j, stances) -> None:
    """Write the seed stances of topic j one at a time, checking each; the
    first bad seed raises."""
    for node, stance in stances.items():
        g.check_node(int(node))
        stance = float(stance)
        if stance not in KNOWN_STANCES:
            raise InvalidSeedStanceError(
                f"seed stance {stance!r} for node {node}, topic {j} "
                "must be 0, 0.5 or 1"
            )
        profiles[int(node), int(j)] = stance


def _overlay_topic(g: SocialGraph, profiles, j, stances) -> None:
    """Write the seed stances ``{node: stance}`` of topic j as arrays.

    Seeds that are not all distinct in-range nodes with known stances, or
    that numpy does not read as such, go through
    :func:`_overlay_seeds_one_by_one`, which raises the first bad seed's
    error in dict order.
    """
    try:
        nodes = np.fromiter(stances.keys(), dtype=np.int64, count=len(stances))
        values = np.fromiter(stances.values(), dtype=np.float64,
                             count=len(stances))
    except (TypeError, ValueError, OverflowError):
        nodes = values = None
    if (nodes is None
            or not ((nodes >= 0) & (nodes < g.n)).all()
            or not np.isin(values, KNOWN_STANCES).all()
            or _sorted_distinct(nodes).shape[0] != nodes.shape[0]):
        _overlay_seeds_one_by_one(g, profiles, j, stances)
        return
    profiles[nodes, int(j)] = values


class SimState:
    """Mutable per-run state: live profiles, persistence and memories.

    ``profiles`` / ``avals`` / ``counts`` are (n, z) arrays; ``v_adj`` is a
    (z, n) boolean mask holding, per topic, the nodes already reached
    through the adjacent channel. The spreaders are the nodes with a known
    stance (:attr:`v_new`).
    """

    def __init__(self, g: SocialGraph, params: SimParams, seeds=None):
        self.params = params
        self.profiles = g.profiles.copy()
        for j, stances in (seeds or {}).items():
            g.check_topic(int(j))
            _overlay_topic(g, self.profiles, j, stances)
        self.avals = np.full((g.n, g.z), params.initial_persistence_A0)
        self.counts = np.zeros((g.n, g.z), dtype=np.int64)
        self.v_adj = np.zeros((g.z, g.n), dtype=np.bool_)

    @property
    def v_new(self) -> np.ndarray:
        """The (z, n) spreader mask: per topic, the nodes with a known stance."""
        return (self.profiles != STANCE_UNKNOWN).T

    def persistence(self, v: int, j: int) -> PersistenceEntry:
        return PersistenceEntry(float(self.avals[v, j]), int(self.counts[v, j]))

    def active(self, j: int) -> set[int]:
        """Current spreader set V_new for topic j."""
        return set(np.flatnonzero(self.v_new[j]).tolist())


def update_persistence(state: SimState, v: int, j: int, t_u, p: float) -> float:
    """Apply one message's persistence update to receiver v on topic j.

    Increments the message counter to k and moves persistence by
    (same - |t_u - t_v|) * p / k, clamped to [0, 1]; agreeing messages
    raise it, disagreeing ones lower it. Returns the new value.
    """
    if not 0.0 <= p <= 1.0:
        raise ProbabilityOutOfRangeError(f"p = {p!r} outside [0, 1]")
    t_u = float(t_u)
    if t_u not in KNOWN_STANCES:
        raise UnknownSenderError(f"sender stance {t_u!r} must be known")
    k = int(state.counts[v, j]) + 1
    state.counts[v, j] = k
    a = kernels.persistence_update(
        float(state.avals[v, j]), k, float(state.profiles[v, j]), t_u, p
    )
    state.avals[v, j] = a
    return float(a)


def transition(t_v, t_u, p: float, a: float, epsilon_tie: str = "zero") -> float:
    """Next stance of a receiver at t_v after a message from t_u.

    Unknown or neutral receivers adopt t_u when p >= a, else turn neutral.
    Committed receivers keep their stance against agreement, and move half
    a step toward neutral when p > a; at p == a the ``epsilon_tie`` policy
    decides (default: no change).
    """
    t_v, t_u = float(t_v), float(t_u)
    for value in (t_v, t_u):
        if not is_stance(value):
            raise BadStanceValueError(f"stance {value!r} not in {{-1, 0, 0.5, 1}}")
    if t_u == STANCE_UNKNOWN:
        raise UnknownSenderError("sender stance is unknown (-1)")
    tie_eps = 1.0 if epsilon_tie == "one" else 0.0
    return float(kernels.transition(t_v, t_u, p, a, tie_eps))


def apply_att(g: SocialGraph, state: SimState, q: int, v: int, j: int,
              round_no: int, channel: str) -> StanceChange:
    """Deliver one message from sender v to receiver q on topic j.

    Computes the influence probability from the live profiles (delta picked
    by actual adjacency), updates persistence and applies the transition;
    a receiver that turns known is a spreader from then on.
    """
    g.check_node(q)
    g.check_node(v)
    g.check_topic(j)
    if q == v:
        raise SameNodeError(f"node {q} cannot influence itself")
    if state.profiles[v, j] == STANCE_UNKNOWN:
        raise UnknownSenderError(f"sender {v} has no known stance on topic {j}")
    delta = (state.params.delta_adjacent if g.has_edge(v, q)
             else state.params.delta_nonadjacent)
    old, new, p = kernels.deliver(
        state.profiles, state.avals, state.counts, q, v, j,
        delta, state.params.lambda_, state.params.mu, state.params.tie_epsilon,
    )
    return StanceChange(
        node=int(q), topic=int(j), old_stance=float(old), new_stance=float(new),
        source_node=int(v), probability=float(p), channel=channel, round=round_no,
    )
