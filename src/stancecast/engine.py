"""The round-based propagation loop over both influence channels.

Protocol (identical, by construction, to the naive reference used in the
acceptance suite):

* Profiles start from the graph and are overlaid with the seed stances;
  every node with a known stance is a spreader from round one.
* Each round processes topics in ascending order. Per topic, the spreader
  set is snapshotted first (nodes activated mid-round spread next round),
  the adjacency memory is cleared when ``adjacency_memory == "per_round"``,
  then the adjacent sweep runs, then the non-adjacent sweep.
* Adjacent sweep: spreaders in ascending order message their out-neighbors
  (ascending) that are not yet in the adjacency memory; each delivered
  receiver enters the memory.
* Non-adjacent sweep: the receiver pool is everything outside the adjacency
  memory. Senders are sampled from the snapshot (floor(r1 * size)); the
  receiver sample of size floor(r2 * pool) splits into floor(mix_r * s)
  topic-aware nodes and the rest topic-unaware, backfilling from the other
  pool on shortfall (aware overflow resolved first). Draws happen in the
  order senders, aware, unaware; zero-count draws consume no rng state.
  Every sampled receiver hears every sampled sender (ascending, self-pairs
  skipped), with the edge-dependent delta.

Randomness enters only through the sampling; message delivery itself is
deterministic. A run is fully determined by (graph, params, seeds,
run_index).

Per (round, topic), the adjacent sweep scans only the frontier's
out-edges, and the spreader set and summaries cost what changed, not n
(the non-adjacent receiver sample still counts the adjacency memory, and
builds its pools only when it samples anyone):

* Frontier sweeps. With ``adjacency_memory == "persistent"`` the adjacent
  sweep is handed only the frontier: the spreaders activated since the
  topic's previous sweep (in round one, every initial spreader). This is
  exact. When a sweep ends, every receiver on a swept spreader's out-edges
  is in the adjacency memory, and a persistent memory never shrinks, so a
  spreader that was swept before can never deliver again. Dropping it
  leaves the messages, their order and their dependency levels as they
  are. ``per_round`` clears the memory, so there every spreader is swept
  every round.
* The spreader set of each topic is a sorted array into which each
  round's activations are merged; the frontier is what was merged last.
* The :class:`RoundSummary` rows come from one count over the finished
  event columns (:func:`_round_summaries`), the same function that replays
  a loaded trace's summaries.

One sink holds a run's events: the eight event columns and the count of
rows written. Before each kernel call the engine reserves the pass's rows:
the swept spreaders' out-degree sum for the adjacent pass, and exactly
|R|·|S| − |R∩S| for the non-adjacent pass (each receiver hears every sender
but itself). Columns that lack room grow in place (``ndarray.resize``) by a
quarter at least, so that a run holds little more than its final columns.
The kernel writes its events in place, the engine tags them with their
round, topic and channel, and the columns are cut to the count at the end.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .dynamics import ADJACENT, CHANNELS, NONADJACENT, SimState, StanceChange
from .errors import EmptySeedsWarning
from .graph import STANCE_UNKNOWN, STANCE_VALUES, SocialGraph
from .params import SimParams
from .rng import Rng

_EVENT_DTYPES = {"round": np.int32, "topic": np.int32, "node": np.int64,
                 "old": np.float64, "new": np.float64, "source": np.int64,
                 "p": np.float64, "channel": np.int8}
_ADJACENT_CODE, _NONADJACENT_CODE = map(CHANNELS.index, (ADJACENT, NONADJACENT))


@dataclass(frozen=True)
class RoundSummary:
    """Stance-class tallies for one topic at the end of one round."""

    round: int
    topic: int
    unknown: int
    oppose: int
    neutral: int
    support: int
    newly_activated: int


class SimTrace:
    """Ordered event log of a run plus per-round, per-topic summaries.

    Events are stored columnar (one numpy array per field) so large runs
    stay cheap; ``events`` builds :class:`StanceChange` records from them.
    """

    def __init__(self, n: int, z: int, params: SimParams, columns: dict,
                 round_summaries: list[RoundSummary]):
        self.n = n
        self.z = z
        self.params = params
        self.ev_round = columns["round"]
        self.ev_topic = columns["topic"]
        self.ev_node = columns["node"]
        self.ev_old = columns["old"]
        self.ev_new = columns["new"]
        self.ev_source = columns["source"]
        self.ev_p = columns["p"]
        self.ev_channel = columns["channel"]
        self.round_summaries = list(round_summaries)

    @property
    def events(self) -> list[StanceChange]:
        """The events as records, in trace order."""
        return list(map(
            StanceChange, self.ev_node.tolist(), self.ev_topic.tolist(),
            self.ev_old.tolist(), self.ev_new.tolist(), self.ev_source.tolist(),
            self.ev_p.tolist(), [CHANNELS[c] for c in self.ev_channel.tolist()],
            self.ev_round.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimTrace):
            return NotImplemented
        return (
            self.n == other.n
            and self.z == other.z
            and self.params == other.params
            and self.round_summaries == other.round_summaries
            and all(
                np.array_equal(getattr(self, f"ev_{c}"), getattr(other, f"ev_{c}"))
                for c in _EVENT_DTYPES
            )
        )

    def __repr__(self) -> str:
        return (f"SimTrace(n={self.n}, z={self.z}, events={self.ev_node.shape[0]}, "
                f"rounds={self.params.rounds_K})")


def _floor_count(fraction: float, size: int) -> int:
    return int(math.floor(fraction * size))


def _nadj_receivers(state: SimState, j: int, rng: Rng):
    """Sample the non-adjacent receiver set per the documented quotas."""
    p = state.params
    row = state.v_adj[j]
    s = _floor_count(p.r2, row.shape[0] - np.count_nonzero(row))
    if s:
        non_adj = np.flatnonzero(~row).astype(np.int64)
        column = state.profiles[non_adj, j]
        aware = non_adj[column != STANCE_UNKNOWN]
        unaware = non_adj[column == STANCE_UNKNOWN]
    else:  # floor(r2 * pool) is 0, so no pool is needed
        aware = unaware = np.empty(0, dtype=np.int64)
    quota_aware = _floor_count(p.mix_r, s)
    quota_unaware = s - quota_aware
    if quota_aware > aware.shape[0]:
        quota_unaware += quota_aware - aware.shape[0]
        quota_aware = aware.shape[0]
    if quota_unaware > unaware.shape[0]:
        quota_aware += quota_unaware - unaware.shape[0]
        quota_unaware = unaware.shape[0]
    picked = np.concatenate([
        rng.sample(aware, quota_aware), rng.sample(unaware, quota_unaware)
    ])
    picked.sort()
    return picked


def _write_pass(columns: dict, count: int, rows: int, tags: tuple, kernel,
                *args) -> tuple[int, np.ndarray]:
    """Reserve ``rows`` rows of the sink from ``count``, run ``kernel(*args,
    node, source, old, new, p)`` on them and tag its events with ``tags``;
    returns the new count and the nodes the pass activated.

    The columns grow in place with ``refcheck=False``: its reference count
    check also counts the references a tracer or profiler holds, and would
    refuse the growth under one. No view can dangle, as every view of a
    column is a kernel argument or a slice built here, all of them dropped
    before this returns (the activated nodes are a copy)."""
    size = columns["node"].shape[0]
    if count + rows > size:
        for name in _EVENT_DTYPES:
            columns[name].resize(max(count + rows, size + size // 4),
                                 refcheck=False)
    end = count + kernel(*args, *(columns[name][count:count + rows]
                                  for name in ("node", "source", "old", "new", "p")))
    for name, tag in zip(("round", "topic", "channel"), tags):
        columns[name][count:end] = tag
    old, new = columns["old"][count:end], columns["new"][count:end]
    return end, columns["node"][count:end][(old == STANCE_UNKNOWN)
                                           & (new != STANCE_UNKNOWN)]


def _round_summaries(initial: np.ndarray, rounds_K: int, ev_round, ev_topic,
                     ev_old, ev_new) -> list[RoundSummary]:
    """The summary of each (round, topic), rounds 0 to ``rounds_K`` and
    topics ascending: the stance tallies once the events up to that round
    have been applied to the (n, z) ``initial`` profiles, and the count of
    the round's activations."""
    z = initial.shape[1]
    codes = np.asarray(STANCE_VALUES)  # ascending: searchsorted gives the code
    rounds = rounds_K + 1
    changed = np.flatnonzero(ev_old != ev_new)
    old, new = ev_old[changed], ev_new[changed]
    cell = ev_round[changed].astype(np.int64) * z + ev_topic[changed]
    # a change moves one count from its (round, topic, old code) key to its
    # (round, topic, new code) key
    into, out_of = (
        np.bincount(cell * len(codes) + np.searchsorted(codes, stances),
                    minlength=rounds * z * len(codes))
        for stances in (new, old))
    tallies = (into - out_of).reshape(rounds, z, len(codes))
    tallies[0] += np.count_nonzero(initial[:, :, None] == codes, axis=0)
    tallies = np.cumsum(tallies, axis=0).tolist()
    activated = np.bincount(cell[old == STANCE_UNKNOWN],
                            minlength=rounds * z).reshape(rounds, z).tolist()
    return [RoundSummary(rnd, j, *tallies[rnd][j], activated[rnd][j])
            for rnd in range(rounds) for j in range(z)]


def run_simulation(g: SocialGraph, params: SimParams, seeds=None,
                   run_index: int = 0) -> tuple[SimTrace, SimState]:
    """Run the full cascade; returns the trace and the final state."""
    state = SimState(g, params, seeds)
    initial = state.profiles.copy()
    rng = Rng(params.normalized_seed(), run_index)
    columns = {name: np.empty(0, dtype) for name, dtype in _EVENT_DTYPES.items()}
    count = 0  # the sink's rows written (see the module docstring)
    # per topic: the sorted spreader set and the nodes activated since the
    # topic's last sweep (sorted; at first, the initial spreaders)
    spreaders = [np.empty(0, dtype=np.int64)] * g.z
    frontier = [np.flatnonzero(row) for row in state.v_new]
    if g.z and not state.v_new.any():
        warnings.warn("no seed stances: the run will produce no events",
                      EmptySeedsWarning, stacklevel=2)
    persistent = params.adjacency_memory == "persistent"
    for rnd in range(1, params.rounds_K + 1):
        for j in range(g.z):
            if frontier[j].shape[0]:
                spreaders[j] = np.sort(np.concatenate([spreaders[j], frontier[j]]))
            if not persistent:
                state.v_adj[j, :] = False
            # exact in persistent memory: see the module docstring
            swept = frontier[j] if persistent else spreaders[j]
            count, adjacent = _write_pass(
                columns, count,
                int((g.indptr[swept + 1] - g.indptr[swept]).sum()),
                (rnd, j, _ADJACENT_CODE), kernels.adjacent_pass,
                g.indptr, g.indices, state.profiles, state.avals,
                state.counts, state.v_adj[j], swept, j,
                params.delta_adjacent, params.lambda_, params.mu,
                params.tie_epsilon,
            )
            senders = rng.sample(spreaders[j],
                                 _floor_count(params.r1, spreaders[j].shape[0]))
            receivers = _nadj_receivers(state, j, rng)
            overlap = np.intersect1d(receivers, senders, assume_unique=True)
            count, nonadjacent = _write_pass(
                columns, count,
                receivers.shape[0] * senders.shape[0] - overlap.shape[0],
                (rnd, j, _NONADJACENT_CODE), kernels.nadj_pass,
                g.in_indptr, g.in_indices, state.profiles, state.avals,
                state.counts, receivers, senders, j,
                params.delta_adjacent, params.delta_nonadjacent,
                params.lambda_, params.mu, params.tie_epsilon,
            )
            frontier[j] = np.sort(np.concatenate([adjacent, nonadjacent]))
    for name in _EVENT_DTYPES:  # no view is alive: see _write_pass
        columns[name].resize(count, refcheck=False)
    summaries = _round_summaries(initial, params.rounds_K, columns["round"],
                                 columns["topic"], columns["old"], columns["new"])
    return SimTrace(g.n, g.z, params, columns, summaries), state

