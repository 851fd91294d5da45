"""Trace evaluation: replay, per-round curves, accuracy against truth."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import astuple, dataclass
from itertools import chain

import numpy as np

from .engine import SimTrace, _round_summaries
from .errors import (InconsistentIdsError, MissingTruthEntryError,
                     SummaryMismatchError, _raise_first)
from .graph import STANCE_UNKNOWN, STANCE_VALUES
from .io_formats import GroundTruth, _atomic_write


@dataclass(frozen=True)
class CurvePoint:
    """Stance-class tallies of one topic at the end of one round."""

    round: int
    topic: int
    counts: dict
    cumulative_known: int


def _replay(initial_profiles, trace: SimTrace):
    """The checked replay: an event's old stance must equal the new stance
    of its (node, topic) pair's previous event, found by a stable sort on
    the pair, or the initial stance; the first that does not, in trace
    order, raises :class:`InconsistentIdsError`. Then the header must hold
    one ``round_summaries`` row per (round, topic), rounds 0 to
    ``rounds_K``, counted before anything is tallied, and each row must
    equal the tallies of the replay; :class:`SummaryMismatchError` names the
    row count or the first row that does not. Returns the final state and
    the replayed round summaries."""
    profiles = np.asarray(initial_profiles, dtype=np.float64)
    if profiles.shape != (trace.n, trace.z):
        raise InconsistentIdsError(
            f"initial state shape {profiles.shape} does not match trace "
            f"({trace.n} nodes, {trace.z} topics)"
        )
    start = profiles.reshape(-1)
    key = trace.ev_node.astype(np.int64) * trace.z + trace.ev_topic
    order = np.argsort(key, kind="stable")
    key, new = key[order], trace.ev_new[order]
    first = np.diff(key, prepend=-1) != 0
    before = np.where(first, start[key], np.roll(new, 1))
    bad = np.flatnonzero(before != trace.ev_old[order])
    if bad.shape[0]:
        at = bad[np.argmin(order[bad])]
        i = int(order[at])
        raise InconsistentIdsError(
            f"event {i}: expected stance {trace.ev_old[i]} at node "
            f"{trace.ev_node[i]}, topic {trace.ev_topic[i]}, found "
            f"{before[at]}; trace does not replay over this initial state"
        )
    last = np.diff(key, append=-1) != 0
    final = start.copy()
    final[key[last]] = new[last]
    rows = (trace.params.rounds_K + 1) * trace.z
    if len(trace.round_summaries) != rows:
        raise SummaryMismatchError(
            f"round_summaries has {len(trace.round_summaries)} rows, but the "
            f"events replayed over the initial state give {rows}")
    summaries = _round_summaries(profiles, trace.params.rounds_K,
                                 trace.ev_round, trace.ev_topic, trace.ev_old,
                                 trace.ev_new)
    for i, (mine, theirs) in enumerate(zip(trace.round_summaries, summaries)):
        if mine != theirs:
            raise SummaryMismatchError(
                f"round_summaries row {i} is {list(astuple(mine))}, but the "
                f"events replayed over the initial state give "
                f"{list(astuple(theirs))}")
    return final.reshape(profiles.shape), summaries


def replay_trace(initial_profiles: np.ndarray, trace: SimTrace) -> np.ndarray:
    """Re-apply every event over the initial profiles; returns final state.

    Each event's recorded old stance is checked against the replayed state,
    so replaying a trace over the wrong initial file fails loudly, and the
    header's ``round_summaries`` must equal the tallies of the replay
    (:class:`SummaryMismatchError` otherwise).
    """
    return _replay(initial_profiles, trace)[0]


def stance_distribution_curve(trace: SimTrace, initial_state) -> list[CurvePoint]:
    """Per-round counts of unknown/oppose/neutral/support per topic; the
    trace must replay over ``initial_state`` as in :func:`replay_trace`,
    header summaries included."""
    return [
        CurvePoint(s.round, s.topic,
                   dict(zip(STANCE_VALUES,
                            (s.unknown, s.oppose, s.neutral, s.support))),
                   trace.n - s.unknown)
        for s in _replay(initial_state, trace)[1]
    ]


def _truth_table(truth: Mapping, n: int, z: int) -> np.ndarray:
    """The truth as an (n, z) array, ignoring keys outside the shape; the
    first uncovered pair in row-major order is an error. A
    :class:`GroundTruth` gives its arrays as they are; any other mapping is
    read into the same arrays here."""
    if isinstance(truth, GroundTruth):
        node, topic, values = truth.node, truth.topic, truth.stance
    else:
        node, topic = np.fromiter(chain.from_iterable(truth), dtype=np.int64,
                                  count=2 * len(truth)).reshape(-1, 2).T
        values = np.fromiter(truth.values(), dtype=np.float64,
                             count=len(truth))
    inside = (node >= 0) & (node < n) & (topic >= 0) & (topic < z)
    node, topic = node[inside], topic[inside]
    table = np.empty((n, z))
    covered = np.zeros((n, z), dtype=bool)
    table[node, topic] = values[inside]
    covered[node, topic] = True
    _raise_first([(~covered.reshape(-1), lambda k: MissingTruthEntryError(
        "ground truth missing entry for node %d, topic %d" % divmod(k, z)))])
    return table


def _topic_counts(final_state, truth: Mapping):
    """(n, status, scored, exact), per topic: pairs whose known/unknown
    status matches the truth, known-truth pairs, and their exact matches."""
    final = np.asarray(final_state, dtype=np.float64)
    n, z = final.shape
    table = _truth_table(truth, n, z)
    known = table != STANCE_UNKNOWN
    masks = ((final != STANCE_UNKNOWN) == known, known, known & (final == table))
    return (n, *(np.count_nonzero(mask, axis=0).tolist() for mask in masks))


def activation_accuracy(final_state, truth: Mapping) -> float:
    """Fraction of pairs whose known/unknown status matches the truth.

    Computed per topic and averaged over topics; truth must cover every
    (node, topic) pair of the final state.
    """
    n, status, _, _ = _topic_counts(final_state, truth)
    if n == 0 or not status:
        raise MissingTruthEntryError("nothing to score: empty final state")
    return float(np.mean([matches / n for matches in status]))


def stance_accuracy(final_state, truth: Mapping) -> float:
    """Fraction of known-truth pairs whose exact stance matches the truth."""
    _, _, scored, exact = _topic_counts(final_state, truth)
    if sum(scored) == 0:
        raise MissingTruthEntryError("no known-stance truth pairs to score")
    return sum(exact) / sum(scored)


def accuracy_report(final_state, truth: Mapping, topic_names=None) -> dict:
    """Per-topic accuracy mapping {topic: {activation, stance}}.

    A topic with no known-stance truth pairs reports ``None`` for its
    stance accuracy.
    """
    n, status, scored, exact = _topic_counts(final_state, truth)
    names = topic_names or [str(j) for j in range(len(status))]
    return {
        names[j]: {
            "activation_accuracy": status[j] / n if n else None,
            "stance_accuracy": exact[j] / scored[j] if scored[j] else None,
        }
        for j in range(len(status))
    }


def write_curves_csv(path, points: list[CurvePoint], topic_names=None) -> None:
    """Write curve points as CSV: round,topic,unknown,oppose,neutral,support."""
    rows = ["round,topic,unknown,oppose,neutral,support"]
    for pt in points:
        topic = topic_names[pt.topic] if topic_names else str(pt.topic)
        rows.append(
            f"{pt.round},{topic},{pt.counts[-1.0]},{pt.counts[0.0]},"
            f"{pt.counts[0.5]},{pt.counts[1.0]}"
        )
    _atomic_write(path, "\n".join(rows) + "\n")
