"""Trace evaluation: replay, per-round curves, accuracy against truth."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import SimTrace
from .errors import InconsistentIdsError, MissingTruthEntryError
from .graph import STANCE_UNKNOWN, STANCE_VALUES
from .io_formats import _atomic_write


@dataclass(frozen=True)
class CurvePoint:
    """Stance-class tallies of one topic at the end of one round."""

    round: int
    topic: int
    counts: dict
    cumulative_known: int


def replay_trace(initial_profiles: np.ndarray, trace: SimTrace) -> np.ndarray:
    """Re-apply every event over the initial profiles; returns final state.

    Each event's recorded old stance is checked against the replayed state,
    so replaying a trace over the wrong initial file fails loudly.
    """
    profiles = np.asarray(initial_profiles, dtype=np.float64).copy()
    if profiles.shape != (trace.n, trace.z):
        raise InconsistentIdsError(
            f"initial state shape {profiles.shape} does not match trace "
            f"({trace.n} nodes, {trace.z} topics)"
        )
    nodes = trace.ev_node
    topics = trace.ev_topic
    olds = trace.ev_old
    news = trace.ev_new
    for i in range(nodes.shape[0]):
        node, topic = nodes[i], topics[i]
        if profiles[node, topic] != olds[i]:
            raise InconsistentIdsError(
                f"event {i}: expected stance {olds[i]} at node {node}, topic "
                f"{topic}, found {profiles[node, topic]}; trace does not "
                "replay over this initial state"
            )
        profiles[node, topic] = news[i]
    return profiles


def _curves(initial_profiles: np.ndarray, trace: SimTrace) -> list[CurvePoint]:
    profiles = np.asarray(initial_profiles, dtype=np.float64).copy()
    if profiles.shape != (trace.n, trace.z):
        raise InconsistentIdsError(
            f"initial state shape {profiles.shape} does not match trace "
            f"({trace.n} nodes, {trace.z} topics)"
        )
    tallies = [
        {v: int(np.count_nonzero(profiles[:, j] == v)) for v in STANCE_VALUES}
        for j in range(trace.z)
    ]

    def snapshot(rnd):
        return [
            CurvePoint(rnd, j, dict(tallies[j]),
                       trace.n - tallies[j][STANCE_UNKNOWN])
            for j in range(trace.z)
        ]

    points = snapshot(0)
    i = 0
    total = trace.ev_node.shape[0]
    for rnd in range(1, trace.params.rounds_K + 1):
        while i < total and trace.ev_round[i] == rnd:
            j = int(trace.ev_topic[i])
            old, new = float(trace.ev_old[i]), float(trace.ev_new[i])
            if old != new:
                tallies[j][old] -= 1
                tallies[j][new] += 1
            i += 1
        points.extend(snapshot(rnd))
    return points


def stance_distribution_curve(trace: SimTrace, initial_state) -> list[CurvePoint]:
    """Per-round counts of unknown/oppose/neutral/support per topic."""
    return _curves(initial_state, trace)


def _check_covered(final_profiles: np.ndarray, truth: dict) -> None:
    n, z = final_profiles.shape
    for node in range(n):
        for topic in range(z):
            if (node, topic) not in truth:
                raise MissingTruthEntryError(
                    f"ground truth missing entry for node {node}, topic {topic}"
                )


def activation_accuracy(final_state, truth: dict) -> float:
    """Fraction of pairs whose known/unknown status matches the truth.

    Computed per topic and averaged over topics; truth must cover every
    (node, topic) pair of the final state.
    """
    final = np.asarray(final_state, dtype=np.float64)
    n, z = final.shape
    if n == 0 or z == 0:
        raise MissingTruthEntryError("nothing to score: empty final state")
    _check_covered(final, truth)
    per_topic = []
    for topic in range(z):
        matches = sum(
            (final[node, topic] != STANCE_UNKNOWN)
            == (truth[(node, topic)] != STANCE_UNKNOWN)
            for node in range(n)
        )
        per_topic.append(matches / n)
    return float(np.mean(per_topic))


def stance_accuracy(final_state, truth: dict) -> float:
    """Fraction of known-truth pairs whose exact stance matches the truth."""
    final = np.asarray(final_state, dtype=np.float64)
    n, z = final.shape
    _check_covered(final, truth)
    scored = 0
    matches = 0
    for node in range(n):
        for topic in range(z):
            if truth[(node, topic)] == STANCE_UNKNOWN:
                continue
            scored += 1
            matches += final[node, topic] == truth[(node, topic)]
    if scored == 0:
        raise MissingTruthEntryError("no known-stance truth pairs to score")
    return matches / scored


def accuracy_report(final_state, truth: dict, topic_names=None) -> dict:
    """Per-topic accuracy mapping {topic: {activation, stance}}.

    A topic with no known-stance truth pairs reports ``None`` for its
    stance accuracy.
    """
    final = np.asarray(final_state, dtype=np.float64)
    n, z = final.shape
    _check_covered(final, truth)
    names = topic_names or [str(j) for j in range(z)]
    report = {}
    for topic in range(z):
        status = sum(
            (final[node, topic] != STANCE_UNKNOWN)
            == (truth[(node, topic)] != STANCE_UNKNOWN)
            for node in range(n)
        )
        scored = [node for node in range(n)
                  if truth[(node, topic)] != STANCE_UNKNOWN]
        if scored:
            exact = sum(final[node, topic] == truth[(node, topic)]
                        for node in scored)
            stance_acc = exact / len(scored)
        else:
            stance_acc = None
        report[names[topic]] = {
            "activation_accuracy": status / n if n else None,
            "stance_accuracy": stance_acc,
        }
    return report


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
