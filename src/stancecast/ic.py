"""Vanilla independent-cascade baseline.

Each newly active node gets exactly one Bernoulli attempt per inactive
out-neighbor, in the round after it activates; the process stops when a
round activates nobody. Frontier nodes and their neighbors are visited in
ascending id order, so a run is fully determined by (graph, params, seeds,
run_index).

Draw contract: each attempt on an out-neighbor that is still inactive takes
the next uniform of stream ``run_index`` (:class:`~stancecast.rng.Rng`), in
ascending frontier order and then neighbor order, and succeeds when that
uniform is below the edge's probability. A neighbor activated earlier in the
same round takes no uniform. The uniforms are drawn in bulk, a round's worth
at a time; ``Rng.random(k)`` gives the values of ``k`` single draws, so the
outcomes are those of one draw per attempt.

A round is array code over the CSR slots of the frontier's out-edges
(:func:`kernels.out_slots`): the candidates are the slots whose target is
inactive when the round starts, and :func:`_coin_flips` finds which of them
fire. Only a target that repeats among a round's candidates needs a pass in
candidate order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import IdOutOfRangeError, RangeViolationError
from .graph import SocialGraph
from .rng import Rng


@dataclass(frozen=True)
class IcParams:
    """Uniform edge probability, or a per-edge override map (u, v) -> p."""

    edge_probability: float = 0.1
    edge_probabilities: dict | None = None
    rng_seed: int = 0
    max_rounds: int | None = None

    def validate(self) -> "IcParams":
        if not 0.0 <= self.edge_probability <= 1.0:
            raise RangeViolationError("edge_probability", self.edge_probability,
                                      "[0, 1]")
        for edge, p in (self.edge_probabilities or {}).items():
            if not 0.0 <= p <= 1.0:
                raise RangeViolationError(f"edge_probabilities[{edge}]", p, "[0, 1]")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise RangeViolationError("max_rounds", self.max_rounds,
                                      "positive integer or null")
        return self

    def probability(self, u: int, v: int) -> float:
        if self.edge_probabilities is not None:
            return self.edge_probabilities.get((u, v), self.edge_probability)
        return self.edge_probability


@dataclass
class IcTrace:
    """Per-round newly activated node sets, seeds included as round 0."""

    rounds: list[list[int]] = field(default_factory=list)

    @property
    def active(self) -> set[int]:
        return {v for batch in self.rounds for v in batch}

    @property
    def final_count(self) -> int:
        return sum(len(batch) for batch in self.rounds)


def run_ic(g: SocialGraph, params: IcParams, seeds, run_index: int = 0) -> IcTrace:
    """One cascade from the seed set; deterministic given the seed stream."""
    seed_list = sorted({int(v) for v in seeds})
    if seed_list and not (seed_list[0] >= 0 and seed_list[-1] < g.n):
        v = next(v for v in seed_list if not 0 <= v < g.n)
        raise IdOutOfRangeError(f"seed node {v} outside [0, {g.n})")
    rng = Rng(params.rng_seed, run_index)
    edge_p = _edge_probabilities(g, params)
    frontier = np.fromiter(seed_list, dtype=np.int64, count=len(seed_list))
    active = np.zeros(g.n, dtype=np.bool_)
    active[frontier] = True
    trace = IcTrace(rounds=[seed_list])
    spare = np.empty(0)  # uniforms drawn but not yet used
    rounds_left = params.max_rounds
    while frontier.shape[0] and (rounds_left is None or rounds_left > 0):
        slots, _ = kernels.out_slots(g.indptr, frontier)
        slots = slots[~active[g.indices[slots]]]
        targets = g.indices[slots]
        short = slots.shape[0] - spare.shape[0]
        if short > 0:
            spare = np.concatenate([spare, rng.random(short)])
        fired, used = _coin_flips(targets, spare, edge_p[slots])
        spare = spare[used:]
        frontier = targets[fired]
        frontier.sort()
        if not frontier.shape[0]:
            break
        active[frontier] = True
        trace.rounds.append(frontier.tolist())
        if rounds_left is not None:
            rounds_left -= 1
    return trace


def _edge_probabilities(g: SocialGraph, params: IcParams) -> np.ndarray:
    """Each CSR slot's activation probability; overrides of pairs that are
    not edges are never used."""
    edge_p = np.empty(g.m)
    edge_p.fill(params.edge_probability)
    for (u, v), p in (params.edge_probabilities or {}).items():
        if 0 <= u < g.n:
            row = g.out_neighbors(u)
            k = int(np.searchsorted(row, v))
            if k < row.shape[0] and row[k] == v:
                edge_p[g.indptr[u] + k] = p
    return edge_p


def _coin_flips(targets: np.ndarray, uniforms: np.ndarray, p: np.ndarray):
    """Which of a round's candidates activate their target, and how many
    uniforms the round uses.

    Candidate i, in order, is skipped when an earlier candidate of the round
    activated its target, and otherwise tests the uniform at i minus the
    number of candidates skipped before it. Only a target that repeats in
    the round can be skipped or cause a skip, so those candidates alone
    take a pass in order; the skips they find place everyone's uniform.
    """
    c = targets.shape[0]
    skipped = []
    if c > 1:  # a lone candidate cannot repeat
        at = np.flatnonzero(np.bincount(targets)[targets] > 1)
        if at.shape[0]:
            u = uniforms[:c].tolist()
            done = set()
            n_skipped = 0
            for i, t, q in zip(at.tolist(), targets[at].tolist(),
                               p[at].tolist()):
                if t in done:
                    skipped.append(i)
                    n_skipped += 1
                elif u[i - n_skipped] < q:
                    done.add(t)
    if not skipped:
        return uniforms[:c] < p, c
    skipped = np.asarray(skipped)
    pos = np.arange(c)
    fired = uniforms[pos - np.searchsorted(skipped, pos)] < p
    fired[skipped] = False
    return fired, c - skipped.shape[0]


def mean_final_active(g: SocialGraph, params: IcParams, seeds,
                      runs: int) -> tuple[float, list[int]]:
    """Monte Carlo mean of the final active count over ``runs`` cascades."""
    counts = [run_ic(g, params, seeds, run_index=i).final_count
              for i in range(runs)]
    return float(np.mean(counts)), counts
