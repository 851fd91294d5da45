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
fire. It walks only the uniforms below the round's largest probability and
the skips that their fires cause, so its Python steps grow with p: at
p = 0.1, round 1 of the seed-7 edges-10k network has 10,006 candidates,
7,508 of them on a target that repeats, but 991 uniforms below p and 663
skips. The other exact way, a pass in candidate order over the candidates
on repeated targets, does not grow with p. Against such a pass, edges-10k
cascades took 0.43 / 0.62 / 1.01 / 1.26 / 1.59 of the time at p = 0.02 /
0.1 / 0.3 / 0.5 / 0.9 (medians of 7 in-process pairs). The benchmark runs
IC at p = 0.1 only.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import IdOutOfRangeError, RangeViolationError
from .graph import SocialGraph, _sorted_distinct
from .params import _check_rng_seed
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
        _check_rng_seed(self.rng_seed)
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
    frontier = _seed_frontier(seeds, g.n)
    rng = Rng(params.rng_seed, run_index)
    edge_p = _edge_probabilities(g, params)
    active = np.zeros(g.n, dtype=np.bool_)
    active[frontier] = True
    trace = IcTrace(rounds=[frontier.tolist()])
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


def _seed_frontier(seeds, n: int) -> np.ndarray:
    """The distinct seed ids, ascending, as int64; ``int(v)`` of each."""
    if iter(seeds) is seeds:  # one pass only; the error path reads it again
        seeds = list(seeds)
    try:
        frontier = _sorted_distinct(np.fromiter(seeds, dtype=np.int64))
        inside = not frontier.shape[0] or (frontier[0] >= 0
                                           and frontier[-1] < n)
    except OverflowError:  # an id outside int64
        inside = False
    if not inside:
        v = next(v for v in sorted({int(v) for v in seeds}) if not 0 <= v < n)
        raise IdOutOfRangeError(f"seed node {v} outside [0, {n})")
    return frontier


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
    number of candidates skipped before it. That count changes only at a
    skip, and the skips follow from the fires of candidates whose target
    comes again later in the round; a fire needs a uniform below max(p). So
    the walk visits only the uniforms below max(p), in order, and the skips
    they cause, which wait in a heap of candidate positions: O(low uniforms
    + skips) steps, whatever the number of candidates on repeated targets.
    """
    c = targets.shape[0]
    u = uniforms[:c]
    key = np.sort(targets * c + np.arange(c))  # by target, then position
    target = key // c
    pos = key - target * c
    again = target[1:] == target[:-1]
    if not again.any():  # no target repeats, so nothing is skipped
        return u < p, c
    nxt = np.full(c, c)  # the next candidate on the same target, or c
    nxt[pos[:-1]] = np.where(again, pos[1:], c)
    after = nxt.item
    sure = float(p.min())  # NaN if some p is: then no uniform is sure
    low = np.flatnonzero(u < np.fmax.reduce(p))  # fmax passes over a NaN p
    heappop, heappush = heapq.heappop, heapq.heappush
    fired = []
    pending = []  # the candidates known to be skipped, not yet passed
    skips = 0
    # a last uniform at c stands for the end: every pending skip comes first
    for k, x in zip(low.tolist() + [c], u[low].tolist() + [1.0]):
        i = k + skips  # the candidate that uniform k goes to
        while pending and pending[0] <= i:
            j = after(heappop(pending))
            skips += 1
            i += 1
            if j < c:
                heappush(pending, j)
        if i >= c:
            break
        if x < sure or x < p[i]:
            fired.append(i)
            j = after(i)
            if j < c:
                heappush(pending, j)
    out = np.zeros(c, dtype=np.bool_)
    out[fired] = True
    return out, c - skips


def mean_final_active(g: SocialGraph, params: IcParams, seeds,
                      runs: int) -> tuple[float, list[int]]:
    """Monte Carlo mean of the final active count over ``runs`` cascades."""
    if runs < 1:
        raise RangeViolationError("runs", runs, "integers >= 1")
    counts = [run_ic(g, params, seeds, run_index=i).final_count
              for i in range(runs)]
    return float(np.mean(counts)), counts
