"""The independent-cascade run of stancecast before it became array code,
kept verbatim.

``tests/test_ic.py`` checks that ``stancecast.ic.run_ic`` gives the same
rounds as ``run_ic`` here: the same coin flips from the same stream, so the
same activations. Only the imports are adapted; the code is not to be
edited.
"""

from __future__ import annotations

from stancecast.errors import IdOutOfRangeError
from stancecast.graph import SocialGraph
from stancecast.ic import IcParams, IcTrace
from stancecast.rng import Rng


def run_ic(g: SocialGraph, params: IcParams, seeds, run_index: int = 0) -> IcTrace:
    """One cascade from the seed set; deterministic given the seed stream."""
    seed_list = sorted({int(v) for v in seeds})
    for v in seed_list:
        if not 0 <= v < g.n:
            raise IdOutOfRangeError(f"seed node {v} outside [0, {g.n})")
    rng = Rng(params.rng_seed, run_index)
    active = set(seed_list)
    trace = IcTrace(rounds=[list(seed_list)])
    frontier = seed_list
    rounds_left = params.max_rounds
    while frontier and (rounds_left is None or rounds_left > 0):
        batch = []
        for v in frontier:
            for q in g.out_neighbors(v):
                q = int(q)
                if q in active:
                    continue
                if rng.random() < params.probability(v, q):
                    active.add(q)
                    batch.append(q)
        batch.sort()
        if not batch:
            break
        trace.rounds.append(batch)
        frontier = batch
        if rounds_left is not None:
            rounds_left -= 1
    return trace
