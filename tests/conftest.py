import os
from pathlib import Path

import numpy as np
import pytest

import stancecast as sc


@pytest.fixture(scope="session", autouse=True)
def package_on_child_path():
    """Tests that start ``python -m stancecast.cli`` need the package on the
    child's path; pytest's ``pythonpath`` setting covers only this process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


def make_random_case(rng, max_n=12, max_z=3, max_k=5):
    """One random graph + params + seeds, everything within valid ranges."""
    n = int(rng.integers(2, max_n + 1))
    z = int(rng.integers(1, max_z + 1))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    m = int(rng.integers(0, len(pairs) + 1))
    chosen = rng.choice(len(pairs), size=m, replace=False)
    edges = [pairs[i] for i in chosen]
    profiles = rng.choice(
        np.array([-1.0, 0.0, 0.5, 1.0]), size=(n, z), p=[0.7, 0.1, 0.1, 0.1]
    )
    params = sc.SimParams(
        delta_adjacent=float(rng.uniform(0.51, 1.0)),
        delta_nonadjacent=float(rng.uniform(0.0, 0.4999)),
        lambda_=float(rng.uniform(0.5, 1.0)),
        mu=float(rng.uniform(0.0, 0.4999)),
        r1=float(rng.uniform(0.0, 1.0)),
        r2=float(rng.uniform(0.0, 1.0)),
        mix_r=0.7,
        mix_a=0.3,
        rounds_K=int(rng.integers(1, max_k + 1)),
        initial_persistence_A0=float(rng.uniform(0.0, 1.0)),
        rng_seed=int(rng.integers(0, 2**62)),
        adjacency_memory=("persistent", "per_round")[int(rng.integers(0, 2))],
        epsilon_tie=("zero", "one")[int(rng.integers(0, 2))],
    )
    seeds = {}
    for j in range(z):
        count = int(rng.integers(0, n // 2 + 1))
        if count:
            nodes = rng.choice(n, size=count, replace=False)
            seeds[j] = {
                int(v): float(rng.choice([0.0, 0.5, 1.0])) for v in nodes
            }
    return {"n": n, "z": z, "edges": edges, "profiles": profiles,
            "params": params, "seeds": seeds}


def trace_event_tuples(trace):
    """Engine events as plain tuples, for comparison with the oracle."""
    names = ("adjacent", "nonadjacent")
    return [
        (int(r), int(t), int(nd), float(o), float(w), int(s), float(p), names[c])
        for r, t, nd, o, w, s, p, c in zip(
            trace.ev_round, trace.ev_topic, trace.ev_node, trace.ev_old,
            trace.ev_new, trace.ev_source, trace.ev_p, trace.ev_channel,
        )
    ]


def summary_tuples(trace):
    return [
        (s.round, s.topic, s.unknown, s.oppose, s.neutral, s.support,
         s.newly_activated)
        for s in trace.round_summaries
    ]


@pytest.fixture
def path3():
    """0 -> 1 -> 2, one topic, node 0 supports."""
    return sc.build_graph(3, 1, [(0, 1), (1, 2)], [[1.0], [-1.0], [-1.0]])


@pytest.fixture
def star4():
    """Center 0 -> leaves 1, 2, 3, one topic, center supports."""
    return sc.build_graph(
        4, 1, [(0, 1), (0, 2), (0, 3)], [[1.0], [-1.0], [-1.0], [-1.0]]
    )


@pytest.fixture
def default_params():
    return sc.SimParams().validate()
