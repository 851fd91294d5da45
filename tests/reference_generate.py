"""The synthetic generator and the stance-file writers of stancecast before
they became array code, kept verbatim.

``tests/test_generate.py`` checks that ``stancecast.io_formats`` draws the
same edges as the loop of ``edge_loop`` here, leaving the generator in the
same state, and that its writers and ``generate_synthetic`` write the same
bytes as these. Only the imports are adapted, and the edge loop is lifted
out of ``generate_synthetic`` into ``edge_loop`` so that it can run alone;
the code is not otherwise to be edited.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from stancecast.errors import InfeasibleEdgeCountError, RangeViolationError
from stancecast.graph import STANCE_UNKNOWN, SocialGraph, build_graph
from stancecast.io_formats import (_PROFILE_HEADER, _TRUTH_HEADER,
                                   DatasetBundle, SymbolTable, _atomic_write)


def write_graph(g: SocialGraph, symbols: SymbolTable,
                edges_path, profiles_path) -> None:
    """Write the edge and profiles files (every node-topic pair emitted)."""
    lines = ["# source\ttarget"]
    for u in range(g.n):
        for v in g.out_neighbors(u):
            lines.append(f"{symbols.node_ids[u]}\t{symbols.node_ids[int(v)]}")
    _atomic_write(edges_path, "\n".join(lines) + "\n")
    _write_stances(profiles_path, _PROFILE_HEADER, symbols,
                   ((u, j, g.profiles[u, j])
                    for u in range(g.n) for j in range(g.z)))


def _write_stances(path, header: str, symbols: SymbolTable, rows) -> None:
    """Write a stance CSV: ``header``, then one line per (node, topic,
    stance) row, ids as in ``symbols``."""
    lines = [header]
    for node, topic, stance in rows:
        stance = float(stance)
        lines.append(f"{symbols.node_ids[node]},{symbols.topic_ids[topic]},"
                     f"{int(stance) if stance in (-1.0, 0.0, 1.0) else 0.5}")
    _atomic_write(path, "\n".join(lines) + "\n")


def write_seeds(path, seeds: dict[int, dict[int, float]],
                symbols: SymbolTable) -> None:
    _write_stances(path, _PROFILE_HEADER, symbols,
                   ((node, topic, seeds[topic][node]) for topic in sorted(seeds)
                    for node in sorted(seeds[topic])))


def write_ground_truth(path, truth: dict[tuple[int, int], float],
                       symbols: SymbolTable) -> None:
    _write_stances(path, _TRUTH_HEADER, symbols,
                   ((node, topic, truth[(node, topic)])
                    for node, topic in sorted(truth)))


def edge_loop(rng, n: int, m: int) -> set:
    edges = set()
    while len(edges) < m:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n - 1))
        if v >= u:
            v += 1
        edges.add((u, v))
    return edges


def generate_synthetic(n: int, m: int, z: int, stance_mix, seed: int,
                       out_dir) -> DatasetBundle:
    """Write a uniform random simple directed graph with sampled profiles.

    ``stance_mix`` is a distribution over (unknown, oppose, neutral,
    support) — either one 4-vector applied to every topic or one per
    topic. Nodes with a known sampled stance become the seed users.
    Byte-identical output for identical arguments. A bundle needs a topic
    (``z >= 1``): its profiles file holds one row per node and topic, so a
    node without a row, and on no edge, would not be loaded.
    """
    if z < 1:
        raise RangeViolationError("z", z, "integers >= 1")
    if seed < 0:  # np.random.default_rng takes no negative seed
        raise RangeViolationError("seed", seed, "integers >= 0")
    if n < 0 or m < 0:
        raise InfeasibleEdgeCountError("n and m must be non-negative")
    if m > n * (n - 1):
        raise InfeasibleEdgeCountError(
            f"{m} edges requested but a simple digraph on {n} nodes "
            f"has at most {n * (n - 1)}"
        )
    shape_error = RangeViolationError("stance_mix", stance_mix,
                                      f"shape (4,) or ({z}, 4)")
    try:
        mix = np.asarray(stance_mix, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # not numbers, or ragged
        raise shape_error from None
    if mix.ndim == 1:
        mix = np.tile(mix, (z, 1))
    if mix.shape != (z, 4):
        raise shape_error
    if (mix < 0).any() or not np.allclose(mix.sum(axis=1), 1.0, atol=1e-9):
        raise RangeViolationError("stance_mix", stance_mix,
                                  "non-negative entries summing to 1")

    rng = np.random.default_rng(seed)
    edges = edge_loop(rng, n, m)
    width = max(1, len(str(max(n - 1, 0))))
    node_ids = tuple(f"n{i:0{width}d}" for i in range(n))
    topic_ids = tuple(f"t{j}" for j in range(z))
    symbols = SymbolTable(node_ids, topic_ids)

    profiles = np.empty((n, z))
    for j in range(z):
        profiles[:, j] = rng.choice(
            np.array([-1.0, 0.0, 0.5, 1.0]), size=n, p=mix[j]
        )
    graph = build_graph(n, z, sorted(edges), profiles)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bundle = DatasetBundle(
        edges_path=out_dir / "edges.tsv",
        profiles_path=out_dir / "profiles.csv",
        seeds_path=out_dir / "seeds.csv",
    )
    write_graph(graph, symbols, bundle.edges_path, bundle.profiles_path)
    seeds: dict[int, dict[int, float]] = {}
    for j in range(z):
        known = np.flatnonzero(profiles[:, j] != STANCE_UNKNOWN)
        if known.size:
            seeds[j] = {int(v): float(profiles[v, j]) for v in known}
    write_seeds(bundle.seeds_path, seeds, symbols)
    return bundle
