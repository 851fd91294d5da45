#!/usr/bin/env python3
"""Time the IC baseline's cascades of two source trees against each other.

Run from the repository root, with the ``src`` directory of each side:

    python3 benchmarks/ic_cascades.py PARENT_SRC CHANGE_SRC --pairs 11

The configs are the IC samples of the perfbench workloads
(``perfbench/run.py``) at ``--seed``: each workload's first network (seeds
7, 7 and 21 at the default), loaded as perfbench loads it, and one
``mean_final_active`` call of the workload's cascades (32, 16 and 64) at
p = 0.1 with ``rng_seed`` equal to the network's seed. A fourth config runs
the edges-10k cascades at p = 0.5, where the coin flips' walk over the
uniforms below p does the most steps of any config.

``benchmarks/pairs.py`` runs the pairs and reports. A process generates and
loads the networks untimed, then takes the best of ``REPEAT`` timed calls
per config; its digest is the sha256 over the final active counts, so that
the cascades are checked to agree in the same run.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

from pairs import main

ROOT = Path(__file__).resolve().parent.parent
# Timed calls per config and process; the best of them counts
REPEAT = 3
# The edge probabilities each workload's network is run at
CONFIGS = {"cascade-4k": (0.1,), "edges-10k": (0.1, 0.5),
           "montecarlo-2k": (0.1,)}


def worker(seed: int) -> None:
    """Run every config's cascades with the stancecast on ``sys.path``; print
    one JSON object {config: [best seconds, counts sha256]}."""
    from stancecast import ic, io_formats

    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import STANCE_MIX, WORKLOADS

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, probabilities in CONFIGS.items():
            w = WORKLOADS[name]
            network = seed * w.datasets  # the workload's first network
            bundle = io_formats.generate_synthetic(
                w.nodes, w.edges, w.topics, STANCE_MIX, network, Path(tmp) / name)
            g, symbols = io_formats.load_graph(bundle.edges_path,
                                               bundle.profiles_path)
            seeds = io_formats.load_seed_nodes(bundle.seeds_path, symbols)
            for p in probabilities:
                params = ic.IcParams(edge_probability=p,
                                     rng_seed=network).validate()
                seconds = []
                for _ in range(REPEAT):
                    t0 = time.perf_counter()
                    _mean, counts = ic.mean_final_active(g, params, seeds,
                                                         w.ic_runs)
                    seconds.append(time.perf_counter() - t0)
                digest = hashlib.sha256(json.dumps(counts).encode())
                out[f"{name} p={p}"] = [min(seconds), digest.hexdigest()]
    print(json.dumps(out))


if __name__ == "__main__":
    main(__doc__, worker, ("--seed", 7, None), "counts")
