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

from pairs import best, main, networks, sha256

# Timed calls per config and process; the best of them counts
REPEAT = 3
# The edge probabilities each workload's network is run at
CONFIGS = {"cascade-4k": (0.1,), "edges-10k": (0.1, 0.5),
           "montecarlo-2k": (0.1,)}


def worker(seed: int, tmp) -> dict:
    """{config: [best seconds, counts sha256]} of every config's cascades,
    run with the stancecast on ``sys.path``."""
    from stancecast import ic, io_formats

    out = {}
    for name, (w, network, bundle) in networks(seed, tmp).items():
        g, symbols = io_formats.load_graph(bundle.edges_path,
                                           bundle.profiles_path)
        seeds = io_formats.load_seed_nodes(bundle.seeds_path, symbols)
        for p in CONFIGS[name]:
            params = ic.IcParams(edge_probability=p, rng_seed=network).validate()
            seconds, (_mean, counts) = best(
                lambda: ic.mean_final_active(g, params, seeds, w.ic_runs), REPEAT)
            out[f"{name} p={p}"] = [seconds, sha256(counts)]
    return out


if __name__ == "__main__":
    main(__doc__, worker, ("--seed", 7, None), "counts")
