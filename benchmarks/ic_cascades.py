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

Each pair runs both sides in a fresh process each, alternating which side
goes first. A process generates and loads the networks untimed, then takes
the best of ``REPEAT`` timed calls per config. The report gives, per config,
each side's median and interquartile range of those seconds, the pairs the
change won (ties count for neither), and each side's sha256 over the final
active counts, so that the cascades are checked to agree in the same run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

from pairs import SIDES, compare, run_pairs

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


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src", nargs="?")
    ap.add_argument("change_src", nargs="?")
    ap.add_argument("--pairs", type=int, default=11)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        worker(args.seed)
        return
    if args.parent_src is None or args.change_src is None:
        ap.error("give the parent's and the change's src directories")
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for the quartiles")
    runs = run_pairs(__file__, {"parent": args.parent_src,
                                "change": args.change_src},
                     args.pairs, ["--seed", args.seed],
                     lambda runs: "  ".join(
                         f"{c} {runs['parent'][-1][c][0] * 1e3:.1f}/"
                         f"{runs['change'][-1][c][0] * 1e3:.1f} ms"
                         for c in runs["parent"][-1]))
    print("config  parent median (IQR)  change median (IQR)  change won")
    for c in runs["parent"][0]:
        result = compare(runs, c)
        (pm, piqr), (cm, ciqr) = (result["stats"][name] for name in SIDES)
        print(f"{c}  {pm * 1e3:.1f} ms ({piqr * 1e3:.1f})  "
              f"{cm * 1e3:.1f} ms ({ciqr * 1e3:.1f})  "
              f"{result['won']}/{args.pairs}")
        for name in SIDES:
            print(f"    {name} counts sha256 "
                  f"{' '.join(sorted(result['digests'][name]))}")
        print(f"    counts {'identical' if result['same'] else 'DIFFER'}")


if __name__ == "__main__":
    main()
