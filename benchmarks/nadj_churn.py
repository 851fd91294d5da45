#!/usr/bin/env python3
"""Time the high-churn simulations of two source trees against each other.

Run from the repository root, with the ``src`` directory of each side:

    python3 benchmarks/nadj_churn.py PARENT_SRC CHANGE_SRC --pairs 11

The high-churn configs have 1,000 nodes, 3,000 edges, stance mix
``[0.4, 0.2, 0.2, 0.2]`` (generator seed 3), ``r1 = r2 = 0.5``, K = 4 and
``rng_seed`` 7, at z = 1..4 topics and at A0 = 0.05 and A0 = 0.9: eight
configs. Their passes move many receivers, so ``run_simulation`` spends most
of its time in the non-adjacent kernel's per-receiver loop, which the
perfbench workloads barely reach. At A0 = 0.9 the hold scans also clamp a at
1 again and again, which no perfbench workload does.

Each pair runs both sides in a fresh process each, alternating which side
goes first. A process generates the bundles untimed, takes the best of
``--repeat`` timed ``run_simulation`` calls per config, and writes the trace
of the last with ``write_trace``. The report gives, per config, each side's
median and interquartile range of those seconds, the pairs the change won
(ties count for neither), and each side's trace sha256, so that exactness is
checked in the same run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import tempfile
import time
from pathlib import Path

from pairs import SIDES, compare, run_pairs

TOPICS = (1, 2, 3, 4)
PERSISTENCES = (0.05, 0.9)
CONFIGS = [f"A0={a0} z={z}" for a0 in PERSISTENCES for z in TOPICS]


def worker(repeat: int) -> None:
    """Run every config with the stancecast on ``sys.path``; print one JSON
    object {config: [best seconds, trace sha256]}."""
    import stancecast as sc
    from stancecast import io_formats

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for z in TOPICS:
            bundle = io_formats.generate_synthetic(
                1000, 3000, z, [0.4, 0.2, 0.2, 0.2], 3, Path(tmp) / f"z{z}")
            g, symbols = io_formats.load_graph(bundle.edges_path,
                                               bundle.profiles_path)
            seeds = io_formats.load_seeds(bundle.seeds_path, symbols)
            for a0 in PERSISTENCES:
                params = sc.SimParams(r1=0.5, r2=0.5,
                                      initial_persistence_A0=a0,
                                      rounds_K=4, rng_seed=7)
                seconds = []
                for _ in range(repeat):
                    t0 = time.perf_counter()
                    trace, _ = sc.run_simulation(g, params, seeds)
                    seconds.append(time.perf_counter() - t0)
                path = Path(tmp) / "trace.jsonl"
                io_formats.write_trace(trace, path)
                out[f"A0={a0} z={z}"] = [
                    min(seconds), hashlib.sha256(path.read_bytes()).hexdigest()]
    print(json.dumps(out))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src", nargs="?")
    ap.add_argument("change_src", nargs="?")
    ap.add_argument("--pairs", type=int, default=11)
    ap.add_argument("--repeat", type=int, default=3,
                    help="timed runs per config and process; the best counts")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    if args.worker:
        worker(args.repeat)
        return
    if args.parent_src is None or args.change_src is None:
        ap.error("give the parent's and the change's src directories")
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for the quartiles")
    runs = run_pairs(__file__, {"parent": args.parent_src,
                                "change": args.change_src},
                     args.pairs, ["--repeat", args.repeat],
                     lambda runs: "  ".join(
                         f"{config} {runs['parent'][-1][config][0]:.3f}/"
                         f"{runs['change'][-1][config][0]:.3f}s"
                         for config in CONFIGS))
    print("config  parent median (IQR)  change median (IQR)  change won")
    for config in CONFIGS:
        result = compare(runs, config)
        (pm, piqr), (cm, ciqr) = (result["stats"][name] for name in SIDES)
        print(f"{config}  {pm:.3f} s ({piqr:.3f})  {cm:.3f} s ({ciqr:.3f})  "
              f"{result['won']}/{args.pairs}")
        for name in SIDES:
            print(f"    {name} sha256 {' '.join(sorted(result['digests'][name]))}")
        print(f"    traces {'identical' if result['same'] else 'DIFFER'}")


if __name__ == "__main__":
    main()
