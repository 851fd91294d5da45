#!/usr/bin/env python3
"""Compare the compiled (numba) and plain-python kernel backends.

Without arguments this script re-launches itself once per backend (the
backend is fixed per process by the STANCECAST_BACKEND environment
variable) and prints a comparison table. With --backend it measures the
current process and prints one JSON line.

Example:
    python benchmarks/backend_benchmark.py --nodes 2000 --edges 8000
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import time


def build_workload(nodes, edges, topics, rounds, seed):
    import numpy as np

    import stancecast as sc

    rng = np.random.default_rng(seed)
    edge_set = set()
    while len(edge_set) < edges:
        u = int(rng.integers(0, nodes))
        v = int(rng.integers(0, nodes - 1))
        if v >= u:
            v += 1
        edge_set.add((u, v))
    profiles = rng.choice(
        np.array([-1.0, 0.0, 0.5, 1.0]), size=(nodes, topics),
        p=[0.9, 0.04, 0.03, 0.03],
    )
    g = sc.build_graph(nodes, topics, sorted(edge_set), profiles)
    params = sc.SimParams(rounds_K=rounds, rng_seed=seed)
    return g, params


def measure(args):
    import stancecast as sc
    from stancecast import kernels

    g, params = build_workload(args.nodes, args.edges, args.topics,
                               args.rounds, args.seed)
    kernels.warmup()
    sc.run_tsa(g, params)  # compile/trace everything before timing

    times = []
    events = 0
    for _ in range(args.repeat):
        start = time.perf_counter()
        trace = sc.run_tsa(g, params)
        times.append(time.perf_counter() - start)
        events = len(trace.events)
    print(json.dumps({
        "backend": kernels.BACKEND,
        "best_s": min(times),
        "mean_s": sum(times) / len(times),
        "events": events,
    }))


def orchestrate(args):
    results = []
    for backend in ("numba", "python"):
        if backend == "numba" and importlib.util.find_spec("numba") is None:
            print("numba backend skipped: numba is not installed", file=sys.stderr)
            continue
        env = dict(os.environ, STANCECAST_BACKEND=backend)
        cmd = [sys.executable, __file__, "--backend", backend,
               "--nodes", str(args.nodes), "--edges", str(args.edges),
               "--topics", str(args.topics), "--rounds", str(args.rounds),
               "--repeat", str(args.repeat), "--seed", str(args.seed)]
        out = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if out.returncode != 0:
            print(f"{backend} backend failed:\n{out.stderr}", file=sys.stderr)
            continue
        results.append(json.loads(out.stdout.strip().splitlines()[-1]))

    print(f"\nworkload: n={args.nodes} m={args.edges} z={args.topics} "
          f"K={args.rounds}, best of {args.repeat}")
    print(f"{'backend':<10}{'best':>12}{'mean':>12}{'events':>10}")
    for r in results:
        print(f"{r['backend']:<10}{r['best_s']:>11.4f}s{r['mean_s']:>11.4f}s"
              f"{r['events']:>10}")
    if len(results) == 2 and results[1]["best_s"] > 0:
        speedup = results[1]["best_s"] / results[0]["best_s"]
        print(f"\n{results[0]['backend']} is {speedup:.1f}x faster than "
              f"{results[1]['backend']} on this workload")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=2000)
    parser.add_argument("--edges", type=int, default=8000)
    parser.add_argument("--topics", type=int, default=2)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--backend", default=None,
                        help="internal: measure the current process only")
    args = parser.parse_args()
    if args.backend:
        measure(args)
    else:
        orchestrate(args)


if __name__ == "__main__":
    main()
