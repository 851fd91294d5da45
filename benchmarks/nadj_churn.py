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

``benchmarks/pairs.py`` runs the pairs and reports. A process generates the
bundles untimed, takes the best of ``--repeat`` timed ``run_simulation``
calls per config, and writes the trace of the last with ``write_trace``; its
digest is the trace's sha256, so that exactness is checked in the same run.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import time
from pathlib import Path

from pairs import main

TOPICS = (1, 2, 3, 4)
PERSISTENCES = (0.05, 0.9)


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


if __name__ == "__main__":
    main(__doc__, worker, ("--repeat", 3, 1), "traces")
