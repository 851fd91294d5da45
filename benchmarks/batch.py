#!/usr/bin/env python3
"""Time ``simulate --runs R`` batches of two source trees against each other.

Run from the repository root, with the ``src`` directory of each side:

    python3 benchmarks/batch.py PARENT_SRC CHANGE_SRC --pairs 11

The configs are the batches of the perfbench workloads
(``perfbench/run.py``) at ``--seed``: each workload's first network (seeds
7, 7 and 21 at the default) with its config, run through ``cli.main`` as
``simulate --runs R --workers 2``, as the benchmark's batch runs it, and as
``--workers 1``. R is the workload's batch size (2, 2 and 16 runs).

``benchmarks/pairs.py`` runs the pairs and reports. A process generates the
networks untimed, then takes the best of ``REPEAT`` timed batches per
config; its digest is the sha256 over the R trace files, so that serial and
parallel batches, and both trees, are checked to write the same traces.
"""

from __future__ import annotations

import contextlib
import io
import sys

from pairs import best, main, networks, sha256

# Timed batches per config and process; the best of them counts
REPEAT = 5
WORKERS = (2, 1)


def worker(seed: int, tmp) -> dict:
    """{config: [best seconds, traces sha256]} of every config's batches,
    run with the stancecast on ``sys.path``."""
    from stancecast import cli, io_formats

    out = {}
    for name, (w, network, bundle) in networks(seed, tmp).items():
        config = bundle.edges_path.parent / "config.json"
        io_formats.write_config(
            config, io_formats.SimParams(rng_seed=network, **w.params))
        for workers in WORKERS:
            trace = tmp / f"{name}-w{workers}" / "trace.jsonl"
            trace.parent.mkdir()
            argv = ["simulate", "--graph", bundle.edges_path,
                    "--profiles", bundle.profiles_path,
                    "--seeds", bundle.seeds_path, "--config", config,
                    "--out-trace", trace, "--runs", w.batch_runs,
                    "--workers", workers]

            def batch():
                with contextlib.redirect_stdout(io.StringIO()):
                    if code := cli.main([str(a) for a in argv]):
                        sys.exit(f"{name} --workers {workers}: simulate "
                                 f"exited with status {code}")

            seconds, _ = best(batch, REPEAT)
            out[f"{name} workers={workers}"] = [seconds, sha256(*(
                cli._trace_path(trace, i, w.batch_runs).read_bytes()
                for i in range(w.batch_runs)))]
    return out


if __name__ == "__main__":
    main(__doc__, worker, ("--seed", 7, None), "traces")
