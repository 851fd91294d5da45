#!/usr/bin/env python3
"""Time ``load_trace`` of two source trees against each other.

Run from the repository root, with the ``src`` directory of each side:

    python3 benchmarks/trace_load.py PARENT_SRC CHANGE_SRC --pairs 11

The traces are those of the perfbench workloads (``perfbench/run.py``) at
``--seed``: each workload's first network, run once with ``run_index`` 0
and written with ``write_trace``, as the benchmark's ``evaluate`` and
``curves`` operations load them.

``benchmarks/pairs.py`` runs the pairs and reports. A process generates and
writes the traces untimed, then takes the best of ``REPEAT`` timed
``load_trace`` calls per trace; its digest is the sha256 over the loaded
columns (dtype and bytes of each), so that the loads are checked to agree in
the same run.
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
# Timed loads per trace and process; the best of them counts
REPEAT = 5


def worker(seed: int) -> None:
    """Write and load every workload's trace with the stancecast on
    ``sys.path``; print one JSON object {workload: [best seconds, column
    sha256]}."""
    import stancecast as sc
    from stancecast import io_formats
    from stancecast.engine import _EVENT_DTYPES

    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import STANCE_MIX, WORKLOADS

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, w in WORKLOADS.items():
            network = seed * w.datasets  # the workload's first network
            bundle = io_formats.generate_synthetic(
                w.nodes, w.edges, w.topics, STANCE_MIX, network, Path(tmp) / name)
            g, symbols = io_formats.load_graph(bundle.edges_path,
                                               bundle.profiles_path)
            seeds = io_formats.load_seeds(bundle.seeds_path, symbols)
            params = sc.SimParams(rng_seed=network, **w.params)
            trace, _ = sc.run_simulation(g, params, seeds, run_index=0)
            path = Path(tmp) / f"{name}.jsonl"
            io_formats.write_trace(trace, path)
            seconds = []
            for _ in range(REPEAT):
                t0 = time.perf_counter()
                loaded = io_formats.load_trace(path)
                seconds.append(time.perf_counter() - t0)
            digest = hashlib.sha256()
            for column in _EVENT_DTYPES:
                values = getattr(loaded, f"ev_{column}")
                digest.update(values.dtype.str.encode() + values.tobytes())
            out[name] = [min(seconds), digest.hexdigest()]
    print(json.dumps(out))


if __name__ == "__main__":
    main(__doc__, worker, ("--seed", 7, None), "columns")
