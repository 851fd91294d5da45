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

from pairs import best, main, networks, sha256

# Timed loads per trace and process; the best of them counts
REPEAT = 5


def worker(seed: int, tmp) -> dict:
    """{workload: [best seconds, column sha256]} of every workload's trace,
    written and loaded with the stancecast on ``sys.path``."""
    import stancecast as sc
    from stancecast import io_formats
    from stancecast.engine import _EVENT_DTYPES

    out = {}
    for name, (w, network, bundle) in networks(seed, tmp).items():
        g, symbols = io_formats.load_graph(bundle.edges_path,
                                           bundle.profiles_path)
        seeds = io_formats.load_seeds(bundle.seeds_path, symbols)
        params = sc.SimParams(rng_seed=network, **w.params)
        trace, _ = sc.run_simulation(g, params, seeds, run_index=0)
        path = tmp / f"{name}.jsonl"
        io_formats.write_trace(trace, path)
        seconds, loaded = best(lambda: io_formats.load_trace(path), REPEAT)
        out[name] = [seconds, sha256(*(getattr(loaded, f"ev_{column}")
                                       for column in _EVENT_DTYPES))]
    return out


if __name__ == "__main__":
    main(__doc__, worker, ("--seed", 7, None), "columns")
