#!/usr/bin/env python3
"""Time ``load_trace`` of two source trees against each other.

Run from the repository root, with the ``src`` directory of each side:

    python3 benchmarks/trace_load.py PARENT_SRC CHANGE_SRC --pairs 11

The traces are those of the perfbench workloads (``perfbench/run.py``) at
``--seed``: each workload's first network, run once with ``run_index`` 0
and written with ``write_trace``, as the benchmark's ``evaluate`` and
``curves`` operations load them.

Each pair runs both sides in a fresh process each, alternating which side
goes first. A process generates and writes the traces untimed, then takes
the best of ``REPEAT`` timed ``load_trace`` calls per trace. The report
gives, per workload, each side's median and interquartile range of those
seconds, the pairs the change won (ties count for neither), and each side's
sha256 over the loaded columns (dtype and bytes of each), so that the loads
are checked to agree in the same run.
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
                         f"{w} {runs['parent'][-1][w][0] * 1e3:.1f}/"
                         f"{runs['change'][-1][w][0] * 1e3:.1f} ms"
                         for w in runs["parent"][-1]))
    print("workload  parent median (IQR)  change median (IQR)  change won")
    for w in runs["parent"][0]:
        result = compare(runs, w)
        (pm, piqr), (cm, ciqr) = (result["stats"][name] for name in SIDES)
        print(f"{w}  {pm * 1e3:.1f} ms ({piqr * 1e3:.1f})  "
              f"{cm * 1e3:.1f} ms ({ciqr * 1e3:.1f})  {result['won']}/{args.pairs}")
        for name in SIDES:
            print(f"    {name} column sha256 "
                  f"{' '.join(sorted(result['digests'][name]))}")
        print(f"    columns {'identical' if result['same'] else 'DIFFER'}")


if __name__ == "__main__":
    main()
