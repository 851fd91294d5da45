#!/usr/bin/env python3
"""Time the stages of the CLI pipeline of two source trees against each
other. It has three stages so far: generate, simulate and evaluate.

Run from the repository root, with the ``src`` directory of each side:

    python3 benchmarks/pipeline.py PARENT_SRC CHANGE_SRC --pairs 11

The configs are two baseline bundles, n = 4,005 nodes with m = 16,000
edges and n = 12,000 with m = 48,000, and a scaling tier, n = 24,000 and
n = 36,000 with m = 4n: each with z = 3 topics, stance mix
``[0.85, 0.07, 0.04, 0.04]`` and generator seed 7. The draws of the
36,000-node bundle include a raw value that numpy's bounded draw rejects.

``benchmarks/pairs.py`` runs the pairs and reports. A process takes the best
of ``--repeat`` timed calls per config and stage:

* generate: ``generate_synthetic``, the library call that ``generate``
  makes; its digest is the sha256 over the three bundle files, so that both
  trees are checked to write the same bundles.
* simulate: ``run_simulation`` on the bundle, loaded untimed, with
  ``rounds_K`` 20, ``rng_seed`` 7 (what ``generate`` writes into
  ``config.json``) and run index 0; its digest is the sha256 over the event
  columns' bytes in the order round, topic, node, old, new, source, p,
  channel, so that both trees are checked to emit the same events.
* evaluate, on the two baseline bundles only: the library calls that
  ``evaluate`` makes, ``load_profiles``, ``load_trace``, ``replay_trace``,
  ``load_ground_truth``, ``accuracy_report`` and the write of the report.
  Its inputs are made untimed: the simulate stage's trace, written before
  it is dropped, and a truth file of every node and topic from run index
  1's final state, as perfbench makes its truth file. Its digest is the
  sha256 of the report, so that both trees are checked to score alike.
"""

from __future__ import annotations

import json

from pairs import best, main, sha256

BASELINE = ((4005, 16_000), (12_000, 48_000))
SCALING = ((24_000, 96_000), (36_000, 144_000))  # generate and simulate only
TOPICS = 3
STANCE_MIX = [0.85, 0.07, 0.04, 0.04]
SEED = 7
ROUNDS = 20
COLUMNS = ("round", "topic", "node", "old", "new", "source", "p", "channel")


def worker(repeat: int, tmp) -> dict:
    """{"n=<nodes> <stage>": [best seconds, digest]} of every config and
    stage, run with the stancecast on ``sys.path``."""
    from stancecast import engine, io_formats, metrics
    from stancecast.params import SimParams

    def evaluate(profiles_path, trace_path, truth_path, report_path):
        initial, symbols = io_formats.load_profiles(profiles_path)
        final = metrics.replay_trace(initial, io_formats.load_trace(trace_path))
        truth = io_formats.load_ground_truth(truth_path, symbols)
        report = metrics.accuracy_report(final, truth,
                                         topic_names=list(symbols.topic_ids))
        io_formats._atomic_write(report_path,
                                 json.dumps(report, indent=2) + "\n")

    params = SimParams(rounds_K=ROUNDS, rng_seed=SEED)
    out = {}
    for n, m in BASELINE + SCALING:
        seconds, bundle = best(lambda: io_formats.generate_synthetic(
            n, m, TOPICS, STANCE_MIX, SEED, tmp / f"n{n}"), repeat)
        out[f"n={n} generate"] = [seconds, sha256(*(
            path.read_bytes() for path in (bundle.edges_path,
                                           bundle.profiles_path,
                                           bundle.seeds_path)))]
        g, symbols = io_formats.load_graph(bundle.edges_path,
                                           bundle.profiles_path)
        seeds = io_formats.load_seeds(bundle.seeds_path, symbols)
        seconds, (trace, _state) = best(
            lambda: engine.run_simulation(g, params, seeds, 0), repeat)
        out[f"n={n} simulate"] = [seconds, sha256(*(
            getattr(trace, f"ev_{name}").tobytes() for name in COLUMNS))]
        if (n, m) in SCALING:
            del trace
            continue
        trace_path, truth_path, report_path = (
            tmp / f"n{n}" / name
            for name in ("trace.jsonl", "truth.csv", "report.json"))
        io_formats.write_trace(trace, trace_path)
        del trace
        final = engine.run_simulation(g, params, seeds, 1)[1].profiles
        io_formats.write_ground_truth(
            truth_path, {(u, j): float(final[u, j]) for u in range(g.n)
                         for j in range(g.z)}, symbols)
        seconds, _ = best(lambda: evaluate(bundle.profiles_path, trace_path,
                                           truth_path, report_path), repeat)
        out[f"n={n} evaluate"] = [seconds, sha256(report_path.read_bytes())]
    return out


if __name__ == "__main__":
    main(__doc__, worker, ("--repeat", 3, 1), "outputs")
