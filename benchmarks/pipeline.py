#!/usr/bin/env python3
"""Time the stages of the CLI pipeline of two source trees against each
other. It has one stage so far: generate.

Run from the repository root, with the ``src`` directory of each side:

    python3 benchmarks/pipeline.py PARENT_SRC CHANGE_SRC --pairs 11

The configs are two baseline bundles, n = 4,005 nodes with m = 16,000
edges and n = 12,000 with m = 48,000, and a scaling tier, n = 24,000 and
n = 36,000 with m = 4n: each with z = 3 topics, stance mix
``[0.85, 0.07, 0.04, 0.04]`` and generator seed 7. The draws of the
36,000-node bundle include a raw value that numpy's bounded draw rejects.

``benchmarks/pairs.py`` runs the pairs and reports. A process takes the best
of ``--repeat`` timed ``generate_synthetic`` calls per config, the library
call that ``generate`` makes; its digest is the sha256 over the three bundle
files, so that both trees are checked to write the same bundles.
"""

from __future__ import annotations

from pairs import best, main, sha256

CONFIGS = ((4005, 16_000), (12_000, 48_000), (24_000, 96_000),
           (36_000, 144_000))
TOPICS = 3
STANCE_MIX = [0.85, 0.07, 0.04, 0.04]
SEED = 7


def worker(repeat: int, tmp) -> dict:
    """{"n=<nodes> generate": [best seconds, bundle sha256]} of every config,
    generated with the stancecast on ``sys.path``."""
    from stancecast import io_formats

    out = {}
    for n, m in CONFIGS:
        seconds, bundle = best(lambda: io_formats.generate_synthetic(
            n, m, TOPICS, STANCE_MIX, SEED, tmp / f"n{n}"), repeat)
        out[f"n={n} generate"] = [seconds, sha256(*(
            path.read_bytes() for path in (bundle.edges_path,
                                           bundle.profiles_path,
                                           bundle.seeds_path)))]
    return out


if __name__ == "__main__":
    main(__doc__, worker, ("--repeat", 3, 1), "outputs")
