#!/usr/bin/env python3
"""Time the dataset loaders of two source trees against each other.

Run from the repository root, with the ``src`` directory of each side:

    python3 benchmarks/loaders.py PARENT_SRC CHANGE_SRC --pairs 11

The configs are the networks of the perfbench workloads
(``perfbench/run.py``) at ``--seed``: each workload's first network, as
``generate_synthetic`` writes it, with a ground-truth file of every node and
topic. A fourth, untidy config is the edges-10k network with each node id
rewritten from ``n`` plus 4 digits to ``user_`` plus 12 digits, wider than
one packed sort key, and a 2,000-character comment line in its edges file.
Its files are ASCII, so the tokenizer reads them as their bytes. A fifth,
non-ASCII config is the untidy copy with each node id spelled ``usér_``
plus 12 digits: it times the same tokenizer over the files' code points
as uint32.

Each config times three stages, each the best of ``REPEAT`` calls:
``setup`` is ``load_graph`` of the edges and profiles plus ``load_seeds``
(what perfbench's ``setup_s`` times), ``profiles`` is ``load_profiles`` and
``truth`` is ``load_ground_truth``, the array-backed load, which builds no
dict. Each stage's digest is the sha256 over what it loaded: the graph's
arrays, the symbol tables, the seeds and the truth's items in file order,
so that the loads are checked to agree in the same run.
``benchmarks/pairs.py`` runs the pairs and reports.
"""

from __future__ import annotations

import re
from pathlib import Path

from pairs import best, main, networks, sha256

# Timed calls per stage and process; the best of them counts
REPEAT = 5
GRAPH_ARRAYS = ("indptr", "indices", "in_indptr", "in_indices", "profiles")


def untidy(bundle, out_dir: Path, prefix: str = "user_"):
    """A copy of ``bundle``'s files in ``out_dir`` with every node id
    ``n<digits>`` rewritten to ``prefix`` plus 12 digits, and a
    2,000-character comment line after the edges file's header."""
    out_dir.mkdir()
    paths = []
    for path in (bundle.edges_path, bundle.profiles_path, bundle.seeds_path):
        text = re.sub(r"\bn(\d+)\b", lambda m: f"{prefix}{int(m[1]):012d}",
                      path.read_text(encoding="utf-8"))
        if path == bundle.edges_path:
            header, rest = text.split("\n", 1)
            text = f"{header}\n#{'c' * 2000}\n{rest}"
        paths.append(out_dir / path.name)
        paths[-1].write_text(text, encoding="utf-8")
    return type(bundle)(*paths)


def worker(seed: int, tmp) -> dict:
    """{"<config> <stage>": [best seconds, sha256]} of every config's loads,
    made with the stancecast on ``sys.path``."""
    from stancecast import io_formats

    def setup(bundle):
        g, symbols = io_formats.load_graph(bundle.edges_path,
                                           bundle.profiles_path)
        return g, symbols, io_formats.load_seeds(bundle.seeds_path, symbols)

    bundles = {name: bundle for name, (_, _, bundle)
               in networks(seed, tmp).items()}
    bundles["edges-10k untidy"] = untidy(bundles["edges-10k"], tmp / "untidy")
    bundles["edges-10k non-ascii"] = untidy(
        bundles["edges-10k"], tmp / "non-ascii", prefix="usér_")
    out = {}
    for name, bundle in bundles.items():
        truth_path = tmp / f"{name}-truth.csv"
        g, symbols, _ = setup(bundle)
        io_formats.write_ground_truth(
            truth_path, {(u, j): float(g.profiles[u, j])
                         for u in range(g.n) for j in range(g.z)}, symbols)

        seconds, (g, symbols, seeds) = best(lambda: setup(bundle), REPEAT)
        out[f"{name} setup"] = [seconds, sha256(
            *(getattr(g, a) for a in GRAPH_ARRAYS), symbols.node_ids,
            symbols.topic_ids, [[j, list(s.items())] for j, s in seeds.items()])]
        seconds, (initial, symbols) = best(
            lambda: io_formats.load_profiles(bundle.profiles_path), REPEAT)
        out[f"{name} profiles"] = [seconds, sha256(
            initial, symbols.node_ids, symbols.topic_ids)]
        seconds, truth = best(
            lambda: io_formats.load_ground_truth(truth_path, symbols), REPEAT)
        out[f"{name} truth"] = [seconds, sha256(list(truth.items()))]
    return out


if __name__ == "__main__":
    main(__doc__, worker, ("--seed", 7, None), "loads")
