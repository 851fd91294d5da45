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
Its files are ASCII, so they load on the byte path. A fifth, non-ASCII
config is the untidy copy with each node id spelled ``usér_`` plus 12
digits: its files load on the str path, which it times and checks, and its
comment line is what made that path's edge tokens variable-width
(``StringDType``).

Each config times three stages, each the best of ``REPEAT`` calls:
``setup`` is ``load_graph`` of the edges and profiles plus ``load_seeds``
(what perfbench's ``setup_s`` times), ``profiles`` is ``load_profiles`` and
``truth`` is ``load_ground_truth``. Each stage's digest is the sha256 over
what it loaded: the graph's arrays, the symbol tables, the seeds and the
truth, so that the loads are checked to agree in the same run.
``benchmarks/pairs.py`` runs the pairs and reports.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import tempfile
import time
from pathlib import Path

from pairs import main

ROOT = Path(__file__).resolve().parent.parent
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


def sha256(*parts) -> str:
    """The sha256 over ``parts``: arrays by dtype and bytes, anything else
    as JSON."""
    digest = hashlib.sha256()
    for part in parts:
        if hasattr(part, "tobytes"):
            digest.update(part.dtype.str.encode() + part.tobytes())
        else:
            digest.update(json.dumps(part).encode())
    return digest.hexdigest()


def best(call):
    """(best seconds of ``REPEAT`` calls of ``call``, its last result)."""
    seconds = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        result = call()
        seconds.append(time.perf_counter() - t0)
    return min(seconds), result


def worker(seed: int) -> None:
    """Time every config's loads with the stancecast on ``sys.path``; print
    one JSON object {"<config> <stage>": [best seconds, sha256]}."""
    from stancecast import io_formats

    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import STANCE_MIX, WORKLOADS

    def setup(bundle):
        g, symbols = io_formats.load_graph(bundle.edges_path,
                                           bundle.profiles_path)
        return g, symbols, io_formats.load_seeds(bundle.seeds_path, symbols)

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        bundles = {}
        for name, w in WORKLOADS.items():
            network = seed * w.datasets  # the workload's first network
            bundles[name] = io_formats.generate_synthetic(
                w.nodes, w.edges, w.topics, STANCE_MIX, network, Path(tmp) / name)
        bundles["edges-10k untidy"] = untidy(bundles["edges-10k"],
                                             Path(tmp) / "untidy")
        bundles["edges-10k non-ascii"] = untidy(
            bundles["edges-10k"], Path(tmp) / "non-ascii", prefix="usér_")
        for name, bundle in bundles.items():
            truth_path = Path(tmp) / f"{name}-truth.csv"
            g, symbols, _ = setup(bundle)
            io_formats.write_ground_truth(
                truth_path, {(u, j): float(g.profiles[u, j])
                             for u in range(g.n) for j in range(g.z)}, symbols)

            seconds, (g, symbols, seeds) = best(lambda: setup(bundle))
            out[f"{name} setup"] = [seconds, sha256(
                *(getattr(g, a) for a in GRAPH_ARRAYS), symbols.node_ids,
                symbols.topic_ids, [[j, list(s.items())] for j, s in seeds.items()])]
            seconds, (initial, symbols) = best(
                lambda: io_formats.load_profiles(bundle.profiles_path))
            out[f"{name} profiles"] = [seconds, sha256(
                initial, symbols.node_ids, symbols.topic_ids)]
            seconds, truth = best(
                lambda: io_formats.load_ground_truth(truth_path, symbols))
            out[f"{name} truth"] = [seconds, sha256(list(truth.items()))]
    print(json.dumps(out))


if __name__ == "__main__":
    main(__doc__, worker, ("--seed", 7, None), "loads")
