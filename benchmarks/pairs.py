"""Fresh-process pairs of two source trees, for the scripts in this directory.

Each script runs itself with ``--worker`` and the ``src`` directory of one
side on ``PYTHONPATH``; the worker prints one JSON object as its last line.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_side(script: str, src: str, argv: list) -> dict:
    """The last line of ``script --worker *argv``, run with ``src`` as the
    package path, parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    done = subprocess.run([sys.executable, script, "--worker", *map(str, argv)],
                          env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def run_pairs(script: str, srcs: dict, pairs: int, argv: list, progress) -> dict:
    """{side: [worker result per pair]}: ``pairs`` pairs of one worker per
    side, alternating which side goes first; ``progress(runs)`` gives the
    line that reports each pair on standard error."""
    runs = {name: [] for name in SIDES}
    for i in range(pairs):
        for name in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[name].append(run_side(script, srcs[name], argv))
        print(f"pair {i + 1}/{pairs}: " + progress(runs), file=sys.stderr)
    return runs


def quartiles(xs):
    """(median, interquartile range) of ``xs``."""
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q2, q3 - q1


def compare(runs: dict, key: str) -> dict:
    """Per side, the (median, IQR) of ``runs``' seconds under ``key`` and
    the set of its digests; and the pairs the change won (ties count for
    neither), and whether every digest of both sides is the same."""
    secs = {name: [r[key][0] for r in runs[name]] for name in SIDES}
    digests = {name: {r[key][1] for r in runs[name]} for name in SIDES}
    return {"stats": {name: quartiles(secs[name]) for name in SIDES},
            "digests": digests,
            "won": sum(c < p for p, c in zip(secs["parent"], secs["change"])),
            "same": len(digests["parent"]) == 1
            and digests["parent"] == digests["change"]}
