"""Fresh-process pairs of two source trees: the one driver and fixture of the
scripts in this directory.

A script keeps its configs and a ``worker(value, tmp)`` that runs them with
the stancecast on ``sys.path``, in the scratch directory ``tmp``, and returns
{config: [seconds, digest]}; it calls :func:`main`, which runs the script
again with ``--worker`` and the ``src`` directory of one side on
``PYTHONPATH``. The worker builds its inputs with :func:`networks`, times its
calls with :func:`best` and makes its digests with :func:`sha256`.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
ROOT = Path(__file__).resolve().parent.parent


def networks(seed: int, out_dir: Path) -> dict:
    """{workload: (workload, network seed, bundle)} for each perfbench
    workload (``perfbench/run.py``) at ``seed``: its first network, seed
    ``seed * w.datasets``, as ``generate_synthetic`` writes it to
    ``out_dir / workload``."""
    from stancecast import io_formats

    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import STANCE_MIX, WORKLOADS

    out = {}
    for name, w in WORKLOADS.items():
        network = seed * w.datasets
        out[name] = w, network, io_formats.generate_synthetic(
            w.nodes, w.edges, w.topics, STANCE_MIX, network, out_dir / name)
    return out


def best(call, repeat: int):
    """(best seconds of ``repeat`` calls of ``call``, its last result). A
    call's result is dropped before the next call, so that two are never
    alive together."""
    seconds = []
    for _ in range(repeat):
        result = None
        t0 = time.perf_counter()
        result = call()
        seconds.append(time.perf_counter() - t0)
    return min(seconds), result


def sha256(*parts) -> str:
    """The sha256 over ``parts``: ``bytes`` as they are, an array by its
    dtype and bytes, anything else as JSON."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            digest.update(part)
        elif hasattr(part, "tobytes"):
            digest.update(part.dtype.str.encode() + part.tobytes())
        else:
            digest.update(json.dumps(part).encode())
    return digest.hexdigest()


def run_side(script: str, src: str, argv: list) -> dict:
    """The last line of ``script --worker *argv``, run with ``src`` as the
    package path, parsed as JSON. The worker's standard error passes
    through, so a failing worker's traceback shows; its failure ends this
    process with status 1."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    done = subprocess.run([sys.executable, script, "--worker", *map(str, argv)],
                          env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode:
        sys.exit(f"{script}: the worker on {src} exited with status "
                 f"{done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_pairs(script: str, srcs: dict, pairs: int, argv: list) -> dict:
    """{side: [worker result per pair]}: ``pairs`` pairs of one worker per
    side, alternating which side goes first; each pair's milliseconds per
    config go to standard error."""
    runs = {name: [] for name in SIDES}
    for i in range(pairs):
        for name in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[name].append(run_side(script, srcs[name], argv))
        parent, change = (runs[name][-1] for name in SIDES)
        print(f"pair {i + 1}/{pairs}: " + "  ".join(
            f"{key} {parent[key][0] * 1e3:.1f}/{change[key][0] * 1e3:.1f} ms"
            for key in parent), file=sys.stderr)
    return runs


def quartiles(xs):
    """(median, interquartile range) of ``xs``."""
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q2, q3 - q1


def report(runs: dict, word: str) -> None:
    """Print, per config, each side's median and interquartile range of
    ``runs``' seconds, the pairs the change won (ties count for neither),
    each side's digests, and ``<word> identical`` when every digest of both
    sides is the same (``<word> DIFFER`` otherwise)."""
    pairs = len(runs["parent"])
    print("config  parent median (IQR)  change median (IQR)  change won")
    for key in runs["parent"][0]:
        secs = {name: [r[key][0] for r in runs[name]] for name in SIDES}
        digests = {name: sorted({r[key][1] for r in runs[name]})
                   for name in SIDES}
        won = sum(c < p for p, c in zip(secs["parent"], secs["change"]))
        (pm, piqr), (cm, ciqr) = (quartiles(secs[name]) for name in SIDES)
        print(f"{key}  {pm * 1e3:.1f} ms ({piqr * 1e3:.1f})  "
              f"{cm * 1e3:.1f} ms ({ciqr * 1e3:.1f})  {won}/{pairs}")
        for name in SIDES:
            print(f"    {name} sha256 {' '.join(digests[name])}")
        same = len(digests["parent"]) == 1 and digests["parent"] == digests["change"]
        print(f"    {word} {'identical' if same else 'DIFFER'}")


def main(doc: str, worker, option: tuple, word: str) -> None:
    """The command line of a script: ``PARENT_SRC CHANGE_SRC [--pairs N]``
    runs ``worker`` in :func:`run_pairs` and prints the :func:`report` with
    ``word``; the hidden ``--worker`` calls ``worker`` in this process and
    prints its result as one JSON line. ``option`` is the script's one
    integer option, (flag, default, least value or None), and ``worker``
    gets its value and a scratch directory."""
    flag, default, least = option
    ap = argparse.ArgumentParser(
        description=doc, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent_src", nargs="?")
    ap.add_argument("change_src", nargs="?")
    ap.add_argument("--pairs", type=int, default=11)
    ap.add_argument(flag, type=int, default=default)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    value = getattr(args, flag[2:])
    if least is not None and value < least:
        ap.error(f"{flag} must be at least {least}")
    if args.worker:
        with tempfile.TemporaryDirectory() as tmp:
            print(json.dumps(worker(value, Path(tmp))))
        return
    srcs = {"parent": args.parent_src, "change": args.change_src}
    if None in srcs.values():
        ap.error("give the parent's and the change's src directories")
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for the quartiles")
    for src in srcs.values():
        # without it the worker would import any installed stancecast
        if not (Path(src) / "stancecast" / "__init__.py").is_file():
            ap.error(f"{src} holds no stancecast/__init__.py")
    report(run_pairs(inspect.getfile(worker), srcs, args.pairs,
                     [flag, value]), word)
