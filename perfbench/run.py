#!/usr/bin/env python3
"""Benchmark of the stancecast CLI pipeline on generated workloads.

Run from the repository root:

    python3 perfbench/run.py --workload cascade-4k --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 25 --trace 0

One client runs in a closed loop: each operation starts after the previous
one finished. The dataset of a run is written untimed by
``io_formats.generate_synthetic`` from ``--seed``; everything after that goes
through the library calls the CLI makes, or through ``cli.main`` in-process.
With ``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run (see ``perfbench/README.md``). End-to-end
timings are scaled to the speed of a reference machine by a fixed reference
task (see ``Clock``). The last line of standard output is one JSON object; a
fuller record with provenance, deterministic counters, raw samples and spans
goes to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
STANCE_MIX = [0.85, 0.07, 0.04, 0.04]
WORKERS = 2            # processes of the batch run; equals nproc on the reference box
IC_P = 0.1
IC_COVERAGE_RUNS = 10  # baseline-ic runs of the coverage pass
REFERENCE_S = 0.025    # reference_task's seconds on the quiet reference machine
MARGIN_S = 1.0         # reference runs this close to an operation scale it


@dataclass(frozen=True)
class Workload:
    nodes: int
    edges: int
    topics: int
    params: dict       # SimParams overrides; the rest stay at their defaults
    batch_runs: int    # simulate --runs R --workers 2
    ic_runs: int       # cascades per IC sample; three samples per visit
    datasets: int = 1  # generated networks per run, from seeds seed*D .. seed*D+D-1


# Why each workload exists, and which layer it loads, is in README.md and
# in BENCHMARK.json. The sizes keep every timed operation under about a
# second, so that a run takes several samples of each, and keep the work of a
# run steady across seeds. In the steady state the non-adjacent receiver
# sample is r2 times the nodes no spreader reaches, about n * exp(-m/n):
# 10 receivers on 4000 nodes and 12000 edges, where the events of a run
# vary by about 2% between seeds. On 2000 nodes and 5000 edges it is 8 and
# events vary by about 6%, so montecarlo-2k averages over three networks.
WORKLOADS = {
    "cascade-4k": Workload(4000, 12000, 3, {"rounds_K": 4},
                           batch_runs=2, ic_runs=32),
    "edges-10k": Workload(10000, 50000, 2,
                          {"rounds_K": 20, "r1": 0.01, "r2": 0.001},
                          batch_runs=2, ic_runs=16),
    "montecarlo-2k": Workload(2000, 5000, 2, {"rounds_K": 6},
                              batch_runs=16, ic_runs=64, datasets=3),
}


class BenchError(RuntimeError):
    """A timed operation failed, so the run cannot report its metrics."""


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def reference_task() -> float:
    """A fixed task that uses no stancecast code: an interpreter loop over a
    numpy array, text formatting and parsing, and a numpy sort, the kinds of
    work the python kernels and the file formats do. Returns its seconds."""
    import numpy as np

    start = time.perf_counter()
    a = np.arange(30000, dtype=np.float64) * 0.5
    acc = 0.0
    for i in range(30000):
        if a[i] > acc * 0.001:
            acc += a[i]
    lines = [f"{i}\t{v:.6f}" for i, v in enumerate(a[:20000].tolist())]
    acc += sum(float(line.split("\t")[1]) for line in lines)
    np.sort(np.sin(a * 3.0))
    return time.perf_counter() - start


class Clock:
    """Times operations, and how fast the machine ran around them.

    Other tenants of the shared reference machine change its speed by up to
    1.7x within a minute, for longer than a run lasts. So
    :func:`reference_task` runs once at the start and after every timed
    operation. The machine's slowdown around an operation is the median
    time of the reference runs that started within ``MARGIN_S`` of it,
    divided by ``REFERENCE_S``; the median keeps one stalled reference run
    from skewing a sample.
    """

    def __init__(self):
        self.reference: list[tuple[float, float]] = []  # (start, seconds)
        self._tick()

    def _tick(self) -> None:
        self.reference.append((time.perf_counter(), reference_task()))

    def time(self, fn):
        """(start, end, result) of ``fn()``."""
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        self._tick()
        return start, end, result

    def slowdown(self, start: float, end: float) -> float:
        near = [seconds for at, seconds in self.reference
                if start - MARGIN_S <= at <= end + MARGIN_S]
        return statistics.median(near) / REFERENCE_S


def _cli(argv) -> tuple[int, str]:
    """Run ``stancecast`` in-process; returns (exit code, stderr text)."""
    from stancecast import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue().strip()


class Tally:
    """Samples, operations and counters of one benchmark run.

    An operation is one kind of checked step on one network (a run, an
    evaluate, the batch, a CLI subcommand, ...). It is attempted once per
    network however often the timed loop repeats it, and it failed if any
    repeat failed, so ``attempted`` does not depend on the machine's speed.
    """

    def __init__(self):
        self.samples: dict[str, defaultdict] = {}  # per network: metric -> samples
        self.intervals: dict[str, defaultdict] = {}  # the same: (start, end)
        self.clock = Clock()
        self.counters: dict[str, dict] = {}
        self.operations: dict[str, list[str]] = {}  # operation -> problems
        self.mismatch = False

    def record(self, op: str, problems: list[str], mismatch: bool = True) -> None:
        """Count ``op`` as attempted; any problem makes it a failed one."""
        seen = self.operations.setdefault(op, [])
        seen += [p for p in problems if p not in seen]
        if problems:
            self.mismatch = self.mismatch or mismatch

    @property
    def attempted(self) -> int:
        return len(self.operations)

    @property
    def failures(self) -> list[str]:
        return [f"{op}: " + "; ".join(problems)
                for op, problems in self.operations.items() if problems]

    @property
    def failed(self) -> int:
        return len(self.failures)


class Run:
    """One generated network of a workload, with its checks."""

    def __init__(self, name: str, seed: int, work: Path, tally: Tally):
        from stancecast import io_formats

        self.w = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.samples = tally.samples.setdefault(f"seed{seed}", defaultdict(list))
        self.intervals = tally.intervals.setdefault(f"seed{seed}", defaultdict(list))
        self.tally = tally
        self.counters = tally.counters.setdefault(f"seed{seed}", {})
        self.first_trace: dict | None = None
        self.ic_counts: list[int] | None = None
        self.cli_ic_counts: list[int] | None = None
        self.cli_report: bytes | None = None
        self.cli_curves: bytes | None = None

        data = work / "data"
        bundle = io_formats.generate_synthetic(
            self.w.nodes, self.w.edges, self.w.topics, STANCE_MIX, seed, data)
        self.edges = bundle.edges_path
        self.profiles = bundle.profiles_path
        self.seeds = bundle.seeds_path
        self.config = data / "config.json"
        self.truth = data / "truth.csv"
        io_formats.write_config(
            self.config, io_formats.SimParams(rng_seed=seed, **self.w.params))

    def record(self, op: str, problems: list[str], mismatch: bool = True) -> None:
        self.tally.record(f"seed{self.seed} {op}", problems, mismatch)

    # -- the library calls the CLI makes -----------------------------------

    def setup(self):
        """What ``simulate`` pays before it runs anything."""
        from stancecast import io_formats

        params = io_formats.load_config(self.config)
        graph, symbols = io_formats.load_graph(self.edges, self.profiles)
        seeds = io_formats.load_seeds(self.seeds, symbols)
        return params, graph, symbols, seeds

    def simulate(self, params, graph, seeds, path):
        """The rest of ``simulate`` for one run (run_index 0)."""
        from stancecast import engine, io_formats

        trace, state = engine.run_simulation(graph, params, seeds, run_index=0)
        io_formats.write_trace(trace, path)
        return trace, state

    def evaluate(self, trace_path, report_path):
        """The ``evaluate`` command."""
        from stancecast import io_formats, metrics

        initial, symbols = io_formats.load_profiles(self.profiles)
        trace = io_formats.load_trace(trace_path)
        final = metrics.replay_trace(initial, trace)
        truth = io_formats.load_ground_truth(self.truth, symbols)
        report = metrics.accuracy_report(final, truth,
                                         topic_names=list(symbols.topic_ids))
        io_formats._atomic_write(report_path, json.dumps(report, indent=2) + "\n")
        return final

    def curves(self, trace_path, csv_path):
        """The ``curves`` command."""
        from stancecast import io_formats, metrics

        initial, symbols = io_formats.load_profiles(self.profiles)
        trace = io_formats.load_trace(trace_path)
        points = metrics.stance_distribution_curve(trace, initial)
        metrics.write_curves_csv(csv_path, points,
                                 topic_names=list(symbols.topic_ids))
        return trace, points

    def batch(self, workers: int) -> None:
        """``simulate --runs R --workers N`` through ``cli.main``."""
        out = self.work / f"batch-w{workers}" / "trace.jsonl"
        out.parent.mkdir(parents=True, exist_ok=True)
        code, err = _cli([
            "simulate", "--graph", self.edges, "--profiles", self.profiles,
            "--seeds", self.seeds, "--config", self.config,
            "--out-trace", out, "--runs", self.w.batch_runs,
            "--workers", workers])
        if code != 0:
            raise BenchError(f"simulate --runs {self.w.batch_runs} exited {code}: {err}")
        self.batch_dir = out.parent

    def batch_trace(self, run_index: int) -> Path:
        return self.batch_dir / f"trace.run{run_index:03d}.jsonl"

    def write_truth(self) -> None:
        """Truth file: final state of run_index=1 on the same dataset (untimed)."""
        from stancecast import io_formats, metrics

        initial, symbols = io_formats.load_profiles(self.profiles)
        final = metrics.replay_trace(
            initial, io_formats.load_trace(self.batch_trace(1)))
        n, z = final.shape
        io_formats.write_ground_truth(
            self.truth, {(u, j): float(final[u, j]) for u in range(n)
                         for j in range(z)}, symbols)

    # -- checks ------------------------------------------------------------

    def check_trace(self, trace, path) -> list[str]:
        """A run_index=0 trace must equal the batch's run000, byte for byte.

        run000 was written by a worker process, so this checks that parallel
        runs match serial ones. The deterministic counters of the first trace
        checked are recorded, and later ones must repeat them exactly.
        """
        changed = trace.ev_old != trace.ev_new
        adjacent = trace.ev_channel == 0
        found = {
            "trace_sha256": _sha256(path),
            "trace_bytes": os.path.getsize(path),
            "events": int(trace.ev_node.shape[0]),
            "adjacent_messages": int(adjacent.sum()),
            "nonadjacent_messages": int((~adjacent).sum()),
            "adjacent_changes": int((changed & adjacent).sum()),
            "nonadjacent_changes": int((changed & ~adjacent).sum()),
        }
        problems = []
        if found["trace_sha256"] != self.batch_sha:
            problems.append("trace differs from the batch's trace.run000")
        if self.first_trace is None:
            self.first_trace = found
            self.counters.update(found)
        problems += [f"{k} {v} != {self.first_trace[k]}"
                     for k, v in found.items() if v != self.first_trace[k]]
        return problems

    # -- passes ------------------------------------------------------------

    def prepare(self) -> None:
        """Batch run (the first batch sample), truth file and the run000
        reference."""
        self.sample("batch_runs_per_s", lambda: self.batch(WORKERS),
                    per=self.w.batch_runs)
        self.record("batch", [])
        self.batch_sha = _sha256(self.batch_trace(0))
        self.write_truth()

    def coverage(self) -> None:
        """Every subcommand once through ``cli.main`` on this dataset.

        ``simulate`` is covered by :meth:`prepare`. A nonzero exit counts as
        a failed operation; outputs are kept to compare with the timed path.
        """
        cov = self.work / "coverage"
        cov.mkdir()
        run0 = self.batch_trace(0)

        code, err = _cli(["baseline-ic", "--graph", self.edges, "--seeds", self.seeds,
                          "--p", IC_P, "--runs", IC_COVERAGE_RUNS,
                          "--out", cov / "ic.json", "--seed", self.seed])
        if code == 0:
            self.cli_ic_counts = json.loads((cov / "ic.json").read_text())["runs"]
        self.record("cli baseline-ic", [] if code == 0 else [f"exit {code}: {err}"],
                    mismatch=False)

        code, err = _cli(["generate", "--nodes", self.w.nodes, "--edges", self.w.edges,
                          "--topics", self.w.topics, "--stance-mix", json.dumps(STANCE_MIX),
                          "--seed", self.seed, "--out-dir", cov / "generate"])
        problems = [] if code == 0 else [f"exit {code}: {err}"]
        if code == 0:
            problems += [f"{p.name} differs from the dataset"
                         for p in (self.edges, self.profiles, self.seeds)
                         if (cov / "generate" / p.name).read_bytes() != p.read_bytes()]
        self.record("cli generate", problems, mismatch=code == 0)

        code, err = _cli([
            "evaluate", "--trace", run0, "--initial", self.profiles,
            "--truth", self.truth, "--out-report", cov / "report.json"])
        if code == 0:
            self.cli_report = (cov / "report.json").read_bytes()
        self.record("cli evaluate", [] if code == 0 else [f"exit {code}: {err}"],
                    mismatch=False)

        code, err = _cli([
            "curves", "--trace", run0, "--initial", self.profiles,
            "--out-csv", cov / "curves.csv"])
        if code == 0:
            self.cli_curves = (cov / "curves.csv").read_bytes()
        self.record("cli curves", [] if code == 0 else [f"exit {code}: {err}"],
                    mismatch=False)

    def sample(self, metric: str, fn, per: int | None = None):
        """Time ``fn()`` as one sample of ``metric``, a duration, or with
        ``per`` a rate of ``per`` units per second; returns its result."""
        start, end, result = self.tally.clock.time(fn)
        self.samples[metric].append(end - start if per is None else per / (end - start))
        self.intervals[metric].append((start, end))
        return result

    def timed_setup(self):
        loaded = self.sample("setup_s", self.setup)
        self.record("setup", [])
        return loaded

    def timed_ic(self, graph, seed_nodes) -> None:
        """One IC sample: cascades run_index 0..k-1, so every sample repeats."""
        from stancecast import ic

        params = ic.IcParams(edge_probability=IC_P, rng_seed=self.seed).validate()
        _mean, counts = self.sample(
            "ic_runs_per_s",
            lambda: ic.mean_final_active(graph, params, seed_nodes, self.w.ic_runs),
            per=self.w.ic_runs)
        problems = []
        if self.ic_counts is not None and counts != self.ic_counts:
            problems.append("IC counts differ from an earlier sample")
        n = min(len(counts), len(self.cli_ic_counts or ()))
        if counts[:n] != (self.cli_ic_counts or [])[:n]:
            problems.append("IC counts differ from baseline-ic's")
        self.ic_counts = self.ic_counts or counts
        self.counters["ic_final_active_per_sample"] = int(sum(counts))
        self.record("ic", problems)

    def iteration(self, batch: bool) -> None:
        """One closed-loop pass over the workload's operations, checked.

        The setups and the IC samples sit between the longer operations, so
        their medians see the machine over the whole pass.
        """
        from stancecast import io_formats

        params, graph, symbols, seeds = self.timed_setup()
        # The IC graph is loaded as ``simulate`` loads it (edges and
        # profiles), so seed nodes that appear in no edge exist;
        # ``baseline-ic`` itself loads edges only (see coverage).
        seed_nodes = io_formats.load_seed_nodes(self.seeds, symbols)
        self.timed_ic(graph, seed_nodes)
        state = self.timed_run(params, graph, seeds)
        self.timed_setup()
        self.timed_ic(graph, seed_nodes)
        self.timed_evaluate(state)
        self.timed_ic(graph, seed_nodes)
        self.timed_curves(params)

        if batch:
            self.sample("batch_runs_per_s", lambda: self.batch(WORKERS),
                        per=self.w.batch_runs)
            same = _sha256(self.batch_trace(0)) == self.batch_sha
            self.record("batch", [] if same else ["trace.run000 differs from the first batch's"])

    def timed_run(self, params, graph, seeds):
        path = self.work / "trace.jsonl"
        trace, state = self.sample(
            "run_s", lambda: self.simulate(params, graph, seeds, path))
        self.samples["trace_mb"].append(os.path.getsize(path) / 1e6)
        self.record("simulate", self.check_trace(trace, path))
        return state

    def timed_evaluate(self, state) -> None:
        import numpy as np

        report = self.work / "report.json"
        final = self.sample(
            "evaluate_s", lambda: self.evaluate(self.work / "trace.jsonl", report))
        problems = []
        if not np.array_equal(final, state.profiles):
            problems.append("replayed trace differs from the final SimState.profiles")
        if self.cli_report is not None and report.read_bytes() != self.cli_report:
            problems.append("report differs from the CLI's")
        self.record("evaluate", problems)

    def timed_curves(self, params) -> None:
        csv = self.work / "curves.csv"
        loaded, points = self.sample(
            "curves_s", lambda: self.curves(self.work / "trace.jsonl", csv))
        k = params.rounds_K
        last = [(p.topic, p.counts[-1.0], p.counts[0.0], p.counts[0.5], p.counts[1.0])
                for p in points if p.round == k]
        header = [(s.topic, s.unknown, s.oppose, s.neutral, s.support)
                  for s in loaded.round_summaries if s.round == k]
        problems = [] if last == header else ["last curve round differs from the header summaries"]
        if self.cli_curves is not None and csv.read_bytes() != self.cli_curves:
            problems.append("CSV differs from the CLI's")
        self.record("curves", problems)


# -- traced run --------------------------------------------------------------

def _adjacent_counts(args, n_ev):
    # adjacent_pass(indptr, indices, profiles, avals, counts, vadj_row,
    #               spreaders, ..., ev_old, ev_new, ev_p)
    import numpy as np

    indptr, spreaders = args[0], args[6]
    return {"messages": int(n_ev),
            "edges_scanned": int((indptr[spreaders + 1] - indptr[spreaders]).sum()),
            "changes": int(np.count_nonzero(args[-3][:n_ev] != args[-2][:n_ev]))}


def _nadj_counts(args, n_ev):
    # nadj_pass(indptr, indices, profiles, avals, counts, receivers, senders,
    #           ..., ev_old, ev_new, ev_p)
    import numpy as np

    receivers, senders = args[5], args[6]
    return {"messages": int(n_ev), "receivers": int(receivers.shape[0]),
            "senders": int(senders.shape[0]),
            "overlap": int(np.intersect1d(receivers, senders).shape[0]),
            "changes": int(np.count_nonzero(args[-3][:n_ev] != args[-2][:n_ev]))}


def _file_bytes(position):
    return lambda args, _result: {"bytes": os.path.getsize(args[position])}


def install_tracer():
    """Wrap the public functions of each stancecast module (the layers)."""
    from stancecast import cli, engine, ic, io_formats, kernels, metrics, rng
    from tracer import Tracer

    tracer = Tracer()
    tracer.wrap(kernels, "adjacent_pass", "kernels.adjacent_pass", _adjacent_counts)
    tracer.wrap(kernels, "nadj_pass", "kernels.nadj_pass", _nadj_counts)
    tracer.wrap(rng.Rng, "sample", "rng.sample")  # not Rng.random: once per coin flip
    tracer.wrap(engine, "run_simulation", "engine.run_simulation")
    for name in ("load_config", "load_graph", "load_seeds", "load_profiles",
                 "load_ground_truth"):
        tracer.wrap(io_formats, name, f"io_formats.{name}")
    tracer.wrap(io_formats, "build_graph", "graph.build_graph")  # as load_graph sees it
    tracer.wrap(io_formats, "write_trace", "io_formats.write_trace", _file_bytes(1))
    tracer.wrap(io_formats, "load_trace", "io_formats.load_trace", _file_bytes(0))
    tracer.wrap(metrics, "replay_trace", "metrics.replay_trace")
    tracer.wrap(metrics, "stance_distribution_curve", "metrics.curves")
    tracer.wrap(metrics, "accuracy_report", "metrics.accuracy_report")
    tracer.wrap(ic, "run_ic", "ic.run_ic")
    tracer.wrap(cli, "_simulate_one", "cli.simulate_one")
    return tracer


def _mean(total, count):
    return total / count if count else 0.0


def per_layer(tracer, since: int, until: int) -> dict:
    """Per-layer metrics: the iteration's spans lie in [since, until), the
    serial batch's after ``until``."""
    def pick(name, under=None):
        return tracer.select(name, since, until, under)

    def mean_s(name):
        found = pick(name)
        return _mean(tracer.total(found), len(found))

    sims = pick("engine.run_simulation")
    runs = len(sims)  # kernel and rng figures are per run
    adj = pick("kernels.adjacent_pass")
    nadj = pick("kernels.nadj_pass")
    sample = pick("rng.sample", under="engine.run_simulation")
    nadj_s, nadj_msgs = tracer.total(nadj) / runs, tracer.count(nadj, "messages") / runs
    adj_msgs = tracer.count(adj, "messages") / runs
    scanned = tracer.count(adj, "edges_scanned") / runs
    writes, loads = pick("io_formats.write_trace"), pick("io_formats.load_trace")
    graphs = pick("io_formats.load_graph")
    cascades = pick("ic.run_ic")
    in_batch = tracer.select("io_formats.load_graph", until, len(tracer.spans),
                             under="cli.simulate_one")
    return {
        "engine.run_simulation_s": tracer.total(sims) / runs,
        "engine.self_s": sum(tracer.self_time(i) for i in sims) / runs,
        "kernels.nadj_pass_s": nadj_s,
        "kernels.nadj_messages": nadj_msgs,
        "kernels.nadj_us_per_message": _mean(nadj_s * 1e6, nadj_msgs),
        "kernels.nadj_senders_mean": _mean(tracer.count(nadj, "senders"), len(nadj)),
        "kernels.nadj_receivers_mean": _mean(tracer.count(nadj, "receivers"), len(nadj)),
        "kernels.nadj_overlap_mean": _mean(tracer.count(nadj, "overlap"), len(nadj)),
        "kernels.nadj_change_ratio": _mean(tracer.count(nadj, "changes"), nadj_msgs),
        "kernels.adjacent_pass_s": tracer.total(adj) / runs,
        "kernels.adjacent_messages": adj_msgs,
        "kernels.adjacent_edges_scanned": scanned,
        "kernels.adjacent_delivery_ratio": _mean(adj_msgs, scanned),
        "rng.sample_s": tracer.total(sample) / runs,
        "rng.sample_calls": len(sample) / runs,
        "io_formats.write_trace_s": tracer.total(writes) / len(writes),
        "io_formats.write_trace_mb_per_s": _mean(
            tracer.count(writes, "bytes") / 1e6, tracer.total(writes)),
        "io_formats.load_trace_s": mean_s("io_formats.load_trace"),
        "io_formats.load_trace_mb_per_s": _mean(
            tracer.count(loads, "bytes") / 1e6, tracer.total(loads)),
        "io_formats.load_graph_s": _mean(
            sum(tracer.self_time(i) for i in graphs), len(graphs)),
        "graph.build_graph_s": mean_s("graph.build_graph"),
        "io_formats.load_seeds_s": mean_s("io_formats.load_seeds"),
        "io_formats.load_profiles_s": mean_s("io_formats.load_profiles"),
        "io_formats.load_ground_truth_s": mean_s("io_formats.load_ground_truth"),
        "metrics.replay_trace_s": mean_s("metrics.replay_trace"),
        "metrics.curves_s": mean_s("metrics.curves"),
        "metrics.accuracy_report_s": mean_s("metrics.accuracy_report"),
        "ic.run_ic_s": _mean(tracer.total(cascades), len(cascades)),
        "cli.load_graph_calls_per_batch": len(in_batch),
    }


def traced_run(run: Run) -> tuple[dict, list]:
    """Untraced reference numbers first, then one traced iteration and batch."""
    run.prepare()
    parallel_wall = run.w.batch_runs / run.samples["batch_runs_per_s"][0]
    params, graph, _symbols, seeds = run.setup()
    path = run.work / "untraced.jsonl"
    clock = run.tally.clock
    start, end, (trace, _state) = clock.time(
        lambda: run.simulate(params, graph, seeds, path))
    untraced_s = (end - start) / clock.slowdown(start, end)
    run.record("untraced simulate", run.check_trace(trace, path))

    tracer = install_tracer()
    try:
        since = tracer.mark()
        run.iteration(batch=False)
        until = tracer.mark()
        start = time.perf_counter()
        run.batch(workers=1)
        serial_wall = time.perf_counter() - start
    finally:
        tracer.restore()
    layers = per_layer(tracer, since, until)
    layers["cli.batch_parallel_efficiency"] = serial_wall / (WORKERS * parallel_wall)
    # Both runs at the reference machine's speed, as the end-to-end run_s.
    traced_s = run.samples["run_s"][0] / clock.slowdown(*run.intervals["run_s"][0])
    layers["trace_overhead_s"] = traced_s - untraced_s

    # What the kernels returned and wrote must agree with the trace columns.
    runs = len(tracer.select("engine.run_simulation", since, until))
    adj = tracer.select("kernels.adjacent_pass", since, until)
    nadj = tracer.select("kernels.nadj_pass", since, until)
    from_kernels = {
        "adjacent_messages": tracer.count(adj, "messages"),
        "nonadjacent_messages": tracer.count(nadj, "messages"),
        "adjacent_changes": tracer.count(adj, "changes"),
        "nonadjacent_changes": tracer.count(nadj, "changes"),
    }
    run.record("traced counters", [f"kernel {k} {v} != trace {runs} x {run.counters[k]}"
                                   for k, v in from_kernels.items()
                                   if v != runs * run.counters[k]])
    run.counters.update({
        "adjacent_edges_scanned": int(layers["kernels.adjacent_edges_scanned"]),
        "nadj_senders_total": tracer.count(nadj, "senders") // runs,
        "nadj_receivers_total": tracer.count(nadj, "receivers") // runs,
        "nadj_overlap_total": tracer.count(nadj, "overlap") // runs,
        "rng_sample_calls": int(layers["rng.sample_calls"]),
        "load_graph_calls_per_batch": layers["cli.load_graph_calls_per_batch"],
    })
    return layers, tracer.to_json()


# -- entry points ------------------------------------------------------------

def provenance(name: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    from stancecast import kernels

    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "workload_spec": asdict(WORKLOADS[name]), "stance_mix": STANCE_MIX,
        "kernels_backend": kernels.BACKEND,
        "compiled_path_measured": kernels.BACKEND == "numba",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def summarise(tally: Tally, end_to_end: list, scaled: bool = True) -> dict:
    """The median of each metric over all its samples, on every network.

    With ``scaled``, each timing sample is first brought to the reference
    machine's speed: a duration (unit ``s``) is divided by, a rate (``1/s``)
    multiplied by, the slowdown the clock measured around it.
    """
    unit = {m["name"]: m["unit"] for m in end_to_end}
    scale = {"s": lambda v, f: v / f, "1/s": lambda v, f: v * f}

    def values(network, k):
        found = tally.samples[network][k]
        if not scaled or unit[k] not in scale:
            return found
        return [scale[unit[k]](v, tally.clock.slowdown(*interval))
                for v, interval in zip(found, tally.intervals[network][k])]

    return {k: statistics.median(v for network in tally.samples
                                 for v in values(network, k))
            for k in next(iter(tally.samples.values()))}


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload; returns the result line (metric names and units are
    those of BENCHMARK.json)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = WORKLOADS[name]
    work = OUT_DIR / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tally = Tally()
    spans, unscaled = [], {}
    try:
        # The traced run measures the first network only.
        runs = [Run(name, seed * w.datasets + i, work / f"d{i}", tally)
                for i in range(1 if trace else w.datasets)]
        if trace:
            metrics, spans = traced_run(runs[0])
        else:
            for run in runs:
                run.prepare()
            runs[0].coverage()
            # Every network once (its batch sample came from prepare), then
            # round-robin with the batch until the time is up.
            start = time.perf_counter()
            done = 0
            while done < len(runs) or time.perf_counter() - start < seconds:
                runs[done % len(runs)].iteration(batch=done >= len(runs))
                done += 1
            metrics = summarise(tally, spec["end_to_end"])
            unscaled = summarise(tally, spec["end_to_end"], scaled=False)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not tally.mismatch,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if trace else "end_to_end"]},
    }
    record = {
        "provenance": provenance(name, seed, seconds, trace),
        "result": result,
        "error_rate": tally.failed / tally.attempted,
        "failures": tally.failures,
        "counters": tally.counters,
        "samples": tally.samples,
        "intervals": tally.intervals,
        "reference_task": tally.clock.reference,
        "unscaled": unscaled,
        "spans": spans,
    }
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{name}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    prov = record["provenance"]
    print(f"# {name} seed={seed} trace={trace} backend={prov['kernels_backend']} "
          f"nproc={prov['nproc']} python={prov['python']} numpy={prov['numpy']}")
    for k, m in result["metrics"].items():
        n = sum(len(s.get(k, ())) for s in tally.samples.values()) or 1
        print(f"{k:36s} {m['value']:14.6g} {m['unit']:6s} (samples={n})")
    print(f"{'error_rate':36s} {record['error_rate']:14.6g} ratio  "
          f"({tally.failed}/{tally.attempted} operations)")
    for failure in tally.failures:
        print(f"failed: {failure}")
    for network, counters in tally.counters.items():
        for k, v in counters.items():
            print(f"counter {network} {k} = {v}")
    print(f"# record written to {out.relative_to(ROOT)}")
    return result


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is per workload)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, m in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stancecast" / "__init__.py").is_file():
        print(f"perfbench: no stancecast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
