"""Command-line interface: simulate, baseline-ic, generate, evaluate, curves.

Exit codes: 0 success, 1 user/input error, 2 internal invariant violation.
All file formats are described in README.md; all randomness flows from the
config's rng_seed (or --run-seed-base / --seed overrides), never from the
clock.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np

from . import engine, ic, io_formats, metrics
from .errors import (EmptySeedsWarning, ParseError, RangeViolationError,
                     StancecastError, SummaryMismatchError)


def _trace_path(base, run_index: int, runs: int) -> Path:
    base = Path(base)
    if runs == 1:
        return base
    return base.with_name(f"{base.stem}.run{run_index:03d}{base.suffix}")


def _at_least(minimum: int, **counts) -> None:
    """Reject a count option below ``minimum`` as an input error (exit 1)."""
    for name, value in counts.items():
        if value < minimum:
            raise StancecastError(f"--{name} must be at least {minimum}, got {value}")


def _option_error(option: str, exc: RangeViolationError) -> StancecastError:
    """A library's range error as an error of the option that set the value."""
    return StancecastError(f"{option} = {exc.value!r} outside allowed {exc.allowed}")


def _simulate_one(graph, params, seeds, out_path,
                  run_index: int) -> list[engine.RoundSummary]:
    """Run one seeded simulation and write its trace; returns the final
    round's summaries."""
    with warnings.catch_warnings():
        # a run without a known stance had no seeds row, and the seeds
        # loader has warned of that once already
        warnings.simplefilter("ignore", EmptySeedsWarning)
        trace, _state = engine.run_simulation(graph, params, seeds, run_index)
    io_formats.write_trace(trace, out_path)
    return [s for s in trace.round_summaries if s.round == params.rounds_K]


def _run_share(graph, params, seeds, out_trace, runs: int, first: int, step: int):
    """Runs ``first``, ``first + step``, ... of a batch of ``runs``, in order.

    Returns the final-round summaries of each run up to the first failing
    one, and that run's (index, exception), or None when every run succeeded.
    """
    done = []
    for i in range(first, runs, step):
        try:
            done.append(_simulate_one(graph, params, seeds,
                                      _trace_path(out_trace, i, runs), i))
        except Exception as exc:
            return done, (i, exc)
    return done, None


def _send_share(send, *share) -> None:
    """A forked worker: send :func:`_run_share`'s result to the parent. A
    failing run's traceback goes along as a note, since an exception pickles
    without it."""
    done, failure = _run_share(*share)
    if failure is not None:
        exc = failure[1]
        exc.__notes__ = [*getattr(exc, "__notes__", ()),
                         "".join(traceback.format_exception(exc)).rstrip()]
    with send:
        send.send((done, failure))


def _receive(receive):
    """What a worker sent, or None when it exited without sending."""
    try:
        return receive.recv()
    except EOFError:
        return None


def _cmd_simulate(args) -> int:
    _at_least(1, runs=args.runs, workers=args.workers)
    params = io_formats.load_config(args.config)
    if args.run_seed_base is not None:
        try:
            params = params.with_seed(args.run_seed_base).validate()
        except RangeViolationError as exc:
            raise _option_error("--run-seed-base", exc) from None
    graph, symbols = io_formats.load_graph(args.graph, args.profiles)
    seeds = io_formats.load_seeds(args.seeds, symbols)
    # share k holds runs k, k + W, ...; the parent runs share 0 and a forked
    # child, which inherits the loaded inputs, each other share
    workers = min(args.workers, args.runs)
    batch = (graph, params, seeds, args.out_trace, args.runs)
    children = []
    try:
        for k in range(1, workers):
            receive, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.get_context("fork").Process(
                target=_send_share, args=(send, *batch, k, workers))
            child.start()
            send.close()
            children.append((child, receive))
        shares = [_run_share(*batch, 0, workers)]
        shares += [_receive(receive) for _, receive in children]
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receive in children:
            child.join()
            receive.close()
    for (child, _), share in zip(children, shares[1:]):
        if share is None:
            raise RuntimeError(f"a simulate worker exited with code "
                               f"{child.exitcode} before sending its runs")
    # the lowest-numbered failing run is the one a serial batch stops at
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    for i in range(args.runs):
        for s in shares[i % workers][0][i // workers]:
            print(f"run {i} topic {symbols.topic_ids[s.topic]}: "
                  f"unknown={s.unknown} oppose={s.oppose} neutral={s.neutral} "
                  f"support={s.support}")
    return 0


def _cmd_baseline_ic(args) -> int:
    _at_least(1, runs=args.runs)
    graph, symbols = io_formats.load_graph(args.graph, None, args.seeds)
    seed_nodes = io_formats.load_seed_nodes(args.seeds, symbols)
    degree = np.diff(graph.indptr) + np.diff(graph.in_indptr)
    isolated = np.count_nonzero(degree[seed_nodes] == 0)
    if isolated:
        print(f"note: {isolated} seed node(s) lie on no edge; they count as "
              f"active and spread nowhere", file=sys.stderr)
    try:
        params = ic.IcParams(edge_probability=args.p, rng_seed=args.seed).validate()
    except RangeViolationError as exc:
        option = "--seed" if exc.key == "rng_seed" else "--p"
        raise _option_error(option, exc) from None
    mean, counts = ic.mean_final_active(graph, params, seed_nodes, args.runs)
    io_formats._atomic_write(
        args.out,
        json.dumps({"runs": counts, "mean": mean}, separators=(",", ":")) + "\n",
    )
    print(f"mean final active count over {args.runs} runs: {mean}")
    return 0


def _cmd_generate(args) -> int:
    _at_least(0, nodes=args.nodes, edges=args.edges)
    _at_least(1, topics=args.topics)
    try:
        mix = json.loads(args.stance_mix)
    except json.JSONDecodeError as exc:
        print(f"error: --stance-mix is not valid JSON: {exc}", file=sys.stderr)
        return 1
    try:
        # the config's range first: every bundle must load in simulate
        params = io_formats.SimParams(rng_seed=args.seed).validate()
        bundle = io_formats.generate_synthetic(
            args.nodes, args.edges, args.topics, mix, args.seed, args.out_dir
        )
    except RangeViolationError as exc:  # the counts are checked above
        option = {"n": "--nodes", "stance_mix": "--stance-mix"}.get(exc.key,
                                                                  "--seed")
        raise _option_error(option, exc) from None
    config_path = Path(args.out_dir) / "config.json"
    io_formats.write_config(config_path, params)
    for path in (bundle.edges_path, bundle.profiles_path, bundle.seeds_path,
                 config_path):
        print(f"wrote {path}")
    return 0


def _checked_replay(trace_path, replay, *args):
    """Call ``replay`` on a loaded trace; header round summaries that
    disagree with its events are an input error at ``trace_path:1:1``."""
    try:
        return replay(*args)
    except SummaryMismatchError as exc:
        raise ParseError(trace_path, 1, 1, f"trace header {exc}") from None


def _cmd_evaluate(args) -> int:
    initial, symbols = io_formats.load_profiles(args.initial)
    trace = io_formats.load_trace(args.trace)
    final = _checked_replay(args.trace, metrics.replay_trace, initial, trace)
    truth = io_formats.load_ground_truth(args.truth, symbols)
    report = metrics.accuracy_report(final, truth,
                                     topic_names=list(symbols.topic_ids))
    io_formats._atomic_write(args.out_report, json.dumps(report, indent=2) + "\n")
    for topic, scores in report.items():
        print(f"topic {topic}: activation_accuracy={scores['activation_accuracy']} "
              f"stance_accuracy={scores['stance_accuracy']}")
    return 0


def _cmd_curves(args) -> int:
    initial, symbols = io_formats.load_profiles(args.initial)
    trace = io_formats.load_trace(args.trace)
    points = _checked_replay(args.trace, metrics.stance_distribution_curve,
                             trace, initial)
    metrics.write_curves_csv(args.out_csv, points,
                             topic_names=list(symbols.topic_ids))
    print(f"wrote {args.out_csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stancecast",
        description="Topic- and stance-aware cascade simulation over "
                    "directed social networks.",
        epilog="File formats (edge list, profile/seed/truth CSVs, config "
               "JSON, trace JSONL) are documented in README.md.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the stance-aware cascade")
    p.add_argument("--graph", required=True, help="edge list file (TSV)")
    p.add_argument("--profiles", required=True, help="initial profiles CSV")
    p.add_argument("--seeds", required=True, help="seed stance CSV")
    p.add_argument("--config", required=True, help="simulation params JSON")
    p.add_argument("--out-trace", required=True,
                   help="output trace path; run NNN gets suffix .runNNN")
    p.add_argument("--runs", type=int, default=1, help="number of runs")
    p.add_argument("--run-seed-base", type=int, default=None,
                   help="override the config rng_seed; run i uses stream i")
    p.add_argument("--workers", type=int, default=1,
                   help="processes for parallel runs (output matches serial)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("baseline-ic", help="run the vanilla IC baseline")
    p.add_argument("--graph", required=True, help="edge list file (TSV)")
    p.add_argument("--seeds", required=True,
                   help="seed CSV; only the node_id column is used")
    p.add_argument("--p", type=float, required=True,
                   help="uniform activation probability")
    p.add_argument("--runs", type=int, default=1000, help="Monte Carlo runs")
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument("--seed", type=int, default=0, help="rng seed")
    p.set_defaults(func=_cmd_baseline_ic)

    p = sub.add_parser("generate", help="write a synthetic dataset bundle")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--topics", type=int, required=True)
    p.add_argument("--stance-mix", default="[0.9, 0.04, 0.03, 0.03]",
                   help="JSON distribution over (unknown, oppose, neutral, "
                        "support); one list or one per topic")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("evaluate", help="score a trace against ground truth")
    p.add_argument("--trace", required=True, help="trace JSONL path")
    p.add_argument("--initial", required=True, help="initial profiles CSV")
    p.add_argument("--truth", required=True, help="ground truth CSV")
    p.add_argument("--out-report", required=True, help="output report JSON")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("curves", help="emit per-round stance-count curves")
    p.add_argument("--trace", required=True, help="trace JSONL path")
    p.add_argument("--initial", required=True, help="initial profiles CSV")
    p.add_argument("--out-csv", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_curves)
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """Show a warning as one ``warning: <message>`` line on stderr."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except (StancecastError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except Exception:
            traceback.print_exc()
            return 2


if __name__ == "__main__":
    sys.exit(main())
