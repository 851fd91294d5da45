import hashlib
import json
import multiprocessing

import numpy as np
import pytest

import stancecast as sc
from stancecast import io_formats, metrics
from stancecast.cli import main


@pytest.fixture
def bundle_dir(tmp_path):
    rc = main([
        "generate", "--nodes", "40", "--edges", "120", "--topics", "2",
        "--stance-mix", "[0.7, 0.12, 0.08, 0.1]", "--seed", "11",
        "--out-dir", str(tmp_path / "data"),
    ])
    assert rc == 0
    return tmp_path / "data"


def simulate_args(bundle, out, extra=()):
    return [
        "simulate",
        "--graph", str(bundle / "edges.tsv"),
        "--profiles", str(bundle / "profiles.csv"),
        "--seeds", str(bundle / "seeds.csv"),
        "--config", str(bundle / "config.json"),
        "--out-trace", str(out),
        *extra,
    ]


def test_generate_writes_bundle(bundle_dir):
    for name in ("edges.tsv", "profiles.csv", "seeds.csv", "config.json"):
        assert (bundle_dir / name).exists()


def test_simulate_deterministic_and_prints_counts(bundle_dir, tmp_path, capsys):
    assert main(simulate_args(bundle_dir, tmp_path / "a.jsonl")) == 0
    out = capsys.readouterr().out
    assert "topic t0:" in out and "unknown=" in out
    assert main(simulate_args(bundle_dir, tmp_path / "b.jsonl")) == 0
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_simulate_multi_run_files(bundle_dir, tmp_path):
    rc = main(simulate_args(bundle_dir, tmp_path / "t.jsonl",
                            ["--runs", "2", "--run-seed-base", "5"]))
    assert rc == 0
    run0 = tmp_path / "t.run000.jsonl"
    run1 = tmp_path / "t.run001.jsonl"
    assert run0.exists() and run1.exists()
    # distinct streams: traces generally differ, but headers share params
    h0 = json.loads(run0.read_text().splitlines()[0])
    h1 = json.loads(run1.read_text().splitlines()[0])
    assert h0["params"]["rng_seed"] == h1["params"]["rng_seed"] == 5


def test_missing_config_key_exit_1(bundle_dir, tmp_path, capsys):
    config = json.loads((bundle_dir / "config.json").read_text())
    del config["lambda"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    args = simulate_args(bundle_dir, tmp_path / "t.jsonl")
    args[args.index("--config") + 1] = str(bad)
    assert main(args) == 1
    assert "lambda" in capsys.readouterr().err
    assert not (tmp_path / "t.jsonl").exists()


def test_evaluate_self_consistent_truth(bundle_dir, tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    assert main(simulate_args(bundle_dir, trace_path)) == 0
    initial, symbols = io_formats.load_profiles(bundle_dir / "profiles.csv")
    trace = io_formats.load_trace(trace_path)
    final = metrics.replay_trace(initial, trace)
    truth = {(v, j): float(final[v, j])
             for v in range(trace.n) for j in range(trace.z)}
    truth_path = tmp_path / "truth.csv"
    io_formats.write_ground_truth(truth_path, truth, symbols)

    report_path = tmp_path / "report.json"
    rc = main([
        "evaluate", "--trace", str(trace_path),
        "--initial", str(bundle_dir / "profiles.csv"),
        "--truth", str(truth_path), "--out-report", str(report_path),
    ])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert set(report) == {"t0", "t1"}
    for scores in report.values():
        assert scores["activation_accuracy"] == 1.0
        assert scores["stance_accuracy"] == 1.0


def test_evaluate_unknown_truth_node_exit_1(bundle_dir, tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    assert main(simulate_args(bundle_dir, trace_path)) == 0
    truth_path = tmp_path / "truth.csv"
    truth_path.write_text(
        "node_id,topic_id,final_stance\nno_such_node,t0,1\n"
    )
    rc = main([
        "evaluate", "--trace", str(trace_path),
        "--initial", str(bundle_dir / "profiles.csv"),
        "--truth", str(truth_path), "--out-report", str(tmp_path / "r.json"),
    ])
    assert rc == 1
    assert "no_such_node" in capsys.readouterr().err


def test_curves_outputs_partition(bundle_dir, tmp_path):
    trace_path = tmp_path / "t.jsonl"
    assert main(simulate_args(bundle_dir, trace_path)) == 0
    csv_path = tmp_path / "curves.csv"
    rc = main([
        "curves", "--trace", str(trace_path),
        "--initial", str(bundle_dir / "profiles.csv"),
        "--out-csv", str(csv_path),
    ])
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "round,topic,unknown,oppose,neutral,support"
    for line in lines[1:]:
        fields = line.split(",")
        assert sum(int(x) for x in fields[2:]) == 40


def test_curves_malformed_trace_exit_1(bundle_dir, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    rc = main([
        "curves", "--trace", str(bad),
        "--initial", str(bundle_dir / "profiles.csv"),
        "--out-csv", str(tmp_path / "c.csv"),
    ])
    assert rc == 1
    assert not (tmp_path / "c.csv").exists()


def simulated_trace_lines(bundle, trace_path):
    assert main(simulate_args(bundle, trace_path)) == 0
    return trace_path.read_text().splitlines()


def run_on_trace(command, bundle, trace_path, tmp_path, initial=None):
    """Run ``evaluate`` or ``curves`` on a trace, with the bundle's profiles
    or ``initial`` as the initial file; returns (exit code, whether the
    output file was written)."""
    _, symbols = io_formats.load_profiles(bundle / "profiles.csv")
    truth_path = tmp_path / "truth.csv"
    io_formats.write_ground_truth(
        truth_path, {(v, j): -1.0 for v in range(40) for j in range(2)}, symbols)
    out = tmp_path / "out"
    extra = (["--truth", str(truth_path), "--out-report", str(out)]
             if command == "evaluate" else ["--out-csv", str(out)])
    initial = initial or bundle / "profiles.csv"
    rc = main([command, "--trace", str(trace_path),
               "--initial", str(initial), *extra])
    return rc, out.exists()


@pytest.mark.parametrize("command", ["evaluate", "curves"])
@pytest.mark.parametrize("node", [9999, -1])
def test_out_of_range_trace_node_exit_1(bundle_dir, tmp_path, capsys,
                                        command, node):
    trace_path = tmp_path / "t.jsonl"
    lines = simulated_trace_lines(bundle_dir, trace_path)
    event = json.loads(lines[1])
    event["node"] = node
    lines[1] = json.dumps(event)
    trace_path.write_text("\n".join(lines) + "\n")
    assert run_on_trace(command, bundle_dir, trace_path, tmp_path) == (1, False)
    assert f"{trace_path}:2:" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["n", "z", "params", "round_summaries"])
@pytest.mark.parametrize("broken", ["missing", "wrong type"])
def test_bad_trace_header_exit_1(bundle_dir, tmp_path, capsys, key, broken):
    trace_path = tmp_path / "t.jsonl"
    lines = simulated_trace_lines(bundle_dir, trace_path)
    header = json.loads(lines[0])
    if broken == "missing":
        del header[key]
    else:
        header[key] = "7"
    lines[0] = json.dumps(header)
    trace_path.write_text("\n".join(lines) + "\n")
    for command in ("evaluate", "curves"):
        assert run_on_trace(command, bundle_dir, trace_path, tmp_path) == \
            (1, False)
        err = capsys.readouterr().err
        assert f"{trace_path}:1:" in err and key in err


def with_round_summaries(trace_path, lines, edit):
    header = json.loads(lines[0])
    edit(header["round_summaries"])
    trace_path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")


@pytest.mark.parametrize("column", range(7))
def test_curves_header_summary_mismatch_exit_1(bundle_dir, tmp_path, capsys,
                                               column):
    trace_path = tmp_path / "t.jsonl"
    lines = simulated_trace_lines(bundle_dir, trace_path)
    row = 2 * column + 1

    def bump(rows):
        rows[row][column] += 1

    with_round_summaries(trace_path, lines, bump)
    capsys.readouterr()
    assert run_on_trace("curves", bundle_dir, trace_path, tmp_path) == (1, False)
    err = capsys.readouterr().err
    assert f"{trace_path}:1:1: trace header round_summaries row {row} is" in err


def test_curves_header_summary_rows_missing_exit_1(bundle_dir, tmp_path,
                                                   capsys):
    trace_path = tmp_path / "t.jsonl"
    lines = simulated_trace_lines(bundle_dir, trace_path)
    with_round_summaries(trace_path, lines, list.pop)
    capsys.readouterr()
    assert run_on_trace("curves", bundle_dir, trace_path, tmp_path) == (1, False)
    err = capsys.readouterr().err
    assert f"{trace_path}:1:1: trace header round_summaries has" in err


@pytest.mark.parametrize("edit", ["bump", "pop"])
def test_evaluate_header_summary_mismatch_exit_1(bundle_dir, tmp_path, capsys,
                                                 edit):
    trace_path = tmp_path / "t.jsonl"
    lines = simulated_trace_lines(bundle_dir, trace_path)

    def bump(rows):
        rows[3][2] += 1

    with_round_summaries(trace_path, lines, bump if edit == "bump" else list.pop)
    capsys.readouterr()
    assert run_on_trace("evaluate", bundle_dir, trace_path, tmp_path) == \
        (1, False)
    err = capsys.readouterr().err
    assert f"{trace_path}:1:1: trace header round_summaries " in err


@pytest.mark.parametrize("command", ["evaluate", "curves"])
@pytest.mark.parametrize("rounds", [-3, 10**9])
def test_trace_header_rounds_beyond_its_summaries_exit_1(
        bundle_dir, tmp_path, capsys, command, rounds):
    """The header's rounds_K sizes the replayed tallies: a negative one, or
    one with more rounds than the header has summary rows, fails at line 1
    before anything is tallied."""
    trace_path = tmp_path / "t.jsonl"
    lines = simulated_trace_lines(bundle_dir, trace_path)
    header = json.loads(lines[0])
    header["params"]["rounds_K"] = rounds
    # without events, no event round is out of range first
    trace_path.write_text(json.dumps(header) + "\n")
    capsys.readouterr()
    assert run_on_trace(command, bundle_dir, trace_path, tmp_path) == (1, False)
    err = capsys.readouterr().err
    assert err.startswith(f"error: {trace_path}:1:1: trace header ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["evaluate", "curves"])
def test_trace_events_out_of_round_order_exit_1(bundle_dir, tmp_path, capsys,
                                                command):
    trace_path = tmp_path / "t.jsonl"
    lines = simulated_trace_lines(bundle_dir, trace_path)
    first, last = json.loads(lines[1]), json.loads(lines[-1])
    assert last["round"] > first["round"]
    lines.insert(1, lines.pop())
    trace_path.write_text("\n".join(lines) + "\n")
    assert run_on_trace(command, bundle_dir, trace_path, tmp_path) == (1, False)
    err = capsys.readouterr().err
    assert f"{trace_path}:3:" in err and "round order" in err


@pytest.mark.parametrize("command", ["evaluate", "curves"])
def test_other_datasets_initial_exit_1(bundle_dir, tmp_path, capsys, command):
    # same shape and ids, other stances: the trace does not replay over it
    other = tmp_path / "other"
    assert main(["generate", "--nodes", "40", "--edges", "120", "--topics",
                 "2", "--stance-mix", "[0.7, 0.12, 0.08, 0.1]", "--seed", "12",
                 "--out-dir", str(other)]) == 0
    trace_path = tmp_path / "t.jsonl"
    simulated_trace_lines(bundle_dir, trace_path)
    capsys.readouterr()
    assert run_on_trace(command, bundle_dir, trace_path, tmp_path,
                        initial=other / "profiles.csv") == (1, False)
    assert "does not replay over this initial state" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "curves"])
def test_duplicate_initial_row_exit_1(bundle_dir, tmp_path, capsys, command):
    trace_path = tmp_path / "t.jsonl"
    simulated_trace_lines(bundle_dir, trace_path)
    rows = (bundle_dir / "profiles.csv").read_text().splitlines()
    node, topic, stance = rows[5].split(",")
    rows.append(f"{node},{topic},{'1' if stance != '1' else '0'}")
    initial = tmp_path / "initial.csv"
    initial.write_text("\n".join(rows) + "\n")
    assert run_on_trace(command, bundle_dir, trace_path, tmp_path,
                        initial=initial) == (1, False)
    err = capsys.readouterr().err
    assert f"{initial}:{len(rows)}:" in err and "duplicate profile row" in err


@pytest.mark.parametrize("bad_line, problem", [
    ("n05\tn05", "self-loop at node 'n05'"),
    ("repeat", "duplicate edge"),
])
@pytest.mark.parametrize("command", ["simulate", "simulate-workers",
                                     "baseline-ic"])
def test_bad_edge_line_exit_1(bundle_dir, tmp_path, capsys, command,
                              bad_line, problem):
    lines = (bundle_dir / "edges.tsv").read_text().splitlines()
    lines.append(lines[3] if bad_line == "repeat" else bad_line)
    edges = tmp_path / "edges.tsv"
    edges.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.jsonl"
    if command == "baseline-ic":
        args = ["baseline-ic", "--graph", str(edges), "--seeds",
                str(bundle_dir / "seeds.csv"), "--p", "0.5", "--runs", "5",
                "--out", str(out)]
    else:
        args = simulate_args(bundle_dir, out)
        args[args.index("--graph") + 1] = str(edges)
        if command == "simulate-workers":
            args += ["--runs", "2", "--workers", "2"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert f"{edges}:{len(lines)}: {problem}" in err
    assert not list(tmp_path.glob("out*"))


class TestBaselineIc:
    def write_path3(self, tmp_path):
        edges = tmp_path / "e.tsv"
        edges.write_text("a\tb\nb\tc\n")
        seeds = tmp_path / "s.csv"
        seeds.write_text("node_id,topic_id,stance\na,t0,1\n")
        return edges, seeds

    def test_p_one_all_reachable(self, tmp_path):
        edges, seeds = self.write_path3(tmp_path)
        out = tmp_path / "ic.json"
        rc = main(["baseline-ic", "--graph", str(edges), "--seeds", str(seeds),
                   "--p", "1.0", "--runs", "50", "--out", str(out)])
        assert rc == 0
        result = json.loads(out.read_text())
        assert result["mean"] == 3.0
        assert all(c == 3 for c in result["runs"])

    def test_p_zero_seeds_only(self, tmp_path):
        edges, seeds = self.write_path3(tmp_path)
        out = tmp_path / "ic.json"
        rc = main(["baseline-ic", "--graph", str(edges), "--seeds", str(seeds),
                   "--p", "0.0", "--runs", "10", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["mean"] == 1.0

    def test_invalid_p_exit_1(self, tmp_path, capsys):
        edges, seeds = self.write_path3(tmp_path)
        rc = main(["baseline-ic", "--graph", str(edges), "--seeds", str(seeds),
                   "--p", "1.5", "--runs", "10",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 1
        assert not (tmp_path / "x.json").exists()

    def test_monte_carlo_mean_near_enumeration(self, tmp_path):
        edges, seeds = self.write_path3(tmp_path)
        out = tmp_path / "ic.json"
        rc = main(["baseline-ic", "--graph", str(edges), "--seeds", str(seeds),
                   "--p", "0.5", "--runs", "4000", "--out", str(out),
                   "--seed", "3"])
        assert rc == 0
        mean = json.loads(out.read_text())["mean"]
        assert abs(mean - 1.75) < 3 * (0.6875 / 4000) ** 0.5

    def test_generated_bundle_with_isolated_seeds(self, tmp_path, capsys):
        # 10 edges on 40 nodes leave most seeds on no edge; the counts must
        # equal those on the graph simulate loads (edges plus profiles)
        data = tmp_path / "data"
        assert main(["generate", "--nodes", "40", "--edges", "10",
                     "--topics", "1", "--seed", "3",
                     "--stance-mix", "[0.5, 0.2, 0.1, 0.2]",
                     "--out-dir", str(data)]) == 0
        capsys.readouterr()
        out = tmp_path / "ic.json"
        rc = main(["baseline-ic", "--graph", str(data / "edges.tsv"),
                   "--seeds", str(data / "seeds.csv"), "--p", "0.5",
                   "--runs", "20", "--out", str(out), "--seed", "4"])
        assert rc == 0
        on_edges = set((data / "edges.tsv").read_text().split())
        seed_names = {line.split(",")[0] for line in
                      (data / "seeds.csv").read_text().splitlines()[1:]}
        isolated = len(seed_names - on_edges)
        assert 0 < isolated < len(seed_names)
        assert f"note: {isolated} seed node(s) lie on no edge" in \
            capsys.readouterr().err
        graph, symbols = io_formats.load_graph(data / "edges.tsv",
                                               data / "profiles.csv")
        seed_nodes = io_formats.load_seed_nodes(data / "seeds.csv", symbols)
        params = sc.IcParams(edge_probability=0.5, rng_seed=4)
        _mean, counts = sc.mean_final_active(graph, params, seed_nodes, 20)
        assert json.loads(out.read_text())["runs"] == counts


def test_generate_infeasible_exit_1(tmp_path, capsys):
    rc = main(["generate", "--nodes", "3", "--edges", "100", "--topics", "1",
               "--out-dir", str(tmp_path / "x")])
    assert rc == 1


def test_bad_stance_mix_exit_1(tmp_path, capsys):
    for mix, allowed in [("[0.5, 0.7, 0, 0]", "non-negative entries summing to 1"),
                         ("[1,0]", "shape (4,) or (1, 4)")]:
        rc = main(["generate", "--nodes", "5", "--edges", "4", "--topics", "1",
                   "--stance-mix", mix, "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: --stance-mix = {json.loads(mix)!r} outside allowed {allowed}\n")


@pytest.mark.parametrize("topics", ["0", "-1"])
def test_generate_without_topics_exit_1(tmp_path, capsys, topics):
    # a bundle without topics has an empty profiles file, so a node on no
    # edge would be lost
    rc = main(["generate", "--nodes", "3", "--edges", "2", "--topics", topics,
               "--seed", "1", "--out-dir", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: --topics must be at least 1, got {topics}\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("option", ["--nodes", "--edges"])
def test_generate_negative_count_exit_1(tmp_path, capsys, option):
    args = {"--nodes": "3", "--edges": "2", option: "-1"}
    rc = main(["generate", *(x for pair in args.items() for x in pair),
               "--topics", "1", "--out-dir", str(tmp_path / "x")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {option} must be at least 0, got -1\n"
    assert not (tmp_path / "x").exists()


def test_generate_more_than_2_32_nodes_exit_1(tmp_path, capsys):
    # numpy draws a bound above 2**32 from another stream, and no id of such
    # a bundle could be written anyway
    rc = main(["generate", "--nodes", str(2**32 + 1), "--edges", "0",
               "--topics", "1", "--out-dir", str(tmp_path / "x")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: --nodes = {2**32 + 1} outside allowed integers <= {2**32}\n")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "2**64"])
def test_generate_seed_outside_config_range_exit_1(tmp_path, capsys, seed):
    # the seed becomes the bundle's config rng_seed, which simulate reads
    rc = main(["generate", "--nodes", "30", "--edges", "60", "--topics", "2",
               f"--seed={seed}", "--out-dir", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --seed = {seed} outside allowed ")
    assert not (tmp_path / "x").exists()


def test_generate_largest_seed_bundle_simulates(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["generate", "--nodes", "30", "--edges", "60", "--topics", "2",
                 "--seed", str(2**64 - 1), "--out-dir", str(data)]) == 0
    assert main(simulate_args(data, tmp_path / "trace.jsonl")) == 0


def test_run_seed_base_outside_config_range_exit_1(bundle_dir, tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    rc = main(simulate_args(bundle_dir, out,
                            ["--run-seed-base", "18446744073709551616"]))
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: --run-seed-base = 18446744073709551616 outside allowed "
        "64-bit integer\n")
    assert not list(tmp_path.glob("trace*"))


@pytest.mark.parametrize("p", ["1.5", "-0.1", "nan"])
def test_baseline_ic_bad_p_exit_1(bundle_dir, tmp_path, capsys, p):
    rc = main(["baseline-ic", "--graph", str(bundle_dir / "edges.tsv"),
               "--seeds", str(bundle_dir / "seeds.csv"), "--p", p,
               "--runs", "3", "--out", str(tmp_path / "ic.json")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: --p = {float(p)!r} outside allowed [0, 1]\n")
    assert not (tmp_path / "ic.json").exists()


def baseline_ic_args(bundle, out, seed):
    return ["baseline-ic", "--graph", str(bundle / "edges.tsv"), "--seeds",
            str(bundle / "seeds.csv"), "--p", "0.3", "--runs", "3",
            "--seed", str(seed), "--out", str(out)]


@pytest.mark.parametrize("seed", [2**64, -(2**63) - 1],
                         ids=["2**64", "below -(2**63)"])
def test_baseline_ic_seed_outside_config_range_exit_1(bundle_dir, tmp_path,
                                                      capsys, seed):
    # the stream would reduce it modulo 2**64 and run another seed
    rc = main(baseline_ic_args(bundle_dir, tmp_path / "ic.json", seed))
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: --seed = {seed} outside allowed 64-bit integer\n")
    assert not (tmp_path / "ic.json").exists()


def test_baseline_ic_largest_seed_runs(bundle_dir, tmp_path):
    out = tmp_path / "ic.json"
    assert main(baseline_ic_args(bundle_dir, out, 2**64 - 1)) == 0
    assert len(json.loads(out.read_text())["runs"]) == 3


@pytest.mark.parametrize("command", ["simulate", "simulate-workers",
                                     "baseline-ic"])
def test_no_seed_stances_warns_in_one_line(tmp_path, capfd, command):
    """The seeds loader's warning is the only one, since a run without a
    known stance is one without seeds rows (workers print to the fd)."""
    data = tmp_path / "data"
    assert main(["generate", "--nodes", "6", "--edges", "8", "--topics", "2",
                 "--stance-mix", "[1, 0, 0, 0]", "--out-dir", str(data)]) == 0
    capfd.readouterr()
    if command == "simulate":
        args = simulate_args(data, tmp_path / "t.jsonl")
    elif command == "simulate-workers":
        args = simulate_args(data, tmp_path / "t.jsonl",
                             ["--runs", "3", "--workers", "2"])
    else:
        args = ["baseline-ic", "--graph", str(data / "edges.tsv"),
                "--seeds", str(data / "seeds.csv"), "--p", "0.5",
                "--runs", "3", "--out", str(tmp_path / "ic.json")]
    assert main(args) == 0
    assert capfd.readouterr().err.splitlines() == [
        f"warning: {data / 'seeds.csv'}: no seed stances"]


def test_internal_error_exit_2(bundle_dir, tmp_path, monkeypatch, capsys):
    def boom(*_args, **_kwargs):
        raise RuntimeError("induced internal failure")

    monkeypatch.setattr("stancecast.cli.engine.run_simulation", boom)
    rc = main(simulate_args(bundle_dir, tmp_path / "t.jsonl"))
    assert rc == 2
    assert "induced internal failure" in capsys.readouterr().err


def test_bad_edge_line_in_a_worker_exit_1(bundle_dir, tmp_path, capsys):
    # the parent loads the inputs, so the error comes before any worker
    lines = (bundle_dir / "edges.tsv").read_text().splitlines()
    lines.append("bad line")
    edges = tmp_path / "edges.tsv"
    edges.write_text("\n".join(lines) + "\n")
    args = simulate_args(bundle_dir, tmp_path / "out.jsonl",
                         ["--runs", "2", "--workers", "2"])
    args[args.index("--graph") + 1] = str(edges)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert f"{edges}:{len(lines)}:1: expected 'source<TAB>target'" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("name", ["profiles.csv", "seeds.csv", "truth.csv"])
def test_blank_field_exit_1(bundle_dir, tmp_path, capsys, name):
    """A field of only whitespace is an empty field at its column."""
    _, symbols = io_formats.load_profiles(bundle_dir / "profiles.csv")
    io_formats.write_ground_truth(
        bundle_dir / "truth.csv",
        {(v, j): -1.0 for v in range(40) for j in range(2)}, symbols)
    trace = tmp_path / "t.jsonl"
    assert main(simulate_args(bundle_dir, trace)) == 0
    capsys.readouterr()
    path = bundle_dir / name
    rows = path.read_text().splitlines()
    node, _topic, stance = rows[2].split(",")
    rows[2] = f"{node}, ,{stance}"
    path.write_text("\n".join(rows) + "\n")
    if name == "truth.csv":
        args = ["evaluate", "--trace", str(trace), "--initial",
                str(bundle_dir / "profiles.csv"), "--truth", str(path),
                "--out-report", str(tmp_path / "out.json")]
    else:
        args = simulate_args(bundle_dir, tmp_path / "out.jsonl")
    assert main(args) == 1
    assert f"{path}:3:2: empty field" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


def test_non_ascii_ids_round_trip(tmp_path, capsys):
    """Ids sort by code point, as ``sorted`` does, and every subcommand
    works on them."""
    ids = ["Émile", "zoë", "Zoe", "a", "ä"]
    data = tmp_path / "data"
    data.mkdir()
    (data / "edges.tsv").write_text(
        "".join(f"{u}\t{v}\n" for u in ids for v in ids if u != v),
        encoding="utf-8")
    stances = ["1", "-1", "0", "-1", "0.5"]
    (data / "profiles.csv").write_text(
        "node_id,topic_id,stance\n" + "".join(
            f"{v},{t},{s}\n" for v, s in zip(ids, stances) for t in ("tö", "T")),
        encoding="utf-8")
    (data / "seeds.csv").write_text(
        "node_id,topic_id,stance\nÉmile,tö,1\nZoe,T,0\n", encoding="utf-8")
    (data / "truth.csv").write_text(
        "node_id,topic_id,final_stance\n" + "".join(
            f"{v},{t},1\n" for v in ids for t in ("tö", "T")), encoding="utf-8")
    io_formats.write_config(data / "config.json",
                            sc.SimParams(rng_seed=3, r1=1.0, r2=0.5))

    _, symbols = io_formats.load_graph(data / "edges.tsv", data / "profiles.csv")
    assert symbols.node_ids == tuple(sorted(ids))
    assert symbols.topic_ids == ("T", "tö")
    _, symbols = io_formats.load_profiles(data / "profiles.csv")
    assert symbols.node_ids == tuple(sorted(ids))

    trace = tmp_path / "t.jsonl"
    assert main(simulate_args(data, trace)) == 0
    assert main(["evaluate", "--trace", str(trace),
                 "--initial", str(data / "profiles.csv"),
                 "--truth", str(data / "truth.csv"),
                 "--out-report", str(tmp_path / "report.json")]) == 0
    assert main(["curves", "--trace", str(trace),
                 "--initial", str(data / "profiles.csv"),
                 "--out-csv", str(tmp_path / "curves.csv")]) == 0
    assert set(json.loads((tmp_path / "report.json").read_text())) == {"T", "tö"}


def test_simulate_loads_inputs_once(bundle_dir, tmp_path, monkeypatch):
    calls = []
    load_graph = io_formats.load_graph

    def counting_load_graph(*args, **kwargs):
        calls.append(args)
        return load_graph(*args, **kwargs)

    monkeypatch.setattr(io_formats, "load_graph", counting_load_graph)
    assert main(simulate_args(bundle_dir, tmp_path / "t.jsonl",
                              ["--runs", "3"])) == 0
    assert len(calls) == 1
    assert len(list(tmp_path.glob("t.run*.jsonl"))) == 3


# the parent runs one share of the runs itself
@pytest.mark.parametrize("runs,started", [(1, 0), (2, 1), (3, 2)])
def test_simulate_starts_no_more_workers_than_runs(bundle_dir, tmp_path,
                                                   monkeypatch, runs, started):
    starts = []
    start = multiprocessing.process.BaseProcess.start

    def counting_start(self):
        starts.append(self)
        return start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        counting_start)
    extra = ["--runs", str(runs)]
    assert main(simulate_args(bundle_dir, tmp_path / "w3.jsonl",
                              extra + ["--workers", "3"])) == 0
    assert len(starts) == started
    assert main(simulate_args(bundle_dir, tmp_path / "w1.jsonl", extra)) == 0
    names = sorted(p.name for p in tmp_path.glob("w3*.jsonl"))
    assert len(names) == runs
    for name in names:
        assert (tmp_path / name).read_bytes() == \
            (tmp_path / name.replace("w3", "w1")).read_bytes()


@pytest.mark.parametrize("blocked", [("t.run001.jsonl", "t.run002.jsonl"),
                                     ("t.run002.jsonl",)])
def test_failing_run_reports_as_serial(bundle_dir, tmp_path, capsys, blocked):
    """A run whose trace path is a directory fails. Under ``--workers 2``
    run 1 falls in the forked child's share and run 2 in the parent's; the
    error is the lowest-numbered failing run's, as under ``--workers 1``,
    and every child is joined even when only the parent's share failed."""
    reports = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        for name in blocked:
            (out / name).mkdir(parents=True)
        reports.append((main(simulate_args(bundle_dir, out / "t.jsonl",
                                           ["--runs", "4", "--workers", workers])),
                        capsys.readouterr().err.replace(str(out), "OUT")))
        assert not list(out.glob("*.tmp"))
        assert multiprocessing.active_children() == []
    assert reports[0] == reports[1]
    code, err = reports[0]
    assert code == 1
    assert err.startswith("error: ") and f"OUT/{blocked[0]}" in err


@pytest.mark.parametrize("name", ["edges.tsv", "profiles.csv", "seeds.csv",
                                  "config.json", "truth.csv", "trace.jsonl"])
def test_non_utf8_input_exit_1(bundle_dir, tmp_path, capsys, name):
    """A byte that is not UTF-8 fails at its line and byte column."""
    trace = bundle_dir / "trace.jsonl"
    assert main(simulate_args(bundle_dir, trace)) == 0
    _, symbols = io_formats.load_profiles(bundle_dir / "profiles.csv")
    io_formats.write_ground_truth(
        bundle_dir / "truth.csv",
        {(v, j): -1.0 for v in range(40) for j in range(2)}, symbols)
    capsys.readouterr()
    path = bundle_dir / name
    lines = path.read_bytes().splitlines(keepends=True)
    # two ASCII bytes and a two-byte character: the bad byte is the fifth
    lines[2] = lines[2][:2] + "é".encode() + b"\xff" + lines[2][2:]
    path.write_bytes(b"".join(lines))
    if name in ("truth.csv", "trace.jsonl"):
        args = ["evaluate", "--trace", str(trace), "--initial",
                str(bundle_dir / "profiles.csv"), "--truth",
                str(bundle_dir / "truth.csv"),
                "--out-report", str(tmp_path / "out.json")]
    else:
        args = simulate_args(bundle_dir, tmp_path / "out.jsonl")
    assert main(args) == 1
    err = capsys.readouterr().err
    assert f"{path}:3:5: byte 0xff is not UTF-8" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("command, option, value", [
    ("simulate", "--runs", "0"),
    ("simulate", "--runs", "-1"),
    ("simulate", "--workers", "0"),
    ("simulate", "--workers", "-2"),
    ("baseline-ic", "--runs", "0"),
])
def test_count_below_one_exit_1(bundle_dir, tmp_path, capsys, command, option,
                                value):
    out = tmp_path / "out.json"
    if command == "baseline-ic":
        args = ["baseline-ic", "--graph", str(bundle_dir / "edges.tsv"),
                "--seeds", str(bundle_dir / "seeds.csv"), "--p", "0.5",
                "--out", str(out)]
    else:
        args = simulate_args(bundle_dir, out)
    assert main(args + [option, value]) == 1
    err = capsys.readouterr().err
    assert f"{option} must be at least 1, got {value}" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("mix", ['"abc"', "[[1, 0, 0, 0], [1, 0]]", '{"a": 1}',
                                 "[1" + "0" * 400 + ", 0, 0, 0]"],
                         ids=["string", "ragged", "object", "overflow"])
def test_non_numeric_stance_mix_exit_1(tmp_path, capsys, mix):
    rc = main(["generate", "--nodes", "5", "--edges", "4", "--topics", "2",
               "--stance-mix", mix, "--out-dir", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--stance-mix = " in err and "shape (4,) or (2, 4)" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command, blocked", [
    (command, blocked)
    for command in ["simulate", "baseline-ic", "generate", "evaluate", "curves"]
    for blocked in ["directory", "no parent"]
    # generate makes its output directory
    if (command, blocked) != ("generate", "no parent")])
def test_failed_output_write_exit_1(bundle_dir, tmp_path, capsys, command,
                                    blocked):
    """An output path that is a directory, or that lies in none, fails at
    the path given, and leaves no temp file beside it."""
    trace_path = tmp_path / "t.jsonl"
    assert main(simulate_args(bundle_dir, trace_path)) == 0
    _, symbols = io_formats.load_profiles(bundle_dir / "profiles.csv")
    truth_path = tmp_path / "truth.csv"
    io_formats.write_ground_truth(
        truth_path, {(v, j): -1.0 for v in range(40) for j in range(2)}, symbols)
    work = tmp_path / "work"
    work.mkdir()
    out = work / ("out" if blocked == "directory" else "nodir/out")
    args = {
        "simulate": simulate_args(bundle_dir, out),
        "baseline-ic": ["baseline-ic", "--graph", str(bundle_dir / "edges.tsv"),
                        "--seeds", str(bundle_dir / "seeds.csv"), "--p", "0.5",
                        "--runs", "3", "--out", str(out)],
        "generate": ["generate", "--nodes", "5", "--edges", "4", "--topics",
                     "1", "--out-dir", str(work)],
        "evaluate": ["evaluate", "--trace", str(trace_path),
                     "--initial", str(bundle_dir / "profiles.csv"),
                     "--truth", str(truth_path), "--out-report", str(out)],
        "curves": ["curves", "--trace", str(trace_path),
                   "--initial", str(bundle_dir / "profiles.csv"),
                   "--out-csv", str(out)],
    }[command]
    if command == "generate":
        out = work / "edges.tsv"
    if blocked == "directory":
        out.mkdir()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.endswith(f": '{out}'\n"), err
    assert not list(tmp_path.rglob("*.tmp"))


FUZZ_BYTES = [b"\x00", b"\xff", b",", b"\t", b'"', b"{"]


def fuzzed(data: bytes, rng) -> bytes:
    """``data`` with one line changed: a byte inserted, the line truncated,
    deleted or duplicated, or one of its delimiters replaced."""
    lines = data.split(b"\n")
    i = int(rng.integers(0, len(lines)))
    line = lines[i]
    k = int(rng.integers(0, len(line) + 1))
    operation = int(rng.integers(0, 5))
    if operation == 0:
        byte = FUZZ_BYTES[int(rng.integers(0, len(FUZZ_BYTES)))]
        lines[i] = line[:k] + byte + line[k:]
    elif operation == 1:
        lines[i] = line[:k]
    elif operation == 2:
        del lines[i]
    elif operation == 3:
        lines.insert(i, line)
    else:
        spots = [j for j in range(len(line)) if line[j:j + 1] in (b"\t", b",", b":")]
        if spots:
            j = spots[int(rng.integers(0, len(spots)))]
            other = [b"\t", b",", b":", b" ", b";"][int(rng.integers(0, 5))]
            lines[i] = line[:j] + other + line[j + 1:]
    return b"\n".join(lines)


def test_fuzzed_inputs_exit_0_or_1(tmp_path, capsys):
    """Seeded mutations of every input file; each command exits 0 or 1
    and prints no traceback."""
    data = tmp_path / "data"
    assert main(["generate", "--nodes", "12", "--edges", "30", "--topics", "2",
                 "--stance-mix", "[0.5, 0.2, 0.1, 0.2]", "--seed", "4",
                 "--out-dir", str(data)]) == 0
    assert main(simulate_args(data, data / "trace.jsonl")) == 0
    profiles = (data / "profiles.csv").read_text()
    (data / "truth.csv").write_text(profiles.replace("stance", "final_stance", 1))
    clean = {path: path.read_bytes() for path in sorted(data.iterdir())}
    out = tmp_path / "out"
    out.mkdir()
    commands = [
        simulate_args(data, out / "t.jsonl"),
        ["baseline-ic", "--graph", str(data / "edges.tsv"), "--seeds",
         str(data / "seeds.csv"), "--p", "0.3", "--runs", "5",
         "--out", str(out / "ic.json")],
        ["curves", "--trace", str(data / "trace.jsonl"), "--initial",
         str(data / "profiles.csv"), "--out-csv", str(out / "c.csv")],
        ["evaluate", "--trace", str(data / "trace.jsonl"), "--initial",
         str(data / "profiles.csv"), "--truth", str(data / "truth.csv"),
         "--out-report", str(out / "r.json")],
    ]
    rng = np.random.default_rng(11)
    capsys.readouterr()
    for case in range(300):
        path = list(clean)[case % len(clean)]
        path.write_bytes(fuzzed(clean[path], rng))
        for args in commands:
            rc = main(args)
            err = capsys.readouterr().err
            assert rc in (0, 1) and "Traceback" not in err, (case, path.name, err)
        path.write_bytes(clean[path])


PINNED_CONFIGS = {
    "default": {},
    "per_round": {"adjacency_memory": "per_round",
                  "initial_persistence_A0": 0, "epsilon_tie": "one"},
}
# sha256 of every output (and of simulate's stdout), recorded before the
# round-summary tally moved into one function; any change to an output
# byte fails here
PINNED_SHA256 = {
    "default": {
        "curves.csv": "34b022c24ef77d2b166918c8632bc9448f15bf61710cd774d13b0312970c2b00",
        "evaluate.stdout": "01cfb9f8cc1a86644d0a5681cc58b23e3c2b1ca148f7034790e708b2acc6381b",
        "many.run000.jsonl": "a7454f933944dde5314943a5e411c407c3128544db139da2c70ee53aa92a2652",
        "many.run001.jsonl": "b4e6f3cfc92ae7efc5610b5f4e8ab3e01e2fcdf9c4c3c3770c993e9b99d27e85",
        "report.json": "f47e5afc29d7bc68e07a82f72fdf1384e775ffd29579195f9d69503a1aa675e2",
        "simulate.stdout": "c3cda01c025a798a552e17930fbd6749fe0e2e92be7b3433aa19bd215e934fa2",
        "simulate_runs.stdout": "9e11b20d71f767ca95434ca46f0598f036d0aef2abba5ce56efe515bbac4bdb7",
        "trace.jsonl": "a7454f933944dde5314943a5e411c407c3128544db139da2c70ee53aa92a2652",
    },
    "per_round": {
        "curves.csv": "f674389507d9a763a4608690c39cfd70c7cde152d62827c6cbeccd28f1a1f905",
        "evaluate.stdout": "83ec0ba3c1530584c01c8c844f19fefa4b9cf66dc1b71ab9ba3e5c18101bfce9",
        "many.run000.jsonl": "4e936e1ecc8b149ad6b275e020d8ff46c5d01f6d961badc851925fa9b1e35403",
        "many.run001.jsonl": "1505c2f1ec3278f79b4953dd2921a5f7c1bddafe7c4a59273777631009004215",
        "report.json": "4e5dfadac2ecf478f2e1be9e1d80830a10858a2599a851c2f2e9e35b4b25df18",
        "simulate.stdout": "90ef5a8a5a5a29d837fb4217c1288b17751368cfda0b54acb37c3614e2ab9bc1",
        "simulate_runs.stdout": "42b1d492ec96238401e404e4228a718176766ee2d974d2b1b9281fdd5274b31c",
        "trace.jsonl": "4e936e1ecc8b149ad6b275e020d8ff46c5d01f6d961badc851925fa9b1e35403",
    },
}


def pipeline_digests(tmp_path, capsys, config_edits) -> dict:
    """Run generate, simulate (plain, and two runs on two workers), curves
    and evaluate on one small bundle; returns each output's sha256."""
    data = tmp_path / "data"
    assert main(["generate", "--nodes", "300", "--edges", "1200", "--topics",
                 "2", "--seed", "7", "--out-dir", str(data)]) == 0
    config = json.loads((data / "config.json").read_text())
    (data / "config.json").write_text(json.dumps({**config, **config_edits}))
    profiles = (data / "profiles.csv").read_text()
    (data / "truth.csv").write_text(profiles.replace("stance", "final_stance", 1))
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    stdout = {}
    for name, args in [
        ("simulate", simulate_args(data, out / "trace.jsonl")),
        ("simulate_runs", simulate_args(data, out / "many.jsonl",
                                        ["--runs", "2", "--workers", "2"])),
        ("curves", ["curves", "--trace", str(out / "trace.jsonl"), "--initial",
                    str(data / "profiles.csv"), "--out-csv",
                    str(out / "curves.csv")]),
        ("evaluate", ["evaluate", "--trace", str(out / "trace.jsonl"),
                      "--initial", str(data / "profiles.csv"), "--truth",
                      str(data / "truth.csv"), "--out-report",
                      str(out / "report.json")]),
    ]:
        assert main(args) == 0, name
        stdout[f"{name}.stdout"] = capsys.readouterr().out.encode()
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    return {name: hashlib.sha256(content).hexdigest()
            for name, content in {**files, **stdout}.items()
            if name != "curves.stdout"}  # it names the output path


@pytest.mark.parametrize("config", sorted(PINNED_CONFIGS))
def test_outputs_pinned(tmp_path, capsys, config):
    assert pipeline_digests(tmp_path, capsys,
                            PINNED_CONFIGS[config]) == PINNED_SHA256[config]
