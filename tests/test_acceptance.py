"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
results as they complete.
"""

import subprocess
import sys
import time
import warnings
from dataclasses import replace

import numpy as np

import stancecast as sc
from stancecast import io_formats, metrics
from stancecast.cli import main as cli_main
from stancecast.errors import EmptySeedsWarning
from conftest import make_random_case, summary_tuples, trace_event_tuples
from reference_naive import NaiveTsa


def _pass(number, message):
    print(f"ACCEPTANCE {number}: PASS — {message}")


def run_quiet(g, params, seeds=None, run_index=0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptySeedsWarning)
        return sc.run_simulation(g, params, seeds, run_index)


# --------------------------------------------------------------------------
# 1. Oracle equivalence: engine == naive single-file reference, exactly,
#    on 50 random graphs x 100 rng seeds, in under 60 s.
# --------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20240501)
    runs = 0
    for graph_no in range(50):
        case = make_random_case(rng, max_n=12, max_z=3, max_k=5)
        g = sc.build_graph(case["n"], case["z"], case["edges"],
                           case["profiles"])
        for seed_no in range(100):
            params = case["params"].with_seed(
                int(rng.integers(0, 2**62)) if seed_no else
                case["params"].rng_seed
            )
            trace, state = run_quiet(g, params, case["seeds"], run_index=seed_no)
            ref = NaiveTsa(case["n"], case["z"], case["edges"],
                           case["profiles"].tolist(), params, case["seeds"],
                           run_index=seed_no).run()
            assert trace_event_tuples(trace) == ref.events, \
                f"graph {graph_no}, seed {seed_no}: event sequences differ"
            assert state.profiles.tolist() == ref.final_profiles(), \
                f"graph {graph_no}, seed {seed_no}: final states differ"
            assert summary_tuples(trace) == ref.summaries
            runs += 1
    elapsed = time.perf_counter() - start
    assert runs == 5000
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"
    _pass(1, f"5000 runs identical to the naive reference in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. Worked-example fidelity: the documented single-message update
#    structure on the four-topic fixture (receiver node a, profile
#    (-1, 0, 1, 0.5); adjacent sender c agreeing on the third topic and
#    known on the first; non-adjacent weak sender for the else branch).
# --------------------------------------------------------------------------

def _worked_example():
    a, c, other = 0, 1, 2
    graph = sc.build_graph(
        3, 4, [(c, a)],
        [[-1.0, 0.0, 1.0, 0.5], [1.0, 0.0, 1.0, 0.5], [0.0, -1.0, -1.0, -1.0]],
    )
    params = sc.SimParams(delta_adjacent=0.8, delta_nonadjacent=0.1,
                          lambda_=0.7, mu=0.2, initial_persistence_A0=0.5)
    return graph, params, a, c, other


def test_criterion_2_worked_example():
    graph, params, a, c, other = _worked_example()

    # same-stance message on the third topic: stance unchanged and
    # persistence raised by exactly p
    state = sc.SimState(graph, params)
    p3 = sc.influence_probability(graph, c, a, 2, params)
    assert p3 == 0.8 * 0.5 * 1.0  # sim(c, a) = sqrt(4)/(sqrt(4)+2) = 0.5
    before = state.persistence(a, 2).a_value
    change = sc.apply_att(graph, state, a, c, 2, 1, "adjacent")
    assert change.old_stance == change.new_stance == 1.0
    assert state.persistence(a, 2).a_value == before + p3

    # unknown-topic message: receiver adopts the sender stance iff the
    # probability reaches the updated persistence, else turns neutral
    state = sc.SimState(graph, params)
    change = sc.apply_att(graph, state, a, c, 0, 1, "adjacent")
    a_after = state.persistence(a, 0).a_value
    assert a_after == 0.0  # 0.5 - |1-(-1)|*0.4 clamps at 0
    assert change.probability >= a_after and change.new_stance == 1.0

    state = sc.SimState(graph, params)
    change = sc.apply_att(graph, state, a, other, 0, 1, "nonadjacent")
    a_after = state.persistence(a, 0).a_value
    assert change.probability < a_after
    assert change.new_stance == 0.5
    _pass(2, "single-message fixture reproduces the documented updates")


# --------------------------------------------------------------------------
# 3. Invariant fuzz: 1e5 randomized persistence/transition calls with zero
#    violations of closure, bounds, same-stance no-op, index coherence.
# --------------------------------------------------------------------------

def test_criterion_3_invariant_fuzz():
    rng = np.random.default_rng(77)
    codes = np.array([-1.0, 0.0, 0.5, 1.0])
    known = codes[1:]
    calls = 0

    # 40k direct transitions
    t_vs = rng.choice(codes, size=40_000)
    t_us = rng.choice(known, size=40_000)
    ps = rng.uniform(0, 1, size=40_000)
    avs = rng.uniform(0, 1, size=40_000)
    ties = rng.choice(["zero", "one"], size=40_000)
    for t_v, t_u, p, av, tie in zip(t_vs, t_us, ps, avs, ties):
        new = sc.transition(t_v, t_u, p, av, tie)
        assert new in (0.0, 0.5, 1.0)
        if t_v == t_u:
            assert new == t_v
        calls += 1

    # 30k persistence updates on a rolling state
    g = sc.build_graph(2, 1, [(0, 1)], [[1.0], [0.5]])
    state = sc.SimState(g, sc.SimParams())
    for t_u, p in zip(rng.choice(known, size=30_000),
                      rng.uniform(0, 1, size=30_000)):
        a = sc.update_persistence(state, 1, 0, float(t_u), float(p))
        assert 0.0 <= a <= 1.0
        calls += 1

    # 30k full deliveries with per-call index coherence
    g = sc.build_graph(
        8, 2,
        [(0, 1), (1, 2), (2, 3), (4, 5), (6, 7), (7, 0)],
        rng.choice(codes, size=(8, 2)),
    )
    state = sc.SimState(g, sc.SimParams(initial_persistence_A0=0.4))
    pairs = rng.integers(0, 8, size=(30_000, 2))
    topics = rng.integers(0, 2, size=30_000)
    for (q, v), j in zip(pairs, topics):
        if q == v or state.profiles[v, j] == -1.0:
            calls += 1  # rejected-precondition draws still count as calls
            continue
        change = sc.apply_att(g, state, int(q), int(v), int(j), 1, "adjacent")
        assert change.new_stance in (0.0, 0.5, 1.0)
        assert 0.0 <= state.persistence(int(q), int(j)).a_value <= 1.0
        assert np.array_equal(state.v_new, (state.profiles != -1.0).T)
        calls += 1

    assert calls >= 100_000
    _pass(3, f"{calls} randomized calls, zero invariant violations")


# --------------------------------------------------------------------------
# 4. No-support genesis: oppose/neutral-only seeds never produce support.
# --------------------------------------------------------------------------

def test_criterion_4_no_support_genesis():
    rng = np.random.default_rng(4242)
    for graph_no in range(20):
        case = make_random_case(rng)
        profiles = np.where(case["profiles"] == 1.0, 0.0, case["profiles"])
        seeds = {
            j: {v: (0.5 if s == 1.0 else s) for v, s in m.items()}
            for j, m in case["seeds"].items()
        }
        g = sc.build_graph(case["n"], case["z"], case["edges"], profiles)
        trace, state = run_quiet(g, case["params"], seeds)
        assert not (state.profiles == 1.0).any(), f"graph {graph_no}"
        assert all(s.support == 0 for s in trace.round_summaries)
        assert all(e.new_stance != 1.0 for e in trace.events)
    _pass(4, "20 oppose/neutral-seeded graphs never reach support")


# --------------------------------------------------------------------------
# 5. Replay determinism: byte-identical traces across separate processes,
#    and parallel runs identical to serial runs file by file.
# --------------------------------------------------------------------------

def test_criterion_5_replay_determinism(tmp_path):
    assert cli_main([
        "generate", "--nodes", "300", "--edges", "900", "--topics", "2",
        "--stance-mix", "[0.8, 0.08, 0.06, 0.06]", "--seed", "13",
        "--out-dir", str(tmp_path / "data"),
    ]) == 0
    data = tmp_path / "data"
    base_args = [
        "simulate", "--graph", str(data / "edges.tsv"),
        "--profiles", str(data / "profiles.csv"),
        "--seeds", str(data / "seeds.csv"),
        "--config", str(data / "config.json"),
    ]

    # two fresh interpreter processes must produce identical bytes
    for name in ("first.jsonl", "second.jsonl"):
        result = subprocess.run(
            [sys.executable, "-m", "stancecast.cli", *base_args,
             "--out-trace", str(tmp_path / name)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
    assert (tmp_path / "first.jsonl").read_bytes() == \
        (tmp_path / "second.jsonl").read_bytes()

    # parallel --runs 8 equals serial, file by file
    assert cli_main([*base_args, "--out-trace", str(tmp_path / "ser.jsonl"),
                     "--runs", "8", "--run-seed-base", "99"]) == 0
    assert cli_main([*base_args, "--out-trace", str(tmp_path / "par.jsonl"),
                     "--runs", "8", "--run-seed-base", "99",
                     "--workers", "4"]) == 0
    for i in range(8):
        serial = tmp_path / f"ser.run{i:03d}.jsonl"
        parallel = tmp_path / f"par.run{i:03d}.jsonl"
        assert serial.read_bytes() == parallel.read_bytes(), f"run {i}"
    _pass(5, "byte-identical traces across processes and 8-way parallelism")


# --------------------------------------------------------------------------
# 6. IC baseline calibration on the 3-node path against the enumeration.
# --------------------------------------------------------------------------

def test_criterion_6_ic_calibration():
    g = sc.build_graph(3, 0, [(0, 1), (1, 2)], [[], [], []])
    params = sc.IcParams(edge_probability=0.5, rng_seed=20240502)
    mean, _counts = sc.mean_final_active(g, params, [0], 100_000)
    assert abs(mean - 1.75) <= 0.02, f"mean {mean}"
    _pass(6, f"1e5-run mean final active count {mean:.4f} within 1.75±0.02")


# --------------------------------------------------------------------------
# 7. Monotone knowledge per round; persistent memory delivers at most one
#    adjacent event per (receiver, topic) over a whole run.
# --------------------------------------------------------------------------

def test_criterion_7_monotonicity_and_memory_guard():
    rng = np.random.default_rng(710)
    runs = 0
    for _ in range(25):
        case = make_random_case(rng)
        params = replace(case["params"], adjacency_memory="persistent")
        g = sc.build_graph(case["n"], case["z"], case["edges"],
                           case["profiles"])
        for run_index in range(4):
            trace, _state = run_quiet(g, params, case["seeds"], run_index)
            last_known = {}
            for s in trace.round_summaries:
                cumulative = case["n"] - s.unknown
                assert cumulative >= last_known.get(s.topic, 0)
                last_known[s.topic] = cumulative
            adjacent_targets = [
                (e.node, e.topic) for e in trace.events
                if e.channel == "adjacent"
            ]
            assert len(adjacent_targets) == len(set(adjacent_targets))
            runs += 1
    _pass(7, f"knowledge monotone and memory guard held on {runs} fuzz runs")


# --------------------------------------------------------------------------
# 8. Scale: the Table-II-largest-shape synthetic dataset with K = 20
#    completes a full simulate (load, run, write) in under 5 s.
# --------------------------------------------------------------------------

def test_criterion_8_scale_runtime(tmp_path):
    bundle = io_formats.generate_synthetic(
        4005, 14067, 3, [0.9, 0.04, 0.03, 0.03], seed=6,
        out_dir=tmp_path / "big",
    )
    config = sc.SimParams(rounds_K=20, rng_seed=6)
    io_formats.write_config(tmp_path / "big" / "config.json", config)

    start = time.perf_counter()
    g, symbols = io_formats.load_graph(bundle.edges_path, bundle.profiles_path)
    seeds = io_formats.load_seeds(bundle.seeds_path, symbols)
    params = io_formats.load_config(tmp_path / "big" / "config.json")
    trace, _ = sc.run_simulation(g, params, seeds)
    io_formats.write_trace(trace, tmp_path / "big" / "trace.jsonl")
    elapsed = time.perf_counter() - start

    assert (g.n, g.m, g.z) == (4005, 14067, 3)
    assert len(trace.events) > 0
    assert elapsed < 5.0, f"simulate took {elapsed:.2f}s, budget is 5s"
    _pass(8, f"4005-node, 3-topic, K=20 simulate in {elapsed:.2f}s "
             f"({len(trace.events)} events)")


# --------------------------------------------------------------------------
# 9. Qualitative stance-drift analogue: majority-oppose seeding keeps or
#    grows the oppose count, and the curve CSV partitions n every round.
# --------------------------------------------------------------------------

def test_criterion_9_majority_oppose_drift(tmp_path):
    rng = np.random.default_rng(88)
    n, z = 200, 1
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = rng.choice(len(pairs), size=800, replace=False)
    edges = [pairs[i] for i in chosen]
    profiles = np.full((n, z), -1.0)
    seed_nodes = rng.choice(n, size=50, replace=False)
    seeds = {0: {}}
    for rank, node in enumerate(seed_nodes):
        stance = 0.0 if rank < 40 else (0.5 if rank < 45 else 1.0)
        seeds[0][int(node)] = stance
    g = sc.build_graph(n, z, edges, profiles)
    params = sc.SimParams(rounds_K=8, rng_seed=7, r1=0.3, r2=0.1)
    trace, state = run_quiet(g, params, seeds)

    initial_oppose = 40
    final_oppose = int(np.count_nonzero(state.profiles[:, 0] == 0.0))
    assert final_oppose >= initial_oppose

    state0 = sc.SimState(g, params, seeds)
    points = metrics.stance_distribution_curve(trace, state0.profiles)
    csv_path = tmp_path / "curves.csv"
    metrics.write_curves_csv(csv_path, points)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "round,topic,unknown,oppose,neutral,support"
    for line in lines[1:]:
        assert sum(int(x) for x in line.split(",")[2:]) == n
    _pass(9, f"oppose count grew {initial_oppose} -> {final_oppose}; "
             "curve columns partition n")
