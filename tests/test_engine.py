import hashlib
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import stancecast as sc
from conftest import make_random_case, summary_tuples, trace_event_tuples
from reference_naive import NaiveTsa
from stancecast import io_formats
from stancecast.errors import EmptySeedsWarning


def run_quiet(g, params, seeds=None, run_index=0):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptySeedsWarning)
        return sc.run_simulation(g, params, seeds, run_index)


def test_zero_rounds_gives_empty_trace(path3):
    params = sc.SimParams(rounds_K=0)
    trace, state = run_quiet(path3, params)
    assert len(trace.events) == 0
    assert np.array_equal(state.profiles, path3.profiles)
    assert [s.round for s in trace.round_summaries] == [0]


def test_two_node_adoption():
    g = sc.build_graph(2, 1, [(0, 1)], [[1.0], [-1.0]])
    params = sc.SimParams(delta_adjacent=1.0, r1=0.0, r2=0.0, rounds_K=1)
    trace, state = run_quiet(g, params, {0: {0: 1.0}})
    assert state.profiles[1, 0] == 1.0
    [event] = list(trace.events)
    # p = delta * sim * f = 1 * (1/(1+2)) * 1 against the unknown receiver
    assert event.probability == pytest.approx(1 / 3)
    assert event.channel == "adjacent"


def test_star_delivers_in_ascending_leaf_order(star4):
    params = sc.SimParams(delta_adjacent=1.0, r1=0.0, r2=0.0, rounds_K=1)
    trace, state = run_quiet(star4, params)
    assert [e.node for e in trace.events] == [1, 2, 3]
    assert all(e.new_stance == 1.0 for e in trace.events)


def test_spreader_without_neighbors_emits_nothing():
    g = sc.build_graph(2, 1, [], [[1.0], [-1.0]])
    params = sc.SimParams(r1=0.0, r2=0.0, rounds_K=3)
    trace, _ = run_quiet(g, params)
    assert len(trace.events) == 0


def test_adjacency_memory_guard_skips_second_sender():
    g = sc.build_graph(3, 1, [(0, 2), (1, 2)], [[1.0], [0.0], [-1.0]])
    params = sc.SimParams(r1=0.0, r2=0.0, rounds_K=1)
    trace, _ = run_quiet(g, params)
    adjacent = [e for e in trace.events if e.channel == "adjacent"]
    assert len(adjacent) == 1
    assert adjacent[0].source_node == 0  # ascending spreader order wins


def test_persistent_memory_one_adjacent_delivery_per_topic():
    g = sc.build_graph(3, 1, [(0, 2), (1, 2)], [[1.0], [0.0], [-1.0]])
    params = sc.SimParams(r1=0.0, r2=0.0, rounds_K=4,
                          adjacency_memory="persistent")
    trace, _ = run_quiet(g, params)
    targets = [(e.node, e.topic) for e in trace.events
               if e.channel == "adjacent"]
    assert len(targets) == len(set(targets)) == 1


def test_per_round_memory_redelivers_each_round():
    g = sc.build_graph(2, 1, [(0, 1)], [[1.0], [0.0]])
    params = sc.SimParams(r1=0.0, r2=0.0, rounds_K=3,
                          adjacency_memory="per_round")
    trace, _ = run_quiet(g, params)
    assert [e.round for e in trace.events] == [1, 2, 3]


def test_zero_fractions_give_no_nonadjacent_events():
    g = sc.build_graph(4, 1, [(0, 1)], [[1.0], [-1.0], [-1.0], [-1.0]])
    for r1, r2 in ((0.0, 1.0), (1.0, 0.0), (0.0, 0.0)):
        params = sc.SimParams(r1=r1, r2=r2, rounds_K=2)
        trace, _ = run_quiet(g, params)
        assert all(e.channel == "adjacent" for e in trace.events)


def test_nadj_backfill_preserves_sample_size():
    # aware non-adjacent pool (just the seed) is smaller than its quota of
    # floor(0.7 * 6) = 4, so the unaware pool backfills; the receiver set
    # still has floor(r2 * |pool|) = 6 members, the sender skips itself
    g = sc.build_graph(6, 1, [], [[1.0]] + [[-1.0]] * 5)
    params = sc.SimParams(r1=1.0, r2=1.0, rounds_K=1)
    trace, _ = run_quiet(g, params)
    nadj = [e for e in trace.events if e.channel == "nonadjacent"]
    assert len(nadj) == 5
    assert sorted({e.node for e in nadj}) == [1, 2, 3, 4, 5]
    assert all(e.source_node == 0 for e in nadj)


def test_nonadjacent_delta_when_sampled_pair_unconnected():
    # only the reverse edge 1 -> 0 exists, so the sampled sender/receiver
    # pair (0, 1) gets delta_nonadjacent despite the nodes being linked
    g = sc.build_graph(2, 1, [(1, 0)], [[1.0], [-1.0]])
    params = sc.SimParams(delta_adjacent=1.0, delta_nonadjacent=0.25,
                          r1=1.0, r2=1.0, rounds_K=1)
    trace, _ = run_quiet(g, params)
    [event] = [e for e in trace.events if e.channel == "nonadjacent"]
    # sender 0 -> receiver 1 without an edge: delta_nonadjacent * 1/3
    assert event.probability == pytest.approx(0.25 / 3)


def test_same_seed_identical_traces():
    rng = np.random.default_rng(3)
    case = make_random_case(rng)
    g = sc.build_graph(case["n"], case["z"], case["edges"], case["profiles"])
    t1, _ = run_quiet(g, case["params"], case["seeds"])
    t2, _ = run_quiet(g, case["params"], case["seeds"])
    assert t1 == t2
    t3, _ = run_quiet(g, case["params"], case["seeds"], run_index=1)
    assert t3.params == t1.params  # params equal, stream differs


def test_event_order_round_topic_channel():
    rng = np.random.default_rng(4)
    case = make_random_case(rng, max_n=10)
    g = sc.build_graph(case["n"], case["z"], case["edges"], case["profiles"])
    trace, _ = run_quiet(g, case["params"], case["seeds"])
    keys = [
        (int(r), int(t), int(c))
        for r, t, c in zip(trace.ev_round, trace.ev_topic, trace.ev_channel)
    ]
    assert keys == sorted(keys)


def test_monotone_knowledge_and_spreader_containment():
    rng = np.random.default_rng(6)
    for _ in range(10):
        case = make_random_case(rng)
        g = sc.build_graph(case["n"], case["z"], case["edges"],
                           case["profiles"])
        trace, state = run_quiet(g, case["params"], case["seeds"])
        known = {}
        for s in trace.round_summaries:
            cumulative = case["n"] - s.unknown
            assert cumulative >= known.get(s.topic, 0)
            known[s.topic] = cumulative
        for j in range(case["z"]):
            known_nodes = set(
                np.flatnonzero(state.profiles[:, j] != -1.0).tolist()
            )
            assert state.active(j) <= known_nodes


def test_no_support_genesis():
    rng = np.random.default_rng(8)
    for _ in range(5):
        case = make_random_case(rng)
        profiles = np.where(case["profiles"] == 1.0, 0.5, case["profiles"])
        seeds = {
            j: {v: (0.0 if s == 1.0 else s) for v, s in m.items()}
            for j, m in case["seeds"].items()
        }
        g = sc.build_graph(case["n"], case["z"], case["edges"], profiles)
        trace, state = run_quiet(g, case["params"], seeds)
        assert not (state.profiles == 1.0).any()
        assert all(e.new_stance != 1.0 for e in trace.events)


def test_empty_seeds_warns_and_produces_no_events():
    g = sc.build_graph(3, 1, [(0, 1)], [[-1.0], [-1.0], [-1.0]])
    with pytest.warns(EmptySeedsWarning):
        trace, _ = sc.run_simulation(g, sc.SimParams(rounds_K=2))
    assert len(trace.events) == 0


def test_engine_matches_naive_reference_smoke():
    rng = np.random.default_rng(99)
    for _ in range(5):
        case = make_random_case(rng)
        g = sc.build_graph(case["n"], case["z"], case["edges"],
                           case["profiles"])
        trace, state = run_quiet(g, case["params"], case["seeds"], run_index=2)
        ref = NaiveTsa(case["n"], case["z"], case["edges"],
                       case["profiles"].tolist(), case["params"],
                       case["seeds"], run_index=2).run()
        assert trace_event_tuples(trace) == ref.events
        assert state.profiles.tolist() == ref.final_profiles()
        assert summary_tuples(trace) == ref.summaries


# -- frontier sweeps --------------------------------------------------------

@pytest.fixture
def handed(monkeypatch):
    """Records (topic, spreaders) of every ``kernels.adjacent_pass`` call."""
    calls = []
    inner = sc.kernels.adjacent_pass

    def recording(*args):
        calls.append((args[7], args[6].tolist()))
        return inner(*args)

    monkeypatch.setattr(sc.kernels, "adjacent_pass", recording)
    return calls


def seeded_profiles(case):
    profiles = case["profiles"].copy()
    for j, stances in case["seeds"].items():
        for v, stance in stances.items():
            profiles[v, j] = stance
    return profiles


def activated_before(trace, rnd, j):
    """Nodes that topic j's events activate in rounds before ``rnd``."""
    woke = ((trace.ev_round < rnd) & (trace.ev_topic == j)
            & (trace.ev_old == -1.0) & (trace.ev_new != -1.0))
    return set(trace.ev_node[woke].tolist())


def test_persistent_memory_sweeps_each_spreader_once(handed):
    rng = np.random.default_rng(31)
    handed_again = 0
    for _ in range(30):
        case = make_random_case(rng, max_k=8)
        params = replace(case["params"], adjacency_memory="persistent")
        g = sc.build_graph(case["n"], case["z"], case["edges"],
                           case["profiles"])
        handed.clear()
        trace, _ = run_quiet(g, params, case["seeds"])
        initial = seeded_profiles(case)
        for j in range(case["z"]):
            swept = [v for topic, nodes in handed if topic == j for v in nodes]
            assert len(swept) == len(set(swept))
            # every spreader known before the last round was swept
            known = set(np.flatnonzero(initial[:, j] != -1.0).tolist())
            assert set(swept) == known | activated_before(
                trace, params.rounds_K, j)
            handed_again += params.rounds_K > 1 and len(swept) > 0
    assert handed_again  # cases where the full set would be handed again


def test_per_round_memory_sweeps_every_spreader_every_round(handed):
    rng = np.random.default_rng(32)
    for _ in range(30):
        case = make_random_case(rng, max_k=6)
        params = replace(case["params"], adjacency_memory="per_round")
        g = sc.build_graph(case["n"], case["z"], case["edges"],
                           case["profiles"])
        handed.clear()
        trace, _ = run_quiet(g, params, case["seeds"])
        initial = seeded_profiles(case)
        expected = []
        for rnd in range(1, params.rounds_K + 1):
            for j in range(case["z"]):
                known = set(np.flatnonzero(initial[:, j] != -1.0).tolist())
                expected.append(
                    (j, sorted(known | activated_before(trace, rnd, j))))
        assert handed == expected


def dense_case(rng):
    """A graph with most of its possible edges, so the adjacent channel
    reaches every node in a few rounds and the frontier empties."""
    case = make_random_case(rng, max_n=10, max_k=1)
    n = case["n"]
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    keep = rng.random(len(pairs)) < rng.uniform(0.5, 1.0)
    case["edges"] = [pair for pair, kept in zip(pairs, keep) if kept]
    case["params"] = replace(case["params"], adjacency_memory="persistent",
                             rounds_K=int(rng.integers(10, 21)))
    return case


def test_persistent_long_runs_on_dense_graphs_match_naive(handed):
    rng = np.random.default_rng(33)
    emptied = 0
    for run_index in range(40):
        case = dense_case(rng)
        g = sc.build_graph(case["n"], case["z"], case["edges"],
                           case["profiles"])
        handed.clear()
        trace, state = run_quiet(g, case["params"], case["seeds"], run_index)
        ref = NaiveTsa(case["n"], case["z"], case["edges"],
                       case["profiles"].tolist(), case["params"],
                       case["seeds"], run_index=run_index).run()
        assert trace_event_tuples(trace) == ref.events
        assert state.profiles.tolist() == ref.final_profiles()
        assert summary_tuples(trace) == ref.summaries
        emptied += any(nodes == [] for _, nodes in handed[case["z"]:])
    assert emptied >= 30


# -- high churn ---------------------------------------------------------------

def churn_run(tmp_path, n, m, z, rounds_K, a0):
    """A generated bundle whose passes move many receivers, so the
    non-adjacent kernel plans often and spends most of its time in the
    per-receiver loop; returns (graph, params, seeds). At A0 = 0.9 the hold
    scans clamp a at 1 again and again."""
    bundle = io_formats.generate_synthetic(
        n, m, z, [0.4, 0.2, 0.2, 0.2], 3, tmp_path)
    g, symbols = io_formats.load_graph(bundle.edges_path,
                                          bundle.profiles_path)
    seeds = io_formats.load_seeds(bundle.seeds_path, symbols)
    params = sc.SimParams(r1=0.5, r2=0.5, initial_persistence_A0=a0,
                          rounds_K=rounds_K, rng_seed=7)
    return g, params, seeds


@pytest.mark.parametrize("a0", [0.05, 0.9])
def test_high_churn_run_matches_naive(tmp_path, a0):
    g, params, seeds = churn_run(tmp_path, 300, 900, 3, 3, a0)
    trace, state = run_quiet(g, params, seeds)
    assert trace.ev_node.shape[0] == 13806
    if a0 == 0.9:
        # cells that end at exactly a = 1 went through clamp restarts
        assert (state.avals == 1.0).any()
    edges = [(u, int(v)) for u in range(g.n)
             for v in g.indices[g.indptr[u]:g.indptr[u + 1]]]
    ref = NaiveTsa(g.n, g.z, edges, g.profiles.tolist(), params, seeds).run()
    assert trace_event_tuples(trace) == ref.events
    assert state.profiles.tolist() == ref.final_profiles()
    assert summary_tuples(trace) == ref.summaries


@pytest.mark.parametrize("hook", ["profile", "trace"])
def test_run_under_a_tracer_emits_the_same_events(tmp_path, hook):
    # a profiler or tracer holds references that a reference-counting resize
    # of the event columns would refuse
    get, set_hook = getattr(sys, f"get{hook}"), getattr(sys, f"set{hook}")
    g, params, seeds = churn_run(tmp_path, 300, 900, 3, 3, 0.9)
    plain, _ = run_quiet(g, params, seeds)
    previous = get()
    set_hook(lambda *args: None)
    try:
        traced, _ = run_quiet(g, params, seeds)
    finally:
        set_hook(previous)
    assert traced == plain  # the event columns and the round summaries


# trace-file sha256 of the high-churn runs, recorded before the per-receiver
# loop scanned through the planned-row scan
HIGH_CHURN_SHA256 = {
    1: "ac0f417d2b8650c6a7945ca9e96114fc331a36c4c54fb85d853bcbc748438774",
    2: "cd95e511bd10328bc131469894868b2efb36b0baedbf255751168aa65d34d8e5",
    3: "edbfc47c467a342ac398b7deb4ad8cd422329761493b4f067744a07f518d243f",
    4: "288b82dd5275f943ab1546190bb92d4d7d53838adb4ccddb7a60d5469943c74e",
}


# the same at A0 = 0.9, where the hold scans clamp at a = 1 (1,257-2,847
# restart passes a run); recorded before the kernels shared one influence
# function
HIGH_CHURN_CLAMP_SHA256 = {
    1: "81d66212843f526c84ef28736cfe5da20a0dec9bbc9bf10fa99ba7d8528389b2",
    2: "bff613c8701884f695b086c43579a6dda2d85456b35e0412b7848573d466ea55",
    3: "ace0e18889aaea33c4e63449cccbe4cf510a7b071659491c5e9a324b78ee209e",
    4: "9198a0871a87efcb05d0ccd1293a4541a1e1e16062ce7902703877fb3cbae019",
}


def churn_trace_sha256(tmp_path, z, a0):
    g, params, seeds = churn_run(tmp_path, 1000, 3000, z, 4, a0)
    trace, _ = run_quiet(g, params, seeds)
    io_formats.write_trace(trace, tmp_path / "trace.jsonl")
    return hashlib.sha256((tmp_path / "trace.jsonl").read_bytes()).hexdigest()


@pytest.mark.parametrize("z", sorted(HIGH_CHURN_SHA256))
def test_high_churn_trace_pinned(tmp_path, z):
    assert churn_trace_sha256(tmp_path, z, 0.05) == HIGH_CHURN_SHA256[z]


@pytest.mark.parametrize("z", sorted(HIGH_CHURN_CLAMP_SHA256))
def test_high_churn_clamping_trace_pinned(tmp_path, z):
    assert churn_trace_sha256(tmp_path, z, 0.9) == HIGH_CHURN_CLAMP_SHA256[z]


# -- scale ---------------------------------------------------------------------

# (events, sha256 over the event columns' bytes in the order round, topic,
# node, old, new, source, p, channel) of the baseline runs: a generated
# bundle of n nodes and 4n edges, 3 topics, stance mix
# [0.85, 0.07, 0.04, 0.04] and seed 7, run for 20 rounds at rng seed 7.
# Their hold scans restart far more often than those of any smaller pinned
# run.
SCALE_EVENTS = {
    12_000: (1_053_663,
             "86734760ffea9ce59b202a37f26756c64d71f30740c3b0c588a083ac0df7b676"),
    24_000: (4_255_611,
             "70d78799316fa0a9be72c7edd95bf109fbf380820acf628347852183ee27364b"),
}


@pytest.fixture(scope="module")
def scale_runs(tmp_path_factory):
    """{n: (events, digest, tracemalloc peak of ``run_simulation`` over the
    bytes of its event columns)} of the baseline runs."""
    out = {}
    for n in SCALE_EVENTS:
        bundle = io_formats.generate_synthetic(
            n, 4 * n, 3, [0.85, 0.07, 0.04, 0.04], 7,
            tmp_path_factory.mktemp(f"n{n}"))
        g, symbols = io_formats.load_graph(bundle.edges_path,
                                           bundle.profiles_path)
        seeds = io_formats.load_seeds(bundle.seeds_path, symbols)
        tracemalloc.start()
        try:
            trace, _ = sc.run_simulation(
                g, sc.SimParams(rounds_K=20, rng_seed=7), seeds, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = [getattr(trace, f"ev_{name}") for name in (
            "round", "topic", "node", "old", "new", "source", "p", "channel")]
        digest = hashlib.sha256()
        for column in columns:
            digest.update(column.tobytes())
        out[n] = (trace.ev_node.shape[0], digest.hexdigest(),
                  peak / sum(column.nbytes for column in columns))
    return out


@pytest.mark.parametrize("n", sorted(SCALE_EVENTS))
def test_scale_events_pinned(scale_runs, n):
    assert scale_runs[n][:2] == SCALE_EVENTS[n]


@pytest.mark.parametrize("n", sorted(SCALE_EVENTS))
def test_run_holds_its_events_about_once(scale_runs, n):
    # the sink grows by a quarter at a time, and the kernels' own arrays
    # are small beside a run's events
    assert scale_runs[n][2] <= 1.3
