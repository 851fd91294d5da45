import warnings

import numpy as np
import pytest

import stancecast as sc
from stancecast import metrics
from stancecast.errors import InconsistentIdsError, MissingTruthEntryError
from conftest import make_random_case


def small_run(seed=0):
    g = sc.build_graph(6, 2, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5)],
                       [[1.0, 0.0]] + [[-1.0, -1.0]] * 5)
    params = sc.SimParams(rounds_K=3, rng_seed=seed, r1=1.0, r2=0.4)
    trace, state = sc.run_simulation(g, params)
    return g, trace, state


class TestReplay:
    def test_replay_reaches_final_state(self):
        g, trace, state = small_run()
        final = metrics.replay_trace(g.profiles, trace)
        assert np.array_equal(final, state.profiles)

    def test_replay_rejects_wrong_initial(self):
        g, trace, _ = small_run()
        first = trace.events[0]
        wrong = g.profiles.copy()
        choices = [s for s in (-1.0, 0.0, 0.5, 1.0) if s != first.old_stance]
        wrong[first.node, first.topic] = choices[0]
        with pytest.raises(InconsistentIdsError):
            metrics.replay_trace(wrong, trace)

    def test_replay_rejects_wrong_shape(self):
        _, trace, _ = small_run()
        with pytest.raises(InconsistentIdsError):
            metrics.replay_trace(np.zeros((2, 2)), trace)


class TestCurves:
    def test_empty_trace_flat_at_seed_count(self):
        g = sc.build_graph(3, 1, [], [[1.0], [0.0], [-1.0]])
        trace, _ = sc.run_simulation(g, sc.SimParams(rounds_K=2, r1=0.0, r2=0.0))
        points = metrics.stance_distribution_curve(trace, g.profiles)
        assert [p.cumulative_known for p in points] == [2, 2, 2]

    def test_single_activation_increments_curve(self):
        g = sc.build_graph(2, 1, [(0, 1)], [[1.0], [-1.0]])
        trace, _ = sc.run_simulation(g, sc.SimParams(rounds_K=1, r1=0.0, r2=0.0))
        points = metrics.stance_distribution_curve(trace, g.profiles)
        assert [p.cumulative_known for p in points] == [1, 2]

    def test_oppose_only_seeds_stay_constant_without_events(self):
        g = sc.build_graph(4, 1, [], [[0.0], [0.0], [-1.0], [-1.0]])
        trace, _ = sc.run_simulation(g, sc.SimParams(rounds_K=3, r1=0.0, r2=0.0))
        points = metrics.stance_distribution_curve(trace, g.profiles)
        assert [p.counts[0.0] for p in points] == [2, 2, 2, 2]

    def test_counts_partition_n_every_round(self):
        g, trace, _ = small_run()
        for point in metrics.stance_distribution_curve(trace, g.profiles):
            assert sum(point.counts.values()) == g.n

    def test_curves_match_round_summaries(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            case = make_random_case(rng)
            g = sc.build_graph(case["n"], case["z"], case["edges"],
                               case["profiles"])
            state0 = sc.SimState(g, case["params"], case["seeds"])
            initial = state0.profiles.copy()
            import warnings
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                trace, _ = sc.run_simulation(g, case["params"], case["seeds"])
            by_key = {(p.round, p.topic): p
                      for p in metrics.stance_distribution_curve(trace, initial)}
            for s in trace.round_summaries:
                point = by_key[(s.round, s.topic)]
                assert point.counts == {-1.0: s.unknown, 0.0: s.oppose,
                                        0.5: s.neutral, 1.0: s.support}

    def test_cumulative_known_non_decreasing(self):
        g, trace, _ = small_run()
        per_topic = {}
        for point in metrics.stance_distribution_curve(trace, g.profiles):
            prev = per_topic.get(point.topic, 0)
            assert point.cumulative_known >= prev
            per_topic[point.topic] = point.cumulative_known

    def test_curve_csv_format(self, tmp_path):
        g, trace, _ = small_run()
        points = metrics.stance_distribution_curve(trace, g.profiles)
        metrics.write_curves_csv(tmp_path / "c.csv", points, ["t0", "t1"])
        lines = (tmp_path / "c.csv").read_text().splitlines()
        assert lines[0] == "round,topic,unknown,oppose,neutral,support"
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "t0"
        assert sum(int(x) for x in first[2:]) == g.n


def full_truth(profiles):
    n, z = profiles.shape
    return {(v, j): float(profiles[v, j]) for v in range(n) for j in range(z)}


class TestAccuracies:
    def test_perfect_prediction(self):
        _, trace, state = small_run()
        truth = full_truth(state.profiles)
        assert metrics.activation_accuracy(state.profiles, truth) == 1.0
        assert metrics.stance_accuracy(state.profiles, truth) == 1.0

    def test_all_wrong_activation(self):
        final = np.array([[1.0], [0.0]])
        truth = {(0, 0): -1.0, (1, 0): -1.0}
        assert metrics.activation_accuracy(final, truth) == 0.0

    def test_three_of_four_pairs(self):
        final = np.array([[1.0, -1.0], [0.0, 0.5]])
        truth = {(0, 0): 1.0, (0, 1): -1.0, (1, 0): 0.0, (1, 1): -1.0}
        # topic 0 fully matches, topic 1 matches one of two
        assert metrics.activation_accuracy(final, truth) == 0.75

    def test_stance_exact_match_only(self):
        final = np.array([[0.5]])
        truth = {(0, 0): 1.0}
        assert metrics.stance_accuracy(final, truth) == 0.0

    def test_stance_ratio(self):
        rng = np.random.default_rng(2)
        final = rng.choice([0.0, 0.5, 1.0], size=(100, 1))
        truth = full_truth(final)
        for v in rng.choice(100, size=23, replace=False):
            current = truth[(int(v), 0)]
            truth[(int(v), 0)] = 0.0 if current != 0.0 else 1.0
        assert metrics.stance_accuracy(final, truth) == 77 / 100

    def test_missing_truth_entry(self):
        final = np.array([[1.0], [0.0]])
        with pytest.raises(MissingTruthEntryError):
            metrics.activation_accuracy(final, {(0, 0): 1.0})
        with pytest.raises(MissingTruthEntryError):
            metrics.stance_accuracy(final, {(0, 0): 1.0})

    def test_permutation_invariance(self):
        rng = np.random.default_rng(14)
        final = rng.choice([-1.0, 0.0, 0.5, 1.0], size=(30, 2))
        truth_vals = rng.choice([-1.0, 0.0, 0.5, 1.0], size=(30, 2))
        truth = full_truth(truth_vals)
        base_act = metrics.activation_accuracy(final, truth)
        base_st = (metrics.stance_accuracy(final, truth)
                   if (truth_vals != -1.0).any() else None)
        perm = rng.permutation(30)
        final_p = final[perm]
        truth_p = full_truth(truth_vals[perm])
        assert metrics.activation_accuracy(final_p, truth_p) == base_act
        if base_st is not None:
            assert metrics.stance_accuracy(final_p, truth_p) == base_st

    def test_activation_at_least_stance_when_truth_known(self):
        rng = np.random.default_rng(15)
        final = rng.choice([-1.0, 0.0, 0.5, 1.0], size=(40, 3))
        truth = full_truth(rng.choice([0.0, 0.5, 1.0], size=(40, 3)))
        act = metrics.activation_accuracy(final, truth)
        stance = metrics.stance_accuracy(final, truth)
        assert act >= stance

    def test_report_shape(self):
        _, trace, state = small_run()
        truth = full_truth(state.profiles)
        report = metrics.accuracy_report(state.profiles, truth, ["t0", "t1"])
        assert set(report) == {"t0", "t1"}
        for scores in report.values():
            assert set(scores) == {"activation_accuracy", "stance_accuracy"}

    def test_report_none_for_unknowable_topic(self):
        final = np.array([[1.0, 1.0]])
        truth = {(0, 0): 1.0, (0, 1): -1.0}
        report = metrics.accuracy_report(final, truth)
        assert report["1"]["stance_accuracy"] is None


def test_curves_rejects_wrong_initial():
    g, trace, _ = small_run()
    first = trace.events[0]
    wrong = g.profiles.copy()
    wrong[first.node, first.topic] = next(
        s for s in (-1.0, 0.0, 0.5, 1.0) if s != first.old_stance)
    with pytest.raises(InconsistentIdsError, match="does not replay"):
        metrics.stance_distribution_curve(trace, wrong)


# The per-event and per-pair loops that metrics.py ran before it became array
# code; the array code must give the same bits, points, reports and messages.

def reference_replay(initial_profiles, trace):
    profiles = np.asarray(initial_profiles, dtype=np.float64).copy()
    if profiles.shape != (trace.n, trace.z):
        raise InconsistentIdsError(
            f"initial state shape {profiles.shape} does not match trace "
            f"({trace.n} nodes, {trace.z} topics)"
        )
    nodes = trace.ev_node
    topics = trace.ev_topic
    olds = trace.ev_old
    news = trace.ev_new
    for i in range(nodes.shape[0]):
        node, topic = nodes[i], topics[i]
        if profiles[node, topic] != olds[i]:
            raise InconsistentIdsError(
                f"event {i}: expected stance {olds[i]} at node {node}, topic "
                f"{topic}, found {profiles[node, topic]}; trace does not "
                "replay over this initial state"
            )
        profiles[node, topic] = news[i]
    return profiles


def reference_curves(initial_profiles, trace):
    profiles = np.asarray(initial_profiles, dtype=np.float64).copy()
    tallies = [
        {v: int(np.count_nonzero(profiles[:, j] == v))
         for v in sc.STANCE_VALUES}
        for j in range(trace.z)
    ]

    def snapshot(rnd):
        return [
            metrics.CurvePoint(rnd, j, dict(tallies[j]),
                               trace.n - tallies[j][sc.STANCE_UNKNOWN])
            for j in range(trace.z)
        ]

    points = snapshot(0)
    i = 0
    total = trace.ev_node.shape[0]
    for rnd in range(1, trace.params.rounds_K + 1):
        while i < total and trace.ev_round[i] == rnd:
            j = int(trace.ev_topic[i])
            old, new = float(trace.ev_old[i]), float(trace.ev_new[i])
            if old != new:
                tallies[j][old] -= 1
                tallies[j][new] += 1
            i += 1
        points.extend(snapshot(rnd))
    return points


def reference_check_covered(final_profiles, truth):
    n, z = final_profiles.shape
    for node in range(n):
        for topic in range(z):
            if (node, topic) not in truth:
                raise MissingTruthEntryError(
                    f"ground truth missing entry for node {node}, topic {topic}"
                )


def reference_accuracy_report(final_state, truth, topic_names=None):
    final = np.asarray(final_state, dtype=np.float64)
    n, z = final.shape
    reference_check_covered(final, truth)
    names = topic_names or [str(j) for j in range(z)]
    report = {}
    for topic in range(z):
        status = sum(
            (final[node, topic] != sc.STANCE_UNKNOWN)
            == (truth[(node, topic)] != sc.STANCE_UNKNOWN)
            for node in range(n)
        )
        scored = [node for node in range(n)
                  if truth[(node, topic)] != sc.STANCE_UNKNOWN]
        if scored:
            exact = sum(final[node, topic] == truth[(node, topic)]
                        for node in scored)
            stance_acc = exact / len(scored)
        else:
            stance_acc = None
        report[names[topic]] = {
            "activation_accuracy": status / n if n else None,
            "stance_accuracy": stance_acc,
        }
    return report


def reference_stance_accuracy(final, truth):
    reference_check_covered(final, truth)
    n, z = final.shape
    scored = matches = 0
    for node in range(n):
        for topic in range(z):
            if truth[(node, topic)] != sc.STANCE_UNKNOWN:
                scored += 1
                matches += final[node, topic] == truth[(node, topic)]
    return matches / scored if scored else None


def simulated_case(seed):
    """(initial profiles, trace, final state) of one random case; every
    fifth case has no seeds, so its trace has no events."""
    case = make_random_case(np.random.default_rng(seed))
    g = sc.build_graph(case["n"], case["z"], case["edges"], case["profiles"])
    seeds = {} if seed % 5 == 0 else case["seeds"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        initial = sc.SimState(g, case["params"], seeds).profiles.copy()
        trace, state = sc.run_simulation(g, case["params"], seeds)
    return initial, trace, state.profiles


def truth_variants(final, rng):
    """A full truth, one with unknown and perturbed entries, and one with
    keys outside the shape (which scoring ignores)."""
    n, z = final.shape
    full = full_truth(final)
    changed = dict(full)
    for key in list(changed):
        draw = rng.random()
        if draw < 0.2:
            changed[key] = -1.0
        elif draw < 0.5:
            changed[key] = float(rng.choice(
                [s for s in sc.STANCE_VALUES if s != changed[key]]))
    extra = dict(changed)
    extra.update({(n, 0): 1.0, (0, z): 0.5, (-1, 0): 0.0})
    return [full, changed, extra]


def float_bits(report):
    return {name: {k: None if v is None else float(v).hex()
                   for k, v in scores.items()}
            for name, scores in report.items()}


def raised_message(fn, *args):
    try:
        fn(*args)
    except (InconsistentIdsError, MissingTruthEntryError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("seed", range(60))
def test_matches_reference_loops(seed, tmp_path):
    initial, trace, final = simulated_case(seed)
    replayed = metrics.replay_trace(initial, trace)
    expected = reference_replay(initial, trace)
    assert replayed.dtype == expected.dtype and replayed.shape == expected.shape
    assert replayed.tobytes() == expected.tobytes() == final.tobytes()

    points = metrics.stance_distribution_curve(trace, initial)
    expected_points = reference_curves(initial, trace)
    assert points == expected_points
    metrics.write_curves_csv(tmp_path / "a.csv", points)
    metrics.write_curves_csv(tmp_path / "b.csv", expected_points)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    rng = np.random.default_rng(1000 + seed)
    for truth in truth_variants(final, rng):
        report = metrics.accuracy_report(final, truth)
        ref = reference_accuracy_report(final, truth)
        assert report == ref and float_bits(report) == float_bits(ref)
        activation = float(np.mean(
            [scores["activation_accuracy"] for scores in ref.values()]))
        assert metrics.activation_accuracy(final, truth).hex() == activation.hex()
        stance = reference_stance_accuracy(final, truth)
        if stance is None:
            with pytest.raises(MissingTruthEntryError):
                metrics.stance_accuracy(final, truth)
        else:
            assert float(metrics.stance_accuracy(final, truth)).hex() == \
                float(stance).hex()


def test_reference_cases_cover_shapes():
    cases = [simulated_case(seed) for seed in range(60)]
    assert {trace.z for _, trace, _ in cases} == {1, 2, 3}
    assert any(len(trace.events) == 0 for _, trace, _ in cases)
    assert sum(len(trace.events) > 0 for _, trace, _ in cases) >= 30


def test_first_bad_event_message_matches_reference():
    checked = 0
    for seed in range(1, 40):
        initial, trace, _ = simulated_case(seed)
        total = len(trace.events)
        if total == 0:
            continue
        rng = np.random.default_rng(seed)
        # a wrong initial stance at the pair of one event
        i = int(rng.integers(0, total))
        node, topic = trace.ev_node[i], trace.ev_topic[i]
        wrong = initial.copy()
        wrong[node, topic] = float(rng.choice(
            [s for s in sc.STANCE_VALUES if s != wrong[node, topic]]))
        # wrong recorded old stances at up to three events: the first in
        # trace order is reported, whatever the order of their pairs
        columns = {name: getattr(trace, f"ev_{name}").copy()
                   for name in ("round", "topic", "node", "old", "new",
                                "source", "p", "channel")}
        for k in rng.choice(total, size=min(3, total), replace=False):
            columns["old"][k] = float(rng.choice(
                [s for s in sc.STANCE_VALUES if s != columns["old"][k]]))
        bad_olds = sc.SimTrace(trace.n, trace.z, trace.params, columns,
                               trace.round_summaries)
        for profiles, events in ((wrong, trace), (initial, bad_olds)):
            expected = raised_message(reference_replay, profiles, events)
            assert expected is not None
            assert raised_message(metrics.replay_trace, profiles, events) == \
                expected
            assert raised_message(metrics.stance_distribution_curve,
                                  events, profiles) == expected
        checked += 1
    assert checked >= 25


@pytest.mark.parametrize("seed", range(1, 20))
def test_missing_truth_message_matches_reference(seed):
    _, _, final = simulated_case(seed)
    rng = np.random.default_rng(seed)
    truth = full_truth(final)
    for key in rng.permutation(list(truth))[:int(rng.integers(1, 4))]:
        del truth[tuple(int(x) for x in key)]
    expected = raised_message(reference_accuracy_report, final, truth)
    assert expected is not None
    for fn in (metrics.accuracy_report, metrics.activation_accuracy,
               metrics.stance_accuracy):
        assert raised_message(fn, final, truth) == expected
