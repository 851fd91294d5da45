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
        trace = sc.run_tsa(g, sc.SimParams(rounds_K=2, r1=0.0, r2=0.0))
        points = metrics.stance_distribution_curve(trace, g.profiles)
        assert [p.cumulative_known for p in points] == [2, 2, 2]

    def test_single_activation_increments_curve(self):
        g = sc.build_graph(2, 1, [(0, 1)], [[1.0], [-1.0]])
        trace = sc.run_tsa(g, sc.SimParams(rounds_K=1, r1=0.0, r2=0.0))
        points = metrics.stance_distribution_curve(trace, g.profiles)
        assert [p.cumulative_known for p in points] == [1, 2]

    def test_oppose_only_seeds_stay_constant_without_events(self):
        g = sc.build_graph(4, 1, [], [[0.0], [0.0], [-1.0], [-1.0]])
        trace = sc.run_tsa(g, sc.SimParams(rounds_K=3, r1=0.0, r2=0.0))
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
