import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stancecast as sc
from stancecast.errors import (
    InvalidSeedStanceError,
    ProbabilityOutOfRangeError,
    SameNodeError,
    UnknownSenderError,
)

known = st.sampled_from([0.0, 0.5, 1.0])
any_stance = st.sampled_from([-1.0, 0.0, 0.5, 1.0])
unit = st.floats(0.0, 1.0, allow_nan=False)


def one_node_state(stance, a0=0.5):
    g = sc.build_graph(2, 1, [(0, 1)], [[1.0], [stance]])
    params = sc.SimParams(initial_persistence_A0=a0)
    return sc.SimState(g, params)


class TestUpdatePersistence:
    def test_same_stance_raises_by_p(self):
        state = one_node_state(1.0)
        new_a = sc.update_persistence(state, 1, 0, 1.0, 0.2)
        assert new_a == 0.5 - (0.0 - 0.2) / 1  # = 0.7
        assert state.persistence(1, 0) == sc.PersistenceEntry(new_a, 1)

    def test_opposed_stance_lowers_by_p(self):
        state = one_node_state(0.0)
        new_a = sc.update_persistence(state, 1, 0, 1.0, 0.2)
        assert new_a == 0.5 - (1.0 * 0.2) / 1  # = 0.3

    def test_zero_p_no_change_but_counts(self):
        state = one_node_state(0.0)
        assert sc.update_persistence(state, 1, 0, 1.0, 0.0) == 0.5
        assert state.persistence(1, 0).msg_count == 1

    def test_unknown_receiver_uses_literal_distance(self):
        # |1 - (-1)| = 2 against an unknown receiver stance
        state = one_node_state(-1.0)
        new_a = sc.update_persistence(state, 1, 0, 1.0, 0.3)
        assert new_a == 0.0  # 0.5 - 2*0.3 clamps at 0

    def test_running_count_divides_later_messages(self):
        state = one_node_state(1.0)
        a1 = sc.update_persistence(state, 1, 0, 1.0, 0.2)   # k=1: +0.2
        a2 = sc.update_persistence(state, 1, 0, 1.0, 0.2)   # k=2: +0.1
        assert a1 == 0.7
        assert a2 == a1 - (0.0 - 0.2) / 2
        assert state.persistence(1, 0).msg_count == 2

    def test_p_out_of_range_rejected(self):
        state = one_node_state(1.0)
        with pytest.raises(ProbabilityOutOfRangeError):
            sc.update_persistence(state, 1, 0, 1.0, 1.2)

    def test_unknown_sender_rejected(self):
        state = one_node_state(1.0)
        with pytest.raises(UnknownSenderError):
            sc.update_persistence(state, 1, 0, -1.0, 0.2)

    @given(st.lists(st.tuples(known, unit), min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_persistence_stays_in_unit_interval(self, messages):
        state = one_node_state(0.5, a0=0.5)
        for t_u, p in messages:
            a = sc.update_persistence(state, 1, 0, t_u, p)
            assert 0.0 <= a <= 1.0


class TestTransition:
    @pytest.mark.parametrize("t_v,t_u,p,a,expected", [
        (-1.0, 1.0, 0.6, 0.5, 1.0),     # adopt: p >= a
        (-1.0, 1.0, 0.5, 0.5, 1.0),     # tie adopts (>= is inclusive)
        (-1.0, 1.0, 0.3, 0.5, 0.5),     # resist: goes neutral
        (0.5, 0.0, 0.9, 0.1, 0.0),      # neutral adopts oppose
        (1.0, 1.0, 0.9, 0.1, 1.0),      # same stance is a no-op
        (0.0, 0.0, 0.0, 1.0, 0.0),
        (0.0, 1.0, 0.6, 0.5, 0.5),      # oppose moves up half a step
        (0.0, 0.5, 0.6, 0.5, 0.5),
        (1.0, 0.0, 0.6, 0.5, 0.5),      # support moves down half a step
        (1.0, 0.0, 0.4, 0.5, 1.0),      # p < a: committed stance holds
        (0.0, 1.0, 0.4, 0.5, 0.0),
    ])
    def test_cases(self, t_v, t_u, p, a, expected):
        assert sc.transition(t_v, t_u, p, a) == expected

    def test_tie_policy_on_committed_stances(self):
        assert sc.transition(1.0, 0.0, 0.5, 0.5, epsilon_tie="zero") == 1.0
        assert sc.transition(1.0, 0.0, 0.5, 0.5, epsilon_tie="one") == 0.5
        assert sc.transition(0.0, 1.0, 0.5, 0.5, epsilon_tie="one") == 0.5

    def test_unknown_sender_rejected(self):
        with pytest.raises(UnknownSenderError):
            sc.transition(0.5, -1.0, 0.5, 0.5)

    @given(any_stance, known, unit, unit)
    def test_closure_and_step_size(self, t_v, t_u, p, a):
        new = sc.transition(t_v, t_u, p, a)
        assert new in (0.0, 0.5, 1.0)  # never back to unknown
        if t_v in (0.0, 1.0):
            assert abs(new - t_v) in (0.0, 0.5)

    @given(known, unit, unit)
    def test_same_stance_no_op(self, t, p, a):
        assert sc.transition(t, t, p, a) == t


class TestApplyAtt:
    def test_unknown_receiver_adopts_and_moves_sets(self):
        g = sc.build_graph(2, 1, [(0, 1)], [[1.0], [-1.0]])
        state = sc.SimState(g, sc.SimParams(delta_adjacent=1.0))
        change = sc.apply_att(g, state, 1, 0, 0, round_no=1, channel="adjacent")
        assert (change.old_stance, change.new_stance) == (-1.0, 1.0)
        assert change.probability == pytest.approx(1 / 3)
        assert state.profiles[:, 0].tolist() == [1.0, 1.0]
        assert state.v_new[0].tolist() == [True, True]
        assert 1 in state.active(0)

    def test_same_stance_no_index_mutation(self):
        g = sc.build_graph(2, 1, [(0, 1)], [[1.0], [1.0]])
        state = sc.SimState(g, sc.SimParams())
        change = sc.apply_att(g, state, 1, 0, 0, round_no=1, channel="adjacent")
        assert change.old_stance == change.new_stance == 1.0
        assert state.profiles[:, 0].tolist() == [1.0, 1.0]
        assert state.v_new[0].tolist() == [True, True]

    def test_opposer_moves_toward_neutral(self):
        # sender supports, receiver opposes; with identical profiles apart
        # from the contested topic, p = delta * sim * mu must beat a
        g = sc.build_graph(2, 2, [(0, 1)], [[1.0, 1.0], [0.0, 1.0]])
        params = sc.SimParams(delta_adjacent=1.0, mu=0.49,
                              initial_persistence_A0=0.0)
        state = sc.SimState(g, params)
        change = sc.apply_att(g, state, 1, 0, 0, round_no=1, channel="adjacent")
        assert (change.old_stance, change.new_stance) == (0.0, 0.5)
        assert state.profiles[1, 0] == 0.5
        assert state.v_new[0].tolist() == [True, True]

    def test_sender_must_be_known(self):
        g = sc.build_graph(2, 1, [(0, 1)], [[-1.0], [1.0]])
        state = sc.SimState(g, sc.SimParams())
        with pytest.raises(UnknownSenderError):
            sc.apply_att(g, state, 1, 0, 0, round_no=1, channel="adjacent")

    def test_self_delivery_rejected(self):
        g = sc.build_graph(2, 1, [(0, 1)], [[1.0], [1.0]])
        state = sc.SimState(g, sc.SimParams())
        with pytest.raises(SameNodeError):
            sc.apply_att(g, state, 0, 0, 0, round_no=1, channel="adjacent")

    def test_nonadjacent_pair_uses_nonadjacent_delta(self):
        g = sc.build_graph(2, 1, [], [[1.0], [0.5]])
        params = sc.SimParams(delta_nonadjacent=0.25)
        state = sc.SimState(g, params)
        change = sc.apply_att(g, state, 1, 0, 0, round_no=1,
                              channel="nonadjacent")
        # sim over (1.0) vs (0.5): 1/(1+0.5) = 2/3; f = 1 for neutral
        assert change.probability == pytest.approx(0.25 * (1 / 1.5))

    def test_index_coherence_after_random_messages(self):
        rng = np.random.default_rng(21)
        g = sc.build_graph(
            6, 2, [(0, 1), (1, 2), (3, 4)],
            rng.choice([-1.0, 0.0, 0.5, 1.0], size=(6, 2)),
        )
        state = sc.SimState(g, sc.SimParams(initial_persistence_A0=0.3))
        for _ in range(300):
            q, v = rng.choice(6, size=2, replace=False)
            j = int(rng.integers(0, 2))
            if state.profiles[v, j] == -1.0:
                continue
            sc.apply_att(g, state, int(q), int(v), j, round_no=1,
                         channel="adjacent")
            assert np.array_equal(state.v_new, (state.profiles != -1.0).T)


def test_seed_overlay_and_validation():
    g = sc.build_graph(3, 1, [], [[1.0], [-1.0], [-1.0]])
    state = sc.SimState(g, sc.SimParams(), seeds={0: {1: 0.0}})
    assert state.profiles[:, 0].tolist() == [1.0, 0.0, -1.0]
    with pytest.raises(InvalidSeedStanceError):
        sc.SimState(g, sc.SimParams(), seeds={0: {1: -1.0}})


def reference_overlay(g, seeds):
    """The seed overlay as a loop over the seeds, checking each in turn."""
    profiles = g.profiles.copy()
    for j, stances in seeds.items():
        g.check_topic(int(j))
        for node, stance in stances.items():
            g.check_node(int(node))
            stance = float(stance)
            if stance not in sc.KNOWN_STANCES:
                raise InvalidSeedStanceError(
                    f"seed stance {stance!r} for node {node}, topic {j} "
                    "must be 0, 0.5 or 1"
                )
            profiles[int(node), int(j)] = stance
    return profiles


def overlay_outcome(overlay, g, seeds):
    try:
        return "ok", overlay(g, seeds).tolist()
    except Exception as exc:  # the class is part of what is compared
        return "error", type(exc), str(exc)


def state_overlay(g, seeds):
    return sc.SimState(g, sc.SimParams(), seeds).profiles


SEED_GRAPH = sc.build_graph(5, 2, [(0, 1)], [[1.0, -1.0]] + [[-1.0, 0.0]] * 4)
BAD_SEEDS = {
    "topic above": {2: {0: 1.0}},
    "topic below": {-1: {0: 1.0}},
    "node above": {1: {5: 1.0}},
    "node below": {1: {-1: 0.5}},
    "stance between": {1: {1: 0.25}},
    "stance unknown": {1: {1: -1.0}},
    "stance nan": {1: {1: float("nan")}},
    "stance integer": {1: {1: 2}},
    "stance first": {1: {1: 0.75, 7: 1.0}},
    "node first": {1: {7: 1.0, 1: 0.75}},
    "node past int64": {1: {2**70: 1.0}},
    "node below int64": {1: {-(2**70): 0.5}},
    "stance before a node past int64": {1: {1: 0.75, 2**70: 1.0}},
    "node past int64 first": {1: {2**70: 1.0, 1: 0.75}},
}


@pytest.mark.parametrize("after", ["alone", "valid seed", "valid topic"])
@pytest.mark.parametrize("case", list(BAD_SEEDS))
def test_bad_seed_raises_as_the_loop_did(case, after):
    (j, stances), = BAD_SEEDS[case].items()
    if after == "valid seed":
        seeds = {j: {3: 0.5, **stances}}
    elif after == "valid topic":
        seeds = {0: {3: 0.5, 4: 0.0}, j: stances}
    else:
        seeds = {j: stances}
    outcome = overlay_outcome(state_overlay, SEED_GRAPH, seeds)
    assert outcome[0] == "error"
    assert outcome == overlay_outcome(reference_overlay, SEED_GRAPH, seeds)


@pytest.mark.parametrize("seeds", [
    {},
    {0: {}},
    {1: {np.int64(2): 1, 4: np.float64(0.5)}, 0: {0: 0.0, 3: -0.0}},
    {0: {True: 1.0, 2.0: 0.5}},
    {0: {2: 0.0, 2.7: 1.0}},
    {0: {2: 0.0, 2.7: 1.0, True: 0.5, 1: 1.0}},
])
def test_valid_seeds_overlay_as_the_loop_did(seeds):
    outcome = overlay_outcome(state_overlay, SEED_GRAPH, seeds)
    assert outcome[0] == "ok"
    assert outcome == overlay_outcome(reference_overlay, SEED_GRAPH, seeds)


@pytest.mark.parametrize("seeds, error", [
    ({1: {"x": 1.0}}, ValueError),
    ({1: {1: None}}, TypeError),
    ({1: {1: 0.75, None: 1.0}}, TypeError),
])
def test_a_seed_that_is_not_a_number_raises_first(seeds, error):
    """Keys and values are read as int() and float() read them, before any
    seed is checked: the last seed's TypeError comes ahead of the first
    seed's bad stance."""
    with pytest.raises(error):
        state_overlay(SEED_GRAPH, seeds)
