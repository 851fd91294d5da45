"""Kernel-level checks: scalar ops agree with the public API, and the array
sweeps agree bit for bit with per-message delivery."""

import numpy as np
import pytest

import stancecast as sc
from stancecast import io_formats, kernels
from conftest import make_random_case


def test_backend_reports_itself():
    assert kernels.BACKEND == "python"


def test_scalar_kernels_match_public_ops():
    rng = np.random.default_rng(17)
    codes = np.array([-1.0, 0.0, 0.5, 1.0])
    for _ in range(500):
        z = int(rng.integers(1, 5))
        a = rng.choice(codes, size=z)
        b = rng.choice(codes, size=z)
        assert kernels.similarity(np.stack([a, b]), 0, 1) == \
            sc.topic_similarity(a, b)
        t_v, t_u = rng.choice(codes), rng.choice(codes[1:])
        lam, mu = rng.uniform(0.5, 1.0), rng.uniform(0.0, 0.5)
        assert kernels.stance_factor(t_v, t_u, lam, mu) == \
            sc.stance_factor(t_v, t_u, lam, mu)
        p, av = rng.uniform(0, 1), rng.uniform(0, 1)
        assert kernels.transition(t_v, t_u, p, av, 0.0) == \
            sc.transition(t_v, t_u, p, av, "zero")
        assert kernels.transition(t_v, t_u, p, av, 1.0) == \
            sc.transition(t_v, t_u, p, av, "one")


def test_deliver_matches_apply_att():
    rng = np.random.default_rng(23)
    for _ in range(200):
        case = make_random_case(rng, max_n=8, max_z=2)
        g = sc.build_graph(case["n"], case["z"], case["edges"],
                           case["profiles"])
        state_a = sc.SimState(g, case["params"], case["seeds"])
        state_b = sc.SimState(g, case["params"], case["seeds"])
        senders = np.flatnonzero(state_a.profiles[:, 0] != -1.0)
        if senders.size == 0:
            continue
        v = int(rng.choice(senders))
        candidates = [q for q in range(case["n"]) if q != v]
        q = int(rng.choice(candidates))
        change = sc.apply_att(g, state_a, q, v, 0, round_no=1,
                              channel="adjacent")
        delta = (case["params"].delta_adjacent if g.has_edge(v, q)
                 else case["params"].delta_nonadjacent)
        old, new, p = kernels.deliver(
            state_b.profiles, state_b.avals, state_b.counts, q, v, 0,
            delta, case["params"].lambda_, case["params"].mu,
            case["params"].tie_epsilon,
        )
        assert (change.old_stance, change.new_stance, change.probability) == \
            (old, new, p)
        assert np.array_equal(state_a.profiles, state_b.profiles)
        assert np.array_equal(state_a.avals, state_b.avals)
        assert np.array_equal(state_a.counts, state_b.counts)


def test_in_adjacency_matches_graph():
    rng = np.random.default_rng(29)
    case = make_random_case(rng, max_n=10)
    g = sc.build_graph(case["n"], case["z"], case["edges"], case["profiles"])
    assert g.in_indptr[-1] == g.m
    for v in range(g.n):
        sources = g.in_indices[g.in_indptr[v]:g.in_indptr[v + 1]]
        assert list(sources) == sorted(sources)
        assert set(sources.tolist()) == {u for u in range(g.n)
                                         if u != v and g.has_edge(u, v)}


def assert_same_bits(results):
    """``results`` is [(n_ev, state, events)] of the reference, then of the
    kernel; require the same count and bit-identical arrays; returns the
    events."""
    (n_ref, state_ref, ev_ref), (n_ev, state, ev) = results
    assert n_ev == n_ref
    for a, b in zip(ev + list(state), ev_ref + list(state_ref)):
        assert a.dtype == b.dtype and np.array_equal(a.view(np.uint8),
                                                     b.view(np.uint8))
    return ev


def reference_adjacent_pass(indptr, indices, profiles, avals, counts, vadj_row,
                            spreaders, j, delta_adj, lam, mu, tie_eps,
                            ev_node, ev_src, ev_old, ev_new, ev_p):
    """The per-edge loop that :func:`kernels.adjacent_pass` must reproduce:
    one :func:`kernels.deliver` per out-edge of each spreader whose
    receiver is not yet in the adjacency memory."""
    n_ev = 0
    for v in spreaders:
        for q in indices[indptr[v]:indptr[v + 1]]:
            if vadj_row[q]:
                continue
            old, new, p = kernels.deliver(profiles, avals, counts, q, v, j,
                                          delta_adj, lam, mu, tie_eps)
            vadj_row[q] = True
            ev_node[n_ev], ev_src[n_ev] = q, v
            ev_old[n_ev], ev_new[n_ev], ev_p[n_ev] = old, new, p
            n_ev += 1
    return n_ev


def run_both_adjacent(g, profiles, avals, counts, vadj_row, spreaders, j,
                      delta_adj, lam, mu, tie_eps):
    """Run the array pass and the reference loop on copies of the same
    state (memory row included) and require identical event buffers and
    final state; returns the events."""
    cap = int((g.indptr[spreaders + 1] - g.indptr[spreaders]).sum())
    results = []
    for fn in (reference_adjacent_pass, kernels.adjacent_pass):
        state = (profiles.copy(), avals.copy(), counts.copy(), vadj_row.copy())
        buffers = (np.zeros(cap, dtype=np.int64), np.zeros(cap, dtype=np.int64),
                   np.zeros(cap), np.zeros(cap), np.zeros(cap))
        n_ev = fn(g.indptr, g.indices, *state, spreaders, j,
                  delta_adj, lam, mu, tie_eps, *buffers)
        results.append((n_ev, state, [b[:n_ev] for b in buffers]))
    return assert_same_bits(results)


def message_levels(node, src):
    """Dependency level of each adjacent message, in order: 0 unless its
    sender was an earlier receiver, else one more than that message's."""
    level_of = {}
    levels = []
    for q, v in zip(node.tolist(), src.tolist()):
        level = level_of[v] + 1 if v in level_of else 0
        level_of[q] = level
        levels.append(level)
    return levels


@pytest.mark.parametrize("z", [1, 2, 3, 4])
@pytest.mark.parametrize("a0", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("memory", ["persistent", "per_round"])
def test_adjacent_pass_matches_scalar_loop(z, a0, memory):
    # out-degree 10 and 120 spreaders: most receivers are reached by several
    # spreaders and many spreaders were reached earlier in the same pass;
    # persistent memory keeps some receivers from earlier rounds
    rng = np.random.default_rng(2000 * z + int(10 * a0) + len(memory))
    n = 400
    edges = {(int(u), int(v)) for u, v in rng.integers(0, n, size=(4000, 2))
             if u != v}
    profiles = rng.choice(np.array([-1.0, 0.0, 0.5, 1.0]), size=(n, z),
                          p=[0.4, 0.2, 0.2, 0.2])
    g = sc.build_graph(n, z, sorted(edges), profiles)
    j = int(rng.integers(0, z))
    known = np.flatnonzero(profiles[:, j] != -1.0)
    spreaders = np.sort(rng.choice(known, size=120, replace=False))
    vadj_row = (rng.random(n) < 0.3 if memory == "persistent"
                else np.zeros(n, dtype=np.bool_))
    avals = np.full((n, z), a0)
    counts = rng.integers(0, 3, size=(n, z))
    for tie_eps in (0.0, 1.0):
        node, src, old, new, p = run_both_adjacent(
            g, profiles, avals, counts, vadj_row, spreaders, j,
            0.8, 0.7, 0.2, tie_eps)
        assert np.count_nonzero(old != new) > 0
        fresh = ~vadj_row[g.indices[np.concatenate(
            [np.arange(g.indptr[v], g.indptr[v + 1]) for v in spreaders])]]
        assert np.count_nonzero(fresh) > node.shape[0]  # shared receivers
        assert max(message_levels(node, src)) >= 2


@pytest.mark.parametrize("case", ["no spreaders", "no out-edges",
                                  "all in memory"])
def test_adjacent_pass_delivers_nothing(case):
    n = 6
    profiles = np.array([[1.0], [0.0], [-1.0], [0.5], [-1.0], [1.0]])
    g = sc.build_graph(n, 1, [(0, 2), (1, 2), (1, 4), (3, 0)], profiles)
    spreaders = {"no spreaders": np.array([], dtype=np.int64),
                 "no out-edges": np.array([2, 5], dtype=np.int64),
                 "all in memory": np.array([0, 1, 3], dtype=np.int64)}[case]
    vadj_row = np.full(n, case == "all in memory")
    events = run_both_adjacent(
        g, profiles, np.full((n, 1), 0.5), np.zeros((n, 1), dtype=np.int64),
        vadj_row, spreaders, 0, 0.8, 0.7, 0.2, 0.0)
    assert all(ev.shape[0] == 0 for ev in events)


@pytest.mark.parametrize("tie", ["zero", "one"])
def test_adjacent_pass_exact_tie(tie):
    # 0 -> 1 -> 2, spreaders 0 and 1, so 1 -> 2 is a level-1 message sent
    # with the stance that 0 -> 1 left (0, unmoved: same stance). Then
    # p = 1 * 0.5 * 0.25 = 0.125 and, with three earlier messages,
    # a = 0.15625 - 0.125 / 4 = 0.125: an exact tie p == a
    profiles = np.array([[0.0], [0.0], [1.0]])
    g = sc.build_graph(3, 1, [(0, 1), (1, 2)], profiles)
    params = sc.SimParams(delta_adjacent=1.0, mu=0.25,
                          initial_persistence_A0=0.15625, epsilon_tie=tie)
    node, src, old, new, p = run_both_adjacent(
        g, profiles, np.full((3, 1), params.initial_persistence_A0),
        np.array([[0], [0], [3]]), np.zeros(3, dtype=np.bool_),
        np.array([0, 1]), 0, params.delta_adjacent, params.lambda_,
        params.mu, params.tie_epsilon)
    assert message_levels(node, src) == [0, 1]
    assert p[1] == 0.125
    assert list(new) == [0.0, 0.5 if tie == "one" else 1.0]


def reference_nadj_pass(indptr, indices, profiles, avals, counts, receivers,
                        senders, j, delta_adj, delta_nonadj, lam, mu, tie_eps,
                        ev_node, ev_src, ev_old, ev_new, ev_p):
    """The per-message loop that :func:`kernels.nadj_pass` must reproduce:
    one :func:`kernels.deliver` per (receiver, sender) pair, with the edge
    v -> q looked up in the out-adjacency."""
    n_ev = 0
    for q in receivers:
        for v in senders:
            if v == q:
                continue
            row = indices[indptr[v]:indptr[v + 1]]
            i = np.searchsorted(row, q)
            delta = delta_adj if i < row.shape[0] and row[i] == q else delta_nonadj
            old, new, p = kernels.deliver(profiles, avals, counts, q, v, j,
                                          delta, lam, mu, tie_eps)
            ev_node[n_ev], ev_src[n_ev] = q, v
            ev_old[n_ev], ev_new[n_ev], ev_p[n_ev] = old, new, p
            n_ev += 1
    return n_ev


def run_both_nadj(g, profiles, avals, counts, receivers, senders, j,
                  delta_adj, delta_nonadj, lam, mu, tie_eps):
    """Run the scan and the reference loop on copies of the same state and
    require identical event buffers and final state; returns the events."""
    cap = receivers.shape[0] * senders.shape[0]
    results = []
    for fn, adjacency in ((reference_nadj_pass, (g.indptr, g.indices)),
                          (kernels.nadj_pass, (g.in_indptr, g.in_indices))):
        state = (profiles.copy(), avals.copy(), counts.copy())
        buffers = (np.zeros(cap, dtype=np.int64), np.zeros(cap, dtype=np.int64),
                   np.zeros(cap), np.zeros(cap), np.zeros(cap))
        n_ev = fn(*adjacency, *state, receivers, senders, j,
                  delta_adj, delta_nonadj, lam, mu, tie_eps, *buffers)
        results.append((n_ev, state, [b[:n_ev] for b in buffers]))
    return assert_same_bits(results)


@pytest.mark.parametrize("z", [1, 2, 3, 4])
@pytest.mark.parametrize("a0", [0.0, 0.5, 1.0])
def test_nadj_pass_matches_scalar_loop(z, a0):
    # hundreds of senders per receiver, so segments run far longer than
    # the oracle's graphs (n <= 12) allow; A0 of 0 and 1 clamps at once
    rng = np.random.default_rng(1000 * z + int(10 * a0))
    n = 400
    edges = {(int(u), int(v)) for u, v in rng.integers(0, n, size=(16000, 2))
             if u != v}
    profiles = rng.choice(np.array([-1.0, 0.0, 0.5, 1.0]), size=(n, z),
                          p=[0.4, 0.2, 0.2, 0.2])
    g = sc.build_graph(n, z, sorted(edges), profiles)
    j = int(rng.integers(0, z))
    known = np.flatnonzero(profiles[:, j] != -1.0)
    senders = np.sort(rng.choice(known, size=min(250, known.size),
                                 replace=False))
    receivers = np.sort(np.concatenate([
        rng.choice(np.setdiff1d(np.arange(n), senders), size=20, replace=False),
        rng.choice(senders, size=6, replace=False),
    ]))
    avals = np.full((n, z), a0)
    counts = rng.integers(0, 3, size=(n, z))
    for tie_eps in (0.0, 1.0):
        node, src, old, new, p = run_both_nadj(
            g, profiles, avals, counts, receivers, senders, j,
            0.8, 0.2, 0.7, 0.2, tie_eps)
        assert np.count_nonzero(old != new) > 0
        edge_pairs = sum(g.has_edge(int(v), int(q)) for q, v in zip(node, src))
        assert edge_pairs > 0


@pytest.mark.parametrize("tie", ["zero", "one"])
def test_nadj_pass_exact_tie(tie):
    # receiver 0 holds stance 1, A0 = 0.15625; three non-adjacent senders
    # at stance 0 with delta_nonadj = 0 leave a alone, then the sender on
    # edge 4 -> 0 gives p = 1 * 0.5 * 0.25 = 0.125 and
    # a = 0.15625 - 0.125 / 4 = 0.125: an exact tie p == a
    n = 8
    profiles = np.array([[1.0]] + [[0.0]] * (n - 1))
    g = sc.build_graph(n, 1, [(4, 0)], profiles)
    params = sc.SimParams(delta_adjacent=1.0, delta_nonadjacent=0.0, mu=0.25,
                          initial_persistence_A0=0.15625, epsilon_tie=tie)
    avals = np.full((n, 1), params.initial_persistence_A0)
    node, src, old, new, p = run_both_nadj(
        g, profiles, avals, np.zeros((n, 1), dtype=np.int64),
        np.array([0]), np.arange(1, n), 0, params.delta_adjacent,
        params.delta_nonadjacent, params.lambda_, params.mu,
        params.tie_epsilon)
    assert p[3] == 0.125
    assert list(new) == [1.0] * 3 + ([0.5] * 4 if tie == "one" else [1.0] * 4)


STANCES = np.array([-1.0, 0.0, 0.5, 1.0])


def random_graph(rng, n, z, m):
    """A random simple digraph on n nodes with about m edges and random
    profiles; the kernels read the profiles they are given, so a test may
    rewrite its copy."""
    edges = {(int(u), int(v)) for u, v in rng.integers(0, n, size=(m, 2))
             if u != v}
    profiles = rng.choice(STANCES, size=(n, z), p=[0.4, 0.2, 0.2, 0.2])
    return sc.build_graph(n, z, sorted(edges), profiles), profiles


def known_nodes(profiles, j, nodes):
    return nodes[profiles[nodes, j] != -1.0]


@pytest.mark.parametrize("z", [1, 2, 3, 4])
def test_nadj_pass_replans_after_a_sender_receiver_moves(z):
    # receiver 0 comes first and is also a sender; with a = 0 it moves on
    # the first opposing message it hears, and the 40 receivers after it
    # must hear it with its new stance, not the one their plan started with
    rng = np.random.default_rng(300 + z)
    n = 200
    g, profiles = random_graph(rng, n, z, 2000)
    j = z - 1
    profiles[0, j] = 1.0
    profiles[100:, j] = rng.choice([0.0, 0.5], size=n - 100)
    senders = np.concatenate([[0], np.arange(100, 160)])
    receivers = np.concatenate(
        [[0], known_nodes(profiles, j, np.arange(1, 100))[:40]])
    avals = np.full((n, z), 0.9)
    avals[0, j] = 0.0
    counts = rng.integers(0, 3, size=(n, z))
    node, src, old, new, p = run_both_nadj(
        g, profiles, avals, counts, receivers, senders, j, 0.8, 0.2, 0.7,
        0.2, 0.0)
    assert receivers.shape[0] == 41
    heard_from_0 = (src == 0) & (node != 0)
    assert np.count_nonzero(heard_from_0) == 40
    assert np.count_nonzero((node == 0) & (old != new)) > 0


@pytest.mark.parametrize("z", [1, 2, 3, 4])
def test_nadj_pass_unknown_receivers(z):
    # 30 unknown receivers among 10 known ones: each one's first message
    # sets its stance on topic j, which the similarity of every later
    # message includes
    rng = np.random.default_rng(400 + z)
    n = 300
    g, profiles = random_graph(rng, n, z, 3000)
    j = 0
    profiles[:30, j] = -1.0
    senders = known_nodes(profiles, j, np.arange(100, 300))[:50]
    receivers = np.sort(np.concatenate(
        [np.arange(30), known_nodes(profiles, j, np.arange(30, 100))[:10]]))
    for a0 in (0.05, 0.5):
        node, src, old, new, p = run_both_nadj(
            g, profiles, np.full((n, z), a0), np.zeros((n, z), dtype=np.int64),
            receivers, senders, j, 0.8, 0.2, 0.7, 0.2, 0.0)
        activated = node[(old == -1.0) & (new != -1.0)]
        assert np.array_equal(activated, np.arange(30))


def test_nadj_pass_unknown_receivers_that_are_senders():
    # the engine samples senders among known nodes only, but the kernel
    # takes any: an unknown receiver that is also a sender moves on its
    # first message, so the rows after it are planned again
    rng = np.random.default_rng(8)
    n = 200
    g, profiles = random_graph(rng, n, 2, 2000)
    j = 1
    profiles[:100, j] = rng.choice([0.0, 0.5, 1.0], size=100)
    profiles[[3, 17, 40], j] = -1.0
    receivers = np.arange(60)
    senders = np.sort(np.concatenate([[3, 17, 40], np.arange(100, 180)]))
    node, src, old, new, p = run_both_nadj(
        g, profiles, np.full((n, 2), 0.5), np.zeros((n, 2), dtype=np.int64),
        receivers, senders, j, 0.8, 0.2, 0.7, 0.2, 0.0)
    assert {3, 17, 40} <= set(node[(old == -1.0) & (new != -1.0)].tolist())


def test_nadj_pass_receiver_whose_only_sender_is_itself():
    rng = np.random.default_rng(5)
    n = 40
    g, profiles = random_graph(rng, n, 2, 200)
    profiles[:, 0] = rng.choice([0.0, 0.5, 1.0], size=n)
    receivers = np.arange(20)
    node, src, old, new, p = run_both_nadj(
        g, profiles, np.full((n, 2), 0.5), np.zeros((n, 2), dtype=np.int64),
        receivers, np.array([7]), 0, 0.8, 0.2, 0.7, 0.2, 0.0)
    assert list(node) == [q for q in range(20) if q != 7]
    assert set(src.tolist()) == {7}


def test_nadj_pass_no_senders():
    rng = np.random.default_rng(6)
    n = 30
    g, profiles = random_graph(rng, n, 2, 100)
    events = run_both_nadj(
        g, profiles, np.full((n, 2), 0.5), np.zeros((n, 2), dtype=np.int64),
        np.arange(n), np.array([], dtype=np.int64), 0, 0.8, 0.2, 0.7, 0.2,
        0.0)
    assert all(ev.shape[0] == 0 for ev in events)


@pytest.mark.parametrize("z", [1, 2, 3, 4])
@pytest.mark.parametrize("a0", [0.05, 0.5, 1.0])
def test_nadj_pass_every_receiver_a_sender(z, a0):
    rng = np.random.default_rng(500 + 10 * z + int(10 * a0))
    n = 120
    g, profiles = random_graph(rng, n, z, 1500)
    j = 0
    both = known_nodes(profiles, j, np.arange(n))[:40]
    for tie_eps in (0.0, 1.0):
        node, src, old, new, p = run_both_nadj(
            g, profiles, np.full((n, z), a0), rng.integers(0, 3, size=(n, z)),
            both, both, j, 0.8, 0.2, 0.7, 0.2, tie_eps)
        assert node.shape[0] == 40 * 39


@pytest.mark.parametrize("z", [1, 2, 3, 4])
def test_nadj_pass_clamps_at_one_and_stops_below_zero(z):
    # rows at a = 1 hearing mostly their own stance clamp again and again
    # between opposing messages; rows at a near 0 stop on the first
    # opposing message (senders 100-109), which would take a below 0
    rng = np.random.default_rng(600 + z)
    n = 300
    g, profiles = random_graph(rng, n, z, 3000)
    j = z - 1
    profiles[:100, j] = 1.0
    profiles[100:110, j] = 0.0
    profiles[110:, j] = rng.choice([0.0, 0.5, 1.0], size=n - 110,
                                   p=[0.1, 0.1, 0.8])
    receivers = np.arange(40)
    senders = np.arange(100, 250)
    avals = np.full((n, z), 1.0)
    avals[20:40, j] = 0.01
    node, src, old, new, p = run_both_nadj(
        g, profiles, avals, np.zeros((n, z), dtype=np.int64), receivers,
        senders, j, 0.8, 0.2, 0.7, 0.2, 0.0)
    assert np.count_nonzero((node >= 20) & (old != new)) > 0


def test_nadj_pass_splits_plans_past_the_cell_cap():
    rng = np.random.default_rng(7)
    n = 700
    g, profiles = random_graph(rng, n, 2, 6000)
    j = 1
    profiles[:, j] = rng.choice([0.0, 0.5, 1.0], size=n)
    receivers = np.arange(300)
    senders = np.arange(400, 650)
    assert receivers.shape[0] * senders.shape[0] > kernels._PLAN_CELLS
    node, src, old, new, p = run_both_nadj(
        g, profiles, np.full((n, 2), 0.5), np.zeros((n, 2), dtype=np.int64),
        receivers, senders, j, 0.8, 0.05, 0.7, 0.2, 0.0)
    assert node.shape[0] == 300 * 250


def test_nadj_pass_fallback_calls_pinned(tmp_path, monkeypatch):
    # how many messages of one seeded run go through the per-receiver loop:
    # 29 hold scans and 464 single deliveries, against 233 and 528 when
    # every receiver goes through it
    bundle = io_formats.generate_synthetic(
        1000, 3000, 2, [0.6, 0.1, 0.2, 0.1], 5, tmp_path)
    g, symbols = io_formats.load_graph(bundle.edges_path, bundle.profiles_path)
    seeds = io_formats.load_seeds(bundle.seeds_path, symbols)
    params = sc.SimParams(rounds_K=4, r1=0.2, r2=0.2,
                          initial_persistence_A0=0.3, rng_seed=5)
    calls = {"_hold_scan": 0, "deliver": 0}
    for name in calls:
        def counted(*args, _fn=getattr(kernels, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(kernels, name, counted)
    trace, _ = sc.run_simulation(g, params, seeds)
    assert trace.ev_node.shape[0] == 24570
    assert calls == {"_hold_scan": 29, "deliver": 464}
