import itertools
import warnings

import numpy as np
import pytest

import stancecast as sc
from stancecast import ic
from reference_ic import run_ic as reference_run_ic
from stancecast.cli import main
from stancecast.errors import IdOutOfRangeError, RangeViolationError


@pytest.fixture
def path3_plain():
    return sc.build_graph(3, 0, [(0, 1), (1, 2)], [[], [], []])


def test_p_one_activates_reachable_set(path3_plain):
    trace = sc.run_ic(path3_plain, sc.IcParams(edge_probability=1.0), [0])
    assert trace.active == {0, 1, 2}
    assert trace.rounds == [[0], [1], [2]]


def test_p_zero_keeps_seeds_only(path3_plain):
    trace = sc.run_ic(path3_plain, sc.IcParams(edge_probability=0.0), [0])
    assert trace.active == {0}


def test_unreachable_component_stays_inactive():
    g = sc.build_graph(4, 0, [(0, 1), (2, 3)], [[]] * 4)
    trace = sc.run_ic(g, sc.IcParams(edge_probability=1.0), [0])
    assert trace.active == {0, 1}


def test_seed_validation(path3_plain):
    with pytest.raises(IdOutOfRangeError):
        sc.run_ic(path3_plain, sc.IcParams(), [7])
    with pytest.raises(RangeViolationError):
        sc.IcParams(edge_probability=1.5).validate()


def test_deterministic_per_stream(path3_plain):
    params = sc.IcParams(edge_probability=0.5, rng_seed=42)
    a = sc.run_ic(path3_plain, params, [0], run_index=3)
    b = sc.run_ic(path3_plain, params, [0], run_index=3)
    assert a.rounds == b.rounds


def test_one_shot_rule_and_termination():
    # on a cycle with p = 1 each node activates once; the process stops
    g = sc.build_graph(3, 0, [(0, 1), (1, 2), (2, 0)], [[], [], []])
    trace = sc.run_ic(g, sc.IcParams(edge_probability=1.0), [0])
    flattened = [v for batch in trace.rounds for v in batch]
    assert sorted(flattened) == [0, 1, 2]
    assert len(trace.rounds) <= g.n


def test_max_rounds_caps_depth(path3_plain):
    params = sc.IcParams(edge_probability=1.0, max_rounds=1)
    trace = sc.run_ic(path3_plain, params, [0])
    assert trace.active == {0, 1}


def test_per_edge_probability_map():
    g = sc.build_graph(3, 0, [(0, 1), (0, 2)], [[], [], []])
    params = sc.IcParams(edge_probability=0.0,
                         edge_probabilities={(0, 1): 1.0})
    trace = sc.run_ic(g, params, [0])
    assert trace.active == {0, 1}


def path3_enumeration_mean(p):
    """Exact expected final active count on 0 -> 1 -> 2 from seed 0."""
    total = 0.0
    for first, second in itertools.product([0, 1], repeat=2):
        prob = (p if first else 1 - p) * (p if second else 1 - p)
        size = 1 + first + (first and second)
        total += prob * size
    return total


def test_enumeration_oracle_value():
    # outcomes {1, 2, 3} with probabilities {0.5, 0.25, 0.25}
    assert path3_enumeration_mean(0.5) == 1.75


def test_monte_carlo_converges_to_enumeration(path3_plain):
    runs = 20000
    params = sc.IcParams(edge_probability=0.5, rng_seed=7)
    mean, counts = sc.mean_final_active(path3_plain, params, [0], runs)
    expected = path3_enumeration_mean(0.5)
    # outcome variance: E[X^2] - E[X]^2 = 3.75 - 3.0625 = 0.6875
    stderr = (0.6875 / runs) ** 0.5
    assert abs(mean - expected) <= 3 * stderr
    assert len(counts) == runs


# -- exactness: the array rounds against the per-edge loop it replaced -----

def random_graph(rng, n, density, sinks=0):
    """n nodes with each ordered pair an edge with probability ``density``;
    the last ``sinks`` nodes have no out-edges."""
    pairs = [(u, v) for u in range(n - sinks) for v in range(n)
             if u != v and rng.random() < density]
    return sc.build_graph(n, 0, pairs, [[]] * n), pairs


def messy_seeds(rng, n):
    """Unsorted seeds with repeats; numpy ints among them."""
    seeds = [int(v) for v in rng.integers(0, n, int(rng.integers(1, 7)))]
    return seeds + seeds[:2] + [np.int64(seeds[0])]


def repeats_in_first_round(g, seeds):
    """Whether some target is a candidate of two seeds in round 1."""
    seeds = {int(v) for v in seeds}
    targets = [int(q) for v in seeds for q in g.out_neighbors(v)
               if int(q) not in seeds]
    return len(set(targets)) < len(targets)


@pytest.mark.parametrize("max_rounds", [None, 1, 2, 3])
@pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
def test_rounds_match_reference(p, max_rounds):
    rng = np.random.default_rng(int(p * 10) * 10 + (max_rounds or 0))
    dense_with_repeats = 0
    for density in (0.05, 0.3, 0.9):
        for _ in range(4):
            n = int(rng.integers(2 if density < 0.9 else 8, 40))
            g, _ = random_graph(rng, n, density, sinks=int(rng.integers(0, 3)))
            seeds = messy_seeds(rng, n)
            if density == 0.9:
                dense_with_repeats += repeats_in_first_round(g, seeds)
            params = sc.IcParams(edge_probability=p, max_rounds=max_rounds,
                                 rng_seed=int(rng.integers(0, 2**32)))
            for run_index in range(3):
                assert sc.run_ic(g, params, seeds, run_index).rounds == \
                    reference_run_ic(g, params, seeds, run_index).rounds
    assert dense_with_repeats >= 2


def test_edge_overrides_match_reference():
    rng = np.random.default_rng(5)
    for density in (0.1, 0.5, 0.9):
        for _ in range(8):
            n = int(rng.integers(3, 30))
            g, pairs = random_graph(rng, n, density)
            chosen = rng.choice(len(pairs), size=min(len(pairs), 12),
                                replace=False) if pairs else []
            overrides = {pairs[k]: float(rng.choice([0.0, 1.0, rng.random()]))
                         for k in chosen}
            # pairs that are not edges are never used
            overrides.update({(0, 0): 1.0, (n + 4, 1): 1.0, (1, n + 4): 1.0,
                              (-1, 0): 1.0})
            params = sc.IcParams(edge_probability=float(rng.random()),
                                 edge_probabilities=overrides,
                                 rng_seed=int(rng.integers(0, 2**32)))
            seeds = messy_seeds(rng, n)
            for run_index in range(3):
                assert sc.run_ic(g, params, seeds, run_index).rounds == \
                    reference_run_ic(g, params, seeds, run_index).rounds


def test_seeds_on_no_edge_and_a_frontier_without_out_edges():
    # 0 -> {1, 2, 3} -> 4 with sinks 4 and 5; 6 and 7 lie on no edge
    g = sc.build_graph(8, 0, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4),
                              (1, 5)], [[]] * 8)
    for p in (0.3, 0.7, 1.0):
        params = sc.IcParams(edge_probability=p, rng_seed=11)
        for seeds in ([7, 0, 6, 0], [6], [], [4, 5], [3, 1, 2]):
            for run_index in range(20):
                assert sc.run_ic(g, params, seeds, run_index).rounds == \
                    reference_run_ic(g, params, seeds, run_index).rounds
    trace = sc.run_ic(g, sc.IcParams(edge_probability=1.0), [7, 0, 6])
    assert trace.rounds == [[0, 6, 7], [1, 2, 3], [4, 5]]


def test_baseline_ic_counts_are_pinned(tmp_path):
    # the output of the per-edge loop, so a change of draw order shows here
    # even if the reference above were edited
    data = tmp_path / "data"
    assert main(["generate", "--nodes", "200", "--edges", "1600",
                 "--topics", "1", "--seed", "11", "--out-dir", str(data)]) == 0
    out = tmp_path / "ic.json"
    assert main(["baseline-ic", "--graph", str(data / "edges.tsv"),
                 "--seeds", str(data / "seeds.csv"), "--p", "0.1",
                 "--runs", "20", "--out", str(out), "--seed", "5"]) == 0
    assert out.read_text() == (
        '{"runs":[48,44,50,41,61,38,44,66,57,51,61,48,56,49,51,49,59,49,'
        '44,98],"mean":53.2}\n')


# -- the coin flips of one round, against the draw contract stated plainly --

def contract_coin_flips(targets, uniforms, p):
    """Candidates in order: one whose target an earlier candidate of the
    round activated is skipped and takes no uniform; any other takes the
    next uniform and fires when it is below its p."""
    done, fired, used = set(), [], 0
    for t, q in zip(targets, p):
        hit = t not in done and uniforms[used] < q
        used += t not in done
        if hit:
            done.add(t)
        fired.append(hit)
    return fired, used


def random_round(rng):
    c = int(rng.choice([0, 1, 2, int(rng.integers(3, 60))]))
    kinds = int(rng.integers(1, c + 2))  # 1: every candidate on one target
    targets = rng.integers(0, kinds, c) * 3 + 5
    pick = int(rng.integers(0, 4))
    if pick == 0:  # one p for the round, as a uniform edge probability
        p = np.full(c, rng.choice([0.0, 0.1, 0.5, 1.0, rng.random()]))
    elif pick == 1:  # 0 and 1 among per-candidate values
        p = rng.choice([0.0, 1.0, 0.3, rng.random()], size=c)
    elif pick == 2:  # an unvalidated NaN fires nothing
        p = rng.choice([np.nan, 0.2, 0.9], size=c)
    else:
        p = rng.random(c)
    uniforms = rng.random(c + int(rng.integers(0, 4)))
    return targets, uniforms, p


def test_coin_flips_follow_the_draw_contract():
    rng = np.random.default_rng(23)
    repeated = skipped = one_target = 0
    for _ in range(3000):
        targets, uniforms, p = random_round(rng)
        fired, used = ic._coin_flips(targets, uniforms, p)
        expected, expected_used = contract_coin_flips(
            targets.tolist(), uniforms.tolist(), p.tolist())
        assert fired.dtype == np.bool_ and fired.tolist() == expected
        assert used == expected_used
        kinds = len(set(targets.tolist()))
        repeated += kinds < len(targets)
        skipped += used < len(targets)
        one_target += kinds == 1 and len(targets) > 2
    assert repeated > 1000 and skipped > 500 and one_target > 20


# -- seed boundary and the Monte Carlo run count --------------------------

@pytest.mark.parametrize("seeds, bad", [
    ([0, 2**70], 2**70),
    ([-(2**70), 1], -(2**70)),
    ([np.uint64(2**63 + 5)], 2**63 + 5),
    (iter([1, 2**70, 0]), 2**70),
])
def test_seeds_outside_int64_are_out_of_range(path3_plain, seeds, bad):
    with pytest.raises(IdOutOfRangeError) as err:
        sc.run_ic(path3_plain, sc.IcParams(), seeds)
    assert str(err.value) == f"seed node {bad} outside [0, 3)"


def test_seeds_are_taken_as_int(path3_plain):
    params = sc.IcParams(edge_probability=1.0)
    assert sc.run_ic(path3_plain, params, [2.7]).rounds == [[2]]
    assert sc.run_ic(path3_plain, params, [True]).rounds == [[1], [2]]
    assert sc.run_ic(path3_plain, params, iter([1, 0, 1])).rounds == \
        [[0, 1], [2]]


@pytest.mark.parametrize("runs", [0, -1])
def test_mean_final_active_rejects_runs_below_one(path3_plain, runs):
    # seed 7 is out of range, so a cascade run first would raise that error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeViolationError) as err:
            sc.mean_final_active(path3_plain, sc.IcParams(), [7], runs)
    assert (err.value.key, err.value.value) == ("runs", runs)


def test_baseline_ic_counts_are_pinned_on_a_dense_network(tmp_path):
    # round 1 has 1,835 candidates on 1,141 targets, with 91 skips at
    # p = 0.1 and 388 at p = 0.5; round 2 at p = 0.5 has 2,074
    data = tmp_path / "data"
    assert main(["generate", "--nodes", "2000", "--edges", "20000",
                 "--topics", "1", "--seed", "11", "--out-dir", str(data)]) == 0
    pinned = {
        "0.1": '{"runs":[778,774,748,746,747,787,773,807,753,782,898,754,783,'
               '763,818,688,813,788,930,876],"mean":790.3}\n',
        "0.5": '{"runs":[1987,1992,1988,1989,1990,1988,1982,1992,1990,1986,'
               '1987,1987,1991,1987,1984,1982,1993,1989,1992,1991],'
               '"mean":1988.35}\n',
    }
    for p, text in pinned.items():
        out = tmp_path / f"ic-{p}.json"
        assert main(["baseline-ic", "--graph", str(data / "edges.tsv"),
                     "--seeds", str(data / "seeds.csv"), "--p", p,
                     "--runs", "20", "--out", str(out), "--seed", "5"]) == 0
        assert out.read_text() == text
