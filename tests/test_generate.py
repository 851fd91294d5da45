"""The synthetic generator and the stance-file writers against their loop
references (``tests/reference_generate.py``), and the bundles they write,
pinned by sha256."""

import dataclasses
import hashlib

import numpy as np
import pytest
import reference_generate as ref

from stancecast import build_graph, io_formats
from stancecast.errors import BadStanceValueError, RangeViolationError

MIX = [0.85, 0.07, 0.04, 0.04]


def sample_and_loop(n, m, seed, skip=0):
    """(the sampler's pairs, the loop's pairs, each generator's state after
    them and its next draw), on two generators of ``seed`` that each drew
    ``skip`` raw 32-bit values first."""
    out = []
    for draw in (io_formats._edge_sample, ref.edge_loop):
        rng = np.random.default_rng(seed)
        rng.integers(0, 2**32, size=skip, dtype=np.uint32)
        pairs = draw(rng, n, m)
        out.append((pairs, rng.bit_generator.state,
                    rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist()))
    return out


@pytest.mark.parametrize("n, m", [
    (5, 0),
    # rng.integers(0, 1) draws no raw value: every v is 0
    (2, 1), (2, 2),
    # complete digraphs, whose last pairs take many draws
    (3, 6), (100, 9_900),
    (10, 30), (1_000, 3_000),
    # bounds that reject many raw values: 30% and 50% at 3e9 and 2**31 + 1
    (3 * 10**9, 2_000), (2**31 + 1, 1_000), (2**32, 2_000),
])
@pytest.mark.parametrize("skip", [0, 1], ids=["even", "odd"])
def test_sampler_draws_the_loops_pairs_and_leaves_its_state(n, m, skip):
    (pairs, state, after), (edges, ref_state, ref_after) = sample_and_loop(
        n, m, seed=n + m, skip=skip)
    assert pairs.shape == (m, 2) and pairs.dtype == np.int64
    assert sorted(map(tuple, pairs.tolist())) == sorted(edges)
    assert state == ref_state
    assert after == ref_after


def test_sampler_keeps_the_first_distinct_pairs_in_draw_order():
    # the loop's draws, one pair at a time, each with its first position
    rng = np.random.default_rng(5)
    drawn = []
    while len(set(drawn)) < 20:
        drawn.append(ref.edge_loop(rng, 6, 1).pop())
    first = list(dict.fromkeys(drawn))
    pairs = io_formats._edge_sample(np.random.default_rng(5), 6, 20)
    assert list(map(tuple, pairs.tolist())) == first


@pytest.mark.parametrize("n, m, z, seed, digests", [
    (4005, 16_000, 3, 7, (
        "ad22e72b13e250e838c40cb41fb21bdfc9daab8a748d57a9edf9be5c32fc89fe",
        "0cf0b57005c28c1064c8fd54faa6f00845cd9d388c115f83367cbe5c737bec1e",
        "f02480d0362af05afc526d814064fe603067ea0bed859bb191585266944576f6")),
    (2000, 5000, 2, 21, (
        "47f824fd602bc4941df8d8a893679a23b2ca563bdd0455a10d2d1f84e5b37a6c",
        "1d3c73e8463e6ce925f4467affb4aecef5d451478c8a597f88f1dc624b3a3e93",
        "304e776b285301ff91134f2f62366234b6d9e3e19e096e580ce4a9eb68016c3a")),
    # one raw value of its draws is rejected
    (36_000, 144_000, 3, 7, (
        "d3442c5a2e70e169936a2f6099e579bef6b5dce9887b9c400b8542dacf5d37e6",
        "a5e2b4b8784703fc86173b881b8fa14859af5a40faf84c3c68fc7479e45731cf",
        "d08e52b26e84e6aa7a98ea49b1257b5d4bb107985bb35bed997449cf0f6c8c76")),
])
def test_bundle_digests_are_pinned(tmp_path, n, m, z, seed, digests):
    bundle = io_formats.generate_synthetic(n, m, z, MIX, seed, tmp_path)
    assert tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (
        bundle.edges_path, bundle.profiles_path, bundle.seeds_path)) == digests


@pytest.mark.parametrize("n, m, z, mix, seed", [
    (0, 0, 1, MIX, 0), (1, 0, 2, MIX, 1), (2, 2, 1, [0, 0.3, 0.3, 0.4], 2),
    (3, 6, 2, [1, 0, 0, 0], 3), (5, 4, 1, [0.5, 0.2, 0.1, 0.2], 4),
    (40, 120, 2, [[0.2, 0.3, 0.3, 0.2], [0, 0, 0, 1]], 5),
    (1001, 5000, 4, [0.4, 0.2, 0.2, 0.2], 2**64 - 1),
])
def test_bundles_equal_the_references(tmp_path, n, m, z, mix, seed):
    new = io_formats.generate_synthetic(n, m, z, mix, seed, tmp_path / "new")
    old = ref.generate_synthetic(n, m, z, mix, seed, tmp_path / "old")
    for path, ref_path in zip(dataclasses.astuple(new), dataclasses.astuple(old)):
        assert path.read_bytes() == ref_path.read_bytes()


def test_more_than_2_32_nodes_refused_before_any_draw(tmp_path):
    with pytest.raises(RangeViolationError) as err:
        io_formats.generate_synthetic(2**32 + 1, 0, 1, MIX, 0, tmp_path / "x")
    assert err.value.args == ("n", 2**32 + 1, f"integers <= {2**32}")
    assert not (tmp_path / "x").exists()


SYMBOLS = io_formats.SymbolTable(("a", "b", "c"), ("t0", "t1"))


def test_writers_write_the_references_bytes(tmp_path):
    # Python and numpy ids and stances, -0.0, and unsorted keys
    seeds = {1: {2: 0.5, np.int64(0): -0.0}, 0: {1: 1, 0: np.float64(0.0)}}
    truth = {(2, 1): -1.0, (0, 0): 0.5, (np.int64(1), 1): 1, (0, 1): -0.0}
    g = build_graph(3, 2, [(2, 0), (0, 2), (0, 1)],
                    [[1.0, -1.0], [0.5, 0.0], [-1.0, -0.0]])
    for writers, name in ((io_formats, "new"), (ref, "old")):
        writers.write_seeds(tmp_path / f"{name}-seeds.csv", seeds, SYMBOLS)
        writers.write_ground_truth(tmp_path / f"{name}-truth.csv", truth, SYMBOLS)
        writers.write_graph(g, SYMBOLS, tmp_path / f"{name}-edges.tsv",
                            tmp_path / f"{name}-profiles.csv")
    for kind in ("seeds.csv", "truth.csv", "edges.tsv", "profiles.csv"):
        assert ((tmp_path / f"new-{kind}").read_bytes()
                == (tmp_path / f"old-{kind}").read_bytes())


@pytest.mark.parametrize("stance", [-1.0, 0.25, 2.0, float("nan")])
def test_write_seeds_refuses_an_unknown_or_bad_stance(tmp_path, stance):
    # the seeds loader refuses all of these, -1 (unknown) included
    path = tmp_path / "seeds.csv"
    with pytest.raises(BadStanceValueError) as err:
        io_formats.write_seeds(path, {0: {0: 1.0}, 1: {2: stance}}, SYMBOLS)
    assert str(err.value) == (
        f"stance {stance!r} of node 'c', topic 't1' not in {{0, 0.5, 1}}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("stance", [0.25, 2.0, float("nan")])
def test_write_ground_truth_refuses_a_bad_stance(tmp_path, stance):
    path = tmp_path / "truth.csv"
    with pytest.raises(BadStanceValueError) as err:
        io_formats.write_ground_truth(path, {(1, 0): stance, (0, 0): -1.0},
                                      SYMBOLS)
    assert str(err.value) == (
        f"stance {stance!r} of node 'b', topic 't0' not in {{-1, 0, 0.5, 1}}")
    assert list(tmp_path.iterdir()) == []


def test_write_graph_refuses_a_bad_profile_before_either_file(tmp_path):
    g = build_graph(3, 2, [(0, 1)], [[1.0, -1.0]] * 3)
    profiles = np.array([[1.0, -1.0], [0.5, 0.0], [0.0, float("nan")]])
    bad = dataclasses.replace(g, profiles=profiles)
    with pytest.raises(BadStanceValueError) as err:
        io_formats.write_graph(bad, SYMBOLS, tmp_path / "edges.tsv",
                               tmp_path / "profiles.csv")
    assert str(err.value) == (
        "stance nan of node 'c', topic 't1' not in {-1, 0, 0.5, 1}")
    assert list(tmp_path.iterdir()) == []
