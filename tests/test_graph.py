import pickle

import numpy as np
import pytest

import stancecast as sc
from stancecast.errors import (
    BadStanceValueError,
    DuplicateEdgeError,
    IdOutOfRangeError,
    ProfileLengthMismatchError,
    SelfLoopError,
)


def test_minimal_graph():
    g = sc.build_graph(2, 1, [(0, 1)], [[1.0], [-1.0]])
    assert g.n == 2 and g.m == 1 and g.z == 1
    assert list(g.out_neighbors(0)) == [1]
    assert list(g.out_neighbors(1)) == []


def test_dataset_one_shape_loads():
    # 1300 nodes / 4951 edges / 1 topic without error
    rng = np.random.default_rng(0)
    edges = set()
    while len(edges) < 4951:
        u, v = rng.integers(0, 1300, size=2)
        if u != v:
            edges.add((int(u), int(v)))
    profiles = np.full((1300, 1), -1.0)
    profiles[:15, 0] = 1.0
    g = sc.build_graph(1300, 1, sorted(edges), profiles)
    assert (g.n, g.m, g.z) == (1300, 4951, 1)


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        sc.build_graph(2, 1, [(0, 0)], [[1.0], [1.0]])


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdgeError):
        sc.build_graph(2, 1, [(0, 1), (0, 1)], [[1.0], [1.0]])


def test_edge_id_out_of_range():
    with pytest.raises(IdOutOfRangeError):
        sc.build_graph(2, 1, [(0, 5)], [[1.0], [1.0]])


def test_profile_length_mismatch():
    with pytest.raises(ProfileLengthMismatchError):
        sc.build_graph(2, 2, [(0, 1)], [[1.0], [1.0]])
    with pytest.raises(ProfileLengthMismatchError):
        sc.build_graph(2, 1, [(0, 1)], [[1.0]])


def test_bad_stance_rejected():
    with pytest.raises(BadStanceValueError):
        sc.build_graph(2, 1, [(0, 1)], [[0.3], [1.0]])


def test_out_neighbors_star_and_isolated():
    g = sc.build_graph(4, 1, [(0, 3), (0, 1), (0, 2)],
                       [[1.0], [-1.0], [-1.0], [-1.0]])
    assert list(g.out_neighbors(0)) == [1, 2, 3]  # sorted despite input order
    assert list(g.out_neighbors(2)) == []
    with pytest.raises(IdOutOfRangeError):
        g.out_neighbors(4)


def test_out_neighbors_path_query():
    g = sc.build_graph(3, 1, [(0, 1), (1, 2)], [[1.0], [-1.0], [-1.0]])
    assert list(g.out_neighbors(1)) == [2]


def test_has_edge_direction_sensitive():
    g = sc.build_graph(2, 1, [(0, 1)], [[1.0], [-1.0]])
    assert g.has_edge(0, 1)
    assert not g.has_edge(1, 0)
    with pytest.raises(IdOutOfRangeError):
        g.has_edge(0, 2)


def test_has_edge_complete_digraph():
    edges = [(u, v) for u in range(3) for v in range(3) if u != v]
    g = sc.build_graph(3, 1, edges, [[1.0]] * 3)
    for u, v in edges:
        assert g.has_edge(u, v)


def test_out_neighbors_has_edge_agree():
    rng = np.random.default_rng(5)
    pairs = [(u, v) for u in range(8) for v in range(8) if u != v]
    chosen = rng.choice(len(pairs), size=20, replace=False)
    g = sc.build_graph(8, 1, [pairs[i] for i in chosen], [[-1.0]] * 8)
    for u in range(8):
        neighbors = set(int(q) for q in g.out_neighbors(u))
        for v in range(8):
            if u != v:
                assert g.has_edge(u, v) == (v in neighbors)


def test_graph_arrays_immutable():
    g = sc.build_graph(2, 1, [(0, 1)], [[1.0], [-1.0]])
    with pytest.raises(ValueError):
        g.profiles[0, 0] = 0.0
    with pytest.raises(ValueError):
        g.indices[0] = 0



def test_pickled_graph_stays_immutable():
    # a library caller may send a graph to another process pickled
    g = sc.build_graph(3, 2, [(0, 1), (2, 1), (1, 0)],
                       [[1.0, -1.0], [0.5, 0.0], [-1.0, 1.0]])
    back = pickle.loads(pickle.dumps(g))
    for name in ("indptr", "indices", "in_indptr", "in_indices", "profiles"):
        array = getattr(back, name)
        assert np.array_equal(array, getattr(g, name))
        assert array.dtype == getattr(g, name).dtype
        assert not array.flags.writeable
    assert (back.n, back.m, back.z) == (g.n, g.m, g.z)
    assert list(back.out_neighbors(1)) == [0]
