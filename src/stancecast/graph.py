"""Immutable directed social graph with per-node topic/stance profiles.

Nodes and topics are dense integer ids. Stances are float codes drawn from
the four-valued domain: -1 unknown, 0 oppose, 0.5 neutral, 1 support.
Adjacency is stored CSR-style (``indptr``/``indices``) with each
out-neighbor row sorted ascending so iteration order never depends on input
file ordering; the in-adjacency (``in_indptr``/``in_indices``, CSC of the
same edges) lists each node's in-neighbors ascending. All arrays are frozen
after construction; mutable per-run state lives in
:class:`stancecast.dynamics.SimState`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadStanceValueError,
    DuplicateEdgeError,
    IdOutOfRangeError,
    ProfileLengthMismatchError,
    SelfLoopError,
)

#: The four-valued stance domain.
STANCE_UNKNOWN = -1.0
STANCE_OPPOSE = 0.0
STANCE_NEUTRAL = 0.5
STANCE_SUPPORT = 1.0

STANCE_VALUES = (STANCE_UNKNOWN, STANCE_OPPOSE, STANCE_NEUTRAL, STANCE_SUPPORT)
KNOWN_STANCES = (STANCE_OPPOSE, STANCE_NEUTRAL, STANCE_SUPPORT)


def is_stance(value) -> bool:
    """True iff ``value`` is one of the four stance codes."""
    return value in (-1.0, 0.0, 0.5, 1.0)


@dataclass(frozen=True)
class SocialGraph:
    """Directed graph G = (V, E, T) with a stance profile per node.

    ``indptr``/``indices`` hold the out-adjacency in CSR form; edge (u, v)
    means information flows u -> v. ``in_indptr``/``in_indices`` hold the
    same edges by target: the sources of edges into v are
    ``in_indices[in_indptr[v]:in_indptr[v + 1]]``, ascending. ``profiles``
    is a (n, z) float array of stance codes. All arrays are read-only.
    """

    n: int
    m: int
    z: int
    indptr: np.ndarray
    indices: np.ndarray
    in_indptr: np.ndarray
    in_indices: np.ndarray
    profiles: np.ndarray

    def __setstate__(self, state: dict) -> None:
        # unpickled arrays come back writeable, as in a simulate worker
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self.__dict__.update(state)

    def check_node(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise IdOutOfRangeError(f"node id {v} outside [0, {self.n})")

    def check_topic(self, j: int) -> None:
        if not 0 <= j < self.z:
            raise IdOutOfRangeError(f"topic id {j} outside [0, {self.z})")

    def out_neighbors(self, v: int) -> np.ndarray:
        """Out-neighbors of ``v`` in ascending id order (read-only view)."""
        self.check_node(v)
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def out_degree(self, v: int) -> int:
        self.check_node(v)
        return int(self.indptr[v + 1] - self.indptr[v])

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the directed edge (u, v) exists."""
        self.check_node(u)
        self.check_node(v)
        row = self.indices[self.indptr[u] : self.indptr[u + 1]]
        i = int(np.searchsorted(row, v))
        return i < len(row) and int(row[i]) == v


def build_graph(node_count, topic_count, edge_list, profiles) -> SocialGraph:
    """Validate and assemble an immutable :class:`SocialGraph`.

    ``edge_list`` is any iterable of (source, target) pairs, an (m, 2) array
    among them; ``profiles`` one stance sequence of length ``topic_count``
    per node, an (n, z) array among them. Rejects self-loops, duplicate
    edges, out-of-range ids, wrong profile lengths and stance codes outside
    the domain, reporting the first bad pair or profile in input order.
    """
    n = int(node_count)
    z = int(topic_count)
    if n < 0 or z < 0:
        raise IdOutOfRangeError("node and topic counts must be non-negative")

    ends = _edge_array(edge_list)
    u, v = ends[:, 0], ends[:, 1]
    outside = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    loops = u == v
    bad = outside | loops | _repeats(u * n + v)
    if bad.any():
        k = int(np.argmax(bad))
        uk, vk = int(u[k]), int(v[k])
        if outside[k]:
            raise IdOutOfRangeError(f"edge ({uk}, {vk}) references id outside [0, {n})")
        if loops[k]:
            raise SelfLoopError(f"self-loop at node {uk}", k)
        raise DuplicateEdgeError(f"duplicate edge ({uk}, {vk})", k)

    prof = _profile_array(profiles, n, z)
    indptr, indices = _compressed(u, v, n)
    in_indptr, in_indices = _compressed(v, u, n)

    for arr in (indptr, indices, in_indptr, in_indices, prof):
        arr.flags.writeable = False
    return SocialGraph(
        n=n, m=ends.shape[0], z=z, indptr=indptr, indices=indices,
        in_indptr=in_indptr, in_indices=in_indices, profiles=prof
    )


def _is_stance_code(values) -> np.ndarray:
    """Element-wise :func:`is_stance` of an array."""
    return (values == -1.0) | (values == 0.0) | (values == 0.5) | (values == 1.0)


def _repeats(keys) -> np.ndarray:
    """Mask of the entries of ``keys`` equal to an earlier entry."""
    mask = np.ones(len(keys), dtype=bool)
    mask[np.unique(keys, return_index=True)[1]] = False
    return mask


def _sorted_distinct(ids: np.ndarray) -> np.ndarray:
    """The distinct entries of the integer array ``ids``, ascending."""
    # a sort and a neighbour compare: np.unique on int64 took 13 times as
    # long on 1,513 edges-10k seed ids (numpy 2.4)
    ids = np.sort(ids)
    keep = np.ones(ids.shape[0], dtype=np.bool_)
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def _edge_array(edge_list) -> np.ndarray:
    """The pairs of ``edge_list`` as an (m, 2) int64 array."""
    ends = np.asarray(edge_list if isinstance(edge_list, np.ndarray)
                      else list(edge_list))
    if ends.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if ends.ndim != 2 or ends.shape[1] != 2:
        raise ValueError("edge_list must hold (source, target) pairs")
    return ends.astype(np.int64, copy=False)


def _profile_array(profiles, n: int, z: int) -> np.ndarray:
    """The (n, z) stance array of ``profiles``, validated."""
    rows = profiles if isinstance(profiles, np.ndarray) else list(profiles)
    if len(rows) != n:
        raise ProfileLengthMismatchError(f"got {len(rows)} profiles for {n} nodes")
    if n == 0:
        return np.full((0, z), STANCE_UNKNOWN)
    try:
        prof = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError):
        prof = None
    if prof is None or prof.shape != (n, z) or not _is_stance_code(prof).all():
        prof = _profile_rows(rows, z)
    return prof


def _profile_rows(rows, z: int) -> np.ndarray:
    """:func:`_profile_array` one row at a time, for input that is not an
    array of stance codes: raises at the first bad row, cell by cell."""
    prof = np.full((len(rows), z), STANCE_UNKNOWN, dtype=np.float64)
    for node, row in enumerate(rows):
        values = list(row)
        if len(values) != z:
            raise ProfileLengthMismatchError(
                f"profile of node {node} has length {len(values)}, expected {z}"
            )
        for j, value in enumerate(values):
            value = float(value)
            if not is_stance(value):
                raise BadStanceValueError(
                    f"stance {value!r} of node {node}, topic {j} not in {{-1, 0, 0.5, 1}}"
                )
            prof[node, j] = value
    return prof


def _compressed(rows, cols, n):
    """Compressed-row arrays (indptr, indices) of the distinct pairs
    (rows[k], cols[k]), each row's columns ascending."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[np.argsort(rows * n + cols)]
