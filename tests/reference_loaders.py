"""The loaders of stancecast before they became array code, kept verbatim.

``tests/test_loaders.py`` checks that the array loaders in
``stancecast.io_formats`` and ``stancecast.graph.build_graph`` give the same
graphs, symbol tables, seeds and truth as these per-line loops, or the same
error. Only the imports are adapted; the code is not to be edited.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from stancecast.errors import (
    BadStanceValueError,
    DuplicateEdgeError,
    EmptySeedsWarning,
    IdOutOfRangeError,
    InconsistentIdsError,
    ParseError,
    ProfileLengthMismatchError,
    SelfLoopError,
)
from stancecast.graph import STANCE_UNKNOWN, SocialGraph, is_stance


@dataclass(frozen=True)
class SymbolTable:
    """Maps external string ids to the dense internal ids and back."""

    node_ids: tuple
    topic_ids: tuple

    def __post_init__(self):
        object.__setattr__(self, "_node_index",
                           {s: i for i, s in enumerate(self.node_ids)})
        object.__setattr__(self, "_topic_index",
                           {s: i for i, s in enumerate(self.topic_ids)})

    def node(self, external: str) -> int:
        try:
            return self._node_index[external]
        except KeyError:
            raise InconsistentIdsError(f"unknown node id {external!r}") from None

    def topic(self, external: str) -> int:
        try:
            return self._topic_index[external]
        except KeyError:
            raise InconsistentIdsError(f"unknown topic id {external!r}") from None


def _parse_stance(token: str, path, line_no: int, column: int,
                  allow_unknown: bool = True) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(path, line_no, column, f"bad stance {token!r}") from None
    if not is_stance(value) or (not allow_unknown and value == STANCE_UNKNOWN):
        domain = "{-1, 0, 0.5, 1}" if allow_unknown else "{0, 0.5, 1}"
        raise BadStanceValueError(
            f"{path}:{line_no}:{column}: stance {token!r} not in {domain}"
        )
    return value


def _read_csv_rows(path, expected_header: str):
    """Yield (line_no, fields) for a 3-column CSV with a fixed header."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != expected_header:
        raise ParseError(path, 1, 1, f"expected header {expected_header!r}")
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 3:
            raise ParseError(path, line_no, 1,
                             f"expected 3 comma-separated fields, got {len(fields)}")
        if any(not f for f in fields):
            column = line.split(",").index("") + 1 if "" in fields else 1
            raise ParseError(path, line_no, column, "empty field")
        yield line_no, fields


def _read_edge_lines(path):
    path = Path(path)
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(),
                                   start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split("\t")
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise ParseError(path, line_no, 1,
                             "expected 'source<TAB>target'")
        yield line_no, fields[0], fields[1]


def load_graph(edges_path, profiles_path=None,
               seeds_path=None) -> tuple[SocialGraph, SymbolTable]:
    """Parse an edge file and a profiles file into an immutable graph.

    Internal ids come from the lexicographically sorted union of node ids
    seen in any of the files; topics from the profiles file. Without a
    profiles file the graph has zero topics (enough for the IC baseline).
    A seeds file only adds its node ids, so a seed on no edge is a node.
    Self-loops, repeated edges and repeated profile rows fail at their line.
    """
    edge_rows = list(_read_edge_lines(edges_path))
    profile_rows = [] if profiles_path is None else list(
        _read_csv_rows(profiles_path, "node_id,topic_id,stance")
    )

    node_names = {u for _, u, v in edge_rows} | {v for _, u, v in edge_rows}
    node_names.update(fields[0] for _, fields in profile_rows)
    if seeds_path is not None:
        node_names.update(fields[0] for _, fields in
                          _read_csv_rows(seeds_path, "node_id,topic_id,stance"))
    topic_names = sorted({fields[1] for _, fields in profile_rows})
    symbols = SymbolTable(tuple(sorted(node_names)), tuple(topic_names))

    edges = [(symbols.node(u), symbols.node(v)) for _, u, v in edge_rows]
    profiles = _profiles_table(profiles_path, profile_rows, symbols)
    try:
        graph = build_graph(len(symbols.node_ids), len(symbols.topic_ids),
                            edges, profiles)
    except (SelfLoopError, DuplicateEdgeError) as exc:
        line_no, u, v = edge_rows[exc.index]
        problem = (f"self-loop at node {u!r}" if isinstance(exc, SelfLoopError)
                   else f"duplicate edge ({u!r}, {v!r})")
        raise type(exc)(f"{edges_path}:{line_no}: {problem}", exc.index) from None
    return graph, symbols


def _profiles_table(path, rows, symbols: SymbolTable) -> np.ndarray:
    """Stance array of a profiles file's rows; a repeated pair is an error."""
    profiles = np.full((len(symbols.node_ids), len(symbols.topic_ids)),
                       STANCE_UNKNOWN)
    seen = set()
    for line_no, fields in rows:
        key = (symbols.node(fields[0]), symbols.topic(fields[1]))
        if key in seen:
            raise InconsistentIdsError(
                f"{path}:{line_no}: duplicate profile row for "
                f"({fields[0]!r}, {fields[1]!r})"
            )
        seen.add(key)
        profiles[key] = _parse_stance(fields[2], path, line_no, 3)
    return profiles


def load_profiles(path) -> tuple[np.ndarray, SymbolTable]:
    """Load a standalone profiles file (for evaluation and curves).

    The file must enumerate every node of the graph (the writers in this
    package always do); node and topic ids are assigned by sorting the ids
    present in this file. A second row for one pair is an error at its line.
    """
    rows = list(_read_csv_rows(path, "node_id,topic_id,stance"))
    symbols = SymbolTable(tuple(sorted({fields[0] for _, fields in rows})),
                          tuple(sorted({fields[1] for _, fields in rows})))
    return _profiles_table(path, rows, symbols), symbols


def load_seeds(path, symbols: SymbolTable) -> dict[int, dict[int, float]]:
    """Load seed stances as a per-topic map {topic: {node: stance}}."""
    seeds: dict[int, dict[int, float]] = {}
    count = 0
    for line_no, fields in _read_csv_rows(path, "node_id,topic_id,stance"):
        node = symbols.node(fields[0])
        topic = symbols.topic(fields[1])
        stance = _parse_stance(fields[2], path, line_no, 3, allow_unknown=False)
        per_topic = seeds.setdefault(topic, {})
        if node in per_topic:
            raise InconsistentIdsError(
                f"{path}:{line_no}: duplicate seed for ({fields[0]!r}, {fields[1]!r})"
            )
        per_topic[node] = stance
        count += 1
    if count == 0:
        warnings.warn(f"{path}: no seed stances", EmptySeedsWarning, stacklevel=2)
    return seeds


def load_seed_nodes(path, symbols: SymbolTable) -> list[int]:
    """Distinct seed node ids from a seeds CSV, ignoring topic and stance.

    Used by the IC baseline, which has no topic dimension.
    """
    nodes = set()
    for _line_no, fields in _read_csv_rows(path, "node_id,topic_id,stance"):
        nodes.add(symbols.node(fields[0]))
    if not nodes:
        warnings.warn(f"{path}: no seed stances", EmptySeedsWarning, stacklevel=2)
    return sorted(nodes)


def load_ground_truth(path, symbols: SymbolTable) -> dict[tuple[int, int], float]:
    """Load observed final stances keyed by (node, topic)."""
    truth: dict[tuple[int, int], float] = {}
    for line_no, fields in _read_csv_rows(path, "node_id,topic_id,final_stance"):
        key = (symbols.node(fields[0]), symbols.topic(fields[1]))
        if key in truth:
            raise InconsistentIdsError(
                f"{path}:{line_no}: duplicate truth row for "
                f"({fields[0]!r}, {fields[1]!r})"
            )
        truth[key] = _parse_stance(fields[2], path, line_no, 3)
    return truth


def build_graph(node_count, topic_count, edge_list, profiles) -> SocialGraph:
    """Validate and assemble an immutable :class:`SocialGraph`.

    ``edge_list`` is any iterable of (source, target) pairs; ``profiles``
    one stance sequence of length ``topic_count`` per node. Rejects
    self-loops, duplicate edges, out-of-range ids, wrong profile lengths
    and stance codes outside the domain.
    """
    n = int(node_count)
    z = int(topic_count)
    if n < 0 or z < 0:
        raise IdOutOfRangeError("node and topic counts must be non-negative")

    pairs = [(int(u), int(v)) for u, v in edge_list]
    seen = set()
    for k, edge in enumerate(pairs):
        u, v = edge
        if not (0 <= u < n and 0 <= v < n):
            raise IdOutOfRangeError(f"edge ({u}, {v}) references id outside [0, {n})")
        if u == v:
            raise SelfLoopError(f"self-loop at node {u}", k)
        if edge in seen:
            raise DuplicateEdgeError(f"duplicate edge ({u}, {v})", k)
        seen.add(edge)

    profile_rows = list(profiles)
    if len(profile_rows) != n:
        raise ProfileLengthMismatchError(
            f"got {len(profile_rows)} profiles for {n} nodes"
        )
    prof = np.full((n, z), STANCE_UNKNOWN, dtype=np.float64)
    for node, row in enumerate(profile_rows):
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

    ends = np.fromiter(chain.from_iterable(pairs), dtype=np.int64,
                       count=2 * len(pairs)).reshape(-1, 2)
    indptr, indices = _compressed(ends[:, 0], ends[:, 1], n)
    in_indptr, in_indices = _compressed(ends[:, 1], ends[:, 0], n)

    for arr in (indptr, indices, in_indptr, in_indices, prof):
        arr.flags.writeable = False
    return SocialGraph(
        n=n, m=len(pairs), z=z, indptr=indptr, indices=indices,
        in_indptr=in_indptr, in_indices=in_indices, profiles=prof
    )


def _compressed(rows, cols, n):
    """Compressed-row arrays (indptr, indices) of the distinct pairs
    (rows[k], cols[k]), each row's columns ascending."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[np.argsort(rows * n + cols)]
