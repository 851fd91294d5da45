"""Dataset, config, trace and ground-truth files, plus a synthetic generator.

Formats (all UTF-8, line oriented):

* edges: one ``source<TAB>target`` per line, ``#`` starts a comment line;
* profiles / seeds: CSV ``node_id,topic_id,stance`` with a header row;
* ground truth: CSV ``node_id,topic_id,final_stance`` with a header row;
* config: a JSON object with the simulation parameter keys;
* trace: JSON Lines — one header object carrying the schema version,
  graph shape, resolved parameters and round summaries, then one event
  object per line with keys (round, topic, node, old, new, source, p,
  channel).

External ids are arbitrary strings; dense internal ids are assigned by
lexicographic sort so loading never depends on file row order. Writers go
through a temp file and rename, so failures leave no partial output.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .dynamics import CHANNELS
from .engine import _EVENT_DTYPES, RoundSummary, SimTrace
from .errors import (
    BadStanceValueError,
    DuplicateEdgeError,
    EmptySeedsWarning,
    InconsistentIdsError,
    InfeasibleEdgeCountError,
    ParseError,
    RangeViolationError,
    SchemaVersionMismatchError,
    SelfLoopError,
    StancecastError,
)
from .graph import STANCE_UNKNOWN, SocialGraph, build_graph, is_stance
from .params import SimParams

TRACE_SCHEMA = "tsa-trace/1"

_CHANNEL_CODES = {name: code for code, name in enumerate(CHANNELS)}


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


@dataclass(frozen=True)
class DatasetBundle:
    """File paths of one dataset: graph, profiles, seeds, optional truth."""

    edges_path: Path
    profiles_path: Path
    seeds_path: Path
    truth_path: Path | None = None


def _atomic_write(path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


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


def write_graph(g: SocialGraph, symbols: SymbolTable,
                edges_path, profiles_path) -> None:
    """Write the edge and profiles files (every node-topic pair emitted)."""
    lines = ["# source\ttarget"]
    for u in range(g.n):
        for v in g.out_neighbors(u):
            lines.append(f"{symbols.node_ids[u]}\t{symbols.node_ids[int(v)]}")
    _atomic_write(edges_path, "\n".join(lines) + "\n")

    rows = ["node_id,topic_id,stance"]
    for u in range(g.n):
        for j in range(g.z):
            rows.append(f"{symbols.node_ids[u]},{symbols.topic_ids[j]},"
                        f"{_format_stance(g.profiles[u, j])}")
    _atomic_write(profiles_path, "\n".join(rows) + "\n")


def _format_stance(value: float) -> str:
    value = float(value)
    return str(int(value)) if value in (-1.0, 0.0, 1.0) else "0.5"


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


def write_seeds(path, seeds: dict[int, dict[int, float]],
                symbols: SymbolTable) -> None:
    rows = ["node_id,topic_id,stance"]
    for topic in sorted(seeds):
        for node in sorted(seeds[topic]):
            rows.append(f"{symbols.node_ids[node]},{symbols.topic_ids[topic]},"
                        f"{_format_stance(seeds[topic][node])}")
    _atomic_write(path, "\n".join(rows) + "\n")


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


def write_ground_truth(path, truth: dict[tuple[int, int], float],
                       symbols: SymbolTable) -> None:
    rows = ["node_id,topic_id,final_stance"]
    for node, topic in sorted(truth):
        rows.append(f"{symbols.node_ids[node]},{symbols.topic_ids[topic]},"
                    f"{_format_stance(truth[(node, topic)])}")
    _atomic_write(path, "\n".join(rows) + "\n")


def load_config(path) -> SimParams:
    """Load and range-validate simulation parameters from JSON."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, exc.colno, exc.msg) from None
    if not isinstance(data, dict):
        raise ParseError(path, 1, 1, "config must be a JSON object")
    return SimParams.from_dict(data).validate()


def write_config(path, params: SimParams) -> None:
    _atomic_write(path, json.dumps(params.to_dict(), indent=2) + "\n")


def write_trace(trace: SimTrace, path) -> None:
    """Serialize a trace: one header line, then one event object per line."""
    header = {
        "schema": TRACE_SCHEMA,
        "n": trace.n,
        "z": trace.z,
        "params": trace.params.to_dict(),
        "round_summaries": [
            [s.round, s.topic, s.unknown, s.oppose, s.neutral, s.support,
             s.newly_activated]
            for s in trace.round_summaries
        ],
    }
    parts = [json.dumps(header, separators=(",", ":"))]
    rounds = trace.ev_round.tolist()
    topics = trace.ev_topic.tolist()
    nodes = trace.ev_node.tolist()
    olds = trace.ev_old.tolist()
    news = trace.ev_new.tolist()
    sources = trace.ev_source.tolist()
    ps = trace.ev_p.tolist()
    channels = trace.ev_channel.tolist()
    for i in range(len(nodes)):
        parts.append(
            f'{{"round":{rounds[i]},"topic":{topics[i]},"node":{nodes[i]},'
            f'"old":{olds[i]!r},"new":{news[i]!r},"source":{sources[i]},'
            f'"p":{ps[i]!r},"channel":"{CHANNELS[channels[i]]}"}}'
        )
    _atomic_write(path, "\n".join(parts) + "\n")


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _trace_header(path, header: dict):
    """Check the fields of a trace header; returns (n, z, params, round
    summaries), or raises a :class:`ParseError` at line 1."""
    for key in ("n", "z"):
        if not _is_count(header.get(key)):
            raise ParseError(path, 1, 1, f"trace header {key!r} must be a "
                             f"non-negative integer, got {header.get(key)!r}")
    if not isinstance(header.get("params"), dict):
        raise ParseError(path, 1, 1, "trace header 'params' must be an object")
    try:
        params = SimParams.from_dict(header["params"])
    except StancecastError as exc:
        raise ParseError(path, 1, 1, f"trace header 'params': {exc}") from None
    rows = header.get("round_summaries")
    width = len(fields(RoundSummary))
    if not (isinstance(rows, list)
            and all(isinstance(row, list) and len(row) == width
                    and all(_is_count(x) for x in row) for row in rows)):
        raise ParseError(path, 1, 1, "trace header 'round_summaries' must be a "
                         f"list of rows of {width} non-negative integers")
    return header["n"], header["z"], params, [RoundSummary(*row) for row in rows]


def _event_line_no(lines, index: int) -> int:
    """Line number of the event at ``index`` (blank lines hold no event)."""
    return [line_no for line_no, line in enumerate(lines[1:], start=2)
            if line.strip()][index]


def _number_column(values, dtype):
    """``values`` as a 1-d array, or None unless all are numbers that
    ``dtype`` holds (integers for an integer dtype). Not yet cast to
    ``dtype``, so range checks see the values as written."""
    if not values:
        return np.empty(0, dtype=dtype)
    try:
        column = np.asarray(values)
    except ValueError:
        return None
    kinds = "biuf" if np.dtype(dtype).kind == "f" else "biu"
    if column.ndim != 1 or column.dtype.kind not in kinds:
        return None
    return column


def _is_stance_code(column):
    return (column == -1.0) | (column == 0.0) | (column == 0.5) | (column == 1.0)


def _bad_events(columns, n: int, z: int, rounds_k: int):
    """Mask of the events with a field outside its range."""
    rnd, topic, p = columns["round"], columns["topic"], columns["p"]
    node, source = columns["node"], columns["source"]
    return ((rnd < 1) | (rnd > rounds_k) | (topic < 0) | (topic >= z)
            | (node < 0) | (node >= n) | (source < 0) | (source >= n)
            | ~_is_stance_code(columns["old"]) | ~_is_stance_code(columns["new"])
            | ~((p >= 0.0) & (p <= 1.0)) | (columns["channel"] < 0))


def _event_problem(ev: dict, n: int, z: int, rounds_k: int) -> str | None:
    """Why one parsed event breaks the checks of :func:`_bad_events`."""
    for key, low, high in (("round", 1, rounds_k), ("topic", 0, z - 1),
                           ("node", 0, n - 1), ("source", 0, n - 1)):
        value = ev[key]
        if not (isinstance(value, int) and low <= value <= high):
            return f"event {key} {value!r} outside the integers [{low}, {high}]"
    for key in ("old", "new"):
        value = ev[key]
        if not (isinstance(value, (int, float)) and is_stance(value)):
            return f"event {key} {value!r} not in {{-1, 0, 0.5, 1}}"
    value = ev["p"]
    if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
        return f"event p {value!r} outside [0, 1]"
    if ev["channel"] not in _CHANNEL_CODES:
        return f"unknown event channel {ev['channel']!r}"
    return None


def _raise_first_bad_event(path, lines, n: int, z: int, rounds_k: int):
    """Raise a :class:`ParseError` at the first event line that is invalid."""
    for line_no, line in enumerate(lines[1:], start=2):
        if line.strip():
            problem = _event_problem(json.loads(line), n, z, rounds_k)
            if problem is not None:
                raise ParseError(path, line_no, 1, problem)
    raise ParseError(path, 1, 1, "trace events do not fit the header")


def load_trace(path) -> SimTrace:
    """Parse a trace file back into a :class:`SimTrace` (lossless).

    Every event must name a node and source in ``[0, n)``, a topic in
    ``[0, z)``, a round in ``[1, rounds_K]``, stance codes for ``old`` and
    ``new``, a probability in ``[0, 1]`` and a known channel; the first event
    that does not is reported as a :class:`ParseError` at its line, as is
    the first event whose round is lower than the one before it. A header
    without ``n``, ``z``, ``params`` or ``round_summaries``, or with one of
    the wrong type, is a :class:`ParseError` at line 1.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ParseError(path, 1, 1, "empty trace file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ParseError(path, 1, exc.colno, exc.msg) from None
    if not isinstance(header, dict) or header.get("schema") != TRACE_SCHEMA:
        raise SchemaVersionMismatchError(
            f"{path}: expected schema {TRACE_SCHEMA!r}, "
            f"got {header.get('schema') if isinstance(header, dict) else header!r}"
        )
    n, z, params, summaries = _trace_header(path, header)
    rounds, topics, nodes, olds = [], [], [], []
    news, sources, ps, channels = [], [], [], []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            ev = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(path, line_no, exc.colno, exc.msg) from None
        try:
            rounds.append(ev["round"])
            topics.append(ev["topic"])
            nodes.append(ev["node"])
            olds.append(ev["old"])
            news.append(ev["new"])
            sources.append(ev["source"])
            ps.append(ev["p"])
            channels.append(_CHANNEL_CODES.get(ev["channel"], -1))
        except KeyError as exc:
            raise ParseError(path, line_no, 1, f"missing event key {exc}") from None
        except TypeError:
            raise ParseError(path, line_no, 1,
                             "event is not an object with a string channel") from None
    columns = {
        name: _number_column(values, _EVENT_DTYPES[name])
        for name, values in (("round", rounds), ("topic", topics),
                             ("node", nodes), ("old", olds), ("new", news),
                             ("source", sources), ("p", ps))
    }
    columns["channel"] = np.asarray(channels, dtype=np.int8)
    if (any(col is None for col in columns.values())
            or _bad_events(columns, n, z, params.rounds_K).any()):
        _raise_first_bad_event(path, lines, n, z, params.rounds_K)
    for name, dtype in _EVENT_DTYPES.items():
        columns[name] = columns[name].astype(dtype, copy=False)
    back = np.flatnonzero(np.diff(columns["round"]) < 0)
    if back.shape[0]:
        i = int(back[0]) + 1
        raise ParseError(path, _event_line_no(lines, i), 1,
                         f"event round {columns['round'][i]} after round "
                         f"{columns['round'][i - 1]}: events out of round order")
    return SimTrace(n, z, params, columns, summaries)


def generate_synthetic(n: int, m: int, z: int, stance_mix, seed: int,
                       out_dir) -> DatasetBundle:
    """Write a uniform random simple directed graph with sampled profiles.

    ``stance_mix`` is a distribution over (unknown, oppose, neutral,
    support) — either one 4-vector applied to every topic or one per
    topic. Nodes with a known sampled stance become the seed users.
    Byte-identical output for identical arguments.
    """
    if n < 0 or m < 0 or z < 0:
        raise InfeasibleEdgeCountError("n, m and z must be non-negative")
    if m > n * (n - 1):
        raise InfeasibleEdgeCountError(
            f"{m} edges requested but a simple digraph on {n} nodes "
            f"has at most {n * (n - 1)}"
        )
    mix = np.asarray(stance_mix, dtype=np.float64)
    if mix.ndim == 1:
        mix = np.tile(mix, (z, 1))
    if mix.shape != (z, 4):
        raise RangeViolationError("stance_mix", stance_mix,
                                  f"shape (4,) or ({z}, 4)")
    if (mix < 0).any() or not np.allclose(mix.sum(axis=1), 1.0, atol=1e-9):
        raise RangeViolationError("stance_mix", stance_mix,
                                  "non-negative entries summing to 1")

    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < m:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n - 1))
        if v >= u:
            v += 1
        edges.add((u, v))
    width = max(1, len(str(max(n - 1, 0))))
    node_ids = tuple(f"n{i:0{width}d}" for i in range(n))
    topic_ids = tuple(f"t{j}" for j in range(z))
    symbols = SymbolTable(node_ids, topic_ids)

    profiles = np.empty((n, z))
    for j in range(z):
        profiles[:, j] = rng.choice(
            np.array([-1.0, 0.0, 0.5, 1.0]), size=n, p=mix[j]
        )
    graph = build_graph(n, z, sorted(edges), profiles)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bundle = DatasetBundle(
        edges_path=out_dir / "edges.tsv",
        profiles_path=out_dir / "profiles.csv",
        seeds_path=out_dir / "seeds.csv",
    )
    write_graph(graph, symbols, bundle.edges_path, bundle.profiles_path)
    seeds: dict[int, dict[int, float]] = {}
    for j in range(z):
        known = np.flatnonzero(profiles[:, j] != STANCE_UNKNOWN)
        if known.size:
            seeds[j] = {int(v): float(profiles[v, j]) for v in known}
    write_seeds(bundle.seeds_path, seeds, symbols)
    return bundle
