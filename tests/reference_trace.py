"""The trace writer and loader of stancecast before they became array code,
kept verbatim.

``tests/test_trace_io.py`` checks that the streamed writer in
``stancecast.io_formats`` writes the same bytes as ``write_trace`` here, and
that its array loader gives the same :class:`SimTrace` as the per-line loop
of ``load_trace`` here, or raises the same error. Only the imports are
adapted; the code is not to be edited.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields
from pathlib import Path

import numpy as np

from stancecast.dynamics import CHANNELS
from stancecast.engine import _EVENT_DTYPES, RoundSummary, SimTrace
from stancecast.errors import (
    ParseError,
    SchemaVersionMismatchError,
    StancecastError,
)
from stancecast.graph import _is_stance_code, is_stance
from stancecast.params import SimParams

TRACE_SCHEMA = "tsa-trace/1"

_CHANNEL_CODES = {name: code for code, name in enumerate(CHANNELS)}


def _atomic_write(path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _read_text(path) -> str:
    """The text of a UTF-8 file, newlines translated as ``Path.read_text``
    does. A byte that is not UTF-8 is a :class:`ParseError` at its line
    (counted as ``str.splitlines`` counts lines) and byte column."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = (data[:exc.start].decode("utf-8") + "x").splitlines()
        raise ParseError(path, len(lines), len(lines[-1].encode("utf-8")),
                         f"byte 0x{data[exc.start]:02x} is not UTF-8") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


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
    lines = _read_text(path).splitlines()
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
