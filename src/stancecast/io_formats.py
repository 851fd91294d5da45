"""Dataset, config, trace and ground-truth files, plus a synthetic generator.

Formats (all UTF-8, line oriented):

* edges: one ``source<TAB>target`` per line, ``#`` starts a comment line;
* profiles / seeds: CSV ``node_id,topic_id,stance`` with a header row;
* ground truth: CSV ``node_id,topic_id,final_stance`` with a header row;
* config: a JSON object with the simulation parameter keys;
* trace: JSON Lines — one header object carrying the schema version,
  graph shape, resolved parameters and round summaries, then one event
  object per line with keys (round, topic, node, old, new, source, p,
  channel). ``write_trace`` writes a canonical form: compact separators,
  that key order, ``repr`` floats and ``\\n`` line endings. A file in that
  form loads on an array path; any other valid JSON Lines trace is parsed
  one line at a time into the same columns, checked by the same rules
  (:func:`_event_rules`), with identical results. Each event line is five
  pieces: a head up to the node id, the node id, a middle up to the
  source id, the source id and a tail. The head, middle and tail texts
  are defined once (:func:`_head_text`, :func:`_middle_text`,
  :func:`_tail_text`), each formatted from the ``repr`` of its two
  values. The writer, :func:`_render_events`, joins each line from them,
  built once per distinct pair of values of a slice of events, and from
  id texts built once per write. A canonical load reads the file in
  blocks (:func:`_line_slices`) and checks each slice once by the same
  pieces (:func:`_canonical_slice`): it finds them by the colons of each
  line, reads the ids as arrays, and reads each distinct head, middle and
  tail once, accepting it only when it equals the writer's text for its
  values. Both ends work in slices of ``_SLICE_EVENTS`` lines, so each
  holds one slice and the columns, never the whole file.

External ids are arbitrary strings; dense internal ids are assigned by
sorting them by Unicode code point (as ``sorted`` does), so loading never
depends on file row order. The ids are sorted by packed code-point keys
(:func:`_intern`), integers that order as the strings do, and no string
sort runs. An edge, profiles, seeds or truth file is read by one
tokenizer (:func:`_rows`) as its code points: its bytes when it is ASCII
with no CR, else the code points of its text. One pass finds the line
breaks, separators and whitespace; the lines split and strip as
``str.splitlines`` and ``str.strip`` do, each field is a span of the code
points (:class:`_Spans`), the rows are checked as arrays, and a Python str
is made only for each distinct id and stance token. A malformed line, an
unknown id, a repeated row or a bad stance is reported at its
``file:line``, the first malformed line found by the masks that accept
good lines. The edge and stance files are written as whole arrays of id,
topic and stance texts, joined once (:func:`_text`); a stance that the
file's loader would refuse raises before any file is written. Writers go
through a temp file and rename, so failures leave no partial output and
no temp file, and an error names the path given.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    _raise_first,
)
from .graph import (STANCE_UNKNOWN, STANCE_VALUES, SocialGraph, _is_stance_code,
                    _repeats, _sorted_distinct, build_graph)
from .params import SimParams

TRACE_SCHEMA = "tsa-trace/1"

_CHANNEL_CODES = {name: code for code, name in enumerate(CHANNELS)}


@dataclass(frozen=True)
class SymbolTable:
    """The external string ids, indexed by dense internal id."""

    node_ids: tuple
    topic_ids: tuple


@dataclass(frozen=True)
class DatasetBundle:
    """File paths of one dataset: graph, profiles, seeds."""

    edges_path: Path
    profiles_path: Path
    seeds_path: Path


@contextmanager
def _replacing(path):
    """A binary file to write ``path`` through: ``<path>.tmp``, renamed to
    ``path`` when the block ends. On any failure the temp file is removed,
    and an :class:`OSError` is raised again naming ``path`` as given."""
    tmp = Path(path).with_name(Path(path).name + ".tmp")
    try:
        with open(tmp, "wb") as out:
            yield out
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp.is_file():
            tmp.unlink()
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


def _atomic_write(path, text: str) -> None:
    with _replacing(path) as out:
        out.write(text.encode("utf-8"))


def _read_text(path) -> str:
    """The text of a UTF-8 file, as :func:`_decode_text` gives it."""
    return _decode_text(path, Path(path).read_bytes())


def _decode_text(path, data: bytes) -> str:
    """The text of the UTF-8 bytes ``data`` read from ``path``, newlines
    translated as ``Path.read_text`` does. A byte that is not UTF-8 is a
    :class:`ParseError` at its line (counted as ``str.splitlines`` counts
    lines) and byte column."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = (data[:exc.start].decode("utf-8") + "x").splitlines()
        raise ParseError(path, len(lines), len(lines[-1].encode("utf-8")),
                         f"byte 0x{data[exc.start]:02x} is not UTF-8") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


class _Spans:
    """Tokens, each a span of one flat array of code points: token ``i`` is
    ``flat[starts[i]:starts[i] + lengths[i]]``, ``flat`` uint8 or uint32.
    Spans index and ravel as ``starts`` does, and 1-D spans give their
    tokens as Python strs by ``tolist``."""

    def __init__(self, flat: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
        self.flat, self.starts, self.lengths = flat, starts, lengths

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, index) -> _Spans:
        return _Spans(self.flat, self.starts[index], self.lengths[index])

    def ravel(self) -> _Spans:
        return _Spans(self.flat, self.starts.ravel(), self.lengths.ravel())

    def tolist(self) -> list:
        """The tokens as Python strs: read as rows of a ``U`` array padded to
        the longest token, or, when that padding would cost more than four
        times the code points, sliced one by one from the decoded flat."""
        width = int(self.lengths.max(initial=0))
        if not width:
            return [""] * len(self)
        if width * len(self) > 4 * int(self.lengths.sum()) + 64:
            text = self.flat.tobytes().decode(
                "utf-32-le" if self.flat.itemsize == 4 else "latin-1")
            return [text[s:s + k] for s, k in zip(self.starts.tolist(),
                                                  self.lengths.tolist())]
        columns = np.arange(width)
        table = self.flat.take(self.starts[:, None] + columns,
                               mode="clip").astype(np.uint32)
        table[columns >= self.lengths[:, None]] = 0
        texts = table.view(f"U{width}")[:, 0].tolist()
        # a U item drops its trailing NULs; put them back
        last = table[np.arange(len(self)), np.maximum(self.lengths - 1, 0)]
        for i in np.flatnonzero((last == 0) & (self.lengths > 0)).tolist():
            texts[i] += "\x00" * (int(self.lengths[i]) - len(texts[i]))
        return texts


def _str_spans(items: list) -> _Spans:
    """The strs ``items`` as spans of one flat array of their code points:
    uint8 if they are ASCII, else uint32."""
    joined = "".join(items)
    flat = (np.frombuffer(joined.encode(), dtype=np.uint8) if joined.isascii()
            else np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32))
    lengths = np.fromiter(map(len, items), dtype=np.intp, count=len(items))
    return _Spans(flat, np.cumsum(lengths) - lengths, lengths)


def _extent(spans: _Spans) -> tuple[int, int]:
    """The bounds of the part of ``spans.flat`` that its tokens read."""
    if not len(spans):
        return 0, 0
    return int(spans.starts.min()), int((spans.starts + spans.lengths).max())


def _joined(parts: list) -> _Spans:
    """The 1-D spans ``parts`` one after another, as spans over one flat
    array of the parts of their flats that they read (:func:`_extent`)."""
    parts = [p for p in parts if len(p)] or parts[:1]
    if len(parts) == 1:
        return parts[0]
    extents = [_extent(p) for p in parts]
    flats = [p.flat[lo:hi] for p, (lo, hi) in zip(parts, extents)]
    offsets = np.cumsum([0] + [len(f) for f in flats])
    return _Spans(np.concatenate(flats),
                  np.concatenate([p.starts + (o - lo) for p, o, (lo, _)
                                  in zip(parts, offsets, extents)]),
                  np.concatenate([p.lengths for p in parts]))


class _Rows(NamedTuple):
    """The data lines of a file up to its first malformed one: ``tokens``
    holds a row of fields per line, ``line_nos`` the line numbers,
    ``error`` the :class:`ParseError` of the malformed line, or None."""

    tokens: _Spans
    line_nos: np.ndarray
    error: ParseError | None

    def where(self, i: int) -> tuple[int, list]:
        """Line number and fields of row ``i``, as Python ints and strs."""
        return int(self.line_nos[i]), self.tokens[i].tolist()

    def complete(self) -> _Rows:
        """These rows; raises the malformed line's error if there is one."""
        if self.error is not None:
            raise self.error
        return self


_NO_ROWS = _Rows(_Spans(np.empty(0, dtype=np.uint8), np.empty((0, 3), dtype=np.intp),
                        np.empty((0, 3), dtype=np.intp)),
                 np.empty(0, dtype=np.intp), None)


# The class of each code point as :func:`_rows` reads lines: a line break of
# ``str.splitlines`` (CR is translated before), other whitespace of
# ``str.isspace``, or neither (0), as is every code point from the last index
_SPACE, _BREAK = 1, 2
_CLASS = np.zeros(0x3002, dtype=np.uint8)
_CLASS[[c for c in range(len(_CLASS)) if chr(c).isspace()]] = _SPACE
_CLASS[[ord(c) for c in "\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029"]] = _BREAK
_LAST_CLASSED = np.uint32(len(_CLASS) - 1)


def _classes(code_points: np.ndarray) -> np.ndarray:
    """The class (:data:`_CLASS`) of each of ``code_points``."""
    if code_points.dtype != np.uint8:
        code_points = np.minimum(code_points, _LAST_CLASSED)
    return _CLASS.take(code_points)


def _side_by_side(*columns) -> np.ndarray:
    """The 1-D arrays ``columns`` as the columns of one array: a copy of
    each in turn, where ``np.stack(columns, axis=1)`` copies an item at a
    time and takes several times as long."""
    out = np.empty((len(columns[0]), len(columns)), dtype=np.intp)
    for j, column in enumerate(columns):
        out[:, j] = column
    return out


def _stripped(flat, near, spaced, starts, ends):
    """(starts, ends, changed): the spans ``starts:ends`` of ``flat``
    (arrays of one shape, none holding a line break) once stripped as
    ``str.strip`` strips, and the raveled indices of the spans that changed.
    ``near`` holds the positions of ``flat`` that may be whitespace, in
    order, and ``spaced`` marks those that are and break no line. Only the
    spans that start or end with whitespace are looked up, each in the runs
    of adjacent whitespace positions."""
    if not spaced.any():
        return starts, ends, np.empty(0, dtype=np.intp)
    shape, starts, ends = starts.shape, starts.ravel(), ends.ravel()
    full = ends > starts
    lead = full & (_classes(flat.take(starts, mode="clip")) == _SPACE)
    trail = full & (_classes(flat.take(ends - 1, mode="clip")) == _SPACE)
    changed = np.flatnonzero(lead | trail)
    if changed.size:
        # per whitespace position, the first and last position of its run
        spaces = near[spaced]
        gaps = np.flatnonzero(np.diff(spaces) != 1)
        run = np.searchsorted(gaps, np.arange(len(spaces)))
        firsts = spaces[np.append(0, gaps + 1)][run]
        lasts = spaces[np.append(gaps, len(spaces) - 1)][run]
        starts, ends = starts.copy(), ends.copy()
        s, e = starts[changed], ends[changed]
        s = np.where(lead[changed], np.minimum(
            lasts.take(np.searchsorted(spaces, s), mode="clip") + 1, e), s)
        ends[changed] = np.where(trail[changed], np.maximum(
            firsts.take(np.searchsorted(spaces, e - 1), mode="clip"), s), e)
        starts[changed] = s
    return starts.reshape(shape), ends.reshape(shape), changed


def _rows(path, header: str | None) -> _Rows:
    """The rows of the edge file (``header`` None) or 3-column CSV with
    ``header`` at ``path``, as spans of its code points: its bytes if it is
    ASCII with no CR, else the code points of its text
    (:func:`_decode_text`).

    Lines split as ``str.splitlines`` splits them, and lines and fields
    strip as ``str.strip`` strips. In an edge file a line that strips to
    nothing or to a ``#`` comment is skipped, and every other line strips to
    ``source<TAB>target``. A CSV's first line strips to ``header`` (else
    this raises), a blank line is skipped, and every other line holds 3
    comma-separated fields, each one non-empty once stripped.

    One pass finds the line breaks, separators and whitespace. A line's
    marks (its separators and the break that ends it) follow each other in
    ``bounds``, so a line with k marks holds k fields, each between two of
    them. Only a line or field that starts or ends with whitespace is
    stripped (:func:`_stripped`), and only a stripped edge line has its tabs
    counted again.
    """
    content = Path(path).read_bytes()
    if content.isascii() and b"\r" not in content:
        flat = np.frombuffer(content, dtype=np.uint8)
    else:
        flat = np.frombuffer(_decode_text(path, content).encode("utf-32-le"),
                             dtype=np.uint32)
    sep, k = (ord("\t"), 2) if header is None else (ord(","), 3)
    near = (flat <= ord(" ")) | (flat == sep)
    if flat.itemsize > 1:
        near |= (flat >= 0x85) & (flat <= _LAST_CLASSED)
    near = np.flatnonzero(near)
    kinds = flat[near]
    classes = _classes(kinds)
    spaced = classes == _SPACE
    is_mark = (classes == _BREAK) | (kinds == sep)
    marks, mark_classes = near, classes
    if not is_mark.all():
        marks, mark_classes = near[is_mark], classes[is_mark]
    # bounds: a break before the first line, the marks, and a break after a
    # last line that has none; lines[i]: the index in bounds of the break
    # before line i
    bounds = np.concatenate([[-1], marks])
    lines = np.concatenate([[0], 1 + np.flatnonzero(mark_classes == _BREAK)])
    if len(flat) and bounds[lines[-1]] != len(flat) - 1:
        bounds = np.append(bounds, len(flat))
        lines = np.append(lines, len(bounds) - 1)
    starts, ends, count = bounds[lines[:-1]] + 1, bounds[lines[1:]], np.diff(lines)

    if header is None:
        left, right, again = _stripped(flat, near, spaced, starts, ends)
        tab = bounds[lines[:-1] + 1]  # a line's first mark
        if again.size:
            tabs = np.append(marks[mark_classes != _BREAK], len(flat))
            low = np.searchsorted(tabs, left[again])
            count[again] = np.searchsorted(tabs, right[again]) - low + 1
            tab[again] = tabs[low]
        data = np.flatnonzero((right > left)
                              & (flat.take(left, mode="clip") != ord("#")))
        bad = count[data] != k
        left, right, tab = left[data], right[data], tab[data]
        tokens = _Spans(flat, _side_by_side(left, tab + 1),
                        _side_by_side(tab - left, right - tab - 1))

        def error(i):
            return ParseError(path, int(data[i]) + 1, 1,
                              "expected 'source<TAB>target'")
    else:
        left, right, _ = _stripped(flat, near, spaced, starts[:1], ends[:1])
        if not len(starts) or flat[left[0]:right[0]].tolist() != list(map(ord, header)):
            raise ParseError(path, 1, 1, f"expected header {header!r}")
        # a line with no comma is blank if it strips to nothing
        lone = 1 + np.flatnonzero(count[1:] == 1)
        left, right, _ = _stripped(flat, near, spaced, starts[lone], ends[lone])
        data = np.ones(len(starts), dtype=bool)
        data[0] = False
        data[lone[right == left]] = False
        data = np.flatnonzero(data)
        three = count[data] == k
        fields = lines[data[three], None] + np.arange(k)
        left, right, _ = _stripped(flat, near, spaced, bounds[fields] + 1,
                                   bounds[fields + 1])
        empty = right == left
        bad = ~three
        if empty.any():  # one test of the whole table is much the faster
            bad[three] = empty.any(axis=1)
        # the rows before the first bad one are all rows of three fields
        tokens = _Spans(flat, left, right - left)

        def error(i):
            if not three[i]:
                return ParseError(path, int(data[i]) + 1, 1, "expected 3 comma-"
                                  f"separated fields, got {int(count[data[i]])}")
            return ParseError(path, int(data[i]) + 1, int(np.argmax(empty[i])) + 1,
                              "empty field")
    stop = int(np.argmax(bad)) if bad.any() else len(bad)
    return _Rows(tokens[:stop], data[:stop] + 1,
                 error(stop) if stop < len(bad) else None)


def _pack(key, flat, starts, lengths, start: int, k: int, bits: int):
    """``key`` with code points ``start`` to ``start + k`` of each token
    (given as spans), each plus 1, ORed into its low ``k * bits`` bits, the
    first one highest; 0 past a token's end, where ``flat`` is read clipped
    to its bounds."""
    shortest = int(lengths.min(initial=0))
    for j in range(start, min(start + k, int(lengths.max(initial=0)))):
        c = flat.take(starts + j, mode="clip").astype(np.uint64)
        c += 1
        if j >= shortest:
            c *= lengths > j
        c <<= np.uint64(bits * (start + k - 1 - j))
        key |= c
    return key


def _sorted_keys(key):
    """The order that sorts ``key``, and the mask of the sorted positions
    whose key differs from the one before."""
    order = np.argsort(key)
    key = key[order]
    new = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    return order, new


def _intern(tokens: _Spans):
    """(distinct, inverse) of the 1-D spans ``tokens``, as ``np.unique(...,
    return_inverse=True)`` gives them for an array of the same strs, by
    sorting integer keys instead of strings; ``distinct`` is spans too.

    A key packs code points, each plus 1, at the bit width of the largest
    one into a uint64, the first one highest, with 0 past a token's end:
    so a NUL counts as a character and a prefix sorts first, as in
    ``sorted`` (``'a' < 'a\\x00' < 'a\\x00b' < 'ab'``). The first key holds
    as many code points as fit in 64 bits. Groups of two or more tokens
    that tie on their keys while one of them goes on are sorted again, on
    their next code points under their group's rank, until no group ties.
    """
    flat, starts, lengths = tokens.flat, tokens.starts, tokens.lengths
    low, high = _extent(tokens)
    bits = (int(flat[low:high].max(initial=0)) + 1).bit_length()
    width = int(lengths.max(initial=0))
    n, k = len(tokens), 64 // bits
    # order: the tokens by their keys so far; new: the sorted positions
    # that start a group of equal keys; pos: those of the groups still tied
    order, new = _sorted_keys(_pack(np.zeros(n, dtype=np.uint64), flat,
                                    starts, lengths, 0, k, bits))
    pos, start = np.arange(n), k
    while start < width:
        group = np.cumsum(new[pos]) - 1
        tied = ((np.bincount(group) > 1)
                & (np.bincount(group, lengths[order[pos]] > start) > 0))
        pos = pos[tied[group]]
        if not pos.size:
            break
        rank = np.cumsum(new[pos], dtype=np.uint64) - 1
        k = (64 - int(rank[-1]).bit_length()) // bits
        tok = order[pos]
        sub, new_sub = _sorted_keys(_pack(rank << np.uint64(k * bits), flat,
                                          starts[tok], lengths[tok], start, k,
                                          bits))
        order[pos] = tok[sub]
        new[pos[1:]] = new_sub[1:]
        start += k
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return tokens[order[new]], inverse


def _float_or_nan(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        return math.nan


def _stance_values(tokens, allow_unknown: bool = True):
    """The stance of each token and the mask of the tokens that are no
    stance code. ``float`` runs once per distinct token, so every spelling
    it accepts ("1", "1.0", " +1e0") is accepted."""
    distinct, inverse = _intern(tokens)
    values = np.array([_float_or_nan(t) for t in distinct.tolist()],
                      dtype=np.float64)[inverse]
    bad = ~_is_stance_code(values)
    if not allow_unknown:
        bad |= values == STANCE_UNKNOWN
    return values, bad


def _stance_error(path, rows: _Rows, i: int, allow_unknown: bool = True):
    line_no, fields = rows.where(i)
    token = fields[2]
    try:
        float(token)
    except ValueError:
        return ParseError(path, line_no, 3, f"bad stance {token!r}")
    domain = "{-1, 0, 0.5, 1}" if allow_unknown else "{0, 0.5, 1}"
    return BadStanceValueError(
        f"{path}:{line_no}:3: stance {token!r} not in {domain}")


def _repeat_error(path, rows: _Rows, i: int, what: str):
    line_no, fields = rows.where(i)
    return InconsistentIdsError(
        f"{path}:{line_no}: duplicate {what} for ({fields[0]!r}, {fields[1]!r})")


def _unknown_error(path, rows: _Rows, i: int, column: int):
    line_no, fields = rows.where(i)
    kind = "node" if column == 0 else "topic"
    return InconsistentIdsError(
        f"{path}:{line_no}: unknown {kind} id {fields[column]!r}")


def _dense_ids(names: tuple, tokens) -> np.ndarray:
    """Index of each token in ``names`` (the last one if a name repeats),
    or -1 for a token not in ``names``."""
    _, inverse = _intern(_joined([_str_spans(list(names)), tokens]))
    ids = np.full(inverse.max(initial=-1) + 1, -1, dtype=np.int64)
    # a ufunc, not a write to a repeated index, whose order numpy leaves open
    np.maximum.at(ids, inverse[:len(names)], np.arange(len(names)))
    return ids[inverse[len(names):]]


def _row_ids(path, rows: _Rows, symbols: SymbolTable):
    """Node and topic ids of each row, and the checks that they are known."""
    node = _dense_ids(symbols.node_ids, rows.tokens[:, 0])
    topic = _dense_ids(symbols.topic_ids, rows.tokens[:, 1])
    checks = [(node < 0, lambda i: _unknown_error(path, rows, i, 0)),
              (topic < 0, lambda i: _unknown_error(path, rows, i, 1))]
    return node, topic, checks


_PROFILE_HEADER = "node_id,topic_id,stance"
_TRUTH_HEADER = "node_id,topic_id,final_stance"


def load_graph(edges_path, profiles_path=None,
               seeds_path=None) -> tuple[SocialGraph, SymbolTable]:
    """Parse an edge file and a profiles file into an immutable graph.

    Internal ids come from the sorted union of node ids seen in any of the
    files; topics from the profiles file. Without a profiles file the graph
    has zero topics (enough for the IC baseline). A seeds file only adds
    its node ids, so a seed on no edge is a node. Malformed lines, self-
    loops, repeated edges and repeated profile rows fail at their line.
    """
    edges = _rows(edges_path, None).complete()
    profiles = (_NO_ROWS if profiles_path is None else
                _rows(profiles_path, _PROFILE_HEADER).complete())
    names = [edges.tokens.ravel(), profiles.tokens[:, 0]]
    if seeds_path is not None:
        names.append(_rows(seeds_path, _PROFILE_HEADER).complete().tokens[:, 0])
    node_ids, node = _intern(_joined(names))
    topic_ids, topic = _intern(profiles.tokens[:, 1])
    symbols = SymbolTable(tuple(node_ids.tolist()), tuple(topic_ids.tolist()))

    m = len(edges.tokens)
    table = _profiles_table(profiles_path, profiles,
                            node[2 * m:2 * m + len(topic)], topic,
                            len(node_ids), len(topic_ids))
    try:
        graph = build_graph(len(node_ids), len(topic_ids),
                            node[:2 * m].reshape(m, 2), table)
    except (SelfLoopError, DuplicateEdgeError) as exc:
        line_no, (u, v) = edges.where(exc.index)
        problem = (f"self-loop at node {u!r}" if isinstance(exc, SelfLoopError)
                   else f"duplicate edge ({u!r}, {v!r})")
        raise type(exc)(f"{edges_path}:{line_no}: {problem}", exc.index) from None
    return graph, symbols


def _profiles_table(path, rows: _Rows, node, topic, n: int, z: int) -> np.ndarray:
    """(n, z) stance array of a profiles file's rows, given their node and
    topic ids; a repeated pair or a bad stance fails at its line."""
    keys = node * z + topic
    stances, bad = _stance_values(rows.tokens[:, 2])
    _raise_first([
        (_repeats(keys), lambda i: _repeat_error(path, rows, i, "profile row")),
        (bad, lambda i: _stance_error(path, rows, i)),
    ])
    profiles = np.full(n * z, STANCE_UNKNOWN)
    profiles[keys] = stances
    return profiles.reshape(n, z)


def write_graph(g: SocialGraph, symbols: SymbolTable,
                edges_path, profiles_path) -> None:
    """Write the edge and profiles files (every node-topic pair emitted).
    A profile that is not a stance code raises a
    :class:`BadStanceValueError` before either file is written."""
    node = np.repeat(np.arange(g.n), g.z)
    profiles = _stance_text(_PROFILE_HEADER, symbols, node,
                            np.tile(np.arange(g.z), g.n), g.profiles.ravel())
    sources = np.repeat(np.arange(g.n), np.diff(g.indptr))
    _atomic_write(edges_path, "# source\ttarget\n" + _text(
        _id_texts(symbols, "\t")[sources], _id_texts(symbols, "\n")[g.indices]))
    _atomic_write(profiles_path, profiles)


def _id_texts(symbols: SymbolTable, end: str) -> np.ndarray:
    """The text of each node id followed by ``end``, by dense id."""
    return np.array([f"{v}{end}" for v in symbols.node_ids], dtype=object)


def _text(*columns) -> str:
    """The lines of a table whose j-th piece of line i is ``columns[j][i]``,
    joined as one str: each column an object array of texts."""
    table = np.empty((len(columns[0]), len(columns)), dtype=object)
    for j, column in enumerate(columns):
        table[:, j] = column
    return "".join(table.ravel().tolist())


# The stance codes ascending, and the text that the stance files give each
_CODES = np.array(STANCE_VALUES)
_CODE_TEXTS = ("-1", "0", "0.5", "1")


def _stance_text(header: str, symbols: SymbolTable, node, topic, stance,
                 known: bool = False) -> str:
    """The text of a stance CSV: ``header``, then one line per row (node,
    topic, stance) of the arrays, ids as in ``symbols``. A stance that is
    not a code, or the unknown code when ``known``, raises a
    :class:`BadStanceValueError` naming the first such row's ids."""
    # NaN sorts after every code; -0.0 finds and is written as 0.0
    code = np.searchsorted(_CODES, stance).clip(max=len(_CODES) - 1)
    bad = _CODES[code] != stance
    if known:
        bad |= code == 0
    allowed = "{0, 0.5, 1}" if known else "{-1, 0, 0.5, 1}"
    _raise_first([(bad, lambda i: BadStanceValueError(
        f"stance {float(stance[i])!r} of node {symbols.node_ids[node[i]]!r}, "
        f"topic {symbols.topic_ids[topic[i]]!r} not in {allowed}"))])
    rests = np.array([f"{t},{c}\n" for t in symbols.topic_ids
                      for c in _CODE_TEXTS], dtype=object)
    return header + "\n" + _text(_id_texts(symbols, ",")[node],
                                  rests[topic * len(_CODES) + code])


def load_profiles(path) -> tuple[np.ndarray, SymbolTable]:
    """Load a standalone profiles file (for evaluation and curves).

    The file must enumerate every node of the graph (the writers in this
    package always do); node and topic ids are assigned by sorting the ids
    present in this file. A second row for one pair is an error at its line.
    """
    rows = _rows(path, _PROFILE_HEADER).complete()
    node_ids, node = _intern(rows.tokens[:, 0])
    topic_ids, topic = _intern(rows.tokens[:, 1])
    symbols = SymbolTable(tuple(node_ids.tolist()), tuple(topic_ids.tolist()))
    return _profiles_table(path, rows, node, topic, len(node_ids),
                           len(topic_ids)), symbols


def load_seeds(path, symbols: SymbolTable) -> dict[int, dict[int, float]]:
    """Load seed stances as a per-topic map {topic: {node: stance}}, topics
    in the order they first appear and nodes in file order.

    Each row is checked in turn: its fields, a known node, a known topic, a
    known stance (0, 0.5 or 1), and a (node, topic) pair not seen before.
    The first row that fails is reported at its line.
    """
    rows = _rows(path, _PROFILE_HEADER)
    node, topic, checks = _row_ids(path, rows, symbols)
    stances, bad = _stance_values(rows.tokens[:, 2], allow_unknown=False)
    _raise_first(checks + [
        (bad, lambda i: _stance_error(path, rows, i, allow_unknown=False)),
        (_repeats(node * len(symbols.topic_ids) + topic),
         lambda i: _repeat_error(path, rows, i, "seed")),
    ], rows.error)
    if not len(node):
        warnings.warn(f"{path}: no seed stances", EmptySeedsWarning, stacklevel=2)
    seeds: dict[int, dict[int, float]] = {}
    first_rows = np.sort(np.unique(topic, return_index=True)[1])
    for j in topic[first_rows].tolist():
        rows_j = topic == j
        seeds[j] = dict(zip(node[rows_j].tolist(), stances[rows_j].tolist()))
    return seeds


def load_seed_nodes(path, symbols: SymbolTable) -> list[int]:
    """Distinct seed node ids from a seeds CSV, ignoring topic and stance.

    Used by the IC baseline, which has no topic dimension.
    """
    rows = _rows(path, _PROFILE_HEADER)
    node = _dense_ids(symbols.node_ids, rows.tokens[:, 0])
    _raise_first([(node < 0, lambda i: _unknown_error(path, rows, i, 0))],
                 rows.error)
    if not len(node):
        warnings.warn(f"{path}: no seed stances", EmptySeedsWarning, stacklevel=2)
    return _sorted_distinct(node).tolist()


def write_seeds(path, seeds: dict[int, dict[int, float]],
                symbols: SymbolTable) -> None:
    """Write seeds {topic: {node: stance}} as a seeds CSV, by topic and then
    by node, ascending. A stance other than 0, 0.5 or 1 raises a
    :class:`BadStanceValueError` before the file is written."""
    topic = np.array([j for j, column in seeds.items() for _ in column],
                     dtype=np.intp)
    node = np.array([v for column in seeds.values() for v in column],
                    dtype=np.intp)
    stance = np.array([x for column in seeds.values() for x in column.values()],
                      dtype=np.float64)
    order = np.lexsort((node, topic))
    _atomic_write(path, _stance_text(_PROFILE_HEADER, symbols, node[order],
                                     topic[order], stance[order], known=True))


def load_ground_truth(path, symbols: SymbolTable) -> dict[tuple[int, int], float]:
    """Load observed final stances keyed by (node, topic), in file order.

    Each row is checked in turn: its fields, a known node, a known topic, a
    pair not seen before, and a stance code. The first row that fails is
    reported at its line.
    """
    rows = _rows(path, _TRUTH_HEADER)
    node, topic, checks = _row_ids(path, rows, symbols)
    stances, bad = _stance_values(rows.tokens[:, 2])
    _raise_first(checks + [
        (_repeats(node * len(symbols.topic_ids) + topic),
         lambda i: _repeat_error(path, rows, i, "truth row")),
        (bad, lambda i: _stance_error(path, rows, i)),
    ], rows.error)
    return dict(zip(zip(node.tolist(), topic.tolist()), stances.tolist()))


def write_ground_truth(path, truth: dict[tuple[int, int], float],
                       symbols: SymbolTable) -> None:
    """Write truth {(node, topic): stance} as a truth CSV, by node and then
    by topic, ascending. A stance that is not a stance code raises a
    :class:`BadStanceValueError` before the file is written."""
    pairs = np.array(list(truth), dtype=np.intp).reshape(-1, 2)
    stance = np.fromiter(truth.values(), dtype=np.float64, count=len(truth))
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    _atomic_write(path, _stance_text(_TRUTH_HEADER, symbols, pairs[order, 0],
                                     pairs[order, 1], stance[order]))


def load_config(path) -> SimParams:
    """Load and range-validate simulation parameters from JSON."""
    path = Path(path)
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, exc.colno, exc.msg) from None
    if not isinstance(data, dict):
        raise ParseError(path, 1, 1, "config must be a JSON object")
    return SimParams.from_dict(data).validate()


def write_config(path, params: SimParams) -> None:
    _atomic_write(path, json.dumps(params.to_dict(), indent=2) + "\n")


# Events per slice of a trace write or a canonical load: bounds the memory of
# either end, whatever the trace's length. On the seed-7 perfbench traces,
# against 65,536-event writes and whole-file loads, the tracemalloc peak of a
# cascade-4k write fell from 20.5 to 5.4 MB and of its load from 19.8 to
# 11.2 MB; in-process medians of 31 alternating calls: cascade-4k writes
# took 0.75 times as long, edges-10k and montecarlo-2k writes 1.01-1.03
# times, and loads 1.00-1.03 times.
_SLICE_EVENTS = 16384


def _keys(*columns):
    """(keys, find): the distinct values of ``columns``, and a function that
    gives each value of an array of them its index among the keys.

    Non-negative integers whose maximum is below their count plus 256 are
    their own index into ``range(max + 1)``, with no sort, and the keys hold
    no more values than that. Any other values are sorted and each value is
    found among the distinct ones by binary search: floats by their bits, so
    0.0 and -0.0 keep their own text, and integers of any sign or size by
    value. (A sort and a search take a fraction of the argsort that
    ``np.unique`` needs for its inverse.)"""
    kind = columns[0].dtype.kind
    size = sum(column.size for column in columns)
    if kind in "iu" and size:
        high = max(int(column.max()) for column in columns)
        if min(column.min() for column in columns) >= 0 and high < size + 256:
            return range(high + 1), lambda values: values.astype(np.intp)

    def bits(values):
        return values.view(f"u{values.itemsize}") if kind == "f" else values

    distinct = _sorted_distinct(np.concatenate([bits(column) for column in columns]))
    return (distinct.view(columns[0].dtype).tolist(),
            lambda values: np.searchsorted(distinct, bits(values)))


def _distinct(values: np.ndarray):
    """(keys, index): the distinct values of ``values`` (:func:`_keys`), and
    each value's index among them."""
    keys, find = _keys(values)
    return keys, find(values)


def _pair_texts(a: np.ndarray, b: np.ndarray, text):
    """(texts, index): ``text(x, y)`` for each distinct pair of values (x, y)
    of the columns ``a`` and ``b``, and each event's index into them."""
    keys_a, index_a = _distinct(a)
    keys_b, index_b = _distinct(b)
    width = len(keys_b)
    pairs, index = _distinct(index_a * width + index_b)
    return np.array([text(keys_a[k // width], keys_b[k % width]) for k in pairs],
                    dtype=object), index


def _head_text(r, t) -> str:
    """The text of an event line up to its node id."""
    return f'{{"round":{r!r},"topic":{t!r},"node":'


def _middle_text(o, w) -> str:
    """The text of an event line from the end of its node id up to its
    source id."""
    return f',"old":{o!r},"new":{w!r},"source":'


def _tail_text(p, c) -> str:
    """The text of an event line after its source id."""
    return f',"p":{p!r},"channel":"{CHANNELS[c]}"}}\n'


def _render_events(columns: dict, ids: tuple, start: int, stop: int) -> bytes:
    """The event lines ``start:stop`` of a trace file, as :func:`write_trace`
    writes them: compact separators, fixed key order, ``repr`` numbers and
    ``\\n`` endings.

    Each line is joined from five pieces: the text up to the node id for
    each (round, topic), the node id, the text up to the source id for each
    (old, new), the source id, and the rest of the line for each (p,
    channel). Node and source share the id texts ``ids``, (texts, find) as
    :func:`_keys` gives them, built once per write. The other pieces' texts
    are built once per distinct pair of values of the slice, from the
    ``repr`` of those values, so each line equals the one formatted field by
    field from the ``repr`` of each value. The pieces are laid out as one
    (event, piece) table, joined as ``str`` and then encoded: ``bytes.join``
    would hold a buffer per piece."""
    col = {name: values[start:stop] for name, values in columns.items()}
    texts, find = ids
    pieces = [
        _pair_texts(col["round"], col["topic"], _head_text),
        (texts, find(col["node"])),
        _pair_texts(col["old"], col["new"], _middle_text),
        (texts, find(col["source"])),
        _pair_texts(col["p"], col["channel"], _tail_text),
    ]
    return _text(*(piece_texts[index] for piece_texts, index in pieces)).encode()


# A round summary's fields in order, as a tuple (``astuple`` deep-copies
# each field: 0.7 ms for the 42 rows of an 11 ms edges-10k write)
_summary_row = attrgetter(*(f.name for f in fields(RoundSummary)))


def write_trace(trace: SimTrace, path) -> None:
    """Serialize a trace: one header line, then one event object per line,
    rendered and written ``_SLICE_EVENTS`` events at a time. A channel code
    outside ``range(len(CHANNELS))`` raises a :class:`StancecastError`
    before anything is written."""
    codes = trace.ev_channel
    _raise_first([((codes < 0) | (codes >= len(CHANNELS)), lambda i: StancecastError(
        f"trace event {i} has channel code {codes[i]}, not one of "
        f"0..{len(CHANNELS) - 1}"))])
    header = {
        "schema": TRACE_SCHEMA,
        "n": trace.n,
        "z": trace.z,
        "params": trace.params.to_dict(),
        "round_summaries": [list(_summary_row(s)) for s in trace.round_summaries],
    }
    columns = {name: getattr(trace, f"ev_{name}") for name in _EVENT_DTYPES}
    keys, find = _keys(trace.ev_node, trace.ev_source)
    ids = np.array([repr(v) for v in keys], dtype=object), find
    with _replacing(path) as out:
        out.write(json.dumps(header, separators=(",", ":")).encode() + b"\n")
        for start in range(0, len(trace.ev_node), _SLICE_EVENTS):
            out.write(_render_events(columns, ids, start, start + _SLICE_EVENTS))


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
    if params.rounds_K < 0:
        raise ParseError(path, 1, 1, "trace header 'params' rounds_K must be a "
                         f"non-negative integer, got {params.rounds_K!r}")
    rows = header.get("round_summaries")
    width = len(fields(RoundSummary))
    if not (isinstance(rows, list)
            and all(isinstance(row, list) and len(row) == width
                    and all(_is_count(x) for x in row) for row in rows)):
        raise ParseError(path, 1, 1, "trace header 'round_summaries' must be a "
                         f"list of rows of {width} non-negative integers")
    return header["n"], header["z"], params, [RoundSummary(*row) for row in rows]


def _event_rules(columns, n: int, z: int, rounds_k: int) -> list:
    """The checks of an event, in the order in which one event is checked:
    (field, mask of the events that fail the check, message for the field's
    value as a %-format)."""
    rules = []
    for name, low, high in (("round", 1, rounds_k), ("topic", 0, z - 1),
                            ("node", 0, n - 1), ("source", 0, n - 1)):
        # past what its column holds, a value would wrap when stored
        high = min(high, np.iinfo(_EVENT_DTYPES[name]).max)
        rules.append((name, (columns[name] < low) | (columns[name] > high),
                      f"event {name} %r outside the integers [{low}, {high}]"))
    rules += [(name, ~_is_stance_code(columns[name]),
               f"event {name} %r not in " + "{-1, 0, 0.5, 1}")
              for name in ("old", "new")]
    p = columns["p"]
    return rules + [("p", ~((p >= 0.0) & (p <= 1.0)), "event p %r outside [0, 1]"),
                    ("channel", columns["channel"] < 0, "unknown event channel %r")]


# The longest ``repr`` of a float64, 24 characters
_WIDEST_FLOAT = -2.2250738585072014e-308
# Bytes of the longest head, middle and tail that the writer writes for
# values its columns can hold, and digits of the longest non-negative int64:
# a longer piece or id is not canonical
_PIECE_BYTES = (len(_head_text(-2**31, -2**31)),
                len(_middle_text(_WIDEST_FLOAT, _WIDEST_FLOAT)),
                max(len(_tail_text(_WIDEST_FLOAT, c)) for c in range(len(CHANNELS))))
_ID_DIGITS = len(str(np.iinfo(np.int64).max))


def _channel_code(text: str) -> int:
    """The code of the channel named in a tail's text after its second
    colon, ``"name"}`` and a newline."""
    return _CHANNEL_CODES[text.strip('"}\n')]


# Per piece of an event line that is keyed by its text: the columns of its
# two values, how each value is read from its text, and the piece's text
_PIECES = ((("round", "topic"), (int, int), _head_text),
           (("old", "new"), (float, float), _middle_text),
           (("p", "channel"), (float, _channel_code), _tail_text))


# The fewest bytes of an event line that the writer writes
_SHORTEST_LINE = (len(_head_text(0, 0)) + len(_middle_text(0.0, 0.0)) + 2
                  + min(len(_tail_text(0.0, c)) for c in range(len(CHANNELS))))
# Bytes per read of a canonical load; a read's line ends are found with a
# mask of its size
_READ_BYTES = 1 << 18
# Bytes kept in front of the lines in the read buffer: a piece's fixed-width
# read (:func:`_fields`) may start that far before its line
_FRONT = -(-max(_PIECE_BYTES) // 8) * 8


def _line_slices(stream):
    """The lines of the binary file ``stream``, read ``_READ_BYTES`` at a
    time into one reused buffer: yields (raw, offsets) for the first line
    alone, then for each run of ``_SLICE_EVENTS`` lines (fewer at the end),
    where ``offsets`` holds the run's line starts in ``raw`` and the end of
    its last line. A line keeps its ``\\n``; bytes after the last ``\\n``
    are a last line without one. Only the lines not yet yielded are kept:
    before each read for a run they move to the front of the buffer, which
    grows only when a run does not fit."""
    buffer = np.empty(_FRONT + _READ_BYTES, dtype=np.uint8)
    start = end = _FRONT  # buffer[start:end] is not yet yielded
    pending = np.empty(0, dtype=np.int64)  # ends of its complete lines
    want, ended = 1, False
    while True:
        ends = [pending]
        found = pending.shape[0]
        while found < want and not ended:
            if end + _READ_BYTES > buffer.shape[0]:
                # room for a read and the lines still wanted, at the mean
                # length of the lines found so far (twice the bytes if none)
                more = ((want - found) * (end - start) // found if found
                        else end - start)
                grown = np.empty(end + _READ_BYTES + more, dtype=np.uint8)
                grown[:end] = buffer[:end]
                buffer = grown
            got = stream.readinto(buffer[end:end + _READ_BYTES])
            if got:
                ends.append(end + 1 + np.flatnonzero(
                    buffer[end:end + got] == ord("\n")))
                end += got
                found += ends[-1].shape[0]
            else:
                ended = True
                if end > start and buffer[end - 1] != ord("\n"):
                    ends.append(np.array([end]))
        ends = np.concatenate(ends)
        if not ends.shape[0]:
            return
        yield buffer, np.concatenate([[start], ends[:want]])
        start, pending = int(ends[:want][-1]), ends[want:]
        rest = end - start
        buffer[_FRONT:_FRONT + rest] = buffer[start:end]
        pending -= start - _FRONT
        start, end, want = _FRONT, _FRONT + rest, _SLICE_EVENTS


def _fields(raw: np.ndarray, starts, ends, widest: int, fill: int):
    """(words, lengths): the bytes ``starts[i]:ends[i]`` of ``raw`` as row
    ``i`` of a table of uint64 words, right-aligned and filled in front with
    the byte ``fill`` to the longest field rounded up to 8 bytes, and each
    field's length; None if a field is empty or longer than ``widest``."""
    lengths = ends - starts
    longest = int(lengths.max())
    width = -(-longest // 8) * 8
    # ends[i] < width only with a header shorter than any canonical one
    if lengths.min() < 1 or longest > widest or ends.min() < width:
        return None
    pad = width - lengths
    words = sliding_window_view(raw, width)[ends - width].view(np.uint64)
    # only the words up to the longest pad hold filled bytes
    front = np.arange(width) < np.arange(width + 1)[:, None]  # row k: k bytes
    padded = words[:, :-(-int(pad.max()) // 8)]
    padded &= np.take((~front * np.uint8(0xFF)).view(np.uint64)[:, :padded.shape[1]],
                      pad, axis=0)
    padded |= np.take((front * np.uint8(fill)).view(np.uint64)[:, :padded.shape[1]],
                      pad, axis=0)
    return words, lengths


def _decimal_ids(raw: np.ndarray, starts, ends):
    """The values of the ids ``starts[i]:ends[i]`` of ``raw``, or None unless
    each is an int64 written as the writer writes it: decimal digits with no
    sign and no leading zero."""
    fields = _fields(raw, starts, ends, _ID_DIGITS, fill=ord("0"))
    if fields is None:
        return None
    digits, lengths = fields[0].view(np.uint8), fields[1]
    leading = digits[np.arange(len(lengths)), digits.shape[1] - lengths]
    digits -= np.uint8(ord("0"))  # a byte below '0' wraps past 9
    if digits.max() > 9 or ((leading == ord("0")) & (lengths > 1)).any():
        return None
    values = np.zeros(len(lengths), dtype=np.uint64)
    for column in digits.T:
        values = values * 10 + column
    if (values > np.iinfo(np.int64).max).any():
        return None
    return values.astype(np.int64)


def _piece_hashes(words: np.ndarray, lengths) -> np.ndarray:
    """A 64-bit hash of each row of ``words`` and its length."""
    hashes = lengths.astype(np.uint64)
    for column in words.T:
        hashes = (hashes ^ column) * np.uint64(0x9E3779B97F4A7C15)
    return hashes


def _distinct_pieces(raw: np.ndarray, starts, ends, widest: int):
    """(texts, index): the distinct texts among the pieces ``starts[i]:
    ends[i]`` of ``raw``, and each piece's index among them. Each piece is
    keyed by its bytes, packed into zero-padded uint64 words, and grouped by
    the hash of its words and length; None if a piece is empty or longer
    than ``widest``, or if a piece differs from the first of its group (a
    hash collision). Texts decode as latin-1, so a non-ASCII piece is read
    and then fails its comparison with the writer's ASCII text."""
    fields = _fields(raw, starts, ends, widest, fill=0)
    if fields is None:
        return None
    words, lengths = fields
    _, first, index = np.unique(_piece_hashes(words, lengths),
                                return_index=True, return_inverse=True)
    same = first[index]
    if not ((lengths == lengths[same]).all() and (words == words[same]).all()):
        return None
    return [raw[s:e].tobytes().decode("latin-1")
            for s, e in zip(starts[first].tolist(), ends[first].tolist())], index


def _piece_values(text: str, readers, render):
    """The two values of the piece ``text``, read by ``readers`` from the
    texts after its first two colons (each up to a comma), or None unless
    ``render`` writes ``text`` for them."""
    try:
        values = tuple(read(part.partition(",")[0])
                       for read, part in zip(readers, text.split(":")[1:3]))
    except (ValueError, KeyError):
        return None
    return values if render(*values) == text else None


def _canonical_slice(raw: np.ndarray, offsets, columns: dict, start: int,
                     stop: int, bounds: tuple) -> bool:
    """Parse the event lines that start at ``offsets[:-1]`` in ``raw``, the
    last ending at ``offsets[-1]``, into the rows ``start:stop`` of
    ``columns`` and check them: True if each line is what
    :func:`write_trace` writes for its parsed values, and every event keeps
    the rules of ``bounds`` (n, z, rounds_K) and the round order, also
    across the last event before ``start``.

    A line is its five pieces: the head up to its third colon, the node id,
    which ends 6 bytes before its fourth colon, the middle, the source id,
    which ends 4 bytes before its seventh colon, and the tail. The ids are
    checked as arrays. Each distinct head, middle and tail is read once and
    must equal the writer's text for its values as the columns store them.
    That also pins each row of 8 colons to its line: a head holds every
    colon from its line's start to its third, and the writer's holds 3; a
    tail every colon from its first to its line's end, and the writer's 2."""
    count = stop - start
    line_starts, line_ends = offsets[:-1], offsets[1:]
    colons = line_starts[0] + np.flatnonzero(
        raw[line_starts[0]:line_ends[-1]] == ord(":"))
    if colons.shape[0] != 8 * count:
        return False
    node_start, node_end, source_start, source_end = (
        colons.reshape(count, 8)[:, [2, 3, 5, 6]] + [1, -6, 1, -4]).T
    del colons
    for name, span in (("node", (node_start, node_end)),
                       ("source", (source_start, source_end))):
        ids = _decimal_ids(raw, *span)
        if ids is None:
            return False
        columns[name][start:stop] = ids
    spans = ((line_starts, node_start), (node_end, source_start),
             (source_end, line_ends))
    for (names, readers, render), span, widest in zip(_PIECES, spans, _PIECE_BYTES):
        found = _distinct_pieces(raw, *span, widest)
        if found is None:
            return False
        texts, index = found
        pairs = [_piece_values(text, readers, render) for text in texts]
        if None in pairs:
            return False
        try:
            for name, distinct in zip(names, zip(*pairs)):
                columns[name][start:stop] = np.array(
                    distinct, dtype=columns[name].dtype)[index]
        except OverflowError:  # the column cannot hold the value
            return False
    events = {name: values[start:stop] for name, values in columns.items()}
    return not (any(mask.any() for _, mask, _ in _event_rules(events, *bounds))
                or (np.diff(columns["round"][max(start - 1, 0):stop]) < 0).any())


def _column_views(capacity: int) -> dict:
    """Event columns of ``capacity`` rows, each a view of one allocation,
    the widest dtypes first so that every view is aligned.

    A load then leaves one large block to free, which glibc's malloc takes
    as the size to serve from its heap. With a block per column, the heap
    was trimmed and faulted in again on every load: 3,107 against 0 page
    faults per cascade-4k load in a loop of simulate, write and load, and
    perfbench's cascade-4k ``curves_s`` read 1.17 against 1.03 times the
    parent's (3 pairs)."""
    names = sorted(_EVENT_DTYPES, key=lambda name: -np.dtype(_EVENT_DTYPES[name]).itemsize)
    block = np.empty((), dtype=[(name, _EVENT_DTYPES[name], (capacity,))
                                for name in names])
    return {name: block[name] for name in _EVENT_DTYPES}


def _canonical_trace(path) -> SimTrace | None:
    """The trace in the file ``path`` if it is valid and in the canonical
    form that :func:`write_trace` writes; else None.

    The file is read in blocks (:func:`_line_slices`), and its event lines
    are parsed and checked as arrays, one slice of ``_SLICE_EVENTS`` lines
    at a time (:func:`_canonical_slice`), into columns allocated once for
    as many events as the file could hold (:func:`_column_views`), of which
    the trace keeps the events read; the first slice that fails ends the
    load. Each slice is checked once, by its pieces: every line must be
    joined from the writer's own piece texts (:func:`_head_text`,
    :func:`_middle_text`, :func:`_tail_text`) and ids for its parsed
    values. So a file is accepted only when ``write_trace`` would write
    exactly those bytes, and as ``repr`` round-trips, ``json.loads`` reads
    the same values from them: the result equals that of the per-line loop
    in :func:`load_trace`.
    """
    with open(path, "rb") as stream:
        size = os.fstat(stream.fileno()).st_size
        slices = _line_slices(stream)
        raw, offsets = next(slices, (None, None))
        if raw is None:
            return None
        head = raw[offsets[0]:offsets[1]].tobytes()
        try:
            header = json.loads(head)
        except ValueError:
            return None
        if not (isinstance(header, dict) and header.get("schema") == TRACE_SCHEMA
                and json.dumps(header, separators=(",", ":")).encode() + b"\n"
                == head):
            return None
        try:
            n, z, params, summaries = _trace_header(path, header)
        except ParseError:
            return None
        columns = _column_views((size - len(head)) // _SHORTEST_LINE)
        capacity = columns["node"].shape[0]
        count = 0
        for raw, offsets in slices:
            stop = count + offsets.shape[0] - 1
            if stop > capacity or not _canonical_slice(
                    raw, offsets, columns, count, stop, (n, z, params.rounds_K)):
                return None
            count = stop
    return SimTrace(n, z, params, {name: values[:count]
                                   for name, values in columns.items()},
                    summaries)


def load_trace(path) -> SimTrace:
    """Parse a trace file back into a :class:`SimTrace` (lossless).

    Every event must name a node and source in ``[0, n)``, a topic in
    ``[0, z)``, a round in ``[1, rounds_K]``, stance codes for ``old`` and
    ``new``, a probability in ``[0, 1]`` and a known channel; the first event
    that does not is reported as a :class:`ParseError` at its line, as is
    the first event whose round is lower than the one before it. A boolean
    is not a number here. A header without ``n``, ``z``, ``params`` or
    ``round_summaries``, or with one of the wrong type, is a
    :class:`ParseError` at line 1.

    A file in the form :func:`write_trace` writes is read in blocks and
    parsed as arrays (:func:`_canonical_trace`), holding one slice of it at
    a time; any other file is read whole and parsed one JSON line at a
    time, with the same result for a valid trace.
    """
    path = Path(path)
    trace = _canonical_trace(path)
    if trace is not None:
        return trace
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
    values = {name: [] for name in _EVENT_DTYPES}
    line_nos, channels = [], []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            ev = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(path, line_no, exc.colno, exc.msg) from None
        try:
            for name, column in values.items():
                column.append(ev[name])
            channels.append(_CHANNEL_CODES.get(ev["channel"], -1))
        except KeyError as exc:
            raise ParseError(path, line_no, 1, f"missing event key {exc}") from None
        except TypeError:
            raise ParseError(path, line_no, 1,
                             "event is not an object with a string channel") from None
        line_nos.append(line_no)
    # a value of the wrong type (JSON true and false included), or one its
    # column cannot hold, becomes a value that every check of its kind
    # rejects: -1 for the integer fields (all >= 0), NaN for the float ones
    columns = {name: np.array([v if type(v) is int and 0 <= v < 2**63
                               else -1 for v in values[name]], dtype=np.int64)
               for name in ("round", "topic", "node", "source")}
    for name in ("old", "new", "p"):
        columns[name] = np.array([v if type(v) in (int, float)
                                  and -1 <= v <= 1 else math.nan
                                  for v in values[name]], dtype=np.float64)
    columns["channel"] = np.array(channels, dtype=np.int8)
    _raise_first([
        (mask, lambda i, name=name, message=message: ParseError(
            path, line_nos[i], 1, message % (values[name][i],)))
        for name, mask, message in _event_rules(columns, n, z, params.rounds_K)])
    for name, dtype in _EVENT_DTYPES.items():
        columns[name] = columns[name].astype(dtype, copy=False)
    rounds = columns["round"]
    _raise_first([(np.diff(rounds) < 0, lambda i: ParseError(
        path, line_nos[i + 1], 1, f"event round {rounds[i + 1]} after round "
        f"{rounds[i]}: events out of round order"))])
    return SimTrace(n, z, params, columns, summaries)


# numpy draws ``rng.integers(0, b)`` for 2 <= b <= 2**32 from the bit
# generator's 32-bit stream by Lemire's method ("Fast Random Integer
# Generation in an Interval", ACM TOMACS 2019): raw value x gives
# x * b >> 32, unless the low 32 bits of x * b fall below 2**32 % b, when x
# is rejected and the next raw value is tried. (With b = 2**32 every x is
# accepted as itself.) b = 1 draws nothing. numpy does not promise this
# stream across versions (NEP 19); the tests check the sampler against the
# loop it replaces, and the bundles against pinned digests.
_RAW = 1 << 32


def _lemire(raw: np.ndarray, bound: int):
    """(value, accepted) of each raw 32-bit value as a draw below ``bound``."""
    scaled = raw * np.uint64(bound)
    return (scaled >> np.uint64(32),
            (scaled & np.uint64(_RAW - 1)) >= np.uint64(_RAW % bound))


def _decoded(raw: np.ndarray, n: int):
    """(u, v, ends) of the pairs that the raw 32-bit values ``raw`` give,
    drawn as :func:`_edge_sample` says: pair k consumes the raw values up to
    ``ends[k]``, exclusive. A raw value that a bound rejects is skipped and
    the bound stays in turn. The turns are followed in Python only at the
    raw values that one of the two bounds rejects: a share below
    2n / 2**32 of them, as a bound b rejects fewer than b in 2**32."""
    raw = raw.astype(np.uint64)
    if n == 2:  # v is drawn below 1, from no raw value
        u, _ = _lemire(raw, 2)
        v, ends = np.zeros_like(u), np.arange(1, len(raw) + 1)
    else:
        (u, u_ok), (v, v_ok) = _lemire(raw, n), _lemire(raw, n - 1)
        kept = u_ok & v_ok
        turn, after = 0, 0
        for i in np.flatnonzero(~kept).tolist():
            turn ^= (i - after) & 1  # each raw value since ``after`` was kept
            if (v_ok if turn else u_ok)[i]:
                kept[i] = True
                turn ^= 1
            after = i + 1
        kept = np.flatnonzero(kept)
        kept = kept[:len(kept) // 2 * 2]
        u, v, ends = u[kept[0::2]], v[kept[1::2]], kept[1::2] + 1
    return u, v + (v >= u), ends


def _edge_sample(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """The first ``m`` distinct pairs, as an (m, 2) array in the order drawn,
    that this loop draws from ``rng``, leaving ``rng`` as the loop does::

        while len(edges) < m:
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n - 1))
            if v >= u:
                v += 1
            edges.add((u, v))

    for 2 <= n <= 2**32 (or m = 0). Raw 32-bit values are drawn in chunks
    sized to the pairs still missing and decoded as numpy decodes each draw
    (:func:`_decoded`). Then the generator's saved state is restored and
    exactly the raw values that the loop consumed are drawn again, so the
    draws that follow see the state that the loop leaves, the generator's
    buffered half of a 64-bit output included."""
    if m == 0:
        return np.empty((0, 2), dtype=np.int64)
    start = rng.bit_generator.state
    per_pair = 1 if n == 2 else 2
    total = n * (n - 1)
    raw = np.empty(0, dtype=np.uint32)
    have = 0
    while have < m:
        # a pair drawn is new with odds (total - have) / total: draw about
        # the pairs that give the missing ones, and some more
        missing = m - have
        pairs = missing * total // (total - have) + missing // 8 + 64
        raw = np.concatenate([raw, rng.integers(0, _RAW, size=pairs * per_pair,
                                                dtype=np.uint32)])
        u, v, ends = _decoded(raw, n)
        first = np.sort(np.unique(u * np.uint64(n) + v, return_index=True)[1])
        have = len(first)
    first = first[:m]
    rng.bit_generator.state = start
    rng.integers(0, _RAW, size=int(ends[first[-1]]), dtype=np.uint32)
    return np.stack([u[first], v[first]], axis=1).astype(np.int64)


def generate_synthetic(n: int, m: int, z: int, stance_mix, seed: int,
                       out_dir) -> DatasetBundle:
    """Write a uniform random simple directed graph with sampled profiles.

    ``stance_mix`` is a distribution over (unknown, oppose, neutral,
    support) — either one 4-vector applied to every topic or one per
    topic. Nodes with a known sampled stance become the seed users.
    Byte-identical output for identical arguments. A bundle needs a topic
    (``z >= 1``): its profiles file holds one row per node and topic, so a
    node without a row, and on no edge, would not be loaded. At most 2**32
    nodes are drawn (:func:`_edge_sample`).
    """
    if z < 1:
        raise RangeViolationError("z", z, "integers >= 1")
    if seed < 0:  # np.random.default_rng takes no negative seed
        raise RangeViolationError("seed", seed, "integers >= 0")
    if n > _RAW:
        raise RangeViolationError("n", n, f"integers <= {_RAW}")
    if n < 0 or m < 0:
        raise InfeasibleEdgeCountError("n and m must be non-negative")
    if m > n * (n - 1):
        raise InfeasibleEdgeCountError(
            f"{m} edges requested but a simple digraph on {n} nodes "
            f"has at most {n * (n - 1)}"
        )
    shape_error = RangeViolationError("stance_mix", stance_mix,
                                      f"shape (4,) or ({z}, 4)")
    try:
        mix = np.asarray(stance_mix, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # not numbers, or ragged
        raise shape_error from None
    if mix.ndim == 1:
        mix = np.tile(mix, (z, 1))
    if mix.shape != (z, 4):
        raise shape_error
    if (mix < 0).any() or not np.allclose(mix.sum(axis=1), 1.0, atol=1e-9):
        raise RangeViolationError("stance_mix", stance_mix,
                                  "non-negative entries summing to 1")

    rng = np.random.default_rng(seed)
    edges = _edge_sample(rng, n, m)
    width = max(1, len(str(max(n - 1, 0))))
    node_ids = tuple(f"n{i:0{width}d}" for i in range(n))
    topic_ids = tuple(f"t{j}" for j in range(z))
    symbols = SymbolTable(node_ids, topic_ids)

    profiles = np.empty((n, z))
    for j in range(z):
        profiles[:, j] = rng.choice(
            np.array([-1.0, 0.0, 0.5, 1.0]), size=n, p=mix[j]
        )
    graph = build_graph(n, z, edges, profiles)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bundle = DatasetBundle(
        edges_path=out_dir / "edges.tsv",
        profiles_path=out_dir / "profiles.csv",
        seeds_path=out_dir / "seeds.csv",
    )
    write_graph(graph, symbols, bundle.edges_path, bundle.profiles_path)
    # the known stances, by topic and then by node, as write_seeds orders them
    topic, node = np.nonzero(profiles.T != STANCE_UNKNOWN)
    _atomic_write(bundle.seeds_path, _stance_text(
        _PROFILE_HEADER, symbols, node, topic, profiles[node, topic], known=True))
    return bundle
