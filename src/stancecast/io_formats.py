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
  built once per distinct pair of values of a slice of events. A
  canonical load checks each slice once by the same pieces
  (:func:`_canonical_slice`): it finds them by the colons of each line,
  reads the ids as arrays, and reads each distinct head, middle and tail
  once, accepting it only when it equals the writer's text for its
  values.

External ids are arbitrary strings; dense internal ids are assigned by
sorting them by Unicode code point (as ``sorted`` does), so loading never
depends on file row order. The ids are sorted by packed code-point keys
(:func:`_intern`), integers that order as the strings do, and no string
sort runs. An edge, profiles, seeds or truth file in the form the writers
here write (ASCII, no control byte but its separator and newline, no blank
line, no line or field padded with spaces or tabs; an edge file's ``#``
comment lines allowed) is read on the byte path (:func:`_byte_rows`): one
pass over its bytes finds the separators and newlines, each field is a
span of those bytes (:class:`_Spans`), the rows are checked as arrays, and
a Python str is made only for each distinct id and stance token. On the
edges-10k benchmark network the edge file reads in about 4 ms there,
against 16 ms on the str path. Every other file goes through the str path
(:func:`_edge_rows`, :func:`_csv_rows`), which decodes the text, splits it
with ``str.splitlines`` and tokenizes the lines as numpy string arrays;
and a load that raises on the byte path runs again on the str path alone
(:func:`_bytes_first`), so every error comes from the str path. There a
malformed line, an unknown id, a repeated row or a bad stance is reported
at its ``file:line``, the first malformed line found by the masks that
accept good lines. In a file that holds a NUL, which numpy's string
functions take for the end of a string, each NUL is swapped for a code
point the file lacks while the lines are split, and back in the tokens.
Writers go through a temp file and rename, so failures leave no partial
output and no temp file, and an error names the path given.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.dtypes import StringDType
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
from .graph import (STANCE_UNKNOWN, SocialGraph, _is_stance_code, _repeats,
                    _sorted_distinct, build_graph)
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
    ``flat[starts[i]:starts[i] + lengths[i]]``. ``flat`` (uint8 or uint32)
    may be read up to the longest token's length past any token's start.
    Spans index and ravel as ``starts`` does, and 1-D spans give their
    tokens as Python strs by ``tolist``, as a numpy string array would."""

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
        if not _fits_fixed_width(width, len(self), int(self.lengths.sum())):
            text = self.flat.tobytes().decode(
                "utf-32-le" if self.flat.itemsize == 4 else "latin-1")
            return [text[s:s + k] for s, k in zip(self.starts.tolist(),
                                                  self.lengths.tolist())]
        columns = np.arange(width)
        table = self.flat[self.starts[:, None] + columns].astype(np.uint32)
        table[columns >= self.lengths[:, None]] = 0
        texts = table.view(f"U{width}")[:, 0].tolist()
        # a U item drops its trailing NULs; put them back
        last = table[np.arange(len(self)), np.maximum(self.lengths - 1, 0)]
        for i in np.flatnonzero((last == 0) & (self.lengths > 0)).tolist():
            texts[i] += "\x00" * (int(self.lengths[i]) - len(texts[i]))
        return texts


def _extent(spans: _Spans) -> tuple[int, int]:
    """The bounds of the part of ``spans.flat`` that its tokens may read:
    from the first token's start to the last start plus the longest
    length."""
    if not len(spans):
        return 0, 0
    return (int(spans.starts.min()),
            int(spans.starts.max()) + int(spans.lengths.max()))


def _joined(parts: list):
    """The 1-D tokens ``parts``, each spans or a numpy string array, one
    after another: a numpy string array if every part that holds a token
    is one, else spans over one flat array of the parts of their flats
    that they read (:func:`_extent`)."""
    parts = [p for p in parts if len(p)] or parts[:1]
    if len(parts) == 1:
        return parts[0]
    if all(isinstance(p, np.ndarray) for p in parts):
        return np.concatenate(parts)
    parts = [_code_points(p) if isinstance(p, np.ndarray) else p for p in parts]
    extents = [_extent(p) for p in parts]
    flats = [p.flat[lo:hi] for p, (lo, hi) in zip(parts, extents)]
    offsets = np.cumsum([0] + [len(f) for f in flats])
    width = max(int(p.lengths.max(initial=0)) for p in parts)
    return _Spans(np.concatenate(flats + [np.zeros(width, dtype=np.uint8)]),
                  np.concatenate([p.starts + (o - lo) for p, o, (lo, _)
                                  in zip(parts, offsets, extents)]),
                  np.concatenate([p.lengths for p in parts]))


class _Rows(NamedTuple):
    """The data lines of a file up to its first malformed one: ``tokens``
    holds a row of fields per line (spans on the byte path, a numpy string
    array on the str path), ``line_nos`` the line numbers,
    ``error`` the :class:`ParseError` of the malformed line, or None."""

    tokens: _Spans | np.ndarray
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


_NO_ROWS = _Rows(np.empty((0, 3), dtype="U1"), np.empty(0, dtype=np.int64), None)


def _fits_fixed_width(width: int, count: int, chars: int) -> bool:
    """Whether ``count`` strings of ``chars`` characters in all, the longest
    of ``width``, fit a fixed-width array: whether padding each one to the
    longest costs at most four times the characters."""
    return width * count <= 4 * chars + 64


def _strings(items: list) -> np.ndarray:
    """``items`` as a numpy string array. Fixed width (``U``) pads every item
    to the longest one and drops trailing NULs, so it is used only when the
    items fit it (:func:`_fits_fixed_width`) and no item holds a NUL; else
    variable width. Both compare and sort by code point, as ``sorted`` does.
    """
    joined = "".join(items)
    width = max(map(len, items), default=0)
    if "\x00" in joined or not _fits_fixed_width(width, len(items), len(joined)):
        return np.array(items, dtype=StringDType())
    return np.array(items, dtype=f"U{max(width, 1)}")


def _partition(a: np.ndarray, sep: str):
    """``np.strings.partition`` with ``sep`` in ``a``'s dtype, which
    variable-width strings need; it fails on an empty fixed-width array."""
    if not a.size:
        return a, a, a
    return np.strings.partition(a, np.array(sep, dtype=a.dtype))


def _nul_free(text: str):
    """``text`` with each NUL swapped for a code point it lacks, and that
    code point (None when ``text`` holds no NUL). numpy's string functions
    take NUL for the end of a string, so they get the swapped text, and
    :func:`_first_bad_row` swaps the NULs back into the tokens."""
    if "\x00" not in text:
        return text, None
    stand_in = next(c for c in map(chr, range(0xE000, 0x110000))
                    if c not in text)
    return text.replace("\x00", stand_in), stand_in


def _first_bad_row(tokens, line_nos, bad, error, stand_in) -> _Rows:
    """The rows before the first one that ``bad`` marks, with the error that
    ``error`` gives for that row's index and line number (None when no row
    is bad)."""
    stop = int(np.argmax(bad)) if bad.any() else len(bad)
    rows = tokens[:stop]
    if stand_in is not None:
        # np.strings.replace drops the NUL it puts back
        rows = np.array([t.replace(stand_in, "\x00")
                         for t in rows.ravel().tolist()],
                        dtype=StringDType()).reshape(rows.shape)
    return _Rows(rows, line_nos[:stop],
                 error(stop, int(line_nos[stop])) if stop < len(bad) else None)


def _edge_rows(path, text: str) -> _Rows:
    """Tokenize the text of an edge file: ``source<TAB>target`` per line once
    stripped of whitespace; blank lines and lines starting with ``#`` are
    skipped."""
    text, stand_in = _nul_free(text)
    stripped = np.strings.strip(_strings(text.splitlines()))
    lengths = np.strings.str_len(stripped)
    data = np.flatnonzero((lengths > 0) & ~np.strings.startswith(stripped, "#"))
    lines, lengths = stripped[data], lengths[data]
    width = int(lengths.max(initial=1))
    if lines.dtype.kind != "U" and _fits_fixed_width(width, len(lines),
                                                     int(lengths.sum())):
        # the skipped lines alone were too long for fixed width
        lines = lines.astype(f"U{width}")
    source, tab, target = _partition(lines, "\t")
    # a stripped line neither starts nor ends with a tab, so one tab
    # leaves two non-empty fields
    bad = (tab != "\t") | (np.strings.find(target, "\t") >= 0)
    return _first_bad_row(np.stack([source, target], axis=1), data + 1, bad,
                          lambda i, line_no: ParseError(
                              path, line_no, 1, "expected 'source<TAB>target'"),
                          stand_in)


def _csv_rows(path, text: str, header: str) -> _Rows:
    """Tokenize the text of a 3-column CSV with a fixed header row: blank
    lines are skipped, every other line holds 3 comma-separated fields, each
    one non-empty once stripped of whitespace. A wrong header raises."""
    text, stand_in = _nul_free(text)
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        raise ParseError(path, 1, 1, f"expected header {header!r}")
    body = _strings(lines[1:])
    data = np.flatnonzero(np.strings.str_len(np.strings.strip(body)) > 0)
    first, comma1, rest = _partition(body[data], ",")
    second, comma2, third = _partition(rest, ",")
    tokens = np.strings.strip(np.stack([first, second, third], axis=1))
    three = (comma1 == ",") & (comma2 == ",") & (np.strings.find(third, ",") < 0)
    empty = np.strings.str_len(tokens) == 0

    def error(i, line_no):
        if not three[i]:
            return ParseError(path, line_no, 1, "expected 3 comma-separated "
                              f"fields, got {lines[line_no - 1].count(',') + 1}")
        return ParseError(path, line_no, int(np.argmax(empty[i])) + 1,
                          "empty field")

    return _first_bad_row(tokens, data + 2, ~three | empty.any(axis=1), error,
                          stand_in)


def _byte_rows(data: bytes, header: str | None) -> _Rows | None:
    """The rows of an edge file (``header`` None) or of a CSV with
    ``header``, read from its bytes ``data`` as spans of them; None unless
    :func:`_edge_rows` or :func:`_csv_rows` would read the same rows, and
    no malformed line, from its text.

    So the bytes must be ASCII, with no NUL and no control byte but newline
    and the separator (a tab, or a CSV's comma), and so no line break but
    newline. A CSV starts with its header line as it is, and each other line
    holds 3 fields, none empty or starting or ending with a space or tab. A
    line of an edge file that starts with ``#`` is skipped; each other line
    holds 2 fields and does not start or end with a space or tab. So no
    line is blank, and no line is split as ``str.splitlines`` would not.

    The separators and newlines are found in one pass, and the lines are
    checked as arrays: each row line holds k - 1 separators, so its k
    fields end at the k separators and newline before its own newline.
    """
    if not data.isascii():
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    sep, k = (ord("\t"), 2) if header is None else (ord(","), 3)
    marks = np.flatnonzero((raw < 0x20) | (raw == sep))
    kinds = raw[marks]
    newline = kinds == ord("\n")
    if not (newline | (kinds == sep)).all():
        return None
    # bounds: a newline before the first line, the marks, and one after a
    # last line that has none; lines[i]: the index in bounds of the newline
    # before line i
    bounds = np.concatenate([[-1], marks])
    lines = np.concatenate([[0], 1 + np.flatnonzero(newline)])
    if data and not data.endswith(b"\n"):
        bounds = np.append(bounds, len(raw))
        lines = np.append(lines, len(bounds) - 1)
    starts = bounds[lines[:-1]] + 1
    if header is None:
        rows = np.flatnonzero(raw[starts] != ord("#"))
    else:
        if len(starts) == 0 or data[:bounds[lines[1]]] != header.encode():
            return None
        rows = np.arange(1, len(starts))
    if (np.diff(lines)[rows] != k).any():
        return None
    fields = lines[rows, None] + np.arange(k)
    left, right = bounds[fields] + 1, bounds[fields + 1]
    lengths = right - left
    if header is None:  # an edge line is stripped as a whole, not by field
        outer = np.concatenate([raw[left[:, 0]], raw[right[:, -1] - 1]])
    else:
        outer = np.concatenate([raw[left].ravel(), raw[right - 1].ravel()])
    if (lengths < 1).any() or ((outer == ord(" ")) | (outer == ord("\t"))).any():
        return None
    flat = np.concatenate([raw, np.zeros(int(lengths.max(initial=0)), dtype=np.uint8)])
    return _Rows(_Spans(flat, left, lengths), rows + 1, None)


def _read_rows(path, header: str | None, bytes_first: bool) -> _Rows:
    """The rows of the edge file (``header`` None) or CSV with ``header`` at
    ``path``: from :func:`_byte_rows` if ``bytes_first`` and it reads the
    file, else from :func:`_edge_rows` or :func:`_csv_rows`."""
    data = Path(path).read_bytes()
    rows = _byte_rows(data, header) if bytes_first else None
    if rows is None:
        text = _decode_text(path, data)
        rows = (_edge_rows(path, text) if header is None
                else _csv_rows(path, text, header))
    return rows


def _bytes_first(load, *args):
    """``load(True, *args)``, whose first argument lets it read its files
    on the byte path (:func:`_read_rows`); if that raises a
    :class:`StancecastError`, ``load(False, *args)``, so every error comes
    from the str path alone."""
    try:
        return load(True, *args)
    except StancecastError:
        return load(False, *args)


def _code_points(tokens: np.ndarray) -> _Spans:
    """The 1-D ``U`` or ``StringDType`` array ``tokens`` as spans of its
    code points, in one flat uint32 array."""
    if tokens.dtype.kind == "U":
        width = tokens.dtype.itemsize // 4
        # a U item ends at its last code point that is not NUL
        return _Spans(np.ascontiguousarray(tokens).view(np.uint32),
                      np.arange(0, len(tokens) * width, width),
                      np.strings.str_len(tokens))
    items = tokens.tolist()
    joined = "".join(items)
    lengths = np.strings.str_len(tokens)
    if lengths.sum() != len(joined):
        # str_len does not count a trailing NUL of a variable-width item
        lengths = np.fromiter(map(len, items), dtype=np.int64, count=len(items))
    padded = joined + "\x00" * int(lengths.max(initial=0))
    return _Spans(np.frombuffer(padded.encode("utf-32-le"), dtype=np.uint32),
                  np.cumsum(lengths) - lengths, lengths)


def _pack(key, flat, starts, lengths, start: int, k: int, bits: int):
    """``key`` with code points ``start`` to ``start + k`` of each token
    (given as spans), each plus 1, ORed into its low ``k * bits`` bits, the
    first one highest; 0 past a token's end."""
    shortest = int(lengths.min(initial=0))
    for j in range(start, min(start + k, int(lengths.max(initial=0)))):
        c = flat[starts + j].astype(np.uint64)
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


def _intern(tokens):
    """(distinct, inverse), as ``np.unique(tokens, return_inverse=True)``
    gives them for the 1-D ``U`` or ``StringDType`` array ``tokens``, by
    sorting integer keys instead of strings. For 1-D :class:`_Spans`
    ``tokens``, ``distinct`` is spans too.

    A key packs code points, each plus 1, at the bit width of the largest
    one into a uint64, the first one highest, with 0 past a token's end:
    so a NUL counts as a character and a prefix sorts first, as in
    ``sorted`` (``'a' < 'a\\x00' < 'a\\x00b' < 'ab'``). The first key holds
    as many code points as fit in 64 bits. Groups of two or more tokens
    that tie on their keys while one of them goes on are sorted again, on
    their next code points under their group's rank, until no group ties.
    """
    spans = _code_points(tokens) if isinstance(tokens, np.ndarray) else tokens
    flat, starts, lengths = spans.flat, spans.starts, spans.lengths
    low, high = _extent(spans)
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
    _, inverse = _intern(_joined([_strings(list(names)), tokens]))
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
    return _bytes_first(_load_graph, edges_path, profiles_path, seeds_path)


def _load_graph(bytes_first: bool, edges_path, profiles_path, seeds_path):
    edges = _read_rows(edges_path, None, bytes_first).complete()
    profiles = (_NO_ROWS if profiles_path is None else
                _read_rows(profiles_path, _PROFILE_HEADER, bytes_first).complete())
    names = [edges.tokens.ravel(), profiles.tokens[:, 0]]
    if seeds_path is not None:
        names.append(_read_rows(seeds_path, _PROFILE_HEADER,
                                bytes_first).complete().tokens[:, 0])
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
    """Write the edge and profiles files (every node-topic pair emitted)."""
    lines = ["# source\ttarget"]
    for u in range(g.n):
        for v in g.out_neighbors(u):
            lines.append(f"{symbols.node_ids[u]}\t{symbols.node_ids[int(v)]}")
    _atomic_write(edges_path, "\n".join(lines) + "\n")
    _write_stances(profiles_path, _PROFILE_HEADER, symbols,
                   ((u, j, g.profiles[u, j])
                    for u in range(g.n) for j in range(g.z)))


def _write_stances(path, header: str, symbols: SymbolTable, rows) -> None:
    """Write a stance CSV: ``header``, then one line per (node, topic,
    stance) row, ids as in ``symbols``."""
    lines = [header]
    for node, topic, stance in rows:
        stance = float(stance)
        lines.append(f"{symbols.node_ids[node]},{symbols.topic_ids[topic]},"
                     f"{int(stance) if stance in (-1.0, 0.0, 1.0) else 0.5}")
    _atomic_write(path, "\n".join(lines) + "\n")


def load_profiles(path) -> tuple[np.ndarray, SymbolTable]:
    """Load a standalone profiles file (for evaluation and curves).

    The file must enumerate every node of the graph (the writers in this
    package always do); node and topic ids are assigned by sorting the ids
    present in this file. A second row for one pair is an error at its line.
    """
    return _bytes_first(_load_profiles, path)


def _load_profiles(bytes_first: bool, path):
    rows = _read_rows(path, _PROFILE_HEADER, bytes_first).complete()
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
    node, topic, stances = _bytes_first(_seed_rows, path, symbols)
    if not len(node):
        warnings.warn(f"{path}: no seed stances", EmptySeedsWarning, stacklevel=2)
    seeds: dict[int, dict[int, float]] = {}
    first_rows = np.sort(np.unique(topic, return_index=True)[1])
    for j in topic[first_rows].tolist():
        rows_j = topic == j
        seeds[j] = dict(zip(node[rows_j].tolist(), stances[rows_j].tolist()))
    return seeds


def _seed_rows(bytes_first: bool, path, symbols: SymbolTable):
    """Node, topic and stance of each row of a seeds file, checked."""
    rows = _read_rows(path, _PROFILE_HEADER, bytes_first)
    node, topic, checks = _row_ids(path, rows, symbols)
    stances, bad = _stance_values(rows.tokens[:, 2], allow_unknown=False)
    _raise_first(checks + [
        (bad, lambda i: _stance_error(path, rows, i, allow_unknown=False)),
        (_repeats(node * len(symbols.topic_ids) + topic),
         lambda i: _repeat_error(path, rows, i, "seed")),
    ], rows.error)
    return node, topic, stances


def load_seed_nodes(path, symbols: SymbolTable) -> list[int]:
    """Distinct seed node ids from a seeds CSV, ignoring topic and stance.

    Used by the IC baseline, which has no topic dimension.
    """
    node = _bytes_first(_seed_node_rows, path, symbols)
    if not len(node):
        warnings.warn(f"{path}: no seed stances", EmptySeedsWarning, stacklevel=2)
    return _sorted_distinct(node).tolist()


def _seed_node_rows(bytes_first: bool, path, symbols: SymbolTable):
    """The node of each row of a seeds file, checked."""
    rows = _read_rows(path, _PROFILE_HEADER, bytes_first)
    node = _dense_ids(symbols.node_ids, rows.tokens[:, 0])
    _raise_first([(node < 0, lambda i: _unknown_error(path, rows, i, 0))],
                 rows.error)
    return node


def write_seeds(path, seeds: dict[int, dict[int, float]],
                symbols: SymbolTable) -> None:
    _write_stances(path, _PROFILE_HEADER, symbols,
                   ((node, topic, seeds[topic][node]) for topic in sorted(seeds)
                    for node in sorted(seeds[topic])))


def load_ground_truth(path, symbols: SymbolTable) -> dict[tuple[int, int], float]:
    """Load observed final stances keyed by (node, topic), in file order.

    Each row is checked in turn: its fields, a known node, a known topic, a
    pair not seen before, and a stance code. The first row that fails is
    reported at its line.
    """
    return _bytes_first(_load_ground_truth, path, symbols)


def _load_ground_truth(bytes_first: bool, path, symbols: SymbolTable):
    rows = _read_rows(path, _TRUTH_HEADER, bytes_first)
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
    _write_stances(path, _TRUTH_HEADER, symbols,
                   ((node, topic, truth[(node, topic)])
                    for node, topic in sorted(truth)))


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


# Events per rendered slice of a write: bounds the memory of writing a trace,
# whatever its length. With 16,384-event slices, edges-10k's 20k-event write
# took 1.15 times as long, from per-slice fixed costs such as the id-text
# table, though cascade-4k and montecarlo-2k writes took 0.84-0.85 times as
# long.
_SLICE_EVENTS = 65536


def _distinct(values: np.ndarray):
    """(keys, index): the distinct values of ``values``, and each value's
    index among them.

    A non-negative integer column whose maximum is below its length plus
    256 is its own index into ``range(max + 1)``, with no sort, and its
    table holds no more texts than that. Any other column is sorted and
    each value found among the distinct ones by binary search: floats by
    their bits, so 0.0 and -0.0 keep their own text, and integers of any
    sign or size by value. (A sort and a search take a fraction of the
    argsort that ``np.unique`` needs for its inverse.)"""
    if values.dtype.kind in "iu" and values.size:
        high = int(values.max())
        if values.min() >= 0 and high < values.size + 256:
            return range(high + 1), values.astype(np.intp)
    keys = values.view(f"u{values.itemsize}") if values.dtype.kind == "f" else values
    distinct = _sorted_distinct(keys)
    return distinct.view(values.dtype).tolist(), np.searchsorted(distinct, keys)


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


def _render_events(columns: dict, start: int, stop: int) -> bytes:
    """The event lines ``start:stop`` of a trace file, as :func:`write_trace`
    writes them: compact separators, fixed key order, ``repr`` numbers and
    ``\\n`` endings.

    Each line is joined from five pieces: the text up to the node id for
    each (round, topic), the node id, the text up to the source id for each
    (old, new), the source id, and the rest of the line for each (p,
    channel); node and source share one table of ids. A piece's text is
    built once per distinct value, or pair of values, from the ``repr`` of
    those values, so each line equals the one formatted field by field from
    the ``repr`` of each value. The pieces are laid out as one (event,
    piece) table, joined as ``str`` and then encoded: ``bytes.join`` would
    hold a buffer per piece."""
    col = {name: values[start:stop] for name, values in columns.items()}
    count = len(col["node"])
    ids, index = _distinct(np.concatenate([col["node"], col["source"]]))
    ids = np.array([repr(v) for v in ids], dtype=object)
    pieces = [
        _pair_texts(col["round"], col["topic"], _head_text),
        (ids, index[:count]),
        _pair_texts(col["old"], col["new"], _middle_text),
        (ids, index[count:]),
        _pair_texts(col["p"], col["channel"], _tail_text),
    ]
    lines = np.empty((count, 5), dtype=object)
    for j, (texts, index) in enumerate(pieces):
        lines[:, j] = texts[index]
    return "".join(lines.ravel().tolist()).encode()


def write_trace(trace: SimTrace, path) -> None:
    """Serialize a trace: one header line, then one event object per line,
    rendered and written one slice of events at a time. A channel code
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
        "round_summaries": [list(astuple(s)) for s in trace.round_summaries],
    }
    columns = {name: getattr(trace, f"ev_{name}") for name in _EVENT_DTYPES}
    with _replacing(path) as out:
        out.write(json.dumps(header, separators=(",", ":")).encode() + b"\n")
        for start in range(0, len(trace.ev_node), _SLICE_EVENTS):
            out.write(_render_events(columns, start, start + _SLICE_EVENTS))


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


# Event lines per slice of a canonical load: with 8,192-line slices the
# edges-10k load took up to 1.2 times as long, from per-slice fixed costs, and
# 65,536-line slices raised a cascade-4k load's peak from 25 to 37 MB.
_LOAD_LINES = 16384
# Bytes per chunk in which a load finds the line ends, so that the mask is
# a chunk's size, not the file's: finding them in 64 KiB chunks took 1.4
# times as long on the 122 MB trace, and 4 MiB chunks saved under 3%.
_SCAN_BYTES = 1 << 20


def _line_offsets(raw: np.ndarray, start: int) -> np.ndarray:
    """The offsets in ``raw`` at which the lines from ``start`` on begin,
    and the end of the last of them, found one chunk of bytes at a time."""
    ends = [k + 1 + np.flatnonzero(raw[k:k + _SCAN_BYTES] == ord("\n"))
            for k in range(start, raw.shape[0], _SCAN_BYTES)]
    return np.concatenate([[start], *ends])


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
    front = np.arange(width) < np.arange(width + 1)[:, None]  # row k: k bytes
    pad = width - lengths
    words = sliding_window_view(raw, width)[ends - width].view(np.uint64)
    words &= np.take((~front * np.uint8(0xFF)).view(np.uint64), pad, axis=0)
    words |= np.take((front * np.uint8(fill)).view(np.uint64), pad, axis=0)
    return words, lengths


def _decimal_ids(raw: np.ndarray, starts, ends):
    """The values of the ids ``starts[i]:ends[i]`` of ``raw``, or None unless
    each is an int64 written as the writer writes it: decimal digits with no
    sign and no leading zero."""
    fields = _fields(raw, starts, ends, _ID_DIGITS, fill=ord("0"))
    if fields is None:
        return None
    table, lengths = fields[0].view(np.uint8), fields[1]
    digits = table - np.uint8(ord("0"))  # a byte below '0' wraps past 9
    leading = table[np.arange(len(lengths)), table.shape[1] - lengths]
    if (digits > 9).any() or ((leading == ord("0")) & (lengths > 1)).any():
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
    """Parse the event lines ``start:stop`` of ``raw`` into ``columns`` and
    check them: True if each line is what :func:`write_trace` writes for
    its parsed values, and every event keeps the rules of ``bounds`` (n, z,
    rounds_K) and the round order, also across the last event before
    ``start``.

    A line is its five pieces: the head up to its third colon, the node id,
    which ends 6 bytes before its fourth colon, the middle, the source id,
    which ends 4 bytes before its seventh colon, and the tail. The ids are
    checked as arrays. Each distinct head, middle and tail is read once and
    must equal the writer's text for its values as the columns store them.
    That also pins each row of 8 colons to its line: a head holds every
    colon from its line's start to its third, and the writer's holds 3; a
    tail every colon from its first to its line's end, and the writer's 2."""
    count = stop - start
    line_starts, line_ends = offsets[start:stop], offsets[start + 1:stop + 1]
    colons = line_starts[0] + np.flatnonzero(
        raw[line_starts[0]:line_ends[-1]] == ord(":"))
    if colons.shape[0] != 8 * count:
        return False
    colons = colons.reshape(count, 8)
    ids = _decimal_ids(raw, np.concatenate([colons[:, 2] + 1, colons[:, 5] + 1]),
                       np.concatenate([colons[:, 3] - 6, colons[:, 6] - 4]))
    if ids is None:
        return False
    columns["node"][start:stop] = ids[:count]
    columns["source"][start:stop] = ids[count:]
    spans = ((line_starts, colons[:, 2] + 1), (colons[:, 3] - 6, colons[:, 5] + 1),
             (colons[:, 6] - 4, line_ends))
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


def _canonical_trace(path, data: bytes) -> SimTrace | None:
    """The trace in ``data`` if it is valid and in the canonical form that
    :func:`write_trace` writes; else None.

    The event lines are parsed and checked as arrays, one slice of
    ``_LOAD_LINES`` lines at a time (:func:`_canonical_slice`), into columns
    allocated once; the first slice that fails ends the load. Each slice is
    checked once, by its pieces: every line must be joined from the
    writer's own piece texts (:func:`_head_text`, :func:`_middle_text`,
    :func:`_tail_text`) and ids for its parsed values. So a file is
    accepted only when ``write_trace`` would write exactly those bytes, and
    as ``repr`` round-trips, ``json.loads`` reads the same values from them:
    the result equals that of the per-line loop in :func:`load_trace`.
    """
    if not data.endswith(b"\n"):
        return None
    head_end = data.index(b"\n")
    try:
        header = json.loads(data[:head_end])
    except ValueError:
        return None
    if not (isinstance(header, dict) and header.get("schema") == TRACE_SCHEMA
            and json.dumps(header, separators=(",", ":")).encode()
            == data[:head_end]):
        return None
    try:
        n, z, params, summaries = _trace_header(path, header)
    except ParseError:
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    offsets = _line_offsets(raw, head_end + 1)
    count = offsets.shape[0] - 1
    columns = {name: np.empty(count, dtype=dtype)
               for name, dtype in _EVENT_DTYPES.items()}
    for start in range(0, count, _LOAD_LINES):
        if not _canonical_slice(raw, offsets, columns, start,
                                min(start + _LOAD_LINES, count),
                                (n, z, params.rounds_K)):
            return None
    return SimTrace(n, z, params, columns, summaries)


def load_trace(path) -> SimTrace:
    """Parse a trace file back into a :class:`SimTrace` (lossless).

    Every event must name a node and source in ``[0, n)``, a topic in
    ``[0, z)``, a round in ``[1, rounds_K]``, stance codes for ``old`` and
    ``new``, a probability in ``[0, 1]`` and a known channel; the first event
    that does not is reported as a :class:`ParseError` at its line, as is
    the first event whose round is lower than the one before it. A header
    without ``n``, ``z``, ``params`` or ``round_summaries``, or with one of
    the wrong type, is a :class:`ParseError` at line 1.

    A file in the form :func:`write_trace` writes is read as arrays
    (:func:`_canonical_trace`); any other file is read one JSON line at a
    time, with the same result for a valid trace.
    """
    path = Path(path)
    data = path.read_bytes()
    trace = _canonical_trace(path, data)
    if trace is not None:
        return trace
    lines = _decode_text(path, data).splitlines()
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
    # a value of the wrong type, or one its column cannot hold, becomes a
    # value that every check of its kind rejects: -1 for the integer fields
    # (all >= 0), NaN for the float ones
    columns = {name: np.array([v if isinstance(v, int) and 0 <= v < 2**63
                               else -1 for v in values[name]], dtype=np.int64)
               for name in ("round", "topic", "node", "source")}
    for name in ("old", "new", "p"):
        columns[name] = np.array([v if isinstance(v, (int, float))
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


def generate_synthetic(n: int, m: int, z: int, stance_mix, seed: int,
                       out_dir) -> DatasetBundle:
    """Write a uniform random simple directed graph with sampled profiles.

    ``stance_mix`` is a distribution over (unknown, oppose, neutral,
    support) — either one 4-vector applied to every topic or one per
    topic. Nodes with a known sampled stance become the seed users.
    Byte-identical output for identical arguments. A bundle needs a topic
    (``z >= 1``): its profiles file holds one row per node and topic, so a
    node without a row, and on no edge, would not be loaded.
    """
    if z < 1:
        raise RangeViolationError("z", z, "integers >= 1")
    if seed < 0:  # np.random.default_rng takes no negative seed
        raise RangeViolationError("seed", seed, "integers >= 0")
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
