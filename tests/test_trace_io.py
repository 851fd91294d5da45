"""The streamed trace writer and the array trace loader against the per-line
code they replaced.

``reference_trace`` keeps ``write_trace`` and ``load_trace`` as they were.
The new writer must give the same bytes. On every file, written or mutated
by hand, the new loader must give the same :class:`SimTrace` (column dtypes
included), or raise the same exception class with the same message. A
file in the form ``write_trace`` writes must load on the array path, which
parses no event line as JSON.
"""

import json
import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest

import reference_trace as ref
import stancecast as sc
from stancecast import io_formats
from stancecast.dynamics import CHANNELS
from stancecast.engine import _EVENT_DTYPES
from stancecast.errors import ParseError, StancecastError
from test_metrics import simulated_case

# Probabilities whose text is easy to get wrong: the smallest subnormal,
# a sum with a 17-digit repr, an exponent form, and a negative zero.
PS = [0.0, 1.0, 1e-05, 5e-324, 0.1 + 0.2, -0.0]
STANCES = [-1.0, 0.0, 0.5, 1.0, -0.0]


def exact(trace):
    """A comparable form of a trace: columns by dtype and bytes."""
    return (trace.n, trace.z, trace.params, trace.round_summaries,
            [(name, getattr(trace, f"ev_{name}").dtype.str,
              getattr(trace, f"ev_{name}").tobytes()) for name in _EVENT_DTYPES])


def outcome(module, path):
    """("ok", exact trace, warning classes) or ("error", class, message)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            trace = module.load_trace(path)
        except Exception as exc:  # the class is part of what is compared
            return "error", type(exc), str(exc)
    return "ok", exact(trace), [w.category for w in caught]


def assert_same_load(path):
    new, old = outcome(io_formats, path), outcome(ref, path)
    assert new == old, (new[:2], old[:2])
    return new


def hand_built(count, seed=0, n=50, z=3, rounds=4):
    """A trace of ``count`` random valid events over both channels."""
    rng = np.random.default_rng(seed)
    columns = {
        "round": np.sort(rng.integers(1, rounds + 1, count)).astype(np.int32),
        "topic": rng.integers(0, z, count).astype(np.int32),
        "node": rng.integers(0, n, count),
        "old": rng.choice(STANCES, count),
        "new": rng.choice(STANCES, count),
        "source": rng.integers(0, n, count),
        "p": rng.choice(PS, count),
        "channel": rng.integers(0, 2, count).astype(np.int8),
    }
    summaries = [sc.RoundSummary(0, j, n, 0, 0, 0, 0) for j in range(z)]
    return sc.SimTrace(n, z, sc.SimParams(rounds_K=rounds), columns, summaries)


def assert_same_write(trace, tmp_path):
    io_formats.write_trace(trace, tmp_path / "new.jsonl")
    ref.write_trace(trace, tmp_path / "ref.jsonl")
    data = (tmp_path / "new.jsonl").read_bytes()
    assert data == (tmp_path / "ref.jsonl").read_bytes()
    assert not (tmp_path / "new.jsonl.tmp").exists()
    assert assert_same_load(tmp_path / "new.jsonl") == ("ok", exact(trace), [])
    return data


def test_writer_matches_reference_on_simulated_cases(tmp_path):
    for seed in range(60):
        _, trace, _ = simulated_case(seed)
        assert_same_write(trace, tmp_path)


@pytest.mark.parametrize("count", [0, 1, 500, 8 * io_formats._SLICE_EVENTS + 3])
def test_writer_matches_reference_on_hand_built_columns(tmp_path, count):
    data = assert_same_write(hand_built(count, seed=count), tmp_path)
    if count >= 500:
        for p in PS:
            assert f'"p":{p!r},'.encode() in data
        for channel in CHANNELS:
            assert f'"channel":"{channel}"'.encode() in data


def assert_same_bytes(columns, tmp_path):
    """Write ``columns`` (in a trace with z = 3) with both writers and
    compare the bytes; such a trace need not load."""
    trace = sc.SimTrace(50, 3, sc.SimParams(rounds_K=4), columns, [])
    io_formats.write_trace(trace, tmp_path / "new.jsonl")
    ref.write_trace(trace, tmp_path / "ref.jsonl")
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()


# Values no simulation writes: ids below 0 or past a small-range table,
# round 0 and the int32 maximum, topics at and past z, and probabilities
# and stances that are not finite or are a negative zero.
ODD_VALUES = {
    "round": [0, 2**31 - 1, 1],
    "topic": [0, 3, 2**31 - 1],
    "node": [-1, 2**40, 0, 7],
    "old": STANCES + [math.nan],
    "new": [-0.0, 1.0, math.inf],
    "source": [-1, 2**40, 3],
    "p": [math.nan, math.inf, -0.0, 5e-324, 0.5, -math.inf],
    "channel": [0, 1],
}


@pytest.mark.parametrize("count", [1, 500, 4 * io_formats._SLICE_EVENTS + 7])
def test_writer_matches_reference_outside_the_engine_ranges(tmp_path, count):
    rng = np.random.default_rng(count)
    assert_same_bytes({name: rng.choice(values, count).astype(_EVENT_DTYPES[name])
                       for name, values in ODD_VALUES.items()}, tmp_path)


@pytest.mark.parametrize("row", range(4))
@pytest.mark.parametrize("count", [1, 300])
def test_writer_matches_reference_on_single_valued_columns(tmp_path, row, count):
    # every column of the slice holds one value
    assert_same_bytes({name: np.full(count, values[row % len(values)],
                                     dtype=_EVENT_DTYPES[name])
                       for name, values in ODD_VALUES.items()}, tmp_path)


@pytest.mark.parametrize("code", [-1, 2])
def test_writer_refuses_a_channel_code_outside_the_channels(tmp_path, code):
    # -1 would index CHANNELS from the end, and 2 past it
    trace = hand_built(2)
    trace.ev_channel[1] = code
    with pytest.raises(StancecastError,
                       match=f"^trace event 1 has channel code {code}, "):
        io_formats.write_trace(trace, tmp_path / "t.jsonl")
    assert list(tmp_path.iterdir()) == []


def test_writer_memory_is_bounded_by_a_slice(tmp_path):
    """Rendering holds one slice as a table of ``str`` pieces, their joined
    text and its bytes, about 2.5 times the slice's bytes; a renderer that
    joins ``bytes`` pieces holds a buffer per piece as well, about 6 times."""
    trace = hand_built(2 * io_formats._SLICE_EVENTS + 3, seed=1)
    path = tmp_path / "t.jsonl"
    tracemalloc.start()
    try:
        io_formats.write_trace(trace, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    slice_bytes = path.stat().st_size / len(trace.ev_node) * io_formats._SLICE_EVENTS
    assert peak < 3.5 * slice_bytes, (peak, slice_bytes)


def generated_trace_lines(tmp_path):
    """The lines of a written trace with events of both channels in several
    rounds."""
    bundle = io_formats.generate_synthetic(60, 180, 2, [0.6, 0.15, 0.1, 0.15],
                                           3, tmp_path / "data")
    graph, symbols = io_formats.load_graph(bundle.edges_path,
                                           bundle.profiles_path)
    seeds = io_formats.load_seeds(bundle.seeds_path, symbols)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trace, _ = sc.run_simulation(
            graph, sc.SimParams(rounds_K=4, rng_seed=3, r2=0.3), seeds)
    assert set(trace.ev_channel.tolist()) == {0, 1}
    assert len(set(trace.ev_round.tolist())) > 1
    io_formats.write_trace(trace, tmp_path / "trace.jsonl")
    return trace, (tmp_path / "trace.jsonl").read_text().splitlines()


def set_field(line, key, text):
    """``line`` with the value of ``key`` spelled as ``text``."""
    event = json.loads(line)
    event[key] = None
    return json.dumps(event, separators=(",", ":")).replace(
        f'"{key}":null', f'"{key}":{text}')


# mutation -> whether the mutated trace is still valid. Swapped keys, a
# quoted number and a renamed key parse as numbers in the right places, and
# JSON reads a header with a CR in it; only the byte checks keep them off
# the array path.
MUTATIONS = {
    "none": True, "redump": True, "reorder": True, "swap keys": True,
    "blank": True, "crlf": True, "no final newline": True, "old int": True,
    "p exponent": True, "duplicate": True, "node float": False,
    "non-utf8": False, "truncate": False, "node range": False,
    "round order": False, "quoted number": False, "renamed key": False,
    "cr in header": False,
}


def mutate(trace, lines, mutation, rng) -> bytes:
    lines = list(lines)
    i = int(rng.integers(1, len(lines)))
    end = "\n"
    if mutation == "redump":
        lines[i] = json.dumps(json.loads(lines[i]))
    elif mutation == "reorder":
        event = json.loads(lines[i])
        lines[i] = json.dumps(dict(reversed(event.items())),
                              separators=(",", ":"))
    elif mutation == "swap keys":
        event = json.loads(lines[i])
        order = ["round", "topic", "source", "old", "new", "node", "p", "channel"]
        lines[i] = json.dumps({key: event[key] for key in order},
                              separators=(",", ":"))
    elif mutation == "quoted number":
        event = json.loads(lines[i])
        lines[i] = set_field(lines[i], "node", f'"{event["node"]}"')
    elif mutation == "renamed key":
        lines[i] = lines[i].replace('"round":', '"rounds":')
    elif mutation == "cr in header":
        lines[0] = lines[0].replace(",", ",\r", 1)
    elif mutation == "blank":
        lines.insert(i, "")
    elif mutation == "crlf":
        end = "\r\n"
    elif mutation == "old int":
        lines[i] = set_field(lines[i], "old", "-1")
    elif mutation == "p exponent":
        lines[i] = set_field(lines[i], "p", "5e-1")
    elif mutation == "duplicate":
        lines.insert(i, lines[i])
    elif mutation == "node float":
        lines[i] = set_field(lines[i], "node", "1.0")
    elif mutation == "truncate":
        lines[i] = lines[i][:int(rng.integers(1, len(lines[i])))]
    elif mutation == "node range":
        lines[i] = set_field(lines[i], "node", str(trace.n))
    elif mutation == "round order":
        later = np.flatnonzero(trace.ev_round > trace.ev_round[0])
        lines.insert(1, lines.pop(int(rng.choice(later)) + 1))
    data = end.join(lines).encode()
    if mutation == "non-utf8":
        k = len(end.join(lines[:i])) + int(rng.integers(1, len(lines[i]) + 1))
        data = data[:k] + b"\xff" + data[k:]
    if mutation != "no final newline":
        data += end.encode()
    return data


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_mutated_traces_match_reference(tmp_path, mutation):
    trace, lines = generated_trace_lines(tmp_path)
    rng = np.random.default_rng(list(MUTATIONS).index(mutation))
    for case in range(8):
        path = tmp_path / f"{case}.jsonl"
        path.write_bytes(mutate(trace, lines, mutation, rng))
        result = assert_same_load(path)
        assert (result[0] == "ok") == MUTATIONS[mutation], (case, result)
        if mutation == "none":
            assert result == ("ok", exact(trace), [])


@pytest.fixture
def json_loads_calls(monkeypatch):
    calls = []
    loads = json.loads

    def counting_loads(*args, **kwargs):
        calls.append(args)
        return loads(*args, **kwargs)

    monkeypatch.setattr(io_formats.json, "loads", counting_loads)
    return calls


@pytest.mark.parametrize("count", [0, 500, 8 * io_formats._SLICE_EVENTS + 3])
def test_written_traces_load_on_the_array_path(tmp_path, json_loads_calls,
                                               count):
    trace = hand_built(count, seed=count)
    io_formats.write_trace(trace, tmp_path / "t.jsonl")
    assert io_formats.load_trace(tmp_path / "t.jsonl") == trace
    assert len(json_loads_calls) == 1  # the header


def test_other_traces_load_line_by_line(tmp_path, json_loads_calls):
    trace = hand_built(500)
    io_formats.write_trace(trace, tmp_path / "t.jsonl")
    lines = (tmp_path / "t.jsonl").read_text().splitlines()
    (tmp_path / "t.jsonl").write_text("\r\n".join(lines) + "\r\n")
    assert io_formats.load_trace(tmp_path / "t.jsonl") == trace
    assert len(json_loads_calls) > 500


@pytest.fixture
def checked_slices(monkeypatch):
    """The (start, stop) and result of each ``_canonical_slice`` call."""
    checks = []
    check = io_formats._canonical_slice

    def counting_check(raw, offsets, columns, start, stop, bounds):
        checks.append((start, stop,
                       check(raw, offsets, columns, start, stop, bounds)))
        return checks[-1][2]

    monkeypatch.setattr(io_formats, "_canonical_slice", counting_check)
    return checks


def test_a_bad_last_slice_checks_each_slice_once(tmp_path, checked_slices):
    """One space after ``"source":`` near the end leaves the line valid JSON
    but not canonical; each slice is checked once, so the earlier slices
    pass and the bad last one fails, once each, before the per-line loop."""
    trace = hand_built(2 * io_formats._SLICE_EVENTS + 500, seed=2)
    path = tmp_path / "t.jsonl"
    io_formats.write_trace(trace, path)
    lines = path.read_bytes().split(b"\n")
    lines[-6] = lines[-6].replace(b'"source":', b'"source": ')  # fifth-last
    path.write_bytes(b"\n".join(lines))
    assert assert_same_load(path) == ("ok", exact(trace), [])
    first, second = io_formats._SLICE_EVENTS, 2 * io_formats._SLICE_EVENTS
    assert checked_slices == [(0, first, True), (first, second, True),
                              (second, len(trace.ev_node), False)]


@pytest.fixture
def file_reads(monkeypatch):
    """The paths of every ``Path.read_bytes`` call."""
    reads = []
    read_bytes = pathlib.Path.read_bytes

    def counting_read_bytes(self):
        reads.append(self)
        return read_bytes(self)

    monkeypatch.setattr(pathlib.Path, "read_bytes", counting_read_bytes)
    return reads


class CountedStream:
    """A binary file whose ``readinto`` calls append their byte counts to
    ``reads``."""

    def __init__(self, path, reads):
        self.stream, self.reads = open(path, "rb"), reads

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stream.close()

    def fileno(self):
        return self.stream.fileno()

    def readinto(self, buffer):
        self.reads.append(self.stream.readinto(buffer))
        return self.reads[-1]


@pytest.fixture
def streamed_reads(monkeypatch):
    """The byte count of every ``readinto`` of a canonical load."""
    reads = []

    def counting_open(path, mode="r", **kwargs):
        if mode == "rb":
            return CountedStream(path, reads)
        return open(path, mode, **kwargs)

    monkeypatch.setattr(io_formats, "open", counting_open, raising=False)
    return reads


@pytest.mark.parametrize("mutation", ["none", "crlf", "blank", "redump",
                                      "non-utf8", "node range"])
def test_only_the_per_line_load_reads_the_whole_file(tmp_path, file_reads,
                                                      streamed_reads, mutation):
    """A canonical load streams each byte of the file once and never holds
    it whole; a file that falls back to the per-line loop is then read
    whole, once."""
    trace, lines = generated_trace_lines(tmp_path)
    path = tmp_path / "mutated.jsonl"
    path.write_bytes(mutate(trace, lines, mutation, np.random.default_rng(5)))
    file_reads.clear()
    result = outcome(io_formats, path)
    assert result[0] == ("ok" if MUTATIONS[mutation] else "error")
    assert file_reads == ([] if mutation == "none" else [path])
    if mutation == "none":
        assert sum(streamed_reads) == path.stat().st_size


def streamed_load(trace, path, json_loads_calls):
    """Write ``trace`` to ``path`` and load it: it must load on the array
    path, as the per-line reference loads it."""
    io_formats.write_trace(trace, path)
    json_loads_calls.clear()
    assert io_formats.load_trace(path) == trace
    assert len(json_loads_calls) == 1  # the header
    assert assert_same_load(path) == ("ok", exact(trace), [])


@pytest.mark.parametrize("slices", [1, 2])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_slice_boundaries_load_as_reference(tmp_path, json_loads_calls,
                                            slices, extra):
    count = slices * io_formats._SLICE_EVENTS + extra
    streamed_load(hand_built(count, seed=count), tmp_path / "t.jsonl",
                  json_loads_calls)


@pytest.mark.parametrize("read_bytes, count", [(1, 300), (97, 500),
                                               (4093, 40000)])
def test_lines_that_straddle_reads_load_as_reference(
        tmp_path, monkeypatch, json_loads_calls, read_bytes, count):
    """With reads shorter than a line, or ending at odd offsets, most lines
    are split between reads and slices begin mid-read."""
    monkeypatch.setattr(io_formats, "_READ_BYTES", read_bytes)
    streamed_load(hand_built(count, seed=read_bytes), tmp_path / "t.jsonl",
                  json_loads_calls)


def test_a_header_longer_than_a_read_loads_as_reference(tmp_path,
                                                        json_loads_calls):
    trace = hand_built(io_formats._SLICE_EVENTS + 5, seed=11)
    trace.round_summaries = [sc.RoundSummary(r, j, 50, 0, 0, 0, 0)
                             for r in range(5000) for j in range(3)]
    path = tmp_path / "t.jsonl"
    streamed_load(trace, path, json_loads_calls)
    with open(path, "rb") as stream:
        assert len(stream.readline()) > io_formats._READ_BYTES


# a change to the fifth-last line of a 3-slice trace, past many reads: two
# that leave the trace valid but not canonical, and one that breaks it
LATE_BYTES = {
    "space": (b'"source":', b'"source": '),
    "cr": (b"}", b"}\r"),
    "0xff": (b'"old":', b'"old":\xff'),
}


@pytest.mark.parametrize("case", LATE_BYTES)
def test_a_late_non_canonical_byte_loads_as_reference(tmp_path, case):
    trace = hand_built(3 * io_formats._SLICE_EVENTS, seed=12)
    path = tmp_path / "t.jsonl"
    io_formats.write_trace(trace, path)
    lines = path.read_bytes().split(b"\n")
    old, new = LATE_BYTES[case]
    lines[-6] = lines[-6].replace(old, new, 1)
    path.write_bytes(b"\n".join(lines))
    result = assert_same_load(path)
    assert (result[0] == "ok") == (case != "0xff")


def test_no_final_newline_after_several_reads_loads_as_reference(tmp_path):
    trace = hand_built(3 * io_formats._SLICE_EVENTS, seed=13)
    path = tmp_path / "t.jsonl"
    io_formats.write_trace(trace, path)
    path.write_bytes(path.read_bytes()[:-1])
    assert path.stat().st_size > 4 * io_formats._READ_BYTES
    assert assert_same_load(path) == ("ok", exact(trace), [])


# Values of the wrong type or beyond what a column holds: booleans, floats
# in integer fields, strings, null, integers past 64 bits or past a float,
# lists and objects.
FIELD_VALUES = (
    [("round", t) for t in ("true", "false", "null", "2e0", '"1"', str(2**70),
                            "[1]", "{}")]
    + [("node", t) for t in ("true", "null", str(2**70), str(2**1030), "-0",
                             "1e400", "[]")]
    + [("old", t) for t in ("true", "false", str(2**1030), '"1"', "null",
                            "-0.0", "NaN")]
    + [("p", t) for t in ("true", "1", "0", "Infinity", "NaN", str(2**1030),
                          '"0.5"')]
    + [("channel", t) for t in ("0", "null", "true", '["adjacent"]', '"x"')]
)


@pytest.mark.parametrize("field,text", FIELD_VALUES,
                         ids=[f"{f}={t[:12]}" for f, t in FIELD_VALUES])
def test_field_values_load_as_reference(tmp_path, field, text):
    # alone, and ahead of a later event whose node is out of range
    _, lines = generated_trace_lines(tmp_path)
    for i in (1, len(lines) // 2):
        for later in (False, True):
            mutated = list(lines)
            mutated[i] = set_field(mutated[i], field, text)
            if later:
                mutated[-1] = set_field(mutated[-1], "node", "-1")
            path = tmp_path / f"{i}-{later}.jsonl"
            path.write_text("\n".join(mutated) + "\n")
            result = assert_same_load(path)
            # a boolean is not a number, as in the header
            if text in ("true", "false"):
                assert result[:2] == ("error", ParseError)


@pytest.mark.parametrize("field,bound", [("topic", "z"), ("round", "rounds_K")])
@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["canonical", "crlf"])
def test_integer_past_its_column_is_an_error(tmp_path, field, bound, end):
    """A round or topic that the header allows, but that its int32 column
    cannot hold, fails at its line instead of loading wrapped mod 2**32."""
    _, lines = generated_trace_lines(tmp_path)
    header = json.loads(lines[0])
    if bound == "z":
        header["z"] = 2**32 + 5
    else:
        header["params"]["rounds_K"] = 2**32 + 5
    lines[0] = json.dumps(header, separators=(",", ":"))
    lines[-1] = set_field(lines[-1], field, str(2**32 + 1))
    path = tmp_path / "wide.jsonl"
    path.write_bytes(end.join(lines + [""]).encode())
    low = 1 if field == "round" else 0
    with pytest.raises(ParseError) as caught:
        io_formats.load_trace(path)
    assert str(caught.value) == (
        f"{path}:{len(lines)}:1: event {field} {2**32 + 1} outside the "
        f"integers [{low}, {2**31 - 1}]")


def load_memory(trace, tmp_path):
    """(tracemalloc peak of a canonical load of ``trace``, the file's bytes,
    the columns' bytes, one load slice's bytes)."""
    path = tmp_path / "t.jsonl"
    io_formats.write_trace(trace, path)
    file_bytes = path.stat().st_size
    column_bytes = sum(getattr(trace, f"ev_{name}").nbytes for name in _EVENT_DTYPES)
    slice_bytes = file_bytes / len(trace.ev_node) * io_formats._SLICE_EVENTS
    tracemalloc.start()
    try:
        assert io_formats.load_trace(path) == trace
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, file_bytes, column_bytes, slice_bytes


def test_loader_memory_is_bounded_by_a_slice(tmp_path):
    """A canonical load holds the file, its columns and one slice's check:
    its colon offsets, piece tables and ids. Parsing the whole file as one
    table, after a translated copy of it, held about 3 times the file, the
    columns and a slice's bytes on this trace."""
    peak, file_bytes, column_bytes, slice_bytes = load_memory(
        hand_built(2 * io_formats._SLICE_EVENTS + 3, seed=3), tmp_path)
    bound = 2 * (file_bytes + column_bytes + slice_bytes)
    assert peak < bound, (peak, bound)


def test_loader_memory_does_not_grow_with_slices(tmp_path):
    """Past its columns, a canonical load of 8 slices holds about 3.7
    slices' bytes, and nothing of the file's size: the read buffer with one
    slice, the slice's check, and the columns' room for the shortest
    lines. Each slice's work is freed before the next. Keeping every
    slice's piece tables until all slices were checked held about 6.4
    slices past the whole file and the columns."""
    peak, file_bytes, column_bytes, slice_bytes = load_memory(
        hand_built(8 * io_formats._SLICE_EVENTS, seed=6), tmp_path)
    bound = column_bytes + 4.5 * slice_bytes
    assert peak <= bound, (peak, bound)


def test_load_stops_at_the_first_bad_slice(tmp_path, checked_slices):
    """One space after ``"source":`` in line 10 leaves the line valid JSON,
    but the first slice is not canonical: it is checked once, and no later
    slice is checked."""
    trace = hand_built(2 * io_formats._SLICE_EVENTS + 3, seed=4)
    path = tmp_path / "t.jsonl"
    io_formats.write_trace(trace, path)
    lines = path.read_bytes().split(b"\n")
    lines[9] = lines[9].replace(b'"source":', b'"source": ')
    path.write_bytes(b"\n".join(lines))
    assert assert_same_load(path) == ("ok", exact(trace), [])
    assert checked_slices == [(0, io_formats._SLICE_EVENTS, False)]


def test_round_order_is_checked_across_load_slices(tmp_path):
    """The only round that falls is the first of the second slice: each
    slice is in order on its own, and the load fails at that line."""
    trace = hand_built(2 * io_formats._SLICE_EVENTS + 3, seed=5)
    first = io_formats._SLICE_EVENTS
    trace.ev_round[:first] = 4
    trace.ev_round[first:] = np.sort(trace.ev_round[first:])
    assert trace.ev_round[first] < 4
    assert (np.diff(trace.ev_round) < 0).sum() == 1
    path = tmp_path / "t.jsonl"
    io_formats.write_trace(trace, path)
    result = assert_same_load(path)
    assert result[:2] == ("error", ParseError)
    assert result[2].startswith(f"{path}:{first + 2}:1: event round ")


@pytest.mark.parametrize("count", [0, 500, 8 * io_formats._SLICE_EVENTS + 3])
def test_colliding_piece_hashes_load_as_reference(tmp_path, monkeypatch, count):
    """With every piece hashed alike, a slice with more than one distinct
    head, middle or tail fails its check and the file loads line by line,
    with the same result."""
    monkeypatch.setattr(io_formats, "_piece_hashes",
                        lambda words, lengths: np.zeros(len(lengths), np.uint64))
    trace = hand_built(count, seed=count)
    io_formats.write_trace(trace, tmp_path / "t.jsonl")
    assert assert_same_load(tmp_path / "t.jsonl") == ("ok", exact(trace), [])


@pytest.mark.parametrize("line", [1, 250, 499])
def test_a_colon_moved_to_the_next_line_loads_as_reference(tmp_path, line):
    """A line with 9 colons ahead of one with 7 keeps 8 colons a line on
    average; the head and tail pieces tie each line to its own colons, so
    the file is not taken on the array path."""
    trace = hand_built(500, seed=7)
    path = tmp_path / "t.jsonl"
    io_formats.write_trace(trace, path)
    lines = path.read_bytes().split(b"\n")
    lines[line] = lines[line].replace(b'"channel":"', b'"channel":":')
    lines[line + 1] = lines[line + 1].replace(b'"p":', b'"p" ')
    assert lines[line].count(b":") == 9 and lines[line + 1].count(b":") == 7
    path.write_bytes(b"\n".join(lines))
    assert assert_same_load(path)[:2] == ("error", ParseError)


# line -> (bytes, replacement): each piece of an event line must equal the
# writer's ASCII text, and the header what json.dumps writes, which escapes
# every character beyond ASCII
NON_ASCII = {
    "0xff in a head": (250, b'{"round":', b'{\xff"round":'),
    "0xff in a tail": (250, b'"}', b'"\xff}'),
    "channel": (250, b'adjacent"}', 'adjacént"}'.encode()),
    "node id digit": (250, b'"node":', '"node":٣'.encode()),
    "header key": (0, b'{"schema":', '{"ké":0,"schema":'.encode()),
}


@pytest.mark.parametrize("case", NON_ASCII)
def test_non_ascii_bytes_load_as_reference(tmp_path, case):
    line, old, new = NON_ASCII[case]
    path = tmp_path / "t.jsonl"
    io_formats.write_trace(hand_built(500, seed=9), path)
    lines = path.read_bytes().split(b"\n")
    assert old in lines[line]
    lines[line] = lines[line].replace(old, new, 1)
    path.write_bytes(b"\n".join(lines))
    assert_same_load(path)


def test_the_widest_tail_ends_the_file(tmp_path, json_loads_calls):
    """The longest tail a valid event has, at the very end of the file,
    loads on the array path: no fixed-width read passes the end."""
    trace = hand_built(500, seed=8)
    trace.ev_p[-1] = 2.2250738585072014e-308
    trace.ev_channel[-1] = CHANNELS.index("nonadjacent")
    path = tmp_path / "t.jsonl"
    io_formats.write_trace(trace, path)
    assert path.read_bytes().endswith(
        b',"p":2.2250738585072014e-308,"channel":"nonadjacent"}\n')
    assert assert_same_load(path) == ("ok", exact(trace), [])
    json_loads_calls.clear()
    assert io_formats.load_trace(path) == trace
    assert len(json_loads_calls) == 1  # the header
