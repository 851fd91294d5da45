"""The array loaders against the per-line loaders they replaced.

``reference_loaders`` keeps the loops of ``io_formats`` and
``graph.build_graph`` as they were. On generated bundles, and on seeded
line mutations of them, both must give the same graph arrays, symbol
table, seeds and truth (dict order included), and the same warnings, or
raise the same exception class with the same message. Two messages differ
on purpose:

* a field that is blank but not empty (``a, ,1``) made the old CSV reader
  fail with a ``ValueError``, and a blank field before an empty one was
  reported at the empty one's column; both are now a :class:`ParseError`
  at the first blank field;
* an unknown node or topic id in a seeds or truth file now names its
  ``path:line``, ahead of the old message.
"""

import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_loaders as ref
import stancecast as sc
from stancecast import io_formats
from stancecast.errors import InconsistentIdsError, ParseError

LOADERS = ("load_graph", "load_graph_seeds", "load_profiles", "load_seeds",
           "load_seed_nodes", "load_ground_truth")


def make_bundle(out_dir, n=24, m=60, z=2, seed=0):
    bundle = io_formats.generate_synthetic(n, m, z, [0.5, 0.2, 0.15, 0.15],
                                           seed, out_dir)
    _, symbols = io_formats.load_graph(bundle.edges_path, bundle.profiles_path)
    rng = np.random.default_rng(seed)
    stances = rng.choice([-1.0, 0.0, 0.5, 1.0], size=(n, z))
    truth = {(v, j): float(stances[v, j]) for v in range(n) for j in range(z)
             if rng.random() < 0.8}
    truth_path = out_dir / "truth.csv"
    io_formats.write_ground_truth(truth_path, truth, symbols)
    return {"edges": bundle.edges_path, "profiles": bundle.profiles_path,
            "seeds": bundle.seeds_path, "truth": truth_path}


def call(module, loader, paths, node_ids, topic_ids):
    symbols = module.SymbolTable(node_ids, topic_ids)
    if loader == "load_graph":
        return module.load_graph(paths["edges"], paths["profiles"])
    if loader == "load_graph_seeds":
        return module.load_graph(paths["edges"], None, paths["seeds"])
    if loader == "load_profiles":
        return module.load_profiles(paths["profiles"])
    if loader == "load_ground_truth":
        return module.load_ground_truth(paths["truth"], symbols)
    return getattr(module, loader)(paths["seeds"], symbols)


def exact(value):
    """A comparable form of a loader's result: arrays by dtype, shape and
    bytes, symbol tables by their ids, dicts as ordered item lists."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, sc.SocialGraph):
        return (value.n, value.m, value.z) + tuple(
            exact(getattr(value, name)) for name in
            ("indptr", "indices", "in_indptr", "in_indices", "profiles"))
    if isinstance(value, (io_formats.SymbolTable, ref.SymbolTable)):
        return value.node_ids, value.topic_ids
    if isinstance(value, dict):
        return [(k, exact(v)) for k, v in value.items()]
    if isinstance(value, tuple):
        return tuple(exact(v) for v in value)
    return value


def outcome(fn):
    """("ok", result, warning classes) or ("error", class, message)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = fn()
        except Exception as exc:  # the class is part of what is compared
            return "error", type(exc), str(exc)
    return "ok", exact(value), [w.category for w in caught]


def first_blank_field(path):
    """(line, column) of the first blank field of a CSV, or None."""
    lines = path.read_text(encoding="utf-8").splitlines()
    for line_no, line in enumerate(lines[1:], start=2):
        fields = [f.strip() for f in line.split(",")]
        if line.strip() and len(fields) == 3 and "" in fields:
            return line_no, fields.index("") + 1
    return None


def expected_outcome(reference, paths):
    """The reference outcome, with the two deliberate message changes."""
    if reference[0] == "error":
        _, cls, message = reference
        blank = cls is ValueError and message == "'' is not in list"
        if blank or message.endswith(": empty field"):
            for path in paths.values():
                where = first_blank_field(path)
                if where is not None:
                    return ("error", ParseError,
                            f"{path}:{where[0]}:{where[1]}: empty field")
    return reference


def assert_same(loader, paths, node_ids, topic_ids):
    new = outcome(lambda: call(io_formats, loader, paths, node_ids, topic_ids))
    old = outcome(lambda: call(ref, loader, paths, node_ids, topic_ids))
    want = expected_outcome(old, paths)
    if (want[0] == "error" and want[1] is InconsistentIdsError
            and want[2].startswith("unknown ")):
        assert new[:2] == want[:2], (loader, new, want)
        assert re.fullmatch(r".+:\d+: " + re.escape(want[2]), new[2]), \
            (loader, new, want)
    else:
        assert new == want, (loader, new[:2], want[:2])
    return new


def bundle_ids(paths):
    _, symbols = ref.load_graph(paths["edges"], paths["profiles"])
    return symbols.node_ids, symbols.topic_ids


@pytest.mark.parametrize("n,m,z", [(24, 60, 2), (300, 900, 3), (1000, 2500, 1)])
def test_generated_bundles_load_identically(tmp_path, n, m, z):
    paths = make_bundle(tmp_path, n, m, z, seed=n)
    ids = bundle_ids(paths)
    for loader in LOADERS:
        assert assert_same(loader, paths, *ids)[0] == "ok"


def test_untidy_files_load_identically(tmp_path):
    """Comments (one of 2000 characters), blank and padded lines, CRLF and
    other line breaks, and ids beyond ASCII, with spaces inside or a
    200-character one."""
    long_id = "L" * 200
    edges = tmp_path / "edges.tsv"
    edges.write_text(
        f"# source\ttarget\r\n\n  Émile\tzoë \r\n#{'c' * 2000}\n"
        "\ta b\tZoe\n#\tnot\tan edge\n"
        f"zoë\ta b\u2028ä\t{long_id}\x85  \t \n{long_id}\tÉmile\t\n",
        encoding="utf-8")
    profiles = tmp_path / "profiles.csv"
    profiles.write_text(
        " node_id,topic_id,stance \n\nÉmile , t1,1\n zoë,t0 ,  0.5\r\n"
        "a b,t1,-1\n\u3000\nZoe,t0,+0\nä,t1,1e0\n"
        f"{long_id},t0,0\n", encoding="utf-8")
    seeds = tmp_path / "seeds.csv"
    seeds.write_text("node_id,topic_id,stance\nÉmile,t1,1.0\nzoë,t0,0.5\n"
                     "ä,t0,0\nzoë,t1,-0\n", encoding="utf-8")
    truth = tmp_path / "truth.csv"
    truth.write_text("node_id,topic_id,final_stance\nä,t1,1\nZoe,t0,-1\n",
                     encoding="utf-8")
    paths = {"edges": edges, "profiles": profiles, "seeds": seeds,
             "truth": truth}
    ids = bundle_ids(paths)
    assert long_id in ids[0] and "a b" in ids[0]
    for loader in LOADERS:
        assert assert_same(loader, paths, *ids)[0] == "ok"


def write_nul_bundle(tmp_path):
    paths = {"edges": tmp_path / "edges.tsv", "profiles": tmp_path / "p.csv",
             "seeds": tmp_path / "s.csv", "truth": tmp_path / "t.csv"}
    paths["edges"].write_text("a\x00\ta\n\x00b\ta\x00\n", encoding="utf-8")
    paths["profiles"].write_text("node_id,topic_id,stance\na\x00,t\x00,1\n"
                                 "a,t\x00,0\n\x00b,t,0.5\n", encoding="utf-8")
    paths["seeds"].write_text("node_id,topic_id,stance\na\x00,t\x00,1\n",
                              encoding="utf-8")
    paths["truth"].write_text("node_id,topic_id,final_stance\n\x00b,t,1\n"
                              "a\x00,t\x00,1\n", encoding="utf-8")
    return paths


def test_nul_characters_load_identically(tmp_path):
    """NUL is an ordinary character of an id: 'a', 'a<NUL>' and '<NUL>b' are
    three nodes, and 'a<NUL>' -> 'a' is no self-loop."""
    paths = write_nul_bundle(tmp_path)
    ids = bundle_ids(paths)
    assert ids == (("\x00b", "a", "a\x00"), ("t", "t\x00"))
    for loader in LOADERS:
        assert assert_same(loader, paths, *ids)[0] == "ok"


CSV_HEAD = {"profiles": "node_id,topic_id,stance\n",
            "seeds": "node_id,topic_id,stance\n",
            "truth": "node_id,topic_id,final_stance\n"}
# A file holding a NUL and a malformed line; seeds and truth with an
# unknown id in an earlier row, which is reported first.
NUL_AND_MALFORMED = [
    ("edges", "a\x00\ta\na\x00\tb\tc\n\x00b\ta\x00\n"),
    ("edges", "a\x00\ta\n\x00b\n"),
    ("edges", "a\x00\tb\tc\n"),
    ("profiles", "a\x00,t\x00,1\na\x00,t,1,x\n"),
    ("profiles", "a\x00,t\x00,1\na,\x00\n"),
    ("profiles", "a\x00,,1\n\x00b,t,0.5\n"),
    ("profiles", "a\x00,t\x00, \n"),
    ("seeds", "a\x00,t\x00,1\na\x00,t,1,x\n"),
    ("seeds", "zz\x00,t,1\na\x00,t,1,x\n"),
    ("seeds", "a\x00,t\x00,\x00\na\x00,t,1,x\n"),
    ("truth", "\x00b,t,1\na\x00,t,1,x\n"),
    ("truth", "\x00b,zz,1\na\x00,t,1,x\n"),
    ("truth", "\x00b,t,1\n\x00b,t,1\n,a\x00,1\n"),
]


@pytest.mark.parametrize("kind,text", NUL_AND_MALFORMED)
def test_nul_files_with_a_malformed_line_load_identically(tmp_path, kind,
                                                          text):
    paths = write_nul_bundle(tmp_path)
    ids = bundle_ids(paths)
    paths[kind].write_text(CSV_HEAD.get(kind, "") + text, encoding="utf-8")
    results = [assert_same(loader, paths, *ids)[0] for loader in LOADERS]
    assert "error" in results


# Ids that tie on their first packed key: nine ASCII code points fill it.
TIED = "x" * 9
ASTRAL = "\U0001F600"


def write_tied_bundle(tmp_path, long_lines):
    """A bundle whose ids hold an astral-plane code point, tie on their
    first packed key, or are a prefix of another. Long lines (a 2000-
    character comment, a 300-character id) make the tokens variable-width."""
    nodes = ["a", "ab", ASTRAL, "a" + ASTRAL, TIED, TIED + "a", TIED + "b",
             TIED * 2 + "a"] + (["L" * 300] if long_lines else [])
    topics = ["t", "t" + ASTRAL, TIED + "t"]
    edges = [f"{u}\t{v}" for u, v in zip(nodes, nodes[1:] + nodes[:1])]
    edges.append(f"{TIED}b\t{TIED}")
    if long_lines:
        edges.insert(1, "#" + "c" * 2000)
    stances = ["1", "0", "0.5", "-1"]
    rows = {"edges": edges,
            "profiles": [f"{u},{t},{stances[(i + j) % 4]}"
                         for i, u in enumerate(nodes)
                         for j, t in enumerate(topics)],
            "seeds": [f"{TIED}a,t,1", f"{ASTRAL},t{ASTRAL},0",
                      f"ab,{TIED}t,0.5", f"{nodes[-1]},t,1"],
            "truth": [f"{TIED},t,1", f"a,t{ASTRAL},-1", f"{TIED}b,{TIED}t,0",
                      f"{TIED * 2}a,t,0.5"]}
    paths = {}
    for kind, lines in rows.items():
        paths[kind] = tmp_path / f"{kind}.txt"
        paths[kind].write_text(CSV_HEAD.get(kind, "") + "\n".join(lines)
                               + "\n", encoding="utf-8")
    return paths, nodes, topics


@pytest.mark.parametrize("long_lines", [False, True],
                         ids=["fixed-width", "variable-width"])
def test_ids_that_tie_on_a_packed_key_load_identically(tmp_path, long_lines):
    paths, nodes, topics = write_tied_bundle(tmp_path, long_lines)
    ids = bundle_ids(paths)
    assert ids == (tuple(sorted(nodes)), tuple(sorted(topics)))
    for loader in LOADERS:
        assert assert_same(loader, paths, *ids)[0] == "ok"


# An id that ties with known ones on its first packed key, or extends or
# shortens one, is unknown.
UNKNOWN_TIED_ROWS = [f"{TIED}c,t,1", f"{TIED * 2},t,1", f"a{ASTRAL}{ASTRAL},t,1",
                     f"a,{TIED},1", f"a,t{ASTRAL}{ASTRAL},0"]


@pytest.mark.parametrize("kind", ["seeds", "truth"])
@pytest.mark.parametrize("row", UNKNOWN_TIED_ROWS)
def test_unknown_ids_that_tie_on_a_packed_key_load_identically(tmp_path, kind,
                                                               row):
    paths, _, _ = write_tied_bundle(tmp_path, long_lines=False)
    ids = bundle_ids(paths)
    lines = paths[kind].read_text(encoding="utf-8").splitlines()
    paths[kind].write_text("\n".join(lines[:2] + [row] + lines[2:]) + "\n",
                           encoding="utf-8")
    results = {loader: assert_same(loader, paths, *ids)[0]
               for loader in LOADERS}
    assert results["load_ground_truth" if kind == "truth" else "load_seeds"] \
        == "error"


# Code points of ids, and the ids that tie on a packed key
INTERN_CHARS = ["a", "b", "x", "é", ASTRAL, ","]
INTERN_TIES = [TIED + "a", TIED + "b", TIED, TIED * 2 + "a", TIED * 2]


def interned_ids(chars):
    return st.lists(st.one_of(st.text(st.sampled_from(chars), max_size=40),
                              st.sampled_from(INTERN_TIES)), max_size=50)


def unique_by_sorted(items):
    """(distinct, inverse) of ``items`` by Python's ``sorted``."""
    distinct = sorted(set(items))
    index = {item: i for i, item in enumerate(distinct)}
    return distinct, [index[item] for item in items]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(interned_ids(INTERN_CHARS), interned_ids(INTERN_CHARS + ["\x00"]))
@example([], [])
@example(["x"], ["\x00"])
@example(["a", "ab", "", "a"], ["a", "a\x00", "a\x00b", "ab", "", "\x00"])
@example([], ["\x00a", "\x00,", "a\x00a", "a\x00,", "a"])
def test_intern_matches_np_unique(plain, with_nul):
    """Only the second list draws NUL. A U array drops a trailing NUL, and
    numpy (2.4) compares variable-width strings only up to a NUL, so
    ``np.unique`` takes ``'\\x00a'`` and ``'\\x00,'`` for one id; ids that
    hold a NUL are checked against ``sorted`` alone."""
    for items in (plain, with_nul):
        distinct, inverse = io_formats._intern(io_formats._str_spans(items))
        assert inverse.dtype == np.intp
        got = distinct.tolist(), inverse.tolist()
        assert got == unique_by_sorted(items)
        if not any("\x00" in item for item in items):
            want = np.unique(np.array(items, dtype=str), return_inverse=True)
            assert got == (want[0].tolist(), want[1].tolist())


def test_ids_that_differ_after_a_nul_load_identically(tmp_path):
    """numpy compares variable-width strings only up to a NUL, so sorting
    the id strings took '<NUL>a' and '<NUL>b' for one node."""
    paths = write_nul_bundle(tmp_path)
    paths["edges"].write_text("\x00a\tb\n\x00b\tb\na\x00x\ta\x00y\n",
                              encoding="utf-8")
    paths["profiles"].write_text(
        "node_id,topic_id,stance\n\x00a,t\x00x,1\n\x00b,t\x00y,0\n"
        "a\x00x,t\x00x,0.5\n", encoding="utf-8")
    paths["seeds"].write_text("node_id,topic_id,stance\n\x00b,t\x00y,1\n"
                              "a\x00y,t\x00x,0\n", encoding="utf-8")
    paths["truth"].write_text("node_id,topic_id,final_stance\n"
                              "\x00b,t\x00x,1\n\x00a,t\x00x,1\n",
                              encoding="utf-8")
    ids = bundle_ids(paths)
    assert ids == (("\x00a", "\x00b", "a\x00x", "a\x00y", "b"),
                   ("t\x00x", "t\x00y"))
    for loader in LOADERS:
        assert assert_same(loader, paths, *ids)[0] == "ok"
    # a seed id that is known only up to its NUL is unknown
    paths["seeds"].write_text("node_id,topic_id,stance\n\x00c,t\x00y,1\n",
                              encoding="utf-8")
    for loader in ("load_seeds", "load_seed_nodes"):
        assert assert_same(loader, paths, *ids)[0] == "error"


# Characters a mutation may insert: delimiters, comment and sign marks,
# whitespace that is (U+2028, U+0085) or is not (U+00A0) a line break, NUL.
CHARS = [",", "\t", " ", "#", "x", "é", "-", ".", "1", "\u2028", "\x85",
         "\xa0", "\x00"]
BAD_STANCES = ["0.3", "x", "-1", "nan", "inf", "", " ", "1e0", "+1", "-0",
               "0.50", "1,", "\x00"]
OPERATIONS = ["delete", "duplicate", "truncate", "insert", "delimiter",
              "repeat", "self-loop", "stance", "unknown id", "blank field",
              "shuffle"]


def mutate(lines, kind, operation, rng):
    """Apply one mutation to the lines of one file (in place)."""
    i = int(rng.integers(0, len(lines)))
    line = lines[i]
    delimiter = "\t" if kind == "edges" else ","
    if operation == "delete":
        del lines[i]
    elif operation == "duplicate":
        lines.insert(i, line)
    elif operation == "truncate":
        lines[i] = line[:int(rng.integers(0, len(line) + 1))]
    elif operation == "insert":
        k = int(rng.integers(0, len(line) + 1))
        lines[i] = line[:k] + str(rng.choice(CHARS)) + line[k:]
    elif operation == "delimiter":
        spots = [k for k, c in enumerate(line) if c in "\t,"]
        if spots:
            k = int(rng.choice(spots))
            other = str(rng.choice(["\t", ",", " ", ";", "\t\t", ",,"]))
            lines[i] = line[:k] + other + line[k + 1:]
    elif operation == "shuffle":
        lines[1:] = [lines[k] for k in 1 + rng.permutation(len(lines) - 1)]
    elif operation == "repeat":
        lines.append(lines[int(rng.integers(1, len(lines)))])
    elif operation == "self-loop":
        node = lines[-1].split(delimiter)[0]
        lines.append(f"{node}\t{node}" if kind == "edges"
                     else f"{node},{node},1")
    else:
        fields = line.split(delimiter)
        if operation == "stance":
            fields[-1] = str(rng.choice(BAD_STANCES))
        elif operation == "unknown id":
            fields[int(rng.integers(0, min(2, len(fields))))] = "zz"
        else:
            fields[int(rng.integers(0, len(fields)))] = str(
                rng.choice([" ", "", "\t", "\xa0"]))
        lines[i] = delimiter.join(fields)


@pytest.mark.parametrize("operation", OPERATIONS)
def test_mutated_bundles_match_reference(tmp_path, operation):
    paths = make_bundle(tmp_path / "clean")
    ids = bundle_ids(paths)
    rng = np.random.default_rng(OPERATIONS.index(operation))
    failures = 0
    for case in range(40):
        kind = ("edges", "profiles", "seeds", "truth")[case % 4]
        mutated = dict(paths)
        mutated[kind] = tmp_path / f"{case}-{paths[kind].name}"
        lines = paths[kind].read_text(encoding="utf-8").splitlines()
        mutate(lines, kind, operation, rng)
        mutated[kind].write_text("\n".join(lines) + "\n", encoding="utf-8")
        for loader in LOADERS:
            failures += assert_same(loader, mutated, *ids)[0] == "error"
    # every operation but a shuffle reaches the error paths
    assert failures or operation == "shuffle"


def test_build_graph_matches_reference():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n, z = int(rng.integers(0, 6)), int(rng.integers(0, 3))
        edges = [tuple(int(x) for x in rng.integers(-1, n + 1, size=2))
                 for _ in range(int(rng.integers(0, 8)))]
        profiles = rng.choice([-1.0, 0.0, 0.5, 1.0, 0.3],
                              size=(n, z), p=[0.4, 0.2, 0.2, 0.15, 0.05])
        rows = [list(row) for row in profiles]
        if rows and rng.random() < 0.1:
            rows[int(rng.integers(0, n))].append(1.0)
        if rng.random() < 0.1:
            rows = rows[:-1]
        pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
        for edge_arg, profile_arg in ((edges, rows), (iter(edges), profiles),
                                      (pairs, rows)):
            new = outcome(lambda: sc.build_graph(n, z, edge_arg, profile_arg))
            old = outcome(lambda: ref.build_graph(n, z, edges, profile_arg))
            assert new == old, (n, z, edges, rows)


@pytest.mark.parametrize("n,m,z", [(24, 60, 2), (300, 900, 3), (7, 0, 1)])
def test_written_files_load_as_reference(tmp_path, monkeypatch, n, m, z):
    """Every file the writers write, and the untidy and non-ASCII benchmark
    copies, loads as the reference loads it."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                     / "benchmarks"))
    from loaders import untidy

    paths = make_bundle(tmp_path / "generated", n, m, z, seed=n)
    g, symbols = io_formats.load_graph(paths["edges"], paths["profiles"])
    seeds = io_formats.load_seeds(paths["seeds"], symbols)
    rewritten = {kind: tmp_path / f"rewritten-{path.name}"
                 for kind, path in paths.items()}
    io_formats.write_graph(g, symbols, rewritten["edges"], rewritten["profiles"])
    io_formats.write_seeds(rewritten["seeds"], seeds, symbols)
    io_formats.write_ground_truth(
        rewritten["truth"],
        io_formats.load_ground_truth(paths["truth"], symbols), symbols)
    no_seeds = dict(paths, seeds=tmp_path / "no-seeds.csv")
    io_formats.write_seeds(no_seeds["seeds"], {}, symbols)
    generated = io_formats.DatasetBundle(paths["edges"], paths["profiles"],
                                         paths["seeds"])
    copies = []
    for prefix in ("user_", "usér_"):
        copy = untidy(generated, tmp_path / prefix, prefix)
        copies.append({"edges": copy.edges_path, "profiles": copy.profiles_path,
                       "seeds": copy.seeds_path, "truth": paths["truth"]})
    for bundle in [paths, rewritten, no_seeds] + copies:
        ids = bundle_ids(bundle)
        for loader in LOADERS:
            if bundle in copies and loader == "load_ground_truth":
                continue  # its truth names the generated ids
            assert assert_same(loader, bundle, *ids)[0] == "ok", (loader, bundle)


def boundary_edits():
    """(name, edit of one line list) for the characters at which a reader of
    code points can part from ``str.splitlines`` and ``str.strip``."""
    def insert(text):
        def edit(lines, rng):
            i = int(rng.integers(0, len(lines)))
            k = int(rng.integers(0, len(lines[i]) + 1))
            lines[i] = lines[i][:k] + text + lines[i][k:]
        return edit

    def append(text):
        def edit(lines, rng):
            i = int(rng.integers(0, len(lines)))
            lines[i] += text
        return edit

    def new_line(text):
        def edit(lines, rng):
            lines.insert(int(rng.integers(0, len(lines) + 1)), text)
        return edit

    def pad(run):
        def edit(lines, rng):
            i = int(rng.integers(0, len(lines)))
            spots = [0, len(lines[i])] + [k + side for k, c in enumerate(lines[i])
                                          if c in "\t," for side in (0, 1)]
            k = int(rng.choice(spots))
            lines[i] = lines[i][:k] + run + lines[i][k:]
        return edit

    # line breaks, and whitespace that breaks no line
    chars = ["\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f",
             "\x85", "\xa0", "\u1680", "\u2028", "\u2029", "\u3000"]
    # whitespace that neither breaks a line nor separates fields
    run = (" \x1f\xa0\u1680\u2000\u202f\u205f\u3000" * 1250)[:10_000]
    return ([(repr(c), insert(c)) for c in chars]
            + [("space at the end", append(" ")), ("tab at the end", append("\t")),
               ("blank line", new_line("")), ("# mid-line", insert("#")),
               ("# line", new_line("#")),
               ("10,000-character whitespace run", pad(run))])


@pytest.mark.parametrize("name,edit", boundary_edits(),
                         ids=[name for name, _ in boundary_edits()])
def test_boundary_mutations_match_reference(tmp_path, name, edit):
    paths = make_bundle(tmp_path / "clean")
    ids = bundle_ids(paths)
    rng = np.random.default_rng(len(name))
    for case in range(12):
        kind = ("edges", "profiles", "seeds", "truth")[case % 4]
        mutated = dict(paths)
        mutated[kind] = tmp_path / f"{case}-{paths[kind].name}"
        lines = paths[kind].read_text(encoding="utf-8").splitlines()
        edit(lines, rng)
        mutated[kind].write_text("\n".join(lines) + "\n", encoding="utf-8")
        for loader in LOADERS:
            assert_same(loader, mutated, *ids)
