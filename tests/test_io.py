import json

import numpy as np
import pytest

import stancecast as sc
from stancecast import io_formats
from stancecast.errors import (
    BadStanceValueError,
    EmptySeedsWarning,
    InconsistentIdsError,
    InfeasibleEdgeCountError,
    MissingKeyError,
    ParseError,
    RangeViolationError,
    SchemaVersionMismatchError,
    StancecastError,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestGraphFiles:
    def test_two_line_edge_file(self, tmp_path):
        edges = write(tmp_path / "edges.tsv", "a\tb\nb\tc\n")
        profiles = write(tmp_path / "profiles.csv",
                         "node_id,topic_id,stance\na,t0,1\n")
        g, symbols = io_formats.load_graph(edges, profiles)
        assert g.n == 3 and g.m == 2 and g.z == 1
        assert symbols.node_ids == ("a", "b", "c")
        assert g.has_edge(0, 1) and g.has_edge(1, 2)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        edges = write(tmp_path / "e.tsv", "# header\n\na\tb\n")
        g, _ = io_formats.load_graph(edges, None)
        assert g.m == 1

    def test_malformed_edge_line_reports_location(self, tmp_path):
        edges = write(tmp_path / "e.tsv", "a\tb\nbad line no tab\n")
        with pytest.raises(ParseError) as err:
            io_formats.load_graph(edges, None)
        assert err.value.line == 2

    def test_bad_stance_rejected(self, tmp_path):
        edges = write(tmp_path / "e.tsv", "a\tb\n")
        profiles = write(tmp_path / "p.csv",
                         "node_id,topic_id,stance\na,t0,0.3\n")
        with pytest.raises(BadStanceValueError):
            io_formats.load_graph(edges, profiles)

    def test_duplicate_profile_row_rejected(self, tmp_path):
        edges = write(tmp_path / "e.tsv", "a\tb\n")
        profiles = write(tmp_path / "p.csv",
                         "node_id,topic_id,stance\na,t0,1\na,t0,0\n")
        with pytest.raises(InconsistentIdsError):
            io_formats.load_graph(edges, profiles)

    def test_missing_header_rejected(self, tmp_path):
        edges = write(tmp_path / "e.tsv", "a\tb\n")
        profiles = write(tmp_path / "p.csv", "a,t0,1\n")
        with pytest.raises(ParseError):
            io_formats.load_graph(edges, profiles)

    def test_graph_round_trip_identity(self, tmp_path):
        bundle = io_formats.generate_synthetic(
            1061, 4122, 1, [0.8, 0.1, 0.05, 0.05], seed=5,
            out_dir=tmp_path / "d2",
        )
        g1, s1 = io_formats.load_graph(bundle.edges_path, bundle.profiles_path)
        assert (g1.n, g1.m, g1.z) == (1061, 4122, 1)
        io_formats.write_graph(g1, s1, tmp_path / "e2.tsv", tmp_path / "p2.csv")
        g2, s2 = io_formats.load_graph(tmp_path / "e2.tsv", tmp_path / "p2.csv")
        assert s1 == s2
        assert np.array_equal(g1.indptr, g2.indptr)
        assert np.array_equal(g1.indices, g2.indices)
        assert np.array_equal(g1.profiles, g2.profiles)


class TestConfig:
    def base(self):
        return sc.SimParams().to_dict()

    def test_round_trip(self, tmp_path):
        params = sc.SimParams(rng_seed=99)
        io_formats.write_config(tmp_path / "c.json", params)
        assert io_formats.load_config(tmp_path / "c.json") == params

    @pytest.mark.parametrize("key,value,fragment", [
        ("delta_adjacent", 0.4, "(0.5, 1]"),
        ("delta_adjacent", 0.5, "(0.5, 1]"),   # open lower bound
        ("delta_nonadjacent", 0.5, "[0, 0.5)"),
        ("lambda", 0.3, "[0.5, 1]"),
        ("mu", 0.7, "[0, 0.5)"),
        ("r1", 1.5, "[0, 1]"),
        ("mix_r", 0.2, "[0.5, 1]"),
        ("rounds_K", 0, "positive"),
        ("adjacency_memory", "sometimes", "persistent"),
        ("epsilon_tie", "maybe", "zero"),
    ])
    def test_range_violations(self, tmp_path, key, value, fragment):
        data = self.base()
        data[key] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        with pytest.raises(RangeViolationError) as err:
            io_formats.load_config(path)
        assert fragment in str(err.value)

    def test_mix_must_sum_to_one(self, tmp_path):
        data = self.base()
        data["mix_r"], data["mix_a"] = 0.7, 0.2
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        with pytest.raises(RangeViolationError):
            io_formats.load_config(path)
        data["mix_r"], data["mix_a"] = 0.7, 0.3
        path.write_text(json.dumps(data))
        assert io_formats.load_config(path).mix_r == 0.7

    def test_missing_key_named(self, tmp_path):
        data = self.base()
        del data["delta_adjacent"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        with pytest.raises(MissingKeyError) as err:
            io_formats.load_config(path)
        assert "delta_adjacent" in str(err.value)

    def test_unknown_key_rejected(self, tmp_path):
        data = self.base()
        data["typo_key"] = 1
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        with pytest.raises(RangeViolationError):
            io_formats.load_config(path)

    def test_plumbing_keys_default(self, tmp_path):
        data = self.base()
        for key in ("initial_persistence_A0", "adjacency_memory", "epsilon_tie"):
            del data[key]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        params = io_formats.load_config(path)
        assert params.initial_persistence_A0 == 0.5
        assert params.adjacency_memory == "persistent"
        assert params.epsilon_tie == "zero"

    def test_key_order(self):
        # every config file and trace header holds the keys in this order
        assert list(sc.SimParams().to_dict()) == [
            "delta_adjacent", "delta_nonadjacent", "lambda", "mu", "r1", "r2",
            "mix_r", "mix_a", "rounds_K", "initial_persistence_A0", "rng_seed",
            "adjacency_memory", "epsilon_tie"]

    def test_first_fault_is_raised(self):
        """Unknown keys, then missing keys, then integers, then numbers:
        mending each fault in turn raises the next one."""
        data = self.base()
        del data["mu"]
        data.update(typo_key=1, rounds_K=2.0, rng_seed="7", r1="x",
                    delta_adjacent=True)
        data["lambda"] = None
        errors = [
            (RangeViolationError, ("typo_key", 1, "not a config key"),
             "typo_key", None),
            (MissingKeyError, ("mu",), "mu", 0.2),
            (RangeViolationError, ("rounds_K", 2.0, "integer"), "rounds_K", 2),
            (RangeViolationError, ("rng_seed", "7", "integer"), "rng_seed", 7),
            (RangeViolationError, ("delta_adjacent", True, "number"),
             "delta_adjacent", 0.8),
            (RangeViolationError, ("lambda", None, "number"), "lambda", 0.7),
            (RangeViolationError, ("r1", "x", "number"), "r1", 1),
        ]
        for error, args, key, mended in errors:
            with pytest.raises(StancecastError) as err:
                sc.SimParams.from_dict(data)
            assert (type(err.value), err.value.args) == (error, args)
            if mended is None:
                del data[key]
            else:
                data[key] = mended
        params = sc.SimParams.from_dict(data)
        assert params == sc.SimParams(rounds_K=2, rng_seed=7, r1=1.0)
        assert type(params.r1) is float


class TestSeedsAndTruth:
    def test_seeds_round_trip(self, tmp_path):
        symbols = io_formats.SymbolTable(("a", "b"), ("t0", "t1"))
        seeds = {0: {0: 1.0, 1: 0.0}, 1: {1: 0.5}}
        io_formats.write_seeds(tmp_path / "s.csv", seeds, symbols)
        assert io_formats.load_seeds(tmp_path / "s.csv", symbols) == seeds

    def test_unknown_seed_stance_rejected(self, tmp_path):
        symbols = io_formats.SymbolTable(("a",), ("t0",))
        path = write(tmp_path / "s.csv", "node_id,topic_id,stance\na,t0,-1\n")
        with pytest.raises(BadStanceValueError):
            io_formats.load_seeds(path, symbols)

    def test_empty_seeds_warn(self, tmp_path):
        symbols = io_formats.SymbolTable(("a",), ("t0",))
        path = write(tmp_path / "s.csv", "node_id,topic_id,stance\n")
        with pytest.warns(EmptySeedsWarning):
            assert io_formats.load_seeds(path, symbols) == {}

    def test_unknown_ids_rejected(self, tmp_path):
        symbols = io_formats.SymbolTable(("a",), ("t0",))
        path = write(tmp_path / "s.csv", "node_id,topic_id,stance\nzz,t0,1\n")
        with pytest.raises(InconsistentIdsError):
            io_formats.load_seeds(path, symbols)

    def test_truth_round_trip(self, tmp_path):
        symbols = io_formats.SymbolTable(("a", "b"), ("t0",))
        truth = {(0, 0): 1.0, (1, 0): -1.0}
        io_formats.write_ground_truth(tmp_path / "t.csv", truth, symbols)
        assert io_formats.load_ground_truth(tmp_path / "t.csv", symbols) == truth


class TestTraceFiles:
    def make_trace(self, seed=0, rounds=3):
        g = sc.build_graph(5, 2, [(0, 1), (1, 2), (2, 3), (3, 4)],
                           [[1.0, 0.0]] + [[-1.0, -1.0]] * 4)
        params = sc.SimParams(rounds_K=rounds, rng_seed=seed, r1=1.0, r2=0.5)
        return sc.run_simulation(g, params)[0]

    def test_empty_trace_round_trip(self, tmp_path):
        g = sc.build_graph(2, 1, [], [[1.0], [1.0]])
        trace, _ = sc.run_simulation(g, sc.SimParams(rounds_K=1, r1=0.0, r2=0.0))
        io_formats.write_trace(trace, tmp_path / "t.jsonl")
        assert io_formats.load_trace(tmp_path / "t.jsonl") == trace

    def test_round_trip_field_for_field(self, tmp_path):
        trace = self.make_trace()
        assert len(trace.events) > 0
        io_formats.write_trace(trace, tmp_path / "t.jsonl")
        loaded = io_formats.load_trace(tmp_path / "t.jsonl")
        assert loaded == trace
        # and byte-stability of a rewrite
        io_formats.write_trace(loaded, tmp_path / "t2.jsonl")
        assert (tmp_path / "t.jsonl").read_bytes() == \
            (tmp_path / "t2.jsonl").read_bytes()

    def test_thousand_event_round_trip(self, tmp_path):
        g = sc.build_graph(
            40, 2, [(u, (u + 1) % 40) for u in range(40)],
            [[1.0, 0.0]] + [[-1.0, -1.0]] * 39,
        )
        params = sc.SimParams(rounds_K=12, rng_seed=4, r1=1.0, r2=0.8,
                              adjacency_memory="per_round")
        trace, _ = sc.run_simulation(g, params)
        assert len(trace.events) >= 1000
        io_formats.write_trace(trace, tmp_path / "big.jsonl")
        assert io_formats.load_trace(tmp_path / "big.jsonl") == trace

    def test_different_seeds_different_files(self, tmp_path):
        io_formats.write_trace(self.make_trace(seed=1), tmp_path / "a.jsonl")
        io_formats.write_trace(self.make_trace(seed=2), tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() != \
            (tmp_path / "b.jsonl").read_bytes()

    def test_schema_mismatch_rejected(self, tmp_path):
        trace = self.make_trace()
        io_formats.write_trace(trace, tmp_path / "t.jsonl")
        lines = (tmp_path / "t.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        header["schema"] = "tsa-trace/999"
        lines[0] = json.dumps(header)
        (tmp_path / "bad.jsonl").write_text("\n".join(lines))
        with pytest.raises(SchemaVersionMismatchError):
            io_formats.load_trace(tmp_path / "bad.jsonl")

    def test_event_lines_carry_spec_keys(self, tmp_path):
        trace = self.make_trace()
        io_formats.write_trace(trace, tmp_path / "t.jsonl")
        lines = (tmp_path / "t.jsonl").read_text().splitlines()
        event = json.loads(lines[1])
        assert set(event) == {"round", "topic", "node", "old", "new",
                              "source", "p", "channel"}
        header = json.loads(lines[0])
        assert header["schema"] == "tsa-trace/1"
        assert set(header["params"]) == set(sc.SimParams().to_dict())

    @pytest.mark.parametrize("key,value,fragment", [
        ("node", 5, "node 5 outside"),
        ("node", -1, "node -1 outside"),
        ("node", 1.5, "node 1.5 outside the integers"),
        ("source", 7, "source 7 outside"),
        ("topic", 2, "topic 2 outside"),
        ("round", 0, "round 0 outside"),
        ("round", 4, "round 4 outside"),
        ("old", 0.25, "old 0.25 not in"),
        ("new", "1", "new '1' not in"),
        ("p", 1.5, "p 1.5 outside"),
        ("channel", "sideways", "unknown event channel 'sideways'"),
    ])
    def test_out_of_range_event_rejected_at_its_line(self, tmp_path, key,
                                                     value, fragment):
        io_formats.write_trace(self.make_trace(rounds=3), tmp_path / "t.jsonl")
        lines = (tmp_path / "t.jsonl").read_text().splitlines()
        assert len(lines) >= 3
        event = json.loads(lines[2])
        event[key] = value
        # a blank line before the bad event still counts in its line number
        lines[2:3] = ["", json.dumps(event)]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            io_formats.load_trace(bad)
        assert f"{bad}:4:" in str(err.value)
        assert fragment in str(err.value)


class TestGenerator:
    def test_shape_and_distinct_edges(self, tmp_path):
        bundle = io_formats.generate_synthetic(
            10, 20, 1, [0.5, 0.2, 0.2, 0.1], seed=3, out_dir=tmp_path
        )
        g, _ = io_formats.load_graph(bundle.edges_path, bundle.profiles_path)
        assert g.n == 10 and g.m == 20

    def test_all_unknown_mix_gives_zero_seeds(self, tmp_path):
        bundle = io_formats.generate_synthetic(
            5, 4, 1, [1.0, 0.0, 0.0, 0.0], seed=3, out_dir=tmp_path
        )
        _, symbols = io_formats.load_graph(bundle.edges_path,
                                           bundle.profiles_path)
        with pytest.warns(EmptySeedsWarning):
            seeds = io_formats.load_seeds(bundle.seeds_path, symbols)
        assert seeds == {}

    def test_fixed_seed_byte_identical(self, tmp_path):
        kwargs = dict(n=12, m=30, z=2, stance_mix=[0.6, 0.2, 0.1, 0.1], seed=8)
        a = io_formats.generate_synthetic(**kwargs, out_dir=tmp_path / "a")
        b = io_formats.generate_synthetic(**kwargs, out_dir=tmp_path / "b")
        for left, right in ((a.edges_path, b.edges_path),
                            (a.profiles_path, b.profiles_path),
                            (a.seeds_path, b.seeds_path)):
            assert left.read_bytes() == right.read_bytes()

    def test_infeasible_edge_count(self, tmp_path):
        with pytest.raises(InfeasibleEdgeCountError):
            io_formats.generate_synthetic(3, 7, 1, [1, 0, 0, 0], 0, tmp_path)

    def test_per_topic_mix(self, tmp_path):
        bundle = io_formats.generate_synthetic(
            40, 10, 2, [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
            seed=1, out_dir=tmp_path,
        )
        g, _ = io_formats.load_graph(bundle.edges_path, bundle.profiles_path)
        assert (g.profiles[:, 0] == -1.0).all()
        assert (g.profiles[:, 1] == 0.0).all()


class TestLoaderLocations:
    SYMBOLS = io_formats.SymbolTable(("a", "b"), ("t0",))

    @pytest.mark.parametrize("loader,header", [
        ("load_seeds", "node_id,topic_id,stance"),
        ("load_seed_nodes", "node_id,topic_id,stance"),
        ("load_ground_truth", "node_id,topic_id,final_stance"),
    ])
    @pytest.mark.parametrize("row,problem", [
        ("zz,t0,1", "unknown node id 'zz'"),
        ("b,tx,1", "unknown topic id 'tx'"),
    ])
    def test_unknown_id_names_its_line(self, tmp_path, loader, header, row,
                                       problem):
        path = write(tmp_path / "f.csv", f"{header}\na,t0,1\n\n{row}\n")
        if loader == "load_seed_nodes" and "topic" in problem:
            assert io_formats.load_seed_nodes(path, self.SYMBOLS) == [0, 1]
            return
        with pytest.raises(InconsistentIdsError) as err:
            getattr(io_formats, loader)(path, self.SYMBOLS)
        assert str(err.value) == f"{path}:4: {problem}"

    def test_first_bad_row_wins(self, tmp_path):
        # an unknown id on line 3 is reported before a malformed line 4
        path = write(tmp_path / "s.csv",
                     "node_id,topic_id,stance\na,t0,1\nzz,t0,1\nb,t0\n")
        with pytest.raises(InconsistentIdsError, match=":3: unknown node"):
            io_formats.load_seeds(path, self.SYMBOLS)
        path.write_text("node_id,topic_id,stance\na,t0,1\nb,t0\nzz,t0,1\n")
        with pytest.raises(ParseError, match=":3:1: expected 3"):
            io_formats.load_seeds(path, self.SYMBOLS)
