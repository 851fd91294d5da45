"""Every bundle that ``generate`` writes works with every subcommand.

Small bundles cover the edges of the generator's range: no nodes, one
node, no edges, one edge and the complete digraph, one or two topics, and
stance mixes with only unknown stances, with none, and mixed.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from stancecast.cli import main

MIXES = ["[1, 0, 0, 0]", "[0, 0.3, 0.3, 0.4]", "[0.5, 0.2, 0.1, 0.2]"]


@st.composite
def bundle_args(draw):
    n = draw(st.sampled_from([0, 1, 2, 3, 5]))
    m = draw(st.sampled_from(sorted({0, min(1, n * (n - 1)), n * (n - 1)})))
    return {"--nodes": str(n), "--edges": str(m),
            "--topics": str(draw(st.sampled_from([1, 2]))),
            "--stance-mix": draw(st.sampled_from(MIXES)),
            "--seed": str(draw(st.integers(0, 3)))}


def run(*argv):
    """(exit code, stderr) of one command line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        rc = main([str(a) for a in argv])
    return rc, err.getvalue()


def flags(args: dict) -> list:
    return [x for pair in args.items() for x in pair]


@settings(max_examples=25, derandomize=True, deadline=None)
@given(bundle_args())
def test_generated_bundle_runs_through_every_command(args):
    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp) / "data", Path(tmp) / "out"
        out.mkdir()
        rc, err = run("generate", *flags({**args, "--topics": "0"}),
                      "--out-dir", data)
        assert (rc, err) == (1, "error: --topics must be at least 1, got 0\n")
        assert run("generate", *flags(args), "--out-dir", data)[0] == 0
        # README step 4: the initial profiles stand in for the ground truth
        profiles = (data / "profiles.csv").read_text()
        (data / "truth.csv").write_text(
            profiles.replace(",stance\n", ",final_stance\n", 1))
        trace = out / "trace.run000.jsonl"
        for argv in (
            ["simulate", "--graph", data / "edges.tsv",
             "--profiles", data / "profiles.csv",
             "--seeds", data / "seeds.csv", "--config", data / "config.json",
             "--out-trace", out / "trace.jsonl", "--runs", 2, "--workers", 2],
            ["curves", "--trace", trace, "--initial", data / "profiles.csv",
             "--out-csv", out / "curves.csv"],
            ["evaluate", "--trace", trace, "--initial", data / "profiles.csv",
             "--truth", data / "truth.csv", "--out-report", out / "report.json"],
            ["baseline-ic", "--graph", data / "edges.tsv",
             "--seeds", data / "seeds.csv", "--p", 0.5, "--runs", 3,
             "--out", out / "ic.json"],
        ):
            rc, err = run(*argv)
            assert rc == 0, (argv[0], err)
            assert "Traceback" not in err, argv[0]
