"""The paired benchmark driver, ``benchmarks/pairs.py``, and the scripts on it."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
SRC = BENCHMARKS.parent / "src"
SCRIPTS = ["nadj_churn.py", "trace_load.py", "ic_cascades.py", "loaders.py",
           "batch.py", "pipeline.py"]
_spec = importlib.util.spec_from_file_location("pairs", BENCHMARKS / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def synthetic_runs(change_digests):
    """Three pairs of one config "c": the change wins the first, ties the
    second and loses the third."""
    parent = [0.010, 0.020, 0.030]
    change = [0.005, 0.020, 0.040]
    return {"parent": [{"c": [t, "d1"]} for t in parent],
            "change": [{"c": [t, d]} for t, d in zip(change, change_digests)]}


@pytest.mark.parametrize("digests, verdict", [
    (["d1", "d1", "d1"], "counts identical"),
    (["d1", "d2", "d1"], "counts DIFFER"),
    (["d2", "d2", "d2"], "counts DIFFER"),
])
def test_report_gives_medians_won_pairs_and_verdict(capsys, digests, verdict):
    pairs.report(synthetic_runs(digests), "counts")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "config  parent median (IQR)  change median (IQR)  change won"
    # the tie counts for neither side
    assert lines[1] == "c  20.0 ms (10.0)  20.0 ms (17.5)  1/3"
    assert lines[2] == "    parent sha256 d1"
    assert lines[3] == f"    change sha256 {' '.join(sorted(set(digests)))}"
    assert lines[4:] == [f"    {verdict}"]


def test_report_calls_digests_that_vary_within_a_side_different(capsys):
    runs = synthetic_runs(["d1", "d3", "d1"])
    runs["parent"][1]["c"][1] = "d3"
    pairs.report(runs, "traces")
    assert capsys.readouterr().out.splitlines()[-1] == "    traces DIFFER"


@pytest.mark.parametrize("argv, message", [
    ([str(SRC), str(SRC), "--pairs", "1"], "--pairs must be at least 2"),
    ([str(SRC), str(BENCHMARKS), "--pairs", "2"],
     f"{BENCHMARKS} holds no stancecast/__init__.py"),
    ([str(BENCHMARKS / "missing"), str(SRC)], "missing holds no stancecast"),
])
def test_refusals_exit_2_before_any_worker(monkeypatch, capsys, argv, message):
    def no_worker(*args):
        pytest.fail("a worker started")

    monkeypatch.setattr(sys, "argv", ["script.py", *argv])
    monkeypatch.setattr(pairs, "run_side", no_worker)
    with pytest.raises(SystemExit) as exc:
        pairs.main("Doc.", no_worker, ("--seed", 7, None), "counts")
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("parts, digest", [
    # an array by dtype and bytes, then JSON values: the loaders' digest
    ((np.array([[1.0, -1.0], [0.5, 0.0]]),),
     "828ca38ab8404ab24873f37e8289ea35aa556d3bcbb59c85b37fae14db183d35"),
    ((np.arange(3, dtype=np.int32), ("n0", "n1"), [[0, [[1, 0.5]]]]),
     "a624a08c372640506bd75c7cb3d256ed796413953970f5493ba6a585b50387ef"),
    # bytes as they are, joined: the batch's digest of its trace files
    ((b"trace 0\n", b"trace 1\n"),
     "0e7716e3142a51fb652878761eea09350acd74124ecc7cd9cfbeab6afdc75612"),
    # one JSON value: the IC cascades' digest of the final counts
    (([12, 7, 9],),
     "566b56aeaf38e8ecb49278b80d99d44f520fc96b82541c1ee3a53a71fd980654"),
])
def test_sha256_keeps_the_scripts_digests(parts, digest):
    assert pairs.sha256(*parts) == digest


@pytest.mark.parametrize("script", SCRIPTS)
def test_scripts_refuse_a_src_without_the_package(script):
    done = subprocess.run(
        [sys.executable, str(BENCHMARKS / script), "src", "benchmarks",
         "--pairs", "2"],
        cwd=BENCHMARKS.parent, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "benchmarks holds no stancecast/__init__.py" in done.stderr


def test_a_failing_worker_shows_its_error(tmp_path):
    package = tmp_path / "src" / "stancecast"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        'raise RuntimeError("this stancecast does not import")\n')
    done = subprocess.run(
        [sys.executable, str(BENCHMARKS / "trace_load.py"),
         str(package.parent), str(package.parent), "--pairs", "2"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "RuntimeError: this stancecast does not import" in done.stderr
    assert f"the worker on {package.parent} exited with status 1" in done.stderr
