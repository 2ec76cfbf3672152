"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest bench/test_bench.py -q

Takes about a minute: the run tests start real benchmark passes.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import workloads  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


def test_seed_zero_corpus_is_the_tier1_corpus():
    spec = importlib.util.spec_from_file_location("tier1_conftest", ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    want = [
        tuple([list(r) for r in m.to_rows()] for m in (G.R, G.P, G.S, G.Q))
        for G in conftest.iter_seeded_corpus(50)
    ]
    assert workloads.seeded_corpus(0) == want


def test_other_seeds_resign_the_same_manifolds():
    base, other = workloads.seeded_corpus(0), workloads.seeded_corpus(7)
    assert other != base
    for a, b in zip(base, other):
        assert oracles.violated_relations(*b) == []
        assert oracles.homology_of(b[1]) == oracles.homology_of(a[1])


def test_oracles_on_known_cases():
    assert oracles.homology_of([[2, 0], [0, 4]]) == (0, (2, 4))
    assert oracles.homology_of([[0]]) == (1, ())
    assert oracles.homology_of([[6, 4], [2, 0]]) == (0, (2, 4))
    lens_12_5 = ([[-5]], [[12]], [[-2]], [[5]])
    assert oracles.violated_relations(*lens_12_5) == []
    assert oracles.violated_relations([[-5]], [[12]], [[-2]], [[6]]) == ["P†S − Q†R", "SP† − QR†"]
    assert sum(oracles.lens_cs_histogram(12, 5, 3).values()) == 12


@pytest.mark.parametrize("workload", ["lens-sweep", "torsion-corpus", "cli-partition"])
def test_traced_and_untraced_passes_give_the_same_outputs(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stdout[-2000:]
    record = json.loads((BENCH / "out" / f"{workload}-seed3-trace1.json").read_text())
    assert {p["traced"] for p in record["passes"]} == {False, True}
    assert len(record["output_digest"]) == 1
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["metrics"]["trace.overhead_frac"]["unit"] == "ratio"


def test_corrupted_expectation_fails_the_run():
    proc = run_bench("--workload", "lens-sweep", "--seed", "0", "--seconds", "0", "--corrupt-oracle")
    assert proc.returncode != 0
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is False
    assert last["failed"] / last["attempted"] > 0
    assert any(line.split()[:1] == ["fail_frac"] and float(line.split()[1]) > 0
               for line in proc.stdout.splitlines())


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "lens-sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
