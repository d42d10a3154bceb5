"""Tiny-size runs of every workload, and the output contract of run.py."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from run import Loop

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "hunt-gfp": dict(trials=2),
    "hunt-gfq": dict(trials=1),
    "locus-gfp": dict(primes=(97, 101, 103)),
    "classify-qq": {},
    "certify-lattice": dict(sampled_trials=200),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_one_task_of_each_workload_passes_its_oracles(name, tmp_path):
    workload = workloads.WORKLOADS[name](3, workloads.Inputs(tmp_path), **TINY[name])
    loop = Loop(workload).run(0)
    assert loop.failed == []
    assert loop.units > 0 and loop.job_seconds


def test_inputs_depend_only_on_the_seed(tmp_path):
    digests = []
    for seed, sub in ((4, "a"), (4, "b"), (5, "c")):
        (tmp_path / sub).mkdir()
        workload = workloads.Locus(seed, workloads.Inputs(tmp_path / sub))
        task = workload.task(0)
        workload.inputs.note(next(task))
        digests.append(workload.inputs.digest.hexdigest())
    assert digests[0] == digests[1] != digests[2]


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_has_every_declared_metric(trace, section):
    done = run_bench(ROOT, "--workload", "certify-lattice", "--seed", "2", "--seconds", "0",
                     "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 7  # one task of seven jobs
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "hunt-gfp", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
