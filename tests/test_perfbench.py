"""The benchmark's workloads against the CLI in-process.

perfbench/workloads.py holds each workload's CLI arguments and output
oracle: read_sweep_csv, SWEEP_COLUMNS and the simulate report.  Running
them here, shrunk against their oracles and full-size against the
seed-0 digests in perfbench/golden.json, makes a change that breaks
that contract or changes an output byte fail the test suite, not only
the benchmark.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from tagsplit.cli import main

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _load(stem: str, name: str):
    """perfbench/<stem>.py, imported as the module ``name``."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the module is executed
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads", "perfbench_workloads")
_load("tracer", "tracer")  # run.py imports it by this name
run = _load("run", "perfbench_run")


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_small_workload_passes_its_oracle(name, tmp_path, capsys):
    workload = workloads.BUILDERS[name](tmp_path, seed=0, small=True)
    assert main(workload.args) == 0
    problems, _ = workload.check(capsys.readouterr().out.encode("ascii"))
    assert problems == []


def test_selftest_passes():
    # runs the workloads as the benchmark does: in child processes, plain
    # and through perfbench/tracer.py, which rebinds module attributes
    root = Path(__file__).parents[1]
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=root, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_seed_0_outputs_match_the_recorded_digests(tmp_path, monkeypatch, capsys):
    # each full-size workload is built in the relative directory the harness
    # uses, so the paths the sweeps print are the harness's too
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="ascii"))
    monkeypatch.chdir(tmp_path)
    for name in sorted(workloads.BUILDERS):
        work = Path(".perfbench-work") / name
        work.mkdir(parents=True)
        workload = workloads.BUILDERS[name](work, seed=0)
        capsys.readouterr()
        assert main(workload.args) == 0, name
        stdout = work / "stdout.txt"
        stdout.write_bytes(capsys.readouterr().out.encode("ascii"))
        assert run.output_digest(stdout, workload.outputs) == golden[name], name
