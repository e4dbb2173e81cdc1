"""The benchmark's workloads, shrunk, against the CLI in-process.

perfbench/workloads.py holds each workload's CLI arguments and output
oracle: read_sweep_csv, SWEEP_COLUMNS and the simulate report.  Running
them here makes a change that breaks that contract fail the test suite,
not only the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from tagsplit.cli import main

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_SPEC)
# its dataclasses look their module up while the module is executed
sys.modules[_SPEC.name] = workloads
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_small_workload_passes_its_oracle(name, tmp_path, capsys):
    workload = workloads.BUILDERS[name](tmp_path, seed=0, small=True)
    assert main(workload.args) == 0
    problems, _ = workload.check(capsys.readouterr().out.encode("ascii"))
    assert problems == []
