"""The package's public names are the layer modules' public names, and
numpy runs only when the simulator or a trace function needs it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tagsplit
from tagsplit import costs, model, optimum, sim, traces

LAYERS = (model, optimum, sim, traces, costs)


def test_every_public_name_resolves_to_its_layers_object():
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(tagsplit, name) is getattr(layer, name)


def test_public_names_are_the_union_of_the_layers():
    layer_names = [name for layer in LAYERS for name in layer.__all__]
    assert len(set(layer_names)) == len(layer_names)
    assert sorted(tagsplit.__all__) == sorted(layer_names)


def run_child(code: str, cwd) -> list[str]:
    """The lines code prints in a new interpreter, run in cwd, that imports
    the same tagsplit as this process."""
    path = [str(Path(tagsplit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


# numpy's own package stays in sys.modules as a placeholder until its first
# attribute access runs it; numpy._core is imported only by that run
NUMPY_RAN = 'print("numpy._core" in sys.modules)'

SWEEP = '["sweep", "--sizes", "256K,1M", "--assocs", "4,8", "--addr-bits", "32,40", "--params", "params.json"]'


class TestNumpyOnFirstUse:
    def test_importing_the_package_does_not_run_numpy(self, tmp_path):
        code = f"import sys\nimport tagsplit\n{NUMPY_RAN}\nfrom tagsplit import *\n{NUMPY_RAN}"
        assert run_child(code, tmp_path) == ["False", "False"]

    def test_analytic_commands_never_run_numpy(self, tmp_path):
        (tmp_path / "params.json").write_text(json.dumps({
            "energy_per_bit_read": 2e-12, "fixed_energy_per_access": 0.0, "leakage_power": 0.0,
            "execution_time": 1.0, "p_read_disturb": 1e-12}))
        code = f"""import sys
from tagsplit.cli import main, read_sweep_csv
assert main(["analyze", "--size", "1M", "--assoc", "8"]) == 0
assert main(["curves", "--size", "1M", "--assocs", "4,8", "--out", "curves.csv"]) == 0
assert main([*{SWEEP}, "--out", "sweep.csv"]) == 0
assert main([*{SWEEP}, "--format", "json-lines", "--out", "sweep.jsonl"]) == 0
print(len(read_sweep_csv("sweep.csv")))
{NUMPY_RAN}"""
        # the reports go to stdout before the row count
        assert run_child(code, tmp_path)[-2:] == ["80", "False"]

    @pytest.mark.parametrize("argv", [
        ["simulate", "--size", "64K", "--assoc", "4", "--gen", "uniform", "--length", "1000"],
        ["gen-trace", "--kind", "zipf-block", "--length", "1000", "--out", "zipf.bin"],
    ], ids=["simulate-gen", "gen-trace"])
    def test_simulating_commands_run_numpy(self, tmp_path, argv):
        code = f"import sys\nfrom tagsplit.cli import main\n{NUMPY_RAN}\nassert main({argv!r}) == 0\n{NUMPY_RAN}"
        lines = run_child(code, tmp_path)  # the command's report comes between
        assert (lines[0], lines[-1]) == ("False", "True")

    def test_a_numpy_already_imported_is_used_as_it_is(self, tmp_path):
        code = "import numpy\nimport tagsplit\nprint(tagsplit.traces.np is numpy is tagsplit.sim.np)"
        assert run_child(code, tmp_path) == ["True"]

    @pytest.mark.parametrize("hide", [
        'sys.modules["numpy"] = None',
        'sys.path[:] = [p for p in sys.path if not os.path.isdir(os.path.join(p, "numpy"))]',
    ], ids=["hidden", "not-installed"])
    def test_a_missing_numpy_fails_the_package_import(self, tmp_path, hide):
        code = f"""import os, sys
{hide}
try:
    import tagsplit
except ModuleNotFoundError as exc:
    print(exc.name, "numpy" in str(exc))"""
        assert run_child(code, tmp_path) == ["numpy", "True"]
