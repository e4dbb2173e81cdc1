"""The suite's pytest configuration in pyproject.toml."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

A_FAILING_PROPERTY_THEN_A_PASSING_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_a_later_test():
    pass
"""


def test_a_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    # hypothesis's failure report touches a deprecated mypy_extensions name;
    # under filterwarnings = ["error"] alone that aborted the whole run
    module = tmp_path / "test_pair.py"
    module.write_text(A_FAILING_PROPERTY_THEN_A_PASSING_TEST, encoding="ascii")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(module)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
