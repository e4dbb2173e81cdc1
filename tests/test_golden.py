"""Sweep outputs pinned byte for byte.

Each case in golden/sweep_cases.json is a sweep invocation whose output
file and stdout were recorded once; a rerun must reproduce both exactly.
A change that alters the bytes on purpose re-records them with

    PYTHONPATH=src python tests/test_golden.py

and says why in its description.
"""

import json
import sys
from pathlib import Path

import pytest

from tagsplit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "sweep_cases.json").read_text(encoding="ascii"))


def run_case(name: str, out: Path) -> int:
    args = [
        arg.replace("{out}", str(out)).replace("{params}", str(GOLDEN / "params.json"))
        for arg in CASES[name]["args"]
    ]
    return main(args)


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_output_matches_the_recorded_bytes(name, tmp_path, capsys):
    out = tmp_path / CASES[name]["out"]
    assert run_case(name, out) == 0
    stdout = (GOLDEN / f"{name}.stdout").read_text(encoding="ascii")
    assert capsys.readouterr().out == stdout.replace("{out}", str(out))
    assert out.read_bytes() == (GOLDEN / CASES[name]["out"]).read_bytes()


def record() -> None:
    """Rewrite every case's expected output file and stdout."""
    import contextlib
    import io

    for name in sorted(CASES):
        out = GOLDEN / CASES[name]["out"]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = run_case(name, out)
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        (GOLDEN / f"{name}.stdout").write_text(
            stdout.getvalue().replace(str(out), "{out}"), encoding="ascii"
        )


if __name__ == "__main__":
    record()
    sys.exit(0)
