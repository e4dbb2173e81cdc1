"""CLI outputs pinned byte for byte.

Each case in golden/cases.json is an invocation whose stdout, and
output file when it has an "out", were recorded once; a rerun must
reproduce both exactly.  A case that declares "exit": N is an error
path: it must exit with N, leave no file behind, and reproduce its
stderr, recorded in <case>.stderr.  In a case's arguments, stdout and
stderr, "{out}" is the output path and "{golden}" this directory, which
holds the committed inputs (parameter files, and the traces the
gen-trace cases wrote, which the simulate cases read).  A change that alters the bytes on purpose
re-records them with

    PYTHONPATH=src python tests/test_golden.py

and says why in its description.
"""

import json
import sys
from pathlib import Path

import pytest

from tagsplit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="ascii"))
SWEEPS = sorted(name for name in CASES if CASES[name]["args"][0] == "sweep")
OTHERS = sorted(name for name in CASES if CASES[name]["args"][0] != "sweep")


def run_case(name: str, out: Path) -> int:
    args = [
        arg.replace("{out}", str(out)).replace("{golden}", str(GOLDEN))
        for arg in CASES[name]["args"]
    ]
    return main(args)


def expected(name: str, stream: str, out: Path) -> str:
    text = (GOLDEN / f"{name}.{stream}").read_text(encoding="ascii")
    return text.replace("{out}", str(out)).replace("{golden}", str(GOLDEN))


def check_case(name: str, tmp_path: Path, capsys) -> None:
    out = tmp_path / CASES[name].get("out", "unused")
    assert run_case(name, out) == CASES[name].get("exit", 0)
    captured = capsys.readouterr()
    assert captured.out == expected(name, "stdout", out)
    if "exit" in CASES[name]:
        assert captured.err == expected(name, "stderr", out)
        assert list(tmp_path.iterdir()) == []
    if "out" in CASES[name]:
        assert out.read_bytes() == (GOLDEN / CASES[name]["out"]).read_bytes()


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_output_matches_the_recorded_bytes(name, tmp_path, capsys):
    check_case(name, tmp_path, capsys)


@pytest.mark.parametrize("name", OTHERS)
def test_command_output_matches_the_recorded_bytes(name, tmp_path, capsys):
    check_case(name, tmp_path, capsys)


def record() -> None:
    """Rewrite every case's expected output file, stdout and declared stderr.

    Cases run in name order, so gen-trace writes the traces before the
    simulate cases read them.
    """
    import contextlib
    import io

    for name in sorted(CASES):
        out = GOLDEN / CASES[name].get("out", "unused")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_case(name, out)
        if code != CASES[name].get("exit", 0):
            raise SystemExit(f"{name}: exit code {code}\n{stderr.getvalue()}")
        streams = {"stdout": stdout}
        if "exit" in CASES[name]:
            streams["stderr"] = stderr
        for stream, text in streams.items():
            (GOLDEN / f"{name}.{stream}").write_text(
                text.getvalue().replace(str(out), "{out}").replace(str(GOLDEN), "{golden}"),
                encoding="ascii",
            )


if __name__ == "__main__":
    record()
    sys.exit(0)
