"""Benchmark of the tagsplit CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each invocation of the real CLI runs
in a fresh child process (``tracer.py``), one at a time, until the
invocations add up to S seconds.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json as medians over the invocations; ``--trace 1``
alternates plain and traced invocations and reports the per-layer
metrics (medians over the traced ones, plus the tracing overhead).
A per-layer metric of a function the workload never calls reads 0.

The host's speed drifts by tens of percent within seconds, so the
end-to-end times are host-speed normalised.  In a plain invocation the
child samples the speed with ``tracer.SpeedProbe``, a fixed slice of
cache-simulation work timed ten times a second; the probe's own time is
taken out, and the rest is scaled by PROBE_SLICE_S over the slice's mean
time in that invocation.  The end-to-end times are thus seconds on a host
where a slice takes PROBE_SLICE_S.  The un-normalised time and the mean
slice time are the per-layer metrics ``host.wall_s`` and
``host.probe_slice_s``.

Every invocation's stdout and output files must be byte-identical to
the first's, whose outputs are judged by the workload's oracle
(``workloads.py``) and, at the default seed, by the digests in
``golden.json``.  An invocation that exits non-zero, fails a check or
times out counts as failed.

The last stdout line is the JSON result; the lines before it record the
context (machine, versions, workload purpose) and the raw samples.
Times are host time.  The simulator is unvalidated against hardware:
``sim.relative_error_vs_model`` compares it with the analytic model.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS, clock

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench-work")
DEFAULT_SEED = 0
RUN_LIMIT_S = 170.0
# the probe slice's typical time on the 2-core host the benchmark was tuned on
PROBE_SLICE_S = 0.009
MIB = 1024 * 1024
NOTE = ("host time; the simulator is unvalidated against hardware, and "
        "sim.relative_error_vs_model compares it with the analytic model, not a machine")


@dataclass
class Invocation:
    traced: bool
    wall_s: float
    peak_rss_mib: float
    code: int
    digest: str
    record: dict
    spans: dict | None
    problems: list[str]

    @property
    def cli_s(self) -> float:
        """Wall time less the speed probe's time."""
        return self.wall_s - self.record.get("probe_s", 0.0)

    def normalised(self, seconds: float) -> float:
        """``seconds`` of this invocation at the speed where a probe slice
        takes PROBE_SLICE_S."""
        return seconds * PROBE_SLICE_S / self.record["probe_mean_s"]


def self_times(parent, start, end):
    """Each span's duration minus the time its direct children cover.

    Spans from one thread nest, so a child lies inside its parent and the
    children of one span do not overlap.
    """
    import numpy as np

    duration = end - start
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    return duration - covered


def summarize_spans(path: Path, launched: float, exited: float) -> tuple[dict, list[str]]:
    """Calls and self time per span name, startup and unspanned time."""
    import numpy as np

    with np.load(path) as data:
        names, name_id = data["names"], data["name_id"]
        parent, start, end = data["parent"], data["start"], data["end"]
    own = self_times(parent, start, end)
    calls = np.bincount(name_id, minlength=len(names))
    self_s = np.bincount(name_id, weights=own, minlength=len(names))
    wall = exited - launched
    spanned = float((end - start)[parent < 0].sum())
    handler = [i for i, name in enumerate(names) if name.startswith("cli.cmd_")]
    entered = start[np.isin(name_id, handler)]
    summary = {
        "functions": {str(n): {"calls": int(c), "self_s": float(s)}
                      for n, c, s in zip(names, calls, self_s) if c},
        "startup_s": float(entered.min() - launched) if entered.size else 0.0,
        "unspanned_s": wall - spanned,
        "spans": int(len(name_id)),
    }
    problems = []
    if abs(float(own.sum()) + summary["unspanned_s"] - wall) > 1e-6 * max(1.0, wall):
        problems.append("span self times plus unspanned time do not reconstruct wall_s")
    if own.size and own.min() < -1e-6:
        problems.append("a child span reaches outside its parent")
    return summary, problems


def output_digest(stdout: Path, outputs: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in (stdout, *outputs):
        try:
            data = path.read_bytes()
        except OSError:
            data = b"<missing>"
        digest.update(len(data).to_bytes(8, "little"))
        digest.update(data)
    return digest.hexdigest()


def _on_alarm(signum, frame):
    raise TimeoutError


def invoke(workload, work: Path, traced: bool, timeout: float) -> Invocation:
    """Run the CLI once in a child process and collect what it left behind."""
    record = work / ("traced.json" if traced else "plain.json")
    for path in (record, Path(f"{record}.npz"), *workload.outputs):
        path.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / "tracer.py"), str(record),
               "traced" if traced else "plain", *workload.args]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    stdout_path, stderr_path = work / "stdout.txt", work / "stderr.txt"
    problems = []
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        launched = clock()
        proc = subprocess.Popen(command, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.1))
            proc.wait()
        except TimeoutError:
            proc.kill()
            proc.wait()
            problems.append(f"timed out after {timeout:.0f} s")
        finally:
            exited = clock()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    if proc.returncode != 0 and not problems:
        tail = stderr_path.read_text(encoding="utf-8", errors="replace")[-500:]
        problems.append(f"exit code {proc.returncode}: {tail.strip()}")
    try:
        fold = json.loads(record.read_text(encoding="ascii"))
    except (OSError, ValueError):
        fold = {}
        problems.append("no timing record from the child")
    spans = None
    if traced and not problems:
        spans, span_problems = summarize_spans(Path(f"{record}.npz"), launched, exited)
        problems += span_problems
    if fold.get("accesses", 0) != workload.expect_accesses:
        problems.append(f"simulated {fold.get('accesses')} accesses, "
                        f"expected {workload.expect_accesses}")
    if fold.get("hits", 0) != workload.expect_hits:
        problems.append(f"simulated {fold.get('hits')} hits, expected {workload.expect_hits}")
    return Invocation(
        traced=traced,
        wall_s=exited - launched,
        peak_rss_mib=fold.get("peak_rss_kib", 0) / 1024,
        code=proc.returncode,
        digest=output_digest(stdout_path, workload.outputs),
        record=fold,
        spans=spans,
        problems=problems,
    )


class Judge:
    """Output verdicts, computed once per distinct output digest."""

    def __init__(self, workload, work: Path, golden: str | None):
        self.workload = workload
        self.work = work
        self.golden = golden
        self.first: str | None = None
        self.verdicts: dict[str, tuple[list[str], float]] = {}

    @property
    def error(self) -> float:
        """|simulator - model| relative error reported by the first outputs."""
        return self.verdicts[self.first][1] if self.first else 0.0

    def __call__(self, inv: Invocation) -> None:
        """Add the problems of the invocation's outputs to it."""
        if self.first is None:
            self.first = inv.digest
        if inv.digest not in self.verdicts:
            stdout = (self.work / "stdout.txt").read_bytes()
            problems, error = self.workload.check(stdout)
            if self.golden is not None and inv.digest != self.golden:
                problems.append("outputs differ from the digest recorded for the default seed")
            self.verdicts[inv.digest] = problems, error
        problems, _ = self.verdicts[inv.digest]
        if inv.digest != self.first:
            inv.problems.append("outputs differ between runs with the same seed")
        inv.problems += problems


def context() -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    uname = platform.uname()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": f"{uname.system}-{uname.release}-{uname.machine}",
    }


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(plain: list[Invocation]) -> dict[str, float]:
    """Medians over the invocations; times are host-speed normalised."""
    return {
        "wall_s": median(inv.normalised(inv.cli_s) for inv in plain),
        "setup_s": median(inv.normalised(inv.cli_s - inv.record.get("sim_s", 0.0))
                          for inv in plain),
        "peak_rss_mib": median(inv.peak_rss_mib for inv in plain),
    }


def per_layer(inv: Invocation, workload, error: float) -> dict[str, float]:
    """Per-layer metrics of one traced invocation."""
    functions = inv.spans["functions"]

    def self_s(name):
        return functions.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return functions.get(name, {}).get("calls", 0)

    fold = inv.record
    accesses = fold.get("accesses", 0)
    read_s = self_s("traces.read_trace_text")
    values = {f"{layer}.self_s": sum(v["self_s"] for n, v in functions.items()
                                     if n.startswith(f"{layer}."))
              for layer in LAYERS}
    for name in ("sim.run_trace", "sim.CacheState", "sim.warm_fill", "traces.generate_trace",
                 "traces.read_trace_text", "model.expected_reads",
                 "model.expected_matched_ways", "optimum.k_min_integer",
                 "costs.normalized_metrics", "cli.write_rows", "cli.evaluate_sweep"):
        values[f"{name}.calls"] = calls(name)
        values[f"{name}.self_s"] = self_s(name)
    values.update({
        "cli.startup_s": inv.spans["startup_s"],
        "traces.read_mib_per_s": (workload.shape["sim.trace_bytes"] / MIB / read_s
                                  if calls("traces.read_trace_text") and read_s > 0 else 0.0),
        "sim.ns_per_access": fold["sim_s"] / accesses * 1e9 if accesses else 0.0,
        "sim.accesses": accesses,
        "sim.mean_survivors": fold.get("survivors", 0) / accesses if accesses else 0.0,
        "sim.relative_error_vs_model": error,
        "trace.unspanned_s": inv.spans["unspanned_s"],
        "trace.spans": inv.spans["spans"],
    })
    for name in ("sim.hot_set_share", "sim.distinct_blocks", "sim.trace_bytes",
                 "sim.hit_ratio", "sim.warm_accesses"):
        values[name] = workload.shape.get(name, 0)
    return values


def measure(workload, work: Path, judge: Judge, seconds: float, traced_run: bool,
            deadline: float) -> list[Invocation]:
    """Invoke until the invocations add up to ``seconds`` (and both modes ran)."""
    invocations = []
    spent = 0.0
    while True:
        traced = traced_run and len(invocations) % 2 == 1
        inv = invoke(workload, work, traced, deadline - clock())
        if inv.code == 0:
            judge(inv)
        invocations.append(inv)
        spent += inv.wall_s
        both = not traced_run or any(i.traced for i in invocations)
        if (spent >= seconds and both) or clock() + 2 * inv.wall_s > deadline:
            return invocations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = clock()
    if not (ROOT / "src" / "tagsplit" / "cli.py").is_file():
        print(f"error: no tagsplit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(whys)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    os.chdir(ROOT)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.BUILDERS[args.workload](work, args.seed)
    golden = None
    if args.seed == DEFAULT_SEED:
        golden = json.loads((HERE / "golden.json").read_text(encoding="ascii"))[args.workload]
    judge = Judge(workload, work, golden)
    invocations = measure(workload, work, judge, args.seconds, bool(args.trace),
                          started + RUN_LIMIT_S)
    plain = [inv for inv in invocations if not inv.traced]
    traced = [inv for inv in invocations if inv.traced and inv.spans is not None]
    if args.trace:
        layers = [per_layer(inv, workload, judge.error) for inv in traced]
        values = {name: median(v[name] for v in layers) for name in (layers[0] if layers else {})}
        values["trace.overhead_s"] = (median(inv.wall_s for inv in traced)
                                      - median(inv.cli_s for inv in plain))
        values["host.wall_s"] = median(inv.cli_s for inv in plain)
        values["host.probe_slice_s"] = median(inv.record.get("probe_mean_s", 0.0)
                                              for inv in plain)
        values["sim.accesses_per_s"] = median(
            inv.record["accesses"] / inv.record["sim_s"] for inv in plain
            if inv.record.get("sim_s"))
        wanted = spec["per_layer"]
    else:
        values = end_to_end(plain)
        wanted = spec["end_to_end"]
    failed = sum(1 for inv in invocations if inv.problems)
    print(json.dumps({"context": context(), "workload": args.workload, "seed": args.seed,
                      "why": whys[args.workload], "note": NOTE}))
    print(json.dumps({"samples": [
        {"traced": inv.traced, "wall_s": inv.wall_s, "probe_s": inv.record.get("probe_s"),
         "probe_mean_s": inv.record.get("probe_mean_s"), "sim_s": inv.record.get("sim_s"),
         "peak_rss_mib": inv.peak_rss_mib, "digest": inv.digest[:16],
         "problems": inv.problems} for inv in invocations]}))
    if traced:
        print(json.dumps({"functions": traced[0].spans["functions"]}))
    for inv in invocations:
        for problem in inv.problems:
            print(f"failed: {problem}", file=sys.stderr)
    if failed:
        values = {m["name"]: values.get(m["name"], 0.0) for m in wanted}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": len(invocations),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
