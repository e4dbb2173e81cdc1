"""The benchmark's workloads: CLI arguments, generated inputs and output oracles.

Each builder writes the inputs one CLI invocation needs into a work
directory, computes the workload-shape descriptors from those inputs,
and returns a ``Workload`` whose ``check`` judges the invocation's
stdout and output files.  Oracles are computed here, before any timing:
the hit/miss sequence of ``sim.baseline_outcomes`` over the warm-up
addresses followed by the trace, the ``SimStats`` counter identities,
``cli.read_sweep_csv``, and ``model.expected_reads`` /
``optimum.k_min_integer`` for every analytic row.

``small=True`` shrinks every workload so the self-test runs in seconds.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from tagsplit.cli import SWEEP_COLUMNS, read_sweep_csv
from tagsplit.model import CacheConfig, expected_reads
from tagsplit.optimum import k_min_integer
from tagsplit.sim import baseline_outcomes
from tagsplit.traces import uniform_trace, zipf_block_trace

BLOCK = 64
KIB = 1024
MIB = KIB * KIB


@dataclass
class Workload:
    """One CLI invocation and how to judge it."""

    args: list[str]
    outputs: list[Path]
    # (stdout) -> (problems, |relative error of simulator vs model|)
    check: Callable[[bytes], tuple[list[str], float]]
    # accesses and hits every run's returned SimStats must add up to
    expect_accesses: int = 0
    expect_hits: int = 0
    shape: dict[str, float] = field(default_factory=dict)


def geometry(size: int, assoc: int, addr_bits: int) -> tuple[int, int, int, int]:
    """(sets, index_bits, offset_bits, tag_bits), derived independently of the model."""
    sets = size // (BLOCK * assoc)
    index_bits = sets.bit_length() - 1
    offset_bits = BLOCK.bit_length() - 1
    return sets, index_bits, offset_bits, addr_bits - index_bits - offset_bits


def warm_addresses(size: int, assoc: int, addr_bits: int) -> list[int]:
    """The address sequence of a warm fill: tag t into every set, t = 0, 1, ..."""
    sets, index_bits, offset_bits, tag_bits = geometry(size, assoc, addr_bits)
    return [
        ((tag << index_bits) | s) << offset_bits
        for tag in range(min(assoc, 1 << tag_bits))
        for s in range(sets)
    ]


def oracle_hits(size: int, assoc: int, addr_bits: int, trace: np.ndarray) -> int:
    """Hits of a warmed single-step LRU cache over the trace."""
    config = CacheConfig(address_bits=addr_bits, cache_size=size, block_size=BLOCK,
                         associativity=assoc)
    warm = warm_addresses(size, assoc, addr_bits)
    return sum(baseline_outcomes(config, warm + trace.tolist())[len(warm):])


def hot_set_share(trace: np.ndarray, size: int, assoc: int) -> float:
    """Share of the accesses that go to the busiest set."""
    sets, _, offset_bits, _ = geometry(size, assoc, 40)
    index = (trace >> np.uint64(offset_bits)) & np.uint64(sets - 1)
    return float(np.bincount(index.astype(np.int64), minlength=sets).max() / len(trace))


def trace_shape(trace: np.ndarray, trace_bytes: int, hot_share: float, hits: int,
                warm: int) -> dict[str, float]:
    """Workload-shape descriptors; trace_bytes is the trace file's size, or
    the uint64 array's for a trace the CLI generates itself."""
    return {
        "sim.hot_set_share": hot_share,
        "sim.distinct_blocks": int(np.unique(trace >> np.uint64(6)).size),
        "sim.trace_bytes": trace_bytes,
        "sim.hit_ratio": hits / len(trace),
        "sim.warm_accesses": warm,
    }


def write_params(path: Path, seed: int) -> dict:
    """Cost parameters drawn from the seed, p_read_disturb > 0."""
    rng = random.Random(seed)
    params = {
        "energy_per_bit_read": rng.uniform(1e-13, 1e-11),
        "fixed_energy_per_access": rng.uniform(0.0, 1e-11),
        "leakage_power": rng.uniform(0.0, 1e-10),
        "execution_time": 1.0,
        "p_read_disturb": rng.uniform(1e-15, 1e-9),
    }
    path.write_text(json.dumps(params), encoding="ascii")
    return params


def parse_report(stdout: bytes) -> dict[str, str]:
    report = {}
    for line in stdout.decode("ascii", "replace").splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            report[key] = value
    return report


def check_report(stdout: bytes, size: int, assoc: int, addr_bits: int, accesses: int,
                 hits: int) -> tuple[list[str], float]:
    """The simulate report against the counter identities and the hit oracle."""
    report = parse_report(stdout)
    try:
        k = int(report["k"])
        n = int(report["tag_bits"])
        got = {name: int(report[name]) for name in (
            "accesses", "hits", "misses", "step1_bit_reads", "step2_bit_reads",
            "total_bit_reads", "baseline_bits_per_access")}
        histogram = {}
        for cell in report["survivor_histogram"].split():
            s, _, count = cell.partition(":")
            histogram[int(s)] = int(count)
        relative_error = float(report["relative_error"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable simulate report: {exc!r}"], 0.0
    weighted = sum(s * count for s, count in histogram.items())
    checks = (
        ("tag_bits", n == geometry(size, assoc, addr_bits)[3]),
        ("accesses == trace length", got["accesses"] == accesses),
        ("hits == baseline oracle", got["hits"] == hits),
        ("misses == baseline oracle", got["misses"] == accesses - hits),
        ("histogram sums to accesses", sum(histogram.values()) == accesses),
        ("step1 == accesses*k*ways", got["step1_bit_reads"] == accesses * k * assoc),
        ("step2 == (n-k)*sum(s*hist[s])", got["step2_bit_reads"] == (n - k) * weighted),
        ("total == step1 + step2",
         got["total_bit_reads"] == got["step1_bit_reads"] + got["step2_bit_reads"]),
        ("baseline == n*ways", got["baseline_bits_per_access"] == n * assoc),
    )
    return [f"simulate report: {label} fails" for label, ok in checks if not ok], abs(
        relative_error)


def sim_uniform(work: Path, seed: int, small: bool = False) -> Workload:
    size, assoc, addr_bits = MIB, 8, 40
    length = 20_000 if small else 1_000_000
    trace = uniform_trace(length, seed, address_bits=addr_bits)
    hits = oracle_hits(size, assoc, addr_bits, trace)
    sets = geometry(size, assoc, addr_bits)[0]
    return Workload(
        args=["simulate", "--size", str(size), "--assoc", str(assoc), "--addr-bits",
              str(addr_bits), "--gen", "uniform", "--length", str(length), "--warm",
              "--seed", str(seed)],
        outputs=[],
        check=lambda stdout: check_report(stdout, size, assoc, addr_bits, length, hits),
        expect_accesses=length,
        expect_hits=hits,
        shape=trace_shape(trace, 8 * length, hot_set_share(trace, size, assoc), hits,
                          sets * assoc),
    )


def sim_zipf_bigcache(work: Path, seed: int, small: bool = False) -> Workload:
    size = 1 * MIB if small else 32 * MIB
    assoc, addr_bits = 8, 40
    length = 20_000 if small else 250_000
    # twice as many distinct blocks as the cache holds lines: after the warm
    # fill almost every access hits, and the hottest block's set takes ~19%
    trace = zipf_block_trace(length, seed, exponent=1.2,
                             num_blocks=1 << (15 if small else 20), address_bits=addr_bits)
    path = work / "zipf.trace"
    path.write_text("".join(f"{a:x}\n" for a in trace.tolist()), encoding="ascii")
    hits = oracle_hits(size, assoc, addr_bits, trace)
    sets = geometry(size, assoc, addr_bits)[0]
    return Workload(
        args=["simulate", "--size", str(size), "--assoc", str(assoc), "--addr-bits",
              str(addr_bits), "--trace", str(path), "--warm"],
        outputs=[],
        check=lambda stdout: check_report(stdout, size, assoc, addr_bits, length, hits),
        expect_accesses=length,
        expect_hits=hits,
        shape=trace_shape(trace, path.stat().st_size, hot_set_share(trace, size, assoc),
                          hits, sets * assoc),
    )


def grid_rows(sizes, assocs, addr_bits_list, k_low: int, k_high: int) -> list[tuple]:
    """(size, assoc, addr_bits, tag_bits, k) of every sweep row, in output order."""
    return [
        (size, assoc, addr, n, k)
        for size in sorted(sizes)
        for assoc in sorted(assocs)
        for addr in sorted(addr_bits_list)
        for n in (geometry(size, assoc, addr)[3],)
        for k in range(k_low, min(k_high, n) + 1)
    ]


def sweep_args(sizes, assocs, addr_bits_list, k_low, k_high, params, out) -> list[str]:
    return ["sweep",
            "--sizes", ",".join(map(str, sizes)),
            "--assocs", ",".join(map(str, assocs)),
            "--addr-bits", ",".join(map(str, addr_bits_list)),
            "--k-range", f"{k_low}:{k_high}",
            "--params", str(params),
            "--out", str(out)]


def ratios(n: int, assoc: int, total_bits: float, params: dict) -> tuple[float, float]:
    """(energy_ratio, mttf_ratio) of one access against the single-step baseline."""
    base = n * assoc
    constant = params["fixed_energy_per_access"] + params["leakage_power"] * params[
        "execution_time"]
    energy = (total_bits * params["energy_per_bit_read"] + constant) / (
        base * params["energy_per_bit_read"] + constant)
    return energy, base / total_bits


def wrote_line(stdout: bytes, rows: int, out: Path) -> list[str]:
    if stdout != f"wrote {rows} rows to {out}\n".encode("ascii"):
        return [f"sweep stdout {stdout[:200]!r} does not report {rows} rows to {out}"]
    return []


def check_sweep_sim(stdout: bytes, out: Path, expected: list[tuple], params: dict
                    ) -> tuple[list[str], float]:
    try:
        rows = read_sweep_csv(out)
    except (OSError, ValueError) as exc:
        return [f"sweep CSV rejected by read_sweep_csv: {exc}"], 0.0
    keys = [(r.cache_size, r.associativity, r.address_bits, r.tag_bits, r.k) for r in rows]
    if keys != expected:
        return [f"sweep CSV has {len(rows)} rows, not the {len(expected)} of the grid"], 0.0
    problems = wrote_line(stdout, len(expected), out)
    for key, row in zip(keys, rows):
        energy, mttf = ratios(row.tag_bits, row.associativity, row.total_bits, params)
        ok = (
            row.sim_bits_per_access is not None
            and row.sim_bits_per_access > 0
            and math.isclose(row.sim_relative_error,
                             (row.sim_bits_per_access - row.total_bits) / row.total_bits,
                             rel_tol=1e-9, abs_tol=1e-15)
            and math.isclose(row.energy_ratio, energy, rel_tol=1e-12)
            and math.isclose(row.mttf_ratio, mttf, rel_tol=1e-12)
        )
        if not ok:
            problems.append(f"sweep CSV row {key} inconsistent")
    mean_error = sum(abs(r.sim_relative_error or 0.0) for r in rows) / len(rows)
    return problems, mean_error


def sweep_sim_zipf(work: Path, seed: int, small: bool = False) -> Workload:
    sizes = (64 * KIB,) if small else (64 * KIB, 256 * KIB, MIB)
    assocs, addr_bits_list, k_low, k_high = (8, 16), (40,), 1, 10
    length = 2_000 if small else 20_000
    params_path, out = work / "params.json", work / "sweep.csv"
    params = write_params(params_path, seed)
    expected = grid_rows(sizes, assocs, addr_bits_list, k_low, k_high)
    # the CLI regenerates this trace for every row
    trace = zipf_block_trace(length, seed, block_size=BLOCK, address_bits=40)
    hits = 0
    warm = 0
    hot_share = 0.0
    for size in sizes:
        for assoc in assocs:
            rows_here = sum(1 for row in expected if row[:2] == (size, assoc))
            hits += rows_here * oracle_hits(size, assoc, 40, trace)
            warm += rows_here * len(warm_addresses(size, assoc, 40))
            hot_share = max(hot_share, hot_set_share(trace, size, assoc))
    accesses = length * len(expected)
    shape = trace_shape(trace, 8 * length, hot_share, hits, warm)
    shape["sim.hit_ratio"] = hits / accesses
    return Workload(
        args=sweep_args(sizes, assocs, addr_bits_list, k_low, k_high, params_path, out)
        + ["--simulate", "--trace-kind", "zipf-block", "--trace-length", str(length),
           "--trace-seed", str(seed)],
        outputs=[out],
        check=lambda stdout: check_sweep_sim(stdout, out, expected, params),
        expect_accesses=accesses,
        expect_hits=hits,
        shape=shape,
    )


def check_sweep_analytic(stdout: bytes, out: Path, expected: list[tuple], params: dict
                         ) -> tuple[list[str], float]:
    try:
        lines = out.read_text(encoding="ascii").splitlines()
    except (OSError, ValueError) as exc:
        return [f"sweep output unreadable: {exc}"], 0.0
    if len(lines) != len(expected):
        return [f"sweep wrote {len(lines)} rows, expected {len(expected)}"], 0.0
    problems = wrote_line(stdout, len(expected), out)
    for line, (size, assoc, addr, n, k) in zip(lines, expected):
        ev = expected_reads(n, assoc, k)
        opt = k_min_integer(n, assoc)
        energy, mttf = ratios(n, assoc, ev.total_bits, params)
        want = {
            "cache_size": size, "associativity": assoc, "address_bits": addr,
            "block_size": BLOCK, "tag_bits": n, "k": k,
            "first_step_bits": ev.first_step_bits,
            "expected_second_step_bits": ev.expected_second_step_bits,
            "total_bits": ev.total_bits, "reduction_ratio": ev.reduction_ratio,
            "k_optimal": opt.k_optimal, "k_min": opt.k_min,
            "is_round_of_continuous": opt.k_min == round(opt.k_optimal),
            "sim_bits_per_access": None, "sim_relative_error": None,
        }
        try:
            row = json.loads(line)
            ok = (
                tuple(row) == SWEEP_COLUMNS
                and all(row[name] == value for name, value in want.items())
                and math.isclose(row["energy_ratio"], energy, rel_tol=1e-12)
                and math.isclose(row["mttf_ratio"], mttf, rel_tol=1e-12)
            )
        except (ValueError, TypeError, KeyError):
            ok = False
        if not ok:
            problems.append(f"sweep row {(size, assoc, addr, k)} differs from the model")
            if len(problems) >= 10:
                break
    return problems, 0.0


def sweep_analytic(work: Path, seed: int, small: bool = False) -> Workload:
    if small:
        sizes, assocs, addr_bits_list = (32 * KIB, 2 * KIB * MIB), (1, 512), (40, 128)
    else:
        sizes = tuple(32 * KIB * 4 ** i for i in range(9))    # 32K .. 2G
        assocs = tuple(2 ** i for i in range(10))             # 1 .. 512
        addr_bits_list = tuple(range(40, 129, 4))
    k_low, k_high = 1, 32
    params_path, out = work / "params.json", work / "sweep.jsonl"
    params = write_params(params_path, seed)
    expected = grid_rows(sizes, assocs, addr_bits_list, k_low, k_high)
    return Workload(
        args=sweep_args(sizes, assocs, addr_bits_list, k_low, k_high, params_path, out)
        + ["--format", "json-lines"],
        outputs=[out],
        check=lambda stdout: check_sweep_analytic(stdout, out, expected, params),
    )


BUILDERS = {
    "sim-uniform": sim_uniform,
    "sim-zipf-bigcache": sim_zipf_bigcache,
    "sweep-sim-zipf": sweep_sim_zipf,
    "sweep-analytic": sweep_analytic,
}
