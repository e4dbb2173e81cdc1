"""Design-space explorer for split tag comparison.

Subcommands:
  analyze    geometry, optimum, and expected cost of one configuration
  sweep      grid of configurations x splitting points to CSV/JSON lines
  simulate   trace-driven counters for one configuration, vs. the model
  gen-trace  write a synthetic address trace to a file
  curves     normalized step-1/step-2/total cost curves over k

Exit codes: 0 success, 2 invalid input, 3 I/O failure, 4 internal
invariant violation.  Output rows are sorted by (cache_size,
associativity, address_bits, k) and floats are printed with 17
significant digits, so identical invocations produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass

from .costs import (
    energy_from_stats,
    load_params,
    mttf_from_bits,
    normalized_metrics,
    ratios_from_bits,
    reliability,
)
from .model import CacheConfig, baseline_bits, derive_geometry, expected_reads
from .optimum import k_min_integer, k_optimal_continuous
from .sim import CacheState, run_trace, warm_fill
from .traces import (
    TRACE_KINDS,
    generate_trace,
    read_trace_binary,
    read_trace_text,
    write_trace_binary,
    write_trace_text,
)

KIB = 1024
DEFAULT_K_RANGE = (1, 10)

SWEEP_COLUMNS = (
    "cache_size",
    "associativity",
    "address_bits",
    "block_size",
    "tag_bits",
    "k",
    "first_step_bits",
    "expected_second_step_bits",
    "total_bits",
    "reduction_ratio",
    "k_optimal",
    "k_min",
    "is_round_of_continuous",
    "sim_bits_per_access",
    "sim_relative_error",
    "energy_ratio",
    "mttf_ratio",
)

CURVE_COLUMNS = (
    "config_id",
    "cache_size",
    "associativity",
    "address_bits",
    "block_size",
    "tag_bits",
    "k",
    "step1_normalized",
    "step2_normalized",
    "total_normalized",
)

SIM_COLUMNS = (
    "cache_size",
    "associativity",
    "address_bits",
    "block_size",
    "tag_bits",
    "k",
    "accesses",
    "hits",
    "misses",
    "step1_bit_reads",
    "step2_bit_reads",
    "total_bit_reads",
    "bits_per_access",
    "analytic_bits_per_access",
    "relative_error",
    "baseline_bits_per_access",
    "normalized_reads",
    "energy_joules",
    "energy_ratio",
    "mttf_seconds",
    "mttf_ratio",
)


@dataclass(frozen=True)
class SweepSpec:
    """Grid of configurations and splitting points to evaluate."""

    cache_sizes: tuple[int, ...]
    associativities: tuple[int, ...]
    address_bits_list: tuple[int, ...]
    block_size: int = 64
    k_range: tuple[int, int] = DEFAULT_K_RANGE
    include_simulation: bool = False
    trace_kind: str = "uniform"
    trace_length: int = 100_000
    trace_seed: int = 0


@dataclass
class SweepRow:
    """One grid point evaluated at one splitting point."""

    cache_size: int
    associativity: int
    address_bits: int
    block_size: int
    tag_bits: int
    k: int
    first_step_bits: float
    expected_second_step_bits: float
    total_bits: float
    reduction_ratio: float
    k_optimal: float
    k_min: int
    is_round_of_continuous: bool
    sim_bits_per_access: float | None = None
    sim_relative_error: float | None = None
    energy_ratio: float | None = None
    mttf_ratio: float | None = None


def parse_size(text: str) -> int:
    """Byte count with an optional K/M/G suffix (powers of 1024)."""
    raw = text.strip()
    multiplier = 1
    if raw and raw[-1].upper() in "KMG":
        multiplier = KIB ** ("KMG".index(raw[-1].upper()) + 1)
        raw = raw[:-1]
    if not raw.isdigit():
        raise argparse.ArgumentTypeError(f"not a size: {text!r}")
    return int(raw) * multiplier


def parse_size_list(text: str) -> tuple[int, ...]:
    return tuple(parse_size(part) for part in text.split(","))


def parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def parse_k_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    try:
        low, high = int(lo), int(hi if sep else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"k range must look like LO:HI, got {text!r}")
    if low < 0 or high < low:
        raise argparse.ArgumentTypeError(f"k range must satisfy 0 <= LO <= HI, got {text!r}")
    return low, high


def format_size(size: int) -> str:
    for exp, suffix in ((3, "G"), (2, "M"), (1, "K")):
        if size % (KIB ** exp) == 0 and size >= KIB ** exp:
            return f"{size // KIB ** exp}{suffix}"
    return str(size)


def format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


_STRICT_JSON = json.JSONEncoder(allow_nan=False)


def _csv_run(cells: dict) -> str:
    # cells are numbers, booleans, empties and config ids, none of which CSV quotes
    return ",".join(map(format_value, cells.values()))


def _json_run(cells: dict) -> str:
    """Members of a JSON object; inf and nan, which JSON lacks, as their CSV cell text."""
    try:
        text = _STRICT_JSON.encode(cells)
    except ValueError:
        text = _STRICT_JSON.encode(
            {
                name: format_value(value)
                if isinstance(value, float) and not math.isfinite(value)
                else value
                for name, value in cells.items()
            }
        )
    return text[1:-1]


# output format -> (encode a run, text between runs, line prefix, line suffix)
_RUN_FORMATS = {
    "csv": (_csv_run, ",", "", "\n"),
    "json-lines": (_json_run, ", ", "{", "}\n"),
}


def _write_lines(path, columns, output_format: str, encoded_rows) -> int:
    """Stream rows to path, after a header line for CSV; returns the row count.

    encoded_rows(encode) returns the rows.  Each row is a tuple of runs:
    dicts of consecutive columns, passed through the format's encode,
    that together cover the columns in order.  Rows may share a run, so
    it is encoded once.  encoded_rows is called before path is opened,
    so an error it raises leaves no file behind.
    """
    if output_format not in _RUN_FORMATS:
        raise ValueError(f"unknown output format {output_format!r}")
    encode, between, prefix, suffix = _RUN_FORMATS[output_format]
    rows = encoded_rows(encode)
    count = 0
    with open(path, "w", encoding="ascii", newline="") as fh:
        if output_format == "csv":
            fh.write(",".join(columns) + "\n")
        for runs in rows:
            fh.write(prefix + between.join(runs) + suffix)
            count += 1
    return count


def write_rows(path, columns, rows: list[dict], output_format: str) -> int:
    """Write rows, dicts holding every column, to path; returns the row count."""
    return _write_lines(
        path,
        columns,
        output_format,
        lambda encode: ((encode({name: row[name] for name in columns}),) for row in rows),
    )


def _grid_points(spec: SweepSpec):
    """Validated (config, geometry) pairs in output order, or all errors."""
    points = []
    errors = []
    for size in sorted(set(spec.cache_sizes)):
        for assoc in sorted(set(spec.associativities)):
            for addr in sorted(set(spec.address_bits_list)):
                label = f"size={size} assoc={assoc} addr_bits={addr} block={spec.block_size}"
                try:
                    config = CacheConfig(
                        address_bits=addr,
                        cache_size=size,
                        block_size=spec.block_size,
                        associativity=assoc,
                    )
                    points.append((config, derive_geometry(config)))
                except ValueError as exc:
                    errors.append(f"{label}: {exc}")
    if errors:
        raise ValueError("invalid grid entries:\n" + "\n".join(errors))
    if not points:
        raise ValueError("the sweep grid is empty")
    return points


def _trace_params(
    kind: str, address_bits: int, block_size: int, stride: int, base: int = 0, **zipf
) -> dict:
    """Keyword arguments of generate_trace for one trace kind.

    zipf holds the zipf-block kind's exponent and num_blocks; when left
    out, the generator's defaults apply.
    """
    params = {"address_bits": address_bits}
    if kind == "stride":
        params.update(stride=stride, base=base)
    elif kind == "zipf-block":
        params.update(block_size=block_size, **zipf)
    return params


# the four runs of consecutive columns a sweep row is built from (evaluate_sweep)
_POINT_COLUMNS = SWEEP_COLUMNS[:5]
_SPLIT_COLUMNS = SWEEP_COLUMNS[5:13]
_SIM_COLUMNS = SWEEP_COLUMNS[13:15]
_COST_COLUMNS = SWEEP_COLUMNS[15:]


def _split_runs(tag_bits: int, ways: int, ks: range, encode, energy) -> list[tuple]:
    """(SplitEval, split run, cost run) of one (tag_bits, ways) pair per k."""
    opt = k_min_integer(tag_bits, ways)
    is_round = opt.k_min == round(opt.k_optimal)
    base = baseline_bits(tag_bits, ways)
    runs = []
    for k in ks:
        ev = expected_reads(tag_bits, ways, k)
        split = (
            k,
            ev.first_step_bits,
            ev.expected_second_step_bits,
            ev.total_bits,
            ev.reduction_ratio,
            opt.k_optimal,
            opt.k_min,
            is_round,
        )
        costs = (None, None)
        if energy is not None:
            costs = ratios_from_bits(ev.total_bits, base, 1, energy)
        runs.append(
            (ev, encode(dict(zip(_SPLIT_COLUMNS, split))), encode(dict(zip(_COST_COLUMNS, costs))))
        )
    return runs


def evaluate_sweep(spec: SweepSpec, encode, energy=None):
    """Sweep rows sorted by (cache_size, associativity, address_bits, k).

    Each row is a tuple of four runs of consecutive SWEEP_COLUMNS (the
    grid point, the splitting point, the simulation and the cost
    ratios), each a dict of column values passed through encode.  The
    splitting-point and cost runs depend only on (tag_bits,
    associativity, k), so each is built and encoded once and shared by
    every grid point with that pair.  The cost ratios are filled in
    when energy parameters are given.

    The grid is validated, every pair evaluated and every trace
    generated before this returns.  The returned iterator then produces
    the rows one at a time; with spec.include_simulation, each row is
    simulated as it is produced.
    """
    points = _grid_points(spec)
    low, high = spec.k_range
    max_tag_bits = max(geo.tag_bits for _, geo in points)
    if high > max_tag_bits:
        raise ValueError(
            f"k range {low}:{high} exceeds the longest tag in the grid ({max_tag_bits} bits)"
        )
    pairs = {}
    for config, geo in points:
        pair = (geo.tag_bits, config.associativity)
        if pair not in pairs:
            ks = range(low, min(high, geo.tag_bits) + 1)
            pairs[pair] = _split_runs(*pair, ks, encode, energy)
    traces = {}
    if spec.include_simulation:
        for addr in sorted(set(spec.address_bits_list)):
            params = _trace_params(spec.trace_kind, addr, spec.block_size, stride=spec.block_size)
            traces[addr] = generate_trace(
                spec.trace_kind, spec.trace_length, spec.trace_seed, **params
            )
    return _sweep_rows(points, pairs, traces, encode)


def _sweep_rows(points, pairs, traces, encode):
    no_sim = encode(dict.fromkeys(_SIM_COLUMNS))
    for config, geo in points:
        cells = (
            config.cache_size,
            config.associativity,
            config.address_bits,
            config.block_size,
            geo.tag_bits,
        )
        point = encode(dict(zip(_POINT_COLUMNS, cells)))
        for ev, split, costs in pairs[(geo.tag_bits, config.associativity)]:
            sim = no_sim
            if traces:
                # a fresh warm cache per row: rows of one grid point differ in k
                state = CacheState(config, ev.k)
                warm_fill(state)
                observed = run_trace(state, traces[config.address_bits]).bits_per_access
                relative_error = (observed - ev.total_bits) / ev.total_bits
                sim = encode(dict(zip(_SIM_COLUMNS, (observed, relative_error))))
            yield point, split, sim, costs


def read_sweep_csv(path) -> list[SweepRow]:
    """Load a sweep CSV, re-validating every row against the model."""
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != SWEEP_COLUMNS:
            raise ValueError(f"{path}: unexpected sweep header {reader.fieldnames!r}")
        raw_rows = list(reader)
    if not raw_rows:
        raise ValueError(f"{path}: no sweep rows")
    rows = []
    k_min_by_point: dict[tuple, int] = {}
    for raw in raw_rows:
        row = SweepRow(
            cache_size=int(raw["cache_size"]),
            associativity=int(raw["associativity"]),
            address_bits=int(raw["address_bits"]),
            block_size=int(raw["block_size"]),
            tag_bits=int(raw["tag_bits"]),
            k=int(raw["k"]),
            first_step_bits=float(raw["first_step_bits"]),
            expected_second_step_bits=float(raw["expected_second_step_bits"]),
            total_bits=float(raw["total_bits"]),
            reduction_ratio=float(raw["reduction_ratio"]),
            k_optimal=float(raw["k_optimal"]),
            k_min=int(raw["k_min"]),
            is_round_of_continuous=raw["is_round_of_continuous"] == "true",
            sim_bits_per_access=float(raw["sim_bits_per_access"])
            if raw["sim_bits_per_access"]
            else None,
            sim_relative_error=float(raw["sim_relative_error"])
            if raw["sim_relative_error"]
            else None,
            energy_ratio=float(raw["energy_ratio"]) if raw["energy_ratio"] else None,
            mttf_ratio=float(raw["mttf_ratio"]) if raw["mttf_ratio"] else None,
        )
        config = CacheConfig(
            address_bits=row.address_bits,
            cache_size=row.cache_size,
            block_size=row.block_size,
            associativity=row.associativity,
        )
        geo = derive_geometry(config)
        ev = expected_reads(geo.tag_bits, row.associativity, row.k)
        point = (row.cache_size, row.associativity, row.address_bits)
        known_k_min = k_min_by_point.setdefault(point, row.k_min)
        checks = (
            ("tag_bits", geo.tag_bits == row.tag_bits),
            ("total_bits", math.isclose(ev.total_bits, row.total_bits, rel_tol=1e-9)),
            (
                "reduction_ratio",
                math.isclose(ev.reduction_ratio, row.reduction_ratio, rel_tol=1e-9),
            ),
            ("k_min constant per grid point", known_k_min == row.k_min),
            (
                "is_round_of_continuous",
                row.is_round_of_continuous == (row.k_min == round(row.k_optimal)),
            ),
        )
        for label, ok in checks:
            if not ok:
                raise ValueError(f"{path}: row {raw!r} fails self-check: {label}")
        rows.append(row)
    return rows


def _print_geometry(config: CacheConfig, geo) -> None:
    print(f"cache_size: {config.cache_size}")
    print(f"block_size: {config.block_size}")
    print(f"associativity: {config.associativity}")
    print(f"address_bits: {config.address_bits}")
    print(f"sets: {geo.sets}")
    print(f"index_bits: {geo.index_bits}")
    print(f"offset_bits: {geo.offset_bits}")
    print(f"tag_bits: {geo.tag_bits}")


def cmd_analyze(args) -> int:
    config = CacheConfig(
        address_bits=args.addr_bits,
        cache_size=args.size,
        block_size=args.block,
        associativity=args.assoc,
    )
    geo = derive_geometry(config)
    opt = k_min_integer(geo.tag_bits, config.associativity)
    k = args.k if args.k is not None else opt.k_min
    ev = expected_reads(geo.tag_bits, config.associativity, k)
    _print_geometry(config, geo)
    print(f"baseline_bits_per_access: {baseline_bits(geo.tag_bits, config.associativity)}")
    print(f"k_optimal: {format_value(opt.k_optimal)}")
    print(f"k_min: {opt.k_min}")
    print(f"is_round_of_continuous: {format_value(opt.k_min == round(opt.k_optimal))}")
    print(f"k: {ev.k}")
    print(f"first_step_bits: {format_value(ev.first_step_bits)}")
    print(f"expected_second_step_bits: {format_value(ev.expected_second_step_bits)}")
    print(f"expected_total_bits: {format_value(ev.total_bits)}")
    print(f"reduction_ratio: {format_value(ev.reduction_ratio)}")
    print(f"read_reduction_percent: {format_value((1.0 - ev.reduction_ratio) * 100.0)}")
    return 0


def cmd_sweep(args) -> int:
    spec = SweepSpec(
        cache_sizes=args.sizes,
        associativities=args.assocs,
        address_bits_list=args.addr_bits,
        block_size=args.block,
        k_range=args.k_range,
        include_simulation=args.simulate,
        trace_kind=args.trace_kind,
        trace_length=args.trace_length,
        trace_seed=args.trace_seed,
    )
    # the MTTF ratio is the bit-read ratio, so it needs no reliability parameters
    energy = load_params(args.params)[0] if args.params is not None else None
    count = _write_lines(
        args.out, SWEEP_COLUMNS, args.format, lambda encode: evaluate_sweep(spec, encode, energy)
    )
    print(f"wrote {count} rows to {args.out}")
    return 0


def _generate(kind: str, args):
    """The trace the generator flags of simulate and gen-trace describe."""
    params = _trace_params(
        kind,
        args.addr_bits,
        args.block,
        args.stride,
        args.base,
        exponent=args.zipf_exponent,
        num_blocks=args.num_blocks,
    )
    return generate_trace(kind, args.length, args.seed, **params)


def _load_trace(args):
    if args.trace is not None:
        if args.trace.endswith(".bin"):
            return read_trace_binary(args.trace)
        if args.trace.endswith((".trace", ".txt")):
            return read_trace_text(args.trace)
        raise ValueError(
            f"cannot infer trace format from {args.trace!r}; use .trace/.txt or .bin"
        )
    return _generate(args.gen, args)


def cmd_simulate(args) -> int:
    config = CacheConfig(
        address_bits=args.addr_bits,
        cache_size=args.size,
        block_size=args.block,
        associativity=args.assoc,
    )
    geo = derive_geometry(config)
    opt = k_min_integer(geo.tag_bits, config.associativity)
    k = args.k if args.k is not None else opt.k_min
    trace = _load_trace(args)
    state = CacheState(config, k)
    if args.warm:
        warm_fill(state)
    stats = run_trace(state, trace)
    stats.validate(geo.tag_bits, k)
    ev = expected_reads(geo.tag_bits, config.associativity, k)
    base = baseline_bits(geo.tag_bits, config.associativity)
    observed = stats.bits_per_access
    relative_error = (observed - ev.total_bits) / ev.total_bits
    _print_geometry(config, geo)
    print(f"k: {k}")
    print(f"warmed: {format_value(bool(args.warm))}")
    print(f"accesses: {stats.accesses}")
    print(f"hits: {stats.hits}")
    print(f"misses: {stats.misses}")
    print(f"step1_bit_reads: {stats.step1_bit_reads}")
    print(f"step2_bit_reads: {stats.step2_bit_reads}")
    print(f"total_bit_reads: {stats.total_bit_reads}")
    print(f"bits_per_access: {format_value(observed)}")
    print(f"analytic_bits_per_access: {format_value(ev.total_bits)}")
    print(f"relative_error: {format_value(relative_error)}")
    print(f"baseline_bits_per_access: {base}")
    print(f"normalized_reads: {format_value(observed / base)}")
    histogram = " ".join(
        f"{s}:{count}" for s, count in enumerate(stats.matched_way_histogram) if count
    )
    print(f"survivor_histogram: {histogram}")
    print("note: baseline is the same trace under a single-step comparison (k = n)")
    row = {name: None for name in SIM_COLUMNS}
    row.update(
        cache_size=config.cache_size,
        associativity=config.associativity,
        address_bits=config.address_bits,
        block_size=config.block_size,
        tag_bits=geo.tag_bits,
        k=k,
        accesses=stats.accesses,
        hits=stats.hits,
        misses=stats.misses,
        step1_bit_reads=stats.step1_bit_reads,
        step2_bit_reads=stats.step2_bit_reads,
        total_bit_reads=stats.total_bit_reads,
        bits_per_access=observed,
        analytic_bits_per_access=ev.total_bits,
        relative_error=relative_error,
        baseline_bits_per_access=base,
        normalized_reads=observed / base,
    )
    if args.params is not None:
        energy, reliab = load_params(args.params)
        joules = energy_from_stats(stats, energy)
        energy_ratio, mttf_ratio = normalized_metrics(
            geo.tag_bits, config.associativity, k, energy, reliab, accesses=stats.accesses
        )
        run_reliability = reliability(stats.total_bit_reads, reliab)
        mttf_seconds = mttf_from_bits(stats.total_bit_reads, reliab)
        print(f"energy_joules: {format_value(joules)}")
        print(f"energy_ratio: {format_value(energy_ratio)}")
        print(f"reliability: {format_value(run_reliability)}")
        print(f"mttf_seconds: {format_value(mttf_seconds)}")
        print(f"mttf_ratio: {format_value(mttf_ratio)}")
        print(
            "note: reliability counts read disturbance only (independent per bit); "
            "retention and write failures are out of scope"
        )
        row.update(
            energy_joules=joules,
            energy_ratio=energy_ratio,
            mttf_seconds=mttf_seconds,
            mttf_ratio=mttf_ratio,
        )
    if args.out is not None:
        write_rows(args.out, SIM_COLUMNS, [row], args.format)
    return 0


def cmd_gen_trace(args) -> int:
    trace = _generate(args.kind, args)
    if args.out.endswith(".bin"):
        write_trace_binary(args.out, trace)
    elif args.out.endswith((".trace", ".txt")):
        write_trace_text(args.out, trace)
    else:
        raise ValueError(
            f"cannot infer trace format from {args.out!r}; use .trace/.txt or .bin"
        )
    print(f"wrote {len(trace)} addresses to {args.out}")
    return 0


def cmd_curves(args) -> int:
    rows = []
    for assoc in sorted(set(args.assocs)):
        config = CacheConfig(
            address_bits=args.addr_bits,
            cache_size=args.size,
            block_size=args.block,
            associativity=assoc,
        )
        geo = derive_geometry(config)
        base = baseline_bits(geo.tag_bits, assoc)
        config_id = f"{format_size(args.size)}-{assoc}w-{args.addr_bits}b"
        low, high = args.k_range
        for k in range(low, min(high, geo.tag_bits) + 1):
            ev = expected_reads(geo.tag_bits, assoc, k)
            rows.append(
                {
                    "config_id": config_id,
                    "cache_size": args.size,
                    "associativity": assoc,
                    "address_bits": args.addr_bits,
                    "block_size": args.block,
                    "tag_bits": geo.tag_bits,
                    "k": k,
                    "step1_normalized": ev.first_step_bits / base,
                    "step2_normalized": ev.expected_second_step_bits / base,
                    "total_normalized": ev.total_bits / base,
                }
            )
    write_rows(args.out, CURVE_COLUMNS, rows, args.format)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _add_config_flags(parser) -> None:
    parser.add_argument("--size", type=parse_size, required=True, help="cache size in bytes (K/M/G suffixes allowed)")
    parser.add_argument("--assoc", type=int, required=True, help="ways per set")
    parser.add_argument("--block", type=parse_size, default=64, help="block size in bytes (default 64)")
    parser.add_argument("--addr-bits", type=int, default=40, help="address length in bits (default 40)")


def _add_output_flags(parser, required: bool) -> None:
    parser.add_argument("--out", required=required, help="output file path")
    parser.add_argument(
        "--format",
        choices=("csv", "json-lines"),
        default="csv",
        help="output file format (default csv)",
    )


def _add_generator_flags(parser) -> None:
    parser.add_argument("--length", type=int, default=100_000, help="trace length (default 100000)")
    parser.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    parser.add_argument("--stride", type=parse_size, default=64, help="stride in bytes (stride kind)")
    parser.add_argument("--base", type=int, default=0, help="first address (stride kind)")
    parser.add_argument("--zipf-exponent", type=float, default=1.2, help="zipf exponent (zipf-block kind)")
    parser.add_argument("--num-blocks", type=int, default=1 << 18, help="zipf population size (zipf-block kind)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagsplit",
        description="explore two-step cache tag comparison: cost model, optimum, simulation",
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    analyze = sub.add_parser("analyze", help="one configuration: geometry, optimum, expected cost")
    _add_config_flags(analyze)
    analyze.add_argument("--k", type=int, default=None, help="splitting point (default: the optimum)")
    analyze.set_defaults(func=cmd_analyze)

    sweep = sub.add_parser("sweep", help="evaluate a configuration grid to CSV/JSON lines")
    sweep.add_argument("--sizes", type=parse_size_list, required=True, help="comma list of cache sizes")
    sweep.add_argument("--assocs", type=parse_int_list, required=True, help="comma list of associativities")
    sweep.add_argument("--addr-bits", type=parse_int_list, required=True, help="comma list of address lengths")
    sweep.add_argument("--block", type=parse_size, default=64, help="block size in bytes (default 64)")
    sweep.add_argument(
        "--k-range",
        type=parse_k_range,
        default=DEFAULT_K_RANGE,
        help="LO:HI inclusive splitting points per point (default 1:10)",
    )
    sweep.add_argument("--simulate", action="store_true", help="add simulated bits/access per row")
    sweep.add_argument("--trace-kind", choices=TRACE_KINDS, default="uniform")
    sweep.add_argument("--trace-length", type=int, default=100_000)
    sweep.add_argument("--trace-seed", type=int, default=0)
    sweep.add_argument("--params", default=None, help="JSON cost parameters; adds energy/mttf ratios")
    _add_output_flags(sweep, required=True)
    sweep.set_defaults(func=cmd_sweep)

    simulate = sub.add_parser("simulate", help="run one trace through the simulator")
    _add_config_flags(simulate)
    simulate.add_argument("--k", type=int, default=None, help="splitting point (default: the optimum)")
    source = simulate.add_mutually_exclusive_group(required=True)
    source.add_argument("--trace", default=None, help="trace file (.trace/.txt text, .bin binary)")
    source.add_argument("--gen", choices=TRACE_KINDS, default=None, help="generate the trace instead")
    _add_generator_flags(simulate)
    simulate.add_argument("--warm", action="store_true", help="fill every way before measuring")
    simulate.add_argument("--params", default=None, help="JSON cost parameters; adds energy/reliability")
    _add_output_flags(simulate, required=False)
    simulate.set_defaults(func=cmd_simulate)

    gen = sub.add_parser("gen-trace", help="write a synthetic trace file")
    gen.add_argument("--kind", choices=TRACE_KINDS, required=True)
    gen.add_argument("--addr-bits", type=int, default=40, help="address length in bits (default 40)")
    gen.add_argument("--block", type=parse_size, default=64, help="block size in bytes (zipf-block kind)")
    _add_generator_flags(gen)
    gen.add_argument("--out", required=True, help="output path (.trace/.txt text, .bin binary)")
    gen.set_defaults(func=cmd_gen_trace)

    curves = sub.add_parser("curves", help="normalized cost curves over k, one per associativity")
    curves.add_argument("--size", type=parse_size, required=True, help="cache size in bytes")
    curves.add_argument("--assocs", type=parse_int_list, required=True, help="comma list of associativities")
    curves.add_argument("--block", type=parse_size, default=64)
    curves.add_argument("--addr-bits", type=int, default=40)
    curves.add_argument(
        "--k-range", type=parse_k_range, default=DEFAULT_K_RANGE, help="LO:HI inclusive (default 1:10)"
    )
    _add_output_flags(curves, required=True)
    curves.set_defaults(func=cmd_curves)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
