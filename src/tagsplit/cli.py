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
from dataclasses import dataclass, fields

from .costs import load_params, mttf_from_bits, ratios_from_bits, reliability, tag_energy
from .model import CacheConfig, baseline_bits, expected_reads
from .optimum import k_min_integer
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


@dataclass
class SweepRow:
    """One grid point evaluated at one splitting point; its fields are the sweep columns."""

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


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow))

# runs of consecutive columns a sweep row is built from (evaluate_sweep); the
# grid point's columns are CacheConfig attributes and open every row the CLI writes
_POINT_COLUMNS = SWEEP_COLUMNS[:5]
_SPLIT_COLUMNS = SWEEP_COLUMNS[5:13]
_SIM_COLUMNS = SWEEP_COLUMNS[13:15]
_COST_COLUMNS = SWEEP_COLUMNS[15:]

CURVE_COLUMNS = (
    "config_id",
    *_POINT_COLUMNS,
    "k",
    "step1_normalized",
    "step2_normalized",
    "total_normalized",
)

SIM_COLUMNS = (
    *_POINT_COLUMNS,
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

# the counters and the comparison with the model, which simulate also prints
_SIM_REPORT_COLUMNS = SIM_COLUMNS[6:17]


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


def _grid_points(sizes, assocs, addr_bits, block: int):
    """Validated configurations of a grid in output order, or all errors."""
    points = []
    errors = []
    for size in sorted(set(sizes)):
        for assoc in sorted(set(assocs)):
            for addr in sorted(set(addr_bits)):
                label = f"size={size} assoc={assoc} addr_bits={addr} block={block}"
                try:
                    points.append(CacheConfig(addr, size, block, assoc))
                except ValueError as exc:
                    errors.append(f"{label}: {exc}")
    if errors:
        raise ValueError("invalid grid entries:\n" + "\n".join(errors))
    if not points:
        raise ValueError("the sweep grid is empty")
    return points


def _k_ranges(k_range: tuple[int, int], tag_lengths) -> dict[int, range]:
    """Splitting points LO..min(HI, n) per tag length n; HI beyond the longest is an error."""
    low, high = k_range
    longest = max(tag_lengths)
    if high > longest:
        raise ValueError(
            f"k range {low}:{high} exceeds the longest tag in the grid ({longest} bits)"
        )
    return {n: range(low, min(high, n) + 1) for n in tag_lengths}


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


def _point_cells(config: CacheConfig) -> dict:
    return {name: getattr(config, name) for name in _POINT_COLUMNS}


def _split_runs(tag_bits: int, ways: int, ks: range, encode, params) -> list[tuple]:
    """(SplitEval, split run, cost run) of one (tag_bits, ways) pair per k."""
    # every k is evaluated first, so a k beyond the tag is named before a
    # tag too short to have an optimum
    evs = [expected_reads(tag_bits, ways, k) for k in ks]
    opt = k_min_integer(tag_bits, ways)
    optimum = (opt.k_optimal, opt.k_min, opt.is_round_of_continuous)
    base = baseline_bits(tag_bits, ways)
    runs = []
    for ev in evs:
        split = (ev.k, ev.first_step_bits, ev.expected_second_step_bits, ev.total_bits,
                 ev.reduction_ratio, *optimum)
        costs = (None, None)
        if params is not None:
            costs = ratios_from_bits(ev.total_bits, base, 1, params)
        runs.append(
            (ev, encode(dict(zip(_SPLIT_COLUMNS, split))), encode(dict(zip(_COST_COLUMNS, costs))))
        )
    return runs


def evaluate_sweep(args, encode, params=None):
    """Sweep rows sorted by (cache_size, associativity, address_bits, k).

    Each row is a tuple of four runs of consecutive SWEEP_COLUMNS (the
    grid point, the splitting point, the simulation and the cost
    ratios), each a dict of column values passed through encode.  The
    splitting-point and cost runs depend only on (tag_bits,
    associativity, k), so each is built and encoded once and shared by
    every grid point with that pair.  The cost ratios are filled in
    when cost parameters are given.

    args holds the parsed sweep flags.  The grid is validated, every
    pair evaluated and every trace generated before this returns.  The
    returned iterator then produces the rows one at a time; with
    args.simulate, each row is simulated as it is produced.
    """
    points = _grid_points(args.sizes, args.assocs, args.addr_bits, args.block)
    ks = _k_ranges(args.k_range, {config.tag_bits for config in points})
    pairs = {}
    for config in points:
        pair = (config.tag_bits, config.associativity)
        if pair not in pairs:
            pairs[pair] = _split_runs(*pair, ks[config.tag_bits], encode, params)
    traces = {}
    if args.simulate:
        for addr in sorted(set(args.addr_bits)):
            params = _trace_params(args.trace_kind, addr, args.block, stride=args.block)
            traces[addr] = generate_trace(
                args.trace_kind, args.trace_length, args.trace_seed, **params
            )
    return _sweep_rows(points, pairs, traces, encode)


def _sim_cells(observed: float | None, ev) -> dict:
    """The simulation columns of a row whose simulated bits per access is observed."""
    if observed is None:
        return dict.fromkeys(_SIM_COLUMNS)
    return dict(zip(_SIM_COLUMNS, (observed, (observed - ev.total_bits) / ev.total_bits)))


def _sweep_rows(points, pairs, traces, encode):
    no_sim = encode(_sim_cells(None, None))
    for config in points:
        point = encode(_point_cells(config))
        for ev, split, costs in pairs[(config.tag_bits, config.associativity)]:
            sim = no_sim
            if traces:
                # a fresh warm cache per row: rows of one grid point differ in k
                state = CacheState(config, ev.k)
                warm_fill(state)
                observed = run_trace(state, traces[config.address_bits]).bits_per_access
                sim = encode(_sim_cells(observed, ev))
            yield point, split, sim, costs


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"not true or false: {text!r}")
    return text == "true"


_CELL_PARSERS = {"int": int, "float": float, "bool": _parse_bool}

# (column, cell parser, whether the cell may be empty) from SweepRow's field
# annotations, which are strings under postponed evaluation; only the
# simulation and cost columns may be empty
_SWEEP_CELLS = tuple(
    (f.name, _CELL_PARSERS[f.type.removesuffix(" | None")], f.default is None)
    for f in fields(SweepRow)
)


def _agrees(got, want) -> bool:
    """A parsed cell against its derivation: floats within a relative 1e-9,
    anything else exactly.  A cell copied from the row, NaN too, agrees."""
    if got is want:
        return True
    if isinstance(want, float) and got is not None:
        return math.isclose(got, want, rel_tol=1e-9)
    return got == want


def read_sweep_csv(path) -> list[SweepRow]:
    """Load a sweep CSV, re-deriving every row through the sweep's own evaluation.

    Every derived column is compared with the row's cell, except
    energy_ratio, which needs the cost parameters, and mttf_ratio when
    it is empty.  Malformed input raises ValueError naming the path,
    line and column.
    """
    rows = []
    # a non-ASCII byte is kept in its cell as a lone surrogate, which no cell parser accepts
    with open(path, "r", encoding="ascii", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != SWEEP_COLUMNS:
            raise ValueError(f"{path}: unexpected sweep header {header!r}")
        for cells in reader:
            where = f"{path}, line {reader.line_num}"
            if len(cells) != len(SWEEP_COLUMNS):
                problem = (
                    f"column {SWEEP_COLUMNS[len(cells)]}: missing"
                    if len(cells) < len(SWEEP_COLUMNS)
                    else f"column {len(SWEEP_COLUMNS) + 1}: a cell after {SWEEP_COLUMNS[-1]}"
                )
                raise ValueError(f"{where}, {problem}")
            values = []
            for (name, parse, optional), text in zip(_SWEEP_CELLS, cells):
                try:
                    values.append(None if optional and text == "" else parse(text))
                except ValueError as exc:
                    raise ValueError(f"{where}, column {name}: {exc}") from None
            row = SweepRow(*values)
            try:
                config = CacheConfig(
                    row.address_bits, row.cache_size, row.block_size, row.associativity
                )
                [(ev, split, _)] = _split_runs(
                    config.tag_bits, row.associativity, range(row.k, row.k + 1), dict, None
                )
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            derived = {**_point_cells(config), **split, **_sim_cells(row.sim_bits_per_access, ev)}
            if row.mttf_ratio is not None:
                base = baseline_bits(config.tag_bits, row.associativity)
                derived["mttf_ratio"] = base / ev.total_bits
            for name, want in derived.items():
                if not _agrees(getattr(row, name), want):
                    raise ValueError(f"{where} fails self-check: {name}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no sweep rows")
    return rows


def _print_geometry(config: CacheConfig) -> None:
    for name in ("cache_size", "block_size", "associativity", "address_bits",
                 "sets", "index_bits", "offset_bits", "tag_bits"):
        print(f"{name}: {getattr(config, name)}")


def _configure(args):
    """(config, k) of one configuration's flags; k defaults to the optimum."""
    config = CacheConfig(args.addr_bits, args.size, args.block, args.assoc)
    if args.k is None:
        return config, k_min_integer(config.tag_bits, config.associativity).k_min
    return config, args.k


def cmd_analyze(args) -> int:
    config, k = _configure(args)
    opt = k_min_integer(config.tag_bits, config.associativity)
    ev = expected_reads(config.tag_bits, config.associativity, k)
    _print_geometry(config)
    print(f"baseline_bits_per_access: {baseline_bits(config.tag_bits, config.associativity)}")
    print(f"k_optimal: {format_value(opt.k_optimal)}")
    print(f"k_min: {opt.k_min}")
    print(f"is_round_of_continuous: {format_value(opt.is_round_of_continuous)}")
    print(f"k: {ev.k}")
    print(f"first_step_bits: {format_value(ev.first_step_bits)}")
    print(f"expected_second_step_bits: {format_value(ev.expected_second_step_bits)}")
    print(f"expected_total_bits: {format_value(ev.total_bits)}")
    print(f"reduction_ratio: {format_value(ev.reduction_ratio)}")
    print(f"read_reduction_percent: {format_value((1.0 - ev.reduction_ratio) * 100.0)}")
    return 0


def cmd_sweep(args) -> int:
    params = load_params(args.params) if args.params is not None else None
    count = _write_lines(
        args.out, SWEEP_COLUMNS, args.format, lambda encode: evaluate_sweep(args, encode, params)
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


def _is_binary_trace(path: str) -> bool:
    """True for a binary (.bin) trace path, False for a text (.trace/.txt) one."""
    if path.endswith(".bin"):
        return True
    if path.endswith((".trace", ".txt")):
        return False
    raise ValueError(f"cannot infer trace format from {path!r}; use .trace/.txt or .bin")


def _load_trace(args):
    if args.trace is None:
        return _generate(args.gen, args)
    if _is_binary_trace(args.trace):
        return read_trace_binary(args.trace)
    return read_trace_text(args.trace)


def cmd_simulate(args) -> int:
    params = load_params(args.params) if args.params is not None else None
    config, k = _configure(args)
    state = CacheState(config, k)
    trace = _load_trace(args)
    if args.warm:
        warm_fill(state)
    try:
        stats = run_trace(state, trace)
    except ValueError as exc:
        if args.trace is None:
            raise
        raise ValueError(f"{args.trace}: {exc}") from None
    stats.validate(config.tag_bits, k)
    ev = expected_reads(config.tag_bits, config.associativity, k)
    base = baseline_bits(config.tag_bits, config.associativity)
    observed, relative_error = _sim_cells(stats.bits_per_access, ev).values()
    cells = (
        k,
        stats.accesses,
        stats.hits,
        stats.misses,
        stats.step1_bit_reads,
        stats.step2_bit_reads,
        stats.total_bit_reads,
        observed,
        ev.total_bits,
        relative_error,
        base,
        observed / base,
    )
    row = dict.fromkeys(SIM_COLUMNS)
    row.update(_point_cells(config))
    row.update(zip(SIM_COLUMNS[len(_POINT_COLUMNS) :], cells))
    _print_geometry(config)
    print(f"k: {k}")
    print(f"warmed: {format_value(bool(args.warm))}")
    for name in _SIM_REPORT_COLUMNS:
        print(f"{name}: {format_value(row[name])}")
    histogram = " ".join(
        f"{s}:{count}" for s, count in enumerate(stats.matched_way_histogram) if count
    )
    print(f"survivor_histogram: {histogram}")
    print("note: baseline is the same trace under a single-step comparison (k = n)")
    if params is not None:
        energy_ratio, mttf_ratio = ratios_from_bits(
            stats.total_bit_reads, stats.baseline_bit_reads, stats.accesses, params
        )
        row.update(
            energy_joules=tag_energy(stats.total_bit_reads, stats.accesses, params),
            energy_ratio=energy_ratio,
            mttf_seconds=mttf_from_bits(stats.total_bit_reads, params),
            mttf_ratio=mttf_ratio,
        )
        print(f"energy_joules: {format_value(row['energy_joules'])}")
        print(f"energy_ratio: {format_value(energy_ratio)}")
        print(f"reliability: {format_value(reliability(stats.total_bit_reads, params))}")
        print(f"mttf_seconds: {format_value(row['mttf_seconds'])}")
        print(f"mttf_ratio: {format_value(mttf_ratio)}")
        print(
            "note: reliability counts read disturbance only (independent per bit); "
            "retention and write failures are out of scope"
        )
    if args.out is not None:
        write_rows(args.out, SIM_COLUMNS, [row], args.format)
    return 0


def cmd_gen_trace(args) -> int:
    binary = _is_binary_trace(args.out)
    trace = _generate(args.kind, args)
    if binary:
        write_trace_binary(args.out, trace)
    else:
        write_trace_text(args.out, trace)
    print(f"wrote {len(trace)} addresses to {args.out}")
    return 0


def cmd_curves(args) -> int:
    points = _grid_points((args.size,), args.assocs, (args.addr_bits,), args.block)
    ks = _k_ranges(args.k_range, {config.tag_bits for config in points})
    rows = []
    for config in points:
        n, assoc = config.tag_bits, config.associativity
        base = baseline_bits(n, assoc)
        head = {
            "config_id": f"{format_size(config.cache_size)}-{assoc}w-{config.address_bits}b",
            **_point_cells(config),
        }
        for k in ks[n]:
            ev = expected_reads(n, assoc, k)
            bits = (ev.first_step_bits, ev.expected_second_step_bits, ev.total_bits)
            normalized = dict(zip(CURVE_COLUMNS[7:], (b / base for b in bits)))
            rows.append({**head, "k": k, **normalized})
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
    sweep.add_argument(
        "--trace-kind", choices=TRACE_KINDS, default="uniform",
        help="kind of trace --simulate generates (default uniform)",
    )
    sweep.add_argument("--trace-length", type=int, default=100_000, help="trace length (default 100000)")
    sweep.add_argument("--trace-seed", type=int, default=0, help="generator seed (default 0)")
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
    gen.add_argument("--kind", choices=TRACE_KINDS, required=True, help="kind of trace to generate")
    gen.add_argument("--addr-bits", type=int, default=40, help="address length in bits (default 40)")
    gen.add_argument("--block", type=parse_size, default=64, help="block size in bytes (zipf-block kind)")
    _add_generator_flags(gen)
    gen.add_argument("--out", required=True, help="output path (.trace/.txt text, .bin binary)")
    gen.set_defaults(func=cmd_gen_trace)

    curves = sub.add_parser("curves", help="normalized cost curves over k, one per associativity")
    curves.add_argument("--size", type=parse_size, required=True, help="cache size in bytes")
    curves.add_argument("--assocs", type=parse_int_list, required=True, help="comma list of associativities")
    curves.add_argument("--block", type=parse_size, default=64, help="block size in bytes (default 64)")
    curves.add_argument("--addr-bits", type=int, default=40, help="address length in bits (default 40)")
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
