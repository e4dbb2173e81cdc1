"""Design-space explorer for split tag comparison.

Subcommands:
  analyze    geometry, optimum, and expected cost of one configuration
  sweep      grid of configurations x splitting points to CSV/JSON lines
  simulate   trace-driven counters for one configuration, vs. the model
  gen-trace  write a synthetic address trace to a file
  curves     normalized step-1/step-2/total cost curves over k

Exit codes: 0 success, 2 invalid input or a request for more memory
than there is, 3 I/O failure, 4 internal invariant violation.  A
command checks everything before it opens its output file, and every
command but gen-trace, which draws each slice as it writes it, computes
everything before it too, so a command that fails leaves no output and
an existing file untouched; only an I/O error while writing, or
gen-trace running out of memory for a slice, can leave a partial file.
Output rows are sorted by (cache_size, associativity, address_bits, k).
CSV cells, and every "name: value" line of the analyze/simulate
reports, print floats with 17 significant digits, and JSON lines writes
their shortest round-trip repr, so identical invocations produce
byte-identical files.  A simulate report line named like an --out
column prints that column's CSV cell.

numpy loads on first use (traces.np): simulate, gen-trace and sweep
--simulate run it, and analyze, curves and an analytic sweep never do.

simulate --gen and gen-trace take their trace from one _generated,
which checks the generator flags through traces._trace_slices and
draws the trace one slice of at most 2**18 addresses (sim._TRACE_CHUNK)
at a time; simulate folds each slice, and gen-trace writes it, before
the next is drawn, so either holds one slice, not the trace.  A trace
file, and the one trace per address width that every sweep --simulate
row reuses (generate_trace), are held whole.

Every output file is written through one encoder per format
(_encoder), which turns rows to text a column at a time and holds a
run's rows as one ASCII bytes object, a byte that ASCII never holds
(_BREAK) between each two, with their count carried beside it; a
non-ASCII cell is refused there, before the file is opened.  A sweep
encodes each (tag_bits, associativity) pair's rows once: the cells
that all its splitting points share are encoded once, into the
template its rows fill.  Each block of rows takes one write, its
breaks replaced by the line ends and starts in one bytes.replace.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields
from itertools import filterfalse, repeat

from .costs import load_params, mttf_from_bits, ratio_columns, ratios_from_bits, reliability, tag_energy
from .model import CacheConfig, baseline_bits, expected_reads, split_columns
from .optimum import k_min_integer
from .sim import _TRACE_CHUNK, CacheState, SimStats, _added, run_trace, warm_fill
from .traces import (
    TRACE_KINDS,
    _trace_slices,
    _write_slices,
    as_addresses,
    generate_trace,
    read_trace_binary,
    read_trace_text,
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
    first_step_bits: int
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

# the two runs a sweep row is built from (evaluate_sweep): the grid point's
# columns, CacheConfig attributes that open every row the CLI writes, and
# the tail, every later column, the simulation columns among them
_POINT_COLUMNS = SWEEP_COLUMNS[:5]
_TAIL_COLUMNS = SWEEP_COLUMNS[5:]
_SIM_COLUMNS = SWEEP_COLUMNS[13:15]
# the CacheConfig attributes that open the analyze and simulate reports
_GEOMETRY_CELLS = ("cache_size", "block_size", "associativity", "address_bits",
                   "sets", "index_bits", "offset_bits", "tag_bits")

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
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _json_cell(value) -> str:
    """value as json.JSONEncoder writes it; inf and nan, which JSON lacks, as
    their CSV cell text in quotes."""
    if value is None or isinstance(value, bool):
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else f'"{format_value(value)}"'
    if isinstance(value, int):
        return int.__repr__(value)
    import json  # imported where used, as csv is, so that most runs never load it

    return json.dumps(value)


# output format -> (a cell's text, a finite float's text, a column's label as
# a format of its name, which is an identifier, so JSON quotes it as it is,
# text between cells, line prefix, line suffix); no CSV cell is quoted, as
# cells are numbers, booleans, empties and config ids
_FORMATS = {
    "csv": (format_value, "{:.17g}".format, "", ",", "", "\n"),
    "json-lines": (_json_cell, float.__repr__, '"{}": ', ", ", "{", "}\n"),
}


def _texts(column: list, cell, float_text):
    """The texts of a column's cells: one map call for a column all of int,
    or all of finite float, and cell by cell for any other."""
    kinds = set(map(type, column))
    if kinds == {int}:
        return map(int.__repr__, column)
    if kinds == {float} and all(map(math.isfinite, column)):
        return map(float_text, column)
    return map(cell, column)


# the byte between two rows of an encoded run; ASCII never holds it, so no
# cell can split a row
_BREAK = b"\xff"


def _encoder(output_format: str):
    """encode(run) -> (rows, count): the count rows of run in output_format,
    as ASCII bytes with one _BREAK between each two.

    A run maps consecutive columns to a list of one cell per row, or to
    one cell that every row shares; it holds at least one list.  The
    shared cells are encoded once, into a %s template of the run's
    labels that each row fills with its texts, a column at a time.  A
    row that is not ASCII (a CSV text cell; JSON escapes it) is refused
    with a ValueError that names it.
    """
    cell, float_text, label, between = _FORMATS[output_format][:4]

    def encode(run: dict) -> tuple[bytes, int]:
        template = between.join(
            label.format(name) + ("%s" if isinstance(value, list) else cell(value).replace("%", "%%"))
            for name, value in run.items()
        )
        columns = (_texts(value, cell, float_text) for value in run.values() if isinstance(value, list))
        rows = list(map(template.__mod__, zip(*columns)))
        refused = next(filterfalse(str.isascii, rows), None)
        if refused is not None:
            raise ValueError(f"a row holds a cell that is not ASCII: {refused!r}")
        # every row is ASCII, so the joined breaks are its only other byte
        return _BREAK.decode("latin-1").join(rows).encode("latin-1"), len(rows)

    return encode


def _write_lines(path, columns, output_format: str, encoded_blocks) -> int:
    """Stream blocks of rows to path, after a header line for CSV; returns the row count.

    encoded_blocks(encode) returns the blocks, encode being the format's
    _encoder.  A block is a pair (head, (tails, count)) of ASCII bytes of
    consecutive columns: tails, as encode returns it, ends the block's
    count rows, and every row starts with the head, which is b"" when the
    tails cover all columns.  A block holds at least one row and takes one
    write, its breaks replaced in one bytes.replace; the count is carried,
    not counted.  encoded_blocks is called before path is opened and makes
    every check, so an error it raises leaves no file behind; its blocks
    are then only written.
    """
    if output_format not in _FORMATS:
        raise ValueError(f"unknown output format {output_format!r}")
    between, prefix, suffix = (text.encode("ascii") for text in _FORMATS[output_format][3:])
    blocks = encoded_blocks(_encoder(output_format))
    count = 0
    with open(path, "wb") as fh:
        if output_format == "csv":
            fh.write(",".join(columns).encode("ascii") + b"\n")
        for head, (tails, rows) in blocks:
            lead = prefix + head + between if head else prefix
            fh.write(lead + tails.replace(_BREAK, suffix + lead) + suffix)
            count += rows
    return count


def write_rows(path, columns, rows: list[dict], output_format: str) -> int:
    """Write rows, dicts holding every column, to path; returns the row count."""
    run = {name: [row[name] for row in rows] for name in columns}
    return _write_lines(path, columns, output_format,
                        lambda encode: [(b"", encode(run))] if rows else [])


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
    return points


def _k_ranges(k_range: tuple[int, int], tag_lengths) -> dict[int, range]:
    """Splitting points LO..min(HI, n) per tag length n.

    HI beyond the longest tag is an error, and so is LO beyond any tag,
    which would leave that tag's configurations without a row.
    """
    low, high = k_range
    longest = max(tag_lengths)
    if high > longest:
        raise ValueError(
            f"k range {low}:{high} exceeds the longest tag in the grid ({longest} bits)"
        )
    shorter = sorted(n for n in tag_lengths if n < low)
    if shorter:
        raise ValueError(
            f"k range {low}:{high} starts above tags in the grid "
            f"({', '.join(map(str, shorter))} bits)"
        )
    return {n: range(low, min(high, n) + 1) for n in tag_lengths}


def _cells(record, names) -> dict:
    """The named attributes of any record (a config, an optimum, a split, counters)."""
    return {name: getattr(record, name) for name in names}


def _split_runs(tag_bits: int, ways: int, ks: range, params) -> dict:
    """The tail run of one (tag_bits, ways) pair over the splitting points ks.

    It holds a list of one cell per k for the columns that vary with k:
    the splitting point's, from one split_columns call, and, when params
    are given, the cost ratios, from one ratio_columns call.  Every other
    cell (the optimum, the empty simulation and cost cells) is the same
    for all k and held once.
    """
    # every k is evaluated first, so a k beyond the tag is named before a
    # tag too short to have an optimum
    run = split_columns(tag_bits, ways, ks)
    opt = k_min_integer(tag_bits, ways)
    run.update(_cells(opt, _TAIL_COLUMNS[5:8]))
    run.update(dict.fromkeys(_TAIL_COLUMNS[8:]))
    if params is not None:
        costs = ratio_columns(run["total_bits"], baseline_bits(tag_bits, ways), 1, params)
        run.update(zip(_TAIL_COLUMNS[10:], costs))
    return run


def evaluate_sweep(args, encode, params=None):
    """Sweep rows sorted by (cache_size, associativity, address_bits, k), in blocks.

    Each grid point's rows make one block for _write_lines: the point's
    head (its five SWEEP_COLUMNS) and one tail per k, which holds the
    other columns (the splitting point, the simulation and the cost
    ratios).  The tails depend only on (tag_bits, associativity), so each
    pair is evaluated once, as columns over its splitting points
    (_split_runs); without args.simulate its tails are also encoded
    once, column by column, into one bytes object (see _encoder) that
    every grid point with that pair shares.  The cost ratios are filled
    in when cost parameters are given.

    args holds the parsed sweep flags.  Before this returns, the grid is
    validated, every pair evaluated and, with args.simulate, every trace
    generated and every row simulated and checked, in row order; every
    row is encoded, so writing the blocks raises nothing.
    """
    points = _grid_points(args.sizes, args.assocs, args.addr_bits, args.block)
    ks = _k_ranges(args.k_range, {config.tag_bits for config in points})
    pairs = {}
    for config in points:
        pair = (config.tag_bits, config.associativity)
        if pair not in pairs:
            run = _split_runs(*pair, ks[config.tag_bits], params)
            pairs[pair] = run if args.simulate else encode(run)
    blocks = [pairs[(config.tag_bits, config.associativity)] for config in points]
    if args.simulate:
        traces = {addr: generate_trace(args.trace_kind, args.trace_length, args.trace_seed,
                                       address_bits=addr, block_size=args.block, stride=args.block)
                  for addr in sorted(set(args.addr_bits))}
        blocks = [encode(_simulated_run(config, run, traces[config.address_bits]))
                  for config, run in zip(points, blocks)]
    heads, _ = encode({name: [getattr(config, name) for config in points] for name in _POINT_COLUMNS})
    return zip(heads.split(_BREAK), blocks)


def _sim_cells(observed: float | None, total_bits: float) -> dict:
    """The simulation columns of a row whose simulated bits per access is observed."""
    if observed is None:
        return dict.fromkeys(_SIM_COLUMNS)
    return dict(zip(_SIM_COLUMNS, (observed, (observed - total_bits) / total_bits)))


def _checked_run(state: CacheState, slices, warm: bool) -> SimStats:
    """The counters of a trace on state, warmed first if warm, with every
    counter identity checked (an AssertionError, exit 4, names one that fails).

    The trace comes as consecutive slices, address arrays that may be
    drawn one at a time (see _load_trace).  run_trace folds each slice
    from the state the one before it left, and the slices' counters are
    added up, which is exact: they are those of one run_trace over the
    whole trace.  The identities are checked once, on the sum.
    """
    if warm:
        warm_fill(state)
    # map keeps no slice once its run is done, so two are never held
    stats = _added(list(map(run_trace, repeat(state), slices)))
    stats.validate(state.config.tag_bits, state.k)
    return stats


def _simulated_run(config: CacheConfig, run: dict, trace) -> dict:
    """run, from _split_runs, with the simulation cells of each k, in k order."""
    # a fresh warm cache per row: rows of one grid point differ in k, and
    # each reuses the trace, which is therefore held whole, as one slice
    rows = [_sim_cells(_checked_run(CacheState(config, k), (trace,), True).bits_per_access, total)
            for k, total in zip(run["k"], run["total_bits"])]
    return {**run, **{name: [row[name] for row in rows] for name in _SIM_COLUMNS}}


# a parsed cell must read back as its text (read_sweep_csv), which refuses
# every bool spelling but true and false
_CELL_PARSERS = {"int": int, "float": float, "bool": "true".__eq__}

# (column, cell parser, whether the cell may be empty) from SweepRow's field
# annotations, which are strings under postponed evaluation; only the
# simulation and cost columns may be empty
_SWEEP_CELLS = tuple(
    (f.name, _CELL_PARSERS[f.type.removesuffix(" | None")], f.default is None)
    for f in fields(SweepRow)
)


def read_sweep_csv(path) -> list[SweepRow]:
    """Load a sweep CSV, re-deriving every row through the sweep's own evaluation.

    A cell must be spelled exactly as the sweep writes its value
    (format_value), and every derived column is compared with the row's
    cell exactly: a float cell carries 17 significant digits, so it
    reads back as the double that was written.  energy_ratio needs the
    cost parameters and is not re-derived, but mttf_ratio must be filled
    exactly when energy_ratio is, as the sweep writes the two together.
    Malformed input raises ValueError naming the path, line and column.
    """
    import csv  # imported where used, so that no other command loads it

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
                    value = None if optional and text == "" else parse(text)
                    # int() and float() take spellings such as 1_024, " 2" and +4
                    if format_value(value) != text:
                        raise ValueError(f"not a cell the sweep writes: {text!r}")
                except ValueError as exc:
                    raise ValueError(f"{where}, column {name}: {exc}") from None
                values.append(value)
            row = SweepRow(*values)
            try:
                config = CacheConfig(
                    row.address_bits, row.cache_size, row.block_size, row.associativity
                )
                run = _split_runs(config.tag_bits, row.associativity, range(row.k, row.k + 1), None)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            # the row's own cells: a one-row run's columns hold one cell each
            tail = {name: value[0] if isinstance(value, list) else value for name, value in run.items()}
            total = tail["total_bits"]
            derived = {**_cells(config, _POINT_COLUMNS), **tail,
                       **_sim_cells(row.sim_bits_per_access, total)}
            del derived["energy_ratio"]
            if row.energy_ratio is not None:
                derived["mttf_ratio"] = baseline_bits(config.tag_bits, row.associativity) / total
            for name, want in derived.items():
                got = getattr(row, name)
                # a cell copied from the row, NaN too, agrees
                if got is not want and got != want:
                    raise ValueError(f"{where} fails self-check: {name}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no sweep rows")
    return rows


def _print_report(cells: dict) -> None:
    """Print one "name: value" report line per cell, each value as its CSV cell."""
    for name, value in cells.items():
        print(f"{name}: {format_value(value)}")


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
    _print_report({
        **_cells(config, _GEOMETRY_CELLS),
        "baseline_bits_per_access": baseline_bits(config.tag_bits, config.associativity),
        **_cells(opt, _TAIL_COLUMNS[5:8]),
        **_cells(ev, _TAIL_COLUMNS[:3]),
        "expected_total_bits": ev.total_bits,
        "reduction_ratio": ev.reduction_ratio,
        "read_reduction_percent": (1.0 - ev.reduction_ratio) * 100.0,
    })
    return 0


def cmd_sweep(args) -> int:
    params = load_params(args.params) if args.params is not None else None
    count = _write_lines(
        args.out, SWEEP_COLUMNS, args.format, lambda encode: evaluate_sweep(args, encode, params)
    )
    print(f"wrote {count} rows to {args.out}")
    return 0


def _generated(args, kind: str):
    """The kind's trace of the generator flags of simulate and gen-trace, as
    slices of at most sim._TRACE_CHUNK addresses, each drawn when the
    iterator reaches it; the flags are checked by this call."""
    return _trace_slices(_TRACE_CHUNK, kind, args.length, args.seed, address_bits=args.addr_bits,
                         block_size=args.block, stride=args.stride, base=args.base,
                         exponent=args.zipf_exponent, num_blocks=args.num_blocks)


def _is_binary_trace(path: str) -> bool:
    """True for a binary (.bin) trace path, False for a text (.trace/.txt) one."""
    if path.endswith(".bin"):
        return True
    if path.endswith((".trace", ".txt")):
        return False
    raise ValueError(f"cannot infer trace format from {path!r}; use .trace/.txt or .bin")


def _load_trace(args, address_bits: int):
    """The trace of simulate's flags as consecutive slices (see _checked_run).

    A generated trace comes from _generated, so a run holds one slice,
    not the trace, and its flags are checked by this call.  A trace
    file is read whole, as one slice, its addresses checked to fit in
    address_bits, with the file's path in front of the error that names
    the first one outside.
    """
    if args.trace is None:
        return _generated(args, args.gen)
    read = read_trace_binary if _is_binary_trace(args.trace) else read_trace_text
    trace = read(args.trace)
    try:
        return (as_addresses(trace, address_bits),)
    except ValueError as exc:
        raise ValueError(f"{args.trace}: {exc}") from None


def cmd_simulate(args) -> int:
    params = load_params(args.params) if args.params is not None else None
    config, k = _configure(args)
    state = CacheState(config, k)  # k is checked before the trace is read
    stats = _checked_run(state, _load_trace(args, config.address_bits), args.warm)
    ev = expected_reads(config.tag_bits, config.associativity, k)
    base = baseline_bits(config.tag_bits, config.associativity)
    observed, relative_error = _sim_cells(stats.bits_per_access, ev.total_bits).values()
    run = {
        **_cells(config, _GEOMETRY_CELLS),
        "k": k,
        "warmed": bool(args.warm),
        **_cells(stats, SIM_COLUMNS[6:13]),
        "analytic_bits_per_access": ev.total_bits,
        "relative_error": relative_error,
        "baseline_bits_per_access": base,
        "normalized_reads": observed / base,
    }
    # the costs are computed before the first report line, so a run they
    # refuse prints nothing
    costs = {}
    if params is not None:
        energy_ratio, mttf_ratio = ratios_from_bits(
            stats.total_bit_reads, stats.baseline_bit_reads, stats.accesses, params
        )
        costs = {
            "energy_joules": tag_energy(stats.total_bit_reads, stats.accesses, params),
            "energy_ratio": energy_ratio,
            "reliability": reliability(stats.total_bit_reads, params),
            "mttf_seconds": mttf_from_bits(stats.total_bit_reads, params),
            "mttf_ratio": mttf_ratio,
        }
    _print_report(run)
    histogram = " ".join(
        f"{s}:{count}" for s, count in enumerate(stats.matched_way_histogram) if count
    )
    print(f"survivor_histogram: {histogram}")
    print("note: baseline is the same trace under a single-step comparison (k = n)")
    if costs:
        _print_report(costs)
        print(
            "note: reliability counts read disturbance only (independent per bit); "
            "retention and write failures are out of scope"
        )
    if args.out is not None:
        # the report's cells: write_rows takes only the columns, so the extra
        # geometry cells, warmed and reliability stay out, and without --params
        # the cost columns are empty
        row = {**dict.fromkeys(SIM_COLUMNS), **run, **costs}
        write_rows(args.out, SIM_COLUMNS, [row], args.format)
    return 0


def cmd_gen_trace(args) -> int:
    binary = _is_binary_trace(args.out)
    count = _write_slices(args.out, _generated(args, args.kind), binary)
    print(f"wrote {count} addresses to {args.out}")
    return 0


def _curve_run(config: CacheConfig, ks: range) -> dict:
    """The curves run of one grid point: its cells, held once, and the
    step-1, step-2 and total bits of one split_columns call, each over
    the baseline, a list of one cell per k."""
    n, assoc = config.tag_bits, config.associativity
    base = baseline_bits(n, assoc)
    split = split_columns(n, assoc, ks)
    steps = (split[name] for name in _TAIL_COLUMNS[1:4])
    return {
        "config_id": f"{format_size(config.cache_size)}-{assoc}w-{config.address_bits}b",
        **_cells(config, _POINT_COLUMNS),
        "k": split["k"],
        **{name: [bits / base for bits in step] for name, step in zip(CURVE_COLUMNS[7:], steps)},
    }


def cmd_curves(args) -> int:
    points = _grid_points((args.size,), args.assocs, (args.addr_bits,), args.block)
    ks = _k_ranges(args.k_range, {config.tag_bits for config in points})
    count = _write_lines(args.out, CURVE_COLUMNS, args.format, lambda encode: [
        (b"", encode(_curve_run(config, ks[config.tag_bits]))) for config in points])
    print(f"wrote {count} rows to {args.out}")
    return 0


def _add_config_flags(parser) -> None:
    parser.add_argument("--size", type=parse_size, required=True, help="cache size in bytes (K/M/G suffixes allowed)")
    parser.add_argument("--assoc", type=int, required=True, help="ways per set")
    parser.add_argument("--block", type=parse_size, default=64, help="block size in bytes (default 64)")
    parser.add_argument("--addr-bits", type=int, default=40, help="address length in bits (default 40)")
    parser.add_argument("--k", type=int, default=None, help="splitting point (default: the optimum)")


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
    parser.add_argument("--seed", type=int, default=0, help="seed (uniform and zipf-block kinds; default 0)")
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
    sweep.add_argument("--trace-seed", type=int, default=0, help="seed (uniform and zipf-block kinds; default 0)")
    sweep.add_argument("--params", default=None, help="JSON cost parameters; adds energy/mttf ratios")
    _add_output_flags(sweep, required=True)
    sweep.set_defaults(func=cmd_sweep)

    simulate = sub.add_parser("simulate", help="run one trace through the simulator")
    _add_config_flags(simulate)
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
    except (ValueError, MemoryError) as exc:  # numpy's MemoryError names the allocation
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
