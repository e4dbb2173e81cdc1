"""Command-line interface: parsing, file outputs, and exit codes."""

import collections
import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tagsplit import cli
from tagsplit.costs import load_params, mttf_from_bits
from tagsplit.model import CacheConfig
from tagsplit.optimum import k_min_integer
from tagsplit.sim import CacheState, run_trace, warm_fill
from tagsplit.traces import generate_trace, read_trace_binary, read_trace_text
from tagsplit.cli import (
    CURVE_COLUMNS,
    SIM_COLUMNS,
    SWEEP_COLUMNS,
    format_size,
    format_value,
    main,
    parse_int_list,
    parse_k_range,
    parse_size,
    parse_size_list,
    read_sweep_csv,
    write_rows,
)

PARAMS = {
    "energy_per_bit_read": 2e-12,
    "fixed_energy_per_access": 0.0,
    "leakage_power": 0.0,
    "execution_time": 1.0,
    "p_read_disturb": 1e-12,
}

# 512 sets of 8 ways: tag_bits = 16 - 9 - 6 = 1, too short for an optimum
ONE_TAG_BIT = ["--size", "256K", "--assoc", "8", "--addr-bits", "16"]


def report_dict(output: str) -> dict:
    """Parse the 'key: value' lines of analyze/simulate reports."""
    result = {}
    for line in output.splitlines():
        key, sep, value = line.partition(": ")
        if sep and " " not in key:
            result[key] = value
    return result


def reject_constant(name: str):
    """parse_constant hook for json.loads: Infinity and NaN are not JSON."""
    raise ValueError(f"non-standard JSON constant {name}")


def params_file(tmp_path, **changes) -> str:
    path = tmp_path / "params.json"
    path.write_text(json.dumps(dict(PARAMS, **changes)))
    return str(path)


def cell_plus(delta):
    return lambda text: format_value(float(text) + delta)


def cell_times(factor):
    return lambda text: format_value(float(text) * factor)


def cell_ulp(text):
    return format_value(math.nextafter(float(text), math.inf))


ZERO_ENERGY = dict(energy_per_bit_read=0.0, fixed_energy_per_access=0.0, leakage_power=0.0)


def fail_identity_on_call(monkeypatch, call: int) -> list:
    """Make the call-th cli.run_trace result one access short in its survivor
    histogram, a counter identity validate refuses; returns the k of each call."""
    calls = []

    def run(state, trace):
        stats = real_run(state, trace)
        calls.append(state.k)
        if len(calls) == call:
            histogram = list(stats.matched_way_histogram)
            histogram[histogram.index(max(histogram))] -= 1
            stats = dataclasses.replace(stats, matched_way_histogram=histogram)
        return stats

    real_run = cli.run_trace
    monkeypatch.setattr(cli, "run_trace", run)
    return calls


class TestParsers:
    @pytest.mark.parametrize(
        "text,expected",
        [("64", 64), ("256K", 256 * 1024), ("1M", 1 << 20), ("2g", 2 << 30)],
    )
    def test_parse_size(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("text", ["", "K", "12.5K", "-1", "1T"])
    def test_parse_size_rejects_junk(self, text):
        with pytest.raises(Exception):
            parse_size(text)

    def test_parse_size_list(self):
        assert parse_size_list("256K,1M") == (256 * 1024, 1 << 20)

    def test_parse_int_list(self):
        assert parse_int_list("4,8,16") == (4, 8, 16)
        with pytest.raises(Exception, match="integer list"):
            parse_int_list("4,eight")

    def test_parse_k_range(self):
        assert parse_k_range("1:10") == (1, 10)
        assert parse_k_range("4") == (4, 4)

    @pytest.mark.parametrize("text", ["5:2", "-1:3", "a:b"])
    def test_parse_k_range_rejects_junk(self, text):
        with pytest.raises(Exception):
            parse_k_range(text)

    @pytest.mark.parametrize(
        "size,expected",
        [(64, "64"), (3072, "3K"), (256 * 1024, "256K"), (1 << 20, "1M"), (1 << 30, "1G"), (1500, "1500")],
    )
    def test_format_size(self, size, expected):
        assert format_size(size) == expected

    def test_format_value(self):
        assert format_value(None) == ""
        assert format_value(True) == "true"
        assert format_value(False) == "false"
        assert format_value(42) == "42"
        assert format_value(0.5) == "0.5"
        assert format_value(1 / 3) == format(1 / 3, ".17g")

    def test_json_lines_write_non_finite_floats_as_csv_text(self, tmp_path):
        out = tmp_path / "x.jsonl"
        cells = {"a": math.inf, "b": -math.inf, "c": math.nan, "d": 0.5}
        write_rows(out, tuple(cells), [cells], "json-lines")
        row = json.loads(out.read_text(), parse_constant=reject_constant)
        assert row == {"a": "inf", "b": "-inf", "c": "nan", "d": 0.5}
        assert [row[name] for name in "abc"] == [format_value(cells[name]) for name in "abc"]

    def test_every_option_has_help_text(self):
        commands = cli.build_parser()._subparsers._group_actions[0].choices
        missing = [
            (name, action.option_strings)
            for name, command in commands.items()
            for action in command._actions
            if not action.help
        ]
        assert missing == []

    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--size", "1M", "--assoc", "8", "--gen", "uniform"],
         ["gen-trace", "--kind", "uniform", "--out", "t.trace"]],
    )
    def test_generator_flag_defaults_are_generate_traces(self, argv):
        args = cli.build_parser().parse_args(argv)
        flags = {"address_bits": args.addr_bits, "block_size": args.block, "stride": args.stride,
                 "base": args.base, "exponent": args.zipf_exponent, "num_blocks": args.num_blocks}
        keywords = inspect.signature(generate_trace).parameters.values()
        assert flags == {p.name: p.default for p in keywords if p.kind is p.KEYWORD_ONLY}

    # (columns, rows, CSV text, JSON lines text)
    FRAMING_CASES = {
        "one-column": (("a",), [{"a": 1}], "a\n1\n", '{"a": 1}\n'),
        "several-rows": (
            ("a", "b"),
            [{"a": 1, "b": 0.5}, {"a": 2, "b": None, "c": 3}, {"a": True, "b": "x"}],
            "a,b\n1,0.5\n2,\ntrue,x\n",
            '{"a": 1, "b": 0.5}\n{"a": 2, "b": null}\n{"a": true, "b": "x"}\n',
        ),
        "non-finite": (
            ("a", "b"),
            [{"a": math.inf, "b": 1}, {"a": 0.1, "b": math.nan}],
            "a,b\ninf,1\n0.10000000000000001,nan\n",
            '{"a": "inf", "b": 1}\n{"a": 0.1, "b": "nan"}\n',
        ),
        "no-rows": (("a", "b"), [], "a,b\n", ""),
    }

    @pytest.mark.parametrize("case", FRAMING_CASES)
    @pytest.mark.parametrize("output_format", ["csv", "json-lines"])
    def test_write_rows_framing(self, tmp_path, case, output_format):
        columns, rows, csv_text, json_text = self.FRAMING_CASES[case]
        out = tmp_path / "rows"
        assert write_rows(out, columns, rows, output_format) == len(rows)
        assert out.read_text() == (csv_text if output_format == "csv" else json_text)

    def test_write_rows_rejects_unknown_formats(self, tmp_path):
        with pytest.raises(ValueError, match="output format"):
            write_rows(tmp_path / "x", ("a",), [{"a": 1}], "xml")
        assert not (tmp_path / "x").exists()

    def test_write_rows_refuses_a_non_ascii_cell_before_opening_the_file(self, tmp_path):
        out = tmp_path / "x.csv"
        out.write_bytes(b"earlier bytes\n")
        with pytest.raises(ValueError, match="not ASCII: '1,café'"):
            write_rows(out, ("a", "b"), [{"a": "a", "b": 1}, {"a": 1, "b": "café"}], "csv")
        assert out.read_bytes() == b"earlier bytes\n"


STRICT_JSON = json.JSONEncoder(allow_nan=False)


def json_reference(value) -> str:
    """A cell as the json module writes it; inf and nan, which JSON lacks,
    as their CSV cell text in quotes."""
    if isinstance(value, float) and not math.isfinite(value):
        return STRICT_JSON.encode(format_value(value))
    return STRICT_JSON.encode(value)


# output format -> a cell's reference text
REFERENCES = {"csv": format_value, "json-lines": json_reference}

EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e22, 0.1, math.inf, -math.inf, math.nan]
CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2**63, 2**70),
    st.integers(-(2**70), -(2**63)),
    st.floats(),
    st.sampled_from(EDGE_FLOATS),
    st.floats().map(np.float64),
    st.text(),
)
# columns of one kind take the one-map path; any other column goes cell by cell
COLUMNS = st.one_of(
    st.lists(CELLS, min_size=1),
    st.lists(st.integers(), min_size=1),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1),
    st.lists(st.floats(), min_size=1),
)


class TestCellEncoder:
    """The sweep's column encoder against the json module and format_value."""

    @given(cell=CELLS)
    def test_a_cell_matches_the_reference(self, cell):
        for output_format, reference in REFERENCES.items():
            cell_text, float_text = cli._FORMATS[output_format][:2]
            assert cell_text(cell) == reference(cell)
            if type(cell) is float and math.isfinite(cell):
                assert float_text(cell) == reference(cell)

    @given(column=COLUMNS)
    def test_a_column_matches_the_reference(self, column):
        for output_format, reference in REFERENCES.items():
            cell, float_text = cli._FORMATS[output_format][:2]
            assert list(cli._texts(column, cell, float_text)) == list(map(reference, column))

    @given(column=COLUMNS, shared=CELLS)
    def test_a_run_matches_the_reference(self, column, shared):
        # a shared cell is encoded once into the row template, a % in it too;
        # the rows come as ASCII bytes, a break between each two, with their
        # count, and a run with a row that is not ASCII is refused
        run = {"a": column, "b": shared, "c": "%d%%", "d": column}
        rows = [(a, shared, "%d%%", a) for a in column]
        references = {
            "csv": [",".join(map(format_value, row)) for row in rows],
            "json-lines": [
                ", ".join(f'"{name}": {json_reference(value)}' for name, value in zip(run, row))
                for row in rows
            ],
        }
        for output_format, texts in references.items():
            encode = cli._encoder(output_format)
            if all(map(str.isascii, texts)):
                encoded = cli._BREAK.join(text.encode("ascii") for text in texts)
                assert encode(run) == (encoded, len(texts))
            else:
                with pytest.raises(ValueError, match="not ASCII"):
                    encode(run)

    @pytest.mark.parametrize(
        "column",
        [[1, 2.5], [0.5, None], [1.0, math.inf], [math.nan, 2.0], [np.float64(0.5), 0.25],
         [True, 1], [2**64, "x"]],
    )
    def test_a_mixed_column_goes_cell_by_cell(self, column):
        for output_format, reference in REFERENCES.items():
            cell, float_text = cli._FORMATS[output_format][:2]
            seen = []

            def spy(value):
                seen.append(value)
                return cell(value)

            assert list(cli._texts(column, spy, float_text)) == list(map(reference, column))
            assert seen == column


class TestAnalyze:
    def test_reference_configuration(self, capsys):
        assert main(["analyze", "--size", "1M", "--assoc", "8", "--addr-bits", "40"]) == 0
        report = report_dict(capsys.readouterr().out)
        assert report["tag_bits"] == "23"
        assert report["k_min"] == "4"
        assert report["k"] == "4"
        assert float(report["expected_total_bits"]) == 41.5
        assert float(report["baseline_bits_per_access"]) == 184
        assert float(report["k_optimal"]) == pytest.approx(3.8362568775625316)
        assert float(report["read_reduction_percent"]) == pytest.approx(
            100 * (1 - 41.5 / 184)
        )

    def test_explicit_splitting_point(self, capsys):
        assert main(["analyze", "--size", "1M", "--assoc", "8", "--k", "2"]) == 0
        report = report_dict(capsys.readouterr().out)
        assert report["k"] == "2"
        assert report["k_min"] == "4"  # the optimum is reported regardless

    def test_a_one_bit_tag_has_no_optimum_to_report_even_with_k(self, capsys):
        assert main(["analyze", *ONE_TAG_BIT, "--k", "1"]) == 2
        assert "tag_bits must be >= 2, got 1" in capsys.readouterr().err

    def test_impossible_geometry_exits_2(self, capsys):
        code = main(["analyze", "--size", "8M", "--assoc", "1", "--addr-bits", "16"])
        assert code == 2
        assert "tag length not positive" in capsys.readouterr().err

    # 1M, 8 ways, 40 address bits: 23 tag bits; None is the default, the optimum
    @pytest.mark.parametrize("k", [0, None, 23])
    def test_each_line_named_like_a_sweep_column_prints_the_sweep_rows_cell(
        self, k, tmp_path, capsys
    ):
        flags = [] if k is None else ["--k", str(k)]
        assert main(["analyze", "--size", "1M", "--assoc", "8", "--addr-bits", "40", *flags]) == 0
        report = report_dict(capsys.readouterr().out)
        split = k_min_integer(23, 8).k_min if k is None else k
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--sizes", "1M", "--assocs", "8", "--addr-bits", "40",
                     "--k-range", f"{split}:{split}", "--out", str(out)]) == 0
        header, line = out.read_text().splitlines()
        row = dict(zip(header.split(","), line.split(",")))
        shared = set(report) & set(SWEEP_COLUMNS)
        # every analytic column but total_bits, which analyze names expected_total_bits
        assert shared == set(SWEEP_COLUMNS[:13]) - {"total_bits"}
        assert {name: report[name] for name in shared} == {name: row[name] for name in shared}
        assert report["expected_total_bits"] == row["total_bits"]
        assert report["k"] == str(split)


class TestSweep:
    ARGS = [
        "sweep",
        "--sizes", "256K,1M",
        "--assocs", "4,8",
        "--addr-bits", "32,40",
        "--k-range", "1:4",
    ]

    def run(self, tmp_path, name="out.csv", extra=()):
        out = tmp_path / name
        assert main(self.ARGS + list(extra) + ["--out", str(out)]) == 0
        return out

    def test_row_count_header_and_order(self, tmp_path):
        out = self.run(tmp_path)
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 1 + 2 * 2 * 2 * 4
        keys = []
        for line in lines[1:]:
            cells = line.split(",")
            keys.append((int(cells[0]), int(cells[1]), int(cells[2]), int(cells[5])))
        assert keys == sorted(keys)

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        a = self.run(tmp_path, "a.csv")
        b = self.run(tmp_path, "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_read_back_self_check_passes(self, tmp_path):
        rows = read_sweep_csv(self.run(tmp_path))
        assert len(rows) == 32
        assert {row.k_min for row in rows} <= {3, 4}
        assert all(row.sim_bits_per_access is None for row in rows)
        # k * ways, written as 24, not 24.0, reads back as the int the sweep holds
        assert {type(row.first_step_bits) for row in rows} == {int}

    def test_read_back_catches_tampering(self, tmp_path):
        out = self.run(tmp_path)
        lines = out.read_text().splitlines()
        cells = lines[1].split(",")
        # spelled as the sweep writes 999.0, so that the self-check, not the cell rule, refuses it
        cells[SWEEP_COLUMNS.index("total_bits")] = "999"
        lines[1] = ",".join(cells)
        out.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="self-check: total_bits"):
            read_sweep_csv(out)

    # per case: the column the self-check names, the column edited and the
    # edit of its cell text; every other cell of the row is left as written
    DERIVED_EDITS = {
        "tag_bits": ("tag_bits", "tag_bits", cell_plus(1)),
        "first_step_bits": ("first_step_bits", "first_step_bits", cell_plus(1)),
        "expected_second_step_bits": (
            "expected_second_step_bits", "expected_second_step_bits", cell_times(1 + 1e-6)
        ),
        "total_bits": ("total_bits", "total_bits", cell_times(1 + 1e-6)),
        "reduction_ratio": ("reduction_ratio", "reduction_ratio", cell_times(1 + 1e-6)),
        # k_min is still the rounding of the edited value
        "k_optimal": ("k_optimal", "k_optimal", cell_plus(0.01)),
        "k_optimal-inf": ("k_optimal", "k_optimal", lambda text: "inf"),
        "k_min": ("k_min", "k_min", cell_plus(1)),
        "is_round_of_continuous": (
            "is_round_of_continuous",
            "is_round_of_continuous",
            {"true": "false", "false": "true"}.get,
        ),
        "sim_relative_error": ("sim_relative_error", "sim_relative_error", cell_plus(1e-3)),
        "sim_relative_error-without-sim_bits_per_access": (
            "sim_relative_error", "sim_bits_per_access", lambda text: ""
        ),
        "mttf_ratio": ("mttf_ratio", "mttf_ratio", cell_times(1 + 1e-6)),
        # the sweep writes the two cost cells together or not at all
        "mttf_ratio-without-energy_ratio": ("mttf_ratio", "energy_ratio", lambda text: ""),
        "mttf_ratio-empty": ("mttf_ratio", "mttf_ratio", lambda text: ""),
        # every float cell reads back as the double written, so one ulp is a change
        "expected_second_step_bits-ulp": (
            "expected_second_step_bits", "expected_second_step_bits", cell_ulp
        ),
        "total_bits-ulp": ("total_bits", "total_bits", cell_ulp),
        "reduction_ratio-ulp": ("reduction_ratio", "reduction_ratio", cell_ulp),
        "k_optimal-ulp": ("k_optimal", "k_optimal", cell_ulp),
        "sim_relative_error-ulp": ("sim_relative_error", "sim_relative_error", cell_ulp),
        "sim_relative_error-ulp-of-sim_bits_per_access": (
            "sim_relative_error", "sim_bits_per_access", cell_ulp
        ),
        "mttf_ratio-ulp": ("mttf_ratio", "mttf_ratio", cell_ulp),
    }

    @pytest.mark.parametrize(
        "case, simulate",
        [pytest.param(case, ["--simulate", "--trace-length", "300"], id=case)
         for case in DERIVED_EDITS]
        + [pytest.param(case, [], id=f"analytic-{case}")
           for case in ("expected_second_step_bits-ulp", "total_bits-ulp",
                        "reduction_ratio-ulp", "k_optimal-ulp", "mttf_ratio-ulp")],
    )
    def test_read_back_rejects_edited_derived_columns(self, tmp_path, case, simulate):
        column, edited, edit = self.DERIVED_EDITS[case]
        out = tmp_path / "sim.csv"
        args = ["sweep", "--sizes", "64K", "--assocs", "4", "--addr-bits", "32",
                "--k-range", "2:4", *simulate,
                "--params", params_file(tmp_path), "--out", str(out)]
        assert main(args) == 0
        assert len(read_sweep_csv(out)) == 3
        lines = out.read_text().splitlines()
        cells = lines[2].split(",")
        index = SWEEP_COLUMNS.index(edited)
        cells[index] = edit(cells[index])
        lines[2] = ",".join(cells)
        out.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            read_sweep_csv(out)
        assert str(info.value) == f"{out}, line 3 fails self-check: {column}"

    def test_read_back_rejects_foreign_headers(self, tmp_path):
        path = tmp_path / "foreign.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="unexpected sweep header"):
            read_sweep_csv(path)

    def test_read_back_rejects_a_header_without_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(SWEEP_COLUMNS) + "\n")
        with pytest.raises(ValueError, match="no sweep rows") as info:
            read_sweep_csv(path)
        assert str(info.value) == f"{path}: no sweep rows"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda cells: cells[:10], ", column k_optimal: missing"),
            (lambda cells: cells[:15], ", column energy_ratio: missing"),
            (lambda cells: cells + ["1"], ", column 18: a cell after mttf_ratio"),
            (lambda cells: cells[:8] + ["x"] + cells[9:], ", column total_bits: could not convert"),
            (lambda cells: cells[:4] + [""] + cells[5:], ", column tag_bits: invalid literal"),
            (lambda cells: cells[:12] + ["True"] + cells[13:], ", column is_round_of_continuous:"),
            (lambda cells: cells[:1] + ["3"] + cells[2:], ": associativity must be"),
            # spellings that int() and float() take but the sweep never writes
            (lambda cells: [f"{int(cells[0]):_}"] + cells[1:],
             ", column cache_size: not a cell the sweep writes: '262_144'"),
            (lambda cells: cells[:1] + [" " + cells[1]] + cells[2:],
             ", column associativity: not a cell the sweep writes: ' 4'"),
            (lambda cells: cells[:2] + ["+" + cells[2]] + cells[3:],
             ", column address_bits: not a cell the sweep writes: '+32'"),
            (lambda cells: cells[:8] + [cells[8] + "e0"] + cells[9:],
             ", column total_bits: not a cell the sweep writes: "),
            (lambda cells: cells[:15] + ["1e400", "1"], ", column energy_ratio: not a cell"),
            (lambda cells: cells[:15] + ["NaN", "1"], ", column energy_ratio: not a cell"),
            (lambda cells: cells[:15] + [" 0.5", "1"], ", column energy_ratio: not a cell"),
        ],
        ids=["truncated", "truncated-optional", "extra-cell", "bad-float", "empty-int",
             "bool-spelling", "bad-config", "int-underscore", "int-padded", "int-plus",
             "float-exponent", "energy-ratio-overflow", "energy-ratio-NaN",
             "energy-ratio-padded"],
    )
    def test_read_back_names_the_line_and_column_of_malformed_rows(self, tmp_path, edit, message):
        out = self.run(tmp_path)
        lines = out.read_text().splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        out.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            read_sweep_csv(out)
        assert str(info.value).startswith(f"{out}, line 3{message}")

    def test_read_back_names_a_k_beyond_a_one_bit_tag_before_its_optimum(self, tmp_path):
        # a 1-bit tag has no optimum; the row's k beyond the tag is named first
        row = {**dict.fromkeys(SWEEP_COLUMNS, ""), "cache_size": "262144", "associativity": "8",
               "address_bits": "16", "block_size": "64", "tag_bits": "1", "k": "5",
               "first_step_bits": "40", "expected_second_step_bits": "0",
               "total_bits": "40", "reduction_ratio": "5", "k_optimal": "1",
               "k_min": "1", "is_round_of_continuous": "true"}
        path = tmp_path / "one-bit.csv"
        path.write_text(",".join(SWEEP_COLUMNS) + "\n" + ",".join(row.values()) + "\n")
        with pytest.raises(ValueError) as info:
            read_sweep_csv(path)
        assert str(info.value) == (
            f"{path}, line 2: splitting point k must be an integer in [0, 1], got 5"
        )

    def test_read_back_names_the_line_and_column_of_a_non_ascii_byte(self, tmp_path):
        out = self.run(tmp_path)
        lines = out.read_bytes().split(b"\n")
        # a no-break space, which int() would strip from a latin-1 decoded cell
        lines[2] = b"\xa0" + lines[2]
        out.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError) as info:
            read_sweep_csv(out)
        assert str(info.value).startswith(f"{out}, line 3, column cache_size: ")

    def test_invalid_grid_entries_are_all_reported(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--sizes", "100,256K",
                "--assocs", "3",
                "--addr-bits", "40",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid grid entries" in err
        assert "size=100" in err and "size=262144" in err
        assert not (tmp_path / "x.csv").exists()

    def test_k_range_beyond_every_tag_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--sizes", "8M",
                "--assocs", "4",
                "--addr-bits", "32",
                "--k-range", "1:12",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        assert "exceeds the longest tag" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_k_range_starting_above_a_tag_exits_2(self, tmp_path, capsys):
        # 1M of 8 ways leaves a 7-bit tag at 24 address bits and 23 bits at 40
        out = tmp_path / "x.csv"
        args = ["sweep", "--sizes", "1M", "--assocs", "8", "--addr-bits", "24,40",
                "--k-range", "10:12", "--out", str(out)]
        assert main(args) == 2
        assert "k range 10:12 starts above tags in the grid (7 bits)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("simulate", [(), ("--simulate", "--trace-length", "500")],
                             ids=["analytic", "simulate"])
    def test_csv_and_json_lines_hold_the_same_rows(self, tmp_path, simulate):
        # 256K at 32 address bits and 1M at 34 share the 16-bit tag at 4 ways;
        # 1M at 32 has 14 tag bits, so HI 15 clips it
        args = ["sweep", "--sizes", "256K,1M", "--assocs", "4", "--addr-bits", "32,34",
                "--k-range", "12:15", "--params", params_file(tmp_path), *simulate]
        csv_out, json_out = tmp_path / "out.csv", tmp_path / "out.jsonl"
        assert main(args + ["--out", str(csv_out)]) == 0
        assert main(args + ["--format", "json-lines", "--out", str(json_out)]) == 0
        csv_rows = [dataclasses.asdict(row) for row in read_sweep_csv(csv_out)]
        json_rows = [
            json.loads(line, parse_constant=reject_constant)
            for line in json_out.read_text().splitlines()
        ]
        assert [(row["tag_bits"], row["k"]) for row in csv_rows] == [
            *((16, k) for k in range(12, 16)), *((18, k) for k in range(12, 16)),
            *((14, k) for k in range(12, 15)), *((16, k) for k in range(12, 16)),
        ]
        assert len(json_rows) == len(csv_rows)
        for csv_row, json_row in zip(csv_rows, json_rows):
            assert list(json_row) == list(SWEEP_COLUMNS)
            # cell for cell, floats exactly: == between numbers is exact
            assert json_row == csv_row
            assert (json_row["sim_bits_per_access"] is None) == (not simulate)

    def test_each_split_is_evaluated_once_per_tag_length_and_ways(self, tmp_path, monkeypatch):
        # 256K at 42 address bits and 1M at 44 share every (tag_bits, ways) pair
        calls = collections.Counter()

        def counting(tag_bits, ways, ks):
            calls[(tag_bits, ways, tuple(ks))] += 1
            return model_split_columns(tag_bits, ways, ks)

        model_split_columns = cli.split_columns
        monkeypatch.setattr(cli, "split_columns", counting)
        out = tmp_path / "out.csv"
        args = ["sweep", "--sizes", "256K,1M", "--assocs", "4,8", "--addr-bits", "42,44",
                "--k-range", "1:6", "--params", params_file(tmp_path), "--out", str(out)]
        assert main(args) == 0
        sweep_calls = calls.copy()  # read_sweep_csv re-evaluates every row
        rows = read_sweep_csv(out)
        assert len(rows) == 2 * 2 * 2 * 6
        # one column call per pair, holding the pair's whole k range
        assert sweep_calls == collections.Counter(
            {(row.tag_bits, row.associativity, tuple(range(1, 7))): 1 for row in rows}
        )
        assert len(sweep_calls) == 3 * 2

    def test_simulation_generates_one_trace_per_address_width(self, tmp_path, monkeypatch):
        generated, simulated = [], []

        def generate(*args, **params):
            generated.append(params["address_bits"])
            return real_generate(*args, **params)

        def run(state, trace):
            simulated.append(state.k)
            return real_run(state, trace)

        real_generate, real_run = cli.generate_trace, cli.run_trace
        monkeypatch.setattr(cli, "generate_trace", generate)
        monkeypatch.setattr(cli, "run_trace", run)
        out = tmp_path / "sim.csv"
        args = ["sweep", "--sizes", "16K,64K", "--assocs", "2,4", "--addr-bits", "32,36",
                "--k-range", "2:4", "--simulate", "--trace-length", "500", "--out", str(out)]
        assert main(args) == 0
        assert generated == [32, 36]
        assert simulated == [row.k for row in read_sweep_csv(out)]
        assert len(simulated) == 2 * 2 * 2 * 3

    def test_each_simulated_rows_counter_identities_are_checked(self, tmp_path, monkeypatch, capsys):
        # the third row's, the second grid point's first, is one access short
        calls = fail_identity_on_call(monkeypatch, 3)
        out = tmp_path / "sim.csv"
        args = ["sweep", "--sizes", "64K,256K", "--assocs", "4", "--addr-bits", "32",
                "--k-range", "2:3", "--simulate", "--trace-length", "500", "--out", str(out)]
        assert main(args) == 4
        assert capsys.readouterr().err == (
            "internal invariant violated: counter identity violated: "
            "histogram sums to accesses\n"
        )
        assert calls == [2, 3, 2]
        # every row is checked before the file is opened, so the first grid
        # point's rows, which passed, are not written either
        assert not out.exists()

    def test_simulation_beyond_the_generators_address_width_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        args = ["sweep", "--sizes", "64K", "--assocs", "4", "--addr-bits", "40,72",
                "--simulate", "--trace-length", "100", "--out", str(out)]
        assert main(args) == 2
        assert "1..64 bits, got 72" in capsys.readouterr().err
        assert not out.exists()

    def test_cost_columns_appear_with_params(self, tmp_path):
        out = self.run(tmp_path, extra=["--params", params_file(tmp_path)])
        for row in read_sweep_csv(out):
            assert row.energy_ratio is not None and row.mttf_ratio is not None
            assert row.energy_ratio * row.mttf_ratio == pytest.approx(1.0, abs=1e-9)

    def test_params_without_any_energy_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        args = self.ARGS + ["--params", params_file(tmp_path, **ZERO_ENERGY), "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        for key in ZERO_ENERGY:
            assert key in err
        assert not out.exists()

    def test_simulation_columns(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(
            [
                "sweep",
                "--sizes", "256K",
                "--assocs", "4",
                "--addr-bits", "32",
                "--k-range", "2:3",
                "--simulate",
                "--trace-length", "2000",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_sweep_csv(out)
        assert len(rows) == 2
        for row in rows:
            assert row.sim_bits_per_access is not None
            assert abs(row.sim_relative_error) < 0.05

    def test_json_lines_format(self, tmp_path):
        out = tmp_path / "out.jsonl"
        assert main(self.ARGS + ["--format", "json-lines", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 32
        record = json.loads(lines[0])
        assert set(record) == set(SWEEP_COLUMNS)
        assert record["sim_bits_per_access"] is None

    def test_an_analytic_sweep_holds_little_beyond_its_encoded_tails(self):
        # each (tag_bits, ways) pair's rows are one bytes object; as a list of
        # one str per row they held 1.24 times the bytes
        args = cli.build_parser().parse_args([
            "sweep", "--sizes", "32K,512K,8M", "--assocs", "1,4,16,64",
            "--addr-bits", "40,48,56,64", "--k-range", "1:20", "--format", "json-lines",
            "--out", "unused"])
        encode = cli._encoder(args.format)
        cli.evaluate_sweep(args, encode)  # fills the model's caches
        tracemalloc.start()
        try:
            blocks = list(cli.evaluate_sweep(args, encode))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        tails = {id(tails): tails for _, (tails, _) in blocks}.values()
        assert len(blocks) == 3 * 4 * 4 and len(tails) < len(blocks)
        assert held <= 1.10 * sum(map(len, tails))

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        code = main(self.ARGS + ["--out", str(tmp_path / "no-such-dir" / "x.csv")])
        assert code == 3
        assert "i/o error" in capsys.readouterr().err


class TestGenTrace:
    def test_stride_text_file(self, tmp_path, capsys):
        out = tmp_path / "walk.trace"
        code = main(
            ["gen-trace", "--kind", "stride", "--length", "4", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text() == "0\n40\n80\nc0\n"
        assert "wrote 4 addresses" in capsys.readouterr().out

    def test_binary_runs_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.bin", "b.bin"):
            out = tmp_path / name
            assert main(
                ["gen-trace", "--kind", "uniform", "--length", "1000",
                 "--seed", "5", "--out", str(out)]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert len(outs[0]) == 8000

    def test_unknown_extension_exits_2(self, tmp_path, capsys):
        code = main(
            ["gen-trace", "--kind", "uniform", "--length", "10",
             "--out", str(tmp_path / "t.dat")]
        )
        assert code == 2
        assert "cannot infer trace format" in capsys.readouterr().err

    def test_unknown_extension_is_rejected_before_generating(self, tmp_path, monkeypatch, capsys):
        def generate(*args, **params):
            raise AssertionError("generated a trace for an unusable output path")

        monkeypatch.setattr(cli, "_trace_slices", generate)
        out = tmp_path / "t.csv"
        code = main(["gen-trace", "--kind", "uniform", "--length", "10", "--out", str(out)])
        assert code == 2
        assert f"cannot infer trace format from {str(out)!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_a_trace_too_large_for_memory_exits_2_naming_the_allocation(
        self, tmp_path, monkeypatch, capsys
    ):
        # numpy's message for a zipf population's cdf, which _trace_slices
        # builds before the file is opened; the test never asks for such an
        # allocation, as under memory overcommit it could succeed and the
        # fill then exhaust memory
        refusal = ("Unable to allocate 8.00 TiB for an array with shape (1099511627776,) "
                   "and data type float64")

        def generate(*args, **params):
            raise MemoryError(refusal)

        monkeypatch.setattr(cli, "_trace_slices", generate)
        out = tmp_path / "t.bin"
        code = main(["gen-trace", "--kind", "zipf-block", "--num-blocks", "1099511627776",
                     "--addr-bits", "64", "--out", str(out)])
        assert (code, *capsys.readouterr()) == (2, "", f"error: {refusal}\n")
        assert not out.exists()

    @pytest.mark.parametrize("name, bound", [("t.bin", 3), ("t.trace", 6)])
    def test_a_trace_is_written_one_slice_at_a_time(self, tmp_path, name, bound, capsys):
        # the whole trace alone took 8 B per address: 8.05 in all to .bin and
        # 10.7 to .trace, where one 2**16-address chunk's list adds 2.5 MiB;
        # one 2**18-address slice at a time, 2.17 and 4.83
        out = tmp_path / name
        args = ["gen-trace", "--kind", "uniform", "--out", str(out), "--length"]
        assert main([*args, "1"]) == 0  # first-call imports and allocations
        tracemalloc.start()
        try:
            assert main([*args, "1000000"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 1_000_000 < bound
        assert capsys.readouterr().out.endswith(f"wrote 1000000 addresses to {out}\n")
        read = read_trace_binary if name.endswith(".bin") else read_trace_text
        assert np.array_equal(read(out), generate_trace("uniform", 1_000_000))


class TestSimulate:
    CONFIG = ["--size", "64K", "--assoc", "8", "--addr-bits", "32"]

    def test_generated_trace_report(self, capsys):
        code = main(
            ["simulate", *self.CONFIG, "--k", "4", "--gen", "uniform",
             "--length", "2000", "--warm"]
        )
        assert code == 0
        out = capsys.readouterr().out
        report = report_dict(out)
        assert report["accesses"] == "2000"
        assert report["warmed"] == "true"
        assert int(report["hits"]) + int(report["misses"]) == 2000
        assert float(report["relative_error"]) == pytest.approx(0.0, abs=0.05)
        assert float(report["normalized_reads"]) < 0.5
        assert "survivor_histogram:" in out
        assert "single-step comparison" in out

    @pytest.mark.parametrize("warm", [False, True])
    def test_counter_lines_print_the_counters_of_run_trace(self, warm, tmp_path, capsys):
        trace_path = tmp_path / "t.trace"
        assert main(["gen-trace", "--kind", "zipf-block", "--length", "3000", "--addr-bits", "32",
                     "--num-blocks", "4096", "--out", str(trace_path)]) == 0
        capsys.readouterr()
        flags = ["--warm"] if warm else []
        assert main(["simulate", *self.CONFIG, "--k", "3", "--trace", str(trace_path), *flags]) == 0
        report = report_dict(capsys.readouterr().out)
        state = CacheState(CacheConfig(32, 64 * 1024, 64, 8), 3)
        if warm:
            warm_fill(state)
        stats = run_trace(state, read_trace_text(trace_path))
        counters = ("accesses", "hits", "misses", "step1_bit_reads", "step2_bit_reads",
                    "total_bit_reads", "bits_per_access")
        assert {name: report[name] for name in counters} == {
            name: format_value(getattr(stats, name)) for name in counters
        }
        assert report["warmed"] == format_value(warm)
        histogram = dict(pair.split(":") for pair in report["survivor_histogram"].split())
        assert histogram == {
            str(s): str(count) for s, count in enumerate(stats.matched_way_histogram) if count
        }

    def test_trace_file_round_trip(self, tmp_path, capsys):
        trace_path = tmp_path / "t.trace"
        main(["gen-trace", "--kind", "uniform", "--length", "500",
              "--addr-bits", "32", "--out", str(trace_path)])
        capsys.readouterr()
        code = main(["simulate", *self.CONFIG, "--trace", str(trace_path)])
        assert code == 0
        report = report_dict(capsys.readouterr().out)
        assert report["accesses"] == "500"
        # k defaulted to the optimum for 19 tag bits
        assert report["k"] == str(k_min_integer(19, 8).k_min)

    def test_csv_row_output(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = main(
            ["simulate", *self.CONFIG, "--k", "4", "--gen", "uniform",
             "--length", "1000", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(SIM_COLUMNS)
        assert len(lines) == 2
        cells = dict(zip(SIM_COLUMNS, lines[1].split(",")))
        assert cells["accesses"] == "1000"
        assert cells["energy_joules"] == ""  # no params given
        # each report line named like a column prints that cell's text; without
        # params the four cost columns have no line and an empty cell
        report = report_dict(capsys.readouterr().out)
        assert set(SIM_COLUMNS) - set(report) == set(SIM_COLUMNS[-4:])
        assert {name: report.get(name, "") for name in SIM_COLUMNS} == cells

    def test_cost_report_with_params(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        params = params_file(tmp_path)
        code = main(
            ["simulate", *self.CONFIG, "--k", "4", "--gen", "uniform",
             "--length", "1000", "--warm", "--params", params, "--out", str(out)]
        )
        assert code == 0
        report = report_dict(capsys.readouterr().out)
        assert float(report["energy_joules"]) > 0
        assert 0 < float(report["reliability"]) <= 1
        assert float(report["mttf_seconds"]) > 0
        # the run's ratios: this trace's bits against its own k = n baseline
        run_ratio = float(report["baseline_bits_per_access"]) / float(report["bits_per_access"])
        assert float(report["mttf_ratio"]) == pytest.approx(run_ratio, rel=1e-12)
        baseline_mttf = mttf_from_bits(
            int(report["accesses"]) * float(report["baseline_bits_per_access"]),
            load_params(params),
        )
        assert float(report["mttf_seconds"]) / float(report["mttf_ratio"]) == pytest.approx(
            baseline_mttf, rel=1e-12
        )
        cells = dict(
            zip(SIM_COLUMNS, out.read_text().splitlines()[1].split(","))
        )
        assert float(cells["energy_ratio"]) * float(cells["mttf_ratio"]) == pytest.approx(
            1.0, abs=1e-9
        )
        # every column is also a report line, printed as the same text
        assert {name: report[name] for name in SIM_COLUMNS} == cells

    def test_a_run_that_reads_no_tag_bits_has_an_infinite_mttf_ratio(self, tmp_path, capsys):
        # k = 0 on a cold cache: the one access finds no valid way, so nothing is read
        code = main(
            ["simulate", *self.CONFIG, "--k", "0", "--gen", "uniform",
             "--length", "1", "--params", params_file(tmp_path)]
        )
        assert code == 0
        report = report_dict(capsys.readouterr().out)
        assert report["total_bit_reads"] == "0"
        assert report["mttf_seconds"] == "inf"
        assert report["mttf_ratio"] == "inf"
        assert report["energy_ratio"] == "0"

    def test_json_lines_row_is_valid_json_without_read_disturbance(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(dict(PARAMS, p_read_disturb=0.0)))
        out = tmp_path / "sim.jsonl"
        code = main(
            ["simulate", *self.CONFIG, "--k", "4", "--gen", "uniform",
             "--length", "1000", "--params", str(params), "--format", "json-lines",
             "--out", str(out)]
        )
        assert code == 0
        row = json.loads(out.read_text(), parse_constant=reject_constant)
        assert tuple(row) == SIM_COLUMNS
        assert row["mttf_seconds"] == "inf"
        assert row["accesses"] == 1000

    def test_params_without_any_energy_exit_2_before_any_output(self, tmp_path, capsys):
        params = params_file(tmp_path, **ZERO_ENERGY)
        code = main(["simulate", *self.CONFIG, "--gen", "uniform", "--length", "100",
                     "--params", params])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "leakage_power" in captured.err

    def test_a_missing_params_file_exits_3_before_the_trace_is_made(
        self, tmp_path, monkeypatch, capsys
    ):
        def generate(*args, **params):
            raise AssertionError("generated a trace before reading the parameters")

        monkeypatch.setattr(cli, "_trace_slices", generate)
        missing = tmp_path / "missing.json"
        out = tmp_path / "sim.csv"
        code = main(["simulate", *self.CONFIG, "--gen", "uniform", "--length", "100",
                     "--params", str(missing), "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(missing) in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--addr-bits", "72", "--gen", "uniform"],
         "error: generated addresses must fit in 1..64 bits, got 72\n"),
        (["--addr-bits", "20", "--gen", "zipf-block", "--num-blocks", "100000"],
         "error: footprint 100000 blocks * 64 B exceeds the 20-bit address space\n"),
    ])
    def test_a_generator_flag_is_refused_before_the_cache_is_warmed(
        self, flags, message, monkeypatch, capsys
    ):
        def warm(state):
            raise AssertionError("warmed the cache before the generator flags were checked")

        monkeypatch.setattr(cli, "warm_fill", warm)
        code = main(["simulate", "--size", "64K", "--assoc", "4", *flags, "--length", "10",
                     "--warm"])
        assert (code, *capsys.readouterr()) == (2, "", message)

    @pytest.mark.parametrize("kind", cli.TRACE_KINDS)
    @pytest.mark.parametrize("warm", [[], ["--warm"]])
    def test_slices_of_any_length_report_as_the_whole_trace(self, kind, warm, monkeypatch,
                                                           capsys):
        args = ["simulate", *self.CONFIG, "--gen", kind, "--length", "2000", *warm]
        assert main(args) == 0
        whole = capsys.readouterr().out
        monkeypatch.setattr(cli, "_TRACE_CHUNK", 333)
        assert main(args) == 0
        assert capsys.readouterr().out == whole

    def test_a_generated_trace_is_held_one_slice_at_a_time(self, capsys):
        # the whole trace alone took 8 B per access, and the run 11.08 in all
        args = ["simulate", "--size", "1M", "--assoc", "8", "--warm", "--gen", "uniform",
                "--length"]
        assert main([*args, "1"]) == 0  # first-call imports and allocations
        args.append("1000000")
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 1_000_000 < 6
        assert report_dict(capsys.readouterr().out)["accesses"] == "1000000"

    def test_running_out_of_memory_exits_2_with_one_line(self, monkeypatch, capsys):
        def slices(*args, **keywords):
            raise MemoryError
            yield

        monkeypatch.setattr(cli, "_trace_slices", slices)
        code = main(["simulate", *self.CONFIG, "--gen", "uniform", "--length", "100"])
        assert (code, *capsys.readouterr()) == (2, "", "error: out of memory\n")

    def test_trace_and_gen_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", *self.CONFIG, "--trace", "x.trace", "--gen", "uniform"])

    def test_a_signed_trace_line_exits_2_naming_the_line(self, tmp_path, capsys):
        trace = tmp_path / "t.trace"
        trace.write_text("40\n-1\n")
        assert main(["simulate", *self.CONFIG, "--trace", str(trace)]) == 2
        assert f"{trace}: line 2: " in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "1"])
    def test_an_explicit_k_simulates_a_one_bit_tag(self, k, capsys):
        code = main(["simulate", *ONE_TAG_BIT, "--k", k, "--gen", "uniform", "--length", "100"])
        assert code == 0
        report = report_dict(capsys.readouterr().out)
        assert (report["tag_bits"], report["k"], report["accesses"]) == ("1", k, "100")

    def test_without_k_a_one_bit_tag_has_no_optimum_to_default_to(self, capsys):
        assert main(["simulate", *ONE_TAG_BIT, "--gen", "uniform", "--length", "100"]) == 2
        assert "tag_bits must be >= 2, got 1" in capsys.readouterr().err

    def test_unknown_trace_extension_exits_2(self, capsys):
        code = main(["simulate", *self.CONFIG, "--trace", "mystery.dat"])
        assert code == 2
        assert "cannot infer trace format" in capsys.readouterr().err


class TestCurves:
    def test_columns_ids_and_normalization(self, tmp_path):
        out = tmp_path / "curves.csv"
        code = main(
            ["curves", "--size", "1M", "--assocs", "4,8", "--addr-bits", "40",
             "--k-range", "1:23", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CURVE_COLUMNS)
        rows = [dict(zip(CURVE_COLUMNS, line.split(","))) for line in lines[1:]]
        # assoc 4 has 22 tag bits, assoc 8 has 23; k is clipped per config
        assert len(rows) == 22 + 23
        assert {row["config_id"] for row in rows} == {"1M-4w-40b", "1M-8w-40b"}
        for row in rows:
            k, n = int(row["k"]), int(row["tag_bits"])
            assert float(row["step1_normalized"]) == pytest.approx(k / n, rel=1e-12)
            total = float(row["step1_normalized"]) + float(row["step2_normalized"])
            assert float(row["total_normalized"]) == pytest.approx(total, rel=1e-12)

    def test_each_curve_is_evaluated_in_one_column_call(self, tmp_path, monkeypatch):
        calls = []

        def counting(tag_bits, ways, ks):
            calls.append((tag_bits, ways, tuple(ks)))
            return model_split_columns(tag_bits, ways, ks)

        model_split_columns = cli.split_columns
        monkeypatch.setattr(cli, "split_columns", counting)
        monkeypatch.setattr(cli, "expected_reads", None)
        out = tmp_path / "curves.csv"
        assert main(["curves", "--size", "1M", "--assocs", "4,8", "--addr-bits", "40",
                     "--k-range", "0:22", "--out", str(out)]) == 0
        # 1M at 40 address bits leaves 22 tag bits at 4 ways and 23 at 8
        assert calls == [(22, 4, tuple(range(23))), (23, 8, tuple(range(23)))]

    def test_k_range_beyond_every_tag_exits_2(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        code = main(
            ["curves", "--size", "8M", "--assocs", "4", "--addr-bits", "32",
             "--k-range", "1:12", "--out", str(out)]
        )
        assert code == 2
        assert "exceeds the longest tag" in capsys.readouterr().err
        assert not out.exists()

    def test_k_range_starting_above_a_tag_exits_2(self, tmp_path, capsys):
        # at 28 address bits, 1M leaves 10 tag bits at 4 ways and 11 at 8
        out = tmp_path / "curves.csv"
        code = main(
            ["curves", "--size", "1M", "--assocs", "4,8", "--addr-bits", "28",
             "--k-range", "11:11", "--out", str(out)]
        )
        assert code == 2
        assert "k range 11:11 starts above tags in the grid (10 bits)" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_associativities_are_all_reported(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        code = main(["curves", "--size", "1M", "--assocs", "3,5,8", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid grid entries" in err
        assert "assoc=3 " in err and "assoc=5 " in err
        assert not out.exists()


# a failing invocation of each command that writes a file, without its --out:
# (arguments, output file name, run_trace call made to fail or None, exit
# code, a fragment of the error)
FAILING_WRITES = {
    "sweep-simulate": (
        ["sweep", "--sizes", "64K,256K", "--assocs", "4", "--addr-bits", "32",
         "--k-range", "2:3", "--simulate", "--trace-length", "500"],
        "out.csv", 3, 4, "histogram sums to accesses",
    ),
    "sweep": (
        ["sweep", "--sizes", "1M", "--assocs", "8", "--addr-bits", "32,17"],
        "out.csv", None, 2, "addr_bits=17 block=64: tag length not positive",
    ),
    "curves": (
        ["curves", "--size", "8M", "--assocs", "4", "--addr-bits", "32", "--k-range", "1:12"],
        "out.csv", None, 2, "exceeds the longest tag",
    ),
    "simulate": (
        ["simulate", "--size", "64K", "--assoc", "4", "--addr-bits", "32",
         "--gen", "uniform", "--length", "500"],
        "out.csv", 1, 4, "histogram sums to accesses",
    ),
    "gen-trace": (
        ["gen-trace", "--kind", "uniform", "--length", "0"],
        "out.trace", None, 2, "trace length must be >= 1, got 0",
    ),
}


class TestOutputRule:
    """A command computes and checks everything before it opens its output file."""

    @pytest.mark.parametrize("before", [None, b"earlier bytes\n"], ids=["absent", "existing"])
    @pytest.mark.parametrize("case", FAILING_WRITES)
    def test_a_failing_command_leaves_the_output_path_as_it_was(
        self, tmp_path, monkeypatch, capsys, case, before
    ):
        argv, name, failing_call, code, error = FAILING_WRITES[case]
        if failing_call is not None:
            fail_identity_on_call(monkeypatch, failing_call)
        out = tmp_path / name
        if before is not None:
            out.write_bytes(before)
        assert main([*argv, "--out", str(out)]) == code
        assert error in capsys.readouterr().err
        assert (out.read_bytes() if out.exists() else None) == before


class TestEntryPoint:
    def test_module_invocation(self):
        # the child imports the same tagsplit as this process, wherever that came from
        path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, "-m", "tagsplit.cli", "analyze",
             "--size", "1M", "--assoc", "8"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "tag_bits: 23" in proc.stdout
