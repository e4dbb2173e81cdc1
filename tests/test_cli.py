"""Command-line interface: parsing, file outputs, and exit codes."""

import collections
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tagsplit import cli
from tagsplit.costs import load_params, mttf_from_bits
from tagsplit.optimum import k_min_integer
from tagsplit.traces import generate_trace
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


ZERO_ENERGY = dict(energy_per_bit_read=0.0, fixed_energy_per_access=0.0, leakage_power=0.0)


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

    def test_write_rows_rejects_unknown_formats(self, tmp_path):
        with pytest.raises(ValueError, match="output format"):
            write_rows(tmp_path / "x", ("a",), [{"a": 1}], "xml")
        assert not (tmp_path / "x").exists()


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

    def test_read_back_catches_tampering(self, tmp_path):
        out = self.run(tmp_path)
        lines = out.read_text().splitlines()
        cells = lines[1].split(",")
        cells[SWEEP_COLUMNS.index("total_bits")] = "999.0"
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
    }

    @pytest.mark.parametrize("case", DERIVED_EDITS)
    def test_read_back_rejects_edited_derived_columns(self, tmp_path, case):
        column, edited, edit = self.DERIVED_EDITS[case]
        out = tmp_path / "sim.csv"
        args = ["sweep", "--sizes", "64K", "--assocs", "4", "--addr-bits", "32",
                "--k-range", "2:4", "--simulate", "--trace-length", "300",
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
        ],
        ids=["truncated", "truncated-optional", "extra-cell", "bad-float", "empty-int",
             "bool-spelling", "bad-config"],
    )
    def test_read_back_names_the_line_and_column_of_malformed_rows(self, tmp_path, edit, message):
        out = self.run(tmp_path)
        lines = out.read_text().splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        out.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            read_sweep_csv(out)
        assert str(info.value).startswith(f"{out}, line 3{message}")

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

    def test_each_split_is_evaluated_once_per_tag_length_and_ways(self, tmp_path, monkeypatch):
        # 256K at 42 address bits and 1M at 44 share every (tag_bits, ways) pair
        calls = collections.Counter()

        def counting(tag_bits, ways, k):
            calls[(tag_bits, ways, k)] += 1
            return model_expected_reads(tag_bits, ways, k)

        model_expected_reads = cli.expected_reads
        monkeypatch.setattr(cli, "expected_reads", counting)
        out = tmp_path / "out.csv"
        args = ["sweep", "--sizes", "256K,1M", "--assocs", "4,8", "--addr-bits", "42,44",
                "--k-range", "1:6", "--params", params_file(tmp_path), "--out", str(out)]
        assert main(args) == 0
        sweep_calls = calls.copy()  # read_sweep_csv re-evaluates every row
        rows = read_sweep_csv(out)
        assert len(rows) == 2 * 2 * 2 * 6
        assert sweep_calls == collections.Counter(
            {(row.tag_bits, row.associativity, row.k): 1 for row in rows}
        )
        assert len(sweep_calls) == 3 * 2 * 6

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

        monkeypatch.setattr(cli, "generate_trace", generate)
        out = tmp_path / "t.csv"
        code = main(["gen-trace", "--kind", "uniform", "--length", "10", "--out", str(out)])
        assert code == 2
        assert f"cannot infer trace format from {str(out)!r}" in capsys.readouterr().err
        assert not out.exists()


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

        monkeypatch.setattr(cli, "generate_trace", generate)
        missing = tmp_path / "missing.json"
        out = tmp_path / "sim.csv"
        code = main(["simulate", *self.CONFIG, "--gen", "uniform", "--length", "100",
                     "--params", str(missing), "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(missing) in captured.err
        assert not out.exists()

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

    def test_k_range_beyond_every_tag_exits_2(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        code = main(
            ["curves", "--size", "8M", "--assocs", "4", "--addr-bits", "32",
             "--k-range", "1:12", "--out", str(out)]
        )
        assert code == 2
        assert "exceeds the longest tag" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_associativities_are_all_reported(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        code = main(["curves", "--size", "1M", "--assocs", "3,5,8", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid grid entries" in err
        assert "assoc=3 " in err and "assoc=5 " in err
        assert not out.exists()


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
