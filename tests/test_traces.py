"""Synthetic trace generators and the two trace file formats."""

import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tagsplit import traces
from tagsplit.traces import (
    TraceParseError,
    generate_trace,
    read_trace_binary,
    read_trace_text,
    stride_trace,
    uniform_trace,
    write_trace_binary,
    write_trace_text,
    zipf_block_trace,
)


class TestGenerators:
    def test_stride_walk(self):
        assert stride_trace(4, stride=64, base=0).tolist() == [0, 64, 128, 192]

    def test_stride_wraps_at_the_address_space(self):
        trace = stride_trace(3, stride=64, base=(1 << 20) - 64, address_bits=20)
        assert trace.tolist() == [(1 << 20) - 64, 0, 64]

    def test_stride_base_wraps_like_the_stride(self):
        assert np.array_equal(stride_trace(10, base=2**64 + 5), stride_trace(10, base=5))

    def test_uniform_is_deterministic_per_seed(self):
        a = uniform_trace(1000, seed=42, address_bits=40)
        b = uniform_trace(1000, seed=42, address_bits=40)
        c = uniform_trace(1000, seed=43, address_bits=40)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_uniform_respects_the_address_space(self):
        trace = uniform_trace(100_000, seed=1, address_bits=20)
        assert int(trace.max()) < 1 << 20

    def test_uniform_covers_the_space(self):
        # with 2^8 possible values and 10^4 draws, every value should appear
        trace = uniform_trace(10_000, seed=3, address_bits=8)
        assert len(np.unique(trace)) == 256

    def test_zipf_block_concentrates_accesses(self):
        trace = zipf_block_trace(100_000, seed=1, exponent=1.2)
        blocks, counts = np.unique(trace // 64, return_counts=True)
        top_share = counts.max() / trace.size
        assert top_share > 100 * (1.0 / (1 << 18))  # far above uniform share
        assert int(trace.max()) < (1 << 18) * 64

    def test_zipf_block_alignment(self):
        trace = zipf_block_trace(1000, seed=2, block_size=64)
        assert not (trace % 64).any()

    def test_dispatcher_and_kind_validation(self):
        assert np.array_equal(
            generate_trace("uniform", 10, 5, address_bits=32),
            uniform_trace(10, 5, address_bits=32),
        )
        with pytest.raises(ValueError, match="unknown trace kind"):
            generate_trace("sequential", 10, 5)

    @pytest.mark.parametrize("length", [0, -5])
    def test_rejects_empty_traces(self, length):
        with pytest.raises(ValueError, match="length"):
            uniform_trace(length, seed=0)

    @pytest.mark.parametrize("generator", [uniform_trace, zipf_block_trace])
    def test_rejects_a_negative_seed(self, generator):
        with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
            generator(5, seed=-3)

    def test_rejects_bad_zipf_exponent(self):
        with pytest.raises(ValueError, match="exponent"):
            zipf_block_trace(10, seed=0, exponent=0.0)

    def test_rejects_oversized_footprint(self):
        with pytest.raises(ValueError, match="footprint"):
            zipf_block_trace(10, seed=0, num_blocks=1 << 30, address_bits=20)

    def test_rejects_unsupported_address_width(self):
        with pytest.raises(ValueError, match="64"):
            uniform_trace(10, seed=0, address_bits=65)


class TestTextFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.trace"
        trace = uniform_trace(500, seed=9, address_bits=64)
        write_trace_text(path, trace)
        assert np.array_equal(read_trace_text(path), trace)

    def test_writes_bare_lowercase_hex(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace_text(path, [0, 64, 0xDEADBEEF])
        assert path.read_text() == "0\n40\ndeadbeef\n"

    def test_accepts_prefix_comments_and_blanks(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# header comment\n0x40\n\nFF\n")
        assert read_trace_text(path).tolist() == [0x40, 0xFF]

    def test_reports_the_offending_line(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("40\nnot-hex\n")
        with pytest.raises(TraceParseError, match="line 2"):
            read_trace_text(path)

    def test_rejects_values_beyond_64_bits(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("1" + "0" * 16 + "\n")
        with pytest.raises(TraceParseError, match="64 bits"):
            read_trace_text(path)

    def test_rejects_an_empty_file(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# nothing here\n")
        with pytest.raises(TraceParseError, match="no addresses"):
            read_trace_text(path)

    def test_accepts_padding_leading_zeros_and_every_line_end(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_bytes(
            b" \t0XfF\r\n\r\n  # comment\r" + b"0" * 4 + b"f" * 16 + b"\n0x0\v\r\n1"
        )
        assert read_trace_text(path).tolist() == [0xFF, (1 << 64) - 1, 0, 1]

    @pytest.mark.parametrize(
        "line",
        [b"-1", b"+ff", b"f_f", b"0x_1", b"0x", b"0X", b"1 2", b"0xx1", b"ff#", b"\xc3\xa9",
         b"# caf\xc3\xa9", b"0\x00"],
        ids=["minus", "plus", "underscore", "prefix-underscore", "bare-0x", "bare-0X",
             "inner-space", "double-x", "trailing-hash", "non-ascii", "non-ascii-comment", "nul"],
    )
    def test_rejects_what_the_grammar_does_not_allow(self, tmp_path, line):
        path = tmp_path / "t.trace"
        path.write_bytes(b"40\r\n" + line + b"\r\n7\n")
        with pytest.raises(TraceParseError, match=f"^{re.escape(str(path))}: line 2: "):
            read_trace_text(path)

    def test_names_an_error_line_past_the_first_block(self, tmp_path):
        path = tmp_path / "t.trace"
        lines = [f"0x{a:x}" for a in range(3 * traces._TEXT_CHUNK // 4)]
        lines[-2] = "-1"
        path.write_text("\n".join(lines))
        with pytest.raises(TraceParseError, match=f": line {len(lines) - 1}: "):
            read_trace_text(path)


def reference_read_text(path):
    """The addresses of a text trace by the per-line rule, or the line of its first error.

    This is the strip / int(line, 16) loop over text-mode lines that the
    reader used to be, with the signs and underscores that int() accepts
    and non-ASCII lines rejected.  Returns a list of ints, or
    ("error", line number) with None for a file without addresses.
    """
    values = []
    with open(path, "r", encoding="latin-1") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not raw.isascii():
                return ("error", lineno)
            if not line or line.startswith("#"):
                continue
            if any(c in line for c in "+-_"):
                return ("error", lineno)
            try:
                value = int(line, 16)
            except ValueError:
                return ("error", lineno)
            if value >= 1 << 64:
                return ("error", lineno)
            values.append(value)
    return values or ("error", None)


def read_text_outcome(path):
    try:
        trace = read_trace_text(path)
    except TraceParseError as exc:
        line = re.match(rf"{re.escape(str(path))}: line (\d+): ", str(exc))
        return ("error", int(line[1]) if line else None)
    assert trace.dtype == np.uint64
    return trace.tolist()


def address_line(value, prefix, upper, width, padding):
    return padding[0] + prefix + format(value, f"0{width}{'X' if upper else 'x'}") + padding[1]


ADDRESS_LINES = st.builds(
    address_line,
    st.one_of(
        st.integers(0, (1 << 64) - 1),
        st.integers(0, 1 << 20),
        st.sampled_from([(1 << 64) - 1, 1 << 64, (1 << 68) - 1]),
    ),
    st.sampled_from(["", "", "0x", "0X"]),
    st.booleans(),
    st.integers(0, 20),  # zero-padded to this many digits
    st.sampled_from([("", "")] * 4 + [(" ", ""), ("\t", " "), ("", "  "), ("\v", "\f")]),
)

TEXT_LINES = st.one_of(
    ADDRESS_LINES,
    ADDRESS_LINES,
    ADDRESS_LINES,
    st.sampled_from(["", " ", "\t", "# comment", "  # indented comment", "#"]),
    st.sampled_from(["-1", "+ff", "f_f", "0x", "1 2", "g", "0x-1", "\xe9"]),
)


class TestTextDifferential:
    """The chunked reader against the per-line reference, at block sizes that split lines."""

    @settings(max_examples=200, deadline=None)
    @given(
        lines=st.lists(TEXT_LINES, min_size=0, max_size=60),
        ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=60, max_size=60),
        final_end=st.booleans(),
        chunk=st.sampled_from([1, 7, 64, traces._TEXT_CHUNK]),
    )
    def test_reader_matches_the_per_line_reference(self, lines, ends, final_end, chunk):
        text = "".join(line + end for line, end in zip(lines, ends))
        if lines and not final_end:
            text = text[: -len(ends[len(lines) - 1])]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.trace"
            path.write_bytes(text.encode("latin-1"))
            with mock.patch.object(traces, "_TEXT_CHUNK", chunk):
                assert read_text_outcome(path) == reference_read_text(path)


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.bin"
        trace = uniform_trace(500, seed=10, address_bits=64)
        write_trace_binary(path, trace)
        assert np.array_equal(read_trace_binary(path), trace)

    def test_little_endian_words_no_header(self, tmp_path):
        path = tmp_path / "t.bin"
        write_trace_binary(path, [1, 1 << 40])
        raw = path.read_bytes()
        assert raw == (1).to_bytes(8, "little") + (1 << 40).to_bytes(8, "little")

    def test_rejects_torn_files(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"\x00" * 12)
        with pytest.raises(TraceParseError, match="multiple of 8"):
            read_trace_binary(path)

    def test_rejects_empty_files(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"")
        with pytest.raises(TraceParseError, match="empty"):
            read_trace_binary(path)

    def test_rejects_addresses_that_do_not_fit(self, tmp_path):
        with pytest.raises(ValueError):
            write_trace_binary(tmp_path / "t.bin", [1 << 64])
