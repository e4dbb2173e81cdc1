"""Synthetic trace generators and the two trace file formats."""

import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tagsplit import sim, traces
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

    @pytest.mark.parametrize("flags,message", [
        ({"stride": 0}, "stride must be >= 1, got 0"),
        ({"base": -1}, "base must be >= 0, got -1"),
    ])
    def test_stride_rejects_a_zero_stride_or_negative_base(self, flags, message):
        with pytest.raises(ValueError, match=message):
            stride_trace(10, **flags)

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

    def test_zipf_block_holds_one_weights_array(self):
        # The weights are computed, normalised and turned into their cdf in
        # place, so the peak is one array of 8 B per block; each further
        # population-sized array would add 1.
        num_blocks = 1 << 18
        zipf_block_trace(1000, seed=0, num_blocks=num_blocks)  # warm-up: first-call allocations
        tracemalloc.start()
        try:
            zipf_block_trace(1000, seed=0, num_blocks=num_blocks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (8 * num_blocks) <= 1.5

    def test_dispatcher_and_kind_validation(self):
        assert np.array_equal(
            generate_trace("uniform", 10, 5, address_bits=32),
            uniform_trace(10, 5, address_bits=32),
        )
        with pytest.raises(ValueError, match="unknown trace kind"):
            generate_trace("sequential", 10, 5)
        with pytest.raises(TypeError, match="footprint"):
            generate_trace("uniform", 10, 5, footprint=3)
        with pytest.raises(TypeError):
            generate_trace("uniform", 10, 5, 32)  # the generator keywords are keyword-only
        # another kind's keyword is ignored unchecked: stride=0 and
        # num_blocks=0 would be refused by their own kinds
        assert np.array_equal(
            generate_trace("uniform", 10, 1, stride=0, num_blocks=0), uniform_trace(10, 1)
        )

    @pytest.mark.parametrize(
        "kind, generator, own",
        [
            ("uniform", uniform_trace, {"seed": 7, "address_bits": 36}),
            ("stride", stride_trace, {"stride": 192, "base": 4096, "address_bits": 36}),
            (
                "zipf-block",
                zipf_block_trace,
                {"seed": 7, "exponent": 1.5, "num_blocks": 1000, "block_size": 128,
                 "address_bits": 36},
            ),
        ],
    )
    def test_each_kind_reads_only_its_own_keywords(self, kind, generator, own):
        every = dict(address_bits=36, block_size=128, stride=192, base=4096, exponent=1.5,
                     num_blocks=1000)
        assert np.array_equal(generate_trace(kind, 50, 7, **every), generator(50, **own))

    @pytest.mark.parametrize("length", [0, -5])
    def test_rejects_empty_traces(self, length):
        with pytest.raises(ValueError, match=f"^trace length must be >= 1, got {length}$"):
            uniform_trace(length, seed=0)

    @pytest.mark.parametrize("generator", [uniform_trace, zipf_block_trace])
    def test_rejects_a_negative_seed(self, generator):
        with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
            generator(5, seed=-3)

    def test_rejects_bad_zipf_exponent(self):
        with pytest.raises(ValueError, match="exponent"):
            zipf_block_trace(10, seed=0, exponent=0.0)

    def test_rejects_an_empty_zipf_population(self):
        # each count is checked by the one integer rule, num_blocks first
        with pytest.raises(ValueError, match="^num_blocks must be >= 1, got 0$"):
            zipf_block_trace(10, 0, num_blocks=0, block_size=0)
        with pytest.raises(ValueError, match="^block_size must be >= 1, got 0$"):
            zipf_block_trace(10, 0, block_size=0)

    def test_rejects_oversized_footprint(self):
        with pytest.raises(ValueError, match="footprint"):
            zipf_block_trace(10, seed=0, num_blocks=1 << 30, address_bits=20)

    def test_rejects_unsupported_address_width(self):
        with pytest.raises(ValueError, match="64"):
            uniform_trace(10, seed=0, address_bits=65)


class TestSlices:
    """traces._trace_slices: generate_trace's trace, drawn one slice at a time."""

    KEYWORDS = dict(block_size=64, stride=192, base=4096, exponent=1.2, num_blocks=1000)

    @given(
        kind=st.sampled_from(traces.TRACE_KINDS),
        # numpy draws bounded integers of up to 32 bits through a separate path
        address_bits=st.one_of(st.sampled_from([31, 32, 33]), st.integers(16, 64)),
        slice_length=st.integers(1, 70),
        length=st.integers(1, 300),
        seed=st.integers(0, 2**64),
        # up to and beyond 2**64, so that the walk wraps, across slice boundaries too
        stride=st.integers(1, 2**66),
        base=st.integers(0, 2**66),
    )
    @settings(max_examples=300, deadline=None)
    def test_the_joined_slices_are_the_trace(self, kind, address_bits, slice_length, length, seed,
                                             stride, base):
        keywords = dict(self.KEYWORDS, address_bits=address_bits, stride=stride, base=base)
        slices = list(traces._trace_slices(slice_length, kind, length, seed, **keywords))
        assert [part.size for part in slices] == [
            min(slice_length, length - lo) for lo in range(0, length, slice_length)
        ]
        assert np.array_equal(np.concatenate(slices), generate_trace(kind, length, seed, **keywords))
        if kind == "stride":  # the walk in Python integers, which never wrap
            assert np.concatenate(slices).tolist() == [
                (base + i * stride) % (1 << address_bits) for i in range(length)
            ]

    @pytest.mark.parametrize("kind", traces.TRACE_KINDS)
    def test_a_trace_one_past_the_engine_slice(self, kind):
        length, size = sim._TRACE_CHUNK + 1, sim._TRACE_CHUNK
        slices = list(traces._trace_slices(size, kind, length, 3, address_bits=40, **self.KEYWORDS))
        assert [part.size for part in slices] == [size, 1]
        assert np.array_equal(np.concatenate(slices), generate_trace(kind, length, 3, **self.KEYWORDS))

    @pytest.mark.parametrize("changes, message", [
        ({"address_bits": 72}, "generated addresses must fit in 1..64 bits, got 72"),
        ({"address_bits": 20, "num_blocks": 100_000},
         "footprint 100000 blocks * 64 B exceeds the 20-bit address space"),
    ])
    def test_the_arguments_are_checked_before_any_slice_is_drawn(self, changes, message):
        with pytest.raises(ValueError) as info:
            traces._trace_slices(4, "zipf-block", 10, 0, **dict(self.KEYWORDS, **changes))
        assert str(info.value) == message


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

    @pytest.mark.parametrize(
        "kind,length,bound",
        # where keeping every block until a join read 16.1 and 16.2
        [("uniform", 1_000_000, 9), ("zipf-block", 250_000, 14.5)],
    )
    def test_peak_memory_is_the_result_and_one_block(self, tmp_path, kind, length, bound):
        # Each block decodes into the result, sized by a first pass that
        # counts the lines, so no second copy is held: 8 bytes per address
        # plus one block's decoding arrays, about 0.7 MiB at 11 characters
        # a line (8.7 in all at 10^6 lines) and 1.5 MiB for the zipf
        # trace's shorter lines (14.2 in all).
        trace = generate_trace(kind, length, seed=1 if kind == "uniform" else 0,
                               num_blocks=1 << 20)
        path = tmp_path / "t.trace"
        write_trace_text(path, trace)
        read_trace_text(path)  # warm-up: first-call allocations
        tracemalloc.start()
        try:
            read = read_trace_text(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(read, trace)
        assert read.base is None and read.size == trace.size
        assert peak / trace.size < bound

    def test_a_file_that_grows_between_the_passes_is_refused(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("1\n2\n")
        real_blocks = traces._line_blocks

        def growing_blocks(fh):
            path.write_text("1\n2\n3\n4\n")
            return real_blocks(fh)

        with mock.patch.object(traces, "_line_blocks", growing_blocks):
            with pytest.raises(TraceParseError, match="grew while read"):
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

    def test_a_strided_view_writes_its_own_elements(self, tmp_path):
        path = tmp_path / "t.bin"
        trace = uniform_trace(500, seed=10, address_bits=64)
        write_trace_binary(path, trace[::3])
        assert np.array_equal(read_trace_binary(path), trace[::3])

    def test_writes_without_a_copy_of_the_trace(self, tmp_path):
        trace = uniform_trace(1 << 20, seed=10, address_bits=64)  # 8 MiB
        tracemalloc.start()
        try:
            write_trace_binary(tmp_path / "t.bin", trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert (tmp_path / "t.bin").read_bytes() == trace.astype("<u8").tobytes()

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
