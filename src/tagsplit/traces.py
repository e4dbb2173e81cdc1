"""Synthetic address traces and trace file formats.

Three generators cover the access patterns used to exercise the
simulator: independent uniform addresses, a fixed-stride walk, and a
Zipf distribution over block indices for a skewed working set.  The
uniform and zipf-block traces are deterministic for a given seed; the
stride walk takes no seed.  Every generated trace comes from one
function, _trace_slices, which checks the generator's arguments and
draws the trace in slices: generate_trace, and the three named
generators that call it, take its one slice, and the CLI writes or
simulates one slice at a time.

Two interchange formats are supported: a text format with one
hexadecimal byte address per line (written in lower case without a
prefix; read with an optional 0x/0X prefix, blank lines and # comment
lines skipped) and a headerless binary format of little-endian
unsigned 64-bit words.
"""

from __future__ import annotations

import importlib.util
import operator
import os
import re
import sys

from .model import _check_int, _check_real

__all__ = [
    "TRACE_KINDS",
    "TraceParseError",
    "as_addresses",
    "uniform_trace",
    "stride_trace",
    "zipf_block_trace",
    "generate_trace",
    "read_trace_text",
    "write_trace_text",
    "read_trace_binary",
    "write_trace_binary",
]

TRACE_KINDS = ("uniform", "stride", "zipf-block")


def _lazy_numpy():
    """numpy as sys.modules holds it, else bound now and run on its first
    attribute access (importlib.util.LazyLoader).

    So only the simulator and the trace functions, which use it, pay for
    numpy's import, not the analytic commands.  A missing or hidden numpy
    is still refused here, when the package is imported.
    """
    np = sys.modules.get("numpy")
    if np is not None:
        return np
    spec = importlib.util.find_spec("numpy")  # None also when sys.modules hides it
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(np)
    return np


# the one binding of numpy in the package; sim imports it from here
np = _lazy_numpy()

# a trace file's word: little-endian, unsigned, 8 bytes
_WORD = "<u8"

# characters per read of read_trace_text (a block is one read plus the rest
# of its last line); addresses per block written by write_trace_text
_TEXT_CHUNK = 1 << 16

# translation table from a byte to its hex value; 16 marks a byte that is
# not a hex digit
_NIBBLE = bytes(
    int(c, 16) if c in "0123456789abcdefABCDEF" else 16 for c in map(chr, range(256))
)
# _LOW_BYTES[m] keeps the low m bytes of a word
_LOW_BYTES = [(1 << 8 * m) - 1 for m in range(9)]
_ADDRESS = re.compile(rb"(?:0[xX])?([0-9a-fA-F]+)")


class TraceParseError(ValueError):
    """A trace file does not conform to the text or binary format."""


def uniform_trace(length: int, seed: int, address_bits: int = 40) -> np.ndarray:
    """Independent addresses uniform over the whole address space."""
    return generate_trace("uniform", length, seed, address_bits=address_bits)


def stride_trace(length: int, stride: int = 64, base: int = 0, address_bits: int = 40) -> np.ndarray:
    """Arithmetic walk base, base+stride, ... wrapping at the address-space size."""
    return generate_trace("stride", length, stride=stride, base=base, address_bits=address_bits)


def zipf_block_trace(
    length: int,
    seed: int,
    exponent: float = 1.2,
    num_blocks: int = 1 << 18,
    block_size: int = 64,
    address_bits: int = 40,
) -> np.ndarray:
    """Block-aligned addresses with Zipf-distributed block popularity.

    Block i (1-based) is drawn with probability proportional to
    i**-exponent over a bounded population, giving a few very hot
    blocks and a long cold tail.  Intended as a qualitative locality
    workload, not a calibrated benchmark.

    The weights are computed, normalised and turned into their cdf in
    place, so one population-sized array is held; the draws are those of
    ``Generator.choice(num_blocks, length, p=weights / weights.sum())``.
    """
    return generate_trace("zipf-block", length, seed, exponent=exponent, num_blocks=num_blocks,
                          block_size=block_size, address_bits=address_bits)


def generate_trace(
    kind: str, length: int, seed: int = 0, *, address_bits: int = 40, block_size: int = 64,
    stride: int = 64, base: int = 0, exponent: float = 1.2, num_blocks: int = 1 << 18,
) -> np.ndarray:
    """A trace of one of the named generators (see TRACE_KINDS): the one
    slice of _trace_slices, which checks the arguments.

    Each kind reads its own keywords and ignores, unchecked, the rest:
    uniform reads seed and address_bits; stride reads stride, base and
    address_bits; zipf-block reads seed, exponent, num_blocks,
    block_size and address_bits.
    """
    (trace,) = _trace_slices(None, kind, length, seed, address_bits, block_size, stride, base,
                             exponent, num_blocks)
    return trace


def _trace_slices(slice_length, kind: str, length: int, seed: int, address_bits: int,
                  block_size: int, stride: int, base: int, exponent: float, num_blocks: int):
    """generate_trace's trace as consecutive slices of at most slice_length
    addresses (None: one slice), each drawn when the iterator reaches it.

    This is the one check of a generator's arguments, made by this call,
    before the first slice is drawn: the kind, the length, then the
    kind's own keywords, address_bits first.  The kind's draw(lo, count)
    gives the trace's addresses lo .. lo + count - 1: the uniform and
    zipf-block draws continue one rng from where the previous draw
    stopped, and the stride walk starts at step lo.  So the slices,
    joined, are the same trace for every slice_length (the tests check
    this across slice lengths and address widths).
    """
    if kind not in TRACE_KINDS:
        raise ValueError(f"unknown trace kind {kind!r}; expected one of {', '.join(TRACE_KINDS)}")
    length = _check_int("trace length", length, 1)
    address_bits = _check_int("address_bits", address_bits)
    if not 1 <= address_bits <= 64:
        raise ValueError(f"generated addresses must fit in 1..64 bits, got {address_bits!r}")
    mask = np.uint64((1 << address_bits) - 1)
    if kind == "stride":
        # uint64 arithmetic wraps mod 2**64; masking afterwards yields
        # mod 2**address_bits because address_bits <= 64
        step = np.uint64(_check_int("stride", stride, 1) % (1 << 64))
        start = np.uint64(_check_int("base", base, 0) % (1 << 64))

        def draw(lo: int, count: int) -> np.ndarray:
            walk = np.arange(lo, lo + count, dtype=np.uint64)
            walk *= step
            walk += start
            walk &= mask
            return walk

    elif kind == "uniform":
        high, rng = int(mask), np.random.default_rng(_check_int("seed", seed, 0))
        draw = lambda lo, count: rng.integers(0, high, size=count, dtype=np.uint64, endpoint=True)
    else:
        if not _check_real("exponent", exponent) > 0.0:
            raise ValueError(f"zipf exponent must be > 0, got {exponent!r}")
        num_blocks = _check_int("num_blocks", num_blocks, 1)
        block_size = _check_int("block_size", block_size, 1)
        if num_blocks * block_size - 1 > int(mask):
            raise ValueError(
                f"footprint {num_blocks} blocks * {block_size} B exceeds the "
                f"{address_bits}-bit address space"
            )
        rng = np.random.default_rng(_check_int("seed", seed, 0))
        weights = np.arange(1, num_blocks + 1, dtype=np.float64)
        weights **= -float(exponent)
        weights /= weights.sum()
        # Generator.choice(num_blocks, count, p=weights) builds this cdf and
        # searches it for count uniform draws; here it is built once, in place
        # of the weights, not once per draw
        cdf = np.cumsum(weights, out=weights)
        cdf /= cdf[-1]
        draw = lambda lo, count: (cdf.searchsorted(rng.random(count), side="right")
                                  .astype(np.uint64) * np.uint64(block_size))
    slice_length = slice_length or length
    return (draw(lo, min(slice_length, length - lo)) for lo in range(0, length, slice_length))


def _index(address) -> int:
    try:
        return operator.index(address)
    except TypeError:
        raise ValueError(f"address {address!r} is not an integer") from None


def as_addresses(addresses, address_bits: int = 64) -> np.ndarray:
    """The trace as a non-empty 1-D uint64 array, each address in the
    address_bits space and below 2**64; the first one outside is named.

    A uint64 array is returned without a copy.  Input that is not an
    integer array goes through operator.index one element at a time, so
    a float, numpy bool or string is refused instead of truncated.
    """
    address_bits = _check_int("address_bits", address_bits, 1)
    if isinstance(addresses, np.ndarray) and addresses.ndim != 1:
        raise ValueError(f"a trace must be one-dimensional, got shape {addresses.shape}")
    if not (isinstance(addresses, np.ndarray) and addresses.dtype.kind in "iu"):
        addresses = np.array([_index(a) for a in addresses], dtype=object)
    if len(addresses) == 0:
        raise ValueError("a trace must not be empty")
    bits = min(address_bits, 64)
    if int(addresses.min()) < 0 or int(addresses.max()) >> bits:
        bad = next(a for a in addresses.tolist() if a < 0 or a >> bits)
        if bad > 0 and address_bits > 64:
            raise ValueError(f"address {bad:#x} does not fit in 64 bits")
        raise ValueError(f"address {bad:#x} outside the {address_bits}-bit space")
    return addresses.astype(np.uint64, copy=False)


def write_trace_text(path, addresses) -> None:
    _write_slices(path, (as_addresses(addresses),), binary=False)


def _write_slices(path, slices, binary: bool) -> int:
    """Write a trace given as consecutive checked uint64 slices, each as
    it is reached, to a binary or text trace file; the number of addresses.

    A binary slice is written from its own buffer, without a copy; a text
    one goes _TEXT_CHUNK addresses at a time.  So the file never needs
    more than one slice in memory (see cli.cmd_gen_trace).
    """
    written = 0
    with open(path, "wb") if binary else open(path, "w", encoding="ascii") as fh:
        for addresses in slices:
            if binary:
                fh.write(np.ascontiguousarray(addresses, dtype=_WORD).data)
            else:
                for start in range(0, addresses.size, _TEXT_CHUNK):
                    fh.writelines(
                        f"{a:x}\n" for a in addresses[start : start + _TEXT_CHUNK].tolist())
            written += addresses.size
            del addresses  # so that the next slice is drawn beside no other
    return written


def _line_blocks(fh):
    """The bytes of fh, a latin-1 text stream with universal newlines, in
    blocks of whole lines, each ending in b"\\n".

    A block is one read of _TEXT_CHUNK characters plus the rest of the
    line that read stops in, so nothing is kept from one block to the next.
    """
    while chunk := fh.read(_TEXT_CHUNK):
        chunk += fh.readline()
        if not chunk.endswith("\n"):  # the file's last line
            chunk += "\n"
        yield chunk.encode("latin-1")


def _parse_line(raw: bytes, path, lineno: int):
    """The address on one line, or None for a blank or comment line."""
    if not raw.isascii():
        raise TraceParseError(f"{path}: line {lineno}: not an ASCII line: {raw!r}")
    line = raw.strip()
    if not line or line.startswith(b"#"):
        return None
    match = _ADDRESS.fullmatch(line)
    text = line.decode("ascii")
    if match is None:
        raise TraceParseError(f"{path}: line {lineno}: not a hexadecimal address: {text!r}")
    value = int(match[1], 16)
    if value >= 1 << 64:
        raise TraceParseError(f"{path}: line {lineno}: address {text!r} does not fit in 64 bits")
    return value


def _pack_nibbles(words: np.ndarray) -> np.ndarray:
    """The 32-bit values spelled by eight hex digit values per word, one
    per byte, the most significant byte first."""
    words = (words | (words >> 4)) & 0x00FF00FF00FF00FF
    words = (words | (words >> 8)) & 0x0000FFFF0000FFFF
    return (words | (words >> 16)) & 0xFFFFFFFF


def _block_words(block: bytes, path, first_line: int) -> np.ndarray:
    """The addresses of one block from _line_blocks; first_line numbers its first line.

    A line of an optional 0x/0X and 1-16 hex digits is decoded with array
    operations: the hex values of the 16 bytes before its newline are
    read as two big-endian words, the bytes before its digits are masked
    off, and each word's eight digit values are packed into 32 bits.
    Every other line goes through _parse_line.
    """
    buf = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    # the byte after each line's first; for an empty line, its own newline
    prefixed = (buf[starts] == ord("0")) & ((buf[np.minimum(starts + 1, ends)] | 0x20) == ord("x"))
    digits = ends - starts - 2 * prefixed
    # windows[i] is the big-endian word of the hex values of bytes i - 16 .. i - 9
    padded = bytes(16) + block.translate(_NIBBLE)
    windows = np.ndarray((len(padded) - 7,), dtype=">u8", buffer=padded, strides=(1,))
    low_bytes = np.array(_LOW_BYTES, dtype=np.uint64)
    high = windows[ends].astype(np.uint64) & low_bytes[np.clip(digits - 8, 0, 8)]
    low = windows[ends + 8].astype(np.uint64) & low_bytes[np.clip(digits, 0, 8)]
    # a hex digit's value has no high nibble; 16 marks any other byte
    fast = (((high | low) & 0xF0F0F0F0F0F0F0F0) == 0) & (digits >= 1) & (digits <= 16)
    words = (_pack_nibbles(high) << 32) | _pack_nibbles(low)
    if fast.all():
        return words
    for i in np.flatnonzero(~fast).tolist():
        value = _parse_line(block[starts[i] : ends[i]], path, first_line + i)
        if value is not None:
            words[i] = value
            fast[i] = True
    return words[fast]


def read_trace_text(path) -> np.ndarray:
    """The addresses of a text trace (see README "Text traces").

    The file is read twice: once in reads of _TEXT_CHUNK characters to
    count its lines, which sizes the result array, and once in blocks
    from _line_blocks, decoding each block's addresses into it.  The
    array is then trimmed to the addresses found, so the peak is the
    result, 8 bytes per address, and one block's decoding arrays beside
    it, about 0.7 MiB for lines of 11 characters (tracemalloc: 8.7 bytes
    per address at 10^6 lines, 44 at 20k).  Shorter lines put more
    addresses in a block: 1.5 MiB on the benchmark's 250k-line zipf
    trace, 14.2 bytes per address.
    Malformed input raises TraceParseError naming the path and line.
    """
    # latin-1 reads every byte as one character; \r\n and a lone \r end a line too
    with open(path, "r", encoding="latin-1", newline=None) as fh:
        size = sum(text.count("\n") for text in iter(lambda: fh.read(_TEXT_CHUNK), "")) + 1
        fh.seek(0)
        trace, found, lines = np.empty(size, dtype=np.uint64), 0, 0
        for block in _line_blocks(fh):
            words = _block_words(block, path, lines + 1)
            if found + words.size > size:
                raise TraceParseError(f"{path}: the file grew while read")
            trace[found : found + words.size] = words
            found, lines = found + words.size, lines + block.count(b"\n")
    if not found:
        raise TraceParseError(f"{path}: no addresses found")
    trace.resize(found, refcheck=False)  # nothing else refers to trace
    return trace


def write_trace_binary(path, addresses) -> None:
    _write_slices(path, (as_addresses(addresses),), binary=True)


def read_trace_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if not size:
            raise TraceParseError(f"{path}: empty trace file")
        if size % 8:
            raise TraceParseError(f"{path}: size {size} is not a multiple of 8 bytes")
        trace = np.empty(size // 8, dtype=_WORD)
        read = fh.readinto(trace)
    if read != size:
        raise TraceParseError(f"{path}: read {read} of {size} bytes; the file shrank while read")
    return trace
