"""Synthetic address traces and trace file formats.

Three generators cover the access patterns used to exercise the
simulator: independent uniform addresses, a fixed-stride walk, and a
Zipf distribution over block indices for a skewed working set.  All
are deterministic for a given seed.

Two interchange formats are supported: a text format with one
hexadecimal byte address per line (written in lower case without a
prefix; read with an optional 0x/0X prefix, blank lines and # comment
lines skipped) and a headerless binary format of little-endian
unsigned 64-bit words.
"""

from __future__ import annotations

import os
import re

import numpy as np

__all__ = [
    "TRACE_KINDS",
    "TraceParseError",
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

_WORD = np.dtype("<u8")

# bytes read per block by read_trace_text
_TEXT_CHUNK = 1 << 16

# translation table from a byte to its hex value; 16 marks a byte that is
# not a hex digit
_NIBBLE = bytes(
    int(c, 16) if c in "0123456789abcdefABCDEF" else 16 for c in map(chr, range(256))
)
# _LOW_BYTES[m] keeps the low m bytes of a word
_LOW_BYTES = np.array([(1 << 8 * m) - 1 for m in range(9)], dtype=np.uint64)
_ADDRESS = re.compile(rb"(?:0[xX])?([0-9a-fA-F]+)")


class TraceParseError(ValueError):
    """A trace file does not conform to the text or binary format."""


def _check_length(length: int) -> int:
    if length != int(length) or int(length) < 1:
        raise ValueError(f"trace length must be a positive integer, got {length!r}")
    return int(length)


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    return np.random.default_rng(seed)


def _address_mask(address_bits: int) -> np.uint64:
    if not 1 <= address_bits <= 64:
        raise ValueError(f"generated addresses must fit in 1..64 bits, got {address_bits!r}")
    return np.uint64((1 << address_bits) - 1)


def uniform_trace(length: int, seed: int, address_bits: int = 40) -> np.ndarray:
    """Independent addresses uniform over the whole address space."""
    length = _check_length(length)
    high = int(_address_mask(address_bits))
    return _rng(seed).integers(0, high, size=length, dtype=np.uint64, endpoint=True)


def stride_trace(length: int, stride: int = 64, base: int = 0, address_bits: int = 40) -> np.ndarray:
    """Arithmetic walk base, base+stride, ... wrapping at the address-space size."""
    length = _check_length(length)
    mask = _address_mask(address_bits)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride!r}")
    if base < 0:
        raise ValueError(f"base must be >= 0, got {base!r}")
    steps = np.arange(length, dtype=np.uint64)
    # uint64 arithmetic wraps mod 2**64; masking afterwards yields
    # mod 2**address_bits because address_bits <= 64
    return (np.uint64(base % (1 << 64)) + steps * np.uint64(stride % (1 << 64))) & mask


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
    """
    length = _check_length(length)
    mask = _address_mask(address_bits)
    if not exponent > 0.0:
        raise ValueError(f"zipf exponent must be > 0, got {exponent!r}")
    if num_blocks < 1 or block_size < 1:
        raise ValueError("num_blocks and block_size must be >= 1")
    if num_blocks * block_size - 1 > int(mask):
        raise ValueError(
            f"footprint {num_blocks} blocks * {block_size} B exceeds the "
            f"{address_bits}-bit address space"
        )
    ranks = np.arange(1, num_blocks + 1, dtype=np.float64)
    weights = ranks ** -float(exponent)
    blocks = _rng(seed).choice(num_blocks, size=length, p=weights / weights.sum())
    return blocks.astype(np.uint64) * np.uint64(block_size)


def generate_trace(kind: str, length: int, seed: int = 0, **params) -> np.ndarray:
    """Dispatch to one of the named generators (see TRACE_KINDS)."""
    if kind == "uniform":
        return uniform_trace(length, seed, **params)
    if kind == "stride":
        return stride_trace(length, **params)
    if kind == "zipf-block":
        return zipf_block_trace(length, seed, **params)
    raise ValueError(f"unknown trace kind {kind!r}; expected one of {', '.join(TRACE_KINDS)}")


def _as_word_array(addresses) -> np.ndarray:
    try:
        arr = np.asarray(addresses, dtype=np.uint64)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"trace addresses must be unsigned 64-bit integers: {exc}") from None
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("a trace must be a non-empty one-dimensional sequence")
    return arr


def write_trace_text(path, addresses) -> None:
    arr = _as_word_array(addresses)
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(f"{int(a):x}\n" for a in arr)


def _line_blocks(fh):
    """The bytes of fh, a latin-1 text stream with universal newlines, in
    blocks of whole lines, each ending in b"\\n".

    A block is one read of _TEXT_CHUNK characters up to its last line
    end, after the unfinished line the reads before it carried over.
    """
    tail = []  # the unfinished line, in the pieces read so far
    while chunk := fh.read(_TEXT_CHUNK).encode("latin-1"):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            tail.append(chunk[:cut])
            yield b"".join(tail)
            tail = [chunk[cut:]]
        else:
            tail.append(chunk)
    last = b"".join(tail)
    if last:
        yield last + b"\n"


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
    high = windows[ends].astype(np.uint64) & _LOW_BYTES[np.clip(digits - 8, 0, 8)]
    low = windows[ends + 8].astype(np.uint64) & _LOW_BYTES[np.clip(digits, 0, 8)]
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

    The file is read in blocks of _TEXT_CHUNK bytes, so besides the
    result (8 bytes per address) it needs memory for one block.
    Malformed input raises TraceParseError naming the path and line.
    """
    parts = []
    lines = 0
    # latin-1 reads every byte as one character; \r\n and a lone \r end a line too
    with open(path, "r", encoding="latin-1", newline=None) as fh:
        for block in _line_blocks(fh):
            parts.append(_block_words(block, path, lines + 1))
            lines += block.count(b"\n")
    trace = np.concatenate(parts) if parts else np.empty(0, dtype=np.uint64)
    if not trace.size:
        raise TraceParseError(f"{path}: no addresses found")
    return trace


def write_trace_binary(path, addresses) -> None:
    arr = _as_word_array(addresses)
    with open(path, "wb") as fh:
        fh.write(np.ascontiguousarray(arr, dtype=_WORD).tobytes())


def read_trace_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if not size:
            raise TraceParseError(f"{path}: empty trace file")
        if size % _WORD.itemsize:
            raise TraceParseError(
                f"{path}: size {size} is not a multiple of {_WORD.itemsize} bytes"
            )
        trace = np.empty(size // _WORD.itemsize, dtype=_WORD)
        read = fh.readinto(trace)
    if read != size:
        raise TraceParseError(f"{path}: read {read} of {size} bytes; the file shrank while read")
    return trace
