"""Expected tag-read cost of a split (two-step) tag comparison.

A set-associative cache conventionally reads all tag bits of every way
on each access.  Splitting the comparison reads only the k low-order
tag bits of every way first; the remaining bits are read only for ways
whose prefix matched.  With n tag bits and x ways the expected bits
read per access is

    k*x + (n - k) * x / 2**k

because each way's prefix matches an uncorrelated request with
probability 1/2**k.  This module provides cache geometry derivation,
the expected-cost function, and its first and second derivatives in k.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields
from functools import lru_cache

LN2 = math.log(2.0)

__all__ = [
    "CacheConfig",
    "SplitEval",
    "baseline_bits",
    "expected_matched_ways",
    "expected_reads",
    "split_columns",
    "continuous_total_bits",
    "first_derivative",
    "second_derivative",
]


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def _is_real(value) -> bool:
    """True for a finite real number that is not a bool (numpy's bool is not numbers.Real)."""
    try:
        return not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an int beyond a double
        return False


def _check_int(name: str, value, low: int | None = None) -> int:
    """value as a plain int, if it is an integer no less than low.

    The one rule for integer arguments (README "Library arguments"):
    Python and numpy integers and integral floats are accepted; bools,
    nan, infinities, strings and fractions are a ValueError naming name.
    """
    if type(value) is not int:
        if not (_is_real(value) and value == int(value)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _check_real(name: str, value, low: float | None = None):
    """value, if it is a finite real number no less than low; else a ValueError naming name."""
    # a float, the common case, skips the slower numbers.Real check
    if not (type(value) is float and math.isfinite(value) or _is_real(value)):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _tag_and_ways(tag_bits, ways) -> tuple[int, int]:
    """tag_bits and ways as ints, if both are integers >= 1."""
    tag_bits, ways = _check_int("tag_bits", tag_bits), _check_int("ways", ways)
    if tag_bits < 1 or ways < 1:
        raise ValueError(f"tag_bits and ways must be >= 1, got {tag_bits}, {ways}")
    return tag_bits, ways


def _splitting_point(k, tag_bits: int) -> int:
    """k as an int, if it is an integer splitting point of a tag_bits-bit tag."""
    value = _check_int("splitting point k", k)
    if not 0 <= value <= tag_bits:
        raise ValueError(f"splitting point k must be an integer in [0, {tag_bits}], got {k!r}")
    return value


@dataclass(frozen=True)
class CacheConfig:
    """Physical cache organization (power-of-two sizes in bytes) and its address split.

    Each field is checked by _check_int and stored as a plain int, so a
    numpy integer is taken at its value and the derived properties can
    call int.bit_length.
    """

    address_bits: int
    cache_size: int
    block_size: int
    associativity: int

    def __post_init__(self):
        for name in ("address_bits", "cache_size", "block_size", "associativity"):
            object.__setattr__(self, name, _check_int(name, getattr(self, name)))
        for name in ("cache_size", "block_size", "associativity"):
            value = getattr(self, name)
            if not _is_power_of_two(value):
                raise ValueError(f"{name} must be a positive power of two, got {value!r}")
        if not 16 <= self.address_bits <= 128:
            raise ValueError(f"address_bits must be an integer in [16, 128], got {self.address_bits}")
        if self.block_size * self.associativity > self.cache_size:
            raise ValueError(
                "block_size * associativity exceeds cache_size "
                f"({self.block_size} * {self.associativity} > {self.cache_size})"
            )
        if self.tag_bits <= 0:
            raise ValueError(
                f"tag length not positive: {self.address_bits} address bits leave "
                f"{self.tag_bits} bits after {self.index_bits} index and "
                f"{self.offset_bits} offset bits"
            )

    @property
    def sets(self) -> int:
        return self.cache_size // (self.block_size * self.associativity)

    @property
    def index_bits(self) -> int:
        return self.sets.bit_length() - 1

    @property
    def offset_bits(self) -> int:
        return self.block_size.bit_length() - 1

    @property
    def tag_bits(self) -> int:
        return self.address_bits - self.index_bits - self.offset_bits


@dataclass(frozen=True)
class SplitEval:
    """Expected per-access tag-read cost at one splitting point."""

    k: int
    first_step_bits: float
    expected_second_step_bits: float
    total_bits: float
    reduction_ratio: float


_SPLIT_FIELDS = tuple(f.name for f in fields(SplitEval))


def baseline_bits(tag_bits: int, ways: int) -> int:
    """Bits read per access by a conventional single-step comparison."""
    return math.prod(_tag_and_ways(tag_bits, ways))


@lru_cache(maxsize=None)
def _binomial_mean_matches(ways: int, k: int) -> float:
    # Literal binomial expectation sum(i * C(x, i) * p**i * q**(x-i)).
    # Terms are built from the ratio recurrence in floating point:
    # C(512, 256) overflows any fixed-width integer path, while the
    # recurrence keeps every intermediate within double range.  Its
    # first term q**x is subnormal or zero from 1,024 ways at k = 1,
    # and zero at k = 0, where the recurrence would lose the whole sum,
    # so the binomial mean x*p is returned there instead.
    p = 2.0 ** -k
    q = 1.0 - p
    term = q ** ways
    if term < sys.float_info.min:
        return ways * p
    ratio = p / q
    mean = 0.0
    for i in range(1, ways + 1):
        term *= ratio * (ways - i + 1) / i
        if term == 0.0:  # so is every later term, and adding zeros leaves mean as it is
            break
        mean += i * term
    return mean


def expected_matched_ways(ways: int, k: int) -> float:
    """Expected number of ways whose k-bit prefix matches the request.

    The mean of Binomial(ways, 1/2**k), which is ways/2**k, computed as
    the literal binomial sum.  The sum's rounding can leave the last bits
    off ways/2**k: (8, 2) gives 1.9999999999999996, and 78 of the 330
    pairs with ways a power of two up to 512 and k <= 32 differ.
    ROADMAP item 2 replaces the sum with ways * 2.0**-k.
    """
    return _binomial_mean_matches(_check_int("ways", ways, 1), _check_int("k", k, 0))


def expected_reads(tag_bits: int, ways: int, k: int) -> SplitEval:
    """Expected tag bits read per access when k bits are compared first.

    k = 0 and k = tag_bits both degenerate to the single-step baseline:
    the first reads everything in step 2, the second reads everything
    in step 1.  The one-k case of split_columns.
    """
    return SplitEval(*(column[0] for column in split_columns(tag_bits, ways, (k,)).values()))


def split_columns(tag_bits: int, ways: int, ks) -> dict[str, list]:
    """expected_reads at each splitting point of ks, as columns.

    Maps each SplitEval field, in field order, to a list of one value
    per k, which is what expected_reads(tag_bits, ways, k) holds.
    tag_bits and ways are checked once, and every k before any cost is
    computed, so the first k beyond the tag is the one named.
    """
    tag_bits, ways = _tag_and_ways(tag_bits, ways)
    ks = [_splitting_point(k, tag_bits) for k in ks]
    firsts = [k * ways for k in ks]
    seconds = [(tag_bits - k) * _binomial_mean_matches(ways, k) for k in ks]
    totals = [first + second for first, second in zip(firsts, seconds)]
    base = tag_bits * ways
    ratios = [total / base for total in totals]
    return dict(zip(_SPLIT_FIELDS, (ks, firsts, seconds, totals, ratios)))


def continuous_total_bits(tag_bits: int, ways: int, k: float) -> float:
    """Closed-form expected total with k relaxed to a real number.

    first_derivative and second_derivative are its derivatives in k;
    k_min_integer compares it at the floor and the ceiling of the
    optimum, and read costs at integer k come from expected_reads.
    """
    tag_bits, ways = _tag_and_ways(tag_bits, ways)
    if not 0.0 <= _check_real("k", k) <= tag_bits:
        raise ValueError(f"k must be in [0, {tag_bits}], got {k}")
    return k * ways + (tag_bits - k) * ways * 2.0 ** -k


def first_derivative(tag_bits: int, ways: int, k: float) -> float:
    """d/dk of the expected total, for real k in (0, tag_bits).

    Equals (x/2**k) * (ln2 * (k - n) + 2**k - 1); its sign change marks
    the optimum splitting point.
    """
    tag_bits, ways = _tag_and_ways(tag_bits, ways)
    if not 0.0 < _check_real("k", k) < tag_bits:
        raise ValueError(f"k must be inside (0, {tag_bits}), got {k}")
    return ways * 2.0 ** -k * (LN2 * (k - tag_bits) + 2.0 ** k - 1.0)


def second_derivative(tag_bits: int, ways: int, k: float) -> float:
    """d2/dk2 of the expected total; strictly positive, so the cost is convex."""
    tag_bits, ways = _tag_and_ways(tag_bits, ways)
    if not 0.0 < _check_real("k", k) < tag_bits:
        raise ValueError(f"k must be inside (0, {tag_bits}), got {k}")
    return ways * 2.0 ** -k * LN2 * (2.0 + (tag_bits - k) * LN2)
