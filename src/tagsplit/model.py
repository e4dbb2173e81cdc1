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
import sys
from dataclasses import dataclass
from functools import lru_cache

LN2 = math.log(2.0)

__all__ = [
    "CacheConfig",
    "SplitEval",
    "baseline_bits",
    "expected_matched_ways",
    "expected_reads",
    "continuous_total_bits",
    "first_derivative",
    "second_derivative",
]


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def _check_int(name: str, value) -> int:
    if value != int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class CacheConfig:
    """Physical cache organization (power-of-two sizes in bytes) and its address split."""

    address_bits: int
    cache_size: int
    block_size: int
    associativity: int

    def __post_init__(self):
        for name in ("cache_size", "block_size", "associativity"):
            value = getattr(self, name)
            if not isinstance(value, int) or not _is_power_of_two(value):
                raise ValueError(f"{name} must be a positive power of two, got {value!r}")
        if not isinstance(self.address_bits, int) or not 16 <= self.address_bits <= 128:
            raise ValueError(
                f"address_bits must be an integer in [16, 128], got {self.address_bits!r}"
            )
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


def baseline_bits(tag_bits: int, ways: int) -> int:
    """Bits read per access by a conventional single-step comparison."""
    tag_bits = _check_int("tag_bits", tag_bits)
    ways = _check_int("ways", ways)
    if tag_bits < 1 or ways < 1:
        raise ValueError(f"tag_bits and ways must be >= 1, got {tag_bits}, {ways}")
    return tag_bits * ways


@lru_cache(maxsize=None)
def _binomial_mean_matches(ways: int, k: int) -> float:
    # Literal binomial expectation sum(i * C(x, i) * p**i * q**(x-i)).
    # Terms are built from the ratio recurrence in floating point:
    # C(512, 256) overflows any fixed-width integer path, while the
    # recurrence keeps every intermediate within double range.  Its
    # first term q**x is subnormal or zero from 1,024 ways at k = 1,
    # where the recurrence would lose the whole sum, so the binomial
    # mean x*p is returned there instead.
    p = 2.0 ** -k
    if p == 1.0:
        return float(ways)
    q = 1.0 - p
    term = q ** ways
    if term < sys.float_info.min:
        return ways * p
    ratio = p / q
    mean = 0.0
    for i in range(1, ways + 1):
        term *= ratio * (ways - i + 1) / i
        mean += i * term
    return mean


def expected_matched_ways(ways: int, k: int) -> float:
    """Expected number of ways whose k-bit prefix matches the request.

    Equals the mean of Binomial(ways, 1/2**k), i.e. ways/2**k.
    """
    ways = _check_int("ways", ways)
    k = _check_int("k", k)
    if ways < 1:
        raise ValueError(f"ways must be >= 1, got {ways}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return _binomial_mean_matches(ways, k)


def expected_reads(tag_bits: int, ways: int, k: int) -> SplitEval:
    """Expected tag bits read per access when k bits are compared first.

    k = 0 and k = tag_bits both degenerate to the single-step baseline:
    the first reads everything in step 2, the second reads everything
    in step 1.
    """
    tag_bits = _check_int("tag_bits", tag_bits)
    ways = _check_int("ways", ways)
    k = _check_int("k", k)
    if tag_bits < 1 or ways < 1:
        raise ValueError(f"tag_bits and ways must be >= 1, got {tag_bits}, {ways}")
    if not 0 <= k <= tag_bits:
        raise ValueError(f"k must be in [0, {tag_bits}], got {k}")
    first = k * ways
    second = (tag_bits - k) * _binomial_mean_matches(ways, k)
    total = first + second
    return SplitEval(
        k=k,
        first_step_bits=first,
        expected_second_step_bits=second,
        total_bits=total,
        reduction_ratio=total / (tag_bits * ways),
    )


def continuous_total_bits(tag_bits: int, ways: int, k: float) -> float:
    """Closed-form expected total with k relaxed to a real number.

    first_derivative and second_derivative are its derivatives in k;
    k_min_integer compares it at the floor and the ceiling of the
    optimum, and read costs at integer k come from expected_reads.
    """
    if not 0.0 <= k <= tag_bits:
        raise ValueError(f"k must be in [0, {tag_bits}], got {k}")
    return k * ways + (tag_bits - k) * ways * 2.0 ** -k


def first_derivative(tag_bits: int, ways: int, k: float) -> float:
    """d/dk of the expected total, for real k in (0, tag_bits).

    Equals (x/2**k) * (ln2 * (k - n) + 2**k - 1); its sign change marks
    the optimum splitting point.
    """
    if not 0.0 < k < tag_bits:
        raise ValueError(f"k must be inside (0, {tag_bits}), got {k}")
    return ways * 2.0 ** -k * (LN2 * (k - tag_bits) + 2.0 ** k - 1.0)


def second_derivative(tag_bits: int, ways: int, k: float) -> float:
    """d2/dk2 of the expected total; strictly positive, so the cost is convex."""
    if not 0.0 < k < tag_bits:
        raise ValueError(f"k must be inside (0, {tag_bits}), got {k}")
    return ways * 2.0 ** -k * LN2 * (2.0 + (tag_bits - k) * LN2)
