"""Optimum splitting point for a two-step tag comparison.

Setting the derivative of k*x + (n-k)*x/2**k to zero gives the
stationarity condition 2**k - 1 = (n - k)*ln2, whose solution is
k = log2(W(2**n * e)) with W the Lambert function (inverse of w*e**w).
The argument 2**n * e is a finite double only up to n = 1022, while
k_optimal_continuous takes any tag length (n = 2000 gives k = 10.43),
so the solver works on logarithms throughout: it finds w from
w + ln w = n*ln2 + 1 and never materializes 2**n * e.

The cost is convex in k, so the best integer splitting point is the
floor or the ceiling of the continuous optimum: one comparison of two
per-way totals, with no search over k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .model import LN2, _check_double_int, _check_int, _check_real, _tag_and_ways
from .model import continuous_total_bits, expected_reads
from .model import first_derivative, second_derivative

__all__ = [
    "OptimumResult",
    "lambert_w_log",
    "k_optimal_continuous",
    "k_min_integer",
    "convexity_certificate",
    "round_function_report",
]

_MAX_NEWTON_ITERATIONS = 100
_NEWTON_RELATIVE_STEP = 1e-13


@dataclass(frozen=True)
class OptimumResult:
    """Continuous and integer optimum of the expected-reads cost."""

    k_optimal: float
    k_min: int
    is_round_of_continuous: bool
    total_at_k_min: float
    residual: float


def lambert_w_log(ln_z: float) -> float:
    """Solve w + ln(w) = ln_z for w, i.e. W(z) given ln(z).

    Requires a finite ln_z >= 1 (z >= e), the branch where w >= 1.  Newton
    iteration seeded with the asymptotic ln_z - ln(ln_z) approaches the
    root from below on this concave residual, so convergence is
    monotone and quadratic.
    """
    w = _check_real("ln_z", ln_z, 1) - math.log(ln_z)
    for _ in range(_MAX_NEWTON_ITERATIONS):
        step = (w + math.log(w) - ln_z) / (1.0 + 1.0 / w)
        w -= step
        if abs(step) <= _NEWTON_RELATIVE_STEP * w:
            break
    return w


def k_optimal_continuous(tag_bits: int) -> float:
    """Real-valued splitting point minimizing the expected total.

    Root of 2**k - 1 = (tag_bits - k)*ln2; depends only on the tag
    length, never on associativity, which scales the cost uniformly.
    """
    return math.log2(lambert_w_log(_check_double_int("tag_bits", tag_bits, 2) * LN2 + 1.0))


@lru_cache(maxsize=None, typed=True)
def k_min_integer(tag_bits: int, ways: int) -> OptimumResult:
    """Best integer splitting point: the floor or the ceiling of the continuous optimum.

    The cost is convex in k, so its integer argmin is whichever of the two
    has the lower per-way total k + (n-k)/2**k, the floor on a tie; the
    optimum lies below tag_bits, so both are valid k.  Associativity only
    scales the cost, so a point no higher than its two neighbours is the
    minimum: only k_min - 1 and k_min + 1 are checked at the given
    associativity, within rounding slack.
    """
    k_opt = k_optimal_continuous(tag_bits)
    best_k = math.floor(k_opt)
    if continuous_total_bits(tag_bits, 1, best_k + 1) < continuous_total_bits(tag_bits, 1, best_k):
        best_k += 1
    chosen = expected_reads(tag_bits, ways, best_k)
    for k in (best_k - 1, best_k + 1):
        if 0 <= k <= tag_bits and chosen.total_bits > (
            expected_reads(tag_bits, ways, k).total_bits + 1e-12 * tag_bits * ways
        ):
            raise AssertionError(
                f"argmin for ways={ways} deviated from the per-way argmin at "
                f"tag_bits={tag_bits}; associativity must scale the cost uniformly"
            )
    return OptimumResult(
        k_optimal=k_opt,
        k_min=best_k,
        is_round_of_continuous=best_k == round(k_opt),
        total_at_k_min=chosen.total_bits,
        residual=first_derivative(tag_bits, ways, k_opt),
    )


def convexity_certificate(tag_bits: int, ways: int, samples: int = 1000) -> bool:
    """True iff the second derivative is positive at evenly spaced interior points."""
    samples = _check_int("samples", samples, 1)
    tag_bits, ways = _tag_and_ways(tag_bits, ways)
    step = tag_bits / (samples + 1)
    return all(
        second_derivative(tag_bits, ways, (i + 1) * step) > 0.0 for i in range(samples)
    )


def round_function_report(tag_bits_values: Iterable[int]) -> list[int]:
    """Tag lengths where rounding the continuous optimum misses the argmin.

    Rounding is a convenient shortcut, not a theorem: near-tie tag
    lengths can push the true integer minimizer to the other neighbor
    (the first case is tag_bits = 69).  Callers get a report instead of
    an assertion.
    """
    return [n for n in sorted(set(tag_bits_values))
            if not k_min_integer(n, 1).is_round_of_continuous]
