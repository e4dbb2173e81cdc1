"""Optimum splitting point: log-domain Lambert solver and integer argmin."""

import collections
import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from tagsplit import model, optimum
from tagsplit.cli import main
from tagsplit.model import LN2, expected_reads, first_derivative
from tagsplit.optimum import (
    convexity_certificate,
    k_min_integer,
    k_optimal_continuous,
    lambert_w_log,
    round_function_report,
)


POW2_WAYS = [2 ** i for i in range(13)]


@pytest.fixture
def uncached_argmin():
    """k_min_integer with an empty cache, so a patched model is evaluated."""
    k_min_integer.cache_clear()
    yield
    k_min_integer.cache_clear()


def bisect_w(ln_z, iterations=200):
    """Independent root finder for w + ln(w) = ln_z on [1, ln_z]."""
    lo, hi = 1.0, max(ln_z, 1.0)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if mid + math.log(mid) <= ln_z:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect_k_opt(tag_bits, iterations=200):
    """Independent root finder for 2**k - 1 = (n - k)*ln2 on (0, n)."""
    lo, hi = 1e-12, float(tag_bits)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if 2.0 ** mid - 1.0 <= (tag_bits - mid) * LN2:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestLambertW:
    @pytest.mark.parametrize("ln_z,expected", [
        (1.0, 1.0),
        (2.0 + LN2, 2.0),                       # z = 2e^2
        (23 * LN2 + 1.0, 14.283294514292574),    # frozen from the bisection oracle
        (48 * LN2 + 1.0, 30.842181388250133),
    ])
    def test_known_roots(self, ln_z, expected):
        assert lambert_w_log(ln_z) == pytest.approx(expected, rel=1e-12)

    def test_defining_identity(self):
        for ln_z in [1.0, 1.5, 3.0, 10.0, 23 * LN2 + 1.0, 50.0, 100.0]:
            w = lambert_w_log(ln_z)
            assert w >= 1.0
            assert w + math.log(w) == pytest.approx(ln_z, rel=1e-12)

    @given(ln_z=st.floats(min_value=1.0, max_value=120.0, allow_nan=False))
    @settings(max_examples=200)
    def test_agrees_with_bisection(self, ln_z):
        assert lambert_w_log(ln_z) == pytest.approx(bisect_w(ln_z), rel=1e-11)

    def test_domain_lower_bound(self):
        with pytest.raises(ValueError, match="ln_z"):
            lambert_w_log(0.9999)

    def test_never_materializes_the_exponential(self):
        # n = 128 would need 2**128 * e as a plain argument; the log-domain
        # path stays comfortably finite
        w = lambert_w_log(128 * LN2 + 1.0)
        assert w + math.log(w) == pytest.approx(128 * LN2 + 1.0, rel=1e-12)


class TestContinuousOptimum:
    @pytest.mark.parametrize("tag_bits,expected", [
        (23, 3.8362568775625316),   # frozen from the bisection oracle
        (31, 4.286608545071248),
        (48, 4.94683290186261),
        (2, 0.8472278679307281),
    ])
    def test_frozen_roots(self, tag_bits, expected):
        assert k_optimal_continuous(tag_bits) == pytest.approx(expected, rel=1e-11)

    def test_rejects_degenerate_tags(self):
        with pytest.raises(ValueError):
            k_optimal_continuous(1)

    def test_root_consistency_over_the_working_range(self):
        for n in range(8, 65):
            k = k_optimal_continuous(n)
            assert 0.0 < k < n
            assert k == pytest.approx(bisect_k_opt(n), abs=1e-9)
            # stationarity identity k*ln2 + 2**k = n*ln2 + 1
            assert k * LN2 + 2.0 ** k == pytest.approx(n * LN2 + 1.0, abs=1e-9)
            # the derivative vanishes there for any associativity
            for ways in (1, 8, 512):
                assert abs(first_derivative(n, ways, k)) <= 1e-9


class TestIntegerArgmin:
    @pytest.mark.parametrize("tag_bits,expected", [
        (23, 4), (31, 4), (48, 5), (2, 1), (11, 3), (16, 3), (52, 5), (55, 5),
    ])
    def test_known_minima(self, tag_bits, expected):
        for ways in (1, 8, 512):
            assert k_min_integer(tag_bits, ways).k_min == expected

    @pytest.mark.parametrize("tag_bits,smaller", [
        # exact real ties total(k) == total(k+1) at n = 2**(k+1) + k - 1
        (4, 1), (9, 2), (18, 3), (35, 4), (68, 5),
    ])
    def test_exact_ties_break_toward_smaller_k(self, tag_bits, smaller):
        per_way = expected_reads(tag_bits, 1, smaller).total_bits
        assert per_way == expected_reads(tag_bits, 1, smaller + 1).total_bits
        for ways in (1, 64, 512):
            assert k_min_integer(tag_bits, ways).k_min == smaller

    def test_result_fields_are_consistent(self):
        result = k_min_integer(23, 8)
        assert result.total_at_k_min == expected_reads(23, 8, result.k_min).total_bits
        assert abs(result.residual) <= 1e-9
        assert result.k_min in (math.floor(result.k_optimal), math.ceil(result.k_optimal))

    def test_bracketing_and_minimality_everywhere(self):
        for n in range(2, 129):
            result = k_min_integer(n, 1)
            assert result.k_min in (math.floor(result.k_optimal), math.ceil(result.k_optimal))
            totals = [expected_reads(n, 1, k).total_bits for k in range(n + 1)]
            assert totals[result.k_min] == min(totals)

    def test_independent_of_associativity(self):
        # convexity lets k_min_integer compare k_min with its two neighbours
        # only; this is the scan over every k that the comparison stands for
        for n in range(2, 129):
            k_min = k_min_integer(n, 1).k_min
            for ways in POW2_WAYS:
                result = k_min_integer(n, ways)
                assert result.k_min == k_min
                scan = min(expected_reads(n, ways, k).total_bits for k in range(n + 1))
                assert result.total_at_k_min <= scan + 1e-12 * n * ways

    @pytest.mark.parametrize("tag_bits,ways", [(2, 8), (23, 8), (69, 512), (128, 4096)])
    def test_at_most_three_evaluations_per_associativity(
        self, monkeypatch, uncached_argmin, tag_bits, ways
    ):
        calls = []

        def counting(*args):
            calls.append(args)
            return expected_reads(*args)

        monkeypatch.setattr(optimum, "expected_reads", counting)
        k_min_integer(tag_bits, ways)
        assert 1 <= len(calls) <= 3
        assert {args[1] for args in calls} == {ways}

    def test_the_per_tag_length_optimum_evaluates_at_most_two_points(
        self, monkeypatch, uncached_argmin
    ):
        # the floor and the ceiling of the continuous optimum, never a scan
        # over k; expected_reads is called only by the neighbour check
        calls = collections.Counter()

        def counting(name):
            function = getattr(model, name)

            def counted(*args):
                calls[name] += 1
                return function(*args)
            return counted

        for name in ("expected_reads", "continuous_total_bits"):
            monkeypatch.setattr(optimum, name, counting(name))
        assert k_min_integer(128, 1).k_min == 6
        assert calls["continuous_total_bits"] <= 2
        assert calls["expected_reads"] <= 3

    @staticmethod
    def lower_neighbour(monkeypatch, neighbour, below):
        """Make k = neighbour cost `below` less than k_min = 4 at 23 tag bits, 8 ways."""
        at_k_min = expected_reads(23, 8, 4).total_bits

        def patched(tag_bits, ways, k):
            ev = expected_reads(tag_bits, ways, k)
            if (tag_bits, ways, k) == (23, 8, neighbour):
                return dataclasses.replace(ev, total_bits=at_k_min - below)
            return ev

        monkeypatch.setattr(optimum, "expected_reads", patched)

    @pytest.mark.parametrize("neighbour", [3, 5])
    def test_a_lower_neighbour_fails_the_check(
        self, monkeypatch, uncached_argmin, capsys, neighbour
    ):
        # the slack is 1e-12 * 23 * 8, about 1.8e-10 bits
        self.lower_neighbour(monkeypatch, neighbour, 1e-9)
        with pytest.raises(AssertionError, match="ways=8 deviated"):
            k_min_integer(23, 8)
        # 1M, 8 ways, 40-bit addresses: 23 tag bits
        assert main(["analyze", "--size", "1M", "--assoc", "8", "--addr-bits", "40"]) == 4
        assert "internal invariant violated" in capsys.readouterr().err

    @pytest.mark.parametrize("neighbour", [3, 5])
    def test_a_neighbour_lower_within_the_slack_passes(
        self, monkeypatch, uncached_argmin, neighbour
    ):
        self.lower_neighbour(monkeypatch, neighbour, 1e-11)
        assert k_min_integer(23, 8).k_min == 4


class TestConvexityAndRounding:
    def test_certificate_over_the_working_range(self):
        for n in (8, 23, 31, 48, 64):
            assert convexity_certificate(n, 8, samples=200)

    def test_certificate_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            convexity_certificate(23, 8, samples=0)

    def test_rounding_matches_argmin_on_common_tags(self):
        assert round_function_report(range(8, 65)) == []

    def test_rounding_first_fails_at_69(self):
        # k_min(69) = 6 while the continuous optimum 5.49 rounds to 5
        assert round_function_report([68, 69, 70]) == [69]
        assert k_min_integer(69, 1).k_min == 6
        assert round(k_optimal_continuous(69)) == 5
