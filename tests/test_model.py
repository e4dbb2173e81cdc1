"""Closed-form cost model: geometry, expectations, derivatives."""

import math
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tagsplit.model import (
    CacheConfig,
    _binomial_mean_matches,
    baseline_bits,
    continuous_total_bits,
    expected_matched_ways,
    expected_reads,
    first_derivative,
    second_derivative,
)

KB = 1024
MB = 1024 * 1024

POW2_WAYS = [2 ** i for i in range(1, 13)]

tag_bits_st = st.integers(min_value=8, max_value=64)
ways_st = st.sampled_from(POW2_WAYS)


def fd_first(tag_bits, ways, k, h):
    lo = continuous_total_bits(tag_bits, ways, k - h)
    hi = continuous_total_bits(tag_bits, ways, k + h)
    return (hi - lo) / (2.0 * h)


def fd_second(tag_bits, ways, k, h):
    lo = first_derivative(tag_bits, ways, k - h)
    hi = first_derivative(tag_bits, ways, k + h)
    return (hi - lo) / (2.0 * h)


class TestGeometry:
    def test_reference_configuration(self):
        cfg = CacheConfig(address_bits=40, cache_size=1 * MB, block_size=64, associativity=8)
        assert cfg.sets == 2048
        assert cfg.index_bits == 11
        assert cfg.offset_bits == 6
        assert cfg.tag_bits == 23

    def test_second_configuration(self):
        cfg = CacheConfig(address_bits=32, cache_size=256 * KB, block_size=64, associativity=4)
        assert cfg.tag_bits == 16

    def test_short_address_leaves_no_tag(self):
        with pytest.raises(ValueError, match="tag length not positive"):
            CacheConfig(address_bits=16, cache_size=1 * MB, block_size=64, associativity=2)

    @pytest.mark.parametrize("field,value", [
        ("cache_size", 3 * KB),
        ("block_size", 48),
        ("associativity", 3),
    ])
    def test_power_of_two_fields(self, field, value):
        kwargs = dict(address_bits=40, cache_size=1 * MB, block_size=64, associativity=8)
        kwargs[field] = value
        with pytest.raises(ValueError, match="power of two"):
            CacheConfig(**kwargs)

    @pytest.mark.parametrize("addr", [15, 129, 0])
    def test_address_bits_range(self, addr):
        with pytest.raises(ValueError, match="address_bits"):
            CacheConfig(address_bits=addr, cache_size=1 * MB, block_size=64, associativity=8)

    def test_block_times_ways_must_fit(self):
        with pytest.raises(ValueError, match="exceeds cache_size"):
            CacheConfig(address_bits=40, cache_size=4 * KB, block_size=64, associativity=128)

    def test_fields_count_bits_of_the_address(self):
        cfg = CacheConfig(address_bits=48, cache_size=2 * MB, block_size=128, associativity=16)
        assert cfg.index_bits + cfg.offset_bits + cfg.tag_bits == cfg.address_bits
        assert cfg.sets == cfg.cache_size // (cfg.block_size * cfg.associativity)


class TestBaselineAndProbability:
    def test_baseline_counts_all_tag_bits(self):
        assert baseline_bits(23, 8) == 184
        assert baseline_bits(16, 4) == 64

    def test_baseline_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            baseline_bits(0, 8)


class TestExpectedMatchedWays:
    def test_binomial_mean(self):
        assert expected_matched_ways(8, 4) == pytest.approx(0.5, rel=1e-12)
        assert expected_matched_ways(4, 2) == pytest.approx(1.0, rel=1e-12)
        assert expected_matched_ways(512, 1) == pytest.approx(256.0, rel=1e-12)

    def test_zero_split_matches_every_way(self):
        for ways in POW2_WAYS:
            assert expected_matched_ways(ways, 0) == float(ways)

    def test_single_way_is_exactly_the_probability(self):
        # the one-way sum collapses to a single Bernoulli term
        for k in range(0, 65):
            assert expected_matched_ways(1, k) == 2.0 ** -k

    @given(ways=ways_st, k=st.integers(min_value=0, max_value=64))
    @example(ways=2048, k=1)
    @example(ways=4096, k=2)
    def test_bounds(self, ways, k):
        mean = expected_matched_ways(ways, k)
        assert 0.0 <= mean <= ways

    @given(ways=ways_st, k=st.integers(min_value=0, max_value=64))
    @example(ways=2048, k=1)  # the recurrence's first term q**ways is 0.0 here
    @example(ways=4096, k=2)
    def test_matches_closed_form(self, ways, k):
        assert expected_matched_ways(ways, k) == pytest.approx(ways * 2.0 ** -k, rel=1e-12)


def binomial_sum_over_every_way(ways: int, k: int) -> float:
    """The model's ratio-recurrence sum, run over every way with no early stop."""
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


class TestBinomialSumStop:
    """The sum stops at its first zero term: every later term is zero too."""

    @pytest.mark.parametrize("ways", [2 ** e for e in range(13)] + [3, 100, 1000])
    def test_same_float_as_the_sum_over_every_way(self, ways):
        for k in range(129):
            assert expected_matched_ways(ways, k) == binomial_sum_over_every_way(ways, k)

    @pytest.mark.parametrize("k", [8, 12, 16, 20, 24, 40])
    def test_same_float_at_65536_ways(self, k):
        assert expected_matched_ways(1 << 16, k) == binomial_sum_over_every_way(1 << 16, k)

    def test_huge_associativity_takes_no_step_per_way(self):
        # about 60 steps (tens of microseconds); one per way took seconds
        start = time.perf_counter()
        mean = _binomial_mean_matches.__wrapped__(1 << 26, 40)
        assert time.perf_counter() - start < 0.05
        assert mean == pytest.approx(2.0 ** -14, rel=1e-12)


class TestExpectedReads:
    def test_reference_point(self):
        ev = expected_reads(23, 8, 4)
        assert ev.first_step_bits == 32
        assert ev.expected_second_step_bits == pytest.approx(9.5, rel=1e-12)
        assert ev.total_bits == pytest.approx(41.5, rel=1e-12)
        assert ev.reduction_ratio == pytest.approx(41.5 / 184.0, rel=1e-12)

    def test_monte_carlo_oracle(self):
        # draw 4-bit prefixes for 8 ways against a random request,
        # 10^6 trials; the analytic mean must sit within three standard
        # errors of the empirical one
        rng = np.random.default_rng(20210907)
        trials = 1_000_000
        stored = rng.integers(0, 16, size=(trials, 8))
        request = rng.integers(0, 16, size=(trials, 1))
        matches = (stored == request).sum(axis=1)
        observed_total = 4 * 8 + 19 * matches.mean()
        se_total = 19 * matches.std(ddof=1) / math.sqrt(trials)
        assert abs(expected_reads(23, 8, 4).total_bits - observed_total) <= 3 * se_total

    @pytest.mark.parametrize("tag_bits,ways", [(23, 8), (16, 4), (48, 4), (64, 512)])
    def test_degenerate_splits_cost_the_baseline(self, tag_bits, ways):
        base = baseline_bits(tag_bits, ways)
        assert expected_reads(tag_bits, ways, 0).total_bits == pytest.approx(base, rel=1e-12)
        assert expected_reads(tag_bits, ways, tag_bits).total_bits == pytest.approx(base, rel=1e-12)

    def test_rejects_fractional_k(self):
        with pytest.raises(ValueError, match="integer"):
            expected_reads(23, 8, 3.5)

    def test_accepts_integral_float(self):
        assert expected_reads(23, 8, 4.0) == expected_reads(23, 8, 4)

    @pytest.mark.parametrize("k", [-1, 24])
    def test_rejects_out_of_range_k(self, k):
        with pytest.raises(ValueError):
            expected_reads(23, 8, k)

    @given(tag_bits=tag_bits_st, ways=ways_st, data=st.data())
    def test_closed_form_identity(self, tag_bits, ways, data):
        k = data.draw(st.integers(min_value=0, max_value=tag_bits))
        total = expected_reads(tag_bits, ways, k).total_bits
        closed = k * ways + (tag_bits - k) * ways * 2.0 ** -k
        assert abs(total - closed) <= 1e-9 * tag_bits * ways

    @given(tag_bits=st.integers(min_value=2, max_value=64), ways=ways_st, data=st.data())
    def test_interior_split_beats_baseline(self, tag_bits, ways, data):
        k = data.draw(st.integers(min_value=1, max_value=tag_bits - 1))
        ev = expected_reads(tag_bits, ways, k)
        assert ev.total_bits < baseline_bits(tag_bits, ways)
        assert 0.0 < ev.reduction_ratio < 1.0

    @given(tag_bits=tag_bits_st, ways=ways_st, data=st.data())
    def test_associativity_factors_out(self, tag_bits, ways, data):
        k = data.draw(st.integers(min_value=0, max_value=tag_bits))
        scaled = expected_reads(tag_bits, ways, k).total_bits
        per_way = expected_reads(tag_bits, 1, k).total_bits
        assert scaled == pytest.approx(ways * per_way, rel=1e-12)

    @given(tag_bits=tag_bits_st, ways=ways_st, data=st.data())
    def test_continuous_relaxation_agrees_at_integers(self, tag_bits, ways, data):
        k = data.draw(st.integers(min_value=0, max_value=tag_bits))
        assert continuous_total_bits(tag_bits, ways, k) == pytest.approx(
            expected_reads(tag_bits, ways, k).total_bits, rel=1e-12
        )


class TestDerivatives:
    def test_sign_flips_across_the_optimum(self):
        # finite-difference oracle at the spec'd probe points
        rising = first_derivative(23, 8, 4.0)
        falling = first_derivative(23, 8, 3.0)
        assert rising == pytest.approx(fd_first(23, 8, 4.0, 1e-6), rel=1e-6)
        assert falling == pytest.approx(fd_first(23, 8, 3.0, 1e-6), rel=1e-6)
        assert rising > 0.0 > falling
        assert rising == pytest.approx(0.9151017846805196, rel=1e-12)
        assert falling == pytest.approx(-6.862943611198906, rel=1e-12)

    def test_positive_approaching_the_upper_boundary(self):
        assert first_derivative(23, 8, 22.9) > 0.0

    @pytest.mark.parametrize("k", [0.0, 23.0, -1.0, 24.0])
    def test_domain_is_open(self, k):
        with pytest.raises(ValueError):
            first_derivative(23, 8, k)
        with pytest.raises(ValueError):
            second_derivative(23, 8, k)

    @given(tag_bits=tag_bits_st, data=st.data())
    @settings(max_examples=150)
    def test_first_derivative_matches_finite_differences(self, tag_bits, data):
        h = 1e-5
        k = data.draw(
            st.floats(min_value=0.1, max_value=tag_bits - 0.1, allow_nan=False)
        )
        analytic = first_derivative(tag_bits, 1, k)
        # the relative comparison is ill-posed at the zero crossing
        if abs(analytic) < 1e-2:
            return
        assert analytic == pytest.approx(fd_first(tag_bits, 1, k, h), rel=1e-6)

    @given(tag_bits=tag_bits_st, ways=ways_st, data=st.data())
    def test_derivative_scales_linearly_with_ways(self, tag_bits, ways, data):
        k = data.draw(st.floats(min_value=0.5, max_value=tag_bits - 0.5, allow_nan=False))
        assert first_derivative(tag_bits, ways, k) == pytest.approx(
            ways * first_derivative(tag_bits, 1, k), rel=1e-12
        )

    def test_second_derivative_reference_point(self):
        analytic = second_derivative(23, 8, 4.0)
        assert analytic == pytest.approx(fd_second(23, 8, 4.0, 1e-6), rel=1e-6)
        assert analytic == pytest.approx(5.257450812782858, rel=1e-12)

    @given(tag_bits=tag_bits_st, ways=ways_st, data=st.data())
    def test_second_derivative_is_positive_inside(self, tag_bits, ways, data):
        k = data.draw(st.floats(min_value=1e-6, max_value=tag_bits - 1e-6, allow_nan=False))
        assert second_derivative(tag_bits, ways, k) > 0.0
