"""Trace-driven simulator: LRU mechanics, counters, and invariance."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tagsplit import sim
from tagsplit.model import CacheConfig, expected_reads
from tagsplit.sim import (
    CacheState,
    SimStats,
    baseline_outcomes,
    invariance_check,
    run_trace,
    trace_outcomes,
    warm_fill,
)
from tagsplit.traces import TRACE_KINDS, stride_trace, uniform_trace, zipf_block_trace

# 2 sets, 2 ways, tag_bits = 16 - 1 - 6 = 9
MICRO = CacheConfig(cache_size=256, block_size=64, associativity=2, address_bits=16)
# 4 sets, 4 ways, tag_bits = 16 - 2 - 6 = 8
TINY = CacheConfig(cache_size=1024, block_size=64, associativity=4, address_bits=16)


def addr(config: CacheConfig, tag: int, set_index: int) -> int:
    return ((tag << config.index_bits) | set_index) << config.offset_bits


class TestAccessBasics:
    def test_first_access_misses(self):
        state = CacheState(MICRO, k=3)
        stats = SimStats(ways=2)
        assert state.access(addr(MICRO, 5, 0), stats) is False
        assert (stats.accesses, stats.hits, stats.misses) == (1, 0, 1)
        assert stats.step1_bit_reads == 3 * 2
        assert stats.step2_bit_reads == 0  # both ways were empty
        assert stats.matched_way_histogram == [1, 0, 0]

    def test_repeated_address_hits_after_the_fill(self):
        state = CacheState(MICRO, k=3)
        address = addr(MICRO, 5, 1)
        stats = SimStats(ways=2)
        for _ in range(100):
            state.access(address, stats)
        assert (stats.hits, stats.misses) == (99, 1)
        # every hit saw exactly one survivor
        assert stats.matched_way_histogram[1] == 99

    def test_fills_use_empty_ways_before_evicting(self):
        state = CacheState(MICRO, k=3)
        stats = SimStats(ways=2)
        state.access(addr(MICRO, 1, 0), stats)
        state.access(addr(MICRO, 2, 0), stats)
        assert state.access(addr(MICRO, 1, 0), stats) is True
        assert state.access(addr(MICRO, 2, 0), stats) is True

    def test_evicts_the_least_recently_used_way(self):
        state = CacheState(MICRO, k=3)
        stats = SimStats(ways=2)
        t = lambda tag: addr(MICRO, tag, 0)
        state.access(t(0), stats)  # miss, fills
        state.access(t(1), stats)  # miss, fills
        state.access(t(0), stats)  # hit, tag 1 becomes LRU
        state.access(t(2), stats)  # miss, must evict tag 1
        assert state.access(t(2), stats) is True
        assert state.access(t(0), stats) is True
        assert state.access(t(1), stats) is False

    def test_sets_are_independent(self):
        state = CacheState(MICRO, k=3)
        stats = SimStats(ways=2)
        state.access(addr(MICRO, 7, 0), stats)
        assert state.access(addr(MICRO, 7, 1), stats) is False
        assert state.access(addr(MICRO, 7, 0), stats) is True

    def test_rejects_addresses_outside_the_space(self):
        state = CacheState(MICRO, k=3)
        with pytest.raises(ValueError, match="16-bit"):
            state.access(1 << 16, SimStats(ways=2))

    @pytest.mark.parametrize("k", [-1, 10, 2.5])
    def test_rejects_bad_splitting_points(self, k):
        with pytest.raises(ValueError, match="splitting point"):
            CacheState(MICRO, k=k)

    def test_accepts_an_integral_float_k(self):
        assert CacheState(MICRO, k=4.0).k == 4


class TestStateViews:
    def test_lru_ranks_is_a_permutation(self):
        state = CacheState(TINY, k=3)
        stats = SimStats(ways=4)
        for tag in (3, 1, 4, 1, 5, 9, 2, 6):
            state.access(addr(TINY, tag, 2), stats)
        for s in range(state.config.sets):
            assert sorted(state.lru_ranks(s)) == [0, 1, 2, 3]

    def test_contents_tracks_fills_and_recency(self):
        state = CacheState(MICRO, k=3)
        stats = SimStats(ways=2)
        state.access(addr(MICRO, 4, 0), stats)
        state.access(addr(MICRO, 6, 0), stats)
        state.access(addr(MICRO, 4, 0), stats)
        entries = state.contents(0)
        assert sorted(entries) == [(True, 4, 1), (True, 6, 0)]
        assert all(not valid for valid, _, _ in state.contents(1))


class TestCounters:
    def test_validate_passes_on_a_real_run(self):
        state = CacheState(TINY, k=3)
        stats = run_trace(state, uniform_trace(2000, seed=7, address_bits=16))
        stats.validate(tag_bits=8, k=3)

    def test_validate_catches_a_corrupted_counter(self):
        state = CacheState(TINY, k=3)
        stats = run_trace(state, uniform_trace(100, seed=7, address_bits=16))
        stats.hits += 1
        with pytest.raises(AssertionError, match="hits \\+ misses"):
            stats.validate(tag_bits=8, k=3)

    def test_k_zero_reads_every_valid_way_in_full(self):
        state = CacheState(MICRO, k=0)
        stats = SimStats(ways=2)
        state.access(addr(MICRO, 1, 0), stats)  # fill one way
        state.access(addr(MICRO, 2, 0), stats)  # one valid way survives
        assert stats.step1_bit_reads == 0
        assert stats.step2_bit_reads == 9 * 1
        stats.validate(tag_bits=9, k=0)

    def test_k_equal_to_tag_bits_has_no_second_step(self):
        state = CacheState(TINY, k=8)
        stats = run_trace(state, uniform_trace(500, seed=11, address_bits=16))
        assert stats.step2_bit_reads == 0
        assert stats.step1_bit_reads == stats.baseline_bit_reads
        stats.validate(tag_bits=8, k=8)

    def test_empty_traces_are_rejected(self):
        state = CacheState(TINY, k=3)
        with pytest.raises(ValueError, match="empty"):
            run_trace(state, [])
        with pytest.raises(ValueError, match="empty"):
            trace_outcomes(state, [])

    def test_stats_refuse_rates_before_any_access(self):
        stats = SimStats(ways=4)
        with pytest.raises(ValueError, match="no accesses"):
            stats.bits_per_access
        with pytest.raises(ValueError, match="no accesses"):
            stats.mean_survivors()

    @given(
        addresses=st.lists(st.integers(0, (1 << 16) - 1), min_size=1, max_size=150),
        k=st.integers(0, 8),
    )
    def test_counter_identities_hold_on_random_traces(self, addresses, k):
        state = CacheState(TINY, k=k)
        stats = run_trace(state, addresses)
        stats.validate(tag_bits=8, k=k)


class TestOutcomeInvariance:
    def test_baseline_reference_matches_the_simulator(self):
        trace = uniform_trace(3000, seed=17, address_bits=16)
        outcomes = trace_outcomes(CacheState(TINY, k=5), trace)
        assert outcomes == baseline_outcomes(TINY, trace)

    def test_invariance_across_splitting_points(self):
        trace = uniform_trace(2000, seed=19, address_bits=16)
        assert invariance_check(TINY, trace, k_values=range(0, 9))

    @given(addresses=st.lists(st.integers(0, (1 << 16) - 1), min_size=1, max_size=120))
    def test_every_k_reproduces_the_baseline_outcomes(self, addresses):
        assert invariance_check(TINY, addresses, k_values=(0, 1, 4, 8))


class TestWarmFill:
    def test_fills_every_way_of_every_set(self):
        state = CacheState(TINY, k=3)
        warm_fill(state)
        for s in range(state.config.sets):
            assert all(valid for valid, _, _ in state.contents(s))

    def test_fills_with_distinct_tags_per_set(self):
        state = CacheState(TINY, k=3)
        warm_fill(state)
        for s in range(state.config.sets):
            tags = [tag for _, tag, _ in state.contents(s)]
            assert len(set(tags)) == len(tags)

    def test_small_tag_spaces_fill_what_they_can(self):
        # 256 sets * 8 ways * 64B = 128K; tag_bits = 16 - 8 - 6 = 2,
        # so only 4 distinct tags exist for the 8 ways of each set
        config = CacheConfig(
            cache_size=128 * 1024, block_size=64, associativity=8, address_bits=16
        )
        state = CacheState(config, k=1)
        warm_fill(state)
        for s in (0, 100, 255):
            assert sum(valid for valid, _, _ in state.contents(s)) == 4


def reference_fold(state: CacheState, trace) -> tuple[SimStats, list[bool]]:
    """Counters and outcomes of the trace, one state.access at a time."""
    stats = SimStats(ways=state.config.associativity)
    outcomes = [state.access(address, stats) for address in trace]
    return stats, outcomes


def reference_warm_fill(state: CacheState) -> None:
    """The warm fill as a per-access loop: tag t into every set, t = 0, 1, ..."""
    config = state.config
    scratch = SimStats(ways=config.associativity)
    for tag in range(min(config.associativity, 1 << config.tag_bits)):
        for set_index in range(config.sets):
            state.access(addr(config, tag, set_index), scratch)


def all_contents(state: CacheState) -> list:
    return [state.contents(s) for s in range(state.config.sets)]


DIFFERENTIAL_CONFIGS = (
    # one set of 4 ways
    CacheConfig(cache_size=256, block_size=64, associativity=4, address_bits=16),
    # 64 direct-mapped sets
    CacheConfig(cache_size=4096, block_size=64, associativity=1, address_bits=16),
    # 64 sets of 4 ways, 8 tag bits
    CacheConfig(cache_size=16 * 1024, block_size=64, associativity=4, address_bits=20),
    # 256 sets of 8 ways but only 2 tag bits: the warm fill is partial
    CacheConfig(cache_size=128 * 1024, block_size=64, associativity=8, address_bits=16),
    # wider than 64 bits: 60 and 68 tag bits
    CacheConfig(cache_size=8 * 1024, block_size=64, associativity=2, address_bits=72),
    CacheConfig(cache_size=8 * 1024, block_size=64, associativity=2, address_bits=80),
)


@st.composite
def differential_traces(draw, config: CacheConfig, kinds=TRACE_KINDS + ("repeat runs",)):
    """A uniform, stride or zipf-block trace; above 2**64 for wide addresses.

    A "repeat runs" trace is one of those with each address repeated 1 to 7
    times, so runs of one, two and three or more accesses to one tag
    interleave across sets.
    """
    kind = draw(st.sampled_from(kinds))
    if kind == "repeat runs":
        trace = draw(differential_traces(config, TRACE_KINDS))
        rng = random.Random(draw(st.integers(0, 1 << 16)))
        return [a for a in list(trace) for _ in range(rng.randint(1, 7))][:300]
    length = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 1 << 16))
    bits = min(config.address_bits, 64)
    if kind == "uniform":
        # narrow spans revisit blocks, wide ones almost never do
        trace = uniform_trace(length, seed, address_bits=draw(st.integers(1, bits)))
    elif kind == "stride":
        trace = stride_trace(
            length,
            stride=draw(st.sampled_from([8, 64, 4096, 1 << 14])),
            base=draw(st.integers(0, (1 << bits) - 1)),
            address_bits=bits,
        )
    else:
        trace = zipf_block_trace(
            length, seed, num_blocks=draw(st.sampled_from([4, 64, 1024])),
            block_size=config.block_size, address_bits=bits,
        )
    if config.address_bits <= 64:
        return trace
    rng = random.Random(seed)
    wide = config.address_bits - 64
    return [a | (rng.getrandbits(wide) << 64) for a in trace.tolist()]


START_STATES = ("cold", "warm", "used, then warm")
# 0: numpy rounds only; huge: the scalar tail only
TAIL_THRESHOLDS = (0, sim._SCALAR_TAIL_SETS, 1 << 30)


def assert_engine_matches_reference(config, k, start, prefix, trace, tail) -> None:
    """run_trace and trace_outcomes leave what state.access leaves, state for state."""
    with mock.patch.object(sim, "_SCALAR_TAIL_SETS", tail):
        slow, fast, fast_outcomes = (CacheState(config, k) for _ in range(3))
        if start == "used, then warm":
            reference_fold(slow, prefix)
            run_trace(fast, prefix)
            trace_outcomes(fast_outcomes, prefix)
        if start != "cold":
            reference_warm_fill(slow)
            warm_fill(fast)
            warm_fill(fast_outcomes)
        assert all_contents(fast) == all_contents(slow)
        expected_stats, expected_outcomes = reference_fold(slow, trace)
        stats = run_trace(fast, trace)
        outcomes = trace_outcomes(fast_outcomes, trace)
    assert stats == expected_stats
    assert outcomes == expected_outcomes
    expected_contents = all_contents(slow)
    assert all_contents(fast) == expected_contents
    assert all_contents(fast_outcomes) == expected_contents


class TestDifferential:
    """The set-parallel engine against the scalar reference, state for state."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_engine_matches_the_scalar_reference(self, data):
        config = data.draw(st.sampled_from(DIFFERENTIAL_CONFIGS), label="config")
        tag_bits = config.tag_bits
        k = data.draw(st.sampled_from([0, tag_bits]) | st.integers(0, tag_bits), label="k")
        assert_engine_matches_reference(
            config,
            k,
            data.draw(st.sampled_from(START_STATES), label="start"),
            data.draw(differential_traces(config), label="prefix"),
            data.draw(differential_traces(config), label="trace"),
            data.draw(st.sampled_from(TAIL_THRESHOLDS), label="tail"),
        )

    @pytest.mark.parametrize("tail", TAIL_THRESHOLDS)
    @pytest.mark.parametrize("start", START_STATES)
    @pytest.mark.parametrize("config", DIFFERENTIAL_CONFIGS)
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_folded_repeat_runs_match_the_scalar_reference(self, config, start, tail, data):
        k = data.draw(st.integers(0, config.tag_bits), label="k")
        prefix = data.draw(differential_traces(config), label="prefix")
        trace = data.draw(differential_traces(config, ("repeat runs",)), label="trace")
        assert_engine_matches_reference(config, k, start, prefix, trace, tail)

    def test_a_repeated_address_costs_two_rounds(self):
        repeats = 10**5
        trace = np.full(repeats, addr(TINY, 5, 2), dtype=np.uint64)
        counted, traced = CacheState(TINY, k=3), CacheState(TINY, k=3)
        stats = run_trace(counted, trace)
        assert (stats.hits, stats.misses) == (repeats - 1, 1)
        assert stats.matched_way_histogram == [1, repeats - 1, 0, 0, 0]
        assert trace_outcomes(traced, trace) == [False] + [True] * (repeats - 1)
        # one round per kept access: the run's first two
        assert counted._clock <= 2 and traced._clock <= 2

    def test_counters_are_python_ints(self):
        stats = run_trace(CacheState(TINY, k=3), uniform_trace(500, seed=3, address_bits=16))
        counters = [getattr(stats, name) for name in (
            "accesses", "hits", "misses", "step1_bit_reads", "step2_bit_reads",
            "baseline_bit_reads")]
        assert all(type(value) is int for value in counters + stats.matched_way_histogram)

    @pytest.mark.parametrize("config", DIFFERENTIAL_CONFIGS)
    def test_warm_fill_matches_the_per_access_fill(self, config):
        state, reference = CacheState(config, k=1), CacheState(config, k=1)
        warm_fill(state)
        reference_warm_fill(reference)
        assert all_contents(state) == all_contents(reference)


class TestTraceValidation:
    @pytest.mark.parametrize(
        "trace,bad",
        [
            ([5, 1 << 17, 1 << 16], "0x20000"),
            ([-1, 7], "-0x1"),
            ([3, 1 << 64], "0x10000000000000000"),
            (np.array([64, 1 << 40], dtype=np.uint64), "0x10000000000"),
            (np.array([64, -64], dtype=np.int64), "-0x40"),
        ],
    )
    def test_a_rejected_trace_leaves_the_state_unchanged(self, trace, bad):
        state = CacheState(TINY, k=3)
        warm_fill(state)
        run_trace(state, uniform_trace(300, seed=5, address_bits=16))
        before = all_contents(state)
        message = f"address {bad} outside the 16-bit space"
        with pytest.raises(ValueError, match=message):
            run_trace(state, trace)
        with pytest.raises(ValueError, match=message):
            trace_outcomes(state, trace)
        assert all_contents(state) == before
        assert run_trace(state, [0]).accesses == 1


class TestStatisticalAgreement:
    def test_bits_per_access_tracks_the_model_on_uniform_traffic(self):
        # 128 sets, 8 ways, tag_bits = 32 - 7 - 6 = 19; expected
        # bits/access = 4*8 + 15*8/16 = 39.5
        config = CacheConfig(
            cache_size=64 * 1024, block_size=64, associativity=8, address_bits=32
        )
        state = CacheState(config, k=4)
        warm_fill(state)
        trace = uniform_trace(100_000, seed=20210907, address_bits=32)
        stats = run_trace(state, trace)
        stats.validate(tag_bits=19, k=4)
        expected = expected_reads(tag_bits=19, ways=8, k=4).total_bits
        assert stats.bits_per_access == pytest.approx(expected, rel=0.01)
        # mean matched ways; SE = sqrt(8*(1/16)*(15/16)/1e5) ~ 0.0022
        assert stats.mean_survivors() == pytest.approx(0.5, abs=0.009)
