"""Trace-driven simulator: LRU mechanics, counters, and invariance.

The scalar reference, `access` and the `lru_ranks`/`contents` views,
lives here: it looks up one address at a time, and TestDifferential
checks the set-parallel engine against it state for state.
"""

import random
import re
from dataclasses import fields
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
from tagsplit.traces import (
    TRACE_KINDS,
    as_addresses,
    stride_trace,
    uniform_trace,
    write_trace_binary,
    write_trace_text,
    zipf_block_trace,
)

# 2 sets, 2 ways, tag_bits = 16 - 1 - 6 = 9
MICRO = CacheConfig(cache_size=256, block_size=64, associativity=2, address_bits=16)
# 4 sets, 4 ways, tag_bits = 16 - 2 - 6 = 8
TINY = CacheConfig(cache_size=1024, block_size=64, associativity=4, address_bits=16)
# 64 sets, 2 ways, tag_bits = 72 - 6 - 6 = 60
WIDE = CacheConfig(cache_size=8 * 1024, block_size=64, associativity=2, address_bits=72)


def addr(config: CacheConfig, tag: int, set_index: int) -> int:
    return ((tag << config.index_bits) | set_index) << config.offset_bits


def access(state: CacheState, address: int) -> tuple[bool, int]:
    """Look up one address, updating state; (hit, valid ways surviving step 1).

    The per-access reference the set-parallel engine is checked against.
    """
    config = state.config
    address = int(address)
    if address < 0 or address >> config.address_bits:
        raise ValueError(f"address {address:#x} outside the {config.address_bits}-bit space")
    block = address >> config.offset_bits
    set_index = block & (config.sets - 1)
    tag = block >> config.index_bits
    prefix_mask = (1 << state.k) - 1
    prefix = tag & prefix_mask
    tags = state._tags[:, set_index].tolist()
    ages = state._ages[:, set_index].tolist()
    survivors = 0
    hit_way = -1
    for way in range(config.associativity):
        if ages[way] >= 0 and (tags[way] & prefix_mask) == prefix:
            survivors += 1
            if tags[way] == tag:
                hit_way = way
    if hit_way >= 0:
        way = hit_way
    else:
        way = ages.index(min(ages))
        state._tags[way, set_index] = tag
    state._ages[way, set_index] = state._clock
    state._clock += 1
    return hit_way >= 0, survivors


def lru_ranks(state: CacheState, set_index: int) -> list[int]:
    """Rank of each way (0 = least recently used); a permutation."""
    return np.argsort(np.argsort(state._ages[:, set_index])).tolist()


def contents(state: CacheState, set_index: int) -> list[tuple[bool, int, int]]:
    """Per-way (valid, tag, lru_rank) view of one set."""
    ages = state._ages[:, set_index].tolist()
    tags = state._tags[:, set_index].tolist()
    return [
        (age >= 0, tag, rank) for age, tag, rank in zip(ages, tags, lru_ranks(state, set_index))
    ]


def reference_fold(state: CacheState, trace) -> tuple[SimStats, list[bool]]:
    """Counters and outcomes of the trace, one access at a time."""
    config = state.config
    ways, tag_bits, k = config.associativity, config.tag_bits, state.k
    accesses = hits = step1 = step2 = baseline = 0
    histogram = [0] * (ways + 1)
    outcomes = []
    for address in trace:
        hit, survivors = access(state, address)
        accesses += 1
        hits += hit
        step1 += k * ways
        step2 += survivors * (tag_bits - k)
        baseline += tag_bits * ways
        histogram[survivors] += 1
        outcomes.append(hit)
    stats = SimStats(ways, accesses, hits, accesses - hits, step1, step2, baseline, histogram)
    return stats, outcomes


ENGINES = {
    "reference": lambda state, trace: reference_fold(state, trace)[0],
    "run_trace": run_trace,
}
each_engine = pytest.mark.parametrize("engine", sorted(ENGINES))


class OneByOne:
    """Lookups of one address per engine call; the counters of all calls add up."""

    def __init__(self, engine: str, state: CacheState):
        self.engine, self.state, self.runs = ENGINES[engine], state, []

    def __call__(self, address: int) -> bool:
        """Look up one address; True on hit."""
        self.runs.append(self.engine(self.state, [address]))
        return self.runs[-1].hits == 1

    @property
    def stats(self) -> SimStats:
        """The counters of every call so far, added up."""
        counters = [sum(getattr(run, f.name) for run in self.runs) for f in fields(SimStats)[1:-1]]
        histogram = [sum(c) for c in zip(*(run.matched_way_histogram for run in self.runs))]
        return SimStats(self.state.config.associativity, *counters, histogram)


class TestAccessBasics:
    @each_engine
    def test_first_access_misses(self, engine):
        lookup = OneByOne(engine, CacheState(MICRO, k=3))
        assert lookup(addr(MICRO, 5, 0)) is False
        stats = lookup.stats
        assert (stats.accesses, stats.hits, stats.misses) == (1, 0, 1)
        assert stats.step1_bit_reads == 3 * 2
        assert stats.step2_bit_reads == 0  # both ways were empty
        assert stats.matched_way_histogram == [1, 0, 0]

    @each_engine
    def test_repeated_address_hits_after_the_fill(self, engine):
        lookup = OneByOne(engine, CacheState(MICRO, k=3))
        address = addr(MICRO, 5, 1)
        for _ in range(100):
            lookup(address)
        stats = lookup.stats
        assert (stats.hits, stats.misses) == (99, 1)
        # every hit saw exactly one survivor
        assert stats.matched_way_histogram[1] == 99

    @each_engine
    def test_fills_use_empty_ways_before_evicting(self, engine):
        lookup = OneByOne(engine, CacheState(MICRO, k=3))
        lookup(addr(MICRO, 1, 0))
        lookup(addr(MICRO, 2, 0))
        assert lookup(addr(MICRO, 1, 0)) is True
        assert lookup(addr(MICRO, 2, 0)) is True

    @each_engine
    def test_evicts_the_least_recently_used_way(self, engine):
        lookup = OneByOne(engine, CacheState(MICRO, k=3))
        t = lambda tag: addr(MICRO, tag, 0)
        lookup(t(0))  # miss, fills
        lookup(t(1))  # miss, fills
        lookup(t(0))  # hit, tag 1 becomes LRU
        lookup(t(2))  # miss, must evict tag 1
        assert lookup(t(2)) is True
        assert lookup(t(0)) is True
        assert lookup(t(1)) is False

    @each_engine
    def test_sets_are_independent(self, engine):
        lookup = OneByOne(engine, CacheState(MICRO, k=3))
        lookup(addr(MICRO, 7, 0))
        assert lookup(addr(MICRO, 7, 1)) is False
        assert lookup(addr(MICRO, 7, 0)) is True

    @each_engine
    def test_rejects_addresses_outside_the_space(self, engine):
        lookup = OneByOne(engine, CacheState(MICRO, k=3))
        with pytest.raises(ValueError, match="16-bit"):
            lookup(1 << 16)

    @pytest.mark.parametrize("k", [-1, 10, 2.5])
    def test_rejects_bad_splitting_points(self, k):
        with pytest.raises(ValueError, match="splitting point"):
            CacheState(MICRO, k=k)

    def test_accepts_an_integral_float_k(self):
        assert CacheState(MICRO, k=4.0).k == 4


class TestStateViews:
    def test_lru_ranks_is_a_permutation(self):
        state = CacheState(TINY, k=3)
        for tag in (3, 1, 4, 1, 5, 9, 2, 6):
            access(state, addr(TINY, tag, 2))
        for s in range(state.config.sets):
            assert sorted(lru_ranks(state, s)) == [0, 1, 2, 3]

    def test_contents_tracks_fills_and_recency(self):
        state = CacheState(MICRO, k=3)
        access(state, addr(MICRO, 4, 0))
        access(state, addr(MICRO, 6, 0))
        access(state, addr(MICRO, 4, 0))
        entries = contents(state, 0)
        assert sorted(entries) == [(True, 4, 1), (True, 6, 0)]
        assert all(not valid for valid, _, _ in contents(state, 1))


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
        stats, _ = reference_fold(state, [
            addr(MICRO, 1, 0),  # fill one way
            addr(MICRO, 2, 0),  # one valid way survives
        ])
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
        stats = SimStats(4, 0, 0, 0, 0, 0, 0, [0] * 5)
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
            assert all(valid for valid, _, _ in contents(state, s))

    def test_fills_with_distinct_tags_per_set(self):
        state = CacheState(TINY, k=3)
        warm_fill(state)
        for s in range(state.config.sets):
            tags = [tag for _, tag, _ in contents(state, s)]
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
            assert sum(valid for valid, _, _ in contents(state, s)) == 4

    def test_a_used_cache_is_refused_and_left_unchanged(self):
        state = CacheState(TINY, k=3)
        run_trace(state, [addr(TINY, 5, 2)])
        tags, ages, clock = state._tags.copy(), state._ages.copy(), state._clock
        with pytest.raises(ValueError, match="warm_fill needs a cold cache"):
            warm_fill(state)
        assert (state._tags == tags).all() and (state._ages == ages).all()
        assert state._clock == clock


def reference_warm_fill(state: CacheState) -> None:
    """The warm fill as a per-access loop: tag t into every set, t = 0, 1, ..."""
    config = state.config
    for tag in range(min(config.associativity, 1 << config.tag_bits)):
        for set_index in range(config.sets):
            access(state, addr(config, tag, set_index))


def all_contents(state: CacheState) -> list:
    return [contents(state, s) for s in range(state.config.sets)]


DIFFERENTIAL_CONFIGS = (
    # one set of 4 ways
    CacheConfig(cache_size=256, block_size=64, associativity=4, address_bits=16),
    # 64 direct-mapped sets
    CacheConfig(cache_size=4096, block_size=64, associativity=1, address_bits=16),
    # 64 sets of 4 ways, 8 tag bits
    CacheConfig(cache_size=16 * 1024, block_size=64, associativity=4, address_bits=20),
    # 256 sets of 8 ways but only 2 tag bits: the warm fill is partial
    CacheConfig(cache_size=128 * 1024, block_size=64, associativity=8, address_bits=16),
    # wider than 64 bits, fed addresses below 2**64: 60 and 68 tag bits
    WIDE,
    CacheConfig(cache_size=8 * 1024, block_size=64, associativity=2, address_bits=80),
    # 128 sets of 16 ways, 3 tag bits: mostly hits, and the warm fill is partial
    CacheConfig(cache_size=128 * 1024, block_size=64, associativity=16, address_bits=16),
    # 8 sets of 64 ways, 7 tag bits: hits, and evictions from a warm cache
    CacheConfig(cache_size=32 * 1024, block_size=64, associativity=64, address_bits=16),
)


@st.composite
def differential_traces(draw, config: CacheConfig, kinds=TRACE_KINDS + ("repeat runs",)):
    """A uniform, stride or zipf-block trace of addresses below 2**64.

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
    return trace


START_STATES = ("cold", "warm", "used")
# 0: numpy rounds only; huge: the scalar tail only
TAIL_THRESHOLDS = (0, sim._SCALAR_TAIL_SETS, 1 << 30)


def assert_engine_matches_reference(config, k, start, prefix, trace, tail) -> None:
    """run_trace and trace_outcomes leave what the reference leaves, state for state."""
    with mock.patch.object(sim, "_SCALAR_TAIL_SETS", tail):
        slow, fast, fast_outcomes = (CacheState(config, k) for _ in range(3))
        if start == "used":
            reference_fold(slow, prefix)
            run_trace(fast, prefix)
            trace_outcomes(fast_outcomes, prefix)
        if start == "warm":
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
        tag_bits = config.tag_bits
        k = data.draw(st.sampled_from([0, tag_bits]) | st.integers(0, tag_bits), label="k")
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


class TestStampCodes:
    """The engine's stamp << log2(ways) | way codes stay inside _fold."""

    @pytest.mark.parametrize("tail", TAIL_THRESHOLDS)
    def test_a_stamp_the_code_cannot_hold_is_refused(self, tail):
        # 4 ways: 2 way bits, so stamps up to 2**61 - 1 fit beside them
        last = (1 << 61) - 1
        state, reference = CacheState(TINY, k=3), CacheState(TINY, k=3)
        state._clock = reference._clock = last - 1
        with mock.patch.object(sim, "_SCALAR_TAIL_SETS", tail):
            assert run_trace(state, [addr(TINY, 5, 2)]).misses == 1
            access(reference, addr(TINY, 5, 2))
            assert all_contents(state) == all_contents(reference)
            assert (state._ages == reference._ages).all() and state._clock == last
            before = state._tags.copy(), state._ages.copy()
            for engine in (run_trace, trace_outcomes):
                with pytest.raises(ValueError, match="do not fit in int64"):
                    engine(state, [addr(TINY, 6, 2)])
        assert (state._tags == before[0]).all() and (state._ages == before[1]).all()
        assert state._clock == last

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_engine_and_reference_interleave_on_one_state(self, data):
        config = data.draw(st.sampled_from(DIFFERENTIAL_CONFIGS), label="config")
        k = data.draw(st.integers(0, config.tag_bits), label="k")
        traces = [data.draw(differential_traces(config), label=f"trace {i}") for i in range(3)]
        alone = CacheState(config, k)
        expected = [reference_fold(alone, trace) for trace in traces]
        counted, traced = CacheState(config, k), CacheState(config, k)
        with mock.patch.object(sim, "_SCALAR_TAIL_SETS",
                               data.draw(st.sampled_from(TAIL_THRESHOLDS), label="tail")):
            for i, trace in enumerate(traces):
                if i == 1:
                    assert reference_fold(counted, trace) == expected[i]
                    assert reference_fold(traced, trace) == expected[i]
                    continue
                assert run_trace(counted, trace) == expected[i][0]
                assert trace_outcomes(traced, trace) == expected[i][1]
                # plain stamps: each below the clock, none a stamp << log2(ways) | way code
                assert counted._ages.max() < counted._clock
                assert traced._ages.max() < traced._clock
        assert all_contents(counted) == all_contents(alone)
        assert all_contents(traced) == all_contents(alone)


class TestTraceValidation:
    @pytest.mark.parametrize(
        "config,trace,message",
        [
            (TINY, [5, 1 << 17, 1 << 16], "0x20000 outside the 16-bit space"),
            (TINY, [-1, 7], "-0x1 outside the 16-bit space"),
            (TINY, [3, 1 << 64], "0x10000000000000000 outside the 16-bit space"),
            (TINY, np.array([64, 1 << 40], dtype=np.uint64), "0x10000000000 outside the 16-bit"),
            (TINY, np.array([64, -64], dtype=np.int64), "-0x40 outside the 16-bit space"),
            (WIDE, [3, 1 << 64], "0x10000000000000000 does not fit in 64 bits"),
        ],
    )
    def test_a_rejected_trace_leaves_the_state_unchanged(self, config, trace, message):
        state = CacheState(config, k=3)
        warm_fill(state)
        run_trace(state, uniform_trace(300, seed=5, address_bits=16))
        before = all_contents(state)
        message = f"address {message}"
        with pytest.raises(ValueError, match=message):
            run_trace(state, trace)
        with pytest.raises(ValueError, match=message):
            trace_outcomes(state, trace)
        assert all_contents(state) == before
        assert run_trace(state, [0]).accesses == 1


# every public function that takes a trace, by name, as call(state, path, trace)
TRACE_TAKERS = {
    "run_trace": lambda state, path, trace: run_trace(state, trace),
    "trace_outcomes": lambda state, path, trace: trace_outcomes(state, trace),
    "invariance_check": lambda state, path, trace: invariance_check(state.config, trace, [0, 3]),
    "baseline_outcomes": lambda state, path, trace: baseline_outcomes(state.config, trace),
    "write_trace_text": lambda state, path, trace: write_trace_text(path, trace),
    "write_trace_binary": lambda state, path, trace: write_trace_binary(path, trace),
}


class TestTraceContract:
    """One contract for every trace a caller passes: traces.as_addresses."""

    @pytest.mark.parametrize("taker", TRACE_TAKERS)
    @pytest.mark.parametrize(
        "trace,message",
        [
            ([64.9, 64.2], "address 64.9 is not an integer"),
            (np.array([64.0]), "address np.float64(64.0) is not an integer"),
            (np.array([True, False]), "address np.True_ is not an integer"),
            (["64"], "address '64' is not an integer"),
            ([np.float32(1)], "address np.float32(1.0) is not an integer"),
            (np.array(5), "a trace must be one-dimensional, got shape ()"),
            (np.array([[64, 128]]), "a trace must be one-dimensional, got shape (1, 2)"),
            (np.array([-3], dtype=np.int64), "address -0x3 outside the {bits}-bit space"),
            ([], "a trace must not be empty"),
        ],
        ids=["floats", "float-array", "bool-array", "string", "numpy-float", "0-d", "2-d",
             "negative", "empty"],
    )
    def test_a_bad_trace_is_refused_before_anything_changes(self, taker, trace, message, tmp_path):
        state = CacheState(TINY, k=3)
        run_trace(state, uniform_trace(300, seed=5, address_bits=16))
        before = (state._tags.copy(), state._ages.copy(), state._clock)
        path = tmp_path / "t.trace"
        bits = 64 if taker.startswith("write") else TINY.address_bits
        with pytest.raises(ValueError, match=re.escape(message.format(bits=bits))):
            TRACE_TAKERS[taker](state, path, trace)
        assert np.array_equal(state._tags, before[0])
        assert np.array_equal(state._ages, before[1])
        assert state._clock == before[2]
        assert not path.exists()

    def test_a_uint64_array_is_not_copied(self):
        trace = uniform_trace(100, seed=1, address_bits=16)
        assert np.shares_memory(as_addresses(trace, 16), trace)

    @pytest.mark.parametrize(
        "trace", [[64, True, np.int64(7)], np.array([64, 1], dtype=np.int8), range(64, 66)]
    )
    def test_integers_of_any_type_are_accepted(self, trace):
        addresses = as_addresses(trace, 16)
        assert addresses.dtype == np.uint64
        assert addresses.tolist() == [int(a) for a in trace]


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
