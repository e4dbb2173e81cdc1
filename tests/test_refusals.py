"""One refusal contract for the public API (README "Library arguments").

Every numeric parameter of every public callable is driven with hostile
values.  Each call returns a finite result or raises a ValueError or
TypeError whose message names the parameter:

- nan, infinities, Python and numpy bools and strings are always refused;
- a fraction is refused where an integer is asked for;
- negative ints, ints of 64 to 200 bits and numpy integers may be taken
  or refused, but a taken one gives a finite result;
- a numpy scalar or an integral float of a valid value gives the valid
  value's result.

Object parameters (a config, state, trace, cost record or path) are
not driven: a trace has its own, stricter rule in as_addresses.
"""

import dataclasses
import math
import numbers
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tagsplit
from tagsplit import (
    CacheConfig,
    CacheState,
    CostParams,
    as_addresses,
    baseline_bits,
    continuous_total_bits,
    convexity_certificate,
    expected_matched_ways,
    expected_reads,
    first_derivative,
    generate_trace,
    invariance_check,
    k_min_integer,
    k_optimal_continuous,
    lambert_w_log,
    mttf_from_bits,
    ratio_columns,
    ratios_from_bits,
    reliability,
    round_function_report,
    second_derivative,
    split_columns,
    stride_trace,
    tag_energy,
    uniform_trace,
    zipf_block_trace,
)

CONFIG = CacheConfig(address_bits=40, cache_size=1 << 16, block_size=64, associativity=4)
PARAMS = CostParams(1e-12, 1e-12, 1e-3, 1.0, 1e-12)
TRACE = np.arange(0, 64 * 600, 64, dtype=np.uint64)
COST_FIELDS = dict(energy_per_bit_read=1e-12, fixed_energy_per_access=1e-12, leakage_power=1e-3,
                   execution_time=1.0, p_read_disturb=1e-12)
ZIPF = dict(length=16, seed=7, exponent=1.2, num_blocks=1000, block_size=64, address_bits=40)

# Each public callable with valid arguments.  Every int or float argument
# is driven, and so is the single element of a list of them; an int marks
# an integer parameter and a float a real one.
CALLS = {
    "CacheConfig": (CacheConfig, dict(address_bits=40, cache_size=1 << 16, block_size=64,
                                      associativity=4)),
    "baseline_bits": (baseline_bits, dict(tag_bits=23, ways=8)),
    "expected_matched_ways": (expected_matched_ways, dict(ways=8, k=4)),
    "expected_reads": (expected_reads, dict(tag_bits=23, ways=8, k=4)),
    "split_columns": (split_columns, dict(tag_bits=23, ways=8, ks=[4])),
    "continuous_total_bits": (continuous_total_bits, dict(tag_bits=23, ways=8, k=4.5)),
    "first_derivative": (first_derivative, dict(tag_bits=23, ways=8, k=4.5)),
    "second_derivative": (second_derivative, dict(tag_bits=23, ways=8, k=4.5)),
    "lambert_w_log": (lambert_w_log, dict(ln_z=17.0)),
    "k_optimal_continuous": (k_optimal_continuous, dict(tag_bits=23)),
    "k_min_integer": (k_min_integer, dict(tag_bits=23, ways=8)),
    "convexity_certificate": (convexity_certificate, dict(tag_bits=23, ways=8, samples=10)),
    "round_function_report": (round_function_report, dict(tag_bits_values=[23])),
    "CacheState": (CacheState, dict(config=CONFIG, k=4)),
    "invariance_check": (invariance_check, dict(config=CONFIG, trace=TRACE, k_values=[4])),
    "as_addresses": (as_addresses, dict(addresses=TRACE, address_bits=40)),
    "uniform_trace": (uniform_trace, dict(length=16, seed=7, address_bits=40)),
    "stride_trace": (stride_trace, dict(length=16, stride=64, base=0, address_bits=40)),
    "zipf_block_trace": (zipf_block_trace, ZIPF),
    # zipf-block reads every keyword but stride and base, which it ignores
    "generate_trace": (generate_trace, dict(kind="zipf-block", **ZIPF)),
    "CostParams": (CostParams, COST_FIELDS),
    "tag_energy": (tag_energy, dict(bits_read=100.0, accesses=10, params=PARAMS)),
    "reliability": (reliability, dict(bits_read=100.0, params=PARAMS)),
    "mttf_from_bits": (mttf_from_bits, dict(bits_read=100.0, params=PARAMS)),
    "ratios_from_bits": (ratios_from_bits, dict(split_bits=50.0, base_bits=100.0, accesses=10,
                                                params=PARAMS)),
    "ratio_columns": (ratio_columns, dict(split_bits=[50.0], base_bits=100.0, accesses=10,
                                          params=PARAMS)),
}

# Public callables without a numeric parameter to drive
UNDRIVEN = {
    "SplitEval": "a result record the model builds",
    "OptimumResult": "a result record the optimizer builds",
    "SimStats": "a result record the simulator builds",
    "TraceParseError": "an exception",
    "run_trace": "a state and a trace",
    "trace_outcomes": "a state and a trace",
    "warm_fill": "a state",
    "baseline_outcomes": "a config and a trace",
    "read_trace_text": "a path",
    "write_trace_text": "a path and a trace",
    "read_trace_binary": "a path",
    "write_trace_binary": "a path and a trace",
    "load_params": "a path",
}

# Refusals that name a parameter in other words: the name of the check it
# passes through, or a derived quantity, in messages the CLI prints as they are
ALIASES = {
    "ks": "splitting point k",
    "k_values": "splitting point k",
    "tag_bits_values": "tag_bits",
    "split_bits": "bits_read",
    "base_bits": "bits_read",
    ("CacheConfig", "cache_size"): "tag length",
    ("uniform_trace", "address_bits"): "1..64 bits",
    ("stride_trace", "address_bits"): "1..64 bits",
    ("zipf_block_trace", "address_bits"): "1..64 bits",
    ("generate_trace", "address_bits"): "1..64 bits",
    ("zipf_block_trace", "num_blocks"): "footprint",
    ("zipf_block_trace", "block_size"): "footprint",
    ("generate_trace", "num_blocks"): "footprint",
    ("generate_trace", "block_size"): "footprint",
}

# A count this large asks for that much memory or time, not for a refusal
COUNTS = {"length", "samples"}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _valid(name, param):
    value = CALLS[name][1][param]
    return value[0] if isinstance(value, list) else value


DRIVEN = [
    (name, param)
    for name, (_, args) in CALLS.items()
    for param, value in args.items()
    if _is_number(value) or isinstance(value, list) and _is_number(value[0])
]
INTEGER = [(name, param) for name, param in DRIVEN if isinstance(_valid(name, param), int)]


def call_with(name, param, value):
    """The named callable with its valid arguments and value for param."""
    call, args = CALLS[name]
    return call(**{**args, param: [value] if isinstance(args[param], list) else value})


def names(message: str, name: str, param: str) -> bool:
    words = (param, ALIASES.get(param), ALIASES.get((name, param)))
    return any(re.search(rf"(?<!\w){re.escape(word)}(?!\w)", message) for word in words if word)


def finite(result) -> bool:
    if isinstance(result, np.ndarray):
        return result.dtype.kind in "biu" or bool(np.isfinite(result).all())
    if isinstance(result, numbers.Number):
        return -math.inf < result < math.inf
    if dataclasses.is_dataclass(result):
        return finite(dataclasses.astuple(result))
    if isinstance(result, dict):
        return finite(list(result.values()))
    if isinstance(result, (list, tuple)):
        return all(map(finite, result))
    return True  # an object such as a CacheState, whose checked fields hold no result


def same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, CacheState):
        return vars(a).keys() == vars(b).keys() and all(
            same(value, vars(b)[key]) for key, value in vars(a).items()
        )
    return a == b


NOT_NUMBERS = st.sampled_from(
    [math.nan, math.inf, -math.inf, True, False, np.True_, np.False_, np.float64(math.nan),
     np.float64(-math.inf), np.float32(math.inf), "8", "nan", "", b"8"]
)
NEGATIVE = st.one_of(st.integers(max_value=-1), st.integers(-(2 ** 63), -1).map(np.int64))
HUGE = st.one_of(st.integers(2 ** 64, 2 ** 200), st.integers(2 ** 63, 2 ** 64 - 1).map(np.uint64))


@pytest.mark.parametrize("name, param", DRIVEN, ids=[f"{n}-{p}" for n, p in DRIVEN])
@given(value=NOT_NUMBERS)
@settings(max_examples=25, deadline=None)
def test_not_a_finite_number_is_refused_by_name(name, param, value):
    with pytest.raises((ValueError, TypeError)) as info:
        call_with(name, param, value)
    assert names(str(info.value), name, param), str(info.value)


@pytest.mark.parametrize("name, param", DRIVEN, ids=[f"{n}-{p}" for n, p in DRIVEN])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_a_negative_or_huge_value_is_taken_finite_or_refused_by_name(name, param, data):
    value = data.draw(NEGATIVE if param in COUNTS else st.one_of(NEGATIVE, HUGE))
    try:
        result = call_with(name, param, value)
    except (ValueError, TypeError) as exc:
        assert names(str(exc), name, param), str(exc)
    else:
        assert finite(result), result


@pytest.mark.parametrize("name, param", INTEGER, ids=[f"{n}-{p}" for n, p in INTEGER])
def test_a_fraction_is_refused_where_an_integer_is_asked_for(name, param):
    value = _valid(name, param) + 0.5
    with pytest.raises(ValueError, match=rf"must be an integer, got {value}") as info:
        call_with(name, param, value)
    assert names(str(info.value), name, param), str(info.value)


@pytest.mark.parametrize("name, param", DRIVEN, ids=[f"{n}-{p}" for n, p in DRIVEN])
def test_a_numpy_scalar_or_integral_float_is_taken_at_its_value(name, param):
    valid = _valid(name, param)
    expected = call_with(name, param, valid)
    if isinstance(valid, int):
        alike = [np.int64(valid), np.uint32(valid), float(valid), np.float64(valid)]
    else:
        alike = [np.float64(valid)]
        if valid.is_integer():  # an unsigned count once made mttf_from_bits negative
            alike += [int(valid), np.uint64(valid)]
    for value in alike:
        assert same(call_with(name, param, value), expected), repr(value)


def test_every_public_callable_is_in_the_table():
    public = {name for name in tagsplit.__all__ if callable(getattr(tagsplit, name))}
    assert public == CALLS.keys() | UNDRIVEN.keys()
    assert not CALLS.keys() & UNDRIVEN.keys()


# a cost record under which a run that reads no bits has no energy
NO_FIXED_ENERGY = CostParams(1e-12, 0.0, 0.0, 1.0, 1e-12)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: expected_reads(23, 8, math.inf), "splitting point k must be an integer, got inf"),
        (lambda: split_columns(23, 8, [math.nan]), "splitting point k must be an integer, got nan"),
        (lambda: expected_matched_ways(8, math.inf), "k must be an integer, got inf"),
        (lambda: CacheState(CONFIG, math.inf), "splitting point k must be an integer, got inf"),
        (lambda: baseline_bits(math.nan, 8), "tag_bits must be an integer, got nan"),
        (lambda: k_optimal_continuous(math.inf), "tag_bits must be an integer, got inf"),
        (lambda: lambert_w_log(math.inf), "ln_z must be a finite real number, got inf"),
        (lambda: continuous_total_bits(math.inf, 8, 4.0), "tag_bits must be an integer, got inf"),
        (lambda: expected_reads(23, True, 4), "ways must be an integer, got True"),
        (lambda: expected_reads(23, 8, True), "splitting point k must be an integer, got True"),
        (lambda: CacheConfig(40, 1 << 20, 64, True), "associativity must be an integer, got True"),
        (lambda: uniform_trace(10, math.nan), "seed must be an integer, got nan"),
        (lambda: stride_trace(10, 64.5), "stride must be an integer, got 64.5"),
        (lambda: ratio_columns([10], 0, 5, NO_FIXED_ENERGY),
         "the baseline energy of 0 bit reads over 5 accesses is 0, so it divides no energy ratio"),
        (lambda: ratios_from_bits(10, 0.0, 0, NO_FIXED_ENERGY),
         "the baseline energy of 0.0 bit reads over 0 accesses is 0, so it divides no energy ratio"),
    ],
    ids=["k-inf", "ks-nan", "matched-k-inf", "state-k-inf", "tag-nan", "k-opt-inf", "ln-z-inf",
         "continuous-tag-inf", "ways-true", "k-true", "config-true", "seed-nan",
         "fractional-stride", "zero-baseline-columns", "zero-baseline-pair"],
)
def test_each_former_fault_has_its_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_a_config_stores_plain_ints():
    config = CacheConfig(np.int64(40), np.int64(1 << 20), np.uint16(64), 8.0)
    assert config == CacheConfig(40, 1 << 20, 64, 8)
    assert all(type(getattr(config, f.name)) is int for f in dataclasses.fields(config))


def test_a_bool_is_not_served_from_the_cache_of_its_int():
    k_min_integer(23, 1)
    with pytest.raises(ValueError, match="ways must be an integer, got True"):
        k_min_integer(23, True)
