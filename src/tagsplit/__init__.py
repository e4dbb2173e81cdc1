"""Two-step cache tag comparison: cost model, optimum, simulation, costs.

Comparing only the k low-order tag bits of every way first, and the
remaining bits only for ways whose prefix matched, cuts the expected
tag bits read per cache access without changing any hit/miss outcome.
This package models that expected cost in closed form, locates the
optimal splitting point, verifies the model against a trace-driven
LRU simulator, and translates bit reads into energy and reliability.
"""

from .costs import (
    EnergyParams,
    PARAM_KEYS,
    ReliabilityParams,
    energy_from_stats,
    load_params,
    mttf,
    mttf_from_bits,
    normalized_metrics,
    ratios_from_bits,
    reliability,
    tag_energy,
)
from .model import (
    CacheConfig,
    SplitEval,
    TagGeometry,
    baseline_bits,
    continuous_total_bits,
    derive_geometry,
    expected_matched_ways,
    expected_reads,
    first_derivative,
    match_probability,
    second_derivative,
)
from .optimum import (
    OptimumResult,
    convexity_certificate,
    k_min_integer,
    k_optimal_continuous,
    lambert_w_log,
    round_function_report,
)
from .sim import (
    CacheState,
    SimStats,
    baseline_outcomes,
    invariance_check,
    run_trace,
    trace_outcomes,
    warm_fill,
)
from .traces import (
    TRACE_KINDS,
    TraceParseError,
    generate_trace,
    read_trace_binary,
    read_trace_text,
    stride_trace,
    uniform_trace,
    write_trace_binary,
    write_trace_text,
    zipf_block_trace,
)

__version__ = "0.1.0"

__all__ = [
    "CacheConfig",
    "TagGeometry",
    "SplitEval",
    "derive_geometry",
    "baseline_bits",
    "match_probability",
    "expected_matched_ways",
    "expected_reads",
    "continuous_total_bits",
    "first_derivative",
    "second_derivative",
    "OptimumResult",
    "lambert_w_log",
    "k_optimal_continuous",
    "k_min_integer",
    "convexity_certificate",
    "round_function_report",
    "CacheState",
    "SimStats",
    "run_trace",
    "trace_outcomes",
    "warm_fill",
    "baseline_outcomes",
    "invariance_check",
    "TRACE_KINDS",
    "TraceParseError",
    "generate_trace",
    "uniform_trace",
    "stride_trace",
    "zipf_block_trace",
    "read_trace_text",
    "write_trace_text",
    "read_trace_binary",
    "write_trace_binary",
    "EnergyParams",
    "ReliabilityParams",
    "PARAM_KEYS",
    "tag_energy",
    "energy_from_stats",
    "reliability",
    "mttf",
    "mttf_from_bits",
    "normalized_metrics",
    "ratios_from_bits",
    "load_params",
]
