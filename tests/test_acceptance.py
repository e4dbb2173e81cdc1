"""Acceptance suite: one test per shipping criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion; each test also prints its measured values (spans, errors,
runtimes) through the capture so the numbers appear next to the verdict.
Stated runtime budgets are asserted, not just observed.
"""

import math
import random
import time

import pytest

from tagsplit.cli import main
from tagsplit.costs import CostParams, ratios_from_bits
from tagsplit.model import (
    LN2,
    CacheConfig,
    baseline_bits,
    expected_reads,
)
from tagsplit.optimum import (
    convexity_certificate,
    k_min_integer,
    k_optimal_continuous,
    round_function_report,
)
from tagsplit.sim import CacheState, invariance_check, run_trace, warm_fill
from tagsplit.traces import stride_trace, uniform_trace, zipf_block_trace

KIB = 1024
MIB = 1024 * KIB

REFERENCE = CacheConfig(
    cache_size=1 * MIB, block_size=64, associativity=8, address_bits=40
)

CONVENTIONAL_SIZES = tuple(s * KIB for s in (256, 512)) + tuple(
    s * MIB for s in (1, 2, 4, 8)
)
EXTENDED_SIZES = CONVENTIONAL_SIZES + tuple(s * MIB for s in (16, 32, 64, 128))
CONVENTIONAL_ASSOCS = (4, 8, 16, 32, 64)
EXTENDED_ASSOCS = (2, 4, 8, 16, 32, 64, 128, 256, 512)
ADDRESS_WIDTHS = tuple(range(32, 65, 4))


@pytest.fixture
def announce(capsys):
    def _print(number: int, message: str) -> None:
        with capsys.disabled():
            print(f"\n  criterion {number:2d}: {message}")

    return _print


def k_min_span(sizes, assocs) -> set[int]:
    found = set()
    for size in sizes:
        for assoc in assocs:
            for addr in ADDRESS_WIDTHS:
                config = CacheConfig(
                    cache_size=size, block_size=64, associativity=assoc,
                    address_bits=addr,
                )
                found.add(k_min_integer(config.tag_bits, assoc).k_min)
    return found


def test_criterion_01_closed_form_identity(announce):
    """Binomial-sum expectation equals k*x + (n-k)*x/2**k, 1e-9 relative."""
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for n in range(8, 65):
        for x in (2, 4, 8, 16, 32, 64, 128, 256, 512):
            for k in range(0, n + 1):
                total = expected_reads(n, x, k).total_bits
                closed = k * x + (n - k) * x * 2.0 ** -k
                worst = max(worst, abs(total - closed) / closed)
                cases += 1
    elapsed = time.perf_counter() - start
    announce(1, f"max relative error {worst:.3e} over {cases} cases, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_02_reference_optimum_is_4(announce):
    """1 MB, 8-way, 64 B blocks: k_min = 4 at 40- and 48-bit addresses."""
    start = time.perf_counter()
    minima = {}
    for addr in (40, 48):
        config = CacheConfig(
            cache_size=1 * MIB, block_size=64, associativity=8, address_bits=addr
        )
        minima[addr] = k_min_integer(config.tag_bits, 8).k_min
    elapsed = time.perf_counter() - start
    announce(2, f"k_min {minima} in {elapsed * 1000:.1f}ms")
    assert minima == {40: 4, 48: 4}
    assert elapsed < 1.0


def test_criterion_03_safe_k_min_ranges(announce):
    """Conventional grid stays in [3, 5]; extended grid stays in [2, 6]."""
    start = time.perf_counter()
    conventional = k_min_span(CONVENTIONAL_SIZES, CONVENTIONAL_ASSOCS)
    extended = k_min_span(EXTENDED_SIZES, EXTENDED_ASSOCS)
    elapsed = time.perf_counter() - start
    announce(
        3,
        f"conventional span {sorted(conventional)}, extended span "
        f"{sorted(extended)}, {elapsed:.2f}s",
    )
    announce(
        3,
        "note: k_min = 6 needs 69+ tag bits and the largest tag on the "
        "extended grid is 55, so the top of the [2, 6] range is not reached",
    )
    assert conventional <= {3, 4, 5}
    assert extended <= {2, 3, 4, 5, 6}
    assert min(extended) == 2
    assert elapsed < 10.0


def test_criterion_04_stationarity_and_bracketing(announce):
    """The continuous optimum is a certified root; the argmin brackets it."""
    worst_residual = 0.0
    worst_identity = 0.0
    for n in range(8, 65):
        k_opt = k_optimal_continuous(n)
        identity_gap = abs(k_opt * LN2 + 2.0 ** k_opt - (n * LN2 + 1.0))
        worst_identity = max(worst_identity, identity_gap)
        for ways in (1, 8, 512):
            result = k_min_integer(n, ways)
            worst_residual = max(worst_residual, abs(result.residual))
            assert result.k_min in (math.floor(k_opt), math.ceil(k_opt))
    deviations = round_function_report(range(8, 65))
    announce(
        4,
        f"max |derivative at optimum| {worst_residual:.3e}, max stationarity "
        f"gap {worst_identity:.3e}, round-function deviations: "
        f"{deviations if deviations else 'none'}",
    )
    assert worst_residual <= 1e-9
    assert worst_identity <= 1e-9


def test_criterion_05_convexity_certificate(announce):
    """Second derivative positive at 1000 interior points per tag length."""
    start = time.perf_counter()
    for n in range(8, 65):
        assert convexity_certificate(n, ways=8, samples=1000)
    elapsed = time.perf_counter() - start
    announce(5, f"57 tag lengths x 1000 samples in {elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_06_simulator_matches_the_model(announce):
    """Warm reference cache, 1e6 uniform accesses at k = 4 vs. 41.5 bits."""
    start = time.perf_counter()
    state = CacheState(REFERENCE, k=4)
    warm_fill(state)
    trace = uniform_trace(1_000_000, seed=20210907, address_bits=40)
    stats = run_trace(state, trace)
    elapsed = time.perf_counter() - start
    stats.validate(tag_bits=23, k=4)
    observed = stats.bits_per_access
    survivors = stats.mean_survivors()
    # mean of 1e6 draws from Binomial(8, 1/16): SE = sqrt(x*p*(1-p)/N)
    se = math.sqrt(8 * (1 / 16) * (15 / 16) / stats.accesses)
    announce(
        6,
        f"bits/access {observed:.4f} (model 41.5), mean survivors "
        f"{survivors:.6f} (3 SE = {3 * se:.6f}), {elapsed:.2f}s",
    )
    assert observed == pytest.approx(41.5, rel=0.01)
    assert abs(survivors - 0.5) <= 3 * se
    assert elapsed < 10.0


def test_criterion_07_hit_miss_invariance(announce):
    """Splitting never changes any per-access outcome on any trace kind."""
    length = 100_000
    traces = {
        "uniform": uniform_trace(length, seed=101, address_bits=40),
        "stride": stride_trace(length, stride=64, base=0, address_bits=40),
        "zipf-block": zipf_block_trace(
            length, seed=202, exponent=1.2, num_blocks=1 << 18,
            block_size=64, address_bits=40,
        ),
    }
    for kind, trace in traces.items():
        assert invariance_check(REFERENCE, trace, k_values=(1, 3, 5, 8, 23)), kind
    announce(7, f"outcomes identical for k in (1, 3, 5, 8, 23) on {list(traces)}")


def test_criterion_08_cost_model_duality(announce):
    """Pure bit-read costing makes energy and MTTF ratios exact reciprocals."""
    params = CostParams(
        energy_per_bit_read=2e-12,
        fixed_energy_per_access=0.0,
        leakage_power=0.0,
        execution_time=1.0,
        p_read_disturb=1e-12,
    )

    def ratios(tag_bits, ways, k):
        return ratios_from_bits(
            expected_reads(tag_bits, ways, k).total_bits,
            baseline_bits(tag_bits, ways),
            1,
            params,
        )

    rng = random.Random(20210907)
    worst = 0.0
    for _ in range(10):
        config = CacheConfig(
            cache_size=rng.choice(EXTENDED_SIZES),
            block_size=64,
            associativity=rng.choice(EXTENDED_ASSOCS),
            address_bits=rng.choice(ADDRESS_WIDTHS),
        )
        k = rng.randint(1, min(10, config.tag_bits))
        energy_ratio, mttf_ratio = ratios(config.tag_bits, config.associativity, k)
        worst = max(worst, abs(energy_ratio * mttf_ratio - 1.0))
    _, reference_mttf = ratios(23, 8, 4)
    announce(
        8,
        f"max |energy_ratio*mttf_ratio - 1| = {worst:.3e} over 10 random "
        f"points; reference MTTF gain {reference_mttf:.6f}x",
    )
    assert worst <= 1e-6
    assert reference_mttf == pytest.approx(4.433734939759036, rel=1e-12)
    assert reference_mttf == pytest.approx(4.43, abs=0.01)


def test_criterion_09_qualitative_reduction_check(announce):
    """Workload-level results are out of desk-scale reach; check direction.

    The published workload curves, absolute energy reductions, and
    absolute MTTF gains come from proprietary-toolchain runs (SPEC
    binaries under a full-system simulator with a commercial memory
    compiler); they are not reproducible here and this suite does not
    attempt them.  Criteria 6-8 cover the mechanisms; this check
    confirms the direction: at the optimum, the analytic read reduction
    for a 256 KB 4-way cache with 64-bit addresses clears 80%.
    """
    config = CacheConfig(
        cache_size=256 * KIB, block_size=64, associativity=4, address_bits=64
    )
    result = k_min_integer(config.tag_bits, 4)
    ev = expected_reads(config.tag_bits, 4, result.k_min)
    reduction = 1.0 - ev.reduction_ratio
    announce(
        9,
        "workload curves and absolute energy/MTTF gains need a "
        "proprietary toolchain and are NOT reproduced here; covered "
        "instead by criteria 6-8 plus this qualitative check",
    )
    announce(
        9,
        f"read reduction at the optimum (n={config.tag_bits}, k={result.k_min}): "
        f"{100 * reduction:.2f}% (threshold 80%)",
    )
    assert config.tag_bits == 48 and result.k_min == 5
    assert reduction >= 0.80


def test_criterion_10_byte_identical_outputs(announce, tmp_path, capsys):
    """Identical sweep and gen-trace invocations write identical bytes."""
    sweep_args = [
        "sweep", "--sizes", "256K,1M", "--assocs", "4,8",
        "--addr-bits", "40,48", "--k-range", "1:8",
    ]
    gen_args = {
        "uniform.bin": ["gen-trace", "--kind", "uniform", "--length", "20000",
                        "--seed", "7"],
        "zipf.trace": ["gen-trace", "--kind", "zipf-block", "--length", "20000",
                       "--seed", "7"],
    }
    outputs = []
    for attempt in ("first", "second"):
        sweep_out = tmp_path / f"{attempt}-sweep.csv"
        assert main(sweep_args + ["--out", str(sweep_out)]) == 0
        blobs = [sweep_out.read_bytes()]
        for name, args in gen_args.items():
            out = tmp_path / f"{attempt}-{name}"
            assert main(args + ["--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        outputs.append(blobs)
    capsys.readouterr()
    announce(
        10,
        f"sweep and gen-trace reruns identical "
        f"({[len(b) for b in outputs[0]]} bytes)",
    )
    assert outputs[0] == outputs[1]
