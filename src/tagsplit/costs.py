"""Energy and reliability consequences of reading fewer tag bits.

Energy: reading a tag bit costs a fixed charge, each access pays a
per-access overhead (decode, indexing) that splitting cannot touch,
and leakage accrues with wall-clock time.

Reliability: every read of a magnetic (STT-MRAM) cell disturbs it with
a small independent probability p, so the chance a run stays clean is
(1 - p)**bits_read.  Under the resulting exponential failure model the
mean time to failure is the inverse of the error rate; reading fewer
bits scales MTTF up by exactly the ratio of bits read.  Only read
disturbance is modeled; retention and write failures are out of scope
and reports label the model accordingly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .model import baseline_bits, expected_reads

__all__ = [
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

PARAM_KEYS = (
    "energy_per_bit_read",
    "fixed_energy_per_access",
    "leakage_power",
    "execution_time",
    "p_read_disturb",
)


@dataclass(frozen=True)
class EnergyParams:
    """Energy model constants, SI units (joules, watts, seconds)."""

    energy_per_bit_read: float
    fixed_energy_per_access: float = 0.0
    leakage_power: float = 0.0
    execution_time: float = 0.0

    def __post_init__(self):
        for name in (
            "energy_per_bit_read",
            "fixed_energy_per_access",
            "leakage_power",
            "execution_time",
        ):
            value = getattr(self, name)
            if not value >= 0.0 or not math.isfinite(value):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class ReliabilityParams:
    """Per-bit read-disturbance probability and observation window."""

    p_read_disturb: float
    execution_time: float

    def __post_init__(self):
        if not 0.0 <= self.p_read_disturb < 1.0:
            raise ValueError(
                f"p_read_disturb must lie in [0, 1), got {self.p_read_disturb!r}"
            )
        if not self.execution_time > 0.0 or not math.isfinite(self.execution_time):
            raise ValueError(
                f"execution_time must be finite and > 0, got {self.execution_time!r}"
            )


def tag_energy(bits_read: float, accesses: int, params: EnergyParams) -> float:
    """Total tag-array read energy for a run."""
    if not bits_read >= 0.0:
        raise ValueError(f"bits_read must be >= 0, got {bits_read!r}")
    if not accesses >= 0:
        raise ValueError(f"accesses must be >= 0, got {accesses!r}")
    return (
        bits_read * params.energy_per_bit_read
        + accesses * params.fixed_energy_per_access
        + params.leakage_power * params.execution_time
    )


def energy_from_stats(stats, params: EnergyParams) -> float:
    """Energy of a simulated run (stats from sim.run_trace)."""
    return tag_energy(stats.total_bit_reads, stats.accesses, params)


def reliability(bits_read: float, params: ReliabilityParams) -> float:
    """Probability that bits_read reads disturb no cell: (1-p)**bits_read.

    Evaluated as exp(bits_read * log1p(-p)); the direct power underflows
    the (1 - p) representation long before the result stops mattering.
    """
    if not bits_read >= 0.0:
        raise ValueError(f"bits_read must be >= 0, got {bits_read!r}")
    return math.exp(bits_read * math.log1p(-params.p_read_disturb))


def mttf(reliability_value: float, execution_time: float) -> float:
    """Mean time to failure of the exponential model fitted to one run.

    The error rate is -ln(reliability)/execution_time; a run with
    reliability exactly 1 never fails and reports infinity.
    """
    if not 0.0 < reliability_value <= 1.0:
        raise ValueError(
            f"reliability must lie in (0, 1], got {reliability_value!r}"
        )
    if not execution_time > 0.0:
        raise ValueError(f"execution_time must be > 0, got {execution_time!r}")
    rate = -math.log(reliability_value) / execution_time
    if rate == 0.0:
        return math.inf
    return 1.0 / rate


def mttf_from_bits(bits_read: float, params: ReliabilityParams) -> float:
    """Mean time to failure of a run that read bits_read tag bits.

    The failure rate comes straight from the log-domain exponent,
    -bits_read * ln(1 - p) / execution_time; going through the
    reliability value would round 1 - tiny to 1.0.  A rate of zero
    (p = 0 or nothing read) never fails and reports infinity.
    """
    if not bits_read >= 0.0:
        raise ValueError(f"bits_read must be >= 0, got {bits_read!r}")
    rate = -bits_read * math.log1p(-params.p_read_disturb) / params.execution_time
    return math.inf if rate == 0.0 else 1.0 / rate


def ratios_from_bits(
    split_bits: float, base_bits: float, accesses: int, energy: EnergyParams
) -> tuple[float, float]:
    """(energy_ratio, mttf_ratio) of a run that read split_bits tag bits
    against one that read base_bits, both over the same accesses."""
    energy_ratio = tag_energy(split_bits, accesses, energy) / tag_energy(
        base_bits, accesses, energy
    )
    return energy_ratio, base_bits / split_bits


def normalized_metrics(
    tag_bits: int,
    ways: int,
    k: int,
    energy: EnergyParams,
    reliab: ReliabilityParams,
    accesses: int = 1,
) -> tuple[float, float]:
    """Energy and MTTF of splitting point k relative to the baseline.

    Returns (energy_ratio, mttf_ratio) against a conventional
    comparison of the same trace length.  The failure rate is linear in
    bits read (per-bit-independent disturbance), so the per-bit factor
    cancels and the MTTF ratio reduces to the exact bit-read ratio;
    computing it that way avoids collapsing reliabilities of order
    1 - 1e-12 into doubles.
    """
    if accesses < 1:
        raise ValueError(f"accesses must be >= 1, got {accesses!r}")
    return ratios_from_bits(
        expected_reads(tag_bits, ways, k).total_bits * accesses,
        baseline_bits(tag_bits, ways) * accesses,
        accesses,
        energy,
    )


def load_params(path) -> tuple[EnergyParams, ReliabilityParams]:
    """Read the flat JSON parameter file (all PARAM_KEYS required, SI units)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected a JSON object of parameter keys")
    missing = [key for key in PARAM_KEYS if key not in raw]
    unknown = [key for key in raw if key not in PARAM_KEYS]
    if missing or unknown:
        raise ValueError(
            f"{path}: missing keys {missing or 'none'}, unknown keys {unknown or 'none'}"
        )
    values = {}
    for key in PARAM_KEYS:
        value = raw[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{path}: {key} must be a number, got {value!r}")
        values[key] = float(value)
    energy = EnergyParams(
        energy_per_bit_read=values["energy_per_bit_read"],
        fixed_energy_per_access=values["fixed_energy_per_access"],
        leakage_power=values["leakage_power"],
        execution_time=values["execution_time"],
    )
    reliab = ReliabilityParams(
        p_read_disturb=values["p_read_disturb"],
        execution_time=values["execution_time"],
    )
    return energy, reliab
