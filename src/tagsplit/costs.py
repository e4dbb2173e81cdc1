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
from dataclasses import dataclass, fields

__all__ = [
    "CostParams",
    "PARAM_KEYS",
    "tag_energy",
    "reliability",
    "mttf_from_bits",
    "ratios_from_bits",
    "load_params",
]


@dataclass(frozen=True)
class CostParams:
    """The cost parameter file: energy constants and read disturbance, SI
    units (joules, watts, seconds).  Its fields are the file's keys."""

    energy_per_bit_read: float
    fixed_energy_per_access: float
    leakage_power: float
    execution_time: float
    p_read_disturb: float

    def __post_init__(self):
        for name in PARAM_KEYS[:3]:
            value = getattr(self, name)
            if not value >= 0.0 or not math.isfinite(value):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if not self.execution_time > 0.0 or not math.isfinite(self.execution_time):
            raise ValueError(
                f"execution_time must be finite and > 0, got {self.execution_time!r}"
            )
        if not 0.0 <= self.p_read_disturb < 1.0:
            raise ValueError(
                f"p_read_disturb must lie in [0, 1), got {self.p_read_disturb!r}"
            )
        # every energy ratio divides by the baseline run's energy
        if (
            self.energy_per_bit_read
            == self.fixed_energy_per_access
            == self.leakage_power * self.execution_time
            == 0.0
        ):
            raise ValueError(
                "energy_per_bit_read, fixed_energy_per_access and"
                " leakage_power * execution_time are all 0, so every run has zero energy"
            )


PARAM_KEYS = tuple(f.name for f in fields(CostParams))


def tag_energy(bits_read: float, accesses: int, params: CostParams) -> float:
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


def reliability(bits_read: float, params: CostParams) -> float:
    """Probability that bits_read reads disturb no cell: (1-p)**bits_read.

    Evaluated as exp(bits_read * log1p(-p)); the direct power underflows
    the (1 - p) representation long before the result stops mattering.
    """
    if not bits_read >= 0.0:
        raise ValueError(f"bits_read must be >= 0, got {bits_read!r}")
    return math.exp(bits_read * math.log1p(-params.p_read_disturb))


def mttf_from_bits(bits_read: float, params: CostParams) -> float:
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
    split_bits: float, base_bits: float, accesses: int, params: CostParams
) -> tuple[float, float]:
    """(energy_ratio, mttf_ratio) of a run that read split_bits tag bits
    against one that read base_bits, both over the same accesses.

    The failure rate is linear in bits read (per-bit-independent
    disturbance), so the per-bit factor cancels and the MTTF ratio is
    the exact bit-read ratio; computing it that way avoids collapsing
    reliabilities of order 1 - 1e-12 into doubles.
    """
    energy_ratio = tag_energy(split_bits, accesses, params) / tag_energy(
        base_bits, accesses, params
    )
    return energy_ratio, base_bits / split_bits


def load_params(path) -> CostParams:
    """Read the flat JSON parameter file (all PARAM_KEYS required, SI units)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # bad syntax, a non-UTF-8 byte or too many digits
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected a JSON object of parameter keys")
    missing = [key for key in PARAM_KEYS if key not in raw]
    unknown = [key for key in raw if key not in PARAM_KEYS]
    if missing or unknown:
        raise ValueError(
            f"{path}: missing keys {missing or 'none'}, unknown keys {unknown or 'none'}"
        )
    values = []
    for key in PARAM_KEYS:
        value = raw[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{path}: {key} must be a number, got {value!r}")
        try:
            values.append(float(value))
        except OverflowError:
            raise ValueError(f"{path}: {key} is too large for a float") from None
    return CostParams(*values)
