"""Energy and reliability models layered on the expected-reads math."""

import json
import math

import pytest
from hypothesis import given, strategies as st

from tagsplit.costs import (
    PARAM_KEYS,
    EnergyParams,
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
from tagsplit.sim import SimStats

ENERGY_ONLY = EnergyParams(energy_per_bit_read=1e-12)
RELIAB = ReliabilityParams(p_read_disturb=1e-12, execution_time=1.0)


class TestEnergy:
    def test_all_three_terms_contribute(self):
        params = EnergyParams(
            energy_per_bit_read=2e-12,
            fixed_energy_per_access=1e-12,
            leakage_power=1e-3,
            execution_time=2.0,
        )
        expected = 100 * 2e-12 + 10 * 1e-12 + 1e-3 * 2.0
        assert tag_energy(100, 10, params) == pytest.approx(expected, rel=1e-15)

    def test_energy_from_stats_uses_total_reads(self):
        stats = SimStats(ways=2, accesses=10, step1_bit_reads=80, step2_bit_reads=45)
        assert energy_from_stats(stats, ENERGY_ONLY) == pytest.approx(
            125e-12, rel=1e-15
        )

    @pytest.mark.parametrize("bits,accesses", [(-1, 0), (0, -1), (math.nan, 0)])
    def test_rejects_negative_inputs(self, bits, accesses):
        with pytest.raises(ValueError):
            tag_energy(bits, accesses, ENERGY_ONLY)

    def test_rejects_bad_constants(self):
        with pytest.raises(ValueError, match="energy_per_bit_read"):
            EnergyParams(energy_per_bit_read=-1.0)
        with pytest.raises(ValueError, match="leakage_power"):
            EnergyParams(energy_per_bit_read=1.0, leakage_power=math.inf)


class TestReliability:
    def test_matches_the_closed_power_form(self):
        params = ReliabilityParams(p_read_disturb=0.5, execution_time=1.0)
        assert reliability(3, params) == pytest.approx(0.125, rel=1e-15)

    def test_survives_tiny_probabilities(self):
        # (1 - 1e-9)**1e9 -> 1/e; the naive pow loses the exponent here
        params = ReliabilityParams(p_read_disturb=1e-9, execution_time=1.0)
        assert reliability(1e9, params) == pytest.approx(math.exp(-1.0), rel=1e-8)

    def test_zero_reads_or_zero_probability_never_fail(self):
        assert reliability(0, RELIAB) == 1.0
        zero_p = ReliabilityParams(p_read_disturb=0.0, execution_time=1.0)
        assert reliability(1e12, zero_p) == 1.0

    def test_probability_domain(self):
        with pytest.raises(ValueError, match="p_read_disturb"):
            ReliabilityParams(p_read_disturb=1.0, execution_time=1.0)
        with pytest.raises(ValueError, match="execution_time"):
            ReliabilityParams(p_read_disturb=0.1, execution_time=0.0)


class TestMttf:
    def test_unit_rate_gives_unit_mttf(self):
        assert mttf(math.exp(-1.0), 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_scales_with_the_observation_window(self):
        assert mttf(0.5, 2.0) == pytest.approx(2.0 / math.log(2.0), rel=1e-12)

    def test_perfect_reliability_never_fails(self):
        assert mttf(1.0, 3600.0) == math.inf

    @pytest.mark.parametrize("rel", [0.0, -0.1, 1.5])
    def test_reliability_domain(self, rel):
        with pytest.raises(ValueError, match="reliability"):
            mttf(rel, 1.0)

    def test_time_domain(self):
        with pytest.raises(ValueError, match="execution_time"):
            mttf(0.5, 0.0)


class TestMttfFromBits:
    @pytest.mark.parametrize(
        "bits,p,window",
        [(1, 1e-12, 1.0), (41_500, 4.3e-12, 0.75), (10**15, 1e-9, 3600.0), (7, 0.5, 2.0)],
    )
    def test_matches_the_log_domain_rate(self, bits, p, window):
        params = ReliabilityParams(p_read_disturb=p, execution_time=window)
        rate = -bits * math.log1p(-p) / window
        assert mttf_from_bits(bits, params) == 1.0 / rate

    def test_agrees_with_mttf_of_the_reliability(self):
        params = ReliabilityParams(p_read_disturb=0.01, execution_time=2.0)
        assert mttf_from_bits(30, params) == pytest.approx(
            mttf(reliability(30, params), 2.0), rel=1e-12
        )

    def test_no_disturbance_or_no_reads_never_fail(self):
        zero_p = ReliabilityParams(p_read_disturb=0.0, execution_time=1.0)
        assert mttf_from_bits(10**12, zero_p) == math.inf
        assert mttf_from_bits(0, RELIAB) == math.inf

    def test_rejects_negative_reads(self):
        with pytest.raises(ValueError, match="bits_read"):
            mttf_from_bits(-1, RELIAB)

class TestNormalizedMetrics:
    def test_reference_point(self):
        # n=23, x=8, k=4: 41.5 expected vs 184 baseline bits
        energy_ratio, mttf_ratio = normalized_metrics(23, 8, 4, ENERGY_ONLY, RELIAB)
        assert energy_ratio == pytest.approx(41.5 / 184.0, rel=1e-12)
        assert mttf_ratio == pytest.approx(4.433734939759036, rel=1e-12)

    def test_second_reference_point(self):
        # n=16, x=4, k=3: 3*4 + 13*4/8 = 18.5 expected vs 64 baseline
        energy_ratio, mttf_ratio = normalized_metrics(16, 4, 3, ENERGY_ONLY, RELIAB)
        assert energy_ratio == pytest.approx(18.5 / 64.0, rel=1e-12)
        assert mttf_ratio == pytest.approx(64.0 / 18.5, rel=1e-12)

    def test_degenerate_split_changes_nothing(self):
        assert normalized_metrics(23, 8, 23, ENERGY_ONLY, RELIAB) == (1.0, 1.0)

    def test_fixed_overheads_dilute_the_energy_win(self):
        with_overhead = EnergyParams(
            energy_per_bit_read=1e-12, fixed_energy_per_access=1e-10
        )
        diluted, _ = normalized_metrics(23, 8, 4, with_overhead, RELIAB)
        pure, _ = normalized_metrics(23, 8, 4, ENERGY_ONLY, RELIAB)
        assert pure < diluted < 1.0

    def test_ratios_do_not_depend_on_trace_length(self):
        one = normalized_metrics(23, 8, 4, ENERGY_ONLY, RELIAB, accesses=1)
        many = normalized_metrics(23, 8, 4, ENERGY_ONLY, RELIAB, accesses=10_000)
        assert one == pytest.approx(many, rel=1e-12)

    def test_is_the_bit_ratio_helper_on_expected_reads(self):
        energy = EnergyParams(energy_per_bit_read=2.7e-12, fixed_energy_per_access=3e-12)
        assert normalized_metrics(23, 8, 4, energy, RELIAB) == ratios_from_bits(
            41.5, 184, 1, energy
        )

    def test_rejects_empty_runs(self):
        with pytest.raises(ValueError, match="accesses"):
            normalized_metrics(23, 8, 4, ENERGY_ONLY, RELIAB, accesses=0)

    @given(
        tag_bits=st.integers(2, 64),
        ways=st.sampled_from([1, 2, 4, 8, 16, 64, 512]),
        data=st.data(),
    )
    def test_energy_and_mttf_ratios_are_reciprocal(self, tag_bits, ways, data):
        # with no fixed or leakage terms both ratios reduce to bit ratios
        k = data.draw(st.integers(0, tag_bits))
        energy_ratio, mttf_ratio = normalized_metrics(
            tag_bits, ways, k, ENERGY_ONLY, RELIAB
        )
        assert energy_ratio * mttf_ratio == pytest.approx(1.0, abs=1e-9)


class TestParamFile:
    GOOD = {
        "energy_per_bit_read": 2e-12,
        "fixed_energy_per_access": 0.0,
        "leakage_power": 0.0,
        "execution_time": 1.5,
        "p_read_disturb": 1e-12,
    }

    def write(self, tmp_path, payload) -> str:
        path = tmp_path / "params.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)

    def test_round_trip(self, tmp_path):
        energy, reliab = load_params(self.write(tmp_path, self.GOOD))
        assert energy.energy_per_bit_read == 2e-12
        assert energy.execution_time == 1.5
        assert reliab.p_read_disturb == 1e-12
        assert reliab.execution_time == 1.5

    def test_key_tuple_is_complete(self):
        assert set(PARAM_KEYS) == set(self.GOOD)

    def test_missing_key(self, tmp_path):
        payload = dict(self.GOOD)
        del payload["leakage_power"]
        with pytest.raises(ValueError, match="leakage_power"):
            load_params(self.write(tmp_path, payload))

    def test_unknown_key(self, tmp_path):
        payload = dict(self.GOOD, voltage=1.1)
        with pytest.raises(ValueError, match="voltage"):
            load_params(self.write(tmp_path, payload))

    def test_rejects_non_numbers(self, tmp_path):
        payload = dict(self.GOOD, leakage_power="0")
        with pytest.raises(ValueError, match="must be a number"):
            load_params(self.write(tmp_path, payload))

    def test_rejects_booleans(self, tmp_path):
        payload = dict(self.GOOD, leakage_power=True)
        with pytest.raises(ValueError, match="must be a number"):
            load_params(self.write(tmp_path, payload))

    def test_rejects_non_object_documents(self, tmp_path):
        with pytest.raises(ValueError, match="JSON object"):
            load_params(self.write(tmp_path, "[1, 2]"))

    def test_rejects_malformed_json(self, tmp_path):
        with pytest.raises(ValueError, match="not valid JSON"):
            load_params(self.write(tmp_path, "{broken"))
