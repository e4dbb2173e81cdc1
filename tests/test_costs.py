"""Energy and reliability models layered on the expected-reads math."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from tagsplit import costs as costs_module
from tagsplit.costs import (
    PARAM_KEYS,
    CostParams,
    load_params,
    mttf_from_bits,
    ratio_columns,
    ratios_from_bits,
    reliability,
    tag_energy,
)
from tagsplit.model import baseline_bits, expected_reads
from tagsplit.sim import SimStats

# pure bit-read energy: no fixed or leakage term
BITS_ONLY = dict(
    energy_per_bit_read=1e-12,
    fixed_energy_per_access=0.0,
    leakage_power=0.0,
    execution_time=1.0,
    p_read_disturb=1e-12,
)
PARAMS = CostParams(**BITS_ONLY)


def costs(**changes) -> CostParams:
    return CostParams(**dict(BITS_ONLY, **changes))


def expected_ratios(tag_bits, ways, k, params=PARAMS, accesses=1):
    """(energy_ratio, mttf_ratio) of splitting point k against the baseline."""
    return ratios_from_bits(
        expected_reads(tag_bits, ways, k).total_bits * accesses,
        baseline_bits(tag_bits, ways) * accesses,
        accesses,
        params,
    )


class TestEnergy:
    def test_all_three_terms_contribute(self):
        params = costs(
            energy_per_bit_read=2e-12,
            fixed_energy_per_access=1e-12,
            leakage_power=1e-3,
            execution_time=2.0,
        )
        expected = 100 * 2e-12 + 10 * 1e-12 + 1e-3 * 2.0
        assert tag_energy(100, 10, params) == pytest.approx(expected, rel=1e-15)

    def test_tag_energy_of_a_runs_total_reads(self):
        stats = SimStats(
            ways=2, accesses=10, hits=0, misses=10, step1_bit_reads=80, step2_bit_reads=45,
            baseline_bit_reads=260, matched_way_histogram=[5, 5, 0],
        )
        assert tag_energy(stats.total_bit_reads, stats.accesses, PARAMS) == pytest.approx(
            125e-12, rel=1e-15
        )

    @pytest.mark.parametrize("bits,accesses", [(-1, 0), (0, -1), (math.nan, 0)])
    def test_rejects_negative_inputs(self, bits, accesses):
        with pytest.raises(ValueError):
            tag_energy(bits, accesses, PARAMS)

    @pytest.mark.parametrize(
        "changes",
        [dict(energy_per_bit_read=1e306), dict(fixed_energy_per_access=1e306),
         dict(leakage_power=1e300, execution_time=1e10)],
    )
    def test_an_energy_beyond_a_float_is_refused(self, changes):
        # finite constants whose run energy is not: a ratio over it would read 0 or nan
        params = costs(**changes)
        with pytest.raises(ValueError, match="energy of 200 bit reads over 300 accesses overflows"):
            tag_energy(200, 300, params)
        with pytest.raises(ValueError, match="bit reads over 300 accesses overflows"):
            ratios_from_bits(100, 400, 300, params)

    def test_an_energy_just_inside_a_float_is_kept(self):
        assert tag_energy(100, 0, costs(energy_per_bit_read=1e306)) == 100 * 1e306

    def test_rejects_bad_constants(self):
        with pytest.raises(ValueError, match="energy_per_bit_read"):
            costs(energy_per_bit_read=-1.0)
        with pytest.raises(ValueError, match="leakage_power"):
            costs(energy_per_bit_read=1.0, leakage_power=math.inf)

    @pytest.mark.parametrize("leakage_power,execution_time", [(0.0, 1.0), (1e-300, 1e-300)])
    def test_rejects_a_zero_energy_for_every_run(self, leakage_power, execution_time):
        # the baseline's energy divides every energy ratio
        message = (
            "energy_per_bit_read, fixed_energy_per_access and "
            r"leakage_power \* execution_time are all 0"
        )
        with pytest.raises(ValueError, match=message):
            costs(
                energy_per_bit_read=0.0,
                leakage_power=leakage_power,
                execution_time=execution_time,
            )

    @pytest.mark.parametrize(
        "name", ["energy_per_bit_read", "fixed_energy_per_access", "leakage_power"]
    )
    def test_any_one_energy_term_is_enough(self, name):
        params = costs(**{**dict.fromkeys(PARAM_KEYS[:3], 0.0), name: 1e-12})
        assert ratios_from_bits(41.5, 184, 1, params)[0] > 0


class TestReliability:
    def test_matches_the_closed_power_form(self):
        params = costs(p_read_disturb=0.5)
        assert reliability(3, params) == pytest.approx(0.125, rel=1e-15)

    def test_survives_tiny_probabilities(self):
        # (1 - 1e-9)**1e9 -> 1/e; the naive pow loses the exponent here
        params = costs(p_read_disturb=1e-9)
        assert reliability(1e9, params) == pytest.approx(math.exp(-1.0), rel=1e-8)

    def test_zero_reads_or_zero_probability_never_fail(self):
        assert reliability(0, PARAMS) == 1.0
        assert reliability(1e12, costs(p_read_disturb=0.0)) == 1.0

    def test_rejects_negative_reads(self):
        with pytest.raises(ValueError, match="bits_read must be >= 0, got -1.0"):
            reliability(-1.0, PARAMS)

    def test_probability_domain(self):
        with pytest.raises(ValueError, match="p_read_disturb"):
            costs(p_read_disturb=1.0)
        with pytest.raises(ValueError, match=r"execution_time must be finite and > 0"):
            costs(p_read_disturb=0.1, execution_time=0.0)
        with pytest.raises(ValueError, match=r"execution_time must be finite and > 0"):
            costs(execution_time=-1.0)


class TestMttf:
    """The exponential model's MTTF, with a run's reliability given by one read of p."""

    def test_unit_rate_gives_unit_mttf(self):
        params = costs(p_read_disturb=1.0 - math.exp(-1.0))
        assert mttf_from_bits(1, params) == pytest.approx(1.0, rel=1e-12)

    def test_scales_with_the_observation_window(self):
        params = costs(p_read_disturb=0.5, execution_time=2.0)
        assert mttf_from_bits(1, params) == pytest.approx(2.0 / math.log(2.0), rel=1e-12)

    def test_perfect_reliability_never_fails(self):
        assert mttf_from_bits(0, costs(execution_time=3600.0)) == math.inf


class TestMttfFromBits:
    @pytest.mark.parametrize(
        "bits,p,window",
        [(1, 1e-12, 1.0), (41_500, 4.3e-12, 0.75), (10**15, 1e-9, 3600.0), (7, 0.5, 2.0)],
    )
    def test_matches_the_log_domain_rate(self, bits, p, window):
        params = costs(p_read_disturb=p, execution_time=window)
        rate = -bits * math.log1p(-p) / window
        assert mttf_from_bits(bits, params) == 1.0 / rate

    def test_agrees_with_mttf_of_the_reliability(self):
        params = costs(p_read_disturb=0.01, execution_time=2.0)
        assert mttf_from_bits(30, params) == pytest.approx(
            -2.0 / math.log(reliability(30, params)), rel=1e-12
        )

    def test_no_disturbance_or_no_reads_never_fail(self):
        assert mttf_from_bits(10**12, costs(p_read_disturb=0.0)) == math.inf
        assert mttf_from_bits(0, PARAMS) == math.inf

    def test_rejects_negative_reads(self):
        with pytest.raises(ValueError, match="bits_read"):
            mttf_from_bits(-1, PARAMS)


class TestNormalizedMetrics:
    """ratios_from_bits on the model's expected reads against the baseline."""

    def test_reference_point(self):
        # n=23, x=8, k=4: 41.5 expected vs 184 baseline bits
        energy_ratio, mttf_ratio = expected_ratios(23, 8, 4)
        assert energy_ratio == pytest.approx(41.5 / 184.0, rel=1e-12)
        assert mttf_ratio == pytest.approx(4.433734939759036, rel=1e-12)

    def test_second_reference_point(self):
        # n=16, x=4, k=3: 3*4 + 13*4/8 = 18.5 expected vs 64 baseline
        energy_ratio, mttf_ratio = expected_ratios(16, 4, 3)
        assert energy_ratio == pytest.approx(18.5 / 64.0, rel=1e-12)
        assert mttf_ratio == pytest.approx(64.0 / 18.5, rel=1e-12)

    def test_degenerate_split_changes_nothing(self):
        assert expected_ratios(23, 8, 23) == (1.0, 1.0)

    def test_fixed_overheads_dilute_the_energy_win(self):
        with_overhead = costs(fixed_energy_per_access=1e-10)
        diluted, _ = expected_ratios(23, 8, 4, with_overhead)
        pure, _ = expected_ratios(23, 8, 4)
        assert pure < diluted < 1.0

    def test_ratios_do_not_depend_on_trace_length(self):
        one = expected_ratios(23, 8, 4, accesses=1)
        many = expected_ratios(23, 8, 4, accesses=10_000)
        assert one == pytest.approx(many, rel=1e-12)

    def test_a_run_that_reads_nothing_never_fails(self):
        assert ratios_from_bits(0, 184, 1, PARAMS) == (0.0, math.inf)

    @given(
        tag_bits=st.integers(2, 64),
        ways=st.sampled_from([1, 2, 4, 8, 16, 64, 512]),
        data=st.data(),
    )
    def test_energy_and_mttf_ratios_are_reciprocal(self, tag_bits, ways, data):
        # with no fixed or leakage terms both ratios reduce to bit ratios
        k = data.draw(st.integers(0, tag_bits))
        energy_ratio, mttf_ratio = expected_ratios(tag_bits, ways, k)
        assert energy_ratio * mttf_ratio == pytest.approx(1.0, abs=1e-9)


def exact(value):
    """value's type and, for a float, its hex, which tells -0.0 from 0.0."""
    return type(value).__name__, value.hex() if isinstance(value, float) else value


def refusal(call, *args):
    """call(*args), or the type and message of the error it raises: a ValueError,
    or a ZeroDivisionError where the baseline's energy is 0 (no bits, no accesses)."""
    try:
        return call(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return f"{type(exc).__name__}: {exc}"


# energy constants from zero to beyond a float's range once multiplied out
energy_st = st.sampled_from([0.0, 1e-300, 2.7e-12, 1.0, 1e300, 1e306, 1.7e308])
bits_st = st.one_of(st.floats(-1.0, 1e300), st.sampled_from([0, 1, 184, math.inf, math.nan]))


class TestRatioColumns:
    @given(
        split_bits=st.lists(bits_st, min_size=1, max_size=6),
        base_bits=bits_st,
        accesses=st.sampled_from([-1, 0, 1, 300, 10 ** 6]),
        constants=st.tuples(energy_st, energy_st, energy_st),
        execution_time=st.sampled_from([1e-300, 0.75, 1e10]),
    )
    @settings(max_examples=400)
    def test_columns_are_ratios_from_bits_cell_by_cell(
        self, split_bits, base_bits, accesses, constants, execution_time
    ):
        if constants[2] * execution_time == 0.0 == constants[0] == constants[1]:
            return  # a parameter set CostParams refuses
        params = CostParams(*constants, execution_time, 1e-12)
        columns = refusal(ratio_columns, split_bits, base_bits, accesses, params)
        cells = []
        for bits in split_bits:
            cell = refusal(ratios_from_bits, bits, base_bits, accesses, params)
            if isinstance(cell, str):  # the first refused cell names the column's refusal
                assert columns == cell
                return
            cells.append(cell)
            # the one-cell case against the formula written out
            energy = tag_energy(bits, accesses, params) / tag_energy(base_bits, accesses, params)
            want = (energy, math.inf if bits == 0 else base_bits / bits)
            assert list(map(exact, cell)) == list(map(exact, want))
        assert [list(map(exact, column)) for column in columns] == [
            list(map(exact, column)) for column in zip(*cells)
        ]

    @pytest.mark.parametrize(
        "split_bits, base_bits, refused",
        [([100, 120, 250], 150, 250), ([100, 120, 250], 400, 400), ([500, 120], 400, 500)],
        ids=["a-later-run", "the-baseline", "the-first-run"],
    )
    def test_an_overflowing_energy_names_what_ratios_from_bits_names(
        self, split_bits, base_bits, refused
    ):
        # at 1e306 J per bit read, up to 179 bits stay within a float;
        # the baseline's energy comes after the first run's, as run by run
        params = costs(energy_per_bit_read=1e306)
        with pytest.raises(ValueError) as info:
            ratio_columns(split_bits, base_bits, 1, params)
        assert str(info.value) == (
            f"the tag energy of {refused} bit reads over 1 accesses overflows a float; "
            "the cost parameters are too large"
        )

    def test_the_baseline_energy_is_computed_once(self, monkeypatch):
        energies = []

        def counting(bits, accesses, params):
            energies.append(bits)
            return model_tag_energy(bits, accesses, params)

        model_tag_energy = costs_module.tag_energy
        monkeypatch.setattr(costs_module, "tag_energy", counting)
        ratio_columns([32.5, 41.5, 60.0], 184, 1, PARAMS)
        assert energies == [32.5, 184, 41.5, 60.0]


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
        params = load_params(self.write(tmp_path, self.GOOD))
        assert params == CostParams(**self.GOOD)
        assert params.energy_per_bit_read == 2e-12
        assert params.execution_time == 1.5
        assert params.p_read_disturb == 1e-12

    def test_key_tuple_is_complete(self):
        assert PARAM_KEYS == tuple(self.GOOD)

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

    def test_rejects_an_integer_too_large_for_a_float(self, tmp_path):
        payload = json.dumps(self.GOOD).replace("1.5", "1" + "0" * 400)
        path = self.write(tmp_path, payload)
        with pytest.raises(ValueError, match=f"{path}: execution_time is too large"):
            load_params(path)

    def test_rejects_an_integer_with_too_many_digits_naming_the_file(self, tmp_path):
        # more digits than Python converts from a string (4,300 by default)
        path = self.write(tmp_path, json.dumps(self.GOOD).replace("1.5", "1" * 5000))
        with pytest.raises(ValueError) as info:
            load_params(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_rejects_a_non_utf8_byte_naming_the_file(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_bytes(json.dumps(self.GOOD).encode("ascii").replace(b"{", b"{\xff", 1))
        with pytest.raises(ValueError) as info:
            load_params(path)
        assert str(info.value).startswith(f"{path}: not valid JSON")

    def test_rejects_an_all_zero_energy_file(self, tmp_path):
        payload = dict(self.GOOD, energy_per_bit_read=0)
        with pytest.raises(ValueError, match="are all 0"):
            load_params(self.write(tmp_path, payload))
