import json
import math

import pytest

from slidingbloom import (
    INFINITE,
    InvalidParams,
    census_false_positives,
    measure_fpr,
    space_report,
    stress_label_safety,
)


def test_fpr_reference_bound_arithmetic():
    r = measure_fpr(1000, 1000, 1 / 64, stream_len=4020, trials=100_000, seed=5)
    assert r.bound == pytest.approx(0.015625)
    assert r.three_sigma == pytest.approx(3 * math.sqrt((1 / 64) * (63 / 64) / 1e5))
    assert r.three_sigma == pytest.approx(0.0011765, abs=2e-6)
    assert r.checkpoints == 10
    assert 0 <= r.estimate <= 1
    assert r.passed
    assert not r.underpowered


def test_fpr_deterministic():
    a = measure_fpr(200, 50, 2**-4, stream_len=600, trials=5000, seed=9)
    b = measure_fpr(200, 50, 2**-4, stream_len=600, trials=5000, seed=9)
    assert a == b


def test_fpr_power_rule_flags_small_samples():
    r = measure_fpr(100, 10, 2**-10, stream_len=300, trials=5000, seed=1)
    assert r.underpowered  # eps*T = 4.9 < 20
    r = measure_fpr(100, 10, 2**-4, stream_len=300, trials=5000, seed=1)
    assert not r.underpowered


def test_fpr_infinite_slack():
    r = measure_fpr(500, INFINITE, 2**-4, stream_len=2000, trials=20_000, seed=3)
    assert r.passed
    assert r.to_dict()["m"] == "inf"


def test_fpr_rejects_short_streams():
    with pytest.raises(ValueError):
        measure_fpr(100, 100, 0.1, stream_len=205, trials=1000, seed=0)


def test_census_absolute_bound():
    c = census_false_positives(100, 100, 0.1, seed=3, u=10007)
    assert c.u == 10007
    assert c.passed
    assert len(c.checkpoints) >= 3
    assert c.bound == pytest.approx(0.1 * 10007 + 125)
    for cp in c.checkpoints:
        assert cp.false_positives <= c.bound
        assert cp.active_count <= cp.position


def test_census_injective_regime_zero_false_positives():
    # fp_range == u == p: the reduction is the identity on the prime
    # field, every fingerprint is unique, so false positives cannot exist
    c = census_false_positives(14, 14, 0.4, seed=1, u=53)
    assert c.u == 53
    assert c.max_false_positives == 0
    assert c.passed


def test_census_single_element_window():
    c = census_false_positives(1, 1, 0.25, seed=2, u=101)
    assert c.passed


def test_census_rejects_oversized_fp_range():
    # epsilon so small that fp_range > u: the u = p identity breaks
    with pytest.raises(InvalidParams):
        census_false_positives(100, 100, 2**-10, seed=0, u=10007)


def test_space_report_fields_and_ratio():
    r = space_report(2**14, 2**14, 2**-8, seed=0)
    assert r.ratio >= 1.0
    assert r.measured_bits == r.dictionary_bits + r.counters_and_hash_bits
    assert r.upper_bound_bits == r.lower_bound_bits
    assert r.counters_and_hash_bits / r.measured_bits <= 0.01
    blob = json.dumps(r.to_dict(), sort_keys=True)
    assert json.loads(blob)["schema"] == "slidingbloom.space/1"


def test_space_report_tracks_formula():
    r = space_report(4096, 4096, 2**-6, seed=1)
    d = r
    assert d.dictionary_bits >= d.capacity_cells * d.cell_bits


def test_stress_clean_run():
    s = stress_label_safety(100, 10, 1 / 16, steps=100_000, seed=4)
    assert s.passed
    assert s.label_violations == 0
    assert s.fn_failures == 0
    assert s.fn_checks == 2 * 100_000
    assert s.max_active <= s.active_limit


def test_stress_degenerate_c_one():
    s = stress_label_safety(64, 64, 0.5, steps=6000, seed=5)
    assert s.passed and s.label_violations == 0


def test_reports_serialize_infinite_slack():
    r = space_report(256, INFINITE, 2**-4, seed=0)
    d = r.to_dict()
    assert d["m"] == "inf"
    json.dumps(d)
