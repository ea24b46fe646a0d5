import importlib.util

import slidingbloom

# test helpers that live in tests/, the validation drivers that live in
# scripts/, and names that only tests use (their modules keep them)
REMOVED = ("WindowOracle", "Region", "census_false_positives", "FpCensus",
           "stress_label_safety", "PassReport", "LabelReuseViolation", "never_stale",
           "measure_fpr", "space_report", "FprReport", "SpaceVsBounds",
           "lower_bound_bits", "upper_bound_bits",
           "is_prime", "next_prime", "new_hash", "CostReport")


def test_public_names_resolve_and_test_helpers_stay_out():
    for name in slidingbloom.__all__:
        assert getattr(slidingbloom, name) is not None, name
    for name in REMOVED:
        assert not hasattr(slidingbloom, name), name
    assert importlib.util.find_spec("slidingbloom.oracle") is None
    assert importlib.util.find_spec("slidingbloom.harness") is None
    # a test-only count and the nested space report left the dictionary
    assert not hasattr(slidingbloom.Dictionary, "tag_count")
    assert not hasattr(slidingbloom.dictionary, "DictSpaceReport")
