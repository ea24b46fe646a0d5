import importlib.util

import slidingbloom

# test helpers that live in tests/, not in the package
REMOVED = ("WindowOracle", "Region", "census_false_positives", "FpCensus",
           "stress_label_safety", "PassReport", "LabelReuseViolation", "never_stale")


def test_public_names_resolve_and_test_helpers_stay_out():
    for name in slidingbloom.__all__:
        assert getattr(slidingbloom, name) is not None, name
    for name in REMOVED:
        assert not hasattr(slidingbloom, name), name
    assert importlib.util.find_spec("slidingbloom.oracle") is None
