import math

import pytest

from mvops.checks import Check, all_pass


def test_residual_check_passes_at_the_bound_and_fails_on_nan():
    assert Check.residual("r", 1e-8, 1e-8).ok
    assert not Check.residual("r", 2e-8, 1e-8).ok
    nan = Check.residual("r", math.nan, 1e-8)
    assert not nan.ok and math.isnan(nan.value)


def test_flag_is_a_residual_against_one_half():
    good, bad = Check.flag("f", True), Check.flag("f", False)
    assert (good.value, good.bound, good.ok) == (0.0, 0.5, True)
    assert (bad.value, bad.bound, bad.ok) == (1.0, 0.5, False)


def test_rank_check_compares_with_the_expected_rank():
    assert Check.ranked("C", 3, 3, degree=2, direction=1).ok
    assert not Check.ranked("C", 2, 3).ok


@pytest.mark.parametrize("check, keys", [
    (Check.residual("r", 0.1, 1.0, 2, 1), ["value", "bound"]),
    (Check.ranked("C", 1, 2, 2), ["rank", "expected"]),
])
def test_record_keys(check, keys):
    assert list(check.to_dict()) == ["check", "degree", "direction", *keys, "pass"]


def test_all_pass_needs_at_least_one_check():
    assert not all_pass([])
    assert all_pass([Check.flag("f", True)])
    assert not all_pass([Check.flag("f", True), Check.flag("g", False)])
