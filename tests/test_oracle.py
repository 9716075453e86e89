"""The brute-force enumerator and counter that everything else is
checked against."""

import gc

import pytest

from partition_evolve import (CapExceededError, _pure, count_oracle,
                              enumerate_oracle, euler_p_coeffs, run_suite)

from golden import P_AT, P_SMALL, PARTITIONS_5, PARTITIONS_6


def test_enumerates_golden_listings_in_order():
    assert [str(p) for p in enumerate_oracle(5).partitions] == PARTITIONS_5
    assert [str(p) for p in enumerate_oracle(6).partitions] == PARTITIONS_6
    assert [str(p) for p in enumerate_oracle(0).partitions] == ["0"]
    assert len(enumerate_oracle(10)) == 42


def test_level_metadata():
    level = enumerate_oracle(4)
    assert level.n == 4
    assert level.method_tag == "oracle"
    assert set(level.tags) == {"Seed"}
    assert all(p.weight == 4 for p in level.partitions)


def test_enumeration_size_matches_count_up_to_40():
    for n in range(41):
        assert len(enumerate_oracle(n, cap=40)) == count_oracle(n), f"n={n}"


def test_count_examples_and_frozen_values():
    assert count_oracle(5) == 7
    assert count_oracle(6) == 11
    assert [count_oracle(n) for n in range(13)] == P_SMALL
    for n, expected in P_AT.items():
        assert count_oracle(n) == expected


def test_count_agrees_with_series_up_to_300():
    # Two independent computations; neither value is asserted from outside.
    assert count_oracle(1000, every_weight=True) == euler_p_coeffs(1000)


def test_count_table_matches_single_counts_up_to_80():
    table = count_oracle(80, every_weight=True)
    assert table == [count_oracle(n) for n in range(81)]
    assert count_oracle(0, every_weight=True) == [1]


def test_cap_guard():
    with pytest.raises(CapExceededError):
        enumerate_oracle(10, cap=5)
    with pytest.raises(CapExceededError):
        enumerate_oracle(61)
    # The cap is inclusive.
    assert len(enumerate_oracle(5, cap=5)) == 7


def test_negative_weight_is_rejected():
    with pytest.raises(ValueError):
        enumerate_oracle(-1)
    with pytest.raises(ValueError):
        count_oracle(-1)


def test_enumeration_and_the_suite_leave_no_cyclic_garbage():
    # Strings are not tracked by the cyclic collector, so it runs rarely
    # while levels are built; a reference cycle would hold each finished
    # level until it did.
    gc.collect()
    gc.disable()
    try:
        _pure.enumerate_level(20)
        assert gc.collect() == 0
        run_suite(12)
        assert gc.collect() == 0
    finally:
        gc.enable()
