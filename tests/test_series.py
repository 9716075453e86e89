"""Exact truncated series: both coefficient streams, and the count
recurrence."""

import pytest

from partition_evolve import (Kind, classify_m1, coefficient_csv,
                              coefficient_rows, enumerate_oracle,
                              euler_p_coeffs, q_coeffs,
                              recurrence_violations)

from golden import P_AT, P_SMALL, Q_SMALL


def test_euler_product_examples():
    assert euler_p_coeffs(5) == [1, 1, 2, 3, 5, 7]
    assert euler_p_coeffs(6)[5] == 7
    assert euler_p_coeffs(6)[6] == 11
    assert euler_p_coeffs(0) == [1]
    with pytest.raises(ValueError):
        euler_p_coeffs(-1)


def test_euler_matches_frozen_table():
    coeffs = euler_p_coeffs(1000)
    assert coeffs[:13] == P_SMALL
    for n, expected in P_AT.items():
        assert coeffs[n] == expected


def test_truncation_stability():
    assert euler_p_coeffs(30) == euler_p_coeffs(40)[:31]
    assert q_coeffs(25) == q_coeffs(35)[:26]


def test_q_coeffs_examples():
    assert q_coeffs(10) == Q_SMALL
    assert q_coeffs(0) == [0]
    assert q_coeffs(1) == [0, 1]
    assert q_coeffs(5)[5] == 4
    with pytest.raises(ValueError):
        q_coeffs(-1)


def test_q_counts_partitions_with_smallest_part_once():
    q = q_coeffs(40)
    for n in range(41):
        second = sum(1 for p in enumerate_oracle(n).partitions
                     if classify_m1(p) is Kind.SECOND)
        assert q[n] == second, f"n={n}"


def test_q_equals_p_difference_up_to_200():
    p = euler_p_coeffs(201)
    q = q_coeffs(200)
    for n in range(201):
        assert q[n] == p[n + 1] - p[n], f"n={n}"


def test_recurrence_violations_flag_corrupted_counts():
    assert recurrence_violations([1, 1, 2, 4], [0, 1, 1, 2]) == [(2, 4, 3)]
    assert recurrence_violations([1, 1], [0, 1]) == []


def test_coefficient_dump():
    assert coefficient_rows(5) == [
        (0, 1, 0), (1, 1, 1), (2, 2, 1), (3, 3, 2), (4, 5, 2), (5, 7, 4),
    ]
    text = coefficient_csv(5)
    lines = text.splitlines()
    assert lines[0] == "n,P,Q"
    assert lines[-1] == "5,7,4"
    assert text.endswith("\n")
