"""Partition values: validation, text format, ordering, both classifiers."""

import operator
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from partition_evolve import (InvalidPartitionError, Kind, Partition,
                              classify_m1, classify_m2, enumerate_oracle,
                              parse_partition, predecessor_m1)
from partition_evolve.core import (MAX_PART, collectable, decode_member,
                                   encode_parts, smallest_part_once)

from golden import M1_GROUP1_5, M1_GROUP2_5, M2_GROUP1_5, M2_GROUP2_5


def test_make_partition_canonicalizes():
    p = Partition([1, 3, 2])
    assert p.parts == (3, 2, 1)
    assert p.weight == 6
    assert Partition([]).parts == ()
    assert Partition([]).weight == 0
    assert Partition([5]).parts == (5,)


def test_validation_names_the_offender():
    with pytest.raises(InvalidPartitionError, match="0"):
        Partition([3, 0, 1])
    with pytest.raises(InvalidPartitionError, match="-2"):
        Partition([4, -2])
    with pytest.raises(InvalidPartitionError, match="'x'"):
        Partition([2, "x"])
    with pytest.raises(InvalidPartitionError, match="True"):
        Partition([True, 2])


def test_text_format_examples():
    assert str(Partition([3, 2, 1])) == "3+2+1"
    assert str(Partition()) == "0"
    assert parse_partition("3+2+1") == Partition([3, 2, 1])
    assert parse_partition("0") == Partition()
    assert parse_partition(" 4+1 ") == Partition([4, 1])
    assert repr(Partition([2, 1])) == "Partition('2+1')"


@pytest.mark.parametrize("text", ["", "+", "3+", "+2", "a", "1+0", "3.5", "-1"])
def test_parse_rejects_garbage(text):
    with pytest.raises(InvalidPartitionError):
        parse_partition(text)


@pytest.mark.parametrize("text", [
    "1_0+2", " 3 + 1", "3+ 1",
    pytest.param("\u0663+1", id="arabic-indic-3+1"),
    pytest.param("4\u00a0+1", id="no-break-space"),
    pytest.param("\uff13", id="fullwidth-3"),
    pytest.param("1" * 5000, id="5000-digits"),
])
def test_parse_names_text_it_will_not_coerce(text):
    # int() would read these as 10+2, 3+1, 3+1, 3+1, 4+1, 3 and a
    # 5000-digit part (past the interpreter's digit limit).
    with pytest.raises(InvalidPartitionError, match="cannot parse") as info:
        parse_partition(text)
    message = str(info.value)
    if len(text) <= 40:
        assert repr(text) in message
    else:
        # Long text is named by a bounded prefix and its length.
        assert repr(text[:40]) in message
        assert f"({len(text)} characters)" in message
        assert len(message) < 100


@pytest.mark.parametrize("text", ["1+2", "3+1+2", " 2+2+3 "])
def test_parse_refuses_increasing_parts_instead_of_sorting_them(text):
    # Partition([1, 2]) sorts its parts; the text must already be canonical.
    with pytest.raises(InvalidPartitionError) as info:
        parse_partition(text)
    assert str(info.value) == (f"the parts of partition text {text!r} "
                               "are not non-increasing")


@pytest.mark.parametrize("text", ["1+0", "0+1", "00", " 0+0 ", "3+00+1"])
def test_parse_names_text_with_a_part_0(text):
    with pytest.raises(InvalidPartitionError) as info:
        parse_partition(text)
    assert str(info.value) == (
        f"partition text {text!r} has a part 0; parts are positive, and the "
        "weight-0 partition is written '0'")
    # The library constructor names the part, as it has no text.
    with pytest.raises(InvalidPartitionError) as info:
        Partition([0])
    assert str(info.value) == "parts must be positive integers, got 0"


@given(st.one_of(st.text(),
                 st.lists(st.sampled_from(["0", "1", "12", "+", " ", "_",
                                           "\u0663", "-", "\n"]))
                 .map("".join)))
def test_parse_accepts_only_ascii_digit_parts(text):
    try:
        p = parse_partition(text)
    except InvalidPartitionError:
        return
    stripped = text.strip()
    assert stripped == "0" or all(
        token.isascii() and token.isdigit() and int(token) > 0
        for token in stripped.split("+"))
    assert parse_partition(str(p)) == p


@given(st.lists(st.integers(1, 60), max_size=40))
def test_canonicalization_roundtrip(raw):
    p = Partition(raw)
    assert list(p.parts) == sorted(raw, reverse=True)
    assert p.weight == sum(raw)
    assert parse_partition(str(p)) == p
    # Idempotence: rebuilding from canonical parts changes nothing.
    assert Partition(p.parts) == p


_PARTS = st.lists(st.integers(1, 2**20), max_size=12)


@given(_PARTS, _PARTS)
def test_member_encoding_roundtrips_and_keeps_order(a, b):
    assert decode_member(encode_parts(a)) == tuple(a)
    assert len(encode_parts(a)) == len(a)
    # Members compare as their part tuples do, which the sorts and the
    # canonical-order check rely on.
    assert (encode_parts(a) < encode_parts(b)) == (tuple(a) < tuple(b))
    assert (encode_parts(a) == encode_parts(b)) == (a == b)


def _operators(a, b):
    return (a < b, a <= b, a == b, a > b, a >= b, a != b)


def _expected(order):
    # What the six operators give for a pair whose order is -1, 0 or 1.
    return (order < 0, order <= 0, order == 0, order > 0, order >= 0,
            order != 0)


def test_compare_spot_examples():
    for a, b, order in [([5], [4, 1], -1), ([3, 2], [3, 1, 1], -1),
                        ([1, 1], [3], -1), ([2, 2], [2, 2], 0),
                        ([4, 1], [5], 1)]:
        assert _operators(Partition(a), Partition(b)) == _expected(order)


def test_compare_is_a_total_order_up_to_12():
    # The enumerator emits weights ascending, canonical within each weight,
    # so its concatenation is the expected sorted order.
    canonical = [p for n in range(13)
                 for p in enumerate_oracle(n).partitions]
    index = {p: i for i, p in enumerate(canonical)}
    shuffled = canonical[:]
    random.Random(12).shuffle(shuffled)
    assert sorted(shuffled) == canonical
    # The operators agree with list position on every pair, which gives
    # totality, antisymmetry, and transitivity all at once.
    for a in canonical:
        for b in canonical:
            order = (index[a] > index[b]) - (index[a] < index[b])
            assert _operators(a, b) == _expected(order)


def test_partition_operators_agree_with_compare():
    # Sorting every partition of weights 0..6 gives the oracle's listing,
    # and each comparison operator agrees with the listing on every pair.
    listing = [p for n in range(7) for p in enumerate_oracle(n).partitions]
    assert sorted(reversed(listing)) == listing
    for i, a in enumerate(listing):
        for j, b in enumerate(listing):
            assert _operators(a, b) == _expected((i > j) - (i < j))
    # Against another type, ordering is refused as for any unrelated types.
    p = Partition([1])
    for other in ((1,), 1, "1"):
        for order in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError, match="not supported between"):
                order(p, other)
            with pytest.raises(TypeError, match="not supported between"):
                order(other, p)
        assert p.__lt__(other) is NotImplemented


def test_partition_is_a_sequence_of_its_parts():
    p = Partition([1, 3, 1])
    assert len(p) == 3 and len(Partition()) == 0
    assert list(p) == [3, 1, 1]
    assert (p[0], p[-1], p[1:]) == (3, 1, (1, 1))
    with pytest.raises(IndexError):
        p[3]
    # Against another type, == falls back to identity.
    assert p != (3, 1, 1) and p != "3+1+1"
    assert p.__eq__((3, 1, 1)) is NotImplemented


def test_classify_m1_examples():
    assert classify_m1(Partition([3, 1, 1])) is Kind.FIRST
    assert classify_m1(Partition([2, 2, 1])) is Kind.SECOND
    assert classify_m1(Partition([5])) is Kind.SECOND
    assert classify_m1(Partition()) is Kind.FIRST


def test_classify_m2_examples():
    assert classify_m2(Partition([2, 1, 1, 1])) is Kind.FIRST
    assert classify_m2(Partition([4, 1])) is Kind.SECOND
    assert classify_m2(Partition([1, 1, 1, 1, 1])) is Kind.FIRST
    assert classify_m2(Partition([3, 2])) is Kind.FIRST
    assert classify_m2(Partition()) is Kind.FIRST


def _groups(n, classifier):
    level = enumerate_oracle(n)
    first = [str(p) for p in level.partitions if classifier(p) is Kind.FIRST]
    second = [str(p) for p in level.partitions if classifier(p) is Kind.SECOND]
    return first, second


def test_classify_m1_golden_groups():
    assert _groups(5, classify_m1) == (M1_GROUP1_5, M1_GROUP2_5)


def test_classify_m2_golden_groups():
    assert _groups(5, classify_m2) == (M2_GROUP1_5, M2_GROUP2_5)


def test_classifiers_are_genuinely_different():
    # Same Kind type, different splits: group sizes 3 vs 4 at weight 5.
    m1_first, _ = _groups(5, classify_m1)
    m2_first, _ = _groups(5, classify_m2)
    assert len(m1_first) == 3
    assert len(m2_first) == 4
    assert set(m1_first) != set(m2_first)


def test_classify_m1_means_smallest_part_occurs_once():
    for n in range(26):
        level = enumerate_oracle(n)
        second = []
        for p in level.partitions:
            parts = p.parts
            occurs_once = bool(parts) and parts.count(min(parts)) == 1
            assert (classify_m1(p) is Kind.SECOND) == occurs_once, str(p)
            if occurs_once:
                second.append(encode_parts(parts))
        # The list kind test picks the same members of the whole level.
        assert smallest_part_once(level.raw_members()) == second, n


def test_classify_m2_means_units_below_the_smallest_non_unit_part():
    # The paper's definition on part tuples: with u = parts.count(1),
    # second kind iff 1 <= u < the smallest part above 1.
    for n in range(26):
        level = enumerate_oracle(n)
        second = []
        for p in level.partitions:
            parts = p.parts
            units = parts.count(1)
            non_units = [part for part in parts if part > 1]
            is_second = bool(non_units) and 1 <= units < min(non_units)
            assert (classify_m2(p) is Kind.SECOND) == is_second, str(p)
            if is_second:
                second.append(encode_parts(parts))
        # The list kind test picks the same members of the whole level.
        assert collectable(level.raw_members()) == second, n


@pytest.mark.parametrize("classify", [classify_m1, classify_m2])
def test_classifiers_refuse_a_part_past_the_largest_member_part(classify):
    too_large = Partition([MAX_PART + 1, 1])
    with pytest.raises(InvalidPartitionError) as refused:
        predecessor_m1(too_large)
    with pytest.raises(InvalidPartitionError,
                       match="part 1114112 is past the largest supported "
                             "part 1114111") as classified:
        classify(too_large)
    assert str(classified.value) == str(refused.value)
