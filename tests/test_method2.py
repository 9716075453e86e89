"""Second successor rule: unit collection, the explicit single-part
member, bijection properties, evolution."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from partition_evolve import (Kind, Level, NoPredecessorError, Partition,
                              _pure, classify_m2, enumerate_oracle,
                              euler_p_coeffs, evolve_m1, evolve_m2, method2,
                              predecessor_m2, successors_m2,
                              tagged_successors_m2)
from partition_evolve.engine import run_evolution
from partition_evolve.level import LevelBlocks, _certified

from golden import M2_COLLECTED_6, PARTITIONS_5, PARTITIONS_6

from support import assert_m2_bijection, assert_method_equivalence


def _set(*texts):
    return frozenset(Partition([int(x) for x in t.split("+")]) for t in texts)


def test_successor_examples():
    assert successors_m2(Partition([4, 1])) == _set("4+1+1", "4+2")
    assert successors_m2(Partition([3, 1, 1])) == _set("3+1+1+1", "3+3")
    assert successors_m2(Partition([3, 2])) == _set("3+2+1")
    assert successors_m2(Partition([2, 1, 1, 1])) == _set("2+1+1+1+1")
    assert successors_m2(Partition([2, 2, 1])) == _set("2+2+1+1", "2+2+2")
    assert successors_m2(Partition([1, 1])) == _set("1+1+1")
    assert successors_m2(Partition()) == _set("1")


def test_tagged_successors_name_their_rule():
    pairs = tagged_successors_m2(Partition([3, 1, 1]))
    assert [(str(s), tag) for s, tag in pairs] == [
        ("3+1+1+1", "AddedUnit"), ("3+3", "Collected")]


def test_predecessor_examples():
    assert predecessor_m2(Partition([3, 3])) == Partition([3, 1, 1])
    assert predecessor_m2(Partition([2, 2, 1, 1])) == Partition([2, 2, 1])
    assert predecessor_m2(Partition([4, 2])) == Partition([4, 1])
    assert predecessor_m2(Partition([1])) == Partition()
    with pytest.raises(NoPredecessorError, match="explicitly"):
        predecessor_m2(Partition([6]))
    with pytest.raises(NoPredecessorError):
        predecessor_m2(Partition())


def test_bijection_with_exclusion_up_to_30():
    assert_m2_bijection(30)


def test_branches_split_by_unit_count_up_to_30():
    # Appending a unit always leaves one; collecting them never does.
    # This is exactly why the successor map has no collisions.
    for n in range(31):
        for p in enumerate_oracle(n, cap=30).partitions:
            for s, tag in tagged_successors_m2(p):
                if tag == "AddedUnit":
                    assert s.parts.count(1) >= 1, str(s)
                else:
                    assert tag == "Collected"
                    assert s.parts.count(1) == 0, str(s)


def test_rule_never_produces_the_single_part_partition():
    for n in range(1, 25):
        single = Partition([n + 1])
        for p in enumerate_oracle(n, cap=25).partitions:
            assert single not in successors_m2(p), str(p)


@given(st.lists(st.integers(1, 30), max_size=20))
def test_roundtrip_property(raw):
    p = Partition(raw)
    for s in successors_m2(p):
        assert predecessor_m2(s) == p


def test_collected_branch_keeps_canonical_order():
    # u+1 never exceeds the smallest non-unit part, so the collected
    # part slots in at the end without re-sorting.
    for n in range(2, 26):
        for p in enumerate_oracle(n, cap=26).partitions:
            if classify_m2(p) is Kind.SECOND:
                (_, _), (collected, _) = tagged_successors_m2(p)
                parts = collected.parts
                assert all(parts[i] >= parts[i + 1]
                           for i in range(len(parts) - 1)), str(p)


def test_evolve_reproduces_golden_levels():
    level5 = evolve_m2(Level.seed("method2"), 5)
    assert [str(p) for p in level5.partitions] == PARTITIONS_5
    level6 = evolve_m2(level5, 6)
    assert [str(p) for p in level6.partitions] == PARTITIONS_6
    assert level6.tag_counts() == {"AddedUnit": 7, "Collected": 3,
                                   "Explicit": 1}
    by_tag = {tag: [] for tag in level6.tag_counts()}
    for p, tag in zip(level6.partitions, level6.tags):
        by_tag[tag].append(str(p))
    assert by_tag["Explicit"] == ["6"]
    assert by_tag["Collected"] == sorted(M2_COLLECTED_6,
                                         key=PARTITIONS_6.index)


def test_weight_one_is_not_double_added():
    level = evolve_m2(Level.seed("method2"), 1)
    assert [str(p) for p in level.partitions] == ["1"]
    assert level.tag_counts() == {"AddedUnit": 1}


def test_methods_agree_with_the_enumerator_up_to_40():
    assert_method_equivalence(40)


def test_methods_may_be_mixed_across_levels():
    # Either rule only needs a complete input level, so alternating them
    # still lands on the complete level every time.
    level = Level.seed("method1")
    for n in range(1, 13):
        level = (evolve_m1 if n % 2 else evolve_m2)(level, n)
    reference = enumerate_oracle(12)
    assert level.raw_members() == reference.raw_members()


def test_parts_past_255_evolve_like_the_per_partition_rule():
    # Parts past 255 have no Latin-1 byte, so the level's one-pass check
    # falls back to its per-member scan; members must come out as the
    # rule grows them all the same.
    start = Level(300, [chr(300)], "oracle")
    expected = {Partition((300,)): "Seed"}
    for n in range(301, 304):
        expected = {successor: tag for member in expected
                    for successor, tag in tagged_successors_m2(member)}
        expected[Partition((n,))] = "Explicit"
    level = evolve_m2(start, 303)
    assert list(level.partitions) == sorted(expected)
    assert level.tags == tuple(expected[p] for p in level.partitions)


@pytest.mark.parametrize("last", range(1, 16))
def test_each_table_holds_the_partitions_from_its_single_part_up(last):
    # The single part l grown s weights, explicit heads kept: every
    # partition of l + s whose first part is at least l, as the oracle,
    # which shares no code with the kernel, lists them.
    for steps in range(13):
        grown = run_evolution(Level(last, [chr(last)], "method2"),
                              last + steps, method_tag="method2",
                              step=_pure.step_m2)
        assert sorted(grown, reverse=True) == [
            member for member in enumerate_oracle(last + steps).raw_members()
            if ord(member[0]) >= last]


@pytest.mark.parametrize("start_n,target_n", [
    *((0, n) for n in (4, 5, 12, 20, 30)), (5, 6), (6, 9), (12, 20)])
def test_the_certified_count_is_p_of_n_with_no_whole_level(
        monkeypatch, start_n, target_n):
    # From the seed and on resumes from the oracle's level: the blocks pass
    # their certificate, not the walk, and hold P(N) members; no whole
    # level is sorted, and they are the oracle's level.
    def never(*args, **kwargs):
        raise AssertionError("a whole level was sorted")

    monkeypatch.setattr(Level, "from_raw", never)
    start = (Level.seed("method2") if start_n == 0
             else enumerate_oracle(start_n))
    blocks = method2.evolve_m2_chunks(start, target_n)
    assert isinstance(blocks, LevelBlocks)
    assert _certified(blocks) == euler_p_coeffs(target_n)[target_n]
    assert blocks.level().raw_members() == \
        enumerate_oracle(target_n).raw_members()
